"""Content-addressed on-disk cache of simulation results.

Layout::

    .repro-cache/
        <code-salt>/            one directory per simulator version
            <spec-digest>.json  {"checksum","record","salt","spec"}
        quarantine/             corrupt entries moved aside, same shape
            <code-salt>/<spec-digest>.json

An entry is one line of compact, key-sorted JSON, so the record's bytes
in the file are its canonical JSON and ``checksum`` is their hash
(:func:`~repro.exec.record.record_checksum`, equal to the record's
digest).

The **code salt** is a digest of every ``repro`` source file, so any
change to the simulator (timing model, scheduler, worker code...)
automatically invalidates the whole cache — a cached record can only
ever be returned for the exact code that produced it.  Within one salt,
records are keyed by the :class:`~repro.exec.spec.JobSpec` content
digest, so re-running a figure or sweep with overlapping points reuses
every already-simulated point and interrupted campaigns resume for
free.

Writes are atomic (temp file + ``os.replace``) so concurrent workers
and interrupted runs can never leave a truncated entry behind.  Reads
**self-heal**: every entry is verified on the way out — it must parse,
its stored ``checksum`` must match the record payload, and the record
must name the spec digest it is filed under.  A lookup checks an entry
in the layout ``put`` writes by hashing the stored record bytes and
parses only the record, and of the record not its per-PE rows, which
stay bytes until something reads ``pe_stats``
(:meth:`RunRecord.from_json`); every other entry (an older salt's
indented one, a hand-written or a damaged one) goes through the
layout-agnostic check, which parses the whole entry and re-encodes the
record.  Both checks apply the same rule.  Anything that fails is a
*corrupt* entry (a crashed writer, a bad sector, a bit flip): it is
moved to ``quarantine/`` for post-mortem and treated as a miss, so the
job simply re-simulates instead of raising — and because simulation is
a pure function of the spec, the healed entry is bit-identical.
``repro cache verify|repair`` runs the layout-agnostic check as an
offline sweep (docs/EXECUTION.md).  The one entry a lookup serves that
this sweep would quarantine is one whose per-PE rows hash right but are
not JSON, which only a hand-made entry can hold: its first read of
``pe_stats`` raises ``ValueError`` naming the spec digest, and
``repro cache repair`` moves it aside.

A lookup and the offline sweep read an entry through one reader.  A
lookup counts a transient I/O error on read, an unreadable path (a
directory, say) among them, as a miss, not as corruption; a failed
store is counted and dropped (the cache is an accelerator, never a
correctness dependency).  An optional
:class:`~repro.exec.chaos.ChaosPlan` hooks the read/write boundary to
inject exactly these faults in tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.exec.record import RunRecord, canonical_digest, record_checksum
from repro.exec.spec import JobSpec

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Directory (under the cache root) corrupt entries are moved into.
QUARANTINE_DIRNAME = "quarantine"

# The fixed framing of an entry as ``put`` writes it:
# {"checksum":"<32 hex>","record":<record>,"salt":"<salt>","spec":<spec>}
_HEAD = b'{"checksum":"'
_MARK = b'","record":'
_MARK_AT = len(_HEAD) + 32     # 45: the checksum's 32 hex digits end here
_RECORD_AT = _MARK_AT + len(_MARK)

_code_salt: Optional[str] = None


def code_salt() -> str:
    """Digest of the ``repro`` package sources (cache-invalidation salt).

    Hashes every ``*.py`` file under the installed ``repro`` package, in
    sorted relative-path order.  Computed once per process.
    """
    global _code_salt
    if _code_salt is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_salt = digest.hexdigest()[:16]
    return _code_salt


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


class CorruptEntryError(ValueError):
    """A cache entry exists but fails validation (parse/checksum/key)."""


def _check_entry(data: bytes, name: str, expect_digest: str) -> RunRecord:
    """Validate an entry's bytes in any layout, or raise
    :class:`CorruptEntryError` (truncation, bit flip, foreign record)."""
    try:
        # A high-bit flip makes the entry invalid UTF-8, and
        # UnicodeDecodeError is a ValueError: corruption, not I/O.
        payload = json.loads(data.decode("utf-8"))
        checksum = payload["checksum"]
        record_dict = payload["record"]
        record = RunRecord.from_dict(record_dict)
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptEntryError(
            f"{name}: unparseable entry ({exc})") from exc
    if checksum != record_checksum(record_dict):
        raise CorruptEntryError(f"{name}: checksum mismatch")
    if record.spec_digest != expect_digest:
        raise CorruptEntryError(
            f"{name}: holds record for spec "
            f"{record.spec_digest}, filed under {expect_digest}")
    return record


def _entry_tail(spec: JobSpec) -> bytes:
    """The bytes ``put`` writes after the record: the salt and the spec."""
    return (f',"salt":"{code_salt()}",'
            f'"spec":{spec.canonical_json()}}}').encode("utf-8")


def _read_as_written(data: bytes, spec: JobSpec) -> Optional[RunRecord]:
    """The record of an entry in exactly the layout ``put`` writes for
    ``spec``, checked by hashing its stored bytes and parsing only them,
    its per-PE rows on first read (:meth:`RunRecord.from_json`);
    ``None`` for any other entry, which :func:`_check_entry` decides."""
    tail = _entry_tail(spec)
    end = len(data) - len(tail)
    if (end <= _RECORD_AT or not data.startswith(_HEAD)
            or data[_MARK_AT:_RECORD_AT] != _MARK
            or not data.endswith(tail)):
        return None
    body = data[_RECORD_AT:end]
    # Bytes against bytes: a damaged checksum is never decoded.
    if canonical_digest(body).encode("ascii") != data[len(_HEAD):_MARK_AT]:
        return None
    try:
        record = RunRecord.from_json(body)
    except (ValueError, KeyError, TypeError):
        return None     # hashed, but not a record: a hand-made entry
    return record if record.spec_digest == spec.digest else None


class ResultCache:
    """Spec-digest-addressed store of :class:`RunRecord` JSON files."""

    def __init__(self, root: Union[str, Path, None] = None,
                 chaos=None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        #: Optional :class:`~repro.exec.chaos.ChaosPlan` hooked into the
        #: read/write boundary (fault-injection tests only).
        self.chaos = chaos
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.quarantined = 0    # corrupt entries moved aside on read
        self.io_errors = 0      # transient read/store I/O failures
        # "<root>/<salt>/", joined on first use so that building a
        # cache does not hash the sources.
        self._salt_dir = ""

    def _entry_file(self, spec: JobSpec) -> str:
        if not self._salt_dir:
            self._salt_dir = str(self.root / code_salt()) + os.sep
        return f"{self._salt_dir}{spec.digest}.json"

    def _path(self, spec: JobSpec) -> Path:
        return Path(self._entry_file(spec))

    # -- entry reads ---------------------------------------------------
    def _read(self, path: str) -> bytes:
        """The bytes of the entry at ``path``, read to end of file: the
        one reader of :meth:`get` and :meth:`verify`.

        Raises ``FileNotFoundError`` on a plain miss and ``OSError`` on
        a transient read failure (a directory at the path is one).
        """
        if self.chaos is not None:
            self.chaos.cache_read(path)
        fd = os.open(path, os.O_RDONLY)
        try:
            # Each read asks for what fstat says is left plus one byte,
            # as io.FileIO.readall sizes its buffer, so an entry takes
            # one read and the empty read that ends the file.  A fixed
            # read size would split a large entry into many reads and a
            # join, and would leave each buffer's unused tail free on
            # the heap for the records a batch keeps to fragment.
            ask = os.fstat(fd).st_size + 1
            chunks = []
            while chunk := os.read(fd, ask):
                chunks.append(chunk)
                # Twice as much if the file has grown since the fstat.
                ask = ask - len(chunk) if len(chunk) < ask else 2 * ask
        finally:
            os.close(fd)
        return b"".join(chunks)

    def quarantine(self, path: Path) -> Optional[Path]:
        """Move a corrupt entry under ``quarantine/`` (best effort)."""
        target = (self.root / QUARANTINE_DIRNAME
                  / path.parent.name / path.name)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            return None
        self.quarantined += 1
        return target

    # -- get/put --------------------------------------------------------
    def get(self, spec: JobSpec) -> Optional[RunRecord]:
        """Cached record for ``spec``, or ``None`` on a miss.

        Corrupt entries are quarantined and read as misses; transient
        I/O errors read as misses.  Never raises.
        """
        path = self._entry_file(spec)
        try:
            data = self._read(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.io_errors += 1
            self.misses += 1
            return None
        record = _read_as_written(data, spec)
        if record is None:
            try:
                record = _check_entry(data, os.path.basename(path),
                                      spec.digest)
            except CorruptEntryError:
                self.quarantine(Path(path))
                self.misses += 1
                return None
        self.hits += 1
        return record

    def put(self, spec: JobSpec, record: RunRecord) -> Optional[Path]:
        """Store ``record`` under ``spec``'s digest (atomic write).

        Returns the entry path, or ``None`` when a transient I/O error
        dropped the store — the cache is best-effort, so a full disk or
        flaky mount costs a future re-simulation, never the batch.
        """
        try:
            path = self._path(spec)
            if self.chaos is not None:
                self.chaos.cache_write(str(path))
            path.parent.mkdir(parents=True, exist_ok=True)
            # The compact, key-sorted JSON of {"checksum", "record",
            # "salt", "spec"}, with the record encoded once.
            body = record.canonical_json().encode("utf-8")
            data = b"".join((_HEAD, canonical_digest(body).encode("ascii"),
                             _MARK, body, _entry_tail(spec)))
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.puts += 1
            if self.chaos is not None:
                self.chaos.cache_written(path)
            return path
        except OSError:
            self.io_errors += 1
            return None

    # -- offline maintenance (repro cache verify|repair) ---------------
    def entry_paths(self) -> List[Path]:
        """Every entry file under the root, all salts, sorted;
        quarantined entries excluded."""
        try:
            paths = [p for p in self.root.glob("*/*.json")
                     if p.parent.name != QUARANTINE_DIRNAME
                     and p.parent.parent.name != QUARANTINE_DIRNAME]
        except OSError:
            return []
        return sorted(paths)

    def _sweep(self) -> Tuple[int, List[Tuple[Path, Exception]]]:
        """Check every entry: ``(valid_count, [(path, error), ...])``,
        each error the :class:`CorruptEntryError` or ``OSError`` that
        entry's check or read raised."""
        valid = 0
        failed: List[Tuple[Path, Exception]] = []
        for path in self.entry_paths():
            try:
                _check_entry(self._read(str(path)), path.name, path.stem)
            except (CorruptEntryError, OSError) as exc:
                failed.append((path, exc))
            else:
                valid += 1
        return valid, failed

    def verify(self) -> Tuple[int, List[Tuple[Path, str]]]:
        """Validate every entry: ``(valid_count, [(path, reason), ...])``.

        An entry must parse, match its stored checksum, and hold a
        record for the spec digest it is filed under (the filename); an
        entry that cannot be read is listed as ``unreadable``.
        Read-only — see :meth:`repair` for the sweep that quarantines.
        """
        valid, failed = self._sweep()
        return valid, [
            (path, str(exc) if isinstance(exc, CorruptEntryError)
             else f"unreadable: {exc}")
            for path, exc in failed]

    def repair(self) -> Tuple[int, List[Path]]:
        """Quarantine every corrupt entry: ``(valid_count, moved)``.

        An entry whose read raises ``OSError`` stays where it is, as
        :meth:`get` leaves it: the error may be transient, and the entry
        valid.  :meth:`verify` still lists it.
        """
        valid, failed = self._sweep()
        moved: List[Path] = []
        for path, exc in failed:
            if isinstance(exc, CorruptEntryError):
                target = self.quarantine(path)
                if target is not None:
                    moved.append(target)
        return valid, moved

    def __repr__(self) -> str:
        return (f"ResultCache({str(self.root)!r}: {self.hits} hits, "
                f"{self.misses} misses, {self.puts} puts)")
