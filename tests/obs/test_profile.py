"""cProfile capture and cross-job hot-function aggregation."""

from dataclasses import dataclass

import pytest

from repro.obs.profile import (
    aggregate,
    capture_profile,
    default_profile_dir,
    hot_functions,
    profile_paths,
    render_report,
)


def _burn(n: int) -> int:
    return sum(i * i for i in range(n))


def test_default_profile_dir_under_cache_root(tmp_path):
    assert default_profile_dir(tmp_path) == tmp_path / "profiles"


def test_capture_none_is_noop():
    with capture_profile(None):
        _burn(10)


def test_capture_writes_pstats(tmp_path):
    path = tmp_path / "deep" / "job.pstats"
    with capture_profile(path):
        _burn(1000)
    assert path.is_file()
    stats = aggregate([path])
    assert stats is not None
    assert any(name == "_burn" for (_, _, name) in stats.stats)


@dataclass
class _Alpha:
    x: int


@dataclass
class _Beta:
    y: int


def _build(cls, n: int) -> None:
    for i in range(n):
        cls(i)


def test_capture_counts_functions_that_share_a_key(tmp_path):
    """Both dataclasses' generated ``__init__``s sit at ``<string>:2``,
    which pstats reads as one function: its row sums both."""
    path = tmp_path / "records.pstats"
    with capture_profile(path):
        _build(_Alpha, 300)
        _build(_Beta, 70)
    rows = hot_functions([path], top=1000)
    init = [r for r in rows if r["function"] == "<string>:2(__init__)"]
    assert [(r["ncalls"], r["primcalls"]) for r in init] == [(370, 370)]
    # Its callers are summed too: _build called it 370 times.
    stats = aggregate([path])
    callers = stats.stats[("<string>", 2, "__init__")][4]
    assert {name: c[0] for (_, _, name), c in callers.items()} == {
        "_build": 370}


def test_capture_dumps_on_exception(tmp_path):
    path = tmp_path / "failed.pstats"
    with pytest.raises(RuntimeError):
        with capture_profile(path):
            _burn(100)
            raise RuntimeError("job died")
    assert path.is_file(), "a failed job's partial profile must persist"


def test_profile_paths_sorted(tmp_path):
    for name in ("bb.pstats", "aa.pstats"):
        with capture_profile(tmp_path / name):
            pass
    (tmp_path / "ignored.txt").write_text("not a capture")
    paths = profile_paths(tmp_path)
    assert [p.name for p in paths] == ["aa.pstats", "bb.pstats"]
    assert profile_paths(tmp_path / "missing") == []


def test_aggregate_skips_unreadable(tmp_path):
    good = tmp_path / "good.pstats"
    with capture_profile(good):
        _burn(100)
    bad = tmp_path / "bad.pstats"
    bad.write_bytes(b"not a marshal stream")
    stats = aggregate([bad, good])
    assert stats is not None
    assert aggregate([bad]) is None


def test_hot_functions_cross_job_sum(tmp_path):
    for i in range(3):
        with capture_profile(tmp_path / f"job{i}.pstats"):
            _burn(2000)
    rows = hot_functions(profile_paths(tmp_path), top=50)
    burn = [r for r in rows if "(_burn)" in r["function"]]
    assert burn, f"_burn missing from {[r['function'] for r in rows]}"
    assert burn[0]["ncalls"] == 3, "calls must sum across captures"
    assert burn[0]["cumtime"] >= burn[0]["tottime"] >= 0.0
    # Paths are shortened to their last two components.
    assert burn[0]["function"].count("/") <= 1


def test_hot_functions_sort_modes(tmp_path):
    with capture_profile(tmp_path / "one.pstats"):
        _burn(500)
    paths = profile_paths(tmp_path)
    cum = hot_functions(paths, top=5, sort="cumulative")
    tot = hot_functions(paths, top=5, sort="tottime")
    assert cum and tot
    assert all(cum[i]["cumtime"] >= cum[i + 1]["cumtime"]
               for i in range(len(cum) - 1))
    assert all(tot[i]["tottime"] >= tot[i + 1]["tottime"]
               for i in range(len(tot) - 1))
    with pytest.raises(ValueError):
        hot_functions(paths, sort="bogus")


def test_render_report(tmp_path):
    assert "--profile" in render_report([])
    with capture_profile(tmp_path / "one.pstats"):
        _burn(500)
    report = render_report(profile_paths(tmp_path), top=10)
    assert "hot functions across 1 profiled job(s)" in report
    assert "tottime s" in report


def test_runner_profiles_simulated_jobs_only(tmp_path):
    from repro.exec import JobRunner, ResultCache, make_spec

    cache = ResultCache(tmp_path)
    profile_dir = tmp_path / "profiles"
    spec = make_spec("fib", 1, quick=True)
    JobRunner(cache=cache, profile_dir=profile_dir).run_checked([spec])
    captures = profile_paths(profile_dir)
    assert [p.stem for p in captures] == [spec.digest]
    rows = hot_functions(captures, top=100)
    assert any("engine" in r["function"] for r in rows), \
        "the sim engine loop must appear in a simulated job's profile"

    # Warm rerun: the cache hit runs nothing, so no new capture.
    JobRunner(cache=cache, profile_dir=profile_dir).run_checked([spec])
    assert profile_paths(profile_dir) == captures
