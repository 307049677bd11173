"""Task and continuation primitives of the explicit continuation passing model.

A *task* is a tuple ``(f, args, k)`` — here ``(task_type, args, k)`` — where
``k`` is a :class:`Continuation` pointing at one argument slot of a pending
task that should receive this task's return value (Section II-A of the
paper).  The host interface is addressed by the reserved owner id
:data:`HOST`, so the root task's continuation delivers the final result back
to the CPU.

Both records are frozen, slotted dataclasses.  One is built per task and
per argument message, so each class writes its fields in a hand-written
``__init__`` through the slot descriptors bound below it: the generated
frozen ``__init__`` pays an ``object.__setattr__`` call per field.
Equality, hashing, ``fields()``, ``replace()``, pickling and the
:class:`~dataclasses.FrozenInstanceError` on assignment stay generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Reserved continuation owner id for the CPU-accelerator interface block.
HOST = -1

#: Default number of argument slots in a hardware task message.  The paper's
#: FibTaskType carries the type, a continuation, a slot index, and a small
#: fixed number of data words; four matches the widest benchmark worker.
MAX_TASK_ARGS = 4


@dataclass(frozen=True, slots=True)
class Continuation:
    """Pointer to one argument slot of a pending task.

    ``owner`` identifies which pending-task store holds the entry (one per
    tile in FlexArch, or :data:`HOST` for the interface block), ``entry`` is
    the index inside that store, and ``slot`` selects which missing argument
    this continuation fills.
    """

    owner: int
    entry: int
    slot: int = 0

    def __init__(self, owner: int, entry: int, slot: int = 0) -> None:
        _set_owner(self, owner)
        _set_entry(self, entry)
        _set_slot(self, slot)

    def with_slot(self, slot: int) -> "Continuation":
        """Return the same continuation aimed at a different argument slot."""
        return Continuation(self.owner, self.entry, slot)

    @property
    def is_host(self) -> bool:
        """True if this continuation returns its value to the host."""
        return self.owner == HOST

    def __repr__(self) -> str:
        target = "host" if self.is_host else f"pstore{self.owner}[{self.entry}]"
        return f"K({target}.{self.slot})"


_set_owner = Continuation.owner.__set__
_set_entry = Continuation.entry.__set__
_set_slot = Continuation.slot.__set__

#: Continuation of the root task: slot 0 of the host interface.
HOST_CONTINUATION = Continuation(HOST, 0, 0)


@dataclass(frozen=True, slots=True)
class Task:
    """A unit of computation: a type tag, argument words, and a continuation.

    ``task_type`` corresponds to the ``f`` of the computation model — the
    hardware's type field that homogeneous workers dispatch on.  ``args`` are
    the argument words (integers in hardware; any hashable value here).
    ``args`` may be any iterable: a tuple, or a tuple subclass, is stored
    as given, anything else as ``tuple(args)``.
    """

    task_type: str
    k: Continuation
    args: Tuple = ()

    def __init__(self, task_type: str, k: Continuation, args: Tuple = ()
                 ) -> None:
        _set_task_type(self, task_type)
        _set_k(self, k)
        _set_args(self, args if isinstance(args, tuple) else tuple(args))

    def arg(self, index: int, default=0):
        """Return argument word ``index``, or ``default`` past the end."""
        if 0 <= index < len(self.args):
            return self.args[index]
        return default

    def __repr__(self) -> str:
        args = ",".join(repr(a) for a in self.args)
        return f"Task({self.task_type}[{args}] -> {self.k!r})"


_set_task_type = Task.task_type.__set__
_set_k = Task.k.__set__
_set_args = Task.args.__set__


def make_task(task_type: str, k: Continuation, *args) -> Task:
    """Convenience constructor mirroring the CPPWD task constructors."""
    return Task(task_type, k, args)
