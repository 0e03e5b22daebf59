"""Named shared-memory arenas: the zero-copy substrate of slave startup.

The mp backend used to hand every slave the whole built index — the int8
sequence arena, the suffix/LCP arrays and (for the vector engine) the
flat CSR forests — as ordinary process arguments, an O(dataset × p)
serialisation cost under spawn semantics and an O(dataset × p) page-copy
exposure even under fork.  The paper's model is the opposite: slaves own
*references* to shared read-only data and receive only index ranges.

This module is the lifecycle layer that makes that literal in stdlib
Python (``multiprocessing.shared_memory``):

- :class:`ArenaDescriptor` — the picklable ``(name, dtype, shape)``
  triple from which any process can reconstruct a numpy view of a
  segment.  Descriptors are what actually travels to slaves: a few
  hundred bytes regardless of dataset size.
- :class:`ArenaRegistry` — create/attach/close/unlink bookkeeping for a
  set of segments.  The *owner* (master) creates segments and must
  eventually ``unlink`` them; *attachers* (slaves) open existing
  segments by name and only ever ``close`` their own mappings.  Both
  operations are idempotent, so fault paths can tear down defensively.
- :func:`leaked_segments` — the audit used by tests and the CI leak
  check: any ``/dev/shm`` entry carrying our prefix after a run has
  completed (or faulted) is a bug.

Attachment deliberately bypasses the ``resource_tracker``: on Python
< 3.13 every attach registers the segment with the tracker as if the
attacher owned it, which makes an exiting slave (or an injected-fault
``os._exit``) race the master for unlink and spews "leaked
shared_memory" warnings.  Ownership here is explicit — the creating
registry is the only unlinker; the tracker still guards the owner
against a hard master crash.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np

__all__ = [
    "SHM_PREFIX",
    "ArenaDescriptor",
    "ArenaRegistry",
    "leaked_segments",
]

#: Every segment created here is named ``<prefix>-<pid>-<seq>[-label]``;
#: the prefix is what the leak audit greps ``/dev/shm`` for.
SHM_PREFIX = "pace"


@dataclass(frozen=True)
class ArenaDescriptor:
    """Everything needed to reconstruct a numpy view of one segment.

    Picklable and tiny — this is the unit that rides in spawn arguments
    instead of the array it describes.
    """

    name: str
    dtype: str
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        n = np.dtype(self.dtype).itemsize
        for dim in self.shape:
            n *= dim
        return n


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without registering it with the resource
    tracker (see module docs: attachers are not owners)."""
    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class ArenaRegistry:
    """Lifecycle bookkeeping for a set of shared-memory arenas.

    One registry per role per process: the master owns a creating
    registry for the run; each slave owns an attaching registry for its
    mappings.  ``close()`` releases this process's mappings and is
    idempotent; CPython unmaps even when numpy views are still alive, so
    it must only be called once no view will be dereferenced again (i.e.
    at teardown, right before the work that used them ends).  ``unlink()``
    destroys created segments system-wide and is the owner's
    responsibility alone.
    """

    def __init__(self, prefix: str = SHM_PREFIX) -> None:
        self._prefix = prefix
        self._seq = 0
        self._created: dict[str, shared_memory.SharedMemory] = {}
        self._attached: dict[str, shared_memory.SharedMemory] = {}
        self._unlinked = False

    # ---- owner side ---------------------------------------------------- #

    def create(self, array: np.ndarray, label: str = "") -> ArenaDescriptor:
        """Copy ``array`` into a fresh named segment; return its descriptor.

        The copy happens exactly once, in the owner; every attacher gets
        a zero-copy view afterwards.
        """
        arr = np.ascontiguousarray(array)
        suffix = f"-{label}" if label else ""
        name = f"{self._prefix}-{os.getpid()}-{self._seq}{suffix}"
        self._seq += 1
        # Zero-byte segments are illegal; a 1-byte segment with a
        # zero-length descriptor shape round-trips an empty array.
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, arr.nbytes)
        )
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        del view  # release the buffer export before bookkeeping
        self._created[name] = shm
        return ArenaDescriptor(name=name, dtype=str(arr.dtype), shape=arr.shape)

    # ---- attacher side ------------------------------------------------- #

    def attach(self, descriptor: ArenaDescriptor) -> np.ndarray:
        """Read-only numpy view of an existing segment (zero-copy)."""
        shm = self._attached.get(descriptor.name)
        if shm is None:
            shm = _attach_untracked(descriptor.name)
            self._attached[descriptor.name] = shm
        view: np.ndarray = np.ndarray(
            descriptor.shape, dtype=np.dtype(descriptor.dtype), buffer=shm.buf
        )
        view.setflags(write=False)
        return view

    # ---- shared lifecycle ---------------------------------------------- #

    @property
    def n_segments(self) -> int:
        return len(self._created) + len(self._attached)

    def close(self) -> None:
        """Release this process's mappings.  Idempotent.  CPython unmaps
        even while numpy views of the segments are alive (leaving them
        dangling), so call this only when no view will be dereferenced
        afterwards — the last act of a slave, or the master's teardown."""
        for store in (self._created, self._attached):
            for name in list(store):
                try:
                    store[name].close()
                except (BufferError, OSError):
                    pass  # best-effort; process exit is the backstop
                del store[name]

    def unlink(self) -> None:
        """Destroy every segment this registry created (owner only).
        Idempotent; attached segments are never unlinked here."""
        if self._unlinked:
            return
        self._unlinked = True
        for name, shm in list(self._created.items()):
            try:
                shm.unlink()
            except FileNotFoundError:
                pass  # already gone (e.g. the resource tracker beat us)

    def dispose(self) -> None:
        """``unlink`` + ``close`` in the order that guarantees the names
        disappear even when local views are still alive."""
        self.unlink()
        self.close()

    def __enter__(self) -> "ArenaRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.dispose()


def leaked_segments(prefix: str = SHM_PREFIX) -> list[str]:
    """Names of shared-memory segments carrying ``prefix`` that still
    exist system-wide.  Empty on platforms without ``/dev/shm`` (the
    audit is then a no-op, not a failure)."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return []
    return sorted(p.name for p in shm_dir.glob(f"{prefix}-*"))
