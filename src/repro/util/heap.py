"""Hand the C heap a run has freed back to the operating system.

A clustering run allocates its index, forests, drain tables and aligner
buffers from the C heap and frees them before it returns.  glibc keeps
freed heap resident: once its dynamic mmap threshold has risen (freeing
any block of a few MB lifts it), multi-megabyte arrays come from the brk
heap too, and the small blocks numpy's allocation cache keeps for good
pin the gaps between them.  So without a trim the process leaves a run
holding the run's high-water as free heap, in gaps whose sizes and places
follow the exact allocation history, and whatever the process does next
lands in them.  ``malloc_trim(0)`` returns every free page of the heap.
Where the C library has no ``malloc_trim`` this is a no-op.
"""

from __future__ import annotations

import ctypes

__all__ = ["release_free_heap"]

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None
else:
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int


def release_free_heap() -> None:
    """Return the free pages of the C heap to the operating system."""
    if _malloc_trim is not None:
        _malloc_trim(0)
