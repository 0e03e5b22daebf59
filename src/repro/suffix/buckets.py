"""Suffix bucketing on the first ``w`` characters (paper §3.1).

Parallel GST construction starts by partitioning all suffixes of all 2n
strings into at most |Σ|^w buckets keyed on their first ``w`` characters;
buckets are then distributed across processors so that (1) a bucket lives
entirely on one processor and (2) per-processor suffix counts are balanced.
The subtree built from one bucket is exactly the GST subtree below the
depth-``w`` node for that prefix, so the collection of bucket trees is a
distributed representation of the GST (minus the top ``< w`` region, which
is irrelevant because the pair-generation threshold ψ ≥ w).

Two views are provided:

- :func:`enumerate_bucket_suffixes` — explicit ``(string, offset)`` lists
  per bucket, consumed by the paper-faithful trie builder;
- :func:`sa_bucket_ranges` — each bucket as a contiguous suffix-array rank
  range, consumed by the suffix-array engine (a set of suffixes sharing a
  ``w``-prefix is contiguous in the suffix array).

Suffixes shorter than ``w`` are skipped in both views: they cannot contain
a substring of length ≥ ψ ≥ w and therefore can never participate in a
promising pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sequence.collection import EstCollection
from repro.suffix.suffix_array import pack_windows

__all__ = [
    "suffix_window_keys",
    "enumerate_bucket_suffixes",
    "sa_bucket_ranges",
    "BucketStats",
    "bucket_statistics",
]


def suffix_window_keys(codes: np.ndarray, w: int) -> np.ndarray:
    """Keys of all length-``w`` windows of one encoded string.

    ``keys[o]`` is the base-4 integer of ``codes[o:o+w]``; the result has
    ``max(0, len - w + 1)`` entries.
    """
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")
    codes = np.asarray(codes)
    return pack_windows(codes, 2, w)[: max(0, codes.size - w + 1)]


def enumerate_bucket_suffixes(
    collection: EstCollection, w: int
) -> dict[int, list[tuple[int, int]]]:
    """Partition every suffix of every string in S into ``w``-prefix buckets.

    Returns ``{key: [(string_index, offset), ...]}``; within a bucket the
    suffixes appear in (string, offset) order, which keeps downstream tree
    construction deterministic.
    """
    buckets: dict[int, list[tuple[int, int]]] = {}
    for k in range(collection.n_strings):
        keys = suffix_window_keys(collection.string(k), w)
        for off, key in enumerate(keys.tolist()):
            buckets.setdefault(key, []).append((k, off))
    return buckets


def sa_bucket_ranges(
    sa: np.ndarray, text: np.ndarray, lcp: np.ndarray, w: int
) -> list[tuple[int, int, int]]:
    """Bucket boundaries in the suffix array.

    ``text`` holds the sort's symbol codes (every terminator 0, nucleotide
    ``c`` as ``c + 1``).  Returns a list of ``(key, lo, hi)`` with
    ``[lo, hi)`` the suffix-array rank range of suffixes of length ≥ w
    whose first ``w`` characters have integer key ``key``, in increasing
    rank order.  Ranks of shorter suffixes (including sentinel positions)
    belong to no bucket.
    """
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")
    # Adjacent suffixes share their first w characters exactly when their
    # LCP reaches w, so a bucket boundary is an LCP below w.  A run longer
    # than one rank holds only suffixes of length >= w (the LCP never
    # passes a sentinel); a one-rank run is a bucket when no terminator
    # falls in its head's first w symbols.  Reads past the end clip to the
    # last position, a terminator.
    lo = np.flatnonzero(lcp < w)
    hi = np.append(lo[1:], sa.size)
    pos = sa[lo]
    # Base-4 key of each bucket's first w characters, read at its head.
    key = np.zeros(lo.size, dtype=np.int64)
    keep = np.ones(lo.size, dtype=bool)
    for i in range(w):
        code = text.take(pos + i, mode="clip")
        keep &= code != 0
        key <<= 2
        key += code
        key -= 1
    return list(zip(key[keep].tolist(), lo[keep].tolist(), hi[keep].tolist()))


@dataclass(frozen=True)
class BucketStats:
    """Summary of a bucket partition, used for load-balancing decisions and
    the partitioning-phase accounting of Table 3."""

    n_buckets: int
    total_suffixes: int
    max_bucket: int
    mean_bucket: float

    @property
    def imbalance(self) -> float:
        """max / mean bucket size (1.0 = perfectly uniform)."""
        return self.max_bucket / self.mean_bucket if self.mean_bucket else 0.0


def bucket_statistics(sizes: list[int]) -> BucketStats:
    """Compute :class:`BucketStats` from bucket sizes."""
    if not sizes:
        return BucketStats(0, 0, 0, 0.0)
    total = int(sum(sizes))
    return BucketStats(
        n_buckets=len(sizes),
        total_suffixes=total,
        max_bucket=int(max(sizes)),
        mean_bucket=total / len(sizes),
    )
