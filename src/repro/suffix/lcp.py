"""Longest-common-prefix (LCP) arrays over a suffix array.

``lcp[r]`` is the length of the longest common prefix of the suffixes at
suffix-array ranks ``r-1`` and ``r`` (``lcp[0] = 0``).  Together with the
suffix array this is the *enhanced suffix array*: its "LCP intervals" are in
bijection with the internal nodes of the suffix tree, which is how the
production pair-generation engine reuses the paper's Algorithm 1 unchanged.

- :func:`lcp_from_refinement` — the production path: the LCP array read
  off the state the suffix sort leaves behind
  (:class:`repro.suffix.suffix_array.Refinement`).  An adjacent pair that
  the sort separated in round ``s`` agrees on ``width << (s - 1)`` symbols
  and on fewer than twice that, so only the rank levels *below* ``s - 1``
  can still extend it: each level is consulted for the pairs still
  together at it, not for every pair, and what remains below the seed
  width is one XOR of two packed seed windows, taken a block of rank
  boundaries at a time.  The result is int32, like the suffix array.
- :func:`lcp_kasai` — the linear-time Kasai et al. algorithm.  A tight
  Python loop; exact, the reference the production path is tested against.
- :func:`lcp_naive` — symbol-by-symbol comparison, the reference's
  reference.
"""

from __future__ import annotations

import numpy as np

from repro.suffix.suffix_array import Refinement

__all__ = ["lcp_kasai", "lcp_from_refinement", "lcp_naive"]

#: Rank boundaries per step of the below-seed-width pass.
_TAIL_BLOCK = 1 << 16


def lcp_kasai(text: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """Kasai's algorithm: LCP array in O(m) total work."""
    text_list = np.asarray(text).tolist()
    sa = np.asarray(sa)
    m = len(text_list)
    rank = np.empty(m, dtype=np.int64)
    rank[sa] = np.arange(m)
    rank_list = rank.tolist()
    sa_list = sa.tolist()
    lcp = [0] * m
    h = 0
    for p in range(m):
        r = rank_list[p]
        if r > 0:
            q = sa_list[r - 1]
            while p + h < m and q + h < m and text_list[p + h] == text_list[q + h]:
                h += 1
            lcp[r] = h
            if h > 0:
                h -= 1
        else:
            h = 0
    return np.array(lcp, dtype=np.int64)


def lcp_from_refinement(ref: Refinement) -> np.ndarray:
    """LCP array of adjacent suffix-array entries from the sort's state."""
    sa, split = ref.sa, ref.split
    m = sa.size
    # First the symbols matched in whole rank levels, per rank boundary.
    lcp = np.zeros(m, dtype=np.int32)
    # Latest-separated pairs first: the pairs still together at a level
    # are then a prefix of the working arrays.
    tied = np.flatnonzero(split > 0)
    tied = tied[np.argsort(split[tied], kind="stable")[::-1]]
    n_levels = len(ref.levels)
    together = np.cumsum(np.bincount(split[tied], minlength=n_levels + 2)[::-1])[::-1]
    i = sa[tied - 1]
    j = sa[tied]
    for s in range(n_levels - 1, -1, -1):
        # Pairs split in round s + 1 agree on this level by definition;
        # pairs split later do when their ranks match.
        n_old, n = int(together[s + 2]), int(together[s + 1])
        level = ref.levels[s]
        grow = np.ones(n, dtype=bool)
        grow[:n_old] = level[i[:n_old]] == level[j[:n_old]]
        step = grow * np.int32(ref.width << s)
        i[:n] += step
        j[:n] += step
    lcp[tied] = j - sa[tied]
    # Then what is left below the seed width: the leading symbols two seed
    # windows share — the XOR is below ``2**(bits * q)`` exactly when all
    # but the last q symbols agree — never past the nearer terminator
    # (behind one both windows are zero).  A block of rank boundaries at a
    # time: the int64 windows and their scratch never span the array.
    symbol_steps = 1 << (ref.bits * np.arange(ref.width, dtype=np.int64))
    for lo in range(1, m, _TAIL_BLOCK):
        part = lcp[lo : lo + _TAIL_BLOCK]
        i = sa[lo - 1 : lo - 1 + part.size] + part
        j = sa[lo : lo + part.size] + part
        differ = ref.code[i] ^ ref.code[j]
        cap = np.minimum(ref.reach[i], ref.reach[j])
        same = ref.width - np.searchsorted(symbol_steps, differ, side="right")
        part += np.minimum(same, cap)
    return lcp


def lcp_naive(text: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """Brute-force reference LCP for tests."""
    text = np.asarray(text)
    sa = np.asarray(sa)
    m = len(sa)
    lcp = np.zeros(m, dtype=np.int64)
    for r in range(1, m):
        a, b = int(sa[r - 1]), int(sa[r])
        h = 0
        while a + h < m and b + h < m and text[a + h] == text[b + h]:
            h += 1
        lcp[r] = h
    return lcp
