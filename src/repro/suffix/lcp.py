"""Longest-common-prefix (LCP) arrays over a suffix array.

``lcp[r]`` is the length of the longest common prefix of the suffixes at
suffix-array ranks ``r-1`` and ``r`` (``lcp[0] = 0``).  Together with the
suffix array this is the *enhanced suffix array*: its "LCP intervals" are in
bijection with the internal nodes of the suffix tree, which is how the
production pair-generation engine reuses the paper's Algorithm 1 unchanged.

The production LCP array is emitted by the suffix sort itself
(:func:`repro.suffix.suffix_array.refine`): each pass over sorted keys
writes the exact common prefix of every pair it separates.  This module
keeps the references it is tested against:

- :func:`lcp_kasai` — the linear-time Kasai et al. algorithm.  A tight
  Python loop; exact.
- :func:`lcp_naive` — symbol-by-symbol comparison, the reference's
  reference.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lcp_kasai", "lcp_naive"]


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
