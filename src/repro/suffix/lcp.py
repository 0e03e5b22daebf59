"""Longest-common-prefix (LCP) arrays over a suffix array.

``lcp[r]`` is the length of the longest common prefix of the suffixes at
suffix-array ranks ``r-1`` and ``r`` (``lcp[0] = 0``).  Together with the
suffix array this is the *enhanced suffix array*: its "LCP intervals" are in
bijection with the internal nodes of the suffix tree, which is how the
production pair-generation engine reuses the paper's Algorithm 1 unchanged.

- :func:`lcp_first_mismatch` — the production path: the LCP array from
  the suffix sort's ``split``
  (:class:`repro.suffix.suffix_array.Refinement`) plus a first-mismatch
  query over the symbol codes.  A pair the seed separated carries its
  LCP as ``-split`` and is copied; a pair separated in round ``s > 0``
  shares ``width << (s - 1)`` symbols, so the query starts there and
  compares eight symbols per word.  It runs a block of rank boundaries
  at a time and keeps no rank array of any round.  The result is int16
  when no string reaches 2**15 symbols
  (:meth:`repro.suffix.gst.SuffixArrayGst.build` checks the longest),
  int32 otherwise.
- :func:`lcp_kasai` — the linear-time Kasai et al. algorithm.  A tight
  Python loop; exact, the reference the production path is tested against.
- :func:`lcp_naive` — symbol-by-symbol comparison, the reference's
  reference.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["lcp_kasai", "lcp_first_mismatch", "lcp_naive"]

#: Rank boundaries per step of the first-mismatch pass.
_BLOCK = 1 << 15

#: Bytes compared per pair in its first look and in each later one.  One
#: 16-byte look settles most adjacent pairs of a DNA suffix array: their
#: prefixes end within 16 symbols of what the split round guarantees.
_FIRST, _LATER = 16, 64


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


def lcp_first_mismatch(
    codes: np.ndarray,
    reach: Callable[[np.ndarray], np.ndarray],
    sa: np.ndarray,
    split: np.ndarray,
    width: int,
    dtype: type = np.int32,
) -> np.ndarray:
    """LCP array of adjacent suffix-array entries, of ``dtype``.

    ``codes`` are the symbols the sort compared (non-negative; only their
    equality is read), ``reach(p)`` the symbols from each of an array of
    positions up to its terminator, and ``sa``, ``split`` and ``width`` the
    sort's :class:`~repro.suffix.suffix_array.Refinement`.  Where
    ``split <= 0`` the LCP is ``-split``, already exact; only the pairs a
    round separated are compared.  No common prefix passes the nearer
    terminator, so each compared result is capped at the smaller
    ``reach`` of the pair, derived a block of rank boundaries at a time:
    past it the codes may agree (every sentinel of the EST text is code
    0) without being the same symbol.  ``dtype`` must hold the longest
    reach.
    """
    m = sa.size
    lcp = np.empty(m, dtype=dtype)
    # One copy of the codes at the narrowest unsigned width, padded so that
    # a window of ``_LATER`` bytes starts at every position up to ``m``.
    sym = np.min_scalar_type(int(codes.max(initial=0)))
    size = sym.itemsize
    buf = np.zeros(m + _LATER // size, dtype=sym)
    buf[:m] = codes[:m]
    first, later = (
        np.ndarray((m + 1,), f"V{b}", buf, strides=(size,)) for b in (_FIRST, _LATER)
    )
    # Symbols a pair separated in round s > 0 shares: width << (s - 1).
    shared = np.zeros(int(split.max(initial=0)) + 1, dtype=np.int64)
    shared[1:] = width << np.arange(shared.size - 1)
    # A pair the seed separated carries its LCP as -split; the others'
    # entries are overwritten below.
    np.negative(split, out=lcp)
    for lo in range(1, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        s = split[lo:hi]
        rounds = np.flatnonzero(s > 0)
        if not rounds.size:
            continue
        i, j = sa[lo - 1 : hi - 1][rounds], sa[lo:hi][rounds]
        cap = np.minimum(reach(i), reach(j))
        done = shared[s[rounds]]
        run = _equal_run(first, i, j, done, size)
        done += run
        # Pairs equal over the whole first window and short of their cap go
        # on, a later window at a time.  Going on, a pair starts short of
        # its cap, hence before the end of the text.
        todo = np.flatnonzero((run == _FIRST // size) & (done < cap))
        while todo.size:
            run = _equal_run(later, i[todo], j[todo], done[todo], size)
            done[todo] += run
            todo = todo[(run == _LATER // size) & (done[todo] < cap[todo])]
        lcp[lo:hi][rounds] = np.minimum(done, cap)
    return lcp


def _equal_run(
    windows: np.ndarray, x: np.ndarray, y: np.ndarray, skip: np.ndarray, size: int
) -> np.ndarray:
    """Equal symbols (``size`` bytes each) from each position pair
    ``x + skip`` / ``y + skip`` on, up to one whole window (``windows``: a
    fixed-size byte window per position).

    The windows are compared as little-endian int64 words, eight bytes at
    a time: the first unequal word is picked from the last back, and the
    lowest set bit of its XOR — ``d & -d``, a power of two that ``frexp``
    turns into a bit index — names the first unequal byte.
    """
    n_words = windows.dtype.itemsize // 8
    per_word = 8 // size
    d = windows[x + skip].view("<i8").reshape(-1, n_words)
    d ^= windows[y + skip].view("<i8").reshape(-1, n_words)
    word = d[:, -1]
    before = np.full(word.size, per_word * (n_words - 1), dtype=np.int32)
    for c in range(n_words - 2, -1, -1):
        unequal = d[:, c] != 0
        word = np.where(unequal, d[:, c], word)
        before = np.where(unequal, per_word * c, before)
    run = np.frexp(word & -word)[1]
    run -= 1
    run >>= 3 + size.bit_length() - 1  # bit -> byte -> symbol
    run += before
    run[word == 0] = per_word * n_words
    return run


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
