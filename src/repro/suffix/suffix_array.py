"""Suffix-array construction: one packed seed sort, then active-set refinement.

The paper builds a distributed generalized suffix tree in C.  A literal
pure-Python suffix tree is far too slow at realistic input sizes, so the
production engine of this library is built on the *enhanced suffix array*
equivalence: the suffix array plus its LCP array encode exactly the internal
nodes of the suffix tree as LCP intervals (see
:mod:`repro.suffix.interval_tree`).

Construction follows the paper's own shape (§3.1: bucket suffixes on a
fixed-width prefix, then refine only inside buckets) rather than textbook
Manber–Myers doubling, which re-sorts every suffix in every round:

1. **Seed.**  Every suffix is keyed by as many leading symbols as one
   int64 holds (:func:`refine`), and one sort on that key orders all
   suffixes by their first ``width`` symbols.  Windows are cut after the
   first terminator and tie-broken by that terminator's id, so the key
   order is exactly the suffix order wherever a terminator is in reach:
   terminators are unique and smaller than every symbol, hence two
   windows that agree up to a terminator are told apart by its id and
   nothing behind it can matter.
2. **Refine.**  Larsson–Sadakane doubling restricted to the *active set*:
   a suffix's rank is the index of its group's first member, and a round
   with step ``h`` gathers, sorts by ``(rank[p], rank[p + h])`` and
   re-ranks only the members of groups of size > 1.  A group that has
   become a singleton is final and is never touched again.  The sorts
   need not be stable: tied members share a rank, so their relative
   order inside a round is unobservable, and the final order is total.
3. **State for the LCP.**  Only the final rank and, per adjacent pair of
   ranks, the round that separated it (:class:`Refinement`) outlive the
   sort: no rank array of an earlier round and no seed window is kept.
   :func:`repro.suffix.lcp.lcp_first_mismatch` turns the round into a
   lower bound on the pair's common prefix and reads the rest off the
   symbol codes themselves.

:func:`build_suffix_array` (arbitrary integer text, one terminator past
its end) and :meth:`repro.suffix.gst.SuffixArrayGst.build` (the one-byte
EST codes of :meth:`repro.sequence.EstCollection.sa_codes`, one
terminator per string) differ only in the symbol codes and segment
``starts`` they feed to :func:`refine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SuffixArray",
    "Refinement",
    "pack_windows",
    "refine",
    "refine_text",
    "ragged_ranges",
    "build_suffix_array",
    "suffix_array_naive",
]

#: Bits of an int64 sort key the seed may use.
_KEY_BITS = 62


@dataclass
class SuffixArray:
    """A finished suffix array.

    Attributes
    ----------
    text:
        The integer text the array was built over.
    sa:
        ``sa[r]`` is the text position of the ``r``-th smallest suffix.
    """

    text: np.ndarray
    sa: np.ndarray

    def __len__(self) -> int:
        return len(self.sa)


@dataclass
class Refinement:
    """The state of a finished suffix sort.

    Attributes
    ----------
    sa:
        The suffix array (int32, length ``m``).
    rank:
        Final rank per position (int32), the inverse of ``sa``.
    split:
        ``split[r]`` is the round in which ranks ``r - 1`` and ``r`` were
        told apart: 0 when the seed key separates them, ``s`` when round
        ``s`` does — they then share their first ``width << (s - 1)``
        symbols and differ within twice that.
    width:
        Symbols per seed window.
    """

    sa: np.ndarray
    rank: np.ndarray
    split: np.ndarray
    width: int


def pack_windows(codes: np.ndarray, bits: int, width: int) -> np.ndarray:
    """``packed[p]`` holds ``codes[p : p + width]`` as one integer, first
    symbol in the highest bits, zeros past the end; ``len(codes) + 1``
    entries.  Window spans double, and one last step appends the leading
    part of the window that starts where the doubled span stops."""
    m = codes.size
    packed = np.zeros(m + 1, dtype=np.int64)
    packed[:m] = codes
    span = 1
    while span < width:
        take = min(span, width - span)
        tail = packed[span:] >> (bits * (span - take))
        packed <<= bits * take
        packed[: tail.size] |= tail
        span += take
    return packed


def refine(codes: np.ndarray, bits: int, starts: np.ndarray) -> Refinement:
    """Sort the suffixes of a terminated symbol sequence.

    Parameters
    ----------
    codes:
        Symbol code per position: 0 for a terminator, ``1 .. 2**bits - 1``
        otherwise.
    bits:
        Bits per symbol code.
    starts:
        Segment bounds: segment ``k`` is ``starts[k] .. starts[k+1] - 1``
        and its last position is its terminator, of id ``k``; terminators
        compare by id.  The last terminator may be one past the end of
        ``codes`` (``starts[-1] == len(codes) + 1``), read as if it were
        there.
    """
    m = codes.size
    if m >= 2**31:
        raise ValueError(f"text of {m} positions does not fit int32 ranks")
    n_seg = starts.size - 1
    id_bits = (n_seg - 1).bit_length()
    width = (_KEY_BITS - id_bits) // bits
    if width < 1:
        raise ValueError(f"{bits}-bit symbols and {id_bits}-bit ids exceed a sort key")

    # Seed: cut each window after its first terminator, append the id —
    # in place, so the packed windows are the sort key and die with it.
    # Only the last ``width`` positions of a segment reach its terminator
    # within a window: one ragged range per segment.
    key = pack_windows(codes, bits, width)[:m]
    ends = starts[1:].astype(np.int64) - 1
    span = np.minimum(ends - starts[:-1] + 1, width)
    short = ragged_ranges(ends - span + 1, span)
    reach = np.repeat(ends, span) - short
    ids = np.repeat(np.arange(n_seg, dtype=np.int64), span)
    inside = short < m
    short, reach, ids = short[inside], reach[inside], ids[inside]
    cut = bits * (width - reach)
    key[short] = (key[short] >> cut) << cut
    key <<= id_bits
    key[short] |= ids
    del short, reach, ids, cut
    sa = np.argsort(key).astype(np.int32)
    key = key[sa]
    split = np.zeros(m, dtype=np.int8)
    split[1:][key[1:] == key[:-1]] = -1  # still tied
    del key
    heads = np.flatnonzero(split == 0).astype(np.int32)
    rank = np.empty(m + 1, dtype=np.int32)
    rank[sa] = np.repeat(heads, np.diff(heads, append=m))
    rank[m] = -1
    tied = split < 0
    tied[:-1] |= tied[1:]
    act = np.flatnonzero(tied).astype(np.int32)
    del heads, tied

    # Refine: only members of groups of size > 1, by the rank h further on.
    # Slot ``m`` of ``rank`` is the empty suffix past the end, which sorts
    # before everything: where a tied suffix of unterminated text lands
    # when it is advanced by its own length.
    h = width
    rounds = 0
    while act.size:
        rounds += 1
        pos = sa[act]
        key = (rank[pos].astype(np.int64) << 32) + (rank[pos + h] + 1)
        order = np.argsort(key)
        key = key[order]
        pos = pos[order]
        sa[act] = pos
        head = np.ones(act.size + 1, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=head[1:-1])
        bounds = np.flatnonzero(head)
        first = act[bounds[:-1]]
        rank[pos] = np.repeat(first, np.diff(bounds))
        fresh = first[split[first] < 0]
        split[fresh] = rounds
        act = act[~(head[:-1] & head[1:])]
        h *= 2
    return Refinement(sa=sa, rank=rank[:m], split=split, width=width)


def refine_text(text: np.ndarray) -> Refinement:
    """:func:`refine` over arbitrary non-negative integer text: symbols are
    compacted to ``1 .. sigma`` and the only terminator is the implicit one
    past the end, so a suffix that is a prefix of another sorts first."""
    text = np.asarray(text)
    m = text.size
    if m == 0:
        raise ValueError("cannot build a suffix array of empty text")
    if text.min() < 0:
        raise ValueError("text values must be non-negative")
    symbols, codes = np.unique(text, return_inverse=True)
    codes = codes.reshape(m) + 1
    return refine(codes, int(symbols.size).bit_length(), np.array([0, m + 1]))


def ragged_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` per (start, length) pair, in the
    dtype of ``starts``.

    The standard cumsum construction; zero-length segments contribute
    nothing.  Both inputs are integer arrays of equal size.
    """
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=starts.dtype)
    nz = lens > 0
    if not nz.all():
        starts, lens = starts[nz], lens[nz]
    ends = np.cumsum(lens)
    out = np.ones(total, dtype=starts.dtype)
    out[0] = starts[0]
    if lens.size > 1:
        out[ends[:-1]] = starts[1:] - starts[:-1] - lens[:-1] + 1
    return np.cumsum(out, out=out)


def build_suffix_array(text: np.ndarray) -> SuffixArray:
    """Build the suffix array of ``text`` (1-D, integer, non-negative;
    values need not be compact)."""
    return SuffixArray(text=np.asarray(text), sa=refine_text(text).sa)


def suffix_array_naive(text: np.ndarray) -> np.ndarray:
    """Brute-force reference: sort suffixes with Python tuple comparison.

    Quadratic-ish; only for cross-validation tests on small inputs.
    """
    text_list = [int(v) for v in np.asarray(text)]
    m = len(text_list)
    return np.array(sorted(range(m), key=lambda p: text_list[p:]), dtype=np.int64)
