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

1. **Seed.**  Every suffix is keyed by its first ``width`` symbols,
   cut after the first terminator, shifted above its own position
   (``window << pos_bits | p``, :func:`refine`), and the keys are sorted
   by value in place: ``sa`` is their low bits, with no permutation and
   no gather.  The key order is exactly the suffix order wherever a
   terminator is in reach: terminators are unique and smaller than every
   symbol, nothing behind one can matter, and two windows that agree up
   to a terminator end at two terminators at one offset from their
   positions, so position order is terminator-id order.  While the
   sorted keys are alive, one pass reads each adjacent pair's common
   prefix off them: the first unequal symbol (the highest set bit of the
   two keys' XOR) or the later window's terminator, whichever comes
   first.
2. **Refine.**  Larsson–Sadakane doubling restricted to the *active set*:
   a suffix's rank is the index of its group's first member, and a round
   with step ``h`` gathers, sorts by ``(rank[p], rank[p + h])`` and
   re-ranks only the members of groups of size > 1.  A group that has
   become a singleton is final and is never touched again.  The sorts
   need not be stable: tied members share a rank, so their relative
   order inside a round is unobservable, and the final order is total.
3. **State for the LCP.**  Only the final rank and, per adjacent pair of
   ranks, ``split`` (:class:`Refinement`) outlive the sort: the exact
   common prefix of a pair the seed separated, or the round that
   separated the rest.  No rank array of an earlier round and no seed key
   is kept.  :func:`repro.suffix.lcp.lcp_first_mismatch` copies the
   former and, for the latter, turns the round into a lower bound on the
   pair's common prefix and reads the rest off the symbol codes.

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

#: Bits of an int64 sort key the seed may use: all but the sign.
_KEY_BITS = 63

#: ``Refinement.split`` of a pair no sort has told apart yet.
_TIED = np.iinfo(np.int8).min

#: Ranks per step of the pass over the sorted seed keys.
_BLOCK = 1 << 15


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
        int8 per rank; ``split[0]`` is 0.  ``split[r] <= 0``: the seed
        separated ranks ``r - 1`` and ``r``, whose common prefix is
        ``-split[r]`` symbols.  ``split[r] = s > 0``: round ``s`` did —
        they then share their first ``width << (s - 1)`` symbols and
        differ within twice that.
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
        del tail  # before the next step's tail exists
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
        compare by id, which is their position order.  The last
        terminator may be one past the end of ``codes``
        (``starts[-1] == len(codes) + 1``), read as if it were there.

    Raises :class:`ValueError` when one symbol code and the bits of the
    highest position do not fit a 63-bit key together.
    """
    m = codes.size
    if m >= 2**31:
        raise ValueError(f"text of {m} positions does not fit int32 ranks")
    pos_bits = (m - 1).bit_length()
    width = (_KEY_BITS - pos_bits) // bits
    if width < 1:
        raise ValueError(
            f"{bits}-bit symbols and {pos_bits}-bit positions exceed a sort key"
        )

    # Seed: cut each window after its first terminator and put the position
    # below it — in place, so the packed windows are the sort key.  Only the
    # last ``width`` positions of a segment reach its terminator within a
    # window: one ragged range per segment.
    key = pack_windows(codes, bits, width)[:m]
    ends = starts[1:].astype(np.int64) - 1
    span = np.minimum(ends - starts[:-1] + 1, width)
    short = ragged_ranges(ends - span + 1, span)
    reach = np.repeat(ends, span) - short
    inside = short < m
    short, reach = short[inside], reach[inside]
    cut = bits * (width - reach)
    key[short] = (key[short] >> cut) << cut
    del short, reach, cut
    key <<= pos_bits
    for lo in range(0, m, _BLOCK):
        key[lo : lo + _BLOCK] |= np.arange(lo, min(lo + _BLOCK, m))
    key.sort()
    sa, split = _seed_split(key, bits, width, pos_bits)
    del key
    # A position's rank is its group's head: the last rank at or before
    # its own that the seed separated from its predecessor.
    rank = np.empty(m + 1, dtype=np.int32)
    rank[m] = -1
    head = 0
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        first = np.arange(lo, hi, dtype=np.int32)
        first[split[lo:hi] == _TIED] = head
        np.maximum.accumulate(first, out=first)
        rank[sa[lo:hi]] = first
        head = int(first[-1])
    tied = split == _TIED
    tied[:-1] |= tied[1:]
    act = np.flatnonzero(tied).astype(np.int32)
    del tied

    # Refine: only members of groups of size > 1, by the rank h further on.
    # Slot ``m`` of ``rank`` is the empty suffix past the end, which sorts
    # before everything: where a tied suffix of unterminated text lands
    # when it is advanced by its own length.
    h = width
    rounds = 0
    while act.size:
        rounds += 1
        pos = sa[act]
        key = rank[pos].astype(np.int64)
        key <<= 32
        key += rank[pos + h] + 1
        order = np.argsort(key)
        key.sort()  # in place: ``key[order]`` would be a second key
        pos = pos[order]
        del order
        sa[act] = pos
        head = np.ones(act.size + 1, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=head[1:-1])
        del key
        bounds = np.flatnonzero(head)
        first = act[bounds[:-1]]
        rank[pos] = np.repeat(first, np.diff(bounds))
        fresh = first[split[first] == _TIED]
        split[fresh] = rounds
        act = act[~(head[:-1] & head[1:])]
        h *= 2
    return Refinement(sa=sa, rank=rank[:m], split=split, width=width)


def _seed_split(
    key: np.ndarray, bits: int, width: int, pos_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read the sorted seed keys a block of ranks at a time: ``sa``, each
    key's low bits, and ``split``, per adjacent pair of ranks its common
    prefix as ``-lcp`` — or ``_TIED`` where the windows agree and reach no
    terminator, so only a refinement round can tell the pair apart.

    The pair's prefix ends at the first unequal symbol of its windows or at
    the first terminator of the later window, whichever comes first; past
    a terminator every window is zero, so that one is where the later
    window's trailing zero symbols start.  Both are bit indices: of the
    highest set bit of the two keys' XOR (positions differ, so it has
    one) and of the lowest set bit of the later window, with a guard bit
    above it standing for a window of terminator alone.
    """
    m = key.size
    sa = np.empty(m, dtype=np.int32)
    split = np.zeros(m, dtype=np.int8)
    mask = (1 << pos_bits) - 1
    guard = 1 << (bits * width)
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        sa[lo:hi] = key[lo:hi] & mask
        r = max(lo, 1)
        if r == hi:
            continue
        differ = _highest_bit(key[r - 1 : hi - 1] ^ key[r:hi])
        differ = (bits * width + pos_bits - 1 - differ) // bits
        tail = key[r:hi] >> pos_bits
        tail |= guard
        ends = width - _lowest_bit(tail) // bits
        lcp = np.minimum(differ, ends)
        split[r:hi] = np.where(lcp == width, _TIED, -lcp)
    return sa, split


def _lowest_bit(x: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each positive int64: ``x & -x`` is a
    power of two, exact in float64."""
    return np.frexp(x & -x)[1] - 1


def _highest_bit(x: np.ndarray) -> np.ndarray:
    """Index of the highest set bit of each positive int64.  Its float64
    exponent is exact below 2**53 and one too large where rounding carried
    into the next power of two, which ``x >> e == 0`` detects."""
    e = np.frexp(x)[1] - 1
    e -= (x >> e) == 0
    return e


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
