"""Suffix-array construction: one packed seed sort, then partition refinement
by the next text window.

The paper builds a distributed generalized suffix tree in C.  A literal
pure-Python suffix tree is far too slow at realistic input sizes, so the
production engine of this library is built on the *enhanced suffix array*
equivalence: the suffix array plus its LCP array encode exactly the internal
nodes of the suffix tree as LCP intervals (see
:mod:`repro.suffix.interval_tree`).

Construction follows the paper's own shape (§3.1: bucket suffixes on a
fixed-width prefix, then refine each bucket character by character from
its own suffixes) and emits the LCP array as it sorts:

1. **Seed.**  Every suffix is keyed by its first ``width`` symbols, read
   from a packed copy of the text (:class:`PackedText`) and cut after
   the first terminator, shifted above its own position
   (``window << pos_bits | p``), and the keys are sorted by value in
   place: ``sa`` is their low bits, with no permutation and no gather.
   The key order is exactly the suffix order wherever a terminator is in
   reach: terminators are unique and smaller than every symbol, nothing
   behind one can matter, and two windows that agree up to a terminator
   end at two terminators at one offset from their positions, so
   position order is terminator-id order.
2. **Rounds** (:func:`refine_groups`).  The suffixes still tied after
   ``d`` symbols form groups of adjacent ranks, each in position order.
   A round reads every member's next window, at ``p + d``, cut the same
   way, and sorts the members by ``group << (bits·width) | window`` with
   a stable ``argsort``: equal keys keep position order, which for
   windows that agree through a terminator is terminator-id order.  A
   round reads the text and its own members alone, so one bucket's
   suffixes sort without any other bucket's.
3. **LCP.**  Each pass over sorted keys — the seed's and every round's —
   writes the exact common prefix of each adjacent pair it separates: the
   depth before the window plus the first unequal symbol (the highest
   set bit of the two windows' XOR) or the later window's terminator,
   whichever comes first.  A pair still tied gets ``d + width``, the next
   round's depth, which is how the round finds its groups.

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
    "PackedText",
    "pack_windows",
    "refine",
    "refine_groups",
    "refine_text",
    "ragged_ranges",
    "build_suffix_array",
    "suffix_array_naive",
]

#: Bits of an int64 sort key the seed may use: all but the sign.
_KEY_BITS = 63

#: Ranks per step of the passes over keys.
_BLOCK = 1 << 13


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


class PackedText:
    """The symbol codes ``bits`` to a symbol and ``63 // bits`` to an int64
    word, first symbol in the highest bits, zeros past the end.

    ``width`` is the seed's window: the symbols that fit one sort key
    beside a position (``pos_bits = (m - 1).bit_length()``).  Raises
    :class:`ValueError` when not one symbol fits.
    """

    def __init__(self, codes: np.ndarray, bits: int):
        m = codes.size
        self.pos_bits = (m - 1).bit_length()
        self.width = (_KEY_BITS - self.pos_bits) // bits
        if self.width < 1:
            raise ValueError(
                f"{bits}-bit symbols and {self.pos_bits}-bit positions exceed a sort key"
            )
        self.bits = bits
        self.per_word = _KEY_BITS // bits
        # Two words past the last symbol: a window of up to ``per_word``
        # symbols from any position up to ``m`` reads two whole words.
        grid = np.zeros((m // self.per_word + 2, self.per_word), dtype=codes.dtype)
        grid.reshape(-1)[:m] = codes
        self.words = np.zeros(grid.shape[0], dtype=np.int64)
        for j in range(self.per_word):
            self.words <<= bits
            self.words |= grid[:, j]

    def windows(self, q: np.ndarray, width: int) -> np.ndarray:
        """The ``width`` symbols from each position ``q`` (at most
        ``per_word``; int64, first symbol highest), cut after the first
        terminator (code 0): every symbol behind it reads 0.

        A window spans two words: the first shifted up past the symbols
        before ``q``, the second down into the space that leaves.  The
        first terminator is the highest zero field: a field is non-zero
        when its low bits plus all-ones-but-the-top carry into its top
        bit or its top bit is set, which no carry between fields can
        disturb."""
        bits, per = self.bits, self.per_word
        word = q // per
        slot = q - word * per
        slot *= bits
        x = self.words[word] << slot
        x &= (1 << (bits * per)) - 1
        slot -= bits * per
        np.negative(slot, out=slot)
        word += 1
        x |= self.words[word] >> slot
        x >>= bits * (per - width)
        top = sum(1 << (bits * j + bits - 1) for j in range(width))
        low = top - sum(1 << (bits * j) for j in range(width))
        zero = x & low
        zero += low
        zero |= x
        zero &= top
        zero ^= top
        cut = np.flatnonzero(zero)
        if cut.size:
            shift = _highest_bit(zero[cut]) - (bits - 1)
            x[cut] = (x[cut] >> shift) << shift
        return x


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


def refine(
    codes: np.ndarray, bits: int, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort the suffixes of a terminated symbol sequence: ``(sa, lcp)``.

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

    ``sa`` is int32; ``lcp`` (``lcp[0] = 0``) is int16 when no segment
    holds 2**15 symbols before its terminator — no common prefix can then
    pass 32 767 — and int32 otherwise.  Raises :class:`ValueError` when
    one symbol code and the bits of the highest position do not fit a
    63-bit key together.
    """
    m = codes.size
    if m >= 2**31:
        raise ValueError(f"text of {m} positions does not fit int32 ranks")
    text = PackedText(codes, bits)
    width, pos_bits = text.width, text.pos_bits
    longest = int(np.diff(starts).max()) - 1

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
    sa = np.empty(m, dtype=np.int32)
    lcp = np.empty(m, dtype=np.int16 if longest < 2**15 else np.int32)
    lcp[0] = 0
    mask = (1 << pos_bits) - 1
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        sa[lo:hi] = key[lo:hi] & mask
        r = max(lo, 1)
        if r < hi:
            later = key[r:hi] >> pos_bits
            lcp[r:hi] = _shared(key[r - 1 : hi - 1] >> pos_bits ^ later, later, text)
    del key
    tied = lcp == width
    member = tied.copy()
    member[:-1] |= tied[1:]
    del tied
    act = np.flatnonzero(member).astype(np.int32)
    del member
    refine_groups(text, sa, lcp, act, width)
    return sa, lcp


def refine_groups(
    text: PackedText, sa: np.ndarray, lcp: np.ndarray, act: np.ndarray, depth: int
) -> None:
    """Finish sorting the suffixes at ranks ``act`` of ``sa``, in place,
    and write the ``lcp`` of every pair the rounds separate.

    ``act`` ascends; ranks ``r - 1`` and ``r`` both in it are tied when
    ``lcp[r] == depth``: they agree on their first ``depth`` symbols with
    no terminator among them.  Each maximal run of tied ranks is a group,
    in position order.  Round by round, every member is keyed by its
    group and the ``width`` symbols at ``p + depth``, and the members are
    sorted stably; pairs left tied stay for the next round.  Only ``sa``
    and ``lcp`` at ranks ``act`` are read or written, so ``act`` may be a
    whole bucket in position order with ``lcp[act] == depth == 0``.
    """
    bits, width = text.bits, text.width
    span = bits * width
    tied = lcp[act] == depth
    tied[:1] = False
    while act.size:
        key = np.cumsum(~tied, dtype=np.int64)
        del tied
        key <<= span
        for lo in range(0, act.size, _BLOCK):
            pos = sa[act[lo : lo + _BLOCK]].astype(np.int64)
            pos += depth
            key[lo : lo + _BLOCK] |= text.windows(pos, width)
        order = np.argsort(key, kind="stable").astype(np.int32)
        pos = sa[act]
        tied = np.zeros(act.size, dtype=bool)
        for lo in range(0, act.size, _BLOCK):
            hi = min(lo + _BLOCK, act.size)
            sa[act[lo:hi]] = pos[order[lo:hi]]
            r = max(lo, 1)
            if r == hi:
                continue
            ranked = key[order[r - 1 : hi]]
            xor = ranked[:-1] ^ ranked[1:]
            same = xor < 1 << span
            xor &= (1 << span) - 1
            ranked &= (1 << span) - 1
            shared = _shared(xor, ranked[1:], text)
            lcp[act[r:hi][same]] = shared[same] + depth
            tied[r:hi] = same & (shared == width)
        del key, order, pos
        member = tied.copy()
        member[:-1] |= tied[1:]
        act, tied = act[member], tied[member]
        depth += width


def _shared(xor: np.ndarray, later: np.ndarray, text: PackedText) -> np.ndarray:
    """Symbols two sorted adjacent windows share, ``width`` at most:
    up to the first unequal symbol — the highest set bit of their XOR,
    ``width`` for none — or the later window's first terminator, where
    its trailing zero symbols start — its lowest set bit, with a guard
    bit above it for a window of terminator alone — whichever comes
    first.  ``xor`` is used up."""
    bits, width = text.bits, text.width
    xor <<= 1
    xor |= 1
    differ = bits * width - _highest_bit(xor)
    differ //= bits
    ends = _lowest_bit(later | 1 << (bits * width))
    ends //= bits
    np.subtract(width, ends, out=ends)
    return np.minimum(differ, ends)


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


def refine_text(text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`refine` over arbitrary non-negative integer text.

    Symbols are compacted to ``1 .. sigma`` and the only terminator is the
    implicit one past the end, so a suffix that is a prefix of another
    sorts first.  A sentinel-terminated text — its symbols that occur once
    are all below the repeated ones, rise with their position and end the
    text, as in :meth:`repro.sequence.EstCollection.sa_text` — is sorted
    with those as its terminators (code 0) and the repeated symbols
    compacted to ``1 .. sigma - k``: no common prefix passes a symbol
    that occurs once, and each compares below every repeated symbol and
    by position with the others, as terminators do.
    """
    text = np.asarray(text)
    m = text.size
    if m == 0:
        raise ValueError("cannot build a suffix array of empty text")
    if text.min() < 0:
        raise ValueError("text values must be non-negative")
    _, first, codes, counts = np.unique(
        text, return_index=True, return_inverse=True, return_counts=True
    )
    codes = codes.reshape(m)
    k = int(np.count_nonzero(counts == 1))
    ends = first[:k]
    if k and (counts[:k] == 1).all() and ends[-1] == m - 1 and (np.diff(ends) > 0).all():
        codes -= k - 1
        np.maximum(codes, 0, out=codes)
        bits = max(counts.size - k, 1).bit_length()
        return refine(codes, bits, np.append(0, ends + 1))
    codes += 1
    return refine(codes, counts.size.bit_length(), np.array([0, m + 1]))


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
    return SuffixArray(text=np.asarray(text), sa=refine_text(text)[0])


def suffix_array_naive(text: np.ndarray) -> np.ndarray:
    """Brute-force reference: sort suffixes with Python tuple comparison.

    Quadratic-ish; only for cross-validation tests on small inputs.
    """
    text_list = [int(v) for v in np.asarray(text)]
    m = len(text_list)
    return np.array(sorted(range(m), key=lambda p: text_list[p:]), dtype=np.int64)
