"""Facades over the two generalized-suffix-tree backends.

The paper's pair-generation algorithm needs, for every suffix, three facts:
which string it belongs to, its offset in that string, and its
left-extension character (λ when the suffix is the whole string).  The two
backends package those facts differently:

- :class:`SuffixArrayGst` — the production engine.  One sort of the
  sentinel-terminated concatenation (vectorised numpy) emits its suffix
  array and LCP array together, and the index keeps four arrays per
  position — the one-byte text of symbol codes, int32 ``sa``, int16
  ``lcp`` (int32 once a string reaches 2**15 symbols) and int32
  ``pos_string``, 11 B per suffix in all — from which a suffix's offset,
  length and left-extension character are derived where they are read.
  It materialises LCP forests on demand: one flat forest per owner of
  bucket ranges (the unit of distribution across processors), the whole
  array by default.  The sort's scratch — a packed copy of the text and
  each round's keys — is gone when the build returns; bucket ranges are
  read off the LCP.
- :class:`NaiveGst` — the paper-faithful engine: explicit bucket trees in
  the DFS-array encoding.  Semantically identical output, used for tests,
  demonstrations, and small inputs.

Both are consumed by the generators in :mod:`repro.pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sequence.alphabet import LAMBDA, SIGMA
from repro.sequence.collection import EstCollection
from repro.suffix.buckets import sa_bucket_ranges
from repro.suffix.dfs_array import DfsArrayTree, from_trie
from repro.suffix.interval_tree import FlatForest, build_flat_forest
from repro.suffix.naive_tree import build_gst_forest
from repro.suffix.suffix_array import refine

__all__ = [
    "SuffixArrayGst",
    "NaiveGst",
    "MAX_POSITIONS",
    "LEFT_OF_CODE",
    "check_index_size",
]

#: Text positions (2N + 2n) an int32 index addresses.
MAX_POSITIONS = 2**31 - 1


def check_index_size(collection: EstCollection) -> None:
    """Refuse a corpus the 32-bit index cannot address, before allocating."""
    positions = 2 * collection.total_chars + collection.n_strings
    if positions > MAX_POSITIONS:
        raise ValueError(
            f"corpus has {positions} text positions (2N + 2n); the 32-bit "
            f"index holds at most {MAX_POSITIONS}"
        )


#: Left-extension character by the symbol code of the preceding position:
#: a terminator (code 0) — what precedes a string's first position — is λ,
#: nucleotide code c + 1 is c.
LEFT_OF_CODE = np.array([LAMBDA, *range(SIGMA)], dtype=np.int8)

#: Ranks per step of the blockwise sums over rank ranges.
_BLOCK = 1 << 16


def _suffix_lengths(starts: np.ndarray, pos_string: np.ndarray, positions):
    return starts[pos_string[positions] + 1] - 1 - positions


@dataclass
class SuffixArrayGst:
    """Enhanced-suffix-array view of the GST of S = {ESTs ∪ reverse complements}.

    Build with :meth:`build`; all heavy construction happens there so the
    object itself is cheap to ship between the driver and (simulated)
    processors.  Per text position it holds ``text`` (one byte: the sort's
    symbol codes, every terminator 0 and nucleotide c as c + 1), ``sa``,
    ``lcp`` and ``pos_string``; a suffix's offset, length and
    left-extension character are arithmetic on ``starts`` and ``text``,
    gathered at the positions a caller asks for (:meth:`offsets`,
    :meth:`suffix_lengths`, :meth:`left_chars`).
    """

    collection: EstCollection
    text: np.ndarray  # uint8 symbol code per text position
    starts: np.ndarray  # string k at starts[k] .. starts[k+1]-2, terminator after
    sa: np.ndarray  # rank -> text position
    lcp: np.ndarray  # rank -> common prefix with the previous rank
    pos_string: np.ndarray  # text position -> string index in S

    @classmethod
    def build(cls, collection: EstCollection) -> "SuffixArrayGst":
        """Sort, then tabulate: the sort reads the one-byte text and
        ``starts`` alone and emits ``sa`` and ``lcp``, so ``pos_string``
        is built once its scratch is gone."""
        check_index_size(collection)
        text, starts = collection.sa_codes()
        starts = starts.astype(np.int32)
        sa, lcp = refine(text, SIGMA.bit_length(), starts)
        pos_string = np.repeat(
            np.arange(collection.n_strings, dtype=np.int32), np.diff(starts)
        )
        return cls(
            collection=collection,
            text=text,
            starts=starts,
            sa=sa,
            lcp=lcp,
            pos_string=pos_string,
        )

    # -- per-position lookups, gathered where asked (int or array) ---------

    def offsets(self, positions, strings=None):
        """Offset of each position within its string (``strings``: its
        ``pos_string``, when the caller already holds it)."""
        if strings is None:
            strings = self.pos_string[positions]
        return positions - self.starts[strings]

    def suffix_lengths(self, positions):
        """Characters from each position up to its string's terminator."""
        return _suffix_lengths(self.starts, self.pos_string, positions)

    def left_chars(self, positions):
        """Left-extension character of each position's suffix: λ at a
        string's first position, else the character before it.  Position 0
        reads ``text[-1]``, the last terminator, and is λ like the rest."""
        return LEFT_OF_CODE[self.text[positions - 1]]

    # -- suffix lookups keyed by suffix-array *rank* (what forests store) --

    def rank_to_position(self, rank: int | np.ndarray) -> np.ndarray:
        return self.sa[rank]

    def suffix_info(self, rank: int) -> tuple[int, int, int]:
        """``(string, offset, left_extension_char)`` of the suffix at rank."""
        p = int(self.sa[rank])
        s = int(self.pos_string[p])
        return s, p - int(self.starts[s]), int(self.left_chars(p))

    def suffix_chars(self, ranges: list[tuple[int, int]]) -> np.ndarray:
        """Total length of the suffixes in each rank range ``[lo, hi)``
        (int64, one entry per range).  One pass over the ranks, a block at
        a time: each range takes the difference of the block's running
        sums at its ends clipped to the block."""
        bounds = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
        total = np.zeros(len(bounds), dtype=np.int64)
        m = self.sa.size
        for b in range(0, m, _BLOCK):
            e = min(b + _BLOCK, m)
            run = np.zeros(e - b + 1, dtype=np.int64)
            np.cumsum(self.suffix_lengths(self.sa[b:e]), out=run[1:])
            ends = np.clip(bounds, b, e) - b
            total += run[ends[:, 1]] - run[ends[:, 0]]
        return total

    # -- forest construction ------------------------------------------------

    def flat_forest(
        self, min_depth: int, ranges: list[tuple[int, int]] | None = None
    ) -> FlatForest:
        """The forest of an owner of rank ``ranges`` (all ranks by
        default), built in one vectorised pass — the input form of the
        vectorised pair engine."""
        return build_flat_forest(self.lcp, min_depth=min_depth, ranges=ranges)

    def bucket_ranges(self, w: int) -> list[tuple[int, int, int]]:
        """``(key, lo, hi)`` suffix-array ranges of the ``w``-prefix buckets
        — the distribution unit for parallel construction (§3.1)."""
        return sa_bucket_ranges(self.sa, self.text, self.lcp, w)

    @property
    def n_suffix_positions(self) -> int:
        return self.text.size


@dataclass
class NaiveGst:
    """Paper-faithful bucket-tree view in the DFS-array encoding."""

    collection: EstCollection
    w: int
    tree: DfsArrayTree = field(repr=False)

    @classmethod
    def build(cls, collection: EstCollection, w: int) -> "NaiveGst":
        forest = build_gst_forest(collection, w)
        return cls(collection=collection, w=w, tree=from_trie(forest))

    def left_extension(self, string: int, offset: int) -> int:
        return self.collection.left_extension(string, offset)
