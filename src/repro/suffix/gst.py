"""Facades over the two generalized-suffix-tree backends.

The paper's pair-generation algorithm needs, for every suffix, three facts:
which string it belongs to, its offset in that string, and its
left-extension character (λ when the suffix is the whole string).  The two
backends package those facts differently:

- :class:`SuffixArrayGst` — the production engine.  Builds the suffix array
  and LCP array of the sentinel-terminated concatenation once (vectorised
  numpy) and the per-position lookup tables — every array int32
  (``left_char`` int8), 25 B per suffix in all — and materialises LCP
  forests on demand: one flat forest per owner of bucket ranges (the
  unit of distribution across processors), the whole array by default.
  What the build holds besides is one byte of symbol codes per position
  and the sort's final ranks and separation rounds — no per-round rank
  copy and no packed seed window; bucket ranges are read off the LCP.
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
from repro.suffix.interval_tree import (
    FlatForest,
    LcpForest,
    build_flat_forest,
    build_lcp_forest,
)
from repro.suffix.lcp import lcp_first_mismatch
from repro.suffix.naive_tree import build_gst_forest
from repro.suffix.suffix_array import SuffixArray, refine

__all__ = ["SuffixArrayGst", "NaiveGst", "MAX_POSITIONS", "check_index_size"]

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


@dataclass
class SuffixArrayGst:
    """Enhanced-suffix-array view of the GST of S = {ESTs ∪ reverse complements}.

    Build with :meth:`build`; all heavy construction happens there so the
    object itself is cheap to ship between the driver and (simulated)
    processors.
    """

    collection: EstCollection
    text: np.ndarray
    starts: np.ndarray
    sa_struct: SuffixArray
    lcp: np.ndarray
    pos_string: np.ndarray  # text position -> string index in S
    pos_offset: np.ndarray  # text position -> offset within its string
    left_char: np.ndarray  # text position -> left-extension char (λ at offset 0)
    suffix_len: np.ndarray  # text position -> suffix length (excl. sentinel)

    @classmethod
    def build(cls, collection: EstCollection) -> "SuffixArrayGst":
        """Sort first, tabulate afterwards: the sort reads only
        ``suffix_len`` and ``pos_string``, so the other per-position tables
        are built once its scratch is gone and do not sit through its peak.
        """
        check_index_size(collection)
        text, starts = collection.sa_text()
        m = text.size
        two_n = collection.n_strings
        spans = np.diff(starts)  # string length + its sentinel
        pos_string = np.repeat(np.arange(two_n, dtype=np.int32), spans)
        suffix_len = np.repeat((starts[1:] - 1).astype(np.int32), spans)
        suffix_len -= np.arange(m, dtype=np.int32)
        # Seed symbols, one byte each: every sentinel 0 (the in-place
        # subtraction wraps them; they are then overwritten), nucleotide
        # c -> c + 1; windows that reach a sentinel are tie-broken by its
        # string's id.  Of the sort's state only ``sa`` and the separation
        # rounds reach the LCP pass, and only ``sa`` and ``lcp`` outlive it.
        codes = np.empty(m, dtype=np.uint8)
        np.subtract(text, two_n - 1, out=codes, casting="unsafe")
        codes[starts[1:] - 1] = 0
        state = refine(codes, SIGMA.bit_length(), suffix_len, pos_string)
        sa, split, width = state.sa, state.split, state.width
        del state
        lcp = lcp_first_mismatch(codes, suffix_len, sa, split, width)
        del codes, split
        pos_offset = np.arange(m, dtype=np.int32)
        pos_offset -= np.repeat(starts[:-1].astype(np.int32), spans)
        # The character before each position; what precedes a string's first
        # position is a sentinel (wraps in int8), overwritten with λ.
        left_char = np.empty(m, dtype=np.int8)
        np.subtract(text[:-1], two_n, out=left_char[1:], casting="unsafe")
        left_char[starts[:-1]] = LAMBDA
        return cls(
            collection=collection,
            text=text,
            starts=starts,
            sa_struct=SuffixArray(text=text, sa=sa),
            lcp=lcp,
            pos_string=pos_string,
            pos_offset=pos_offset,
            left_char=left_char,
            suffix_len=suffix_len,
        )

    # -- suffix lookups keyed by suffix-array *rank* (what forests store) --

    def rank_to_position(self, rank: int | np.ndarray) -> np.ndarray:
        return self.sa_struct.sa[rank]

    def suffix_info(self, rank: int) -> tuple[int, int, int]:
        """``(string, offset, left_extension_char)`` of the suffix at rank."""
        p = int(self.sa_struct.sa[rank])
        return int(self.pos_string[p]), int(self.pos_offset[p]), int(self.left_char[p])

    # -- forest construction ------------------------------------------------

    def forest(self, min_depth: int, lo: int = 0, hi: int | None = None) -> LcpForest:
        """LCP forest of nodes with string-depth ≥ ``min_depth`` over ranks
        ``[lo, hi)`` (the full array by default)."""
        return build_lcp_forest(self.lcp, min_depth=min_depth, lo=lo, hi=hi)

    def flat_forest(
        self, min_depth: int, ranges: list[tuple[int, int]] | None = None
    ) -> FlatForest:
        """The forest of an owner of rank ``ranges`` (all ranks by
        default) in flat CSR arrays, built in one vectorised pass — the
        input form of the vectorised pair engine.  Equals the per-range
        :meth:`forest` results concatenated."""
        return build_flat_forest(self.lcp, min_depth=min_depth, ranges=ranges)

    def bucket_ranges(self, w: int) -> list[tuple[int, int, int]]:
        """``(key, lo, hi)`` suffix-array ranges of the ``w``-prefix buckets
        — the distribution unit for parallel construction (§3.1)."""
        return sa_bucket_ranges(
            self.sa_struct, self.collection, self.suffix_len, self.lcp, w
        )

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
