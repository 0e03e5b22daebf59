"""The promising-pair record and the paper's duplicate-discard rule.

A *promising pair* is a pair of strings with a maximal common substring of
length ≥ ψ (§3.2).  Generators emit pairs in the canonical form of the
paper: ``(s, s')`` where ``s = e_i`` is a *forward* EST and ``s'`` is
``e_j`` or its reverse complement for some ``i < j``.  A raw pair whose
smaller-EST-id member is complemented is discarded — its mirror image
``(ē_i, ē_j)``-style pair is generated elsewhere in the tree, so exactly
one of the two equivalent forms survives (the factor-2 argument in the
paper's Lemma 4).  Pairs of a string with its own reverse complement are
likewise dropped: they cannot merge clusters.
"""

from __future__ import annotations

from typing import Generator, Iterable, Iterator, NamedTuple

import numpy as np

__all__ = ["Pair", "PairBlock", "EMPTY_BLOCK", "as_block", "flatten", "canonical_pair"]


class Pair(NamedTuple):
    """A promising pair with its witnessing exact match (the seed).

    ``string_a`` is always a forward string (even index) and
    ``est_a < est_b``.  The seed is the maximal common substring at whose
    GST node the pair was generated:
    ``strings[string_a][offset_a : offset_a+length] ==
    strings[string_b][offset_b : offset_b+length]``.
    The alignment phase extends this seed in both directions (Fig. 5a).
    """

    length: int
    string_a: int
    offset_a: int
    string_b: int
    offset_b: int

    @property
    def est_a(self) -> int:
        return self.string_a >> 1

    @property
    def est_b(self) -> int:
        return self.string_b >> 1

    @property
    def complemented(self) -> bool:
        """True when the pair couples EST a with the *reverse complement*
        of EST b (the two ESTs read opposite strands)."""
        return bool(self.string_b & 1)

    @property
    def key(self) -> tuple[int, int, bool]:
        """Identity of the pair irrespective of the witnessing seed."""
        return (self.est_a, self.est_b, self.complemented)


class PairBlock:
    """Promising pairs as columns: the stream's unit from the generator to
    union–find (docs/ALGORITHMS.md §3.1, §5.1).

    ``cols`` is a ``(5, n)`` int32 array whose rows are :class:`Pair`'s
    fields in order — ``length, string_a, offset_a, string_b, offset_b``.
    Filters and wave selection read the columns; iterating a block yields
    its rows as :class:`Pair` records, which is where the layers that need
    one record per pair (the aligner, merge records) get them.  A block
    pickles as one buffer.
    """

    __slots__ = ("cols",)

    def __init__(self, cols: np.ndarray) -> None:
        self.cols = cols

    @classmethod
    def from_pairs(cls, pairs: Iterable[Pair]) -> "PairBlock":
        rows = np.array(list(pairs), dtype=np.int32).reshape(-1, 5)
        return cls(np.ascontiguousarray(rows.T))

    @classmethod
    def concat(cls, blocks: Iterable["PairBlock"]) -> "PairBlock":
        return cls(np.concatenate([b.cols for b in blocks], axis=1))

    def __len__(self) -> int:
        return self.cols.shape[1]

    def __iter__(self) -> Iterator[Pair]:
        return map(Pair, *self.cols.tolist())

    def __getitem__(self, rows) -> "PairBlock":
        """The rows a slice, index array or mask selects, as a block."""
        return PairBlock(self.cols[:, rows])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairBlock):
            return NotImplemented
        return np.array_equal(self.cols, other.cols)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PairBlock({list(self)!r})"

    @property
    def est_a(self) -> np.ndarray:
        return self.cols[1] >> 1

    @property
    def est_b(self) -> np.ndarray:
        return self.cols[3] >> 1


EMPTY_BLOCK = PairBlock(np.zeros((5, 0), dtype=np.int32))


def flatten(chunks: Generator[Iterable[Pair], None, None]) -> Iterator[Pair]:
    """A generator of pair chunks as one stream of ``Pair`` records;
    closing the stream closes the generator."""
    try:
        for chunk in chunks:
            yield from chunk
    finally:
        chunks.close()


def as_block(pairs: PairBlock | Iterable[Pair]) -> PairBlock:
    """``pairs`` as a block: a block is passed through, ``Pair`` records
    (the API and oracle form) are packed into one."""
    return pairs if isinstance(pairs, PairBlock) else PairBlock.from_pairs(pairs)


def canonical_pair(
    length: int, string_a: int, offset_a: int, string_b: int, offset_b: int
) -> Pair | None:
    """Apply the paper's discard rules to a raw generated pair.

    Returns the canonical :class:`Pair`, or ``None`` when the pair must be
    discarded (same EST on both sides, or the smaller-EST-id string is in
    complemented form — the mirror event is generated at another node).
    """
    est_a, est_b = string_a >> 1, string_b >> 1
    if est_a == est_b:
        return None
    if est_a > est_b:
        string_a, string_b = string_b, string_a
        offset_a, offset_b = offset_b, offset_a
    if string_a & 1:
        return None
    return Pair(length, string_a, offset_a, string_b, offset_b)
