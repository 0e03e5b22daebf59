"""The EST collection: the library's central sequence container.

Following §3.1 of the paper, the input is a set ``E = {e_1..e_n}`` of ESTs
with ``N`` total characters, and the algorithms operate on the doubled set
``S = {s_1..s_2n}`` where each EST appears together with its reverse
complement.  Here (0-based) string ``2i`` is the forward EST ``i`` and
string ``2i+1`` is its reverse complement.

All 2n strings live in one concatenated ``uint8`` numpy buffer with an
offsets table, so a "string" is a zero-copy view and a "suffix" is just a
``(string_index, offset)`` pair.  :meth:`EstCollection.sa_text` exposes an
integer text in which every string is terminated by a *unique* sentinel
smaller than any nucleotide — this is what guarantees that no
longest-common-prefix computed from the suffix array ever crosses a string
boundary, so LCP intervals correspond exactly to the internal nodes of the
generalized suffix tree.  The production index sorts the one-byte
:meth:`EstCollection.sa_codes` instead and breaks ties between its
(all-zero) terminators by string id.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.sequence.alphabet import LAMBDA, SIGMA, decode, encode
from repro.sequence.fasta import FastaRecord
from repro.sequence.seq import reverse_complement

__all__ = ["EstCollection"]


class EstCollection:
    """Immutable container of ``n`` ESTs and their reverse complements.

    Parameters
    ----------
    forward:
        Sequence of encoded ``uint8`` arrays, one per EST, each non-empty.
    names:
        Optional per-EST names (defaults to ``EST0, EST1, ...``).
    """

    def __init__(self, forward: Sequence[np.ndarray], names: Sequence[str] | None = None):
        if len(forward) == 0:
            raise ValueError("an EstCollection needs at least one EST")
        if names is not None and len(names) != len(forward):
            raise ValueError(f"{len(names)} names for {len(forward)} ESTs")

        self._n = len(forward)
        self._names = list(names) if names is not None else [f"EST{i}" for i in range(self._n)]

        lengths = np.empty(2 * self._n, dtype=np.int64)
        for i, est in enumerate(forward):
            est = np.asarray(est, dtype=np.uint8)
            if est.size == 0:
                raise ValueError(f"EST {i} is empty")
            if est.max() >= SIGMA:
                raise ValueError(f"EST {i} contains invalid codes")
            lengths[2 * i] = lengths[2 * i + 1] = est.size

        self._offsets = np.zeros(2 * self._n + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._offsets[1:])
        self._buffer = np.empty(int(self._offsets[-1]), dtype=np.uint8)
        for i, est in enumerate(forward):
            est = np.asarray(est, dtype=np.uint8)
            self._buffer[self._offsets[2 * i] : self._offsets[2 * i + 1]] = est
            self._buffer[self._offsets[2 * i + 1] : self._offsets[2 * i + 2]] = (
                reverse_complement(est)
            )
        self._buffer.setflags(write=False)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_strings(cls, seqs: Iterable[str], names: Sequence[str] | None = None) -> "EstCollection":
        """Build from ACGT strings."""
        return cls([encode(s) for s in seqs], names)

    @classmethod
    def from_records(cls, records: Iterable[FastaRecord]) -> "EstCollection":
        """Build from FASTA records, keeping their names."""
        records = list(records)
        return cls.from_strings([r.sequence for r in records], [r.name for r in records])

    @classmethod
    def from_arena(
        cls,
        arena: np.ndarray,
        offsets: np.ndarray,
        names: Sequence[str] | None = None,
    ) -> "EstCollection":
        """Rebuild a collection around an existing ``(arena, offsets)`` pair.

        The inverse of :meth:`arena`, used by slave processes to wrap
        shared-memory views without copying: ``arena`` (``int8``, the
        concatenated forward+RC strings) is reinterpreted in place as the
        ``uint8`` string buffer.  Reverse complements are already
        interleaved in the buffer, so no re-encoding happens; the buffer and
        every later :meth:`arena` view alias the caller's memory.
        """
        arena = np.asarray(arena)
        offsets = np.asarray(offsets, dtype=np.int64)
        if arena.dtype != np.int8:
            raise ValueError(f"arena must be int8, got {arena.dtype}")
        if len(offsets) < 3 or (len(offsets) - 1) % 2:
            raise ValueError("offsets must have odd length >= 3 (2n + 1 entries)")
        if int(offsets[-1]) != arena.size:
            raise ValueError(
                f"offsets end at {int(offsets[-1])} but arena has {arena.size} chars"
            )
        self = cls.__new__(cls)
        self._n = (len(offsets) - 1) // 2
        self._names = (
            list(names) if names is not None else [f"EST{i}" for i in range(self._n)]
        )
        if len(self._names) != self._n:
            raise ValueError(f"{len(self._names)} names for {self._n} ESTs")
        self._offsets = offsets
        self._buffer = arena.view(np.uint8)
        return self

    # ------------------------------------------------------------------ #
    # sizes (paper notation: n ESTs, N total characters, l = N/n)
    # ------------------------------------------------------------------ #

    @property
    def n_ests(self) -> int:
        """n — the number of input ESTs."""
        return self._n

    @property
    def n_strings(self) -> int:
        """2n — forward strings plus reverse complements."""
        return 2 * self._n

    @property
    def total_chars(self) -> int:
        """N — total characters over the *forward* ESTs."""
        return int(self._offsets[-1]) // 2

    @property
    def mean_length(self) -> float:
        """l = N / n, the average EST length."""
        return self.total_chars / self._n

    @property
    def names(self) -> list[str]:
        return list(self._names)

    # ------------------------------------------------------------------ #
    # string access
    # ------------------------------------------------------------------ #

    def string(self, k: int) -> np.ndarray:
        """Zero-copy view of string ``k`` in S (0 <= k < 2n)."""
        if not 0 <= k < 2 * self._n:
            raise IndexError(f"string index {k} out of range [0, {2 * self._n})")
        return self._buffer[self._offsets[k] : self._offsets[k + 1]]

    def est(self, i: int) -> np.ndarray:
        """Zero-copy view of forward EST ``i`` (0 <= i < n)."""
        if not 0 <= i < self._n:
            raise IndexError(f"EST index {i} out of range [0, {self._n})")
        return self.string(2 * i)

    def est_string(self, i: int) -> str:
        """Forward EST ``i`` decoded to an ACGT string."""
        return decode(self.est(i))

    def length(self, k: int) -> int:
        """Length of string ``k``."""
        if not 0 <= k < 2 * self._n:
            raise IndexError(f"string index {k} out of range [0, {2 * self._n})")
        return int(self._offsets[k + 1] - self._offsets[k])

    @staticmethod
    def est_of_string(k: int) -> int:
        """The EST index a string belongs to (both strands map to one EST)."""
        return k >> 1

    @staticmethod
    def is_complemented(k: int) -> bool:
        """True iff string ``k`` is a reverse complement (odd index)."""
        return bool(k & 1)

    def arena(self) -> tuple[np.ndarray, np.ndarray]:
        """The shared signed encoding arena: ``(buffer, offsets)``.

        ``buffer`` is an ``int8`` view of the concatenated string buffer
        (string ``k`` occupies ``buffer[offsets[k]:offsets[k+1]]``) — the
        same memory, no copy, read-only because the buffer is.  Nucleotide
        codes are 0..3, so both dtypes read the same values and batch
        alignment kernels can pad groups with negative sentinels that never
        compare equal to a real character.
        """
        return self._buffer.view(np.int8), self._offsets

    def left_extension(self, k: int, offset: int) -> int:
        """The paper's left-extension character of suffix ``(k, offset)``:
        λ if the suffix is the whole string, else the preceding character."""
        if offset == 0:
            return LAMBDA
        return int(self.string(k)[offset - 1])

    # ------------------------------------------------------------------ #
    # suffix-array text
    # ------------------------------------------------------------------ #

    def sa_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """The one-byte text the production suffix sort reads.

        Returns ``(codes, starts)`` where ``codes`` is ``uint8`` of length
        ``2N + 2n``: string ``k`` occupies ``starts[k] .. starts[k+1]-2``
        with nucleotide ``c`` stored as ``c + 1``, followed at
        ``starts[k+1]-1`` by its terminator, 0.  Terminators are told apart
        by the string id ``k``, which grows with the terminator's
        position: the sort keys each suffix by its position below its
        cut window, so position order decides between windows that end
        at a terminator (:func:`repro.suffix.suffix_array.refine`).
        """
        starts = self._offsets + np.arange(2 * self._n + 1)
        codes = np.zeros(int(starts[-1]), dtype=np.uint8)
        body = np.ones(codes.size, dtype=bool)
        body[starts[1:] - 1] = False
        codes[body] = self._buffer
        del body
        codes += 1
        codes[starts[1:] - 1] = 0
        return codes, starts

    def sa_text(self) -> tuple[np.ndarray, np.ndarray]:
        """The unique-sentinel integer text, the input of the reference
        suffix-tree and LCP builders (naive, Ukkonen, Kasai).

        Returns ``(text, starts)`` where ``text`` is ``int32`` of length
        ``2N + 2n``: string ``k`` occupies ``starts[k] .. starts[k+1]-2``
        with nucleotide ``c`` stored as ``2n + c``, followed at
        ``starts[k+1]-1`` by the unique sentinel value ``k``.  Sentinels are
        all smaller than every nucleotide, so a suffix that is a prefix of
        another sorts first, and being unique they stop common prefixes at
        string boundaries.  The production index reads :meth:`sa_codes`,
        a quarter of the size, and carries the sentinels' order in
        ``starts``.
        """
        two_n = 2 * self._n
        # String k moves up by the k sentinels in front of it.  Whole-array
        # steps, no per-string temporaries: sentinels go in as ``k - 2n`` so
        # that one in-place shift lifts them and the nucleotides together.
        starts = self._offsets + np.arange(two_n + 1)
        text = np.empty(int(starts[-1]), dtype=np.int32)
        sentinel = starts[1:] - 1
        body = np.ones(text.size, dtype=bool)
        body[sentinel] = False
        text[body] = self._buffer
        text[sentinel] = np.arange(-two_n, 0)
        text += two_n
        return text, starts

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"EstCollection(n={self._n}, N={self.total_chars}, "
            f"mean_length={self.mean_length:.1f})"
        )
