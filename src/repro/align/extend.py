"""Seed-and-extend pairwise alignment (Fig. 5a of the paper).

Instead of aligning entire strings, PaCE "reduces work by merely extending
the already computed maximal substring match at both ends using gaps and
mismatches", with banded dynamic programming limiting the area further.
:class:`PairAligner` is that engine:

- the *seed* is the exact match reported by the pair generator (the path
  label of the GST node where the pair was generated);
- the *right extension* aligns the two string remainders after the seed
  under overlap semantics (must reach an end of one string);
- the *left extension* does the same on the reversed prefixes before the
  seed;
- the combined alignment necessarily spans border to border, so its shape
  is one of the four accepted overlap patterns (Fig. 5b), and the merge
  decision is the score-to-ideal ratio plus a minimum overlap length.

The band is sized from the error tolerance: ``band = max(band_min,
ceil(band_rate × extension_length))`` — the number of indels the extension
may absorb grows with how much sequence is being extended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.align.banded import extend_overlap
from repro.align.full_dp import overlap_align
from repro.align.kdiff import kdiff_extend
from repro.align.overlaps import classify_pattern
from repro.align.scoring import AcceptanceCriteria, AlignmentResult, ScoringParams
from repro.pairs.pair import Pair
from repro.sequence.collection import EstCollection
from repro.telemetry import Telemetry
from repro.util.validation import check_in_range, check_positive

__all__ = ["BandPolicy", "PairAligner", "BAND_WIDTH_BUCKETS"]

#: Histogram bounds for DP band widths: ``band_min`` defaults to 5 and
#: bands grow as ~6% of the extension length, so full-length EST
#: extensions (~550 bp) land in the 25–50 bucket.
BAND_WIDTH_BUCKETS: tuple[float, ...] = (2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class BandPolicy:
    """How wide the DP band is, as a function of extension length.

    ``band_rate`` ≈ tolerated indel fraction; ``band_min`` keeps very short
    extensions from being starved of room.  ``band_rate=1.0`` effectively
    disables banding (the full-DP ablation arm).
    """

    band_rate: float = 0.06
    band_min: int = 5

    def __post_init__(self) -> None:
        check_in_range("band_rate", self.band_rate, 0.0, 1.0)
        check_positive("band_min", self.band_min, strict=False)

    def band_for(self, ext_len: int) -> int:
        return max(self.band_min, math.ceil(self.band_rate * ext_len))


class PairAligner:
    """Aligns promising pairs by two-sided banded seed extension.

    One aligner is shared by a whole clustering run; it owns the scoring
    parameters, acceptance criteria and work counters (alignments
    performed, DP cells computed — the paper's time-intensive phase).
    """

    def __init__(
        self,
        collection: EstCollection,
        params: ScoringParams | None = None,
        criteria: AcceptanceCriteria | None = None,
        band_policy: BandPolicy | None = None,
        *,
        use_seed_extension: bool = True,
        engine: str = "banded",
        telemetry: Telemetry | None = None,
    ) -> None:
        self.collection = collection
        self.params = params or ScoringParams()
        self.criteria = criteria or AcceptanceCriteria()
        self.band_policy = band_policy or BandPolicy()
        #: When False, every pair is aligned with full whole-string overlap
        #: DP — the "traditional" engine, kept for the seed-extension
        #: ablation and the baseline comparators.
        self.use_seed_extension = use_seed_extension
        #: Seed-extension scorer: "banded" (optimal affine score in the
        #: band) or "kdiff" (greedy minimum-edit Landau-Vishkin — O(k²)
        #: work, the fast path for large sweeps).
        if engine not in ("banded", "kdiff"):
            raise ValueError(f"unknown extension engine {engine!r}")
        self.engine = engine
        #: Optional telemetry session: band widths and accept/reject
        #: counts flow into its registry (``None`` keeps this hot path
        #: entirely uninstrumented).
        self.telemetry = telemetry
        self.alignments_performed = 0
        #: Work actually performed by the selected engine (DP cells for the
        #: banded/full paths, diagonal slots for kdiff).
        self.dp_cells_total = 0
        #: Work a banded-DP implementation *would* pay for the same
        #: alignments (band area).  The simulated machine charges virtual
        #: time from this so its cost model reflects the paper's C
        #: implementation regardless of which host engine ran.
        self.model_cells_total = 0

    # ------------------------------------------------------------------ #

    def align_pair(self, pair: Pair) -> AlignmentResult:
        """Align the two strings of a promising pair."""
        a = self.collection.string(pair.string_a)
        b = self.collection.string(pair.string_b)
        self.alignments_performed += 1
        if not self.use_seed_extension:
            result = overlap_align(a, b, self.params)
            self.dp_cells_total += result.dp_cells
            self.model_cells_total += result.dp_cells
            return result
        result = self._seed_extend(a, b, pair.offset_a, pair.offset_b, pair.length)
        self.dp_cells_total += result.dp_cells
        return result

    def accept(self, result: AlignmentResult) -> bool:
        """The merge decision for an alignment result."""
        return result.accepted(self.params, self.criteria)

    def align_and_decide(self, pair: Pair) -> tuple[AlignmentResult, bool]:
        result = self.align_pair(pair)
        accepted = self.accept(result)
        if self.telemetry is not None:
            self.telemetry.count(
                "align.accepted" if accepted else "align.rejected"
            )
        return result, accepted

    def align_and_decide_batch(
        self, pairs: Iterable[Pair]
    ) -> list[tuple[AlignmentResult, bool]]:
        """Align a whole batch of pairs.  The reference engine loops;
        :class:`repro.align.batch.BatchPairAligner` vectorises."""
        return [self.align_and_decide(pair) for pair in pairs]

    # ------------------------------------------------------------------ #

    def _seed_extend(
        self, a: np.ndarray, b: np.ndarray, off_a: int, off_b: int, seed_len: int
    ) -> AlignmentResult:
        params = self.params
        if self.engine == "kdiff":

            def extend(px, py, budget):
                return kdiff_extend(px, py, params, budget)

        else:

            def extend(px, py, budget):
                return extend_overlap(px, py, params, budget)

        # Right of the seed.
        rx = a[off_a + seed_len :]
        ry = b[off_b + seed_len :]
        band_r = self.band_policy.band_for(min(len(rx), len(ry)))
        right = extend(rx, ry, band_r)
        # Left of the seed, on reversed prefixes.
        lx = a[:off_a][::-1]
        ly = b[:off_b][::-1]
        band_l = self.band_policy.band_for(min(len(lx), len(ly)))
        left = extend(lx, ly, band_l)
        if self.telemetry is not None:
            self.telemetry.observe("align.band_width", band_r, BAND_WIDTH_BUCKETS)
            self.telemetry.observe("align.band_width", band_l, BAND_WIDTH_BUCKETS)

        # Banded-equivalent work for the cost model: each extension costs
        # its band area, plus the seed scan.
        self.model_cells_total += (
            min(len(rx), len(ry)) * (2 * band_r + 1)
            + min(len(lx), len(ly)) * (2 * band_l + 1)
            + seed_len
        )

        score = params.match * seed_len + left.score + right.score
        a_start = off_a - left.consumed_x
        a_end = off_a + seed_len + right.consumed_x
        b_start = off_b - left.consumed_y
        b_end = off_b + seed_len + right.consumed_y
        pattern = classify_pattern(a_start, a_end, len(a), b_start, b_end, len(b))
        return AlignmentResult(
            score=score,
            a_start=a_start,
            a_end=a_end,
            b_start=b_start,
            b_end=b_end,
            pattern=pattern,
            dp_cells=left.dp_cells + right.dp_cells + seed_len,
        )
