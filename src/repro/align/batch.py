"""Batched pairwise alignment — the vectorised hot path.

The paper's Table 3 shows pairwise alignment dominating the clustering
cost, and §3.3 already moves pairs around in batches (WORKBUF grants of
``batchsize`` pairs).  :class:`BatchPairAligner` exploits that batching on
the compute side: instead of aligning one pair at a time with fresh numpy
allocations per extension, it

- slices both extensions of every pair out of the collection's shared
  ``int8`` arena (:meth:`~repro.sequence.collection.EstCollection.arena`) —
  no per-pair re-encoding;
- sorts the extensions by the rows the banded kernel sweeps for them, then
  by shape, so extensions that stop on similar rows share a group;
- runs each group through :func:`~repro.align.banded.extend_overlap_group`,
  one band-wide numpy sweep per DP row (a wave of one pair too), or, for
  ``engine="kdiff"``, :func:`~repro.align.kdiff.kdiff_extend_group`, one
  numpy step per edit level over the whole wave;
- reuses one grow-only :class:`~repro.align.banded.BandedWorkspace` across
  all groups of the run, so steady state allocates nothing.

The group kernels perform bitwise-identical float arithmetic to the scalar
kernels, so a :class:`BatchPairAligner` returns exactly the
:class:`~repro.align.scoring.AlignmentResult` the per-pair
:class:`~repro.align.extend.PairAligner` would — the per-pair engine stays
in the tree as the reference oracle (tests/test_batch_align.py asserts the
equivalence property).  Only whole-string DP loops over pairs.

:func:`make_aligner` is the one construction point the drivers share: it
reads :attr:`~repro.core.config.ClusteringConfig.align_batch` and returns
the batched engine (group size = that value) or the per-pair reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.align.banded import BandedWorkspace, extend_overlap_group
from repro.align.extend import BAND_WIDTH_BUCKETS, BandPolicy, PairAligner
from repro.align.kdiff import kdiff_extend, kdiff_extend_group
from repro.align.overlaps import classify_pattern
from repro.align.scoring import AcceptanceCriteria, AlignmentResult, ScoringParams
from repro.pairs.pair import Pair
from repro.sequence.collection import EstCollection
from repro.telemetry import Telemetry
from repro.util.validation import check_positive

if TYPE_CHECKING:
    from repro.core.config import ClusteringConfig

__all__ = ["BatchPairAligner", "make_aligner", "ALIGN_BATCH_SIZE_BUCKETS"]

#: Histogram bounds for alignment batch sizes: powers of two around the
#: default ``batchsize = 60`` work grant, with partial final batches small.
ALIGN_BATCH_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: kdiff waves under this many extensions go to the per-pair
#: ``kdiff_extend``: the group kernel pays numpy calls per edit level.  µs
#: per ``sparse`` extension, group / per-pair: g = 8 141 / 124, 12 113 /
#: 119, 16 94 / 121 (docs/ALGORITHMS.md §4.2).
KDIFF_GROUP_MIN = 12
#: kdiff state is not padded to extension length, so a group is a whole
#: wave; the cap bounds the score matrix of an oversized grant.
KDIFF_GROUP_MAX = 256


class BatchPairAligner(PairAligner):
    """Vectorised batch aligner, result-identical to :class:`PairAligner`.

    ``group_size`` bounds how many banded extensions share one 2-D DP
    sweep (kdiff groups are whole waves); each member is swept only as far
    as it can end, so groups of extensions sorted by that depth amortise
    numpy dispatch over the whole group with few columns left idle.
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
        group_size: int = 64,
    ) -> None:
        super().__init__(
            collection,
            params,
            criteria,
            band_policy,
            use_seed_extension=use_seed_extension,
            engine=engine,
            telemetry=telemetry,
        )
        check_positive("group_size", group_size)
        self.group_size = group_size
        self.workspace = BandedWorkspace()

    # ------------------------------------------------------------------ #

    def align_and_decide_batch(
        self, pairs: Sequence[Pair]
    ) -> list[tuple[AlignmentResult, bool]]:
        """Align a whole batch of promising pairs with the group kernels."""
        pairs = list(pairs)
        if not pairs:
            return []
        if self.telemetry is not None:
            self.telemetry.observe(
                "align.batch_size", len(pairs), ALIGN_BATCH_SIZE_BUCKETS
            )
        if not self.use_seed_extension:
            # Whole-string DP has no group kernel: the per-pair reference.
            return [self.align_and_decide(pair) for pair in pairs]

        arena, offsets = self.collection.arena()
        params = self.params
        n = len(pairs)
        # Two extension slots per pair: 2k = right of the seed, 2k+1 = left
        # (on reversed prefixes), exactly as PairAligner._seed_extend.
        ext: list[tuple[float, int, int, int] | None] = [None] * (2 * n)
        bands_r = [0] * n
        bands_l = [0] * n
        ext_lens: list[tuple[int, int]] = [(0, 0)] * (2 * n)
        str_lens: list[tuple[int, int]] = [(0, 0)] * n
        jobs: list[tuple[int, int, int, np.ndarray, np.ndarray, int]] = []
        for k, pair in enumerate(pairs):
            a0 = int(offsets[pair.string_a])
            a1 = int(offsets[pair.string_a + 1])
            b0 = int(offsets[pair.string_b])
            b1 = int(offsets[pair.string_b + 1])
            seed = pair.length
            str_lens[k] = (a1 - a0, b1 - b0)
            rx = arena[a0 + pair.offset_a + seed : a1]
            ry = arena[b0 + pair.offset_b + seed : b1]
            band_r = self.band_policy.band_for(min(len(rx), len(ry)))
            lx = arena[a0 : a0 + pair.offset_a][::-1]
            ly = arena[b0 : b0 + pair.offset_b][::-1]
            band_l = self.band_policy.band_for(min(len(lx), len(ly)))
            bands_r[k] = band_r
            bands_l[k] = band_l
            if self.telemetry is not None:
                self.telemetry.observe("align.band_width", band_r, BAND_WIDTH_BUCKETS)
                self.telemetry.observe("align.band_width", band_l, BAND_WIDTH_BUCKETS)
            for slot, ex, ey, band in (
                (2 * k, rx, ry, band_r),
                (2 * k + 1, lx, ly, band_l),
            ):
                ext_lens[slot] = (len(ex), len(ey))
                if len(ex) == 0 or len(ey) == 0:
                    # The boundary is already an end: nothing to extend into.
                    ext[slot] = (0.0, 0, 0, 0)
                else:
                    jobs.append((len(ex), len(ey), slot, ex, ey, band))

        # Shape-sort (descending) by the rows the banded kernel sweeps,
        # min(lx, ly + band), then by shape, so extensions that stop on the
        # same row group together and the first — longest — group sets the
        # workspace high-water mark, letting every later group reuse the
        # buffers.  The slot makes keys unique before the (uncomparable)
        # array elements.
        jobs.sort(
            key=lambda job: (-min(job[0], job[1] + job[5]), -job[0], -job[1], job[2])
        )
        kdiff = self.engine == "kdiff"
        size = KDIFF_GROUP_MAX if kdiff else self.group_size
        reuses_before = self.workspace.reuses
        for start in range(0, len(jobs), size):
            chunk = jobs[start : start + size]
            if kdiff and len(chunk) < KDIFF_GROUP_MIN:
                for job in chunk:
                    ext[job[2]] = kdiff_extend(job[3], job[4], params, job[5])
                continue
            xs = [job[3] for job in chunk]
            ys = [job[4] for job in chunk]
            bands = np.fromiter((job[5] for job in chunk), np.int64, count=len(chunk))
            if kdiff:
                scores, cxs, cys, cells = kdiff_extend_group(xs, ys, bands, params)
            else:
                scores, cxs, cys, cells = extend_overlap_group(
                    xs, ys, bands, params, workspace=self.workspace
                )
            for t, job in enumerate(chunk):
                ext[job[2]] = (
                    float(scores[t]),
                    int(cxs[t]),
                    int(cys[t]),
                    int(cells[t]),
                )
        if self.telemetry is not None:
            reused = self.workspace.reuses - reuses_before
            if reused:
                self.telemetry.count("align.buffer_reuse", reused)

        out: list[tuple[AlignmentResult, bool]] = []
        n_accepted = 0
        for k, pair in enumerate(pairs):
            right = ext[2 * k]
            left = ext[2 * k + 1]
            seed = pair.length
            la, lb = str_lens[k]
            score = params.match * seed + left[0] + right[0]
            a_start = pair.offset_a - left[1]
            a_end = pair.offset_a + seed + right[1]
            b_start = pair.offset_b - left[2]
            b_end = pair.offset_b + seed + right[2]
            dp_cells = left[3] + right[3] + seed
            result = AlignmentResult(
                score=score,
                a_start=a_start,
                a_end=a_end,
                b_start=b_start,
                b_end=b_end,
                pattern=classify_pattern(a_start, a_end, la, b_start, b_end, lb),
                dp_cells=dp_cells,
            )
            self.alignments_performed += 1
            self.dp_cells_total += dp_cells
            self.model_cells_total += (
                min(ext_lens[2 * k]) * (2 * bands_r[k] + 1)
                + min(ext_lens[2 * k + 1]) * (2 * bands_l[k] + 1)
                + seed
            )
            accepted = self.accept(result)
            if accepted:
                n_accepted += 1
            out.append((result, accepted))
        if self.telemetry is not None:
            if n_accepted:
                self.telemetry.count("align.accepted", n_accepted)
            if n_accepted < n:
                self.telemetry.count("align.rejected", n - n_accepted)
        return out


def make_aligner(
    collection: EstCollection,
    config: "ClusteringConfig",
    *,
    telemetry: Telemetry | None = None,
) -> PairAligner:
    """The pair aligner a :class:`ClusteringConfig` asks for.

    ``config.align_batch > 0`` selects the batched engine with that DP
    group size; ``0`` keeps the per-pair reference engine.  All clustering
    drivers (sequential pipeline, simulated machine, multiprocessing
    slaves) construct their aligner here so the two engines stay
    interchangeable.
    """
    kwargs = dict(
        params=config.scoring,
        criteria=config.acceptance,
        band_policy=config.band_policy,
        use_seed_extension=config.use_seed_extension,
        engine=config.align_engine,
        telemetry=telemetry,
    )
    if config.align_batch:
        return BatchPairAligner(collection, group_size=config.align_batch, **kwargs)
    return PairAligner(collection, **kwargs)
