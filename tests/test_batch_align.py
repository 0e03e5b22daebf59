"""Batched alignment engine: equivalence with the per-pair oracle.

The whole contract of :class:`repro.align.batch.BatchPairAligner` is that
it is a pure performance layer: for any batch of promising pairs it must
return exactly the ``(AlignmentResult, accepted)`` decisions the per-pair
:class:`repro.align.extend.PairAligner` produces — bitwise-equal scores
included — while doing the DP in vectorised shape groups.  These tests pin
that property down, with hypothesis driving random collections, random
(possibly bogus-seeded) pair batches, and random group sizes.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.align.banded as banded_module
import repro.align.batch as batch_module
from repro.align import (
    BandedWorkspace,
    BatchPairAligner,
    PairAligner,
    ScoringParams,
    extend_overlap,
    extend_overlap_group,
    make_aligner,
)
from repro.align.kdiff import kdiff_extend_group
from repro.core.config import ClusteringConfig
from repro.pairs.pair import Pair
from repro.sequence import EstCollection
from repro.telemetry import Telemetry

dna = st.text(alphabet="ACGT", min_size=5, max_size=60)


@st.composite
def collection_and_batch(draw):
    """A small collection plus a random batch of well-formed pairs.

    The seed substrings need not actually match — neither aligner inspects
    them — so offsets and lengths are only constrained to stay in bounds.
    """
    n_ests = draw(st.integers(2, 5))
    col = EstCollection.from_strings([draw(dna) for _ in range(n_ests)])
    pairs = []
    for _ in range(draw(st.integers(0, 12))):
        est_a = draw(st.integers(0, n_ests - 2))
        est_b = draw(st.integers(est_a + 1, n_ests - 1))
        string_a = 2 * est_a
        string_b = 2 * est_b + draw(st.integers(0, 1))
        la, lb = col.length(string_a), col.length(string_b)
        length = draw(st.integers(1, min(la, lb)))
        off_a = draw(st.integers(0, la - length))
        off_b = draw(st.integers(0, lb - length))
        pairs.append(Pair(length, string_a, off_a, string_b, off_b))
    return col, pairs


#: Non-integer scores: with the integer defaults every partial sum is exact
#: and a reordered float operation would go unnoticed.
FRACTIONAL = ScoringParams(match=1.7, mismatch=-2.3, gap_open=-4.1, gap_extend=-1.3)


@st.composite
def extension_group(draw):
    """``(xs, ys, bands)`` for one kernel call: lengths from 1, bands mixed
    inside the group from 0 to wider than both strings, ``|lx - ly|`` above
    the band (the pure-gap fallback).  ``y`` is independent of ``x``, or
    starts as a copy of it (repeat-rich, so equal scores — the first-maximum
    and lowest-``j`` tie-breaks — are common), or is ``x`` with a few bases
    inserted and deleted (so the best path runs through both gap states)."""
    g = draw(st.integers(1, 6))
    alphabet = draw(st.sampled_from([1, 2, 4]))
    codes = st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=24)
    xs, ys, bands = [], [], []
    for _ in range(g):
        x = draw(codes)
        y = draw(codes)
        relation = draw(st.sampled_from(["independent", "prefix", "indels"]))
        if relation == "prefix":
            y = (x + y)[: len(y)]
        elif relation == "indels":
            cut = draw(st.integers(0, len(x)))
            gap = draw(st.integers(0, 3))
            y = (x[:cut] + y[:gap] + x[cut + draw(st.integers(0, 3)) :]) or y
        xs.append(np.array(x, dtype=np.int8))
        ys.append(np.array(y, dtype=np.int8))
        bands.append(draw(st.sampled_from([0, 1, 2, 3, 5, 8, 30])))
    return xs, ys, bands


@st.composite
def swept_group(draw):
    """``(xs, ys, bands)`` for the row bound and the live prefix: 8–48
    members of 1–150 bases in shuffled order, so the kernel's longest-first
    column order is not the caller's.  Lengths are spread over the whole
    range, so members stop on many different rows and the live prefix
    narrows several times, and a "dovetail" member has ``lx`` well past
    ``ly + band``: ``y`` is a prefix of ``x`` with a few substitutions, and
    the sweep stops long before ``x`` drains."""
    g = draw(st.integers(8, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = draw(st.sampled_from([2, 4]))
    xs, ys, bands = [], [], []
    for _ in range(g):
        band = draw(st.sampled_from([0, 1, 3, 5, 8, 13, 30]))
        relation = draw(st.sampled_from(["independent", "prefix", "dovetail"]))
        lx = draw(st.integers(1, 150))
        if relation == "dovetail":
            lx = max(lx, 2 * band + 8)
            ly = draw(st.integers(1, (lx - band) // 2))
        else:
            ly = draw(st.integers(1, 150))
        x = rng.integers(0, alphabet, lx).astype(np.int8)
        if relation == "independent":
            y = rng.integers(0, alphabet, ly).astype(np.int8)
        else:
            y = np.resize(x, ly)
            hits = rng.random(ly) < 0.05
            y[hits] = (y[hits] + 1) % alphabet
        xs.append(x)
        ys.append(y)
        bands.append(band)
    return xs, ys, bands


class TestGroupKernel:
    @settings(deadline=None, max_examples=40)
    @given(
        swept_group(),
        st.sampled_from([FRACTIONAL, ScoringParams()]),
        st.sampled_from([0, banded_module.COMPACT_CELLS]),
    )
    def test_row_bound_and_compaction_bit_identical(self, group, params, cells):
        # COMPACT_CELLS = 0 narrows the planes at every quarter the live
        # prefix loses, whatever the cells skipped.
        xs, ys, bands = group
        with mock.patch.object(banded_module, "COMPACT_CELLS", cells):
            scores, cx, cy, dp = extend_overlap_group(xs, ys, bands, params)
        for k in range(len(xs)):
            got = (float(scores[k]), int(cx[k]), int(cy[k]), int(dp[k]))
            assert got == tuple(extend_overlap(xs[k], ys[k], params, bands[k]))

    def test_smaller_groups_reuse_the_first_groups_buffers(self):
        rng = np.random.default_rng(5)
        params = ScoringParams()
        ws = BandedWorkspace()
        xs = [rng.integers(0, 4, 120).astype(np.int8) for _ in range(32)]
        ys = [rng.integers(0, 4, 120).astype(np.int8) for _ in range(32)]
        extend_overlap_group(xs, ys, [8] * 32, params, workspace=ws)
        assert ws.grows == 1
        for _ in range(30):
            g = int(rng.integers(1, 33))
            sx = [x[: rng.integers(1, 121)] for x in xs[:g]]
            sy = [y[: rng.integers(1, 121)] for y in ys[:g]]
            bands = rng.integers(0, 9, g)
            extend_overlap_group(sx, sy, bands, params, workspace=ws)
        assert ws.grows == 1 and ws.reuses == 30

    @settings(deadline=None, max_examples=150)
    @given(extension_group(), st.sampled_from([FRACTIONAL, ScoringParams()]))
    def test_bit_identical_to_scalar_kernel(self, group, params):
        xs, ys, bands = group
        scores, cx, cy, cells = extend_overlap_group(xs, ys, bands, params)
        for k in range(len(xs)):
            got = (float(scores[k]), int(cx[k]), int(cy[k]), int(cells[k]))
            assert got == tuple(extend_overlap(xs[k], ys[k], params, bands[k]))

    def test_matches_scalar_kernel_bitwise(self):
        rng = np.random.default_rng(11)
        params = ScoringParams()
        ws = BandedWorkspace()
        for _ in range(50):
            g = int(rng.integers(1, 24))
            xs = [rng.integers(0, 4, rng.integers(1, 90)).astype(np.int8) for _ in range(g)]
            ys = [rng.integers(0, 4, rng.integers(1, 90)).astype(np.int8) for _ in range(g)]
            bands = rng.integers(0, 16, g)
            scores, cx, cy, cells = extend_overlap_group(
                xs, ys, bands, params, workspace=ws
            )
            for k in range(g):
                ref = extend_overlap(xs[k], ys[k], params, int(bands[k]))
                assert (
                    float(scores[k]),
                    int(cx[k]),
                    int(cy[k]),
                    int(cells[k]),
                ) == tuple(ref)

    def test_empty_group(self):
        scores, cx, cy, cells = extend_overlap_group([], [], [], ScoringParams())
        assert scores.size == cx.size == cy.size == cells.size == 0

    def test_rejects_empty_extensions_and_bad_bands(self):
        params = ScoringParams()
        a = np.array([0, 1], dtype=np.int8)
        with pytest.raises(ValueError):
            extend_overlap_group([a], [np.array([], dtype=np.int8)], [3], params)
        with pytest.raises(ValueError):
            extend_overlap_group([a], [a], [-1], params)
        with pytest.raises(ValueError):
            extend_overlap_group([a, a], [a], [3, 3], params)

    def test_workspace_reuses_buffers(self):
        ws = BandedWorkspace()
        params = ScoringParams()
        a = np.array([0, 1, 2, 3] * 10, dtype=np.int8)
        extend_overlap_group([a], [a], [5], params, workspace=ws)
        assert ws.grows == 1 and ws.reuses == 0
        extend_overlap_group([a[:7]], [a[:9]], [5], params, workspace=ws)
        assert ws.grows == 1 and ws.reuses == 1
        # Band shape: 64 full-length extensions hold well under the 3 MB
        # the (g, ly + 1) planes took.
        long = np.resize(a, 550)
        extend_overlap_group([long] * 64, [long] * 64, [33] * 64, params, workspace=ws)
        assert ws.grows == 2
        assert ws.nbytes < 1_000_000


ENGINES = ["banded", "kdiff"]


class TestBatchAlignerEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @settings(deadline=None, max_examples=60)
    @given(
        collection_and_batch(),
        st.integers(1, 16),
        st.sampled_from([1, batch_module.KDIFF_GROUP_MIN]),
    )
    def test_identical_to_per_pair_oracle(
        self, engine, col_and_batch, group_size, kdiff_min
    ):
        # ``kdiff_min = 1`` sends every kdiff wave through the group
        # kernel; the real crossover sends this test's small ones to
        # kdiff_extend.
        col, pairs = col_and_batch
        ref = PairAligner(col, engine=engine)
        bat = BatchPairAligner(col, engine=engine, group_size=group_size)
        expected = [ref.align_and_decide(p) for p in pairs]
        with mock.patch.object(batch_module, "KDIFF_GROUP_MIN", kdiff_min):
            got = bat.align_and_decide_batch(pairs)
        assert got == expected  # scores, spans, patterns, accept/reject
        assert bat.alignments_performed == ref.alignments_performed
        assert bat.dp_cells_total == ref.dp_cells_total
        assert bat.model_cells_total == ref.model_cells_total

    def test_empty_batch(self):
        col = EstCollection.from_strings(["ACGTACGTAC", "TGCATGCATG"])
        bat = BatchPairAligner(col)
        assert bat.align_and_decide_batch([]) == []
        assert bat.alignments_performed == 0

    def test_single_pair_batch(self):
        col = EstCollection.from_strings(["ACGTACGTACGT", "GTACGTACGTAA"])
        pair = Pair(8, 0, 2, 2, 0)
        expected = PairAligner(col).align_and_decide(pair)
        tel = Telemetry()
        bat = BatchPairAligner(col, telemetry=tel)
        assert bat.align_and_decide_batch([pair]) == [expected]
        # A wave of one goes through the group kernel and its workspace
        # like any other, observed once per call and once per extension.
        assert bat.workspace.grows == 1
        hists = tel.registry.snapshot()["histograms"]
        assert hists["align.batch_size"]["count"] == 1
        assert hists["align.band_width"]["count"] == 2

    def test_seed_at_string_edges(self):
        # Seeds flush against either string end make one extension empty —
        # the slot the kernel never sees.
        col = EstCollection.from_strings(["ACGTACGTAC", "ACGTACGTAC"])
        edge_pairs = [
            Pair(10, 0, 0, 2, 0),  # both extensions empty
            Pair(5, 0, 0, 2, 5),  # left empty for a, right empty for b
            Pair(5, 0, 5, 2, 0),
        ]
        ref = PairAligner(col)
        expected = [ref.align_and_decide(p) for p in edge_pairs]
        assert BatchPairAligner(col).align_and_decide_batch(edge_pairs) == expected

    def test_base_class_batch_method_loops(self):
        col = EstCollection.from_strings(["ACGTACGTACGT", "GTACGTACGTAA"])
        pairs = [Pair(8, 0, 2, 2, 0), Pair(6, 0, 0, 2, 1)]
        ref = PairAligner(col)
        expected = [PairAligner(col).align_and_decide(p) for p in pairs]
        assert ref.align_and_decide_batch(pairs) == expected

    def test_kdiff_takes_the_group_kernel(self):
        """kdiff waves go to kdiff_extend_group; only waves under the
        measured crossover go to the per-pair kdiff_extend."""
        col = EstCollection.from_strings(["ACGTACGTACGTTGCA", "GTACGTACGTAAGGCT"])
        pairs = [Pair(8, 0, 2 + k % 4, 2, 1 + k % 3) for k in range(8)]
        expected = [PairAligner(col, engine="kdiff").align_and_decide(p) for p in pairs]
        for n, group_calls in ((len(pairs), 1), (batch_module.KDIFF_GROUP_MIN // 2 - 1, 0)):
            bat = BatchPairAligner(col, engine="kdiff")
            with mock.patch.object(
                batch_module, "kdiff_extend_group", wraps=kdiff_extend_group
            ) as group, mock.patch.object(
                batch_module, "kdiff_extend", wraps=batch_module.kdiff_extend
            ) as per_pair:
                assert bat.align_and_decide_batch(pairs[:n]) == expected[:n]
            assert group.call_count == group_calls
            assert per_pair.call_count == (0 if group_calls else 2 * n)

    def test_full_dp_falls_back_to_oracle(self):
        col = EstCollection.from_strings(["ACGTACGTACGT", "GTACGTACGTAA"])
        pairs = [Pair(8, 0, 2, 2, 0)]
        kwargs = {"use_seed_extension": False}
        expected = [PairAligner(col, **kwargs).align_and_decide(p) for p in pairs]
        assert BatchPairAligner(col, **kwargs).align_and_decide_batch(pairs) == expected


class TestTelemetryParity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_aggregate_metrics_match_per_pair_engine(self, engine):
        rng = np.random.default_rng(3)
        col = EstCollection.from_strings(
            ["".join(rng.choice(list("ACGT"), 70)) for _ in range(4)]
        )
        pairs = [
            Pair(12, 0, 10, 2 * b + strand, 20)
            for b, strand in ((1, 0), (2, 1), (3, 0), (1, 1))
        ]
        tel_ref, tel_bat = Telemetry(), Telemetry()
        ref = PairAligner(col, engine=engine, telemetry=tel_ref)
        for p in pairs:
            ref.align_and_decide(p)
        bat = BatchPairAligner(col, engine=engine, telemetry=tel_bat, group_size=2)
        with mock.patch.object(batch_module, "KDIFF_GROUP_MIN", 1):
            bat.align_and_decide_batch(pairs)
        assert bat.alignments_performed == ref.alignments_performed
        assert bat.dp_cells_total == ref.dp_cells_total
        assert bat.model_cells_total == ref.model_cells_total
        ref_counters = tel_ref.registry.snapshot()["counters"]
        bat_counters = tel_bat.registry.snapshot()["counters"]
        for key in ("align.accepted", "align.rejected"):
            assert ref_counters.get(key, 0) == bat_counters.get(key, 0)
        ref_hists = tel_ref.registry.snapshot()["histograms"]
        bat_hists = tel_bat.registry.snapshot()["histograms"]
        assert ref_hists["align.band_width"] == bat_hists["align.band_width"]
        assert "align.batch_size" in bat_hists
        # Only the banded kernel has a workspace to reuse.
        reused = bat_counters.get("align.buffer_reuse", 0)
        assert reused >= 1 if engine == "banded" else reused == 0


class TestKdiffKernelBytes:
    def test_state_of_a_full_wave_stays_small(self):
        """g = 128 full-length extensions at budget 34, every member out
        of budget: all 35 levels of state are live at the end.  The
        int32 level blocks hold it under 1.5 MB (an int64 (2E + 1)-row
        stack took 2.5 MB)."""
        rng = np.random.default_rng(0)
        xs = [rng.integers(0, 4, 550).astype(np.int8) for _ in range(128)]
        ys = [rng.integers(0, 4, 550).astype(np.int8) for _ in range(128)]
        tracemalloc.start()
        try:
            scores, _cx, _cy, cells = kdiff_extend_group(
                xs, ys, [34] * 128, ScoringParams()
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (cells == 35**2).all() and (scores < 0).all()
        assert peak <= 1_500_000


class TestMakeAligner:
    def test_selects_engine_from_config(self):
        col = EstCollection.from_strings(["ACGTACGTAC", "TGCATGCATG"])
        per_pair = make_aligner(col, ClusteringConfig(align_batch=0))
        assert type(per_pair) is PairAligner
        batched = make_aligner(col, ClusteringConfig(align_batch=32))
        assert isinstance(batched, BatchPairAligner)
        assert batched.group_size == 32
        default = make_aligner(col, ClusteringConfig())
        assert isinstance(default, BatchPairAligner)
        assert default.group_size == 64

    def test_config_rejects_negative_group(self):
        with pytest.raises(ValueError):
            ClusteringConfig(align_batch=-1)
