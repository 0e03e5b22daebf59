"""Tests for the greedy k-difference (Landau-Vishkin) extension engine."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.align.kdiff as kdiff_module
from repro.align import AcceptanceCriteria, PairAligner, ScoringParams, extend_overlap
from repro.align.kdiff import kdiff_extend, kdiff_extend_group, score_ops
from repro.sequence import EstCollection, encode

P = ScoringParams()
#: Non-integer scores: every running sum rounds, so a reordered or
#: regrouped addition changes the last bits.
FRACTIONAL = ScoringParams(match=1.3, mismatch=-2.7, gap_open=-4.1, gap_extend=-1.9)
codes = st.lists(st.integers(0, 3), min_size=0, max_size=14).map(
    lambda v: np.array(v, dtype=np.uint8)
)


def edit_distance_extension(x: np.ndarray, y: np.ndarray) -> tuple[int, int, int]:
    """Reference: min edits to align prefixes reaching an end of x or y,
    by full DP.  Returns ``(edits, consumed_x, consumed_y)``."""
    x = [int(v) for v in np.asarray(x)]
    y = [int(v) for v in np.asarray(y)]
    lx, ly = len(x), len(y)
    INF = 10**9
    dp = [[INF] * (ly + 1) for _ in range(lx + 1)]
    dp[0][0] = 0
    for i in range(lx + 1):
        for j in range(ly + 1):
            v = dp[i][j]
            if v == INF:
                continue
            if i < lx and j < ly:
                cost = 0 if x[i] == y[j] else 1
                if v + cost < dp[i + 1][j + 1]:
                    dp[i + 1][j + 1] = v + cost
            if i < lx and v + 1 < dp[i + 1][j]:
                dp[i + 1][j] = v + 1
            if j < ly and v + 1 < dp[i][j + 1]:
                dp[i][j + 1] = v + 1
    best = (INF, 0, 0)
    for i in range(lx + 1):
        if dp[i][ly] < best[0]:
            best = (dp[i][ly], i, ly)
    for j in range(ly + 1):
        if dp[lx][j] < best[0]:
            best = (dp[lx][j], lx, j)
    return best


@st.composite
def kdiff_group(draw):
    """``(xs, ys, budgets)`` for one group call: ``x`` of 1–80 symbols and
    ``y`` identical to it, an indel-rich variant, a short piece of it
    (``|lx - ly|`` far above the budget) or unrelated (mostly out of
    budget); budgets 0–30 mixed inside the group."""
    g = draw(st.integers(1, 8))
    bases = st.integers(0, 3)
    xs, ys, budgets = [], [], []
    for _ in range(g):
        x = draw(st.lists(bases, min_size=1, max_size=80))
        relation = draw(st.sampled_from(["same", "indels", "piece", "unrelated"]))
        if relation == "same":
            y = list(x)
        elif relation == "indels":
            y = list(x)
            for _ in range(draw(st.integers(1, 6))):
                at = draw(st.integers(0, len(y)))
                kind = draw(st.sampled_from(["ins", "del", "sub"]))
                if kind == "ins":
                    y[at:at] = draw(st.lists(bases, min_size=1, max_size=3))
                elif at < len(y):
                    y[at : at + 1] = [] if kind == "del" else [draw(bases)]
            y = y or [draw(bases)]
        elif relation == "piece":
            start = draw(st.integers(0, len(x) - 1))
            y = x[start : start + draw(st.integers(1, 4))]
        else:
            y = draw(st.lists(bases, min_size=1, max_size=80))
        xs.append(np.array(x, dtype=np.int8))
        ys.append(np.array(y, dtype=np.int8))
        budgets.append(draw(st.integers(0, 30)))
    return xs, ys, budgets


class TestKdiffGroupKernel:
    @settings(deadline=None, max_examples=200)
    @given(kdiff_group(), st.sampled_from([P, FRACTIONAL]))
    def test_identical_to_per_pair_kernel(self, group, params):
        xs, ys, budgets = group
        scores, cx, cy, cells = kdiff_extend_group(xs, ys, budgets, params)
        got = [
            (float(scores[k]), int(cx[k]), int(cy[k]), int(cells[k]))
            for k in range(len(xs))
        ]
        assert got == [
            tuple(kdiff_extend(x, y, params, b)) for x, y, b in zip(xs, ys, budgets)
        ]

    def test_long_slides_and_arena_views(self):
        """Runs far past the first windows, reversed (left-extension)
        views of one arena, and a group wider than one wave."""
        rng = np.random.default_rng(4)
        arena = rng.integers(0, 4, 40_000).astype(np.int8)
        xs, ys, budgets = [], [], []
        for k in range(150):
            a = arena[k * 260 : k * 260 + 250]
            b = a.copy()
            for at in rng.choice(250, size=int(rng.integers(0, 6)), replace=False):
                b[at] = (b[at] + 1) % 4
            if k % 2:
                a, b = a[::-1], b[::-1]
            xs.append(a)
            ys.append(b[: int(rng.integers(100, 250))])
            budgets.append(int(rng.integers(0, 34)))
        scores, cx, cy, cells = kdiff_extend_group(xs, ys, budgets, FRACTIONAL)
        for k in range(len(xs)):
            got = (float(scores[k]), int(cx[k]), int(cy[k]), int(cells[k]))
            assert got == kdiff_extend(xs[k], ys[k], FRACTIONAL, budgets[k])

    def test_empty_group_and_bad_input(self):
        scores, cx, cy, cells = kdiff_extend_group([], [], [], P)
        assert scores.size == cx.size == cy.size == cells.size == 0
        a = np.array([0, 1], dtype=np.int8)
        with pytest.raises(ValueError):
            kdiff_extend_group([a], [a[:0]], [3], P)
        with pytest.raises(ValueError):
            kdiff_extend_group([a], [a], [-1], P)
        with pytest.raises(ValueError):
            kdiff_extend_group([a, a], [a], [3, 3], P)


class TestXInvariant:
    @settings(deadline=None, max_examples=100)
    @given(kdiff_group())
    def test_every_x_is_a_mismatch_and_every_m_a_match(self, group):
        """The group kernel scores X as ``mismatch`` and slides as
        ``match`` without reading the strings; this is why it may."""
        transcripts = []

        def record(ops, params, x, y):
            transcripts.append((ops, x, y))
            return score_ops(ops, params, x, y)

        with mock.patch.object(kdiff_module, "score_ops", record):
            for x, y, budget in zip(*group):
                kdiff_extend(x, y, P, budget)
        for ops, x, y in transcripts:
            i = j = 0
            for op in ops:
                if op in "MX":
                    assert (x[i] == y[j]) == (op == "M")
                i += op in "MXD"
                j += op in "MXI"


class TestKdiffExtend:
    def test_perfect_match(self):
        x = encode("ACGTACGTAC")
        r = kdiff_extend(x, x.copy(), P, 3)
        assert r.score == P.match * 10
        assert r.consumed_x == r.consumed_y == 10

    def test_single_substitution(self):
        x = encode("ACGTACGTAC")
        y = encode("ACGTTCGTAC")
        r = kdiff_extend(x, y, P, 3)
        assert r.score == P.match * 9 + P.mismatch
        assert r.consumed_x == r.consumed_y == 10

    def test_single_indel(self):
        x = encode("ACGTACGTAC")
        y = encode("ACGTCGTAC")
        r = kdiff_extend(x, y, P, 3)
        assert r.score == P.match * 9 + P.gap_open
        assert (r.consumed_x, r.consumed_y) == (10, 9)

    def test_dovetail_stops_at_short_string(self):
        x = encode("ACGTACGTACGTACGT")
        y = encode("ACGTA")
        r = kdiff_extend(x, y, P, 3)
        assert (r.consumed_x, r.consumed_y) == (5, 5)

    def test_empty_side(self):
        r = kdiff_extend(encode("ACGT"), np.array([], dtype=np.uint8), P, 3)
        assert r == (0.0, 0, 0, 0)

    def test_budget_exhausted_fallback_rejects(self):
        x = encode("AAAAAAAAAA")
        y = encode("CCCCCCCCCC")
        r = kdiff_extend(x, y, P, 2)
        assert r.score < 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            kdiff_extend(encode("A"), encode("A"), P, -1)

    @given(codes, codes)
    @settings(max_examples=80, deadline=None)
    def test_edit_count_matches_reference_dp(self, x, y):
        """The minimum-edit objective agrees with the full-DP oracle."""
        ref_edits, _ri, _rj = edit_distance_extension(x, y)
        budget = max(len(x), len(y)) + 1
        r = kdiff_extend(x, y, P, budget)
        # Recover edits from the score path by recomputing both ways is
        # awkward; instead assert reachability: with budget == ref_edits
        # the extension succeeds, with budget == ref_edits - 1 it fails.
        ok = kdiff_extend(x, y, P, ref_edits)
        assert ok.consumed_x == len(x) or ok.consumed_y == len(y) or len(x) == 0 or len(y) == 0
        if ref_edits > 0 and len(x) > 0 and len(y) > 0:
            short = kdiff_extend(x, y, P, ref_edits - 1)
            reached = short.consumed_x == len(x) or short.consumed_y == len(y)
            assert not reached or short.score < 0

    @given(codes.filter(lambda a: len(a) >= 4))
    @settings(max_examples=40, deadline=None)
    def test_score_never_exceeds_banded_optimum(self, x):
        """Min-edit alignment's affine score lower-bounds the optimal."""
        rng = np.random.default_rng(int(x.sum()) + len(x))
        y = x.copy()
        flip = rng.random(len(y)) < 0.15
        y[flip] = (y[flip] + 1) % 4
        kd = kdiff_extend(x, y, P, len(x))
        opt = extend_overlap(x, y, P, band=len(x) + len(y))
        assert kd.score <= opt.score + 1e-9

    def test_high_identity_agrees_with_banded(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 4, 200).astype(np.uint8)
        y = x.copy()
        pos = rng.choice(200, size=3, replace=False)
        y[pos] = (y[pos] + 1) % 4
        kd = kdiff_extend(x, y, P, 10)
        opt = extend_overlap(x, y, P, band=10)
        assert kd.score == pytest.approx(opt.score)

    def test_work_scales_with_errors_not_length(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 4, 400).astype(np.uint8)
        y = x.copy()
        y[100] = (y[100] + 1) % 4
        kd = kdiff_extend(x, y, P, 12)
        banded = extend_overlap(x, y, P, band=12)
        assert kd.dp_cells < banded.dp_cells / 50


class TestScoreOps:
    def test_affine_gap_accounting(self):
        x = encode("AACC").tolist()
        y = encode("AA").tolist()
        # Two matches then a 2-run gap: open + extend.
        assert score_ops("MMDD", P, x, y) == 2 * P.match + P.gap_open + P.gap_extend

    def test_m_columns_rechecked(self):
        x = encode("AA").tolist()
        y = encode("AC").tolist()
        # Claimed "MM" but second column mismatches: scored as mismatch.
        assert score_ops("MM", P, x, y) == P.match + P.mismatch

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            score_ops("Z", P, [0], [0])


class TestKdiffInPairAligner:
    def test_engine_selection(self, small_benchmark):
        col = small_benchmark.collection
        with pytest.raises(ValueError, match="unknown extension engine"):
            PairAligner(col, engine="magic")

    def test_kdiff_pipeline_quality(self, small_benchmark, small_config):
        """Clustering with the kdiff engine matches banded-engine quality."""
        from repro.cluster import ClusterManager, greedy_cluster
        from repro.metrics import assess_clustering
        from repro.pairs import SaPairGenerator
        from repro.suffix import SuffixArrayGst

        col = small_benchmark.collection
        truth = small_benchmark.true_clusters()
        gst = SuffixArrayGst.build(col)
        results = {}
        for engine in ("banded", "kdiff"):
            aligner = PairAligner(
                col,
                criteria=AcceptanceCriteria(min_score_ratio=0.8, min_overlap=30),
                engine=engine,
            )
            mgr = ClusterManager(col.n_ests)
            greedy_cluster(
                SaPairGenerator(gst, psi=small_config.psi).pairs(), aligner, mgr
            )
            results[engine] = assess_clustering(mgr.clusters(), truth, col.n_ests)
        assert abs(results["banded"].cc - results["kdiff"].cc) < 2.0
