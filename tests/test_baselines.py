"""Tests for the baseline comparators and the Table 1 scaling-law models."""

import pytest

from repro.baselines import (
    CAP3,
    MEMORY_BUDGET_MB,
    PHRAP,
    TABLE1_TOOLS,
    TIGR_ASSEMBLER,
    allpairs_cluster,
    cap3_like_cluster,
)
from repro.core import PaceClusterer
from repro.metrics import assess_clustering


class TestAllPairsBaseline:
    def test_same_partition_as_pace(self, small_benchmark, small_config):
        """Order cannot change the final partition (components of the
        accepted-pair graph) — only the work done."""
        pace = PaceClusterer(small_config).cluster(small_benchmark.collection)
        base = allpairs_cluster(small_benchmark.collection, small_config, rng=3)
        assert base.result.clusters == pace.clusters

    def test_materialises_every_pair(self, small_benchmark, small_config):
        base = allpairs_cluster(small_benchmark.collection, small_config)
        assert base.peak_pairs_buffered == base.result.counters.pairs_generated
        # On-demand PaCE buffers at most O(batch); the baseline holds all.
        assert base.peak_pairs_buffered > small_config.batchsize

    def test_arbitrary_order_aligns_more_than_best_first(
        self, small_benchmark, small_config
    ):
        """The §2 claim: decreasing-quality order lets the cluster test
        fire earlier, so fewer alignments are needed."""
        best = allpairs_cluster(small_benchmark.collection, small_config, order="best_first")
        arb = allpairs_cluster(small_benchmark.collection, small_config, order="arbitrary", rng=5)
        worst = allpairs_cluster(small_benchmark.collection, small_config, order="worst_first")
        assert best.result.counters.pairs_processed <= arb.result.counters.pairs_processed
        assert best.result.counters.pairs_processed <= worst.result.counters.pairs_processed

    def test_skip_disabled_is_fully_naive(self, small_benchmark, small_config):
        naive = allpairs_cluster(
            small_benchmark.collection, small_config, skip_clustered=False
        )
        c = naive.result.counters
        assert c.pairs_processed == c.pairs_generated
        assert c.pairs_skipped == 0

    def test_unknown_order_rejected(self, small_benchmark, small_config):
        with pytest.raises(ValueError, match="unknown order"):
            allpairs_cluster(small_benchmark.collection, small_config, order="sideways")


@pytest.fixture(scope="module")
def cap3(small_benchmark, small_config):
    """One full-DP baseline run (~25 s), shared by every assertion on it."""
    return cap3_like_cluster(small_benchmark.collection, small_config)


class TestCap3Like:
    def test_quality_at_least_pace(self, small_benchmark, small_config, cap3):
        """Full-DP scoring can only find overlaps the banded seed
        extension may miss: CC(cap3like) >= CC(pace) - epsilon, matching
        Table 2's 'CAP3 a hair better' profile."""
        truth = small_benchmark.true_clusters()
        n = small_benchmark.collection.n_ests
        pace_q = assess_clustering(
            PaceClusterer(small_config).cluster(small_benchmark.collection).clusters,
            truth,
            n,
        )
        cap_q = assess_clustering(cap3.result.clusters, truth, n)
        assert cap_q.cc >= pace_q.cc - 1.0

    def test_quadratically_more_work_than_pace(
        self, small_benchmark, small_config, cap3
    ):
        pace = PaceClusterer(small_config).cluster(small_benchmark.collection)
        assert cap3.result.counters.dp_cells > 3 * pace.counters.dp_cells
        assert cap3.result.counters.pairs_processed >= pace.counters.pairs_processed

    def test_buffers_all_candidates(self, cap3):
        assert cap3.peak_pairs_buffered == cap3.result.counters.pairs_generated


class TestTable1Models:
    def test_anchor_points_reproduce_table1(self):
        """The exact run/X pattern of the paper's Table 1."""
        assert TIGR_ASSEMBLER.table1_cell(50_000) == "X"
        assert PHRAP.table1_cell(50_000) == "23 mins"
        assert CAP3.table1_cell(50_000) == "5.0 hrs"
        for tool in TABLE1_TOOLS:
            assert tool.table1_cell(81_414) == "X"

    def test_quadratic_scaling(self):
        assert CAP3.runtime_s(100_000) == pytest.approx(4 * CAP3.runtime_s(50_000))
        assert PHRAP.memory_mb(100_000) - PHRAP.memory_base_mb == pytest.approx(
            4 * (PHRAP.memory_mb(50_000) - PHRAP.memory_base_mb)
        )

    def test_small_inputs_fit(self):
        for tool in TABLE1_TOOLS:
            assert tool.fits(10_000, MEMORY_BUDGET_MB)
            assert tool.table1_cell(10_000) != "X"

    def test_minutes_formatting(self):
        assert PHRAP.table1_cell(50_000).endswith("mins")
        assert CAP3.table1_cell(50_000).endswith("hrs")
