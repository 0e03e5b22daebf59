"""Tests for the public API: config validation, the sequential pipeline,
result objects, and the backend equivalence at pipeline level."""

import pytest

from repro import ClusteringConfig, PaceClusterer
from repro.core.results import COMPONENT_ORDER, ClusteringResult
from repro.metrics import assess_clustering


class TestConfig:
    def test_defaults_follow_paper(self):
        cfg = ClusteringConfig()
        assert cfg.w == 8  # §4.2: "window size of eight"
        assert cfg.batchsize == 60  # §4.2: "batchsize chosen to be sixty"

    def test_psi_below_w_rejected(self):
        with pytest.raises(ValueError, match="must be >= w"):
            ClusteringConfig(w=8, psi=4)

    def test_positive_params_enforced(self):
        with pytest.raises(ValueError):
            ClusteringConfig(batchsize=0)
        with pytest.raises(ValueError):
            ClusteringConfig(w=0)

    def test_small_reads_preset_overridable(self):
        cfg = ClusteringConfig.small_reads(batchsize=10)
        assert cfg.batchsize == 10 and cfg.w == 6


class TestPipeline:
    def test_recovers_clean_clusters(self, clean_benchmark, small_config):
        result = PaceClusterer(small_config).cluster(clean_benchmark.collection)
        q = assess_clustering(
            result.clusters, clean_benchmark.true_clusters(), clean_benchmark.n_ests
        )
        assert q.ov == 0.0  # no false merges on clean data
        assert q.oq > 90.0

    def test_quality_with_errors(self, small_benchmark, small_config):
        result = PaceClusterer(small_config).cluster(small_benchmark.collection)
        q = assess_clustering(
            result.clusters, small_benchmark.true_clusters(), small_benchmark.n_ests
        )
        assert q.oq > 90.0 and q.cc > 90.0
        assert q.un >= q.ov  # conservative criteria under-predict (Table 2)

    def test_fig7_counter_ordering(self, small_benchmark, small_config):
        c = PaceClusterer(small_config).cluster(small_benchmark.collection).counters
        assert c.pairs_generated >= c.pairs_processed >= c.pairs_accepted
        assert c.pairs_generated == c.pairs_processed + c.pairs_skipped

    def test_timings_present(self, small_benchmark, small_config):
        t = PaceClusterer(small_config).cluster(small_benchmark.collection).timings
        for name in ("gst_construction", "sort_nodes", "alignment"):
            assert t.get(name) >= 0
        assert t.total > 0

    def test_tree_backend_equivalent_partition(self, tree_engine_run, small_config):
        col, tree_clusters = tree_engine_run
        # Same pair set + order-independent merging => identical partitions
        # (both backends emit the same canonical pair set).
        assert PaceClusterer(small_config).cluster(col).clusters == tree_clusters

    def test_gen_stats_attached(self, small_benchmark, small_config):
        res = PaceClusterer(small_config).cluster(small_benchmark.collection)
        assert res.gen_stats is not None
        assert res.gen_stats.pairs_generated == res.counters.pairs_generated

    def test_merges_witness_clusters(self, small_benchmark, small_config):
        res = PaceClusterer(small_config).cluster(small_benchmark.collection)
        labels = res.labels()
        for rec in res.merges:
            assert labels[rec.pair.est_a] == labels[rec.pair.est_b]

    def test_cluster_pairs_external_stream(self, small_benchmark, small_config):
        from repro.pairs import SaPairGenerator
        from repro.suffix import SuffixArrayGst

        gen = SaPairGenerator(
            SuffixArrayGst.build(small_benchmark.collection), psi=small_config.psi
        )
        res = PaceClusterer(small_config).cluster_pairs(
            small_benchmark.collection, gen.pairs()
        )
        direct = PaceClusterer(small_config).cluster(small_benchmark.collection)
        assert res.clusters == direct.clusters


class TestResults:
    def test_labels_roundtrip(self):
        res = ClusteringResult(
            n_ests=4,
            clusters=[[0, 2], [1], [3]],
            counters=None,
            timings=None,
        )
        assert res.labels() == [0, 1, 0, 2]
        assert res.n_clusters == 3

    def test_component_order_matches_table3(self):
        assert COMPONENT_ORDER == [
            "partitioning",
            "gst_construction",
            "sort_nodes",
            "alignment",
        ]

    def test_summary_renders(self, small_benchmark, small_config):
        res = PaceClusterer(small_config).cluster(small_benchmark.collection)
        s = res.summary()
        assert "clusters" in s and "pairs generated" in s
