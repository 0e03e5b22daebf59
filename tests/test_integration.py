"""End-to-end integration tests across the whole system.

These are the tests that tie the reproduction to the paper's claims:
order-independence of the final partition, robustness to sequencing
errors, strand-invariance, parity between all execution engines, and the
conservative (UN > OV) quality profile of Table 2.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro.align.batch as batch_module
import repro.parallel.engine as engine_module
from repro.align import AcceptanceCriteria, make_aligner
from repro.align.kdiff import kdiff_extend_group
from repro.baselines import allpairs_cluster
from repro.core import ClusteringConfig, PaceClusterer
from repro.metrics import assess_clustering
from repro.parallel import (
    FaultPlan,
    FaultSpec,
    FaultTolerance,
    cluster_multiprocessing,
    simulate_clustering,
)
from repro.sequence import EstCollection, reverse_complement
from repro.simulate import BenchmarkParams, ErrorModel, ReadParams, make_benchmark


class TestOrderIndependence:
    def test_partition_invariant_under_pair_order(self, small_benchmark, small_config):
        """The final partition is the connected components of the
        accepted-pair graph, so any processing order yields the same
        clusters (the property that makes parallel == sequential)."""
        base = PaceClusterer(small_config).cluster(small_benchmark.collection).clusters
        for seed in (0, 1, 2):
            shuffled = allpairs_cluster(
                small_benchmark.collection, small_config, order="arbitrary", rng=seed
            )
            assert shuffled.result.clusters == base
        worst = allpairs_cluster(
            small_benchmark.collection, small_config, order="worst_first"
        )
        assert worst.result.clusters == base


class TestEngineParity:
    def test_all_four_engines_agree(
        self, small_benchmark, small_config, tree_engine_run
    ):
        col = small_benchmark.collection
        # The oracle is named, not inherited: library defaults are the
        # vector pair engine and the batched aligner.
        oracle = ClusteringConfig.small_reads(pair_engine="scalar", align_batch=0)
        seq_oracle = PaceClusterer(oracle).cluster(col).clusters
        seq_sa = PaceClusterer(small_config).cluster(col).clusters
        sim = simulate_clustering(col, small_config, n_processors=5).result.clusters
        mp = cluster_multiprocessing(col, small_config, n_processors=3).clusters
        assert seq_oracle == seq_sa == sim == mp
        # The fourth engine — explicit bucket trees, pure Python — against
        # the same oracle on the small corpus it can afford.
        tree_col, seq_tree = tree_engine_run
        assert PaceClusterer(oracle).cluster(tree_col).clusters == seq_tree

    def test_one_base_corpus_on_every_engine(self):
        """A text shorter than ``w`` has no bucket at all: the parallel
        engines must plan an empty partition, not crash computing it."""
        col = EstCollection.from_strings(["A"])
        cfg = ClusteringConfig()
        seq = PaceClusterer(cfg).cluster(col).clusters
        sim = simulate_clustering(col, cfg, n_processors=3).result.clusters
        mp = cluster_multiprocessing(col, cfg, n_processors=3).clusters
        assert seq == sim == mp == [[0]]

    def test_more_slaves_than_buckets(self):
        """Two 8-base ESTs have two buckets at w = 8: most slaves own no
        range, hence no forest, and the run is still the sequential one."""
        col = EstCollection.from_strings(["ACGTTGCA", "ACGTTGCA"])
        cfg = ClusteringConfig(
            psi=8, acceptance=AcceptanceCriteria(min_score_ratio=0.8, min_overlap=8)
        )
        seq = PaceClusterer(cfg).cluster(col).clusters
        sim = simulate_clustering(col, cfg, n_processors=8).result.clusters
        mp = cluster_multiprocessing(col, cfg, n_processors=5).clusters
        assert seq == sim == mp == [[0, 1]]

    @pytest.mark.parametrize("align_batch", [0, 48])
    def test_batched_and_per_pair_cluster_output_identical(
        self, small_benchmark, small_config, align_batch
    ):
        """The batched aligner is a pure performance layer: byte-identical
        cluster output to the per-pair reference engine."""
        col = small_benchmark.collection
        oracle = replace(small_config, pair_engine="scalar", align_batch=0)
        reference = PaceClusterer(oracle).cluster(col).clusters
        cfg = replace(small_config, align_batch=align_batch)
        got = PaceClusterer(cfg).cluster(col).clusters
        assert repr(got).encode() == repr(reference).encode()

    def test_kdiff_group_kernel_on_every_engine(self):
        """Full-length reads through the k-difference engine: the batched
        aligner (group kernel) and the per-pair one do the same work on
        every engine, down to the simulator's virtual clock."""
        col = make_benchmark(
            BenchmarkParams(n_genes=5, mean_ests_per_gene=4, expression_skew=0.0),
            rng=2,
        ).collection
        batched = ClusteringConfig(align_engine="kdiff")
        per_pair = replace(batched, align_batch=0)
        work = ("pairs_processed", "pairs_accepted", "dp_cells")

        def counters(result):
            return [getattr(result.counters, k) for k in work]

        with mock.patch.object(
            batch_module, "kdiff_extend_group", wraps=kdiff_extend_group
        ) as group:
            seq = [PaceClusterer(cfg).cluster(col) for cfg in (batched, per_pair)]
        assert group.call_count >= 1
        assert seq[0].clusters == seq[1].clusters
        assert counters(seq[0]) == counters(seq[1])

        sims = []
        for cfg in (batched, per_pair):
            aligners = []

            def recording(*args, **kwargs):
                aligners.append(make_aligner(*args, **kwargs))
                return aligners[-1]

            with mock.patch.object(
                engine_module, "make_aligner", recording
            ), mock.patch.object(
                batch_module, "kdiff_extend_group", wraps=kdiff_extend_group
            ) as group:
                rep = simulate_clustering(col, cfg, n_processors=4)
            assert (group.call_count >= 1) == bool(cfg.align_batch)
            sims.append(
                (
                    rep.result.clusters,
                    counters(rep.result),
                    sum(a.model_cells_total for a in aligners),
                    rep.total_time,
                    rep.messages_exchanged,
                )
            )
        assert sims[0] == sims[1]
        assert sims[0][0] == seq[0].clusters

        mp = [
            cluster_multiprocessing(col, cfg, n_processors=3)
            for cfg in (batched, per_pair)
        ]
        assert mp[0].clusters == mp[1].clusters == seq[0].clusters
        assert counters(mp[0]) == counters(mp[1])

    def test_parallel_engines_with_batched_aligner(self, small_benchmark, small_config):
        col = small_benchmark.collection
        reference = PaceClusterer(small_config).cluster(col).clusters
        cfg = replace(small_config, align_batch=32)
        sim = simulate_clustering(col, cfg, n_processors=4).result.clusters
        mp = cluster_multiprocessing(col, cfg, n_processors=2).clusters
        assert sim == reference
        assert mp == reference


class TestOneForestPerOwner:
    """Every owner of bucket ranges builds its interval forest in one
    call, whatever the number of buckets it owns (DESIGN.md §5c)."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        import repro.suffix.gst as gst_module

        calls = []
        real = gst_module.build_flat_forest

        def counting(lcp, **kwargs):
            calls.append(kwargs.get("ranges"))
            return real(lcp, **kwargs)

        monkeypatch.setattr(gst_module, "build_flat_forest", counting)
        return calls

    def test_sequential_run_builds_once(self, small_benchmark, small_config, builds):
        PaceClusterer(small_config).cluster(small_benchmark.collection)
        assert builds == [None]  # the owner of every bucket: the whole array

    def test_each_simulated_slave_builds_once(
        self, small_benchmark, small_config, builds
    ):
        simulate_clustering(small_benchmark.collection, small_config, n_processors=8)
        assert len(builds) == 7
        assert all(len(ranges) > 1 for ranges in builds)  # many buckets, one call

    def test_lost_slave_is_rebuilt_in_one_call(
        self, small_benchmark, small_config, builds
    ):
        plan = FaultPlan.of(
            FaultSpec(slave_id=1, kind="kill", at_message=1, incarnation=None)
        )
        rep = simulate_clustering(
            small_benchmark.collection,
            small_config,
            n_processors=8,
            faults=plan,
            tolerance=FaultTolerance(detection_delay=0.001),
        )
        assert rep.result.faults.slaves_lost == 1
        assert len(builds) == 7 + 1
        assert builds[-1] == builds[1]  # the master, over slave 1's ranges


#: Clusters 15 overlapping reads of one gene, then reports whether the
#: module named by its second argument was imported.
_IMPORT_PROBE = """
import sys
import numpy as np
from repro.core import ClusteringConfig, PaceClusterer
from repro.parallel import simulate_clustering
from repro.sequence import EstCollection

gene = np.random.default_rng(5).integers(0, 4, 400).astype(np.uint8)
col = EstCollection([gene[s : s + 120] for s in range(0, 281, 20)])
config = ClusteringConfig.small_reads()
if sys.argv[1] == "sequential":
    result = PaceClusterer(config).cluster(col)
else:
    result = simulate_clustering(col, config, n_processors=3).result
assert result.n_clusters == 1 and result.counters.pairs_processed > 0
print(sys.argv[2] in sys.modules)
"""


class TestNoLazyImports:
    @pytest.mark.parametrize("engine", ["sequential", "simulated"])
    def test_a_run_does_not_import_numpy_ma(self, engine):
        """numpy's set functions (``union1d``, plain ``unique``) import
        ``numpy.ma`` on first use: 16 ms and 0.5 MB of small long-lived
        blocks allocated mid-run, at the heap's high-water mark.  A fresh
        interpreter, because any earlier test may have imported it."""
        assert not _imported_by_a_run(engine, "numpy.ma")

    @pytest.mark.parametrize("engine", ["sequential", "simulated"])
    def test_a_run_does_not_import_http_server(self, engine):
        """The live monitor's endpoint imports ``http.server`` (~20 ms of
        a cold ``import repro.core``) only when a port is asked for."""
        assert not _imported_by_a_run(engine, "http.server")


def _imported_by_a_run(engine: str, module: str) -> bool:
    """Whether a plain run of ``engine`` in a fresh interpreter leaves
    ``module`` in ``sys.modules``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, engine, module],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip() == "True"


class TestErrorRobustness:
    @pytest.mark.parametrize("error_total", [0.0, 0.01, 0.02, 0.04])
    def test_quality_degrades_gracefully(self, error_total):
        sub = error_total / 2
        indel = error_total / 4
        params = BenchmarkParams(
            n_genes=8,
            mean_ests_per_gene=10,
            read_params=ReadParams.short_reads(),
            error_model=ErrorModel(sub, indel, indel),
            n_exons_range=(1, 3),
            exon_len_range=(80, 200),
        )
        bench = make_benchmark(params, rng=42)
        cfg = ClusteringConfig.small_reads(
            acceptance=AcceptanceCriteria(min_score_ratio=0.7, min_overlap=30)
        )
        result = PaceClusterer(cfg).cluster(bench.collection)
        q = assess_clustering(result.clusters, bench.true_clusters(), bench.n_ests)
        assert q.cc > 80.0, f"CC collapsed at error rate {error_total}: {q}"
        assert q.ov < 20.0

    def test_conservative_profile_un_exceeds_ov(self, small_benchmark, small_config):
        """Table 2's signature: under-prediction > over-prediction."""
        result = PaceClusterer(small_config).cluster(small_benchmark.collection)
        q = assess_clustering(
            result.clusters, small_benchmark.true_clusters(), small_benchmark.n_ests
        )
        assert q.un >= q.ov


class TestStrandInvariance:
    def test_reverse_complementing_inputs_keeps_partition(
        self, small_benchmark, small_config
    ):
        """Flipping any EST to its reverse complement must not change the
        clustering — the doubled string set S sees both strands anyway."""
        col = small_benchmark.collection
        rng = np.random.default_rng(0)
        flipped = []
        for i in range(col.n_ests):
            est = col.est(i).copy()
            if rng.random() < 0.5:
                est = reverse_complement(est)
            flipped.append(est)
        col2 = EstCollection(flipped)
        a = PaceClusterer(small_config).cluster(col).clusters
        b = PaceClusterer(small_config).cluster(col2).clusters
        assert a == b


class TestScalingShape:
    def test_fig7_shape_processed_much_less_than_generated(
        self, small_benchmark, small_config
    ):
        c = PaceClusterer(small_config).cluster(small_benchmark.collection).counters
        assert c.pairs_processed < 0.25 * c.pairs_generated
        assert 0 < c.pairs_accepted <= c.pairs_processed

    def test_fig6a_speedup_monotone(self, small_benchmark, small_config):
        from repro.suffix import SuffixArrayGst

        gst = SuffixArrayGst.build(small_benchmark.collection)
        times = {
            p: simulate_clustering(
                small_benchmark.collection, small_config, n_processors=p, gst=gst
            ).total_time
            for p in (2, 4, 8, 16)
        }
        assert times[2] > times[4] > times[8] > times[16]

    def test_duplicate_reads_cluster_trivially(self, small_config):
        reads = ["ACGTACGTACGTACGTACGTACGTACGTACGTAGTCAGTC"] * 5 + [
            "TTTTGGGGCCCCAAAATTTTGGGGCCCCAAAATGCATGCA"
        ] * 4
        cfg = ClusteringConfig.small_reads(
            acceptance=AcceptanceCriteria(min_score_ratio=0.9, min_overlap=30)
        )
        result = PaceClusterer(cfg).cluster(EstCollection.from_strings(reads))
        assert result.n_clusters == 2
        assert sorted(len(c) for c in result.clusters) == [4, 5]

    def test_singleton_input(self, small_config):
        result = PaceClusterer(small_config).cluster(
            EstCollection.from_strings(["ACGTACGTACGTACGTACGT"])
        )
        assert result.clusters == [[0]]
        assert result.counters.pairs_generated == 0
