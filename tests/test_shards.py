"""Sharded-master tests: topology planning, cross-shard union merging,
and end-to-end partition identity on both engines.

The oracle throughout is the partition-identity invariant: the final
clusters are the connected components of the accepted-pair graph, so a
run with any shard count — under any sync schedule, any interleaving of
merges and exchanges, and with injected faults — must produce exactly
the clusters of the sequential :class:`PaceClusterer` run.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import AlignmentResult, OverlapPattern
from repro.cluster import ClusterManager, UnionFind
from repro.core import PaceClusterer
from repro.pairs import Pair
from repro.parallel import (
    FaultPlan,
    FaultSpec,
    FaultTolerance,
    ShardedMaster,
    assign_buckets,
    cluster_multiprocessing,
    plan_shards,
    simulate_clustering,
)
from repro.parallel.partition import BucketAssignment
from repro.simulate import BenchmarkParams, make_benchmark


def _ranges(sizes: list[int]) -> list[tuple[int, int, int]]:
    """Synthetic (key, lo, hi) bucket ranges with the given sizes."""
    out, lo = [], 0
    for key, size in enumerate(sizes):
        out.append((key, lo, lo + size))
        lo += size
    return out


class TestPlanShards:
    def test_single_shard_reproduces_unsharded_assignment(self):
        ranges = _ranges([7, 3, 9, 1, 4, 4, 2])
        plan = plan_shards(ranges, n_slaves=3, n_shards=1)
        flat = assign_buckets(ranges, 3)
        assert plan.n_shards == 1
        assert plan.shard_slaves == [[0, 1, 2]]
        assert plan.slave_ranges == flat.per_processor
        assert plan.slave_loads == flat.loads

    def test_bucket_ownership_is_a_partition(self):
        ranges = _ranges([5, 8, 2, 2, 11, 3, 6, 1, 9])
        plan = plan_shards(ranges, n_slaves=6, n_shards=3)
        seen: list[tuple[int, int, int]] = []
        for per_slave in plan.slave_ranges:
            seen.extend(per_slave)
        assert sorted(seen) == sorted(ranges)
        # Shard-level ownership is disjoint too, and each slave's ranges
        # fall inside its shard's ownership.
        for k, shard_id in enumerate(plan.slave_shard):
            assert k in plan.shard_slaves[shard_id]
            for r in plan.slave_ranges[k]:
                assert r in plan.shard_ranges[shard_id]

    def test_validation(self):
        ranges = _ranges([4, 4])
        with pytest.raises(ValueError):
            plan_shards(ranges, n_slaves=4, n_shards=0)
        with pytest.raises(ValueError, match="cannot exceed slaves"):
            plan_shards(ranges, n_slaves=2, n_shards=3)

    @given(
        sizes=st.lists(st.integers(0, 50), min_size=0, max_size=24),
        n_slaves=st.integers(1, 8),
        n_shards=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_bucket_assigned_exactly_once(self, sizes, n_slaves, n_shards):
        if n_shards > n_slaves:
            return
        ranges = _ranges(sizes)
        plan = plan_shards(ranges, n_slaves, n_shards)
        assert plan.n_slaves == n_slaves
        assert sorted(r for rs in plan.slave_ranges for r in rs) == sorted(ranges)
        assert sorted(i for ids in plan.shard_slaves for i in ids) == list(
            range(n_slaves)
        )
        assert plan.imbalance >= 1.0


class TestImbalanceConvention:
    def test_empty_assignment_is_perfectly_balanced(self):
        assert BucketAssignment(per_processor=[], loads=[]).imbalance == 1.0

    def test_all_zero_loads_are_perfectly_balanced(self):
        asg = assign_buckets([], 3)
        assert asg.loads == [0, 0, 0]
        assert asg.imbalance == 1.0

    def test_uneven_loads(self):
        asg = BucketAssignment(per_processor=[[], []], loads=[30, 10])
        assert asg.imbalance == pytest.approx(1.5)

    def test_zero_load_plan_reports_one(self):
        plan = plan_shards([], n_slaves=4, n_shards=2)
        assert plan.imbalance == 1.0


class TestBatchedFinds:
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=40
        ),
        queries=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_find_many_matches_scalar_find(self, edges, queries):
        uf = UnionFind(20)
        for a, b in edges:
            uf.union(a, b)
        flat = [x for q in queries for x in q]
        roots = uf.find_many(flat)
        assert roots.tolist() == [uf.find(x) for x in flat]

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=30
        ),
        queries=st.lists(
            st.tuples(st.integers(0, 7), st.integers(8, 15)), max_size=20
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_cluster_batch_matches_scalar(self, edges, queries):
        manager = ClusterManager(16)
        for a, b in edges:
            manager.seed_union(a, b)
        pairs = [_pair(a, b) for a, b in queries]
        assert manager.same_cluster_batch(pairs) == [
            manager.same_cluster(a, b) for a, b in queries
        ]


def _pair(a: int, b: int) -> Pair:
    return Pair(length=8, string_a=2 * a, offset_a=0, string_b=2 * b, offset_b=0)


_RESULT = AlignmentResult(80.0, 0, 8, 0, 8, OverlapPattern.A_CONTAINS_B, 0)


def _sharded(n_shards: int, n_ests: int = 24) -> ShardedMaster:
    plan = plan_shards(_ranges([4] * max(n_shards, 2)), n_shards, n_shards)
    return ShardedMaster(
        plan, n_ests=n_ests, batchsize=32, workbuf_capacity=1024
    )


class TestCrossShardMerge:
    N_ESTS = 24

    def _reference(self, edges) -> list[list[int]]:
        uf = UnionFind(self.N_ESTS)
        for a, b in edges:
            uf.union(a, b)
        return uf.components()

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 11), st.integers(12, 23)),
            max_size=40,
        ),
        owners=st.lists(st.integers(0, 2), min_size=40, max_size=40),
        sync_points=st.sets(st.integers(0, 40), max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_partition_independent_of_sync_interleaving(
        self, edges, owners, sync_points
    ):
        """Any assignment of accepted edges to shards and any schedule of
        sync rounds between them yields the single-master partition."""
        master = _sharded(3, self.N_ESTS)
        for i, (a, b) in enumerate(edges):
            if i in sync_points:
                master.sync()
            shard = master.shards[owners[i]]
            shard.logic.manager.merge(_pair(a, b), _RESULT)
        assert master.combined().clusters() == self._reference(edges)

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 11), st.integers(12, 23)),
            min_size=1,
            max_size=30,
        ),
        owners=st.lists(st.integers(0, 2), min_size=30, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_sync_is_idempotent_and_quiesces(self, edges, owners):
        """A second sync with no new merges exchanges nothing: absorbed
        edges are never re-exported (no gossip echo)."""
        master = _sharded(3, self.N_ESTS)
        for i, (a, b) in enumerate(edges):
            master.shards[owners[i]].logic.manager.merge(_pair(a, b), _RESULT)
        master.sync()
        before = master.combined().clusters()
        second = master.sync()
        assert all(applied == 0 for applied, _ in second)
        assert master.combined().clusters() == before
        assert master.sync_rounds == 2

    def test_single_shard_sync_is_identity(self):
        master = _sharded(1, self.N_ESTS)
        master.shards[0].logic.manager.merge(_pair(0, 12), _RESULT)
        assert master.sync() == [(0, 0)]
        assert master.sync_rounds == 0
        assert master.combined() is master.shards[0].logic.manager


@pytest.fixture(scope="module")
def sequential_clusters(small_benchmark, small_config):
    return PaceClusterer(small_config).cluster(small_benchmark.collection).clusters


@pytest.fixture(scope="module")
def deep_collection():
    """Four deeply covered genes: WORKBUF holds pairs long enough for
    cross-shard merges to prune some."""
    params = BenchmarkParams.small(n_genes=4, mean_ests_per_gene=30)
    return make_benchmark(params, rng=3).collection


class TestEngineIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sim_matches_sequential(
        self, small_benchmark, small_config, sequential_clusters, n_shards
    ):
        rep = simulate_clustering(
            small_benchmark.collection,
            replace(small_config, shard_sync_interval=1e-4, master_shards=n_shards),
            n_processors=9,
        )
        assert rep.result.clusters == sequential_clusters
        assert rep.n_shards == n_shards
        if n_shards > 1:
            assert len(rep.shard_busy_times) == n_shards
            assert rep.sync_rounds >= 1

    def test_sim_shard_count_does_not_change_partition_under_faults(
        self, small_benchmark, small_config, sequential_clusters
    ):
        plan = FaultPlan.of(
            FaultSpec(slave_id=1, kind="kill", at_message=1, incarnation=None),
            FaultSpec(slave_id=3, kind="kill_after_send", at_message=0, incarnation=None),
        )
        rep = simulate_clustering(
            small_benchmark.collection,
            replace(small_config, master_shards=2),
            n_processors=5,
            faults=plan,
            tolerance=FaultTolerance(detection_delay=0.001),
        )
        assert rep.result.clusters == sequential_clusters
        assert rep.result.faults.slaves_lost == 2

    def test_sim_whole_shard_crash_degrades_locally(
        self, small_benchmark, small_config, sequential_clusters
    ):
        """Every slave of shard 1 dies; that shard finishes its own
        buckets in degraded mode while shard 0's slaves keep working."""
        plan = FaultPlan.of(
            FaultSpec(slave_id=2, kind="kill", at_message=0, incarnation=None),
            FaultSpec(slave_id=3, kind="kill", at_message=0, incarnation=None),
        )
        rep = simulate_clustering(
            small_benchmark.collection,
            replace(small_config, master_shards=2),
            n_processors=5,
            faults=plan,
            tolerance=FaultTolerance(detection_delay=0.001),
        )
        assert rep.result.clusters == sequential_clusters
        assert rep.result.faults.slaves_lost == 2

    def test_sim_deterministic_across_repeats(self, small_benchmark, small_config):
        runs = [
            simulate_clustering(
                small_benchmark.collection,
                replace(small_config, master_shards=3),
                n_processors=9,
            )
            for _ in range(2)
        ]
        assert runs[0].result.clusters == runs[1].result.clusters
        assert runs[0].total_time == runs[1].total_time
        assert runs[0].sync_rounds == runs[1].sync_rounds
        assert runs[0].unions_exchanged == runs[1].unions_exchanged

    def test_mp_matches_sequential(
        self, small_benchmark, small_config, sequential_clusters
    ):
        res = cluster_multiprocessing(
            small_benchmark.collection,
            replace(small_config, master_shards=2, shard_sync_interval=0.05),
            n_processors=5,
        )
        assert res.clusters == sequential_clusters

    def test_mp_matches_sequential_under_faults(
        self, small_benchmark, small_config, sequential_clusters
    ):
        plan = FaultPlan.of(
            FaultSpec(
                slave_id=1, kind="kill_after_send", at_message=1, incarnation=None
            )
        )
        res = cluster_multiprocessing(
            small_benchmark.collection,
            replace(small_config, master_shards=2, shard_sync_interval=0.05),
            n_processors=5,
            faults=plan,
            tolerance=FaultTolerance(
                slave_timeout=15.0, poll_interval=0.05, max_restarts=0
            ),
        )
        assert res.clusters == sequential_clusters
        assert res.faults.slaves_lost >= 1

    def test_sim_counters_conserve_pairs(self, deep_collection, small_config):
        """generated == skipped + processed with shards: a pair pruned
        from WORKBUF (sync or dispatch) was admitted, so it must count as
        skipped although admission let it in."""
        rep = simulate_clustering(
            deep_collection,
            replace(small_config, shard_sync_interval=1e-4, master_shards=4),
            n_processors=9,
        )
        c = rep.result.counters
        assert rep.pairs_pruned > 0, "no sync prune: the test exercises nothing"
        assert c.pairs_generated == c.pairs_skipped + c.pairs_processed

    def test_mp_counters_conserve_pairs(self, deep_collection, small_config):
        res = cluster_multiprocessing(
            deep_collection,
            replace(small_config, master_shards=2, shard_sync_interval=0.01),
            n_processors=5,
        )
        c = res.counters
        assert c.pairs_generated == c.pairs_skipped + c.pairs_processed
