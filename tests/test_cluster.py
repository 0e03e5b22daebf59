"""Tests for union-find, the cluster manager and the greedy loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import AcceptanceCriteria, PairAligner
from repro.cluster import ClusterManager, UnionFind, WorkCounters, greedy_cluster
from repro.pairs import Pair, SaPairGenerator
from repro.sequence import EstCollection
from repro.suffix import SuffixArrayGst


class TestUnionFind:
    def test_initial_singletons(self):
        uf = UnionFind(4)
        assert uf.n_components == 4
        assert uf.components() == [[0], [1], [2], [3]]

    def test_union_and_same(self):
        uf = UnionFind(5)
        assert uf.union(0, 1)
        assert not uf.union(1, 0)  # already merged
        assert uf.same(0, 1) and not uf.same(0, 2)
        assert uf.n_components == 4

    def test_components_sorted_by_smallest_member(self):
        uf = UnionFind(6)
        uf.union(5, 3)
        uf.union(4, 0)
        assert uf.components() == [[0, 4], [1], [2], [3, 5]]

    def test_counters(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        uf.same(0, 2)
        assert uf.unions == 1
        assert uf.finds >= 2

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            UnionFind(0)

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_connectivity(self, edges):
        """Union-find partition == connected components of the edge graph."""
        uf = UnionFind(20)
        naive = {i: {i} for i in range(20)}
        for a, b in edges:
            uf.union(a, b)
            if naive[a] is not naive[b]:
                merged = naive[a] | naive[b]
                for x in merged:
                    naive[x] = merged
        expect = sorted({frozenset(s) for s in naive.values()}, key=min)
        assert uf.components() == [sorted(s) for s in expect]

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_component_count_invariant(self, edges):
        uf = UnionFind(31)
        merges = sum(1 for a, b in edges if uf.union(a, b))
        assert uf.n_components == 31 - merges

    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.one_of(
                        st.tuples(st.just("union"), st.integers(0, n - 1), st.integers(0, n - 1)),
                        st.tuples(st.just("find"), st.integers(0, n - 1)),
                        st.tuples(
                            st.just("find_many"),
                            st.lists(st.integers(0, n - 1), max_size=12),
                        ),
                    ),
                    max_size=80,
                ),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_interleaved_operations_match_a_naive_partition(self, case):
        """Random interleaved ``union``/``find``/``find_many`` against a
        set-of-frozensets partition; ``components()`` against the list
        implementation the int32 array replaced."""
        n, ops = case
        uf = UnionFind(n)
        naive = {x: frozenset([x]) for x in range(n)}
        for op in ops:
            if op[0] == "union":
                _, a, b = op
                joined = naive[a] is not naive[b]
                assert uf.union(a, b) == joined
                if joined:
                    merged = naive[a] | naive[b]
                    for x in merged:
                        naive[x] = merged
            elif op[0] == "find":
                root = uf.find(op[1])
                assert root in naive[op[1]]
            else:
                roots = uf.find_many(np.asarray(op[1], dtype=np.int32))
                assert roots.dtype == np.int32
                for x, root in zip(op[1], roots.tolist()):
                    assert root in naive[x] and root == uf.find(x)
        assert uf.n_components == len(set(naive.values()))
        assert uf.components() == _list_components(n, ops)
        assert uf.labels().tolist() == [uf.find(x) for x in range(n)]

    def test_rejects_more_elements_than_int32_holds(self):
        with pytest.raises(ValueError, match="int32"):
            UnionFind(2**31)


def _list_components(n: int, ops) -> list[list[int]]:
    """The components the list-based union–find reported: its ``find``
    per element, grouped, each sorted, ordered by smallest member."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for op in ops:
        if op[0] == "union":
            ra, rb = find(op[1]), find(op[2])
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


class TestClusterManager:
    def _fake_merge(self, mgr, i, j):
        pair = Pair(10, 2 * i, 0, 2 * j, 0)
        from repro.align.scoring import AlignmentResult, OverlapPattern

        res = AlignmentResult(20.0, 0, 10, 0, 10, OverlapPattern.A_CONTAINS_B, 0)
        return mgr.merge(pair, res)

    def test_merge_records_witness(self):
        mgr = ClusterManager(4)
        assert self._fake_merge(mgr, 0, 1)
        assert len(mgr.merges) == 1
        assert mgr.merges[0].pair.est_a == 0
        assert mgr.n_clusters == 3

    def test_redundant_merge_not_recorded(self):
        mgr = ClusterManager(4)
        self._fake_merge(mgr, 0, 1)
        assert not self._fake_merge(mgr, 1, 0)
        assert len(mgr.merges) == 1

    def test_seed_union_without_witness(self):
        mgr = ClusterManager(4)
        assert mgr.seed_union(2, 3)
        assert mgr.same_cluster(2, 3)
        assert mgr.merges == []

    def test_labels_consistent_with_clusters(self):
        mgr = ClusterManager(5)
        mgr.seed_union(0, 4)
        labels = mgr.labels()
        assert labels[0] == labels[4]
        assert len(set(labels)) == mgr.n_clusters


class TestGreedyLoop:
    def _setup(self):
        col = EstCollection.from_strings(
            [
                "ACGTACGTACGTACGTTTTT",
                "ACGTACGTACGTACGTGGGG",  # overlaps 0 strongly
                "CCCCCCCCCCGGGGGGGGGG",  # unrelated
            ]
        )
        gen = SaPairGenerator(SuffixArrayGst.build(col), psi=10)
        aligner = PairAligner(col, criteria=AcceptanceCriteria(0.8, 12))
        return col, gen, aligner

    def test_end_to_end_counts(self):
        col, gen, aligner = self._setup()
        mgr = ClusterManager(col.n_ests)
        counters = greedy_cluster(gen.pairs(), aligner, mgr)
        assert counters.pairs_generated == counters.pairs_skipped + counters.pairs_processed
        assert counters.pairs_accepted <= counters.pairs_processed
        assert mgr.same_cluster(0, 1)
        assert not mgr.same_cluster(0, 2)

    def test_skip_disabled_aligns_everything(self):
        col, gen, aligner = self._setup()
        mgr = ClusterManager(col.n_ests)
        counters = greedy_cluster(gen.pairs(), aligner, mgr, skip_clustered=False)
        assert counters.pairs_skipped == 0
        assert counters.pairs_processed == counters.pairs_generated

    def test_max_alignments_budget(self):
        col, gen, aligner = self._setup()
        mgr = ClusterManager(col.n_ests)
        counters = greedy_cluster(gen.pairs(), aligner, mgr, max_alignments=1)
        assert counters.pairs_processed == 1

    def test_dp_cells_tracked(self):
        col, gen, aligner = self._setup()
        counters = greedy_cluster(gen.pairs(), aligner, ClusterManager(col.n_ests))
        assert counters.dp_cells == aligner.dp_cells_total > 0

    def test_counters_as_dict(self):
        c = WorkCounters(pairs_generated=5, pairs_processed=2)
        d = c.as_dict()
        assert d["pairs_generated"] == 5 and d["pairs_processed"] == 2
