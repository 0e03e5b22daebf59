"""Tests for the LCP-interval forest (suffix-tree node recovery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence import EstCollection
from repro.suffix import build_flat_forest, build_lcp_forest, build_suffix_array
from repro.suffix.lcp import lcp_kasai

dna_lists = st.lists(st.text(alphabet="ACGT", min_size=1, max_size=25), min_size=1, max_size=4)


def _forest_for(seqs, min_depth=1):
    text, _ = EstCollection.from_strings(seqs).sa_text()
    sa = build_suffix_array(text)
    return build_lcp_forest(lcp_kasai(text, sa.sa), min_depth=min_depth), sa


class TestForestStructure:
    @given(dna_lists, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_validate_invariants(self, seqs, min_depth):
        forest, _sa = _forest_for(seqs, min_depth)
        forest.validate()

    @given(dna_lists)
    @settings(max_examples=40, deadline=None)
    def test_all_depths_at_least_threshold(self, seqs):
        forest, _ = _forest_for(seqs, min_depth=3)
        assert (forest.depth >= 3).all() or forest.n_nodes == 0

    def test_known_tree_shape(self):
        # "AA" + "AA": S = {AA, TT, AA, TT} (reverse complements included).
        # Each letter side contributes a depth-1 interval with a depth-2
        # interval (the identical 2-char suffixes) nested inside.
        forest, _ = _forest_for(["AA", "AA"], min_depth=1)
        assert sorted(forest.depth.tolist()) == [1, 1, 2, 2]
        forest.validate()
        for nid in range(forest.n_nodes):
            if forest.depth[nid] == 2:
                parent = int(forest.parent[nid])
                assert forest.depth[parent] == 1
                assert forest.parent[parent] == -1

    @given(dna_lists)
    @settings(max_examples=40, deadline=None)
    def test_every_interval_shares_prefix_of_its_depth(self, seqs):
        text, _ = EstCollection.from_strings(seqs).sa_text()
        sa = build_suffix_array(text)
        forest = build_lcp_forest(lcp_kasai(text, sa.sa), min_depth=1)
        text_list = text.tolist()
        for nid in range(forest.n_nodes):
            d = int(forest.depth[nid])
            ps = [int(sa.sa[r]) for r in range(forest.lb[nid], forest.rb[nid] + 1)]
            first = text_list[ps[0] : ps[0] + d]
            assert len(first) == d
            for p in ps[1:]:
                assert text_list[p : p + d] == first

    @given(dna_lists)
    @settings(max_examples=40, deadline=None)
    def test_intervals_are_maximal(self, seqs):
        # Some adjacent pair inside the interval achieves exactly depth d,
        # and the neighbours outside share strictly less than d.
        text, _ = EstCollection.from_strings(seqs).sa_text()
        sa = build_suffix_array(text)
        lcp = lcp_kasai(text, sa.sa)
        forest = build_lcp_forest(lcp, min_depth=1)
        m = len(lcp)
        for nid in range(forest.n_nodes):
            d, lb, rb = (int(forest.depth[nid]), int(forest.lb[nid]), int(forest.rb[nid]))
            inner = [int(lcp[r]) for r in range(lb + 1, rb + 1)]
            assert inner and min(inner) == d
            if lb > 0:
                assert lcp[lb] < d
            if rb + 1 < m:
                assert lcp[rb + 1] < d

    def test_nodes_by_decreasing_depth_children_first(self):
        forest, _ = _forest_for(["ACGTACGTAC", "GTACGTACGG", "ACGTAC"], min_depth=1)
        order = forest.nodes_by_decreasing_depth()
        pos = {int(n): i for i, n in enumerate(order)}
        for nid in range(forest.n_nodes):
            p = int(forest.parent[nid])
            if p >= 0:
                assert pos[nid] < pos[p]

    def test_roots_have_no_parent(self):
        forest, _ = _forest_for(["ACGTACGT", "CGTACGTA"], min_depth=2)
        for r in forest.roots():
            assert forest.parent[r] == -1


class TestForestRanges:
    def test_range_restriction_matches_global_deep_nodes(self):
        seqs = ["ACGTACGTACGT", "CGTACGTACGAA", "TTACGTACGT"]
        text, _ = EstCollection.from_strings(seqs).sa_text()
        sa = build_suffix_array(text)
        lcp = lcp_kasai(text, sa.sa)
        glob = build_lcp_forest(lcp, min_depth=4)
        # Split the rank space at every lcp < 4 boundary: nodes with depth
        # >= 4 never span such boundaries, so per-range forests together
        # must equal the global deep forest.
        m = len(lcp)
        cuts = [0] + [r for r in range(1, m) if lcp[r] < 4] + [m]
        collected = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi > lo:
                f = build_lcp_forest(lcp, min_depth=4, ranges=[(lo, hi)])
                collected.extend(
                    (int(f.depth[i]), int(f.lb[i]), int(f.rb[i]))
                    for i in range(f.n_nodes)
                )
        expected = [
            (int(glob.depth[i]), int(glob.lb[i]), int(glob.rb[i]))
            for i in range(glob.n_nodes)
        ]
        assert sorted(collected) == sorted(expected)


class TestFlatBuilder:
    """`build_flat_forest` must reproduce the stack builder bit-for-bit:
    same node ids (emission order), parents, child and leaf ordering."""

    FIELDS = (
        "depth",
        "lb",
        "rb",
        "parent",
        "children_flat",
        "children_offsets",
        "leaves_flat",
        "leaves_offsets",
    )

    @classmethod
    def _assert_same(cls, stack_forest, flat_forest):
        assert stack_forest.min_depth == flat_forest.min_depth
        for name in cls.FIELDS:
            expected, got = getattr(stack_forest, name), getattr(flat_forest, name)
            assert expected.dtype == got.dtype == np.int32, name
            assert np.array_equal(expected, got), name

    @given(dna_lists, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_stack_builder(self, seqs, min_depth):
        text, _ = EstCollection.from_strings(seqs).sa_text()
        sa = build_suffix_array(text)
        lcp = lcp_kasai(text, sa.sa)
        stack_forest = build_lcp_forest(lcp, min_depth=min_depth)
        flat_forest = build_flat_forest(lcp, min_depth=min_depth)
        self._assert_same(stack_forest, flat_forest)
        flat_forest.validate()

    @given(dna_lists, st.sampled_from([1, 3, 6]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_stack_builder_on_ranges(self, seqs, min_depth, data):
        """One masked pass over an owner's ranges == the stack scans of
        the same ranges, all eight arrays (docs/ALGORITHMS.md §2.2)."""
        text, _ = EstCollection.from_strings(seqs).sa_text()
        sa = build_suffix_array(text)
        lcp = lcp_kasai(text, sa.sa)
        n = len(lcp)
        # A partition by arbitrary cuts (they fall inside nodes), plus an
        # empty range and a one-rank range, in an arbitrary order: ranges
        # are independent of each other and taken as given.
        cuts = sorted(data.draw(st.sets(st.integers(0, n), max_size=6)) | {0, n})
        ranges = list(zip(cuts, cuts[1:]))
        empty = data.draw(st.integers(0, n))
        single = data.draw(st.integers(0, n - 1))
        ranges += [(empty, empty), (single, single + 1)]
        ranges = data.draw(st.permutations(ranges))
        flat = build_flat_forest(lcp, min_depth=min_depth, ranges=ranges)
        flat.validate()
        self._assert_same(build_lcp_forest(lcp, min_depth=min_depth, ranges=ranges), flat)

    def test_indices_past_32_bit_products(self):
        """``PSV * (n + 1) + NSV`` leaves int32 from n = 46 341 on: the key
        is computed in 64 bits although every array it is read from is
        int32.  The other tier-1 corpora are too small to see a wrap."""
        rng = np.random.default_rng(0)
        n = 64_000
        lcp = rng.integers(0, 3, size=n)
        for at in rng.integers(0, n - 40, size=2_000).tolist():
            lcp[at : at + int(rng.integers(2, 40))] += 3  # runs >= min_depth
        lcp[0] = 0
        owner = [(30_000, n), (0, 12_000), (12_000, 30_000)]
        for ranges in (None, owner):
            flat = build_flat_forest(lcp, min_depth=3, ranges=ranges)
            assert flat.n_nodes > 5_000
            self._assert_same(build_lcp_forest(lcp, min_depth=3, ranges=ranges), flat)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_matches_stack_builder_on_every_subrange(self, seed):
        # min_depth 3 leaves runs of qualifying positions; trying every
        # [lo, hi) puts range edges inside those runs (the pointer chains
        # then start and stop at the -1 range sentinels, not at a shallow
        # value) and covers ranges with no qualifying position at all
        # (ranks 9..12 of the hand-written array).
        if seed is None:
            lcp = np.array([0, 5, 5, 6, 5, 1, 0, 7, 7, 2, 0, 1, 2, 9], dtype=np.int64)
        else:
            lcp = np.random.default_rng(seed).integers(0, 7, size=16)
            lcp[0] = 0
        for lo in range(len(lcp)):
            for hi in range(lo + 1, len(lcp) + 1):
                self._assert_same(
                    build_lcp_forest(lcp, min_depth=3, ranges=[(lo, hi)]),
                    build_flat_forest(lcp, min_depth=3, ranges=[(lo, hi)]),
                )

    def test_lcp_is_never_written(self):
        # An attached slave's LCP array is a read-only shared view.
        lcp = np.array([0, 5, 5, 6, 5, 1, 0, 7, 7, 2], dtype=np.int64)
        lcp.flags.writeable = False
        forest = build_flat_forest(lcp, min_depth=3, ranges=[(0, 3), (3, 10)])
        assert forest.n_nodes and forest.lb.flags.writeable

    @pytest.mark.parametrize("build", [build_lcp_forest, build_flat_forest])
    def test_bad_args_rejected(self, build):
        """Both builders share one argument contract: the same messages,
        and empty ranges skipped, not refused."""
        lcp = np.array([0, 2, 2, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="min_depth must be >= 1, got 0"):
            build(lcp, min_depth=0)
        with pytest.raises(ValueError, match=r"invalid range \[3, 2\) for lcp of length 4"):
            build(lcp, min_depth=1, ranges=[(3, 2)])
        with pytest.raises(ValueError, match=r"invalid range \[2, 9\) for lcp of length 4"):
            build(lcp, min_depth=1, ranges=[(0, 2), (2, 9)])
        with pytest.raises(ValueError, match=r"invalid range \[-1, 2\) for lcp of length 4"):
            build(lcp, min_depth=1, ranges=[(-1, 2)])
        whole = build(lcp, min_depth=1)
        assert whole.n_nodes == 2
        self._assert_same(whole, build(lcp, min_depth=1, ranges=[(1, 1), (0, 4), (4, 4)]))

    def test_owner_of_nothing_gets_an_empty_forest(self):
        # Slaves outnumbering buckets own no range: no forest, no error.
        lcp = np.array([0, 2, 2, 1], dtype=np.int64)
        for ranges in ([], [(2, 2)], [(0, 0), (4, 4)]):
            forest = build_flat_forest(lcp, min_depth=1, ranges=ranges)
            assert forest.n_nodes == 0
            assert forest.children_offsets.tolist() == [0]
            assert forest.leaves_offsets.tolist() == [0]
            forest.validate()
            self._assert_same(build_lcp_forest(lcp, min_depth=1, ranges=ranges), forest)


class TestVectorisedValidate:
    """validate() is now whole-array sweeps; the failure messages must
    still name the first offending node."""

    def test_detects_broken_parent_link(self):
        forest, _ = _forest_for(["ACGTACGT", "ACGTACG", "ACGTAC"], 2)
        assert forest.children_flat.size > 0
        child = int(forest.children_flat[0])
        forest.parent[child] = child  # corrupt
        with pytest.raises(AssertionError, match="parent link|not nested|not deeper"):
            forest.validate()

    def test_detects_partition_violation(self):
        forest, _ = _forest_for(["ACGTACGT", "ACGTACG"], 2)
        # Drop a leaf from the first node that has one: every later
        # offset moves down by one.
        v = int(np.flatnonzero(np.diff(forest.leaves_offsets))[0])
        forest.leaves_offsets[v + 1 :] -= 1
        with pytest.raises(AssertionError, match=f"node {v} does not partition"):
            forest.validate()

    def test_flat_forest_validate_detects_corruption(self):
        text, _ = EstCollection.from_strings(["ACGTACGT", "ACGTAC"]).sa_text()
        sa = build_suffix_array(text)
        forest = build_flat_forest(lcp_kasai(text, sa.sa), min_depth=2)
        if forest.children_flat.size:
            forest.depth[forest.children_flat[0]] = 0
            with pytest.raises(AssertionError):
                forest.validate()
