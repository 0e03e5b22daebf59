"""Tests for Ukkonen's linear-time suffix tree — the sequential baseline
of §3.1, cross-validated against the other two GST engines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence import EstCollection
from repro.suffix import build_lcp_forest, build_suffix_array
from repro.suffix.lcp import lcp_kasai
from repro.suffix.ukkonen import build_ukkonen

dna_lists = st.lists(st.text(alphabet="ACGT", min_size=1, max_size=25), min_size=1, max_size=3)


def _text(seqs):
    return EstCollection.from_strings(seqs).sa_text()[0]


class TestUkkonenStructure:
    @given(dna_lists)
    @settings(max_examples=60, deadline=None)
    def test_every_suffix_is_a_leaf(self, seqs):
        text = _text(seqs)
        tree = build_ukkonen(text)
        assert tree.suffix_starts() == list(range(len(text)))

    @given(dna_lists)
    @settings(max_examples=60, deadline=None)
    def test_internal_nodes_equal_lcp_intervals(self, seqs):
        """The central cross-engine identity: Ukkonen internal nodes and
        enhanced-suffix-array LCP intervals are the same (depth, size)
        multiset."""
        text = _text(seqs)
        tree = build_ukkonen(text)
        sa = build_suffix_array(text)
        forest = build_lcp_forest(lcp_kasai(text, sa.sa), min_depth=1)
        expect = sorted(
            (int(forest.depth[i]), int(forest.rb[i] - forest.lb[i] + 1))
            for i in range(forest.n_nodes)
        )
        assert sorted(tree.internal_nodes()) == expect

    def test_repetitive_text(self):
        text = _text(["AAAAAAAA"])
        tree = build_ukkonen(text)
        assert tree.suffix_starts() == list(range(len(text)))
        depths = [d for d, _c in tree.internal_nodes()]
        assert max(depths) == 7  # A^7 shared by two suffixes (fw or rc)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_ukkonen(np.array([], dtype=np.int64))


class TestUkkonenQueries:
    @given(dna_lists, st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_contains_matches_naive_search(self, seqs, seed):
        text = _text(seqs)
        tree = build_ukkonen(text)
        rng = np.random.default_rng(seed)
        tl = text.tolist()
        for _ in range(4):
            # Half genuine substrings, half random patterns.
            if rng.random() < 0.5 and len(tl) > 2:
                a = int(rng.integers(0, len(tl) - 1))
                b = int(rng.integers(a + 1, len(tl) + 1))
                pat = tl[a:b]
            else:
                pat = list(rng.integers(0, int(max(tl)) + 1, size=int(rng.integers(1, 6))))
            naive = any(
                tl[s : s + len(pat)] == pat for s in range(len(tl) - len(pat) + 1)
            )
            assert tree.contains(np.array(pat)) == naive

    def test_contains_whole_string(self):
        seqs = ["ACGTACGTAC"]
        col = EstCollection.from_strings(seqs)
        text, _ = col.sa_text()
        tree = build_ukkonen(text)
        assert tree.contains(col.string(0).astype(np.int64) + col.n_strings)

    def test_does_not_contain_foreign(self):
        col = EstCollection.from_strings(["AAAA"])
        text, _ = col.sa_text()
        tree = build_ukkonen(text)
        # 'AC' never occurs (strings are A^4 and T^4, shifted by 2n=2).
        assert not tree.contains(np.array([2 + 0, 2 + 1]))
