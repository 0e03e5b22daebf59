"""Tests for the GST facade layer (SuffixArrayGst / NaiveGst)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence import LAMBDA, EstCollection
from repro.suffix import NaiveGst, SuffixArrayGst
from repro.suffix.gst import MAX_POSITIONS, check_index_size

dna_lists = st.lists(st.text(alphabet="ACGT", min_size=1, max_size=25), min_size=1, max_size=4)


class TestSuffixArrayGst:
    @given(dna_lists)
    @settings(max_examples=40, deadline=None)
    def test_suffix_info_consistent(self, seqs):
        col = EstCollection.from_strings(seqs)
        gst = SuffixArrayGst.build(col)
        m = gst.n_suffix_positions
        for rank in range(0, m, max(1, m // 7)):
            s, off, left = gst.suffix_info(rank)
            assert 0 <= s < col.n_strings
            assert 0 <= off <= col.length(s)
            if off == 0:
                assert left == LAMBDA
            elif off < col.length(s):
                assert left == int(col.string(s)[off - 1])

    @given(dna_lists)
    @settings(max_examples=30, deadline=None)
    def test_suffix_lengths(self, seqs):
        col = EstCollection.from_strings(seqs)
        gst = SuffixArrayGst.build(col)
        for p in range(gst.text.size):
            s = int(gst.pos_string[p])
            off = int(gst.pos_offset[p])
            assert gst.suffix_len[p] == col.length(s) - off

    def test_every_suffix_has_a_rank(self):
        col = EstCollection.from_strings(["ACGT", "GT"])
        gst = SuffixArrayGst.build(col)
        seen = set()
        for rank in range(gst.n_suffix_positions):
            s, off, _c = gst.suffix_info(rank)
            if off < col.length(s):  # skip sentinel positions
                seen.add((s, off))
        expect = {
            (s, off)
            for s in range(col.n_strings)
            for off in range(col.length(s))
        }
        assert seen == expect

    def test_forest_respects_min_depth(self):
        col = EstCollection.from_strings(["ACGTACGTACGT", "ACGTACGTAC"])
        gst = SuffixArrayGst.build(col)
        deep = gst.forest(min_depth=6)
        shallow = gst.forest(min_depth=2)
        assert deep.n_nodes <= shallow.n_nodes
        assert (deep.depth >= 6).all()

    def test_rank_to_position_roundtrip(self):
        col = EstCollection.from_strings(["ACGT"])
        gst = SuffixArrayGst.build(col)
        ranks = np.arange(gst.n_suffix_positions)
        positions = gst.rank_to_position(ranks)
        assert sorted(positions.tolist()) == list(range(gst.n_suffix_positions))


    def test_arrays_are_as_narrow_as_their_values(self):
        gst = SuffixArrayGst.build(EstCollection.from_strings(["ACGTAC", "GT", "A"]))
        tables = (gst.sa_struct.sa, gst.lcp, gst.pos_string, gst.pos_offset, gst.suffix_len)
        assert {t.dtype for t in tables} == {np.dtype(np.int32)}
        assert gst.left_char.dtype == np.int8
        for p in range(gst.text.size):  # sentinel positions included
            s, off = int(gst.pos_string[p]), int(gst.pos_offset[p])
            assert gst.left_char[p] == gst.collection.left_extension(s, off)

    def test_corpus_past_the_32_bit_index_is_refused(self):
        """2N + 2n is checked from the collection's sizes alone — a stand-in
        carries them, nothing of 2 GB is built."""
        n_strings = 2 * 81_414  # the paper's full set: ~90 M positions, 24x under
        check_index_size(SimpleNamespace(total_chars=45_000_000, n_strings=n_strings))
        fits = (MAX_POSITIONS - n_strings) // 2
        check_index_size(SimpleNamespace(total_chars=fits, n_strings=n_strings))
        with pytest.raises(ValueError, match=r"2147483648 text positions .* 2147483647"):
            check_index_size(SimpleNamespace(total_chars=fits + 1, n_strings=n_strings))


class TestNaiveGst:
    def test_build_and_left_extension(self):
        col = EstCollection.from_strings(["ACGT", "CGTA"])
        gst = NaiveGst.build(col, w=2)
        assert gst.w == 2
        assert gst.tree.n_nodes > 0
        assert gst.left_extension(0, 0) == LAMBDA
        assert gst.left_extension(0, 2) == 1  # 'C'

    @given(dna_lists, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_leaf_payload_covers_all_long_suffixes(self, seqs, w):
        col = EstCollection.from_strings(seqs)
        gst = NaiveGst.build(col, w=w)
        got = []
        for u in range(gst.tree.n_nodes):
            if gst.tree.is_leaf(u):
                got.extend(gst.tree.leaf_suffixes(u))
        expect = [
            (k, off)
            for k in range(col.n_strings)
            for off in range(max(0, col.length(k) - w + 1))
        ]
        assert sorted(got) == sorted(expect)
