"""Tests for the GST facade layer (SuffixArrayGst / NaiveGst)."""

from dataclasses import fields
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
            off = int(gst.offsets(p))
            assert gst.suffix_lengths(p) == col.length(s) - off

    @given(dna_lists)
    @settings(max_examples=40, deadline=None)
    def test_lookups_at_every_position(self, seqs):
        """The derived lookups, gathered over all positions at once, equal
        ``(string, offset)`` counted off the collection's own lengths:
        ``length(s) - off`` characters to the terminator and the
        collection's left-extension character, sentinels included."""
        col = EstCollection.from_strings(seqs)
        gst = SuffixArrayGst.build(col)
        expect = [(s, off) for s in range(col.n_strings) for off in range(col.length(s) + 1)]
        strings = np.array([s for s, _ in expect])
        offs = np.array([off for _, off in expect])
        p = np.arange(gst.text.size, dtype=np.int32)
        assert np.array_equal(gst.pos_string, strings)
        assert np.array_equal(gst.offsets(p), offs)
        assert np.array_equal(gst.offsets(p, gst.pos_string), offs)
        lengths = np.array([col.length(s) for s in range(col.n_strings)])
        assert np.array_equal(gst.suffix_lengths(p), lengths[strings] - offs)
        by_rank = (lengths[strings] - offs)[gst.sa]
        ranges = [(0, p.size), (1, p.size // 2), (p.size // 2, p.size // 2), (2, p.size)]
        assert gst.suffix_chars(ranges).tolist() == [by_rank[lo:hi].sum() for lo, hi in ranges]
        left = [col.left_extension(s, off) for s, off in expect]
        assert gst.left_chars(p).tolist() == left
        assert [gst.suffix_info(r) for r in range(p.size)] == [
            (int(s), int(o), c)
            for s, o, c in zip(strings[gst.sa], offs[gst.sa], np.array(left)[gst.sa])
        ]

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
        deep = gst.flat_forest(min_depth=6)
        shallow = gst.flat_forest(min_depth=2)
        assert deep.n_nodes <= shallow.n_nodes
        assert (deep.depth >= 6).all()

    def test_rank_to_position_roundtrip(self):
        col = EstCollection.from_strings(["ACGT"])
        gst = SuffixArrayGst.build(col)
        ranks = np.arange(gst.n_suffix_positions)
        positions = gst.rank_to_position(ranks)
        assert sorted(positions.tolist()) == list(range(gst.n_suffix_positions))


    def test_suffix_chars_across_rank_blocks(self):
        """Ranges that start, end or span the 2**16-rank blocks of the
        one pass the simulator's setup charge makes."""
        rng = np.random.default_rng(3)
        col = EstCollection([rng.integers(0, 4, 250, dtype=np.uint8) for _ in range(300)])
        gst = SuffixArrayGst.build(col)
        m = gst.n_suffix_positions
        assert m > 2 * 2**16
        by_rank = gst.suffix_lengths(gst.sa).astype(np.int64)
        ranges = [(0, m), (2**16 - 6, 2**16 + 9), (100, m - 100), (2**17 - 1, 2**17 + 1),
                  (m - 1, m), (5, 5), (2**16, 2**17)]
        assert gst.suffix_chars(ranges).tolist() == [by_rank[lo:hi].sum() for lo, hi in ranges]

    def test_arrays_are_as_narrow_as_their_values(self):
        gst = SuffixArrayGst.build(EstCollection.from_strings(["ACGTAC", "GT", "A"]))
        assert gst.text.dtype == np.uint8
        assert {t.dtype for t in (gst.sa, gst.pos_string)} == {np.dtype(np.int32)}
        assert gst.lcp.dtype == np.int16
        assert gst.offsets(gst.sa).dtype == np.int32
        assert gst.suffix_lengths(gst.sa).dtype == np.int32
        assert gst.left_chars(gst.sa).dtype == np.int8
        for p in range(gst.text.size):  # sentinel positions included
            s, off = int(gst.pos_string[p]), int(gst.offsets(p))
            assert gst.left_chars(p) == gst.collection.left_extension(s, off)

    def test_index_keeps_four_per_position_arrays(self):
        """``text`` (1 B), ``sa`` (4), ``lcp`` (2) and ``pos_string`` (4):
        11 B per position, plus ``starts`` per string."""
        col = EstCollection.from_strings(["ACGTACGTAC", "GTTAC", "AAC"])
        gst = SuffixArrayGst.build(col)
        m = gst.n_suffix_positions
        arrays = {
            f.name: getattr(gst, f.name)
            for f in fields(gst)
            if isinstance(getattr(gst, f.name), np.ndarray)
        }
        assert set(arrays) == {"text", "starts", "sa", "lcp", "pos_string"}
        assert arrays.pop("starts").size == col.n_strings + 1
        assert sum(a.nbytes for a in arrays.values()) == 11 * m

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
