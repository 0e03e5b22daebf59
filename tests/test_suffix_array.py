"""Tests for suffix-array construction and LCP computation, including the
hypothesis cross-checks against brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence import EstCollection
from repro.suffix import SuffixArrayGst, build_suffix_array
from repro.suffix.lcp import lcp_from_refinement, lcp_kasai, lcp_naive
from repro.suffix.suffix_array import pack_windows, refine_text, suffix_array_naive

dna_lists = st.lists(st.text(alphabet="ACGT", min_size=1, max_size=25), min_size=1, max_size=4)
#: Small alphabets, no sentinels: suffixes tie right up to the text end.
int_texts = st.integers(1, 4).flatmap(
    lambda sigma: st.lists(st.integers(0, sigma - 1), min_size=1, max_size=80)
)


def _text_of(seqs):
    return EstCollection.from_strings(seqs).sa_text()[0]


def _assert_index_matches_oracles(seqs):
    """Both seedings of the one refinement core — the EST seed of
    ``SuffixArrayGst.build`` and the generic seed of ``refine_text`` —
    against the naive suffix sort and Kasai."""
    col = EstCollection.from_strings(seqs)
    text = col.sa_text()[0]
    expect_sa = suffix_array_naive(text)
    expect_lcp = lcp_kasai(text, expect_sa)
    gst = SuffixArrayGst.build(col)
    assert np.array_equal(gst.sa_struct.sa, expect_sa)
    assert np.array_equal(gst.lcp, expect_lcp)
    state = refine_text(text)
    assert np.array_equal(state.sa, expect_sa)
    assert np.array_equal(lcp_from_refinement(state), expect_lcp)


class TestBuildSuffixArray:
    def test_known_small_case(self):
        # banana-like over our integer encoding: "ABAB" with sentinel text
        text = np.array([5, 4, 5, 4, 0], dtype=np.int64)
        sa = build_suffix_array(text)
        assert np.array_equal(sa.sa, suffix_array_naive(text))

    @given(dna_lists)
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_on_est_texts(self, seqs):
        text = _text_of(seqs)
        sa = build_suffix_array(text)
        assert np.array_equal(sa.sa, suffix_array_naive(text))

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_on_arbitrary_ints(self, vals):
        text = np.array(vals, dtype=np.int64)
        sa = build_suffix_array(text)
        assert np.array_equal(sa.sa, suffix_array_naive(text))

    def test_values_need_not_be_compact(self):
        text = np.array([10**9, 7, 10**9, 7, 10**9, 0, 7], dtype=np.int64)
        assert np.array_equal(build_suffix_array(text).sa, suffix_array_naive(text))

    @given(dna_lists)
    @settings(max_examples=30, deadline=None)
    def test_sa_is_permutation_and_rank_inverse(self, seqs):
        text = _text_of(seqs)
        state = refine_text(text)
        m = len(text)
        assert sorted(state.sa.tolist()) == list(range(m))
        assert np.array_equal(state.rank[state.sa], np.arange(m))

    def test_single_character(self):
        sa = build_suffix_array(np.array([7]))
        assert sa.sa.tolist() == [0]

    def test_repetitive_text_deep_doubling(self):
        text = np.array([1] * 64 + [0], dtype=np.int64)
        sa = build_suffix_array(text)
        # Suffixes sort by increasing length (sentinel smallest).
        assert sa.sa.tolist() == list(range(64, -1, -1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_suffix_array(np.array([], dtype=np.int64))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            build_suffix_array(np.array([-1, 0]))

    def test_levels_rank_prefixes(self):
        # Long repeats, so the refinement really runs several rounds.
        text = _text_of(["ACGT" * 40 + "AA", "CGTA" * 30])
        state = refine_text(text)
        assert len(state.levels) >= 2
        text_list = text.tolist()
        m = len(text_list)
        for s, rank_k in enumerate(state.levels):
            k = state.width << s
            # Equal rank at level k must mean equal length-k prefixes.
            by_rank = {}
            for p in range(m):
                by_rank.setdefault(int(rank_k[p]), []).append(p)
            for group in by_rank.values():
                first = text_list[group[0] : group[0] + k]
                for p in group[1:]:
                    assert text_list[p : p + k] == first

    @given(
        st.lists(st.integers(0, 7), min_size=1, max_size=30),
        st.integers(1, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_windows_any_width(self, codes, width):
        # Widths that are not powers of two take the final partial step;
        # widths beyond the text length must pad, not fail.
        packed = pack_windows(np.array(codes), 3, width)
        padded = codes + [0] * (width + 1)
        for p in range(len(codes) + 1):
            expect = 0
            for c in padded[p : p + width]:
                expect = (expect << 3) | c
            assert int(packed[p]) == expect


class TestLcp:
    @given(dna_lists)
    @settings(max_examples=60, deadline=None)
    def test_kasai_matches_naive(self, seqs):
        text = _text_of(seqs)
        sa = build_suffix_array(text)
        assert np.array_equal(lcp_kasai(text, sa.sa), lcp_naive(text, sa.sa))

    @given(dna_lists)
    @settings(max_examples=60, deadline=None)
    def test_rank_level_lcp_matches_kasai(self, seqs):
        text = _text_of(seqs)
        state = refine_text(text)
        assert np.array_equal(lcp_from_refinement(state), lcp_kasai(text, state.sa))

    def test_lcp_never_crosses_string_boundary(self):
        # Identical strings: LCP capped at string length by unique sentinels.
        gst = SuffixArrayGst.build(EstCollection.from_strings(["ACGTACGT", "ACGTACGT"]))
        assert int(gst.lcp.max()) == 8


class TestIndexAgainstOracles:
    """The production index (seed sort + active-set refinement + LCP from
    the sort's state) equals the naive suffix sort and Kasai."""

    @given(dna_lists)
    @settings(max_examples=60, deadline=None)
    def test_est_texts(self, seqs):
        _assert_index_matches_oracles(seqs)

    @given(int_texts)
    @settings(max_examples=100, deadline=None)
    def test_small_alphabet_ints_tie_at_the_text_end(self, vals):
        text = np.array(vals, dtype=np.int64)
        state = refine_text(text)
        assert np.array_equal(state.sa, suffix_array_naive(text))
        assert np.array_equal(lcp_from_refinement(state), lcp_kasai(text, state.sa))

    @pytest.mark.parametrize(
        "seqs",
        [
            ["A"],
            ["AA"],  # whole text shorter than the seed width
            ["ACGTTGCATGCA" * 4],  # one string
            ["ACGTACGTAC"] * 5,  # all strings identical
            ["A" * 600],  # homopolymer: the most refinement rounds
            ["GAATTC" * 12, "ACGT" * 20],  # reverse-complement palindromes
            ["AATT", "AATT", "T", "A"],
        ],
        ids=["one-base", "AA", "one-string", "identical", "homopolymer", "palindromes", "mixed"],
    )
    def test_degenerate_collections(self, seqs):
        _assert_index_matches_oracles(seqs)

    def test_seed_width_follows_the_id_bits(self):
        # 2**15 ESTs are 2**16 strings: a sentinel id takes 16 bits and 16
        # three-bit symbols no longer fit beside it in one sort key.  A few
        # long repeats keep suffixes tied past the (now 15-symbol) seed, so
        # the refinement rounds run at the derived width too.
        rng = np.random.default_rng(0)
        n = 2**15
        bases = rng.integers(0, 4, size=2 * n, dtype=np.uint8)
        lengths = rng.integers(1, 3, size=n)
        ends = np.cumsum(lengths)
        ests = [bases[e - k : e] for e, k in zip(ends.tolist(), lengths.tolist())]
        ests[:3] = [np.tile(np.array([0, 1, 2, 3], dtype=np.uint8), 25)] * 3
        gst = SuffixArrayGst.build(EstCollection(ests))
        text, sa, lcp = gst.text, gst.sa_struct.sa, gst.lcp
        assert sorted(sa.tolist()) == list(range(text.size))
        assert int(lcp.max()) == 100
        # Kasai gives the true LCP of adjacent entries whatever their
        # order; the symbol behind each common prefix must then ascend.
        assert np.array_equal(lcp, lcp_kasai(text, sa))
        assert (text[sa[:-1] + lcp[1:]] < text[sa[1:] + lcp[1:]]).all()
