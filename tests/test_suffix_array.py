"""Tests for suffix-array construction and LCP computation, including the
hypothesis cross-checks against brute-force references."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence import EstCollection
from repro.sequence.alphabet import SIGMA
from repro.suffix import SuffixArrayGst, build_flat_forest, build_suffix_array, sa_bucket_ranges
from repro.suffix.lcp import lcp_kasai, lcp_naive
from repro.suffix.suffix_array import (
    PackedText,
    pack_windows,
    refine,
    refine_groups,
    refine_text,
    suffix_array_naive,
)

dna_lists = st.lists(st.text(alphabet="ACGT", min_size=1, max_size=25), min_size=1, max_size=4)
#: Small alphabets, no sentinels: suffixes tie right up to the text end.
int_texts = st.integers(1, 4).flatmap(
    lambda sigma: st.lists(st.integers(0, sigma - 1), min_size=1, max_size=80)
)


def _text_of(seqs):
    return EstCollection.from_strings(seqs).sa_text()[0]


def _assert_index_matches_oracles(seqs):
    """Both inputs of the one sort — the EST codes of
    ``SuffixArrayGst.build`` and the integer text of ``refine_text`` —
    against the naive suffix sort and Kasai."""
    col = EstCollection.from_strings(seqs)
    text = col.sa_text()[0]
    expect_sa = suffix_array_naive(text)
    expect_lcp = lcp_kasai(text, expect_sa)
    gst = SuffixArrayGst.build(col)
    assert np.array_equal(gst.sa, expect_sa)
    assert np.array_equal(gst.lcp, expect_lcp)
    sa, lcp = refine_text(text)
    assert np.array_equal(sa, expect_sa)
    assert np.array_equal(lcp, expect_lcp)


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
        sa = refine_text(text)[0]
        m = len(text)
        assert sorted(sa.tolist()) == list(range(m))
        rank = np.empty(m, dtype=np.int64)
        rank[sa] = np.arange(m)
        assert np.array_equal(sa[rank], np.arange(m))

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

    @given(
        st.lists(st.integers(0, 7), min_size=1, max_size=30),
        st.integers(1, 21),
    )
    @settings(max_examples=60, deadline=None)
    def test_packed_text_reads_cut_windows(self, codes, width):
        # Windows of up to a word's 21 three-bit symbols, from any position
        # of any word: they span two words, pad past the end, and read 0
        # after their first terminator.
        got = PackedText(np.array(codes), 3).windows(np.arange(len(codes) + 1), width)
        padded = codes + [0] * (width + 1)
        for p in range(len(codes) + 1):
            window = padded[p : p + width]
            cut = window.index(0) if 0 in window else width
            expect = 0
            for c in window[:cut] + [0] * (width - cut):
                expect = (expect << 3) | c
            assert int(got[p]) == expect


class TestLcp:
    @given(dna_lists)
    @settings(max_examples=60, deadline=None)
    def test_kasai_matches_naive(self, seqs):
        text = _text_of(seqs)
        sa = build_suffix_array(text)
        assert np.array_equal(lcp_kasai(text, sa.sa), lcp_naive(text, sa.sa))

    @given(dna_lists)
    @settings(max_examples=60, deadline=None)
    def test_first_mismatch_lcp_matches_kasai(self, seqs):
        # The sort's LCP: each pair's first unequal symbol or terminator,
        # read in the pass that separates it.
        text = _text_of(seqs)
        sa, lcp = refine_text(text)
        assert np.array_equal(lcp, lcp_kasai(text, sa))

    @given(
        st.sampled_from([300, 70_000, 2**40]),
        st.lists(st.integers(0, 3), min_size=1, max_size=60),
        st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_alphabets_wider_than_a_byte(self, sigma, motif, seed):
        # Up to 34 distinct symbols compact to six-bit codes, nine to a
        # window here, so a repeated motif takes several rounds.
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, sigma, size=4, dtype=np.int64)
        text = np.concatenate((symbols[motif], rng.integers(0, sigma, 30), symbols[motif]))
        sa, lcp = refine_text(text)
        assert np.array_equal(sa, suffix_array_naive(text))
        assert np.array_equal(lcp, lcp_kasai(text, sa))

    def test_long_repeats_take_several_windows(self):
        # Pairs sharing thousands of symbols stay tied for hundreds of
        # rounds; the terminator of the shorter suffix ends each common
        # prefix.
        seqs = ["A" * 3000, "A" * 2999, "ACGT" * 400, "ACGT" * 399 + "ACG"]
        col = EstCollection.from_strings(seqs)
        gst = SuffixArrayGst.build(col)
        assert np.array_equal(gst.lcp, lcp_kasai(col.sa_text()[0], gst.sa))
        assert int(gst.lcp.max()) == 2999

    def test_lcp_never_crosses_string_boundary(self):
        # Identical strings: LCP capped at string length by unique sentinels.
        gst = SuffixArrayGst.build(EstCollection.from_strings(["ACGTACGT", "ACGTACGT"]))
        assert int(gst.lcp.max()) == 8


class TestIndexAgainstOracles:
    """The production index (seed sort + refinement rounds, each pass
    writing the LCP of the pairs it separates) equals the naive suffix
    sort and Kasai."""

    @given(dna_lists)
    @settings(max_examples=60, deadline=None)
    def test_est_texts(self, seqs):
        _assert_index_matches_oracles(seqs)

    @given(int_texts)
    @settings(max_examples=100, deadline=None)
    def test_small_alphabet_ints_tie_at_the_text_end(self, vals):
        text = np.array(vals, dtype=np.int64)
        sa, lcp = refine_text(text)
        assert np.array_equal(sa, suffix_array_naive(text))
        assert np.array_equal(lcp, lcp_kasai(text, sa))

    @given(
        st.lists(st.text(alphabet="ACGT", min_size=1, max_size=40), min_size=1, max_size=4),
        st.lists(st.integers(0, 7), min_size=1, max_size=8),
        st.lists(st.text(alphabet="ACGT", min_size=1, max_size=13), max_size=4),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_est_collections_with_duplicates_and_short_strings(
        self, pool, picks, short, add_rc
    ):
        # Equal strings — an EST drawn twice, or one EST equal to the
        # reverse complement the collection adds for another — tie through
        # their terminators, and strings shorter than the seed window reach
        # theirs inside it: the seed key tells such suffixes apart by
        # position.
        seqs = [pool[i % len(pool)] for i in picks] + short
        if add_rc:
            seqs.append(pool[0][::-1].translate(str.maketrans("ACGT", "TGCA")))
        col = EstCollection.from_strings(seqs)
        text = col.sa_text()[0]
        expect_sa = suffix_array_naive(text)
        expect_lcp = lcp_kasai(text, expect_sa)
        gst = SuffixArrayGst.build(col)
        assert np.array_equal(gst.sa, expect_sa)
        assert np.array_equal(gst.lcp, expect_lcp)
        codes, starts = col.sa_codes()
        sa, lcp = refine(codes, SIGMA.bit_length(), starts)
        assert np.array_equal(sa, expect_sa)
        assert np.array_equal(lcp, expect_lcp)

    @given(st.integers(1, 2), st.lists(st.integers(0, 1), min_size=1, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_one_and_two_symbol_texts_fill_the_key(self, sigma, vals):
        # One or two bits per symbol leave 56 or more window bits in the
        # key: the XOR of two keys can pass 2**53, where float64 rounds.
        text = np.array(vals, dtype=np.int64) % sigma
        sa, lcp = refine_text(text)
        expect_sa = suffix_array_naive(text)
        assert np.array_equal(sa, expect_sa)
        assert np.array_equal(lcp, lcp_kasai(text, expect_sa))

    def test_complementary_windows_round_in_float64(self):
        # "a b^30 ..." and "b a^40" sort next to each other and their two-bit
        # windows (a = 01, b = 10) differ in every bit: the XOR of their
        # windows with a low guard bit is 2**57 - 1, which float64 rounds
        # to 2**57.
        text = np.array([1] + [0] * 30 + [1] * 30 + [0] * 40)
        assert PackedText(text, 2).width == 28
        sa, lcp = refine_text(text)
        expect_sa = suffix_array_naive(text)
        assert np.array_equal(sa, expect_sa)
        assert np.array_equal(lcp, lcp_kasai(text, expect_sa))

    def test_symbols_and_positions_must_share_a_key(self):
        # 62-bit symbols leave one bit for positions: two positions fit,
        # three do not.
        refine(np.array([1, 2], dtype=np.int64), 62, np.array([0, 3]))
        with pytest.raises(ValueError, match="62-bit symbols and 2-bit positions"):
            refine(np.array([1, 2, 3], dtype=np.int64), 62, np.array([0, 4]))

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
        col = EstCollection(ests)
        gst = SuffixArrayGst.build(col)
        text, sa, lcp = col.sa_text()[0], gst.sa, gst.lcp
        assert sorted(sa.tolist()) == list(range(text.size))
        assert int(lcp.max()) == 100
        # Kasai gives the true LCP of adjacent entries whatever their
        # order; the symbol behind each common prefix must then ascend.
        assert np.array_equal(lcp, lcp_kasai(text, sa))
        assert (text[sa[:-1] + lcp[1:]] < text[sa[1:] + lcp[1:]]).all()


class TestRounds:
    """A round reads only the packed codes and its own members: it keys
    each by its group and next window, cut after the first terminator,
    and sorts them stably."""

    @given(
        st.lists(st.text(alphabet="ACGT", min_size=1, max_size=60), min_size=1, max_size=5),
        st.lists(st.integers(0, 4), max_size=4),
        st.sampled_from([1, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_bucket_sorts_alone(self, pool, copies, w):
        # Every w-prefix bucket, its members in position order as one group
        # at depth 0, sorted by the rounds from the codes alone, is the
        # global array's slice: no round reads another bucket.
        seqs = pool + [pool[i % len(pool)] for i in copies]
        col = EstCollection.from_strings(seqs)
        gst = SuffixArrayGst.build(col)
        text = PackedText(gst.text, SIGMA.bit_length())
        for _key, lo, hi in gst.bucket_ranges(w):
            sa = np.sort(gst.sa[lo:hi])
            lcp = np.zeros(hi - lo, dtype=gst.lcp.dtype)
            refine_groups(text, sa, lcp, np.arange(hi - lo, dtype=np.int32), 0)
            assert np.array_equal(sa, gst.sa[lo:hi])
            assert np.array_equal(lcp[1:], gst.lcp[lo + 1 : hi])

    def test_terminator_ties_a_round_resolves(self):
        # Forty copies of a 50-base EST (and of its reverse complement) agree
        # through the 16-symbol seed and two rounds, so their ends meet in
        # the third round.  Equal through their terminators, they must stay
        # in position order — which a stable sort keeps — and what follows
        # a terminator must not reorder them: the copies are followed by
        # ESTs that sort in descending order.
        est = "ACGTTGCAAGGCTTACCGATGCATGCAAGTCCGATTGACCATGGTACGAT"
        followers = ["T" * 30, "GT" * 15, "CA" * 15, "A" * 30]
        seqs = []
        for i in range(40):
            seqs += [est, followers[i % 4], est + "GATTACA"]
        col = EstCollection.from_strings(seqs)
        gst = SuffixArrayGst.build(col)
        text = col.sa_text()[0]
        assert PackedText(gst.text, SIGMA.bit_length()).width == 16
        expect_sa = suffix_array_naive(text)
        assert np.array_equal(gst.sa, expect_sa)
        assert np.array_equal(gst.lcp, lcp_kasai(text, expect_sa))


class TestLcpWidth:
    """``lcp`` is int16 while the longest string is under 2**15 symbols —
    no common prefix can then pass 32 767 — and int32 from there on.  The
    string lengths are the only input: nothing else picks the width."""

    @pytest.mark.parametrize("length, dtype", [(2**15 - 1, np.int16), (2**15, np.int32)])
    def test_width_on_either_side_of_the_boundary(self, length, dtype):
        read = np.random.default_rng(1).integers(0, 4, size=length, dtype=np.uint8)
        col = EstCollection([read, read.copy(), read[:40].copy()])
        gst = SuffixArrayGst.build(col)
        assert gst.lcp.dtype == dtype
        assert int(gst.lcp.max()) == length
        assert np.array_equal(gst.lcp, lcp_kasai(col.sa_text()[0], gst.sa))

    def test_consumers_read_both_widths_alike(self):
        seqs = ["ACGTACGTTGCA" * 5, "ACGTACGTTG", "TTGCAACGTACG" * 3, "GCAACG"]
        gst = SuffixArrayGst.build(EstCollection.from_strings(seqs))
        assert gst.lcp.dtype == np.int16
        wide = gst.lcp.astype(np.int32)
        third = len(wide) // 3
        for ranges in (None, [(0, third), (third, 2 * third), (2 * third, len(wide))]):
            narrow_f = build_flat_forest(gst.lcp, min_depth=4, ranges=ranges)
            wide_f = build_flat_forest(wide, min_depth=4, ranges=ranges)
            assert narrow_f.n_nodes > 0
            for f in fields(narrow_f):
                assert np.array_equal(getattr(narrow_f, f.name), getattr(wide_f, f.name))
        for w in (1, 4, 6, 8, 12):
            assert sa_bucket_ranges(gst.sa, gst.text, gst.lcp, w) == sa_bucket_ranges(
                gst.sa, gst.text, wide, w
            )
