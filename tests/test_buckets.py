"""Tests for suffix bucketing (the w-window distribution units)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence import EstCollection, encode
from repro.suffix import (
    SuffixArrayGst,
    enumerate_bucket_suffixes,
    suffix_window_keys,
)
from repro.suffix.buckets import bucket_statistics

dna_lists = st.lists(st.text(alphabet="ACGT", min_size=1, max_size=30), min_size=1, max_size=4)


class TestWindowKeys:
    def test_known_keys(self):
        # "ACGT": windows of 2 -> AC=0*4+1, CG=1*4+2, GT=2*4+3
        assert suffix_window_keys(encode("ACGT"), 2).tolist() == [1, 6, 11]

    def test_short_string_yields_nothing(self):
        assert suffix_window_keys(encode("AC"), 3).size == 0

    def test_w1_is_identity(self):
        assert suffix_window_keys(encode("GATC"), 1).tolist() == [2, 0, 3, 1]

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            suffix_window_keys(encode("ACGT"), 0)

    @given(st.text(alphabet="ACGT", min_size=4, max_size=40), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_keys_decode_back_to_windows(self, s, w):
        keys = suffix_window_keys(encode(s), w)
        for off, key in enumerate(keys.tolist()):
            digits = []
            for _ in range(w):
                digits.append("ACGT"[key % 4])
                key //= 4
            assert "".join(reversed(digits)) == s[off : off + w]


class TestEnumerateBuckets:
    @given(dna_lists, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_partition_of_long_suffixes(self, seqs, w):
        col = EstCollection.from_strings(seqs)
        buckets = enumerate_bucket_suffixes(col, w)
        total = sum(len(v) for v in buckets.values())
        expect = sum(
            max(0, col.length(k) - w + 1) for k in range(col.n_strings)
        )
        assert total == expect
        # No suffix appears twice.
        seen = set()
        for entries in buckets.values():
            for e in entries:
                assert e not in seen
                seen.add(e)

    def test_bucket_members_share_prefix(self):
        col = EstCollection.from_strings(["ACGTAC", "GTACGT"])
        for key, entries in enumerate_bucket_suffixes(col, 3).items():
            prefixes = {
                tuple(col.string(k)[off : off + 3].tolist()) for k, off in entries
            }
            assert len(prefixes) == 1


def _ranges_by_rank_loop(gst, w):
    """Reference for ``sa_bucket_ranges``: one Python step per rank."""
    ranges = []
    for r in range(gst.n_suffix_positions):
        p = int(gst.sa[r])
        if int(gst.suffix_lengths(p)) < w:
            continue
        s, off = int(gst.pos_string[p]), int(gst.offsets(p))
        key = 0
        for c in gst.collection.string(s)[off : off + w].tolist():
            key = 4 * key + c
        if ranges and ranges[-1][0] == key and ranges[-1][2] == r:
            ranges[-1] = (key, ranges[-1][1], r + 1)
        else:
            ranges.append((key, r, r + 1))
    return ranges


class TestSaBucketRanges:
    @given(dna_lists, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_ranges_match_enumeration(self, seqs, w):
        col = EstCollection.from_strings(seqs)
        gst = SuffixArrayGst.build(col)
        ranges = gst.bucket_ranges(w)
        assert ranges == _ranges_by_rank_loop(gst, w)
        enum = enumerate_bucket_suffixes(col, w)
        # Same keys, same sizes.
        assert {key: hi - lo for key, lo, hi in ranges} == {
            key: len(v) for key, v in enum.items()
        }
        # Each range really contains the suffixes of that bucket.
        for key, lo, hi in ranges:
            got = set()
            for r in range(lo, hi):
                s, off, _c = gst.suffix_info(r)
                got.add((s, off))
            assert got == set(enum[key])

    @given(dna_lists)
    @settings(max_examples=30, deadline=None)
    def test_ranges_are_disjoint_and_ordered(self, seqs):
        gst = SuffixArrayGst.build(EstCollection.from_strings(seqs))
        ranges = gst.bucket_ranges(2)
        assert ranges == _ranges_by_rank_loop(gst, 2)
        for (k1, lo1, hi1), (k2, lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 <= lo2
            assert lo1 < hi1 and lo2 < hi2

    @given(dna_lists, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_window_fits_iff_suffix_is_long_enough(self, seqs, w):
        """``sa + w < end[sa]`` over a per-position end-of-string table —
        what the pass used to build, 8 B/suffix — is ``suffix_lengths(sa) >= w``,
        and is no terminator among the first ``w`` codes, what the pass reads."""
        gst = SuffixArrayGst.build(EstCollection.from_strings(seqs))
        sa = gst.sa
        end = np.repeat(gst.starts[1:], np.diff(gst.starts))
        fits = sa + w < end[sa]
        assert np.array_equal(fits, gst.suffix_lengths(sa) >= w)
        window = gst.text.take(sa[:, None] + np.arange(w), mode="clip")
        assert np.array_equal(fits, (window != 0).all(axis=1))

    @given(dna_lists, st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_windows_up_to_and_past_the_longest_suffix(self, seqs, extra):
        """Buckets come from LCP boundaries (an LCP below w starts one) and
        the head's length: at w = the longest string only whole strings
        qualify, one past it nothing does."""
        gst = SuffixArrayGst.build(EstCollection.from_strings(seqs))
        w = max(map(len, seqs)) + extra
        ranges = gst.bucket_ranges(w)
        assert ranges == _ranges_by_rank_loop(gst, w)
        # Each EST of length w and its reverse complement: one rank each.
        longest = sum(len(s) == w for s in seqs)
        assert sum(hi - lo for _k, lo, hi in ranges) == 2 * longest

    def test_no_window_fits(self):
        # The whole text is shorter than w (this used to size an array
        # with a negative length), or just no string is long enough.
        for seqs in (["A"], ["ACG", "TT"]):
            gst = SuffixArrayGst.build(EstCollection.from_strings(seqs))
            assert gst.bucket_ranges(8) == []


class TestBucketStats:
    def test_statistics(self):
        stats = bucket_statistics([4, 2, 6])
        assert stats.n_buckets == 3
        assert stats.total_suffixes == 12
        assert stats.max_bucket == 6
        assert stats.mean_bucket == 4.0
        assert stats.imbalance == pytest.approx(1.5)

    def test_empty(self):
        stats = bucket_statistics([])
        assert stats.n_buckets == 0 and stats.imbalance == 0.0
