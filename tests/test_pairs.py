"""Tests for the promising-pair layer: the canonical pair record, lsets,
the brute-force oracle, and the on-demand batching wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pairs import (
    Lsets,
    OnDemandPairGenerator,
    Pair,
    StringMarker,
    canonical_pair,
    maximal_common_substrings,
)
from repro.pairs.bruteforce import (
    bruteforce_promising_pairs,
    distinct_maximal_substrings,
)
from repro.pairs.lsets import allowed_chars
from repro.sequence import EstCollection, LAMBDA, encode


class TestPairRecord:
    def test_properties(self):
        p = Pair(10, 4, 3, 7, 0)
        assert p.est_a == 2 and p.est_b == 3
        assert p.complemented  # string 7 is odd
        assert p.key == (2, 3, True)

    def test_canonical_orders_by_est(self):
        p = canonical_pair(5, 6, 1, 0, 2)  # est 3 vs est 0 -> swap
        assert p == Pair(5, 0, 2, 6, 1)

    def test_canonical_discards_same_est(self):
        assert canonical_pair(5, 2, 0, 3, 1) is None  # est 1 with own rc

    def test_canonical_discards_complemented_smaller(self):
        # String 1 (est 0, complemented) with string 4 (est 2): the
        # smaller-est member is complemented -> mirror generated elsewhere.
        assert canonical_pair(5, 1, 0, 4, 1) is None

    def test_canonical_keeps_forward_smaller(self):
        p = canonical_pair(5, 0, 7, 5, 2)
        assert p == Pair(5, 0, 7, 5, 2)
        assert p.complemented

    def test_exactly_one_of_mirror_pair_survives(self):
        # (s, s') and (s^1, s'^1) — exactly one canonicalises.
        for a, b in [(0, 5), (2, 7), (0, 4), (2, 6)]:
            direct = canonical_pair(9, a, 0, b, 0)
            mirror = canonical_pair(9, a ^ 1, 0, b ^ 1, 0)
            assert (direct is None) != (mirror is None)


class TestLsets:
    def test_add_and_iterate_in_class_order(self):
        ls = Lsets()
        ls.add(2, 10, 5)
        ls.add(0, 11, 6)
        ls.add(LAMBDA, 12, 0)
        assert list(ls) == [(0, 11, 6), (2, 10, 5), (LAMBDA, 12, 0)]
        assert ls.total() == 3
        assert ls.strings() == {10, 11, 12}

    def test_merge_concatenates_per_class(self):
        a, b = Lsets(), Lsets()
        a.add(1, 1, 0)
        b.add(1, 2, 0)
        b.add(3, 3, 0)
        a.merge(b)
        assert a.classes[1] == [(1, 0), (2, 0)]
        assert a.classes[3] == [(3, 0)]

    def test_marker_semantics(self):
        m = StringMarker(4)
        assert m.fresh(2, node=7)
        assert not m.fresh(2, node=7)
        assert m.fresh(2, node=8)  # new node resets implicitly
        assert m.fresh(3, node=8)

    def test_allowed_chars_rule(self):
        assert allowed_chars(0, 1)
        assert not allowed_chars(2, 2)
        assert allowed_chars(LAMBDA, LAMBDA)
        assert allowed_chars(LAMBDA, 0)


class TestBruteForce:
    def test_known_maximal_substrings(self):
        x, y = encode("AACGTT"), encode("CACGTG")
        hits = maximal_common_substrings(x, y, 3)
        assert (1, 1, 4) in hits  # ACGT at x[1:5], y[1:5]

    def test_maximality_left(self):
        # "XACG" vs "XACG": the full string is maximal; "ACG" at offset 1
        # is left-extensible by the same char, hence not reported.
        x = encode("TACG")
        hits = maximal_common_substrings(x, x, 3)
        assert (0, 0, 4) in hits
        assert (1, 1, 3) not in hits

    def test_maximality_right(self):
        x, y = encode("ACGA"), encode("ACGC")
        hits = maximal_common_substrings(x, y, 3)
        assert hits == [(0, 0, 3)]

    def test_empty_inputs(self):
        assert maximal_common_substrings(encode("ACG"), np.array([], dtype=np.uint8), 2) == []

    def test_min_len_validation(self):
        with pytest.raises(ValueError):
            maximal_common_substrings(encode("A"), encode("A"), 0)

    @given(
        st.text(alphabet="ACGT", min_size=3, max_size=25),
        st.text(alphabet="ACGT", min_size=3, max_size=25),
        st.integers(2, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_reported_hits_are_genuinely_maximal(self, sx, sy, k):
        x, y = encode(sx), encode(sy)
        for i, j, l in maximal_common_substrings(x, y, k):
            assert l >= k
            assert sx[i : i + l] == sy[j : j + l]
            if i > 0 and j > 0:
                assert sx[i - 1] != sy[j - 1]
            if i + l < len(sx) and j + l < len(sy):
                assert sx[i + l] != sy[j + l]

    def test_distinct_counts_strings_not_positions(self):
        # "ACAC" vs "ACAC": maximal occurrences of "AC.." several, but the
        # distinct maximal substring set collapses by content.
        x = encode("ACAC")
        d = distinct_maximal_substrings(x, x, 2)
        assert encode("ACAC").tobytes() in d

    def test_promising_pairs_orientation(self):
        # y is the reverse complement of x: only the complemented
        # orientation pair should appear.
        col = EstCollection.from_strings(["ACGTACGTAA", "TTACGTACGT"])
        truth = bruteforce_promising_pairs(col, 10)
        assert (0, 1, True) in truth
        assert (0, 1, False) not in truth


def _ps(lo: int, hi: int) -> list[Pair]:
    """Distinct pairs ``lo .. hi-1`` (the serial rides in an offset)."""
    return [Pair(10, 0, i, 2, 0) for i in range(lo, hi)]


def _stream(n: int):
    return iter(_ps(0, n))


class TestOnDemand:
    def test_batches_and_exhaustion(self):
        gen = OnDemandPairGenerator(_stream(7))
        assert list(gen.next_batch(3)) == _ps(0, 3)
        assert not gen.exhausted
        assert list(gen.next_batch(3)) == _ps(3, 6)
        assert list(gen.next_batch(3)) == _ps(6, 7)
        assert gen.exhausted
        assert list(gen.next_batch(3)) == []
        assert gen.produced == 7

    def test_zero_batch(self):
        gen = OnDemandPairGenerator(_stream(1))
        assert list(gen.next_batch(0)) == []
        assert not gen.exhausted

    def test_negative_batch_rejected(self):
        with pytest.raises(ValueError):
            OnDemandPairGenerator(iter([])).next_batch(-1)

    def test_iter_drains_remainder(self):
        gen = OnDemandPairGenerator(_stream(5))
        gen.next_batch(2)
        assert list(gen) == _ps(2, 5)
        assert gen.exhausted and gen.produced == 5

    def test_state_is_remembered_between_batches(self):
        # The on-demand contract of §2: no pair is recomputed or lost.
        gen = OnDemandPairGenerator(_stream(100))
        seen = []
        for size in (1, 2, 3, 50, 44, 10):
            seen.extend(gen.next_batch(size))
        assert seen == _ps(0, 100)

    def test_exhausted_flips_with_the_draining_full_batch(self):
        # A stream of exactly k·m pairs must report exhaustion on the batch
        # that drains it, not on a later empty one — slaves turn passive
        # with that batch (§3.3) instead of paying an extra round trip.
        gen = OnDemandPairGenerator(_stream(6))
        assert list(gen.next_batch(3)) == _ps(0, 3)
        assert not gen.exhausted
        assert list(gen.next_batch(3)) == _ps(3, 6)
        assert gen.exhausted
        assert list(gen.next_batch(3)) == []
        assert gen.produced == 6

    def test_lookahead_pair_is_not_lost(self):
        # The peeked pair must come back at the head of the next batch or
        # via iteration.
        gen = OnDemandPairGenerator(_stream(5))
        assert list(gen.next_batch(2)) == _ps(0, 2)
        assert list(gen.next_batch(2)) == _ps(2, 4)
        assert list(gen) == _ps(4, 5)
        assert gen.exhausted and gen.produced == 5

    @pytest.mark.parametrize("block_size", [1, 2, 3, 7])
    def test_block_stream_batches_like_the_pair_stream(self, block_size):
        # Over blocks the same contract holds, whatever the block cut:
        # exhausted flips on the draining batch, a full final batch
        # included, and nothing is lost across block boundaries.
        from repro.pairs.pair import PairBlock

        pairs = _ps(0, 12)
        blocks = (
            PairBlock.from_pairs(pairs[i : i + block_size])
            for i in range(0, len(pairs), block_size)
        )
        gen = OnDemandPairGenerator(blocks)
        seen = []
        while not gen.exhausted:
            batch = gen.next_batch(4)
            assert len(batch) == 4  # 12 = 3 full batches, the last drains it
            seen.extend(batch)
        assert seen == pairs and gen.produced == 12
        assert len(gen.next_batch(4)) == 0

    def test_partial_final_batch_reaches_the_histogram(self):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        gen = OnDemandPairGenerator(_stream(7), telemetry=tel)
        while not gen.exhausted:
            gen.next_batch(3)
        hist = tel.registry.snapshot()["histograms"]["pairs.batch_size"]
        assert hist["count"] == 3  # batches of 3, 3 and the partial 1
        assert hist["sum"] == 7.0
        assert tel.registry.get("pairs.produced") == 7

    def test_drain_batches_telemetry_updates(self):
        # The __iter__ drain path flushes the registry once per
        # DRAIN_FLUSH-pair chunk (plus the tail), not once per pair.
        from repro.pairs.ondemand import DRAIN_FLUSH
        from repro.telemetry import Telemetry

        n = 2 * DRAIN_FLUSH + 13
        tel = Telemetry()
        gen = OnDemandPairGenerator(_stream(n), telemetry=tel)
        assert list(gen) == _ps(0, n)
        assert tel.registry.get("pairs.produced") == n
        hist = tel.registry.snapshot()["histograms"]["pairs.batch_size"]
        assert hist["count"] == 3  # two full chunks + the tail of 13
        assert hist["sum"] == n

    def test_drain_flushes_tail_on_abandonment(self):
        # Breaking out of the drain mid-chunk must still account the
        # pairs already handed out (generator close runs the finally).
        from repro.telemetry import Telemetry

        tel = Telemetry()
        gen = OnDemandPairGenerator(_stream(50), telemetry=tel)
        for i, _item in enumerate(gen):
            if i == 9:
                break
        del gen  # closes the suspended drain generator
        assert tel.registry.get("pairs.produced") == 10

    def test_drain_counts_match_batch_path(self):
        # Whichever way a stream is consumed, pairs.produced agrees.
        from repro.telemetry import Telemetry

        tel_a, tel_b = Telemetry(), Telemetry()
        a = OnDemandPairGenerator(_stream(301), telemetry=tel_a)
        while not a.exhausted:
            a.next_batch(40)
        b = OnDemandPairGenerator(_stream(301), telemetry=tel_b)
        list(b)
        assert (
            tel_a.registry.get("pairs.produced")
            == tel_b.registry.get("pairs.produced")
            == 301
        )
