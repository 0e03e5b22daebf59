"""Conflict-free waves: the selector and the sequential loop built on it.

The oracle is the one-at-a-time loop (:func:`greedy_cluster`): for any
pair stream, accept pattern and batch size the wave loop must reach the
same partition while aligning a subset of the pairs that loop aligns.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterManager, UnionFind, greedy_cluster
from repro.cluster.greedy import greedy_cluster_batched
from repro.cluster.waves import DEFER, STALE, TAKE, Speculation, next_wave
from repro.pairs import Pair

N_ESTS = 12


def _pair(a: int, b: int, serial: int = 0, accept: bool = True) -> Pair:
    """A pair of ESTs ``a < b``; the verdict the scripted aligner gives
    rides in the seed length, the stream position in an offset, so equal
    EST pairs at different positions stay distinct records."""
    return Pair(20 + accept, 2 * a, serial, 2 * b, 0)


class _ScriptedAligner:
    """Accepts a pair iff its seed length is odd; logs every call."""

    dp_cells_total = 0

    def __init__(self) -> None:
        self.calls: list[list[Pair]] = []

    def align_and_decide(self, pair):
        return self.align_and_decide_batch([pair])[0]

    def align_and_decide_batch(self, pairs):
        self.calls.append(list(pairs))
        return [(None, bool(pair.length & 1)) for pair in pairs]

    @property
    def aligned(self) -> list[Pair]:
        return [pair for call in self.calls for pair in call]


streams = st.lists(
    st.tuples(st.integers(0, N_ESTS - 1), st.integers(0, N_ESTS - 1), st.booleans()),
    max_size=80,
).map(
    lambda raw: [
        _pair(min(a, b), max(a, b), serial, accept)
        for serial, (a, b, accept) in enumerate(raw)
        if a != b
    ]
)


def _wave(speculation, pull, room):
    """Everything ``next_wave`` pulled and the verdicts it gave."""
    examined, verdicts = [], []
    for chunk, marks in next_wave(speculation, pull, room):
        examined += chunk
        verdicts += marks
    return examined, verdicts


def _chunks(pairs, size):
    """A ``pull`` handing ``pairs`` over ``size`` at a time."""
    it = iter(pairs)

    def pull():
        return [pair for _, pair in zip(range(size), it)]

    return pull


class TestNextWave:
    def test_speculation_defers_what_earlier_pairs_would_connect(self):
        mgr = ClusterManager(N_ESTS)
        mgr.seed_union(6, 7)
        stream = [
            _pair(0, 1), _pair(1, 2), _pair(0, 2),  # closes a triangle
            _pair(6, 7),  # already one cluster
            _pair(3, 4),
        ]
        examined, verdicts = _wave(Speculation(mgr), _chunks(stream, 2), 8)
        assert examined == stream
        assert verdicts == [TAKE, TAKE, DEFER, STALE, TAKE]

    def test_existing_clusters_count_as_connected(self):
        mgr = ClusterManager(N_ESTS)
        mgr.seed_union(0, 1)
        mgr.seed_union(2, 3)
        # 0-2 would join the clusters; 1-3 joins the same two.
        _, verdicts = _wave(
            Speculation(mgr), _chunks([_pair(0, 2), _pair(1, 3)], 4), 8
        )
        assert verdicts == [TAKE, DEFER]

    def test_full_wave_stops_pulling_and_looking(self):
        mgr = ClusterManager(N_ESTS)
        mgr.seed_union(8, 9)
        stream = [_pair(0, 1), _pair(2, 3), _pair(8, 9), _pair(4, 5), _pair(6, 7)]
        pulls = []
        source = _chunks(stream, 4)

        def pull():
            pulls.append(1)
            return source()

        examined, verdicts = _wave(Speculation(mgr), pull, 2)
        assert len(pulls) == 1 and examined == stream[:4]
        # Past the fill a stale pair is still dropped; the first live one
        # and whatever follows it go back unjudged.
        assert verdicts == [TAKE, TAKE, STALE]

    def test_undecided_pairs_elsewhere_defer_too(self):
        mgr = ClusterManager(N_ESTS)
        speculation = Speculation(mgr)
        speculation.restart([_pair(0, 1), _pair(1, 2)])  # in flight at a slave
        _, verdicts = _wave(speculation, _chunks([_pair(0, 2), _pair(3, 4)], 4), 8)
        assert verdicts == [DEFER, TAKE]

    def test_real_merges_carry_speculative_links_along(self):
        """A kept speculation is keyed by cluster roots; when a real merge
        retires a root, ``link`` hands its connections to the survivor."""
        mgr = ClusterManager(N_ESTS)
        speculation = Speculation(mgr)
        speculation.restart([_pair(0, 1)])  # undecided
        for other in (2, 3, 4):  # cluster {2,3,4,5} outranks {0}
            mgr.seed_union(other, 5)
        root_0, root_5 = mgr.find(0), mgr.find(5)
        mgr.seed_union(0, 5)
        assert mgr.find(0) != root_0  # 0's root was retired
        speculation.link(root_0, root_5)
        _, verdicts = _wave(speculation, _chunks([_pair(1, 5)], 4), 8)
        assert verdicts == [DEFER]  # 1 -?- 0 == 5: still riding on (0, 1)

    def test_rejections_hedge_the_bet_between_two_clusters(self):
        """Pairs between clusters that keep being rejected are released in
        doubling rounds instead of one at a time."""
        mgr = ClusterManager(N_ESTS)
        mgr.seed_union(0, 1)
        mgr.seed_union(2, 3)
        between = [_pair(0, 2, 0), _pair(1, 3, 1), _pair(0, 3, 2), _pair(1, 2, 3)]
        other = _pair(4, 5)
        speculation = Speculation(mgr)

        def verdicts():
            speculation.restart()
            return _wave(speculation, _chunks(between + [other], 8), 8)[1]

        assert verdicts() == [TAKE, DEFER, DEFER, DEFER, TAKE]
        speculation.rejected(between[0])
        assert verdicts() == [TAKE, TAKE, DEFER, DEFER, TAKE]
        speculation.rejected(between[1])
        speculation.rejected(between[2])
        assert verdicts() == [TAKE, TAKE, TAKE, TAKE, TAKE]

    @given(streams, streams)
    @settings(max_examples=100, deadline=None)
    def test_hedged_pairs_never_outnumber_the_rejections(self, stream, rejected):
        """Independent replay: a taken pair that closes a cycle over the
        earlier taken ones is covered by a reported rejection of its own."""
        mgr = ClusterManager(N_ESTS)
        speculation = Speculation(mgr)
        reported: dict[tuple[int, int], int] = {}
        for pair in rejected:
            speculation.rejected(pair)
            reported[pair.est_a, pair.est_b] = reported.get(pair.key[:2], 0) + 1
        _, verdicts = _wave(speculation, _chunks(stream, 7), len(stream) + 1)
        assert len(verdicts) == len(stream) and STALE not in verdicts
        links = UnionFind(N_ESTS)
        for pair, verdict in zip(stream, verdicts):
            independent = not links.same(pair.est_a, pair.est_b)
            if verdict == DEFER:
                assert not independent
                assert reported.get(pair.key[:2], 0) == 0
            elif independent:
                links.union(pair.est_a, pair.est_b)
            else:
                reported[pair.key[:2]] -= 1
                assert reported[pair.key[:2]] >= 0

    @given(streams, st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_first_live_pair_is_taken_when_nothing_is_in_flight(self, stream, size):
        """The liveness seed: an empty wave means nothing was left."""
        mgr = ClusterManager(N_ESTS)
        for pair in stream[::3]:
            mgr.seed_union(pair.est_a, pair.est_b)
        examined, verdicts = _wave(Speculation(mgr), _chunks(stream, size), size)
        if TAKE not in verdicts:
            assert examined == stream and verdicts == [STALE] * len(stream)
        else:
            assert DEFER not in verdicts[: verdicts.index(TAKE)]
        assert verdicts.count(TAKE) <= size
        assert len(verdicts) <= len(examined)


class TestWaveLoop:
    @given(streams, st.integers(1, 9), st.one_of(st.none(), st.integers(0, 12)))
    @settings(max_examples=200, deadline=None)
    def test_matches_one_at_a_time_loop(self, stream, batch_size, budget):
        ref_aligner, ref_mgr = _ScriptedAligner(), ClusterManager(N_ESTS)
        ref = greedy_cluster(stream, ref_aligner, ref_mgr)

        aligner, mgr = _ScriptedAligner(), ClusterManager(N_ESTS)
        got = greedy_cluster_batched(
            stream, aligner, mgr, batch_size=batch_size, max_alignments=budget
        )
        assert got.pairs_generated == len(stream)
        assert got.pairs_generated == got.pairs_skipped + got.pairs_processed
        assert got.pairs_processed == len(aligner.aligned)
        assert all(0 < len(call) <= batch_size for call in aligner.calls)
        # Never a pair the one-at-a-time loop would have skipped, and
        # never the same record twice.
        assert set(aligner.aligned) <= set(ref_aligner.aligned)
        assert len(set(aligner.aligned)) == len(aligner.aligned)
        if budget is None:
            assert mgr.clusters() == ref_mgr.clusters()
            assert got.pairs_accepted >= N_ESTS - mgr.n_clusters
        else:
            assert got.pairs_processed <= budget
        assert got.pairs_processed <= ref.pairs_processed

    @given(streams, st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_no_selection_aligns_every_pair_once_in_order(self, stream, batch_size):
        aligner, mgr = _ScriptedAligner(), ClusterManager(N_ESTS)
        got = greedy_cluster_batched(
            stream, aligner, mgr, batch_size=batch_size, skip_clustered=False
        )
        assert aligner.aligned == stream  # nothing deferred, nothing reordered
        assert all(len(call) == batch_size for call in aligner.calls[:-1])
        assert got.pairs_skipped == 0
        assert got.pairs_processed == got.pairs_generated == len(stream)
