"""Unit tests of the master/slave protocol state machines and the bucket
partitioner — no engine involved, messages are passed by hand."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import AcceptanceCriteria, PairAligner
from repro.pairs import OnDemandPairGenerator, Pair, SaPairGenerator
from repro.parallel import MasterLogic, MasterMsg, SlaveLogic, SlaveMsg, assign_buckets
from repro.parallel.cost_model import CostModel
from repro.sequence import EstCollection
from repro.suffix import SuffixArrayGst


class TestAssignBuckets:
    def test_all_buckets_assigned_once(self):
        ranges = [(i, i * 10, i * 10 + 5 + i) for i in range(7)]
        asg = assign_buckets(ranges, 3)
        flat = [r for per in asg.per_processor for r in per]
        assert sorted(flat) == sorted(ranges)
        assert asg.n_processors == 3

    def test_loads_match_contents(self):
        ranges = [(0, 0, 10), (1, 10, 14), (2, 14, 15)]
        asg = assign_buckets(ranges, 2)
        for k in range(2):
            assert asg.loads[k] == sum(hi - lo for _key, lo, hi in asg.per_processor[k])

    def test_lpt_known_placement(self):
        # Sizes 5,4,3,3,3 on 2 processors: LPT places 5 | 4,3 | 3 | 3 ->
        # loads 8 and 10 (greedy, not optimal 9/9 — Graham bound applies).
        ranges = [(i, 0, s) for i, s in enumerate([5, 4, 3, 3, 3])]
        asg = assign_buckets(ranges, 2)
        assert sorted(asg.loads) == [8, 10]
        assert asg.imbalance == pytest.approx(10 / 9)

    @given(
        st.lists(st.integers(1, 50), min_size=0, max_size=30),
        st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_lpt_within_greedy_bound(self, sizes, p):
        """List-scheduling bound: makespan <= total/p + max size (a machine
        receives a bucket only while it is least-loaded)."""
        pos = 0
        ranges = []
        for i, s in enumerate(sizes):
            ranges.append((i, pos, pos + s))
            pos += s
        asg = assign_buckets(ranges, p)
        if not sizes:
            assert asg.loads == [0] * p
            return
        assert max(asg.loads) <= sum(sizes) / p + max(sizes) + 1e-9

    def test_ranges_kept_in_rank_order(self):
        ranges = [(0, 50, 60), (1, 0, 10), (2, 20, 30)]
        asg = assign_buckets(ranges, 1)
        los = [lo for _k, lo, _hi in asg.per_processor[0]]
        assert los == sorted(los)

    def test_zero_processors_rejected(self):
        with pytest.raises(ValueError):
            assign_buckets([], 0)


def _mk_pair(i, j, length=12):
    return Pair(length, 2 * i, 0, 2 * j, 0)


def _msg(slave_id, pairs=(), results=(), exhausted=False, pending=False):
    return SlaveMsg(
        slave_id=slave_id,
        results=tuple(results),
        pairs=tuple(pairs),
        exhausted=exhausted,
        has_pending_results=pending,
    )


class TestMasterLogic:
    def test_pair_selection_filters_clustered(self):
        m = MasterLogic(n_ests=6, n_slaves=2, batchsize=4, workbuf_capacity=100)
        m.manager.seed_union(0, 1)
        reply = m.on_message(_msg(0, pairs=[_mk_pair(0, 1), _mk_pair(2, 3)]))
        assert m.stats.pairs_offered == 2
        assert m.stats.pairs_admitted == 1  # (0,1) already co-clustered
        assert reply is not None and len(reply.work) == 1

    def test_results_merge_clusters(self):
        from repro.align.scoring import AlignmentResult, OverlapPattern

        m = MasterLogic(n_ests=4, n_slaves=1, batchsize=4, workbuf_capacity=100)
        res = AlignmentResult(24.0, 0, 12, 0, 12, OverlapPattern.A_CONTAINS_B, 0)
        m.on_message(_msg(0, results=[(_mk_pair(0, 2), res, True), (_mk_pair(1, 3), res, False)]))
        assert m.manager.same_cluster(0, 2)
        assert not m.manager.same_cluster(1, 3)
        assert m.stats.results_accepted == 1

    def test_request_formula_uses_alpha_delta(self):
        m = MasterLogic(n_ests=100, n_slaves=4, batchsize=10, workbuf_capacity=10_000)
        # Slave offers 8 pairs, 4 admitted -> alpha=2, delta=1 -> E=2*10=20.
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(4)]
        dups = [_mk_pair(50, 51)] * 4
        m.manager.seed_union(50, 51)
        reply = m.on_message(_msg(0, pairs=pairs + dups))
        assert reply.request == 20

    def test_request_capped_by_nfree_over_p(self):
        m = MasterLogic(n_ests=100, n_slaves=4, batchsize=10, workbuf_capacity=40)
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(8)]
        reply = m.on_message(_msg(0, pairs=pairs))
        # After W=8-... workbuf drained by W; nfree/p = (40-0)/4 = 10 cap.
        assert reply.request <= 10

    def test_passive_slave_gets_no_request(self):
        m = MasterLogic(n_ests=10, n_slaves=2, batchsize=5, workbuf_capacity=50)
        reply = m.on_message(_msg(0, exhausted=True, pending=True))
        # No work available, no request: the reply is withheld (wait queue).
        assert reply is None
        assert 0 in m.waiting

    def test_wait_queue_drained_when_work_appears(self):
        m = MasterLogic(n_ests=20, n_slaves=2, batchsize=2, workbuf_capacity=50)
        assert m.on_message(_msg(0, exhausted=True)) is None
        # Slave 1 brings more pairs than one batch: after its own W=2, the
        # surplus revives the wait-queued slave 0.
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(4)]
        m.on_message(_msg(1, pairs=pairs, exhausted=True))
        drained = m.drain_wait_queue()
        assert any(sid == 0 and msg.work for sid, msg in drained)

    def test_global_termination_stops_everyone(self):
        m = MasterLogic(n_ests=10, n_slaves=2, batchsize=5, workbuf_capacity=50)
        r0 = m.on_message(_msg(0, exhausted=True))
        assert r0 is None
        r1 = m.on_message(_msg(1, exhausted=True))
        assert r1 is not None and r1.stop
        drained = dict(m.drain_wait_queue())
        assert 0 in drained and drained[0].stop
        assert m.finished()

    def test_pending_results_elicited_before_stop(self):
        m = MasterLogic(n_ests=10, n_slaves=1, batchsize=5, workbuf_capacity=50)
        r = m.on_message(_msg(0, exhausted=True, pending=True))
        # Slave still holds results: master must not stop it, and since
        # there is nothing to send, it parks... then the drain sends an
        # empty-work elicitation (all slaves passive).
        assert r is None
        drained = dict(m.drain_wait_queue())
        assert not drained[0].stop
        # Final message with the pending results cleared:
        r2 = m.on_message(_msg(0, exhausted=True, pending=False))
        assert r2 is not None and r2.stop
        assert m.finished()

    def test_needs_at_least_one_slave(self):
        with pytest.raises(ValueError):
            MasterLogic(n_ests=5, n_slaves=0, batchsize=5, workbuf_capacity=10)


def _step(slave: SlaveLogic, reply: MasterMsg):
    """One full interaction, as the engines drive it."""
    slave.align_pending()
    return slave.finish_step(reply)


class TestSlaveLogic:
    def _make(self, n_pairs=300, batchsize=10):
        col = EstCollection.from_strings(
            ["ACGTACGTACGTACGTTTTT", "ACGTACGTACGTACGTGGGG", "TTTTACGTACGTACGTACGT"]
        )
        gst = SuffixArrayGst.build(col)
        gen = OnDemandPairGenerator(SaPairGenerator(gst, psi=10).pairs())
        aligner = PairAligner(col, criteria=AcceptanceCriteria(0.8, 10))
        return SlaveLogic(
            slave_id=0, generator=gen, aligner=aligner,
            batchsize=batchsize, pairbuf_capacity=50,
        )

    def test_bootstrap_three_portions(self):
        slave = self._make(batchsize=3)
        msg = slave.bootstrap()
        assert msg.n_results <= 3  # portion 1 aligned
        assert msg.n_pairs <= 3  # portion 3 shipped
        assert len(slave.nextwork) <= 3  # portion 2 retained
        assert msg.has_pending_results == bool(slave.nextwork)

    def test_step_reports_previous_work(self):
        slave = self._make(batchsize=2)
        slave.bootstrap()
        held = slave.nextwork
        out = _step(slave, MasterMsg(work=(), request=5))
        assert out.n_results == len(held)
        assert slave.nextwork == ()

    def test_request_filled_from_generator(self):
        slave = self._make(batchsize=2)
        slave.bootstrap()
        out = _step(slave, MasterMsg(work=(), request=4))
        assert out.n_pairs <= 4
        if not slave.generator.exhausted:
            assert out.n_pairs == 4

    def test_stop_with_pending_raises(self):
        slave = self._make(batchsize=2)
        slave.bootstrap()
        if slave.nextwork:
            with pytest.raises(RuntimeError, match="unreported results"):
                _step(slave, MasterMsg(work=(), request=0, stop=True))

    def test_clean_stop(self):
        slave = self._make(batchsize=2)
        slave.bootstrap()
        _step(slave, MasterMsg(work=(), request=0))  # drains nextwork
        assert _step(slave, MasterMsg(work=(), request=0, stop=True)) is None
        assert slave.done

    def test_idle_generate_respects_capacity(self):
        slave = self._make(batchsize=2)
        slave.bootstrap()
        got = slave.idle_generate(10_000)
        assert len(slave.pairbuf) <= slave.pairbuf_capacity
        assert got <= slave.pairbuf_capacity

    def test_finish_before_align_rejected(self):
        slave = self._make()
        with pytest.raises(RuntimeError, match="before align_pending"):
            slave.finish_step(MasterMsg(work=(), request=0))


class TestCostModel:
    def test_message_time_monotone_in_size(self):
        cm = CostModel()
        assert cm.message_time(10, 5) > cm.message_time(1, 1) > cm.comm_latency

    def test_component_costs_scale(self):
        cm = CostModel()
        assert cm.gst_build_time(2000) == pytest.approx(2 * cm.gst_build_time(1000))
        assert cm.alignment_time(1000, 2) > cm.alignment_time(1000, 1)
        assert cm.sort_time(0) == 0.0
        assert cm.sort_time(1) > 0.0
        assert cm.master_time(5, 5) > cm.master_time(0, 0)
