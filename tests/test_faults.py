"""Fault-injection tests: the parallel runtime must survive slave death.

The correctness oracle throughout: a run with injected crashes completes
without hanging (enforced by a hard SIGALRM deadline, the moral
equivalent of ``pytest.mark.timeout``) and produces clusters identical to
the sequential :class:`PaceClusterer` on the same collection.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest

from repro.core import PaceClusterer
from repro.pairs import Pair
from repro.parallel import (
    FaultPlan,
    FaultSpec,
    FaultTolerance,
    MasterLogic,
    SlaveFailure,
    SlaveMsg,
    cluster_multiprocessing,
    run_parallel,
    simulate_clustering,
)
from repro.telemetry import Telemetry

#: Generous wall-clock budget per test: recovery involves real forks,
#: detection polls and (in one test) a deliberate 1 s deadline.
HARD_DEADLINE_S = 120


@contextmanager
def hard_deadline(seconds: int = HARD_DEADLINE_S):
    """Fail the test (instead of hanging CI) if the body runs too long."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"fault-recovery test exceeded {seconds}s — runtime hung")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def sequential_clusters(small_benchmark, small_config):
    return PaceClusterer(small_config).cluster(small_benchmark.collection).clusters


def _tolerance(**overrides) -> FaultTolerance:
    base = dict(slave_timeout=15.0, poll_interval=0.05, max_restarts=0)
    base.update(overrides)
    return FaultTolerance(**base)


class TestMultiprocessingRecovery:
    def test_kill_before_bootstrap_degrades(
        self, small_benchmark, small_config, sequential_clusters
    ):
        """Slave 0 dies before its bootstrap message ever reaches the
        master; the master regenerates its ranges and the survivor
        finishes the run."""
        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="kill", at_message=0, incarnation=None)
        )
        with hard_deadline():
            res = cluster_multiprocessing(
                small_benchmark.collection,
                small_config,
                n_processors=3,
                faults=plan,
                tolerance=_tolerance(),
            )
        assert res.clusters == sequential_clusters
        assert res.faults.slaves_lost >= 1
        assert res.faults.restarts == 0
        assert res.faults.pairs_reassigned > 0
        assert res.faults.incomplete_slaves == 1

    def test_kill_after_bootstrap_restarts(
        self, small_benchmark, small_config, sequential_clusters
    ):
        """Slave 0 dies right after its bootstrap message; the restart
        budget covers it and a replacement re-runs the same ranges."""
        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="kill_after_send", at_message=0, incarnation=0)
        )
        with hard_deadline():
            res = cluster_multiprocessing(
                small_benchmark.collection,
                small_config,
                n_processors=3,
                faults=plan,
                tolerance=_tolerance(max_restarts=2),
            )
        assert res.clusters == sequential_clusters
        assert res.faults.slaves_lost >= 1
        assert res.faults.restarts >= 1
        assert res.faults.incomplete_slaves == 0  # the replacement reported

    def test_all_slaves_dead_master_finishes(
        self, small_benchmark, small_config, sequential_clusters
    ):
        """Every slave dies with no restart budget: the master reabsorbs
        all ranges and finishes the alignment itself."""
        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="kill_after_send", at_message=0, incarnation=None),
            FaultSpec(slave_id=1, kind="kill", at_message=1, incarnation=None),
        )
        with hard_deadline():
            res = cluster_multiprocessing(
                small_benchmark.collection,
                small_config,
                n_processors=3,
                faults=plan,
                tolerance=_tolerance(),
            )
        assert res.clusters == sequential_clusters
        assert res.faults.slaves_lost == 2
        assert res.faults.incomplete_slaves == 2
        assert res.counters.pairs_processed > 0  # master aligned locally

    def test_hang_detected_by_deadline(
        self, small_benchmark, small_config, sequential_clusters
    ):
        """A wedged slave (alive but silent) is declared dead once it
        exceeds the per-slave deadline."""
        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="hang", at_message=1, incarnation=None)
        )
        with hard_deadline():
            res = cluster_multiprocessing(
                small_benchmark.collection,
                small_config,
                n_processors=3,
                faults=plan,
                tolerance=_tolerance(slave_timeout=1.0),
            )
        assert res.clusters == sequential_clusters
        assert res.faults.slaves_lost >= 1

    def test_slave_error_reraised_with_context(self, small_benchmark, small_config):
        """An exception inside the slave's compute loop is shipped as a
        typed report and re-raised by the master — not silently retried."""
        plan = FaultPlan.of(FaultSpec(slave_id=0, kind="raise", at_message=1))
        with hard_deadline(), pytest.raises(SlaveFailure) as exc_info:
            cluster_multiprocessing(
                small_benchmark.collection,
                small_config,
                n_processors=3,
                faults=plan,
                tolerance=_tolerance(),
            )
        assert exc_info.value.slave_id == 0
        assert "InjectedFault" in exc_info.value.slave_traceback

    def test_recovery_events_reach_trace(self, small_benchmark, small_config):
        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="kill", at_message=0, incarnation=None)
        )
        tel = Telemetry()
        with hard_deadline():
            cluster_multiprocessing(
                small_benchmark.collection,
                small_config,
                n_processors=3,
                faults=plan,
                tolerance=_tolerance(),
                telemetry=tel,
            )
        faults = [e for e in tel.events if e.get("event") == "fault"]
        assert any("lost" in e["detail"] for e in faults)
        assert any(e["actor"] == "master" for e in faults)

    def test_fault_free_run_reports_zero_counters(self, small_benchmark, small_config):
        with hard_deadline():
            res = cluster_multiprocessing(
                small_benchmark.collection, small_config, n_processors=3
            )
        assert res.faults is not None
        assert not res.faults.any_faults

    def test_run_parallel_facade_passes_faults(
        self, small_benchmark, small_config, sequential_clusters
    ):
        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="kill", at_message=0, incarnation=None)
        )
        with hard_deadline():
            res = run_parallel(
                small_benchmark.collection,
                small_config,
                n_processors=3,
                machine="multiprocessing",
                faults=plan,
                tolerance=_tolerance(),
            )
        assert res.clusters == sequential_clusters
        assert res.faults.slaves_lost >= 1


class TestSimulatedRecovery:
    def test_sim_kill_matches_sequential(
        self, small_benchmark, small_config, sequential_clusters
    ):
        plan = FaultPlan.of(
            FaultSpec(slave_id=1, kind="kill", at_message=1, incarnation=None)
        )
        with hard_deadline():
            rep = simulate_clustering(
                small_benchmark.collection,
                small_config,
                n_processors=4,
                faults=plan,
                tolerance=FaultTolerance(detection_delay=0.001),
            )
        assert rep.result.clusters == sequential_clusters
        assert rep.result.faults.slaves_lost == 1

    def test_sim_kill_every_slave(self, small_benchmark, small_config, sequential_clusters):
        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="kill_after_send", at_message=0, incarnation=None),
            FaultSpec(slave_id=1, kind="kill", at_message=0, incarnation=None),
        )
        with hard_deadline():
            rep = simulate_clustering(
                small_benchmark.collection,
                small_config,
                n_processors=3,
                faults=plan,
                tolerance=FaultTolerance(detection_delay=0.001),
            )
        assert rep.result.clusters == sequential_clusters
        assert rep.result.faults.slaves_lost == 2

    def test_sim_faults_are_deterministic(self, small_benchmark, small_config):
        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="kill_after_send", at_message=1, incarnation=None)
        )
        runs = [
            simulate_clustering(
                small_benchmark.collection,
                small_config,
                n_processors=4,
                faults=plan,
                tolerance=FaultTolerance(detection_delay=0.001),
            )
            for _ in range(2)
        ]
        assert runs[0].result.clusters == runs[1].result.clusters
        assert runs[0].total_time == runs[1].total_time
        assert runs[0].messages_exchanged == runs[1].messages_exchanged

    def test_sim_delay_changes_time_not_result(self, small_benchmark, small_config):
        base = simulate_clustering(
            small_benchmark.collection, small_config, n_processors=4
        )
        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="delay", at_message=1, delay=2.0, incarnation=None)
        )
        slow = simulate_clustering(
            small_benchmark.collection, small_config, n_processors=4, faults=plan
        )
        assert slow.result.clusters == base.result.clusters
        assert slow.total_time > base.total_time
        assert not slow.result.faults.any_faults  # a slow slave is not a lost one

    def test_sim_trace_records_fault_events(self, small_benchmark, small_config):
        from repro.parallel import SimulatedMachine

        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="kill", at_message=1, incarnation=None)
        )
        tel = Telemetry()
        machine = SimulatedMachine(
            small_benchmark.collection,
            small_config,
            n_processors=3,
            telemetry=tel,
            faults=plan,
            tolerance=FaultTolerance(detection_delay=0.001),
        )
        machine.run()
        machine_events = [e for e in tel.events if e["kind"] == "trace"]
        assert "fault" in {e["event"] for e in machine_events}
        assert any(
            "crashed" in e["detail"] for e in machine_events if e["event"] == "fault"
        )


class TestEngineParityUnderFaults:
    def test_same_plan_same_accounting_on_both_engines(
        self, small_benchmark, small_config, sequential_clusters
    ):
        """One FaultPlan, two shards, both engines: the recovery path is
        the engine core's, so everything that does not depend on timing —
        who was lost, who never reported, pair conservation, the
        partition — must come out the same.  (A crashed slave's own
        counts are left out by both: it never reports.)"""
        import dataclasses

        cfg = dataclasses.replace(small_config, master_shards=2)
        plan = FaultPlan.of(
            FaultSpec(slave_id=1, kind="kill", at_message=0, incarnation=None),
            FaultSpec(slave_id=2, kind="kill", at_message=0, incarnation=None),
        )
        sim = simulate_clustering(
            small_benchmark.collection,
            cfg,
            n_processors=5,
            faults=plan,
            tolerance=FaultTolerance(detection_delay=0.001),
        ).result
        with hard_deadline():
            real = cluster_multiprocessing(
                small_benchmark.collection,
                cfg,
                n_processors=5,
                faults=plan,
                tolerance=_tolerance(max_restarts=0),
            )
        assert sim.clusters == real.clusters == sequential_clusters
        for field in ("slaves_lost", "restarts", "incomplete_slaves", "slave_errors"):
            assert getattr(sim.faults, field) == getattr(real.faults, field), field
        assert sim.faults.slaves_lost == sim.faults.incomplete_slaves == 2
        for counters in (sim.counters, real.counters):
            assert counters.pairs_generated == (
                counters.pairs_skipped + counters.pairs_processed
            )
        # Both regenerated the same dead ranges and every survivor
        # generated its own to the end.
        assert sim.counters.pairs_generated == real.counters.pairs_generated


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


class TestMasterLogicFaultTransitions:
    def test_slave_lost_requeues_in_flight_work(self):
        m = MasterLogic(n_ests=20, n_slaves=2, batchsize=4, workbuf_capacity=100)
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(4)]
        reply = m.on_message(_msg(0, pairs=pairs))
        assert reply is not None and reply.work  # work dispatched to slave 0
        requeued = m.slave_lost(0)
        assert requeued == len(reply.work)
        assert len(m.workbuf) == requeued
        assert 0 in m.lost and 0 in m.passive

    def test_slave_lost_filters_already_clustered(self):
        m = MasterLogic(n_ests=20, n_slaves=2, batchsize=4, workbuf_capacity=100)
        reply = m.on_message(_msg(0, pairs=[_mk_pair(0, 1), _mk_pair(2, 3)]))
        assert len(reply.work) == 2
        m.manager.seed_union(0, 1)  # merged via another witness meanwhile
        assert m.slave_lost(0) == 1  # only (2,3) comes back

    def test_slave_lost_leaves_wait_queue_and_unblocks_termination(self):
        m = MasterLogic(n_ests=10, n_slaves=2, batchsize=5, workbuf_capacity=50)
        assert m.on_message(_msg(0, exhausted=True)) is None
        assert 0 in m.waiting
        # Slave 1 dies while slave 0 is parked: its loss must not wedge
        # the protocol — termination becomes decidable and slave 0 stops.
        m.slave_lost(1)
        assert 1 not in m.waiting
        drained = dict(m.drain_wait_queue())
        assert 0 in drained and drained[0].stop
        assert m.finished()

    def test_in_flight_tracks_only_unreported_batches(self):
        m = MasterLogic(n_ests=40, n_slaves=1, batchsize=3, workbuf_capacity=100)
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(9)]
        r1 = m.on_message(_msg(0, pairs=pairs, pending=True))
        assert len(r1.work) == 3
        # Next message reports the batch held before r1's work arrived,
        # so exactly r1's batch (plus any new dispatch) stays in flight.
        r2 = m.on_message(_msg(0, pending=True))
        outstanding = [p for entries, _ in m.in_flight[0] for p, _, _ in entries]
        expected = list(r1.work) + list(r2.work if r2 else ())
        assert outstanding == expected

    def test_slave_revived_rejoins_protocol(self):
        m = MasterLogic(n_ests=10, n_slaves=2, batchsize=5, workbuf_capacity=50)
        m.on_message(_msg(0, exhausted=True))
        m.slave_lost(0)
        assert m.active_slaves == 1
        m.slave_revived(0)
        assert m.active_slaves == 2
        assert 0 not in m.lost and 0 not in m.passive
        assert not m.finished()

    def test_lost_after_clean_stop_is_noop(self):
        m = MasterLogic(n_ests=10, n_slaves=1, batchsize=5, workbuf_capacity=50)
        r = m.on_message(_msg(0, exhausted=True))
        assert r is not None and r.stop
        assert m.slave_lost(0) == 0
        assert m.finished()

    def test_absorb_pairs_admits_through_filter(self):
        m = MasterLogic(n_ests=10, n_slaves=1, batchsize=5, workbuf_capacity=50)
        m.manager.seed_union(0, 1)
        admitted = m.absorb_pairs([_mk_pair(0, 1), _mk_pair(2, 3), _mk_pair(2, 4)])
        assert admitted == 2
        assert m.stats.pairs_offered == 3
        assert m.stats.pairs_admitted == 2


class TestFaultPlanApi:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(slave_id=0, kind="explode")

    def test_incarnation_selection(self):
        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="kill", at_message=1, incarnation=0),
            FaultSpec(slave_id=0, kind="kill", at_message=2, incarnation=None),
            FaultSpec(slave_id=1, kind="kill", at_message=0, incarnation=1),
        )
        assert {s.at_message for s in plan.for_slave(0, incarnation=0)} == {1, 2}
        assert {s.at_message for s in plan.for_slave(0, incarnation=3)} == {2}
        assert plan.for_slave(1, incarnation=0) == ()
        assert len(plan.for_slave(1, incarnation=1)) == 1

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            FaultTolerance(slave_timeout=0)
        with pytest.raises(ValueError):
            FaultTolerance(max_restarts=-1)
        assert FaultTolerance(restart_backoff=0.1).backoff_for(2) == pytest.approx(0.4)
