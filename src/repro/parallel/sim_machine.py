"""The deterministic discrete-event simulated multiprocessor.

The paper's scaling experiments ran on up to 128 IBM SP processors.  This
host has one core, so the parallel experiments (Table 3, Fig. 6, Fig. 8)
execute on a simulated machine instead: the **real** algorithm runs —
every promising pair is generated by the real generator, every alignment
is computed by the real aligner, every cluster update hits the real
union–find — while a virtual clock per processor charges each operation a
cost from :class:`repro.parallel.cost_model.CostModel` and messages incur
latency + bandwidth delays.  The event loop is a single heap ordered by
(time, sequence number), so runs are bit-for-bit deterministic.

What the simulation captures, faithfully to §3.3:

- per-slave setup = partitioning + local GST construction + node sorting
  over the buckets that slave owns (load balance matters);
- the master serialises message handling (its busy fraction is measured,
  reproducing the "well under 2% even on 128 processors" claim);
- slaves overlap communication with computation: alignment of NEXTWORK
  happens while the master's reply is in flight, and idle wait time is
  spent generating pairs into PAIRBUF (up to the time actually available);
- batchsize governs the message cadence, which is what gives Fig. 8 its
  U-shape.

The clustering *output* is exact, not simulated — and provably identical
to the sequential run's partition, which the integration tests assert.

Fault simulation: a :class:`~repro.parallel.faults.FaultPlan` kills a
slave at its N-th outgoing message ("kill": the message is lost with the
slave; "kill_after_send": the message survives; "hang" behaves like
"kill" — a silent slave and a dead one are indistinguishable to the
master; "delay" adds virtual latency to one send).  The master detects
the loss after ``tolerance.detection_delay`` virtual seconds (the
simulator's stand-in for the real backend's sentinel/deadline machinery)
and recovers through the engine core, always degraded: restart is a
policy of the real backend only.  Injected faults never change the final
clusters (tests/test_faults asserts equality with the sequential
partition).

Plan, slaves, master, recovery and result assembly are the engine core's
(:mod:`repro.parallel.engine`); this file is the clock — the event heap
and every cost-model charge.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ClusteringConfig
from repro.core.results import ClusteringResult
from repro.parallel.cost_model import CostModel
from repro.parallel.engine import EngineCore
from repro.parallel.faults import FaultPlan, FaultTolerance
from repro.parallel.protocol import MasterMsg, SlaveMsg
from repro.sequence.collection import EstCollection
from repro.suffix.gst import SuffixArrayGst
from repro.telemetry import Telemetry
from repro.telemetry.monitor import RunMonitor, monitored_run
from repro.telemetry.registry import DEFAULT_BUCKETS
from repro.util.heap import release_free_heap

__all__ = ["SimulatedMachine", "SimulationReport"]


@dataclass
class SimulationReport:
    """Everything a simulated run reports.

    ``result`` is a normal :class:`ClusteringResult` whose timing breakdown
    holds *virtual* seconds in Table 3's components; the extra fields
    expose machine-level measurements.
    """

    result: ClusteringResult
    n_processors: int
    total_time: float
    master_busy_time: float
    slave_setup_times: list[float]
    slave_busy_times: list[float]
    messages_exchanged: int
    load_imbalance: float

    @property
    def master_busy_fraction(self) -> float:
        return self.master_busy_time / self.total_time if self.total_time else 0.0


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    kind: str = field(compare=False)  # "to_master" | "to_slave"
    slave_id: int = field(compare=False, default=-1)
    msg: object = field(compare=False, default=None)


class SimulatedMachine:
    """One simulated clustering run on ``n_processors`` (1 master +
    ``n_processors - 1`` slaves)."""

    def __init__(
        self,
        collection: EstCollection,
        config: ClusteringConfig | None = None,
        *,
        n_processors: int = 8,
        cost_model: CostModel | None = None,
        gst: SuffixArrayGst | None = None,
        faults: FaultPlan | None = None,
        tolerance: FaultTolerance | None = None,
        telemetry: Telemetry | None = None,
        monitor: RunMonitor | None = None,
    ) -> None:
        if n_processors < 2:
            raise ValueError("the parallel machine needs a master and >= 1 slave")
        self.collection = collection
        self.config = config or ClusteringConfig()
        self.n_processors = n_processors
        self.costs = cost_model or CostModel()
        self._gst = gst  # a pre-built index may be shared across sweeps
        self.faults = faults
        self.tolerance = tolerance or FaultTolerance()
        #: Optional telemetry session; virtual phase times, queue-depth
        #: histograms and the machine events (``telemetry.events``) land in
        #: it, and ``result.telemetry`` carries the snapshot.
        self.telemetry = telemetry
        #: Optional live monitor.  The simulator replays sampled time
        #: *virtually*: a slave emits at most one sample per
        #: ``monitor.interval`` of virtual clock, stamped with its
        #: virtual send time, so a replayed ``--live-out`` stream shows
        #: the simulated machine's progress exactly as the real backend's
        #: wall-clock stream would.
        self.monitor = monitor

    # ------------------------------------------------------------------ #

    def run(self) -> SimulationReport:
        report = self._run()
        # The engine core's index and slave state are garbage now.
        release_free_heap()
        return report

    def _run(self) -> SimulationReport:
        n_slaves = self.n_processors - 1
        core = EngineCore(self.config, n_slaves, telemetry=self.telemetry)
        core.plan(self._gst or SuffixArrayGst.build(self.collection))
        with monitored_run(
            self.monitor,
            self.config,
            core.tel,
            n_slaves,
            engine="simulated",
            clock="virtual",
            straggler_after=self.tolerance.detection_delay,
        ) as core.monitor:
            return self._simulate(core)

    def _simulate(self, core: EngineCore) -> SimulationReport:
        costs = self.costs
        gst = core.gst
        master = core.master
        n_slaves = core.n_slaves
        tel = core.tel  # drops every event when telemetry is off
        trace = tel.trace
        monitor = core.monitor

        # ---- setup phase: partition suffixes, build local GSTs ----------
        total_suffixes = sum(hi - lo for own in core.ranges_of for lo, hi in own)
        # Bucketing is a parallel scan over the local share plus an
        # O(log p) parallel summation (§3.1).
        t_partition = float(
            costs.partition_time(max(1, total_suffixes // self.n_processors))
            + np.log2(max(2, self.n_processors)) * costs.comm_latency
        )
        # Heterogeneous fleets: slave k's computation runs at
        # ``costs.slave_factor(k)`` times the homogeneous cost.
        speed = [costs.slave_factor(k) for k in range(n_slaves)]
        fleet = [core.build_slave(k) for k in range(n_slaves)]
        slaves = [s.logic for s in fleet]
        # Construction cost: the character-at-a-time bucket-tree build
        # scans each suffix to its full length (§3.1's O(N l / p)).
        owned = np.cumsum([0] + [len(own) for own in core.ranges_of])
        range_chars = gst.suffix_chars([r for own in core.ranges_of for r in own])
        gst_times: list[float] = []
        sort_times: list[float] = []
        for k, built in enumerate(fleet):
            chars = int(range_chars[owned[k] : owned[k + 1]].sum())
            gst_times.append(costs.gst_build_time(chars) * speed[k])
            sort_times.append(costs.sort_time(built.total_nodes) * speed[k])
        setup_done = [t_partition + g + s for g, s in zip(gst_times, sort_times)]

        # Work-unit latency under the *virtual* clock: stage durations are
        # the cost model's own numbers, so the stage set matches the mp
        # backend while the distributions describe the simulated machine.
        observe = tel.latency.observe
        last_sample_vt = [float("-inf")] * n_slaves

        def emit_sample(k: int, t: float) -> None:
            """At most one virtual-time sample per interval per slave."""
            if monitor is None or t - last_sample_vt[k] < monitor.interval:
                return
            last_sample_vt[k] = t
            # cpu is the slave's virtual busy seconds
            monitor.record(fleet[k].sample(t, cpu_seconds=slave_busy[k]))

        # ---- event loop ---------------------------------------------------
        events: list[_Event] = []
        seq = itertools.count()

        def schedule(time: float, kind: str, slave_id: int = -1, msg=None) -> None:
            heapq.heappush(events, _Event(time, next(seq), kind, slave_id, msg))

        # The master's virtual clock: when it is next free, and its
        # busy seconds so far.
        master_free_at = 0.0
        master_busy = 0.0
        slave_busy = [0.0] * n_slaves
        # Time each slave finished aligning its NEXTWORK (send-side ready).
        align_done_at = [0.0] * n_slaves
        messages = 0

        # ---- fault state ------------------------------------------------
        # kill/hang/kill_after_send/delay specs keyed by (slave, msg index);
        # "hang" is indistinguishable from "kill" under virtual time (the
        # message never arrives and the deadline fires), so they share a path.
        fault_specs = {
            (s.slave_id, s.at_message): s
            for s in (self.faults.specs if self.faults else ())
            if s.kind in ("kill", "kill_after_send", "hang", "delay")
        }
        detection = self.tolerance.detection_delay
        msg_sent = [0] * n_slaves  # outgoing protocol messages per slave
        crashed: set[int] = set()  # dead from its crash instant

        def crash(k: int, t: float, detail: str) -> bool:
            crashed.add(k)
            trace("fault", f"slave{k}", t, detail=detail)
            schedule(t + detection, "slave_dead", k)
            return False

        def send_to_master(k: int, msg: SlaveMsg, t: float) -> bool:
            """Queue a slave→master message; False if the slave dies at
            this send (its simulation stops here)."""
            nonlocal messages
            emit_sample(k, t)  # inline with the send, like the mp backend
            idx = msg_sent[k]
            msg_sent[k] += 1
            latency = costs.message_time(msg.n_pairs, msg.n_results)
            spec = fault_specs.get((k, idx))
            if spec is not None and spec.kind == "delay":
                latency += spec.delay
                spec = None
            if spec is not None and spec.kind in ("kill", "hang"):
                return crash(k, t, f"crashed before send #{idx}")
            trace(
                "send", f"slave{k}", t,
                detail=f"to master: {msg.n_results} results, {msg.n_pairs} pairs",
            )
            schedule(t + latency, "to_master", k, msg)
            messages += 1
            observe("transit", latency)
            if spec is not None and spec.kind == "kill_after_send":
                return crash(k, t, f"crashed after send #{idx}")
            return True

        def send_to_slave(k: int, msg: MasterMsg, t: float) -> None:
            nonlocal messages
            detail = "stop" if msg.stop else f"W={msg.n_pairs} E={msg.request}"
            trace("send", "master", t, detail=f"to slave{k}: {detail}")
            latency = costs.message_time(msg.n_pairs, 0)
            schedule(t + latency, "to_slave", k, msg)
            messages += 1
            observe("transit", latency)

        def send_and_align(
            k: int, msg: SlaveMsg, t_send: float, *, bootstrap: bool = False
        ) -> None:
            """Send ``msg`` at ``t_send``, then align NEXTWORK while the
            master's reply is in flight (portion 2 of the overlap)."""
            slave = slaves[k]
            fleet[k].stamp_causal(tel, t_send)
            if not send_to_master(k, msg, t_send):
                return  # died at (or right after) this send
            align_costs = slave.align_pending()
            dur = costs.alignment_time(
                align_costs.model_cells, align_costs.n_alignments
            ) * speed[k]
            slave_busy[k] += dur
            if align_costs.n_alignments:
                observe("align", dur)
            # The bootstrap alignment was never drawn on the timeline; the
            # committed reference traces pin that.
            if dur > 0 and not bootstrap:
                trace(
                    "compute", f"slave{k}", t_send, t_send + dur,
                    f"align NEXTWORK ({align_costs.n_alignments})",
                )
            align_done_at[k] = t_send + dur
            fleet[k].stamp_causal(tel, align_done_at[k])

        # Bootstrap every slave at its setup-completion time.
        for k, slave in enumerate(slaves):
            msg = slave.bootstrap()
            boot_cost = (
                costs.generation_time(slave.last_costs.pairs_generated_blocking)
                + costs.alignment_time(
                    slave.last_costs.model_cells, slave.last_costs.n_alignments
                )
            ) * speed[k]
            slave_busy[k] += boot_cost
            trace(
                "compute", f"slave{k}", setup_done[k], setup_done[k] + boot_cost,
                "bootstrap",
            )
            send_and_align(k, msg, setup_done[k] + boot_cost, bootstrap=True)

        end_time = max(setup_done) if setup_done else 0.0

        def charge(dur: float, at: float = 0.0) -> float:
            """The master works for ``dur`` starting no earlier than
            ``at``; returns when it started."""
            nonlocal master_free_at, master_busy
            start = max(master_free_at, at)
            master_free_at = start + dur
            master_busy += dur
            return start

        def charge_dispatch(examined_before: int) -> None:
            """Bill the master for the wave selection done since its
            ``pairs_examined`` counter read ``examined_before``."""
            charge(costs.dispatch_time(master.stats.pairs_examined - examined_before))

        def wake_waiters() -> None:
            examined_before = master.stats.pairs_examined
            woken = master.drain_wait_queue(now=master_free_at)
            start = master_free_at
            charge_dispatch(examined_before)
            if master_free_at > start:
                trace(
                    "compute", "master", start, master_free_at,
                    "choose waves for waiters",
                )
            for waiter_id, waiter_reply in woken:
                trace(
                    "compute", "master",
                    master_free_at,
                    master_free_at + costs.master_msg_cost,
                    f"wake waiter slave{waiter_id}",
                )
                charge(costs.master_msg_cost)
                send_to_slave(waiter_id, waiter_reply, master_free_at)

        def master_finish_locally() -> None:
            """No slave survives: align the remaining WORKBUF in the
            master itself."""
            aligned, model_cells = core.drain_locally(master_free_at)
            dur = costs.alignment_time(model_cells, aligned)
            if aligned:
                trace(
                    "compute", "master", master_free_at,
                    master_free_at + dur,
                    f"degraded: align {aligned} pairs locally",
                )
            charge(dur)

        while events:
            ev = heapq.heappop(events)
            end_time = max(end_time, ev.time)
            if ev.kind == "slave_dead":
                k = ev.slave_id  # scheduled once, by the slave's one crash
                start = max(master_free_at, ev.time)
                trace("fault", "master", ev.time, detail=f"detected loss of slave{k}")
                # Restart is a policy of the real backend only: there is
                # no process to fork here, so the run always degrades.
                lost = core.slave_lost(k, start, revive=False)
                charge(costs.generation_time(lost.produced), start)
                end_time = max(end_time, master_free_at)
                trace(
                    "fault", "master", master_free_at,
                    detail=f"recovered slave{k}: {lost.requeued} in-flight "
                    f"requeued, {lost.admitted}/{lost.produced} regenerated admitted",
                )
                wake_waiters()
                if len(crashed) == n_slaves and not master.finished():
                    master_finish_locally()
                    end_time = max(end_time, master_free_at)
            elif ev.kind == "to_master":
                msg: SlaveMsg = ev.msg
                proc = costs.master_time(msg.n_results, msg.n_pairs)
                start = charge(proc, ev.time)
                # Reply is emitted when the master finishes processing,
                # so dispatch/rtt clocks read its free-at time.
                examined_before = master.stats.pairs_examined
                reply = core.on_message(msg, master_free_at)
                charge_dispatch(examined_before)
                trace("recv", "master", ev.time, detail=f"from slave{msg.slave_id}")
                trace(
                    "compute", "master", start, master_free_at,
                    f"incorporate slave{msg.slave_id}",
                )
                core.absorbed(proc)
                core.publish(master_free_at)
                if reply is not None:
                    send_to_slave(msg.slave_id, reply, master_free_at)
                wake_waiters()
            else:  # to_slave
                k = ev.slave_id
                if k in crashed:
                    continue  # reply addressed to a dead slave: dropped
                slave = slaves[k]
                trace("recv", f"slave{k}", ev.time, detail="reply from master")
                # Idle window between finishing NEXTWORK and the reply's
                # arrival is spent generating pairs (comm/comp overlap).
                idle = max(0.0, ev.time - align_done_at[k])
                idle_budget = int(idle / (costs.pair_gen_cost * speed[k]))
                generated_idle = slave.idle_generate(idle_budget)
                if generated_idle:
                    fleet[k].stamp_causal(tel, ev.time)
                    idle_cost = generated_idle * costs.pair_gen_cost * speed[k]
                    slave_busy[k] += idle_cost
                    trace(
                        "compute", f"slave{k}", align_done_at[k],
                        align_done_at[k] + idle_cost,
                        f"idle-generate {generated_idle} pairs",
                    )
                tel.observe("slave.pairbuf_depth", len(slave.pairbuf), DEFAULT_BUCKETS)
                ready = max(ev.time, align_done_at[k])

                out = slave.finish_step(ev.msg)
                if out is None:  # stopped
                    fleet[k].stamp_causal(tel, ev.time)
                    continue
                n_blocking = slave.last_costs.pairs_generated_blocking
                block = costs.generation_time(n_blocking) * speed[k]
                slave_busy[k] += block
                if n_blocking:
                    observe("generate", block)
                if block > 0:
                    trace(
                        "compute", f"slave{k}", ready, ready + block,
                        f"generate portion ({n_blocking})",
                    )
                send_and_align(k, out, ready + block)

        if not master.finished():
            raise RuntimeError(
                f"simulation drained its event queue with "
                f"{n_slaves - len(master.stopped | master.lost)} slaves unstopped"
            )
        if master.workbuf:
            # Only reachable under faults: pairs regenerated after the
            # last consumer stopped.  These are re-offers of already
            # aligned-and-rejected pairs, so aligning them cannot change
            # the partition — but doing so keeps the no-pair-left-behind
            # invariant unconditional.
            master_finish_locally()
            end_time = max(end_time, master_free_at)
        core.publish(end_time)

        # ---- reporting ------------------------------------------------------
        tel.add_phase("partitioning", t_partition)
        tel.add_phase("gst_construction", max(gst_times) if gst_times else 0.0)
        tel.add_phase("sort_nodes", max(sort_times) if sort_times else 0.0)
        setup_end = max(setup_done) if setup_done else 0.0
        tel.add_phase("alignment", max(0.0, end_time - setup_end))
        imbalance = core.assignment.imbalance
        tel.set_gauge("machine.total_time.seconds", end_time)
        tel.set_gauge("machine.master_busy.seconds", master_busy)
        tel.set_gauge("machine.load_imbalance", imbalance)
        for k, busy_k in enumerate(slave_busy):
            tel.set_gauge(f"busy.slave{k}.seconds", busy_k)
        result = core.finish(
            # A crashed slave never reports, exactly as on the real backend.
            (
                (s.generator.produced, s.total_alignments, s.total_dp_cells)
                for k, s in enumerate(slaves)
                if k not in crashed
            ),
            incomplete_slaves=len(crashed),
            messages=messages,
            engine="simulated",
            n_processors=self.n_processors,
            clock="virtual",
            total_time=end_time,
        )
        return SimulationReport(
            result=result,
            n_processors=self.n_processors,
            total_time=end_time,
            master_busy_time=master_busy,
            slave_setup_times=setup_done,
            slave_busy_times=slave_busy,
            messages_exchanged=messages,
            load_imbalance=imbalance,
        )
