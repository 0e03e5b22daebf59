"""Real-process execution of the master–slave protocol, fault-tolerantly.

The same :class:`~repro.parallel.protocol.MasterLogic` /
:class:`~repro.parallel.protocol.SlaveLogic` state machines run here over
genuine OS processes and pipes (the paper used MPI; ``multiprocessing``
pipes are the stdlib equivalent of its point-to-point sends).  The master
lives in the calling process; each slave is a forked worker owning its
bucket ranges and running pair generation and alignment locally.

This backend demonstrates protocol correctness under true asynchrony and
real serialization.  Wall-clock *speedup* is the simulator's department:
this host has one or two cores, and Python's pickling costs dwarf a 2002
interconnect — see DESIGN.md §2.  What the backend does see to is that
the slaves run side by side when there are cores for it: each moves to a
CPU of its own at spawn (:func:`_start_on_own_cpu`) instead of waiting
on its parent's for the kernel to balance load.

Unlike the paper's protocol (which assumes immortal slaves), this runtime
survives slave failure.  Detection is three-layered: every pipe
operation is wrapped against ``EOFError``/``BrokenPipeError``, the
process sentinel of each slave is polled alongside its pipe, and a
per-slave deadline flags slaves that owe the master a message but have
gone silent (hangs).  Recovery is the engine core's
(:meth:`~repro.parallel.engine.EngineCore.slave_lost`); what this file
adds is the restart: while :class:`~repro.parallel.faults.FaultTolerance`'s
budget lasts, a dead slave's id is revived by forking a replacement over
the same bucket ranges after an exponential back-off (pair generation is
deterministic, so the replacement reproduces every pair its predecessor
could have offered).  Either way the
run never hangs, never loses an accepted merge, and yields the same
clusters as the sequential driver (asserted by tests/test_faults).

The index itself is built once in the master and *published*, not
shipped: with ``config.shared_arenas`` (the default) every constituent
array — sequence arena, suffix array, LCP, lookup tables — lives in named
shared-memory segments (:mod:`repro.parallel.arenas`), and slaves attach
by descriptor on spawn; each then builds the interval forest of its own
bucket ranges from the shared LCP view, side by side with the others,
inside its ``sort_nodes`` span.  Spawn arguments and restart/re-absorb
paths then carry only index ranges and descriptors, making per-slave
startup payload O(1) in dataset size (gated by ``benchmarks/perf_gate.py
startup``).  The master owns the segments and unlinks them in its
``finally`` block, so neither clean completion, slave crashes, nor a
KeyboardInterrupt leak ``/dev/shm`` entries.  With
``shared_arenas=False`` the legacy whole-object handoff remains
available for comparison.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection, wait

from repro.core.config import ClusteringConfig
from repro.core.results import ClusteringResult
from repro.parallel.arenas import GstArenas, GstBundle, attach_gst
from repro.parallel.engine import EngineCore, build_slave
from repro.parallel.faults import (
    FaultInjector,
    FaultPlan,
    FaultTolerance,
    SlaveFailure,
)
from repro.parallel.shm import ArenaRegistry
from repro.sequence.collection import EstCollection
from repro.suffix.gst import SuffixArrayGst
from repro.telemetry import Telemetry
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.live import ResourceSampler, live_record
from repro.telemetry.monitor import RunMonitor, monitored_run
from repro.telemetry.registry import DEFAULT_BUCKETS
from repro.util.heap import release_free_heap

__all__ = ["cluster_multiprocessing"]

_PIPE_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError, OSError)

#: Slave exit codes (diagnostic only; the master keys off pipes/sentinels).
_EXIT_PIPE_LOST = 3
_EXIT_ERROR = 4


@dataclass(frozen=True)
class _SlaveStats:
    """Final per-slave report, sent on the pipe after the protocol stop.

    When telemetry is on it also carries the slave session's event list
    (``events``: spans, machine events and, under causal tracing, causal
    records) and its metrics registry snapshot (``metrics``) — this is how
    slave-side telemetry reaches the master without any channel beyond
    the existing pipes.
    """

    produced: int
    alignments: int
    dp_cells: int
    events: tuple[dict, ...] = ()
    metrics: dict | None = None


@dataclass(frozen=True)
class _SlaveError:
    """Typed crash report: the slave hit an exception in its own
    computation (sent on the pipe before exiting nonzero)."""

    slave_id: int
    traceback: str


def _start_on_own_cpu(slave_id: int) -> None:
    """Move this freshly forked slave to a CPU of its own — round-robin
    over the CPUs it may use — and hand placement back to the scheduler.

    A forked child starts on its parent's CPU and leaves it only when the
    kernel balances load, which some hosts do late or never: on the
    2-vCPU benchmark microVM, two CPU-bound children shared one core for
    their whole life, the other idling, in a varying share of runs — the
    slaves then run one after the other and ``wall_s`` reads 1.1 s or
    1.5 s from run to run (EXPERIMENTS.md, "Interval lsets and the default
    flip", slave placement).  Narrowing the mask to one CPU migrates the
    process at once; restoring it straight away leaves no pin behind.
    """
    if not hasattr(os, "sched_setaffinity"):  # not Linux
        return
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        return
    try:
        os.sched_setaffinity(0, {sorted(allowed)[slave_id % len(allowed)]})
        os.sched_setaffinity(0, allowed)
    except OSError:  # a sandbox that forbids the call: placement is a hint
        pass


def _slave_worker(
    conn: Connection,
    source: SuffixArrayGst | GstBundle,
    ranges: list[tuple[int, int]],
    config: ClusteringConfig,
    slave_id: int,
    fault_plan: FaultPlan | None = None,
    incarnation: int = 0,
    origin: float | None = None,
    traced: bool = False,
    sample_interval: float | None = None,
    master_ends: tuple[Connection, ...] = (),
) -> None:
    """Slave process main: bootstrap, then request/response until stop.

    ``master_ends`` are the master-side ends of this slave's pipe and of
    every live peer's, which the fork copied into this process.  They are
    closed first thing: EOF on its pipe is how a slave learns the master
    is gone (it exited, was interrupted or killed), and a copy held open
    here would keep that EOF from ever reaching this slave or its peers.

    ``source`` is either the legacy in-process :class:`SuffixArrayGst`
    (``shared_arenas=False``) or a :class:`GstBundle` of shared-memory
    descriptors: the slave then attaches read-only views of the master's
    pages instead of deserialising anything.

    ``origin`` is the master session's monotonic origin: this process
    keeps its own session on the run clock — wall offsets directly
    comparable to the master's, since ``CLOCK_MONOTONIC`` is machine-wide
    — which stamps everything it records: events, live samples, a flight
    dump.  ``traced`` switches that session on, and the slave ships its
    events and metrics back inside its final :class:`_SlaveStats`;
    otherwise it is a disabled one whose instruments are no-ops (with
    ``config.flight_dir`` set it still keeps its newest events for the
    flight recorder).

    ``sample_interval`` (set only when a :class:`RunMonitor` is attached)
    switches on live sampling: at most once per interval, the slave's
    ``live`` record (a plain dict, :func:`~repro.telemetry.live.live_record`)
    is pushed down the pipe immediately before the next protocol message.
    Samples ride the existing pipe as low-priority messages the master
    absorbs without replying, so the strict reply/message alternation is
    untouched — and because sampling is inline with the main loop (no
    thread), a hung slave stops sampling, which is exactly what straggler
    detection wants to see.
    With ``sample_interval=None`` no sampling code runs at all.

    Any exception in pair generation or alignment is reported as a typed
    :class:`_SlaveError` message before exiting nonzero — a silent death
    is indistinguishable from a crash and would trigger a pointless
    restart of a deterministic failure.
    """
    _start_on_own_cpu(slave_id)
    for end in master_ends:
        end.close()
    injector = FaultInjector(fault_plan, slave_id, incarnation)
    tel = Telemetry(enabled=traced, origin=origin, causal=config.causal_tracing)
    actor = f"slave{slave_id}"
    flight: FlightRecorder | None = None
    if config.flight_dir is not None:
        flight = FlightRecorder(config.flight_dir, actor, tel)
        flight.install_sigterm()
        # Injected kills call os._exit directly (no except clause fires),
        # so the injector dumps the ring for us on its way out.
        injector.on_fatal = flight.dump
    registry: ArenaRegistry | None = None
    try:
        if isinstance(source, GstBundle):
            registry = ArenaRegistry()
            gst = attach_gst(source, registry)
        else:
            gst = source
        with tel.span("sort_nodes", actor=actor):
            slave = build_slave(
                gst,
                config,
                slave_id,
                ranges,
                telemetry=tel if tel.enabled else None,
                incarnation=incarnation,
            )
        logic = slave.logic
        if flight is not None:
            # Dump-time snapshot of what this slave was holding.
            flight.state_provider = lambda: {
                "incarnation": incarnation,
                "msg_index": injector.msg_index,
                "pairbuf_depth": len(logic.pairbuf),
                "produced": logic.generator.produced,
                "alignments": logic.total_alignments,
                "exhausted": logic.generator.exhausted,
            }
        sampler = ResourceSampler() if sample_interval is not None else None
        last_sample = 0.0

        def live_sample() -> dict:
            return slave.sample(
                tel.now(),
                incarnation=incarnation,
                rss_bytes=sampler.rss_bytes(),
                cpu_seconds=sampler.cpu_seconds(),
            )

        lat = tel.latency
        t_start = tel.now()
        out = logic.bootstrap()
        slave.stamp_causal(tel, tel.now())
        tel.trace("compute", actor, t_start, tel.now(), "bootstrap")
        while True:
            if sampler is not None:
                wall = time.monotonic()
                if wall - last_sample >= sample_interval:
                    last_sample = wall
                    conn.send(live_sample())
            injector.before_send()
            tel.trace(
                "send",
                actor,
                tel.now(),
                detail=f"to master: {out.n_results} results, {out.n_pairs} pairs",
            )
            if tel.enabled:
                out = replace(out, sent_at=tel.now())
            conn.send(out)
            injector.after_send()
            reply = conn.recv()
            t_start = tel.now()
            tel.trace("recv", actor, t_start, detail="reply from master")
            tel.observe("slave.pairbuf_depth", len(logic.pairbuf), DEFAULT_BUCKETS)
            # One message's pipe time, from the master's stamp to here
            # (same CLOCK_MONOTONIC origin across fork).
            if reply.sent_at >= 0:
                lat.observe("transit", t_start - reply.sent_at)
            # Split the protocol step so the NEXTWORK alignment and the
            # blocking PAIRBUF refill report as separate stages.
            had_nextwork = bool(logic.nextwork)
            logic.align_pending()
            t_aligned = tel.now()
            if had_nextwork:
                lat.observe("align", t_aligned - t_start)
            out = logic.finish_step(reply)
            if logic.last_costs.pairs_generated_blocking:
                lat.observe("generate", tel.now() - t_aligned)
            slave.stamp_causal(tel, tel.now())
            tel.trace("compute", actor, t_start, tel.now(), "step")
            if out is None:
                if sampler is not None:
                    conn.send(live_sample())  # final counters, exhausted flag
                tel.trace("send", actor, tel.now(), detail="final stats")
                conn.send(
                    _SlaveStats(
                        produced=logic.generator.produced,
                        alignments=logic.total_alignments,
                        dp_cells=logic.total_dp_cells,
                        events=tuple(tel.events) if tel.enabled else (),
                        metrics=tel.registry.snapshot() if tel.enabled else None,
                    )
                )
                conn.close()
                if registry is not None:
                    registry.close()
                return
    except _PIPE_ERRORS:
        # The master went away (or tore this pipe down on purpose);
        # there is nobody left to report to.
        if flight is not None:
            flight.dump("pipe-lost")
        os._exit(_EXIT_PIPE_LOST)
    except BaseException:
        if flight is not None:
            flight.dump("crash")
        try:
            conn.send(_SlaveError(slave_id=slave_id, traceback=traceback.format_exc()))
        except Exception:
            pass
        os._exit(_EXIT_ERROR)


def _start_process(proc: mp.process.BaseProcess) -> None:
    """Start one slave process.  A module-level seam so tests can inject
    spawn failures (e.g. fail on the k-th of p starts) and assert the
    partial startup state is torn down."""
    proc.start()


@dataclass
class _SlaveHandle:
    """Master-side view of one live slave process."""

    slave_id: int
    proc: mp.process.BaseProcess
    conn: Connection
    #: Monotonic time since which the master has been owed a message
    #: (``None`` while the slave is parked on the wait queue).
    expecting_since: float | None
    restarts: int = 0


def cluster_multiprocessing(
    collection: EstCollection,
    config: ClusteringConfig | None = None,
    *,
    n_processors: int = 4,
    faults: FaultPlan | None = None,
    tolerance: FaultTolerance | None = None,
    telemetry: Telemetry | None = None,
    monitor: RunMonitor | None = None,
) -> ClusteringResult:
    """Cluster with 1 master process + ``n_processors - 1`` slave processes.

    ``faults`` injects deterministic failures (testing); ``tolerance``
    sets detection timeouts and the restart budget; ``telemetry``
    (optional) records the full instrumented run — phase spans, metrics,
    and a send/recv/compute/fault timeline assembled from the master's
    session plus the per-slave sessions' events forwarded over the result
    pipes — and snapshots it onto ``result.telemetry``; ``monitor`` (optional,
    or created here when ``config.monitor_port`` is set) streams live
    per-slave progress and resource samples while the run executes.
    The master's index and protocol state are garbage once the run
    returns; their freed heap goes back to the operating system.
    """
    result = _run_master(
        collection,
        config,
        n_processors=n_processors,
        faults=faults,
        tolerance=tolerance,
        telemetry=telemetry,
        monitor=monitor,
    )
    release_free_heap()
    return result


def _run_master(
    collection: EstCollection,
    config: ClusteringConfig | None,
    *,
    n_processors: int,
    faults: FaultPlan | None,
    tolerance: FaultTolerance | None,
    telemetry: Telemetry | None,
    monitor: RunMonitor | None,
) -> ClusteringResult:
    if n_processors < 2:
        raise ValueError("the parallel machine needs a master and >= 1 slave")
    config = config or ClusteringConfig()
    tolerance = tolerance or FaultTolerance()
    n_slaves = n_processors - 1
    core = EngineCore(config, n_slaves, telemetry=telemetry)
    tel = core.tel  # drops every event when telemetry is off

    with tel.span("gst_construction", n_ests=collection.n_ests):
        gst = SuffixArrayGst.build(collection)
    with tel.span("partitioning"):
        core.plan(gst)
    master = core.master

    # Publish the built index once; slaves attach by descriptor.  The
    # master owns every segment and unlinks them in the finally below.
    shared: GstArenas | None = None
    if config.shared_arenas:
        with tel.span("arena_setup"):
            shared = GstArenas.create(gst)
    slave_source: SuffixArrayGst | GstBundle = (
        shared.bundle if shared is not None else gst
    )

    ctx = mp.get_context("fork")
    live: dict[int, _SlaveHandle] = {}
    spawned: list[_SlaveHandle] = []  # every incarnation, for the teardown
    stats: dict[int, _SlaveStats] = {}

    flight: FlightRecorder | None = None

    def record_fault(actor: str, detail: str) -> None:
        tel.trace("fault", actor, tel.now(), detail=detail)
        if flight is not None:
            # Every fault transition refreshes the on-disk dump: the
            # newest master state is the one a postmortem wants.
            flight.dump("fault-transition", force=True)

    def spawn(slave_id: int, incarnation: int) -> _SlaveHandle:
        parent_conn, child_conn = ctx.Pipe()
        try:
            proc = ctx.Process(
                target=_slave_worker,
                args=(
                    child_conn,
                    slave_source,
                    core.ranges_of[slave_id],
                    config,
                    slave_id,
                    faults,
                    incarnation,
                    tel.origin,
                    tel.enabled,
                    core.monitor.interval if core.monitor is not None else None,
                    (parent_conn, *(h.conn for h in live.values())),
                ),
                daemon=True,
            )
            _start_process(proc)
        except BaseException:
            # A failed spawn must not leak its pipe: neither end ever
            # reached the bookkeeping list the finally block closes.
            parent_conn.close()
            child_conn.close()
            raise
        child_conn.close()
        handle = _SlaveHandle(
            slave_id=slave_id,
            proc=proc,
            conn=parent_conn,
            expecting_since=time.monotonic(),
            restarts=incarnation,
        )
        spawned.append(handle)
        return handle

    def reap(handle: _SlaveHandle) -> None:
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.proc.is_alive():
            handle.proc.terminate()
        handle.proc.join(timeout=5)

    def send_reply(handle: _SlaveHandle, reply) -> bool:
        """Send a master reply; False means the pipe is already dead."""
        if tel.enabled:
            reply = replace(reply, sent_at=tel.now())
        try:
            handle.conn.send(reply)
        except _PIPE_ERRORS:
            return False
        tel.trace("send", "master", tel.now(), detail=f"to slave{handle.slave_id}")
        handle.expecting_since = time.monotonic()
        return True

    def flush_wait_queue(deaths: set[int]) -> None:
        for waiter_id, waiter_reply in master.drain_wait_queue(now=tel.now()):
            handle = live.get(waiter_id)
            if handle is not None and not send_reply(handle, waiter_reply):
                deaths.add(waiter_id)

    def handle_msg(handle: _SlaveHandle, msg, deaths: set[int]) -> None:
        if isinstance(msg, dict):
            # A low-priority live record (slaves sample only for a
            # monitor): absorb it without a reply and without touching
            # ``expecting_since`` — a wedged slave that somehow kept
            # sampling must still trip the fault deadline.
            core.monitor.record(msg)
            return
        t_recv = tel.now()
        tel.trace("recv", "master", t_recv, detail=f"from slave{handle.slave_id}")
        if isinstance(msg, _SlaveStats):
            # The last word of a cleanly stopped slave: retire its handle.
            stats[handle.slave_id] = msg
            del live[handle.slave_id]
            handle.conn.close()
            handle.proc.join(timeout=5)
            if tel.enabled:
                # The slave's whole recorded run arrives with its final
                # stats: its event list and its metric snapshot.
                tel.events.extend(msg.events)
                tel.registry.merge_snapshot(msg.metrics)
            return
        if isinstance(msg, _SlaveError):
            core.faults.slave_errors += 1
            record_fault(f"slave{handle.slave_id}", "reported fatal error")
            core.publish(t_recv)
            raise SlaveFailure(handle.slave_id, msg.traceback)
        handle.expecting_since = None
        reply = core.on_message(msg, t_recv)
        t_done = tel.now()
        core.absorbed(t_done - t_recv)
        tel.trace(
            "compute", "master", t_recv, t_done, f"incorporate slave{handle.slave_id}"
        )
        if reply is not None and not send_reply(handle, reply):
            deaths.add(handle.slave_id)
        flush_wait_queue(deaths)

    def handle_death(slave_id: int, deaths: set[int]) -> None:
        handle = live.pop(slave_id, None)
        if handle is None:
            return
        reap(handle)
        if slave_id in master.stopped:
            # Died after its protocol stop without delivering final stats:
            # nothing to recover, its stats default to zero.
            record_fault(f"slave{slave_id}", "exited after stop without stats")
            return
        record_fault(f"slave{slave_id}", "lost (crash or timeout)")
        revive = handle.restarts < tolerance.max_restarts
        lost = core.slave_lost(slave_id, tel.now(), revive=revive)
        if revive:
            backoff = tolerance.backoff_for(handle.restarts)
            if backoff > 0:
                time.sleep(backoff)
            live[slave_id] = spawn(slave_id, handle.restarts + 1)
            record_fault(
                f"slave{slave_id}",
                f"restarted (incarnation {handle.restarts + 1}, "
                f"{lost.requeued} pairs requeued)",
            )
        else:
            record_fault(
                "master",
                f"degraded recovery of slave{slave_id}: {lost.requeued} in-flight "
                f"pairs requeued, {lost.admitted}/{lost.produced} regenerated "
                f"pairs admitted",
            )
        flush_wait_queue(deaths)

    def bury(deaths: set[int]) -> None:
        """Recover from every death in ``deaths``, lowest id first; the
        replies a recovery sends can find further dead pipes, which join
        the set and are recovered in the same pass."""
        done: set[int] = set()
        while deaths - done:
            k = min(deaths - done)
            done.add(k)
            handle_death(k, deaths)

    def drain_conn(handle: _SlaveHandle, deaths: set[int], *, first_blocking: bool) -> None:
        """Receive every available message from one slave.

        ``first_blocking`` performs one blocking ``recv`` first (the pipe
        was reported ready); subsequent receives only happen while data
        is already buffered.
        """
        try:
            if first_blocking:
                handle_msg(handle, handle.conn.recv(), deaths)
            while (
                handle.slave_id in live
                and handle.slave_id not in deaths
                and handle.conn.poll()
            ):
                handle_msg(handle, handle.conn.recv(), deaths)
        except _PIPE_ERRORS:
            deaths.add(handle.slave_id)

    def run_protocol() -> None:
        monitor = core.monitor
        master_sampler = ResourceSampler()
        last_master_sample = 0.0
        try:
            for k in range(n_slaves):
                live[k] = spawn(k, 0)
        except BaseException:
            # Spawning slave k failed: tear down the k-1 already
            # running slaves (and their pipes) before propagating,
            # so a partial startup never leaks handles.
            for handle in live.values():
                reap(handle)
            live.clear()
            raise

        stall_polls = 0
        # Keep looping until the protocol is finished AND every live
        # slave has drained (final stats arrive after the stop reply);
        # with nobody left to talk to, degrade below.
        while live:
            ready = wait(
                [x for h in live.values() for x in (h.conn, h.proc.sentinel)],
                timeout=tolerance.poll_interval,
            )
            deaths: set[int] = set()

            wall = time.monotonic()
            ts = tel.now()
            if monitor is not None and wall - last_master_sample >= monitor.interval:
                last_master_sample = wall
                monitor.record(
                    live_record(
                        "master",
                        ts,
                        rss_bytes=master_sampler.rss_bytes(),
                        cpu_seconds=master_sampler.cpu_seconds(),
                    )
                )
            core.publish(ts)

            # Pipes first: a dying slave may have flushed final
            # messages (or a typed error report) before exiting.
            for k, handle in list(live.items()):
                if handle.conn in ready and k not in deaths:
                    drain_conn(handle, deaths, first_blocking=True)
            for k, handle in list(live.items()):
                if handle.proc.sentinel in ready and k in live and k not in deaths:
                    drain_conn(handle, deaths, first_blocking=False)
                    if k in live:
                        deaths.add(k)  # process exited without a clean stop
            # Deadlines: a slave that owes a message and has gone
            # silent is dead to the protocol even if the OS still
            # shows a process (hang/livelock).
            now = time.monotonic()
            for k, handle in list(live.items()):
                if k in deaths or handle.expecting_since is None:
                    continue
                if now - handle.expecting_since > tolerance.slave_timeout:
                    record_fault(f"slave{k}", "deadline exceeded")
                    deaths.add(k)
            bury(deaths)

            # Stall guard: if nothing is in flight and nobody owes us
            # a message, only the master could make progress — and it
            # just declined to.  Raising beats hanging forever.
            if ready or deaths:
                stall_polls = 0
            elif all(h.expecting_since is None for h in live.values()):
                flush_wait_queue(deaths)
                bury(deaths)
                stall_polls += 1
                if stall_polls > 2:
                    raise RuntimeError(
                        "parallel runtime stalled: every slave is parked, "
                        "WORKBUF is empty, and the protocol cannot finish "
                        f"({sorted(live)} live, "
                        f"{sorted(master.stopped)} stopped)"
                    )

        if master.workbuf_depth:
            # Only reachable when slaves died with restarts exhausted:
            # their ranges were reabsorbed into WORKBUF but no slave
            # survived to align them, so the master finishes the
            # remaining alignments itself (last-resort degraded mode).
            t_drain = tel.now()
            core.drain_locally(t_drain)
            tel.trace(
                "compute", "master", t_drain, tel.now(), "degraded: align locally"
            )
            record_fault(
                "master",
                f"finished degraded: aligned {core.local_aligned} pairs locally",
            )
        if not master.finished():  # pragma: no cover - protocol invariant
            raise RuntimeError("runtime exited before every slave stopped")
        core.publish(tel.now())

    try:
        with monitored_run(
            monitor,
            config,
            tel,
            n_slaves,
            engine="multiprocessing",
            # Flag stragglers well before the fault deadline declares
            # them dead (sampling pauses with the slave, so staleness is
            # the same signal the deadline machinery keys on).
            straggler_after=tolerance.slave_timeout / 2,
        ) as core.monitor:
            if config.flight_dir is not None:
                flight = FlightRecorder(
                    config.flight_dir,
                    "master",
                    tel,
                    run_id=tel.run_id
                    or (core.monitor.run_id if core.monitor is not None else ""),
                    # Dump-time snapshot of master custody.
                    state_provider=lambda: {"live": sorted(live), **master.custody()},
                )
            with tel.span("alignment"):
                run_protocol()
    except BaseException:
        # The coordinator itself is going down: capture what it knew.
        if flight is not None:
            flight.dump("crash", force=True)
        raise
    finally:
        for handle in spawned:
            try:
                handle.conn.close()
            except OSError:
                pass
        for handle in spawned:
            handle.proc.join(timeout=10)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(timeout=5)
        # Unlink the shared segments only after every slave is gone;
        # idempotent, and reached on clean completion, slave faults, and
        # KeyboardInterrupt alike.
        if shared is not None:
            shared.dispose()

    return core.finish(
        # Slaves that never reported final stats (crashes) count as
        # incomplete rather than being silently undercounted.
        ((s.produced, s.alignments, s.dp_cells) for s in stats.values()),
        incomplete_slaves=n_slaves - len(stats),
        messages=master.stats.messages,
        engine="multiprocessing",
        n_processors=n_processors,
        clock="wall",
    )
