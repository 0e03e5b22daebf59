"""The engine core: what both parallel engines do identically, once.

The discrete-event simulator (:mod:`repro.parallel.sim_machine`) and the
multiprocessing backend (:mod:`repro.parallel.mp_backend`) run the same
§3.3 protocol over the same plan with the same recovery actions and
assemble the same result.  They differ in their *clock* (virtual seconds
charged from a cost model | the wall) and their *wire* (an event heap |
OS pipes), and that is all each engine file keeps.  The rest is here:
:func:`build_slave`, the slave factory the simulator calls in-process and
the mp worker inside its fork, and :class:`EngineCore` — planning and the
master, the observed master step, the monitor publish, slave-loss
recovery, the last-resort local drain and result assembly.  Whoever owns
bucket ranges builds their interval forest, once, where it is used: a
slave in :func:`build_slave`, the master only in :meth:`EngineCore
.slave_lost` when a slave is lost for good.

The core never reads a clock: every call takes the engine's ``now`` as a
plain value, so a test can drive it with scripted events under a fake
clock (``tests/test_engine_core.py``).  It also never asks which engine
it serves — anything that would need that answer stays in the engine,
the event loop first of all (DESIGN.md §5g says why).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.align.batch import make_aligner
from repro.cluster.greedy import WorkCounters
from repro.core.config import ClusteringConfig
from repro.core.results import ClusteringResult, FaultCounters
from repro.pairs.batch import make_pair_generator
from repro.pairs.ondemand import OnDemandPairGenerator
from repro.parallel.faults import reabsorb_ranges
from repro.parallel.partition import assign_buckets
from repro.parallel.protocol import MasterLogic, MasterMsg, SlaveLogic, SlaveMsg
from repro.suffix.gst import SuffixArrayGst
from repro.telemetry import Telemetry
from repro.telemetry.causal import NULL_MINTER, UnitMinter
from repro.telemetry.live import live_record
from repro.telemetry.registry import DEFAULT_BUCKETS
from repro.util.timing import TimingBreakdown

__all__ = ["EngineCore", "Recovery", "Slave", "build_slave"]


@dataclass
class Slave:
    """One slave's protocol state machine plus what its engine samples."""

    logic: SlaveLogic
    #: The raw suffix-array pair generator under ``logic.generator``.
    generator: object
    #: Forest nodes the generator owns (denominator of its position).
    total_nodes: int

    def sample(self, ts: float, **resources) -> dict:
        """This slave's ``live`` record at ``ts``; ``resources`` are the
        engine's own readings (cpu, rss, incarnation, …)."""
        logic = self.logic
        return live_record(
            f"slave{logic.slave_id}",
            ts,
            pairs_generated=logic.generator.produced,
            alignments=logic.total_alignments,
            dp_cells=logic.total_dp_cells,
            pairbuf_depth=len(logic.pairbuf),
            # The resumable position: both generators walk their forests
            # node by node and count, so this is exact and free to read.
            gen_position=min(
                1.0, self.generator.stats.nodes_processed / max(1, self.total_nodes)
            ),
            exhausted=logic.generator.exhausted,
            **resources,
        )

    def stamp_causal(self, telemetry: Telemetry, ts: float) -> None:
        """Record the logic's clock-free causal facts in ``telemetry`` at
        the engine's clock ``ts`` (nothing is pending when causal tracing
        is off)."""
        for event, unit, n in self.logic.drain_causal():
            telemetry.record_causal(
                event, unit, n, actor=f"slave{self.logic.slave_id}", ts=ts
            )


def build_slave(
    gst: SuffixArrayGst,
    config: ClusteringConfig,
    slave_id: int,
    ranges: list[tuple[int, int]],
    *,
    telemetry: Telemetry | None = None,
    incarnation: int = 0,
) -> Slave:
    """Build slave ``slave_id`` over its bucket ``ranges`` — its pair
    generator builds the interval forest of those ranges here, in the
    slave.  ``telemetry`` is an enabled session or ``None``."""
    generator = make_pair_generator(gst, config, ranges=ranges, telemetry=telemetry)
    aligner = make_aligner(gst.collection, config, telemetry=telemetry)
    traced = config.causal_tracing and telemetry is not None
    logic = SlaveLogic(
        slave_id=slave_id,
        generator=OnDemandPairGenerator(generator.blocks(), telemetry=telemetry),
        aligner=aligner,
        batchsize=config.batchsize,
        pairbuf_capacity=config.pairbuf_capacity,
        minter=UnitMinter(slave_id, incarnation) if traced else NULL_MINTER,
    )
    return Slave(logic, generator, generator.total_nodes)


class Recovery(NamedTuple):
    """What :meth:`EngineCore.slave_lost` did, for the engine to charge
    and narrate: in-flight pairs requeued, and — on the degraded path —
    pairs regenerated master-side and how many of them were admitted."""

    requeued: int
    produced: int = 0
    admitted: int = 0


class EngineCore:
    """Plan, master, recovery and result assembly for one parallel run.

    Two steps, because planning is a phase the wall-clock engine times
    with the session this object owns: construct, then :meth:`plan` over
    the built index.
    """

    def __init__(
        self,
        config: ClusteringConfig,
        n_slaves: int,
        *,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config
        self.n_slaves = n_slaves
        self._snapshot = telemetry is not None
        #: The one recorder of the run's events, disabled when nobody
        #: asked for telemetry; it keeps causal records only under
        #: ``config.causal_tracing``.
        self.tel = telemetry if telemetry is not None else Telemetry(enabled=False)
        self.tel.causal = config.causal_tracing and self.tel.enabled
        #: What instrumented components are handed: the session when it
        #: records, else ``None`` (their own "off" convention).
        self.sink = self.tel if self.tel.enabled else None
        self.faults = FaultCounters()
        #: Set by the engine from :func:`~repro.telemetry.monitor.monitored_run`.
        self.monitor = None
        # Master-side work done in degraded mode (kept out of MasterStats
        # so the protocol state machine stays recovery-agnostic).
        self.regenerated = 0
        self.local_aligned = 0
        self._aligner = None

    def plan(self, gst: SuffixArrayGst) -> None:
        """Partition ``gst``'s w-prefix buckets over the slaves and stand
        up the master."""
        config = self.config
        self.gst = gst
        self.assignment = assign_buckets(gst.bucket_ranges(config.w), self.n_slaves)
        #: Suffix-array rank ranges ``(lo, hi)`` each slave owns.
        self.ranges_of = [
            [(lo, hi) for _key, lo, hi in owned]
            for owned in self.assignment.per_processor
        ]
        self.master = MasterLogic(
            gst.collection.n_ests,
            self.n_slaves,
            batchsize=config.batchsize,
            workbuf_capacity=config.workbuf_capacity,
            telemetry=self.tel,
        )

    def build_slave(self, slave_id: int, *, incarnation: int = 0) -> Slave:
        return build_slave(
            self.gst,
            self.config,
            slave_id,
            self.ranges_of[slave_id],
            telemetry=self.sink,
            incarnation=incarnation,
        )

    # ---- the master step ---------------------------------------------- #

    def on_message(self, msg: SlaveMsg, now: float) -> MasterMsg | None:
        """Hand one slave message to the master at engine time ``now``;
        returns the reply, or ``None`` when the slave was parked (wake it
        later through the master's ``drain_wait_queue``).  A message the
        wire stamped at send time reports its transit here."""
        if msg.sent_at >= 0:
            self.tel.latency.observe("transit", now - msg.sent_at)
        return self.master.on_message(msg, now=now)

    def absorbed(self, seconds: float) -> None:
        """The engine's duration for the :meth:`on_message` just done,
        observed with the WORKBUF depth it left."""
        self.tel.latency.observe("absorb", seconds)
        self.tel.observe(
            "master.workbuf_depth", self.master.workbuf_depth, DEFAULT_BUCKETS
        )

    def publish(self, ts: float) -> None:
        """Hand the live monitor the master's accounting at engine time
        ``ts`` as one ``live_state`` record: queue depth, message, merge
        and dispatch counts, the non-zero fault counters, and the lost and
        stopped slaves."""
        if self.monitor is None:
            return
        master = self.master
        stats = master.stats
        self.monitor.record(
            {
                "kind": "live_state",
                "ts": ts,
                "workbuf_depth": master.workbuf_depth,
                "messages": stats.messages,
                "merges": stats.merges,
                "pairs_dispatched": stats.pairs_dispatched,
                "faults": {k: v for k, v in self.faults.as_dict().items() if v},
                "lost": sorted(master.lost),
                "stopped": sorted(master.stopped),
            }
        )

    # ---- recovery ----------------------------------------------------- #

    def slave_lost(self, slave_id: int, now: float, *, revive: bool) -> Recovery:
        """Recover from the loss of ``slave_id``, detected at ``now``.

        Its unreported in-flight pairs are requeued.  With ``revive`` the
        id is re-admitted for the replacement the engine is about to
        start (which re-enters by a fresh bootstrap).  Otherwise the run
        degrades: the slave's promising pairs are regenerated in the
        master — deterministic over its ranges, so nothing unreported
        can be missed — for the survivors (or :meth:`drain_locally`) to
        align.  That is the one case in which the master builds a
        forest: the lost slave's, in one pass.
        """
        master = self.master
        requeued = master.slave_lost(slave_id, now=now)
        self.faults.slaves_lost += 1
        self.faults.pairs_reassigned += requeued
        if revive:
            master.slave_revived(slave_id)
            self.faults.restarts += 1
            return Recovery(requeued)
        generator = make_pair_generator(
            self.gst, self.config, ranges=self.ranges_of[slave_id]
        )
        produced, admitted = reabsorb_ranges(master, generator, now=now)
        self.regenerated += produced
        self.faults.pairs_reassigned += admitted
        return Recovery(requeued, produced, admitted)

    def drain_locally(self, now: float) -> tuple[int, int]:
        """No slave survives to be sent WORKBUF: align it in the master.
        Returns ``(alignments, model DP cells)``."""
        if self._aligner is None:
            self._aligner = make_aligner(
                self.gst.collection, self.config, telemetry=self.sink
            )
        cells_before = self._aligner.model_cells_total
        aligned = self.master.align_locally(self._aligner, now=now)
        self.local_aligned += aligned
        return aligned, self._aligner.model_cells_total - cells_before

    # ---- result assembly ---------------------------------------------- #

    def finish(
        self,
        slave_totals: Iterable[tuple[int, int, int]],
        *,
        incomplete_slaves: int,
        messages: int,
        **meta,
    ) -> ClusteringResult:
        """Assemble the run's :class:`ClusteringResult`.

        ``slave_totals`` holds ``(pairs generated, alignments, DP cells)``
        per slave that reported; ``incomplete_slaves`` counts those that
        never did (so undercounts are flagged, not silent).  ``messages``
        is the engine's own count; ``meta`` labels the telemetry snapshot
        (``engine``, ``n_processors``, ``clock``, ``total_time``).
        Timings are whatever phase seconds the session's registry holds.
        """
        tel, master = self.tel, self.master
        self.faults.incomplete_slaves = incomplete_slaves
        totals = list(slave_totals)
        stats = master.stats
        counters = WorkCounters(
            pairs_generated=sum(t[0] for t in totals) + self.regenerated,
            pairs_skipped=stats.pairs_skipped,
            pairs_processed=sum(t[1] for t in totals) + self.local_aligned,
            pairs_accepted=stats.results_accepted,
            dp_cells=sum(t[2] for t in totals)
            + (self._aligner.dp_cells_total if self._aligner else 0),
        )
        if tel.enabled:
            tel.record_faults(self.faults)
            tel.count("messages.exchanged", messages)
        snapshot = tel.snapshot(**meta) if self._snapshot else None
        manager = master.manager
        return ClusteringResult(
            n_ests=self.gst.collection.n_ests,
            clusters=manager.clusters(),
            counters=counters,
            timings=TimingBreakdown(registry=tel.registry),
            merges=list(manager.merges),
            faults=self.faults,
            telemetry=snapshot,
        )
