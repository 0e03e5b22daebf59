"""Live run state: streaming slave samples, resource readings, progress.

PR 2's telemetry materialises only *after* a run completes (slave
registries ride home in the final ``_SlaveStats``), so a long clustering
job is a black box until it ends.  This module is the data layer of the
live monitor that fixes that:

- :class:`LiveSample` — the low-priority protocol message a slave pushes
  periodically over its existing pipe: cumulative work counters
  (pairs generated / aligned / DP cells), the on-demand generator's
  resumable position, and resource readings (RSS, CPU time);
- :class:`ResourceSampler` — dependency-free RSS/CPU sampling
  (``/proc/self/statm`` with a :func:`resource.getrusage` fallback);
- :class:`LiveRunState` — the master-side aggregate: per-slave progress
  views, overall progress and a work-remaining ETA, straggler flags fed
  by the same deadline the fault-tolerance layer uses, and mirrors of
  the master's own queue/fault accounting.

Everything here is plain data + stdlib; the HTTP endpoint, status lines
and terminal rendering live in :mod:`repro.telemetry.monitor`.

Sample timestamps are the run's telemetry clock, ``Telemetry.now()`` of
the session the engine runs under (virtual seconds in the simulator), and
the live stream's ``origin`` is that session's, so live records and the
post-run trace share one time axis.  Live records are JSONL ``{"kind":
"live", ...}`` lines; they stream into ``--live-out`` files only (the
run's event list never holds them), which ``pace-est monitor`` replays.
"""

from __future__ import annotations

import os
import resource
import sys
from dataclasses import dataclass

__all__ = [
    "LiveSample",
    "MASTER_ID",
    "ResourceSampler",
    "SlaveView",
    "LiveRunState",
    "replay_live_records",
]

#: ``slave_id`` of samples describing the master process itself.
MASTER_ID = -1


# --------------------------------------------------------------------- #
# resource sampling
# --------------------------------------------------------------------- #


def _read_statm_rss(page_size: int) -> int | None:
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * page_size
    except (OSError, IndexError, ValueError):
        return None


def _ru_maxrss_bytes(peak: int | None = None, platform: str | None = None) -> int:
    # ru_maxrss units are platform-defined: KiB on Linux (and the BSDs),
    # bytes on macOS.  The old "KiB unless implausibly large" heuristic
    # inflated any macOS reading under 4 GiB by 1024x.
    if peak is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform is None:
        platform = sys.platform
    return peak if platform == "darwin" else peak * 1024


class ResourceSampler:
    """Current and peak memory plus CPU time for *this* process.

    ``rss_bytes`` prefers ``/proc/self/statm`` (current RSS; Linux);
    elsewhere it falls back to the ``getrusage`` high-water mark, which
    only ever grows but never lies low.  ``cpu_seconds`` is user+system
    time.  All readings are cheap enough to take at a 1 s cadence without
    perturbing the run.
    """

    def __init__(self) -> None:
        self._page_size = os.sysconf("SC_PAGESIZE") if hasattr(os, "sysconf") else 4096
        self._statm_works = _read_statm_rss(self._page_size) is not None

    def rss_bytes(self) -> int:
        if self._statm_works:
            rss = _read_statm_rss(self._page_size)
            if rss is not None:
                return rss
        return _ru_maxrss_bytes()

    def peak_rss_bytes(self) -> int:
        """High-water-mark RSS (``VmHWM`` / ``ru_maxrss``) — what the
        memory-model comparison in :mod:`repro.metrics.memory` reads."""
        try:
            with open("/proc/self/status", "rb") as fh:
                for line in fh:
                    if line.startswith(b"VmHWM:"):
                        return int(line.split()[1]) * 1024
        except (OSError, IndexError, ValueError):
            pass
        return _ru_maxrss_bytes()

    def cpu_seconds(self) -> float:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return ru.ru_utime + ru.ru_stime


# --------------------------------------------------------------------- #
# the streaming sample
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class LiveSample:
    """One incremental progress/resource report from one actor.

    Picklable and small: it travels the existing master–slave pipes as a
    low-priority message (the master absorbs it without a reply, so the
    strict reply/message alternation of the §3.3 protocol is untouched).
    ``ts`` is the run's telemetry clock — wall seconds since the session
    origin, virtual time in the simulator.  Counters are
    cumulative within one incarnation; ``gen_position`` is the resumable
    position of the on-demand pair generator (processed nodes over owned
    nodes, 1.0 once exhausted).
    """

    slave_id: int
    ts: float
    incarnation: int = 0
    rss_bytes: int = 0
    cpu_seconds: float = 0.0
    pairs_generated: int = 0
    alignments: int = 0
    dp_cells: int = 0
    pairbuf_depth: int = 0
    gen_position: float = 0.0
    exhausted: bool = False
    phase: str = "alignment"

    @property
    def actor(self) -> str:
        return "master" if self.slave_id == MASTER_ID else f"slave{self.slave_id}"

    def as_record(self) -> dict:
        """The JSONL ``live`` record."""
        return {
            "kind": "live",
            "actor": self.actor,
            "ts": self.ts,
            "incarnation": self.incarnation,
            "rss_bytes": self.rss_bytes,
            "cpu_seconds": self.cpu_seconds,
            "pairs_generated": self.pairs_generated,
            "alignments": self.alignments,
            "dp_cells": self.dp_cells,
            "pairbuf_depth": self.pairbuf_depth,
            "gen_position": self.gen_position,
            "exhausted": self.exhausted,
            "phase": self.phase,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "LiveSample":
        actor = rec.get("actor", "master")
        slave_id = MASTER_ID if actor == "master" else int(actor.removeprefix("slave"))
        return cls(
            slave_id=slave_id,
            ts=float(rec.get("ts", 0.0)),
            incarnation=int(rec.get("incarnation", 0)),
            rss_bytes=int(rec.get("rss_bytes", 0)),
            cpu_seconds=float(rec.get("cpu_seconds", 0.0)),
            pairs_generated=int(rec.get("pairs_generated", 0)),
            alignments=int(rec.get("alignments", 0)),
            dp_cells=int(rec.get("dp_cells", 0)),
            pairbuf_depth=int(rec.get("pairbuf_depth", 0)),
            gen_position=float(rec.get("gen_position", 0.0)),
            exhausted=bool(rec.get("exhausted", False)),
            phase=str(rec.get("phase", "alignment")),
        )


# --------------------------------------------------------------------- #
# master-side aggregation
# --------------------------------------------------------------------- #


@dataclass
class SlaveView:
    """The master's rolling view of one slave, folded from its samples."""

    slave_id: int
    incarnation: int = 0
    samples: int = 0
    last_ts: float = 0.0
    rss_bytes: int = 0
    cpu_seconds: float = 0.0
    pairs_generated: int = 0
    alignments: int = 0
    dp_cells: int = 0
    pairbuf_depth: int = 0
    gen_position: float = 0.0
    exhausted: bool = False
    lost: bool = False
    stopped: bool = False

    @property
    def state(self) -> str:
        if self.lost:
            return "lost"
        if self.stopped:
            return "stopped"
        if self.exhausted:
            return "passive"
        return "running"

    @property
    def position(self) -> float:
        """Per-slave progress: 1.0 once it cannot produce further work."""
        if self.stopped or self.lost or self.exhausted:
            return 1.0
        return min(1.0, self.gen_position)

    def as_dict(self) -> dict:
        return {
            "slave_id": self.slave_id,
            "state": self.state,
            "incarnation": self.incarnation,
            "samples": self.samples,
            "last_ts": self.last_ts,
            "rss_bytes": self.rss_bytes,
            "cpu_seconds": self.cpu_seconds,
            "pairs_generated": self.pairs_generated,
            "alignments": self.alignments,
            "dp_cells": self.dp_cells,
            "pairbuf_depth": self.pairbuf_depth,
            "position": self.position,
        }


class LiveRunState:
    """Everything the monitor knows about a run *while it executes*.

    Writers (the engine's master loop) and readers (the HTTP endpoint
    thread, the status-line emitter) synchronise in
    :class:`~repro.telemetry.monitor.RunMonitor`; this class is plain
    single-threaded state.

    ``straggler_after`` feeds the straggler flags: a running slave whose
    newest sample is older than this many seconds (same clock as the
    samples) is flagged — by default half the fault-tolerance deadline,
    so stragglers surface *before* the master declares them dead.
    """

    def __init__(
        self,
        n_slaves: int,
        *,
        run_id: str = "",
        engine: str = "unknown",
        clock: str = "wall",
        straggler_after: float = 30.0,
        origin: float | None = None,
    ) -> None:
        self.run_id = run_id
        self.engine = engine
        self.clock = clock
        #: The run's telemetry session origin (``time.monotonic()`` value
        #: of its ts == 0), the same as the post-run trace's meta
        #: ``origin``.
        self.origin = origin
        self.n_slaves = n_slaves
        self.straggler_after = straggler_after
        self.slaves: dict[int, SlaveView] = {
            k: SlaveView(k) for k in range(n_slaves)
        }
        self.master = SlaveView(MASTER_ID)
        # Mirrors of the master's protocol/fault accounting.
        self.workbuf_depth = 0
        self.messages = 0
        self.merges = 0
        self.pairs_dispatched = 0
        #: Per-shard views (sharded masters only; [] on classic runs).
        #: Plain dicts straight from ``ShardedMaster.shard_states()``.
        self.shards: list[dict] = []
        self.fault_counters: dict[str, int] = {}
        self.now = 0.0  # newest timestamp seen anywhere (run clock)
        self.finished = False
        self.total_time: float | None = None

    # ---- updates ------------------------------------------------------ #

    def update(self, sample: LiveSample) -> None:
        """Fold one sample in (slave or master)."""
        view = (
            self.master
            if sample.slave_id == MASTER_ID
            else self.slaves.setdefault(sample.slave_id, SlaveView(sample.slave_id))
        )
        if sample.incarnation > view.incarnation:
            view.incarnation = sample.incarnation
            view.lost = False  # a replacement is reporting
        view.samples += 1
        view.last_ts = max(view.last_ts, sample.ts)
        view.rss_bytes = sample.rss_bytes
        view.cpu_seconds = sample.cpu_seconds
        view.pairs_generated = sample.pairs_generated
        view.alignments = sample.alignments
        view.dp_cells = sample.dp_cells
        view.pairbuf_depth = sample.pairbuf_depth
        view.gen_position = sample.gen_position
        view.exhausted = sample.exhausted
        self.now = max(self.now, sample.ts)

    def set_master(
        self,
        *,
        ts: float | None = None,
        workbuf_depth: int | None = None,
        messages: int | None = None,
        merges: int | None = None,
        pairs_dispatched: int | None = None,
        faults: dict[str, int] | None = None,
    ) -> None:
        if ts is not None:
            self.now = max(self.now, ts)
        if workbuf_depth is not None:
            self.workbuf_depth = workbuf_depth
        if messages is not None:
            self.messages = messages
        if merges is not None:
            self.merges = merges
        if pairs_dispatched is not None:
            self.pairs_dispatched = pairs_dispatched
        if faults is not None:
            self.fault_counters = dict(faults)

    def set_shards(self, shard_states: list[dict]) -> None:
        """Replace the per-shard views (sharded-master engines push the
        whole list each refresh; counters inside are cumulative)."""
        self.shards = list(shard_states)

    def slave_lost(self, slave_id: int) -> None:
        self.slaves.setdefault(slave_id, SlaveView(slave_id)).lost = True

    def slave_revived(self, slave_id: int) -> None:
        self.slaves.setdefault(slave_id, SlaveView(slave_id)).lost = False

    def slave_stopped(self, slave_id: int) -> None:
        view = self.slaves.setdefault(slave_id, SlaveView(slave_id))
        view.stopped = True
        view.exhausted = True

    def finish(self, total_time: float | None = None) -> None:
        """The protocol finished: progress is 1.0 by definition."""
        self.finished = True
        if total_time is not None:
            self.total_time = total_time
            self.now = max(self.now, total_time)
        for view in self.slaves.values():
            if not view.lost:
                view.stopped = True

    # ---- derived views ------------------------------------------------ #

    @property
    def progress(self) -> float:
        """Overall run progress in [0, 1].

        Generation progress (the resumable generator positions) is the
        leading indicator; an alignment backlog (WORKBUF) holds the last
        few percent back until it drains.  Exact only at the endpoints —
        0 before work starts, 1.0 when the protocol finished — which is
        what a monitor can honestly promise.
        """
        if self.finished:
            return 1.0
        if not self.slaves:
            return 0.0
        gen = sum(v.position for v in self.slaves.values()) / len(self.slaves)
        if gen >= 1.0 and self.workbuf_depth > 0:
            return 0.99
        return min(gen, 0.999)

    def eta_seconds(self) -> float | None:
        """Naive proportional work-remaining estimate (None early on,
        when the extrapolation base is too thin to mean anything)."""
        if self.finished:
            return 0.0
        p = self.progress
        if p < 0.02 or self.now <= 0.0:
            return None
        return self.now * (1.0 - p) / p

    def stragglers(self) -> list[int]:
        """Running slaves whose newest sample has gone stale."""
        out = []
        for k, view in sorted(self.slaves.items()):
            if view.state != "running" or view.samples == 0:
                continue
            if self.now - view.last_ts > self.straggler_after:
                out.append(k)
        return out

    def as_dict(self) -> dict:
        """The JSON state the ``/state`` endpoint serves and the monitor
        CLI renders."""
        eta = self.eta_seconds()
        return {
            "run_id": self.run_id,
            "engine": self.engine,
            "clock": self.clock,
            "origin": self.origin,
            "n_slaves": self.n_slaves,
            "now": self.now,
            "finished": self.finished,
            "total_time": self.total_time,
            "progress": self.progress,
            "eta_seconds": eta,
            "workbuf_depth": self.workbuf_depth,
            "messages": self.messages,
            "merges": self.merges,
            "pairs_dispatched": self.pairs_dispatched,
            "stragglers": self.stragglers(),
            "shards": [dict(s) for s in self.shards],
            "faults": dict(self.fault_counters),
            "master": self.master.as_dict(),
            "slaves": [v.as_dict() for _, v in sorted(self.slaves.items())],
        }


def replay_live_records(records: list[dict]) -> LiveRunState:
    """Rebuild a :class:`LiveRunState` from a JSONL record stream (a
    ``--live-out`` file, or a trace, whose fault events mark lost
    slaves) — what ``pace-est monitor <file>`` renders."""
    meta = records[0] if records and records[0].get("kind") == "meta" else {}
    n_slaves = int(meta.get("n_processors", 1)) - 1 if meta else 0
    origin = meta.get("origin")
    state = LiveRunState(
        max(0, n_slaves),
        run_id=str(meta.get("run_id", "")),
        engine=str(meta.get("engine", "unknown")),
        clock=str(meta.get("clock", "wall")),
        origin=float(origin) if origin is not None else None,
    )
    for rec in records:
        kind = rec.get("kind")
        if kind == "live":
            state.update(LiveSample.from_record(rec))
        elif kind == "live_state":
            # Periodic master-state records carry queue/fault mirrors.
            state.set_master(
                ts=rec.get("ts"),
                workbuf_depth=rec.get("workbuf_depth"),
                messages=rec.get("messages"),
                merges=rec.get("merges"),
                faults=rec.get("faults"),
            )
            shards = rec.get("shards")
            if shards:
                state.set_shards(shards)
            # Per-slave lost flags travel as the current lost set (a later
            # record with the slave revived clears the flag again).
            lost = rec.get("lost")
            if lost is not None:
                lost_set = {int(k) for k in lost}
                for k in lost_set:
                    state.slaves.setdefault(k, SlaveView(k))
                for k, view in state.slaves.items():
                    view.lost = k in lost_set
            if rec.get("finished"):
                state.finish(rec.get("ts"))
        elif kind == "trace" and rec.get("event") == "fault":
            # Fault events mark losses even in traces without state records.
            detail = rec.get("detail", "")
            actor = rec.get("actor", "")
            if "lost" in detail and actor.startswith("slave"):
                state.slave_lost(int(actor.removeprefix("slave")))
    total = meta.get("total_time")
    if total is not None:
        state.finish(float(total))
    return state
