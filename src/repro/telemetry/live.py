"""Live run state: the records a run streams while it executes, and their fold.

The data layer of the live monitor, which shows a run while it executes
(its trace materialises only after it completes).  Live data takes one
form, ``repro-telemetry/4`` records, and everything that shows it is a
fold over them:

- :func:`live_record` builds a ``live`` record — one actor's cumulative
  work counters (pairs generated / aligned / DP cells), the on-demand
  generator's resumable position and resource readings (RSS, CPU time).
  Every producer calls it: a parallel slave's ``Slave.sample``, the
  multiprocessing master's own sample and the sequential pair stream.
  A multiprocessing slave sends the dict down its existing pipe as a
  low-priority message the master absorbs without a reply;
- ``live_state`` records carry the master's own accounting (queue
  depth, message/merge/dispatch counts, fault counters, the lost and
  stopped slave ids); ``EngineCore.publish`` builds them;
- :class:`LiveRunState` folds ``live``, ``live_state`` and trace
  ``fault`` records (:meth:`LiveRunState.fold`; nothing else changes it
  but :meth:`LiveRunState.finish`) into per-actor views, overall
  progress, a work-remaining ETA and straggler flags fed by the same
  deadline the fault-tolerance layer uses;
- :func:`replay_live_records` builds the state from a stream's meta
  record and folds the rest — what ``pace-est monitor <file>`` renders,
  and equal to the final ``/state`` of the run that wrote the stream;
- :class:`ResourceSampler` — dependency-free RSS/CPU sampling
  (``/proc/self/statm`` with a :func:`resource.getrusage` fallback).

Everything here is plain data + stdlib; the HTTP endpoint, status lines
and terminal rendering live in :mod:`repro.telemetry.monitor`.

Record timestamps are the run's telemetry clock, ``Telemetry.now()`` of
the session the engine runs under (virtual seconds in the simulator), and
the live stream's ``origin`` is that session's, so live records and the
post-run trace share one time axis.  Live records stream into
``--live-out`` files only (the run's event list never holds them).
"""

from __future__ import annotations

import os
import resource
import sys

__all__ = [
    "LIVE_FIELDS",
    "ResourceSampler",
    "LiveRunState",
    "live_record",
    "replay_live_records",
]


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
# the streamed records
# --------------------------------------------------------------------- #

#: A ``live`` record's fields after ``kind``/``actor``/``ts``, in record
#: order, with the value an actor reads before it has reported.  Counters
#: are cumulative within one incarnation; ``gen_position`` is the
#: on-demand generator's processed nodes over owned nodes.
LIVE_FIELDS = {
    "incarnation": 0, "rss_bytes": 0, "cpu_seconds": 0.0, "pairs_generated": 0,
    "alignments": 0, "dp_cells": 0, "pairbuf_depth": 0, "gen_position": 0.0,
    "exhausted": False, "phase": "alignment",
}

#: The per-actor fields ``/state`` serves, between ``last_ts`` and
#: ``position``.
_SERVED = (
    "rss_bytes", "cpu_seconds", "pairs_generated", "alignments",
    "dp_cells", "pairbuf_depth",
)

#: The scalar master-side fields a ``live_state`` record carries.
_MIRRORED = ("workbuf_depth", "messages", "merges", "pairs_dispatched")


def live_record(actor: str, ts: float, **fields) -> dict:
    """One ``live`` record: ``actor`` (``"master"`` or ``"slave<k>"``) at
    run-clock ``ts``, ``fields`` over the :data:`LIVE_FIELDS` defaults.
    The key order is fixed whatever order ``fields`` come in."""
    unknown = fields.keys() - LIVE_FIELDS.keys()
    if unknown:
        raise TypeError(f"unknown live-record fields: {sorted(unknown)}")
    return {"kind": "live", "actor": actor, "ts": ts, **LIVE_FIELDS, **fields}


def _new_view(actor: str) -> dict:
    bookkeeping = {"samples": 0, "last_ts": 0.0, "lost": False, "stopped": False}
    return {**live_record(actor, 0.0), **bookkeeping}


def _state_of(view: dict) -> str:
    if view["lost"]:
        return "lost"
    if view["stopped"]:
        return "stopped"
    return "passive" if view["exhausted"] else "running"


def _position_of(view: dict) -> float:
    """Per-actor progress: 1.0 once it cannot produce further work."""
    if view["lost"] or view["stopped"] or view["exhausted"]:
        return 1.0
    return min(1.0, view["gen_position"])


# --------------------------------------------------------------------- #
# the fold
# --------------------------------------------------------------------- #


class LiveRunState:
    """Everything the monitor knows about a run *while it executes*: the
    fold of the run's ``live`` and ``live_state`` records.

    Per-actor views (``slaves[k]``, ``master``) are the actor's newest
    ``live`` record plus ``samples``, ``last_ts`` and the ``lost`` /
    ``stopped`` flags the master's records carry; state and position are
    derived when read (:meth:`as_dict`).  Writers (the engine's master
    loop) and readers (the HTTP endpoint thread, the status-line emitter)
    synchronise in :class:`~repro.telemetry.monitor.RunMonitor`; this
    class is plain single-threaded state.

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
        self.slaves: dict[int, dict] = {
            k: _new_view(f"slave{k}") for k in range(n_slaves)
        }
        self.master = _new_view("master")
        # The master's accounting, as its newest live_state record says.
        self.workbuf_depth = 0
        self.messages = 0
        self.merges = 0
        self.pairs_dispatched = 0
        self.fault_counters: dict[str, int] = {}
        self.now = 0.0  # newest timestamp seen anywhere (run clock)
        self.finished = False
        self.total_time: float | None = None

    def _slave(self, k: int) -> dict:
        return self.slaves.setdefault(k, _new_view(f"slave{k}"))

    def _view(self, actor: str) -> dict:
        if actor == "master":
            return self.master
        return self._slave(int(actor.removeprefix("slave")))

    # ---- the one update path ------------------------------------------ #

    def fold(self, rec: dict) -> None:
        """Fold one record in: a ``live`` sample replaces its actor's
        view (one from a newer incarnation clears ``lost``), a
        ``live_state`` record the master's accounting (fields it lacks
        keep their value), and a trace ``fault`` event that reports a
        loss marks that slave lost.  Other records change nothing."""
        kind = rec.get("kind")
        if kind == "live":
            view = self._view(rec["actor"])
            if rec["incarnation"] > view["incarnation"]:
                view["lost"] = False  # a replacement is reporting
            view.update(rec)
            view["samples"] += 1
            view["last_ts"] = max(view["last_ts"], rec["ts"])
            self.now = max(self.now, rec["ts"])
        elif kind == "live_state":
            self.now = max(self.now, rec["ts"])
            for key in _MIRRORED:
                if key in rec:
                    setattr(self, key, rec[key])
            if "faults" in rec:
                self.fault_counters = dict(rec["faults"])
            for flag in ("lost", "stopped"):
                if flag in rec:
                    ids = {int(k) for k in rec[flag]}
                    for k in ids:
                        self._slave(k)
                    for k, view in self.slaves.items():
                        view[flag] = k in ids
            if rec.get("finished"):
                self.finish(rec["ts"])
        elif kind == "trace" and rec.get("event") == "fault":
            actor = rec.get("actor", "")
            if "lost" in rec.get("detail", "") and actor.startswith("slave"):
                self._view(actor)["lost"] = True

    def finish(self, total_time: float | None = None) -> None:
        """The protocol finished: progress is 1.0 by definition."""
        self.finished = True
        if total_time is not None:
            self.total_time = total_time
            self.now = max(self.now, total_time)
        for view in self.slaves.values():
            if not view["lost"]:
                view["stopped"] = True

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
        gen = sum(_position_of(v) for v in self.slaves.values()) / len(self.slaves)
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
        return [
            k
            for k, view in sorted(self.slaves.items())
            if _state_of(view) == "running"
            and view["samples"]
            and self.now - view["last_ts"] > self.straggler_after
        ]

    def state_record(self) -> dict:
        """The master side of this state as one ``live_state`` record,
        plus the derived ``progress``.  Folding it into a state rebuilt
        from the same ``live`` records reproduces this one."""
        return {
            "kind": "live_state",
            "ts": self.now,
            "progress": self.progress,
            **{key: getattr(self, key) for key in _MIRRORED},
            "faults": dict(self.fault_counters),
            "lost": sorted(k for k, v in self.slaves.items() if v["lost"]),
            "stopped": sorted(k for k, v in self.slaves.items() if v["stopped"]),
            "finished": self.finished,
        }

    @staticmethod
    def _served(slave_id: int, view: dict) -> dict:
        return {
            "slave_id": slave_id,
            "state": _state_of(view),
            "incarnation": view["incarnation"],
            "samples": view["samples"],
            "last_ts": view["last_ts"],
            **{key: view[key] for key in _SERVED},
            "position": _position_of(view),
        }

    def as_dict(self) -> dict:
        """The JSON state the ``/state`` endpoint serves and the monitor
        CLI renders (the master's view has ``slave_id`` -1)."""
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
            "eta_seconds": self.eta_seconds(),
            "workbuf_depth": self.workbuf_depth,
            "messages": self.messages,
            "merges": self.merges,
            "pairs_dispatched": self.pairs_dispatched,
            "stragglers": self.stragglers(),
            "faults": dict(self.fault_counters),
            "master": self._served(-1, self.master),
            "slaves": [self._served(k, v) for k, v in sorted(self.slaves.items())],
        }


def replay_live_records(records: list[dict]) -> LiveRunState:
    """The :class:`LiveRunState` of a JSONL record stream (a
    ``--live-out`` file, or a trace, whose fault events mark lost slaves)
    — what ``pace-est monitor <file>`` renders.  A trace's meta
    ``total_time`` finishes the run."""
    meta = records[0] if records and records[0].get("kind") == "meta" else {}
    origin = meta.get("origin")
    state = LiveRunState(
        max(0, int(meta.get("n_processors", 1)) - 1),
        run_id=str(meta.get("run_id", "")),
        engine=str(meta.get("engine", "unknown")),
        clock=str(meta.get("clock", "wall")),
        origin=float(origin) if origin is not None else None,
    )
    for rec in records:
        state.fold(rec)
    total = meta.get("total_time")
    if total is not None:
        state.finish(float(total))
    return state
