"""The per-run :class:`Telemetry` session: the one recorder of a run's events.

One :class:`Telemetry` object accompanies one clustering run.  It owns

- a :class:`~repro.telemetry.registry.MetricsRegistry` every layer writes
  into (phase seconds, pair counters, band-width histograms, fault
  counters), with the work-unit :class:`~repro.telemetry.latency.
  LatencyStore` over it (:attr:`Telemetry.latency`), and
- the run's one **event list**, :attr:`Telemetry.events`, holding every
  event as the JSONL record it is written as: ``span(name)`` is a context
  manager that emits nested start/end records and accumulates the
  duration into the registry counter ``span.<name>.seconds`` (which is
  exactly what :class:`~repro.util.timing.TimingBreakdown` reads, so
  Table 3's component accounting and the telemetry layer can never
  disagree); :meth:`Telemetry.trace` appends the machine-level
  send/recv/compute/fault events; :meth:`Telemetry.record_causal` the
  work-unit lifecycle records of :mod:`repro.telemetry.causal`.

The **disabled** mode (``Telemetry(enabled=False)``) is the hot-path
default used when no caller asked for telemetry: spans still accumulate
phase seconds (results always carry timings, as they did before this
layer existed) but no event is kept, the latency store drops its
observations and the per-item instruments (`count`/`observe`/`set_gauge`)
become no-ops, keeping the overhead of an uninstrumented run
indistinguishable from the old ``TimingBreakdown``.  Causal records are
kept only when :attr:`Telemetry.causal` is set as well, which the engines
do from ``config.causal_tracing``.  A crash flight recorder
(:mod:`repro.telemetry.flight`) arms :meth:`Telemetry.keep_tail`: a
disabled session then keeps its newest events in a bounded ring, and
:meth:`Telemetry.tail` is what the recorder dumps, enabled or not.

Timestamps are seconds since the session ``origin`` (``time.monotonic``
based, so sessions in forked slave processes that share the master's
origin produce directly comparable offsets, and the master appends their
events to its own list).  Every record a process writes — events, live
monitor samples, flight dumps — is stamped by :meth:`Telemetry.now`.
The simulator does not use the wall clock at all: it records virtual
times and phase seconds, and marks its snapshot ``clock="virtual"``.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.telemetry.latency import LatencyStore
from repro.telemetry.registry import MetricsRegistry

__all__ = [
    "Telemetry",
    "TelemetrySnapshot",
    "SPAN_PREFIX",
    "SPAN_SUFFIX",
    "TABLE3_ORDER",
    "phase_metric",
    "phase_of",
]

#: Registry counter naming for span durations: ``span.<name>.seconds``.
SPAN_PREFIX = "span."
SPAN_SUFFIX = ".seconds"

#: The paper's Table 3 component columns, in presentation order.
TABLE3_ORDER = ("partitioning", "gst_construction", "sort_nodes", "alignment")

#: Tie order of events at one timestamp: spans, then causal records, then
#: machine events by interval end.
_KIND_RANK = {"span_start": 0, "span_end": 0, "causal": 1, "trace": 2}


def phase_metric(name: str) -> str:
    """The registry counter holding phase ``name``'s seconds."""
    return f"{SPAN_PREFIX}{name}{SPAN_SUFFIX}"


def phase_of(metric: str) -> str | None:
    """The phase a ``span.<name>.seconds`` counter name holds, else ``None``."""
    if metric.startswith(SPAN_PREFIX) and metric.endswith(SPAN_SUFFIX):
        return metric[len(SPAN_PREFIX) : -len(SPAN_SUFFIX)]
    return None


def _event_order(rec: dict) -> tuple:
    return (rec["ts"], _KIND_RANK[rec["kind"]], rec.get("end", 0.0))


@dataclass
class TelemetrySnapshot:
    """Everything one run measured, detached from the live session.

    ``meta`` identifies the run (engine, processor count, clock domain,
    total time); ``events`` is the event list as JSON-able records sorted
    by timestamp; ``metrics`` is the registry snapshot.  This is what
    ``ClusteringResult.telemetry`` carries and what the JSONL sinks
    serialise.
    """

    meta: dict = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def phase_times(self) -> dict[str, float]:
        """Per-phase seconds from the ``span.*.seconds`` counters — one
        Table 3 row, keyed by component name."""
        return {
            phase: value
            for name, value in self.metrics.get("counters", {}).items()
            if (phase := phase_of(name)) is not None
        }

    @property
    def total_time(self) -> float:
        return float(self.meta.get("total_time", 0.0))


class Telemetry:
    """One run's instrumentation session (see module docstring)."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        origin: float | None = None,
        registry: MetricsRegistry | None = None,
        run_id: str = "",
        causal: bool = False,
    ) -> None:
        self.enabled = enabled
        #: Keep causal work-unit records (engines set it from
        #: ``config.causal_tracing``); a disabled session keeps none.
        self.causal = causal and enabled
        #: ``time.monotonic()`` value that maps to ts == 0.0.  Forked
        #: slaves are handed the master's origin so their wall-clock
        #: offsets land on the same axis.
        self.origin = time.monotonic() if origin is None else origin
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Shared with the monitor's live stream when both are active, so
        #: post-run traces and live scrapes can be joined on it.
        self.run_id = run_id
        #: The run's events, in the order they were recorded: all of them
        #: when enabled, the newest few once :meth:`keep_tail` armed a
        #: disabled session, else none.
        self.events: list[dict] | deque[dict] = []
        self._recording = enabled
        self._stack: list[int] = []
        self._next_id = 0
        self._latency: LatencyStore | None = None

    @property
    def latency(self) -> LatencyStore:
        """The session's work-unit :class:`LatencyStore`, over its
        registry; a disabled session's drops every observation, so hot
        paths observe unconditionally.  Lazy so that a session that never
        observes latency allocates nothing."""
        if self._latency is None:
            self._latency = LatencyStore(self.registry, enabled=self.enabled)
        return self._latency

    def now(self) -> float:
        """Seconds since the session origin."""
        return time.monotonic() - self.origin

    def keep_tail(self, capacity: int) -> None:
        """Record events from now on even while disabled, keeping the
        newest ``capacity`` of them (an enabled session keeps them all)."""
        if not self._recording:
            self.events = deque(maxlen=capacity)
            self._recording = True

    def tail(self, n: int) -> list[dict]:
        """The newest ``n`` recorded events, sorted onto the run clock."""
        newest = list(itertools.islice(reversed(self.events), n))
        return sorted(reversed(newest), key=_event_order)

    # ---- spans -------------------------------------------------------- #

    @contextmanager
    def span(self, name: str, *, actor: str = "master", **attrs):
        """Time a phase: accumulates ``span.<name>.seconds`` always, and
        emits nested start/end events when recording."""
        start = self.now()
        sid = parent = None
        recording = self._recording
        if recording:
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            rec = {
                "kind": "span_start",
                "name": name,
                "actor": actor,
                "ts": start,
                "id": sid,
                "parent": parent,
            }
            if attrs:
                rec["attrs"] = dict(attrs)
            self.events.append(rec)
        try:
            yield
        finally:
            end = self.now()
            self.registry.inc(phase_metric(name), end - start)
            if recording:
                self._stack.pop()
                self.events.append(
                    {
                        "kind": "span_end",
                        "name": name,
                        "actor": actor,
                        "ts": end,
                        "id": sid,
                        "parent": parent,
                        "duration": end - start,
                    }
                )

    def add_phase(self, name: str, seconds: float) -> None:
        """Account phase time measured externally (the simulator's
        virtual clock charges phases this way)."""
        self.registry.inc(phase_metric(name), seconds)

    # ---- events (dropped unless recording) ---------------------------- #

    def trace(
        self,
        event: str,
        actor: str,
        ts: float,
        end: float | None = None,
        detail: str = "",
    ) -> None:
        """A machine event: ``event`` ∈ send/recv/compute/fault by
        ``actor`` ("master", "shard<j>" or "slave<k>") over ``[ts, end]``
        (``end`` defaults to ``ts``, an instant).  ``fault`` events record
        slave crashes and the master's recovery actions."""
        if not self._recording:
            return
        if end is None:
            end = ts
        elif end < ts:
            raise ValueError(f"{event} event of {actor} ends before it starts")
        rec = {"kind": "trace", "event": event, "actor": actor, "ts": ts, "end": end}
        if detail:
            rec["detail"] = detail
        self.events.append(rec)

    def record_causal(
        self,
        event: str,
        unit: int,
        n: int,
        *,
        actor: str,
        ts: float,
        slave: int | None = None,
        reason: str | None = None,
    ) -> None:
        """A work-unit lifecycle record: ``n`` pairs of ``unit`` went
        through ``event`` at ``actor`` (kept only when :attr:`causal`)."""
        if not self.causal:
            return
        rec: dict = {
            "kind": "causal",
            "event": event,
            "unit": unit,
            "n": n,
            "actor": actor,
            "ts": ts,
        }
        if slave is not None:
            rec["slave"] = slave
        if reason is not None:
            rec["reason"] = reason
        self.events.append(rec)

    # ---- point instruments (no-ops when disabled) --------------------- #

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            self.registry.inc(name, amount)

    def observe(
        self, name: str, value: float, buckets: tuple[float, ...] | None = None
    ) -> None:
        if self.enabled:
            self.registry.observe(name, value, buckets)

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.registry.set_gauge(name, value)

    def record_faults(self, fault_counters) -> None:
        """Surface a :class:`~repro.core.results.FaultCounters` through the
        registry (``fault.<field>`` counters), so fault accounting appears
        in the JSONL stream and ``pace-est report`` — not only on the
        result object."""
        if fault_counters is None:
            return
        for key, value in fault_counters.as_dict().items():
            if value:
                self.registry.inc(f"fault.{key}", value)

    # ---- snapshot ----------------------------------------------------- #

    def snapshot(self, **meta) -> TelemetrySnapshot:
        """Freeze the session into a :class:`TelemetrySnapshot`.

        ``meta`` keys (engine, n_processors, clock, total_time, ...) are
        recorded verbatim; ``clock`` defaults to "wall" and ``total_time``
        to the session age.  Events are sorted onto the one run clock.
        """
        meta.setdefault("clock", "wall")
        if "total_time" not in meta:
            meta["total_time"] = self.now()
        meta.setdefault("origin", self.origin)
        if self.run_id:
            meta.setdefault("run_id", self.run_id)
        return TelemetrySnapshot(
            meta=meta,
            events=sorted(self.events, key=_event_order),
            metrics=self.registry.snapshot(),
        )
