"""Phase-scoped spans and the per-run :class:`Telemetry` session.

One :class:`Telemetry` object accompanies one clustering run.  It owns

- a :class:`~repro.telemetry.registry.MetricsRegistry` every layer writes
  into (phase seconds, pair counters, band-width histograms, fault
  counters),
- a :class:`~repro.telemetry.trace.TraceRecorder` for the machine-level
  send/recv/compute/fault timeline, and
- the structured **span** event stream: ``span(name)`` is a context
  manager that emits start/end events with nesting (parent ids) and
  accumulates the duration into the registry counter
  ``span.<name>.seconds`` — which is exactly what
  :class:`~repro.util.timing.TimingBreakdown` now reads, so Table 3's
  component accounting and the telemetry layer can never disagree.

The **disabled** mode (``Telemetry(enabled=False)``) is the hot-path
default used when no caller asked for telemetry: spans still accumulate
phase seconds (results always carry timings, as they did before this
layer existed) but no events are recorded (the trace recorder is a
:class:`~repro.telemetry.trace.NullTraceRecorder`) and the per-item
instruments (`count`/`observe`/`set_gauge`) become no-ops, keeping the
overhead of an uninstrumented run indistinguishable from the old
``TimingBreakdown``.

Timestamps are seconds since the session ``origin`` (``time.monotonic``
based, so recorders in forked slave processes that share the master's
origin produce directly comparable offsets).  The simulator does not use
the wall clock at all: it writes virtual times into the trace and phase
seconds into the registry, and marks its snapshot ``clock="virtual"``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import NullTraceRecorder, TraceRecorder

__all__ = ["Telemetry", "TelemetrySnapshot", "SPAN_PREFIX", "SPAN_SUFFIX"]

#: Registry counter naming for span durations: ``span.<name>.seconds``.
SPAN_PREFIX = "span."
SPAN_SUFFIX = ".seconds"


@dataclass
class TelemetrySnapshot:
    """Everything one run measured, detached from the live session.

    ``meta`` identifies the run (engine, processor count, clock domain,
    total time); ``events`` is the merged span + trace event stream as
    JSON-able records sorted by timestamp; ``metrics`` is the registry
    snapshot.  This is what ``ClusteringResult.telemetry`` carries and
    what the JSONL sinks serialise.
    """

    meta: dict = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def phase_times(self) -> dict[str, float]:
        """Per-phase seconds from the ``span.*.seconds`` counters — one
        Table 3 row, keyed by component name."""
        out: dict[str, float] = {}
        for name, value in self.metrics.get("counters", {}).items():
            if name.startswith(SPAN_PREFIX) and name.endswith(SPAN_SUFFIX):
                out[name[len(SPAN_PREFIX) : -len(SPAN_SUFFIX)]] = value
        return out

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
    ) -> None:
        self.enabled = enabled
        #: ``time.monotonic()`` value that maps to ts == 0.0.  Forked
        #: slaves are handed the master's origin so their wall-clock
        #: offsets land on the same axis.
        self.origin = time.monotonic() if origin is None else origin
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Shared with the monitor's live stream when both are active, so
        #: post-run traces and live scrapes can be joined on it.
        self.run_id = run_id
        self.trace = TraceRecorder() if enabled else NullTraceRecorder()
        self.events: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._latency = None

    @property
    def latency(self):
        """The session's work-unit :class:`LatencyStore` when enabled,
        ``None`` otherwise — call sites guard with ``if lat is not None``
        so a disabled session leaves hot paths untouched.  Lazy so that a
        session that never observes latency allocates nothing."""
        if not self.enabled:
            return None
        if self._latency is None:
            from repro.telemetry.latency import LatencyStore

            self._latency = LatencyStore(self.registry)
        return self._latency

    def now(self) -> float:
        """Seconds since the session origin."""
        return time.monotonic() - self.origin

    # ---- spans -------------------------------------------------------- #

    @contextmanager
    def span(self, name: str, *, actor: str = "master", **attrs):
        """Time a phase: accumulates ``span.<name>.seconds`` always, and
        emits nested start/end events when enabled."""
        start = self.now()
        sid = parent = None
        if self.enabled:
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
            self.registry.inc(f"{SPAN_PREFIX}{name}{SPAN_SUFFIX}", end - start)
            if self.enabled:
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
        self.registry.inc(f"{SPAN_PREFIX}{name}{SPAN_SUFFIX}", seconds)

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
        to the session age.
        """
        meta.setdefault("clock", "wall")
        if "total_time" not in meta:
            meta["total_time"] = self.now()
        meta.setdefault("origin", self.origin)
        if self.run_id:
            meta.setdefault("run_id", self.run_id)
        events = list(self.events)
        events.extend(ev.as_record() for ev in self.trace.ordered())
        events.sort(key=lambda r: r["ts"])
        return TelemetrySnapshot(
            meta=meta, events=events, metrics=self.registry.snapshot()
        )
