"""Machine-level event tracing, shared by both parallel engines.

A :class:`TraceRecorder` captures the send/recv/compute/fault timeline of
one parallel run.  It is engine-agnostic: the discrete-event simulator
records **virtual** timestamps, while the multiprocessing backend records
wall-clock offsets from the run origin — slave processes keep their own
recorder and forward its events to the master over the existing result
pipe, so real runs yield the same timeline the simulator does.  Both
feed the utilisation report and master-busy measurement behind the
paper's Figure 8.

Events are plain records; :func:`render_timeline` pretty-prints a textual
timeline and :func:`utilisation` computes per-actor busy fractions from
the recorded intervals (cross-checked against the machine's own
accounting in the tests).  Both are total on trivial runs: an empty
trace renders as a bare header and utilises nobody, and a
``total_time`` of zero yields zero busy fractions rather than dividing
by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "NullTraceRecorder",
    "render_timeline",
    "utilisation",
]


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    ``kind`` ∈ {send, recv, compute, fault}; ``actor`` is "master" or
    "slave<k>"; ``start``/``end`` delimit the interval (equal for
    instantaneous events); ``detail`` is a short human label.  ``fault``
    events record slave crashes and the master's recovery actions
    (detection, restart, reassignment) in both engines.
    """

    kind: str
    actor: str
    start: float
    end: float
    detail: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"event ends before it starts: {self}")

    def as_record(self) -> dict:
        """The JSONL representation (see DESIGN.md §5b for the schema)."""
        rec = {
            "kind": "trace",
            "event": self.kind,
            "actor": self.actor,
            "ts": self.start,
            "end": self.end,
        }
        if self.detail:
            rec["detail"] = self.detail
        return rec


@dataclass
class TraceRecorder:
    """Accumulates trace events during one run (simulated or real)."""

    events: list[TraceEvent] = field(default_factory=list)

    def send(self, actor: str, at: float, detail: str = "") -> None:
        self.events.append(TraceEvent("send", actor, at, at, detail))

    def recv(self, actor: str, at: float, detail: str = "") -> None:
        self.events.append(TraceEvent("recv", actor, at, at, detail))

    def compute(self, actor: str, start: float, end: float, detail: str = "") -> None:
        self.events.append(TraceEvent("compute", actor, start, end, detail))

    def fault(self, actor: str, at: float, detail: str = "") -> None:
        """A crash, detection, restart, or reassignment event."""
        self.events.append(TraceEvent("fault", actor, at, at, detail))

    # ------------------------------------------------------------------ #

    def faults(self) -> list[TraceEvent]:
        """The recovery-relevant subset of the event stream."""
        return [e for e in self.events if e.kind == "fault"]

    def by_actor(self, actor: str) -> list[TraceEvent]:
        return [e for e in self.events if e.actor == actor]

    def ordered(self) -> list[TraceEvent]:
        return sorted(self.events, key=lambda e: (e.start, e.end))

    def extend(
        self,
        events: list[TraceEvent] | tuple[TraceEvent, ...],
        *,
        offset: float = 0.0,
    ) -> None:
        """Absorb events recorded elsewhere (e.g. shipped back by a slave).

        ``offset`` rebases foreign timestamps into this recorder's time
        origin — pass ``their_origin - our_origin`` (origins are carried
        in the streams' meta records) to merge traces recorded against
        different clocks, e.g. overlaying a simulator run on an mp run.
        """
        if offset:
            events = [
                TraceEvent(
                    e.kind, e.actor, e.start + offset, e.end + offset, e.detail
                )
                for e in events
            ]
        self.events.extend(events)

    def total_span(self) -> float:
        """Latest event end (0.0 for an empty trace)."""
        return max((e.end for e in self.events), default=0.0)

    def __len__(self) -> int:
        return len(self.events)


class NullTraceRecorder(TraceRecorder):
    """The recorder of a disabled telemetry session: drops every event,
    so engine call sites record unconditionally instead of guarding."""

    def send(self, actor: str, at: float, detail: str = "") -> None:
        pass

    recv = fault = send

    def compute(self, actor: str, start: float, end: float, detail: str = "") -> None:
        pass


def utilisation(trace: TraceRecorder, total_time: float) -> dict[str, float]:
    """Busy fraction per actor from its compute intervals.

    Total on degenerate inputs: an empty trace yields ``{}``, and
    ``total_time <= 0`` (a trivial run) yields 0.0 for every actor with
    recorded compute time instead of dividing by zero.
    """
    busy: dict[str, float] = {}
    for ev in trace.events:
        if ev.kind == "compute":
            busy[ev.actor] = busy.get(ev.actor, 0.0) + (ev.end - ev.start)
    if total_time <= 0:
        return {actor: 0.0 for actor in busy}
    return {actor: t / total_time for actor, t in busy.items()}


def render_timeline(trace: TraceRecorder, *, max_events: int = 60) -> str:
    """A textual timeline of the first ``max_events`` events (total on an
    empty trace: just the header row)."""
    lines = [f"{'time':>12s}  {'actor':<10s} {'kind':<8s} detail"]
    for ev in trace.ordered()[:max_events]:
        span = (
            f"{ev.start * 1e3:9.3f}ms"
            if ev.start == ev.end
            else f"{ev.start * 1e3:9.3f}ms+{(ev.end - ev.start) * 1e3:.3f}"
        )
        lines.append(f"{span:>12s}  {ev.actor:<10s} {ev.kind:<8s} {ev.detail}")
    if len(trace) > max_events:
        lines.append(f"... ({len(trace) - max_events} more events)")
    return "\n".join(lines)
