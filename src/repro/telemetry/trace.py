"""Readers of the machine-level timeline, shared by every trace tool.

The send/recv/compute/fault timeline of a run is its ``trace`` records
(``kind="trace"``) in the telemetry session's event list: the
discrete-event simulator records **virtual** timestamps, the
multiprocessing backend wall-clock offsets from the run origin (slave
processes record into sessions of their own and ship the records back
over the result pipe).  Both feed the utilisation report and the
master-busy measurement behind the paper's Figure 8.

:func:`busy_times` sums each actor's ``compute`` intervals — the one
place that does, for ``pace-est report`` and ``pace-est analyze`` alike;
:func:`utilisation` turns them into busy fractions (cross-checked against
the machine's own accounting in the tests) and :func:`render_timeline`
pretty-prints a textual timeline.  All three take any record stream
(a snapshot's events or a loaded JSONL trace; other kinds are ignored)
and are total on trivial runs: an empty trace renders as a bare header
and utilises nobody, and a ``total_time`` of zero yields zero busy
fractions rather than dividing by it.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["busy_times", "render_timeline", "utilisation"]


def busy_times(records: Iterable[dict]) -> dict[str, float]:
    """Summed ``compute`` seconds per actor, in first-seen order (an
    actor with only zero-length intervals reads 0.0)."""
    busy: dict[str, float] = {}
    for rec in records:
        if rec.get("kind") == "trace" and rec.get("event") == "compute":
            actor, ts = rec.get("actor", "?"), rec["ts"]
            busy[actor] = busy.get(actor, 0.0) + (rec.get("end", ts) - ts)
    return busy


def utilisation(records: Iterable[dict], total_time: float) -> dict[str, float]:
    """Busy fraction per actor from its compute intervals.

    Total on degenerate inputs: an empty trace yields ``{}``, and
    ``total_time <= 0`` (a trivial run) yields 0.0 for every actor with
    recorded compute time instead of dividing by zero.
    """
    busy = busy_times(records)
    if total_time <= 0:
        return {actor: 0.0 for actor in busy}
    return {actor: t / total_time for actor, t in busy.items()}


def render_timeline(records: Iterable[dict], *, max_events: int = 60) -> str:
    """A textual timeline of the first ``max_events`` machine events
    (total on an empty trace: just the header row)."""
    events = sorted(
        (r for r in records if r.get("kind") == "trace"),
        key=lambda r: (r["ts"], r.get("end", r["ts"])),
    )
    lines = [f"{'time':>12s}  {'actor':<10s} {'kind':<8s} detail"]
    for rec in events[:max_events]:
        start, end = rec["ts"], rec.get("end", rec["ts"])
        span = (
            f"{start * 1e3:9.3f}ms"
            if start == end
            else f"{start * 1e3:9.3f}ms+{(end - start) * 1e3:.3f}"
        )
        lines.append(
            f"{span:>12s}  {rec['actor']:<10s} {rec['event']:<8s} "
            f"{rec.get('detail', '')}"
        )
    if len(events) > max_events:
        lines.append(f"... ({len(events) - max_events} more events)")
    return "\n".join(lines)
