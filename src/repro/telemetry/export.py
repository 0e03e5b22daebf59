"""Chrome trace-event export: telemetry JSONL → Perfetto timelines.

:func:`chrome_trace` merges the three event families one run produces —
machine trace events (send/recv/compute/fault intervals), causal
work-unit lifecycle events, and the per-stage latency summaries — into
one Chrome trace-event JSON object loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``:

- one named track per actor (master, each slave), ordered master →
  slaves;
- ``compute``/``send``/``recv`` intervals as duration slices;
- causal lifecycle events as 1 µs marker slices, with flow arrows
  linking each work unit's ``dispatched`` → ``aligned`` → ``absorbed``
  hops across tracks (one arrow chain per dispatch round trip);
- faults as global instant events;
- the latency quantile table and run meta embedded under ``otherData``.

Timestamps are converted from the run's clock (wall or virtual seconds,
session origin) to the microseconds the format requires; a virtual-clock
simulator trace therefore renders exactly like a wall-clock one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable

from repro.telemetry.causal import format_unit

__all__ = ["chrome_trace", "export_chrome_trace"]

#: Marker-slice width for instantaneous causal events, in microseconds.
#: Flow arrows need a slice to bind to; 1 µs is visually a tick.
_MARK_US = 1.0


def _actor_sort_key(actor: str) -> tuple[int, int, str]:
    """master first, then slaves by index."""
    if actor == "master":
        return (0, 0, actor)
    if actor.startswith("slave"):
        try:
            return (1, int(actor[5:]), actor)
        except ValueError:
            return (1, 0, actor)
    return (2, 0, actor)


def _us(ts: float) -> float:
    return ts * 1e6


def chrome_trace(records: Iterable[dict]) -> dict:
    """Build the Chrome trace-event object for one record stream."""
    records = list(records)
    meta = records[0] if records and records[0].get("kind") == "meta" else {}

    actors: set[str] = set()
    for rec in records:
        if rec.get("kind") in ("trace", "causal") and rec.get("actor"):
            actors.add(rec["actor"])
        if rec.get("kind") == "causal" and rec.get("slave") is not None:
            actors.add(f"slave{rec['slave']}")
    ordered_actors = sorted(actors, key=_actor_sort_key)
    tids = {actor: i for i, actor in enumerate(ordered_actors)}

    pid = 1
    events: list[dict] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": f"pace-est {meta.get('engine', 'run')}"},
        }
    ]
    for actor, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": actor},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_sort_index",
                "args": {"sort_index": tid},
            }
        )

    # ---- machine trace intervals -------------------------------------- #
    for rec in records:
        if rec.get("kind") != "trace":
            continue
        actor = rec.get("actor", "?")
        tid = tids.get(actor, 0)
        ts = _us(float(rec.get("ts", 0.0)))
        end = _us(float(rec.get("end", rec.get("ts", 0.0))))
        if rec.get("event") == "fault":
            events.append(
                {
                    "ph": "i",
                    "s": "g",  # global scope: faults concern the whole run
                    "pid": pid,
                    "tid": tid,
                    "ts": ts,
                    "name": f"fault: {rec.get('detail', '')}",
                    "cat": "fault",
                }
            )
            continue
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "dur": max(end - ts, _MARK_US),
                "name": rec.get("event", "?"),
                "cat": "machine",
                "args": {"detail": rec.get("detail", "")},
            }
        )

    # ---- causal lifecycle markers + flow arrows ----------------------- #
    # One flow chain per dispatch round trip: dispatched (master
    # track) → aligned (slave track) → absorbed (back at the master).
    flow_seq: dict[int, int] = {}  # unit -> dispatch round counter
    open_flows: dict[tuple[int, int], int] = {}  # (unit, slave) -> flow seq
    causal = [r for r in records if r.get("kind") == "causal"]
    for rec in causal:
        unit = rec.get("unit", -1)
        event = rec.get("event", "?")
        actor = rec.get("actor", "?")
        # Slave-side lifecycle facts (generated/aligned) are recorded by
        # the owning slave even though the dict's actor says so already.
        tid = tids.get(actor, 0)
        ts = _us(float(rec.get("ts", 0.0)))
        name = f"{event} {format_unit(unit)}"
        args = {"unit": format_unit(unit), "n": rec.get("n", 0)}
        if rec.get("reason"):
            args["reason"] = rec["reason"]
        if rec.get("slave") is not None:
            args["slave"] = rec["slave"]
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "dur": _MARK_US,
                "name": name,
                "cat": f"causal.{event}",
                "args": args,
            }
        )
        flow: dict | None = None
        if event == "dispatched" and rec.get("slave") is not None:
            seq = flow_seq.get(unit, 0)
            flow_seq[unit] = seq + 1
            open_flows[(unit, int(rec["slave"]))] = seq
            flow = {"ph": "s"}
        elif event == "aligned":
            # The slave doesn't know which dispatch round it is aligning;
            # bind to the unit's most recent open flow if any targets a
            # slave whose track this is.
            key = next(
                (
                    k
                    for k in open_flows
                    if k[0] == unit and f"slave{k[1]}" == actor
                ),
                None,
            )
            if key is not None:
                flow = {"ph": "t"}
                seq = open_flows[key]
        elif event == "absorbed" and rec.get("slave") is not None:
            key = (unit, int(rec["slave"]))
            if key in open_flows:
                seq = open_flows.pop(key)
                flow = {"ph": "f", "bp": "e"}
        if flow is not None:
            flow.update(
                {
                    "pid": pid,
                    "tid": tid,
                    "ts": ts,
                    "id": f"{unit}.{seq}",
                    "name": f"unit {format_unit(unit)}",
                    "cat": "causal.flow",
                }
            )
            events.append(flow)

    latency = {
        rec["stage"]: {
            k: rec[k]
            for k in ("count", "sum", "mean", "p50", "p90", "p99", "p999")
            if k in rec
        }
        for rec in records
        if rec.get("kind") == "latency" and rec.get("stage")
    }
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "meta": {k: v for k, v in meta.items() if k != "kind"},
            "latency": latency,
        },
    }


def export_chrome_trace(
    records: Iterable[dict], path: Path | str | IO[str]
) -> int:
    """Write the Chrome trace JSON for a record stream; returns the
    number of trace events emitted."""
    trace = chrome_trace(records)
    text = json.dumps(trace)
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)
    return len(trace["traceEvents"])
