"""Telemetry sinks: JSONL export, schema validation, and the human report.

The on-disk form is JSON Lines — one record per line, first line a
``meta`` record — so traces stream, concatenate, and grep well.  The
run's trace, the live monitor's ``--live-out`` stream (``stream:
"live"``) and crash flight dumps (``stream: "flight"``) are all files of
this one schema.  Record kinds (the full schema is documented in
DESIGN.md §5b):

- ``meta`` — run identity: schema version, engine, processor count,
  clock domain ("wall" or "virtual"), total run time, ``origin``,
  ``run_id``;
- ``span_start`` / ``span_end`` — phase-scoped spans with nesting
  (``id``/``parent``) and, on end, the measured ``duration``;
- ``trace`` — machine events (``event`` ∈ send/recv/compute/fault) with
  ``ts``/``end`` interval bounds and the owning ``actor``;
- ``metric`` — final instrument values (``metric`` ∈
  counter/gauge/histogram);
- ``live`` — a streamed per-actor resource/progress sample (written by
  the run monitor's ``--live-out`` stream; timestamps are monotone *per
  actor*, not globally, because slaves sample independently and their
  messages interleave in arrival order);
- ``live_state`` — a streamed master-side aggregate (progress, queue
  depths, fault counters) with a ``finished`` flag on the last one;
- ``latency`` — a per-stage work-unit latency summary: ``stage`` plus
  count/sum/mean and the p50/p90/p99/p999 quantiles, denormalised from
  the ``latency.<stage>.seconds`` histograms so downstream tools get
  tail percentiles without redoing bucket math;
- ``causal`` — a work-unit lifecycle event: ``event`` ∈
  generated/admitted/dispatched/aligned/absorbed/requeued/pruned with
  the ``unit`` id, pair count ``n``, ``actor`` and ``ts`` (see
  :mod:`repro.telemetry.causal`; the conservation check balances these).

:func:`validate_records` is the schema check the CI smoke job and the
round-trip tests run; :func:`summarise` reconstructs the paper-shaped
measurements from a record stream alone — per-phase times (Table 3
columns), per-actor utilisation and the master-busy fraction (Figure 8's
measurement), pair-flow counters, histograms, and fault accounting —
which is what ``pace-est report`` prints.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import IO, Iterable

from repro.telemetry.causal import CAUSAL_EVENTS
from repro.telemetry.latency import LatencyStore, latency_records
from repro.telemetry.spans import (
    SPAN_PREFIX,
    TABLE3_ORDER,
    TelemetrySnapshot,
    phase_of,
)
from repro.telemetry.trace import busy_times

__all__ = [
    "SCHEMA_VERSION",
    "ACCEPTED_SCHEMAS",
    "snapshot_records",
    "export_jsonl",
    "load_jsonl",
    "validate_records",
    "summarise",
]

SCHEMA_VERSION = "repro-telemetry/4"

#: Schema revisions this reader accepts: the one that is written.
ACCEPTED_SCHEMAS = frozenset({SCHEMA_VERSION})

_EVENT_KINDS = frozenset({"span_start", "span_end", "trace", "causal"})
_TRACE_EVENTS = frozenset({"send", "recv", "compute", "fault"})
_METRIC_KINDS = frozenset({"counter", "gauge", "histogram"})


# --------------------------------------------------------------------- #
# export / load
# --------------------------------------------------------------------- #


def snapshot_records(snapshot: TelemetrySnapshot) -> list[dict]:
    """The full JSONL record sequence for one snapshot."""
    records: list[dict] = [
        {"kind": "meta", "schema": SCHEMA_VERSION, **snapshot.meta}
    ]
    records.extend(snapshot.events)
    metrics = snapshot.metrics
    for name, value in metrics.get("counters", {}).items():
        records.append(
            {"kind": "metric", "metric": "counter", "name": name, "value": value}
        )
    for name, value in metrics.get("gauges", {}).items():
        records.append(
            {"kind": "metric", "metric": "gauge", "name": name, "value": value}
        )
    for name, rec in metrics.get("histograms", {}).items():
        records.append(
            {
                "kind": "metric",
                "metric": "histogram",
                "name": name,
                "buckets": rec["buckets"],
                "counts": rec["counts"],
                "count": rec["count"],
                "sum": rec["sum"],
            }
        )
    # Denormalised per-stage work-unit latency summaries, derived
    # from the ``latency.*`` histograms above so downstream tools get
    # quantiles without redoing the bucket math.
    records.extend(latency_records(LatencyStore.from_metrics(metrics)))
    return records


def export_jsonl(snapshot: TelemetrySnapshot, path: Path | str | IO[str]) -> int:
    """Write one snapshot as JSONL; returns the number of records."""
    records = snapshot_records(snapshot)
    text = "\n".join(json.dumps(r, sort_keys=False) for r in records) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)
    return len(records)


def load_jsonl(path: Path | str, *, tolerant: bool = False) -> list[dict]:
    """Parse a JSONL trace back into records.

    Syntax errors raise ``ValueError`` with the offending line number,
    except in ``tolerant`` mode: a run killed mid-write leaves a truncated
    final line, so a JSON error on the *last* non-empty line is reported
    as a warning and skipped (anything earlier is real corruption and
    still raises).  `pace-est postmortem` loads tolerantly — it exists
    precisely for the runs that died messily.  A line that parses but is
    not a JSON object is never a record and always raises.
    """
    lines = [
        (lineno, line.strip())
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1)
        if line.strip()
    ]
    records: list[dict] = []
    for idx, (lineno, line) in enumerate(lines):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            if tolerant and idx == len(lines) - 1:
                warnings.warn(
                    f"{path}:{lineno}: truncated final line skipped "
                    f"(run killed mid-write?): {exc}",
                    stacklevel=2,
                )
                break
            raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise ValueError(
                f"{path}:{lineno}: not a JSON object: {type(rec).__name__}"
            )
        records.append(rec)
    return records


# --------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------- #


def _number(value) -> bool:
    return isinstance(value, (int, float))


def validate_records(records: Iterable[dict]) -> list[str]:
    """Schema-check a record stream; returns a list of problems (empty
    means valid), a field that should hold a number and does not among
    them.  This is what the CI smoke job runs on exported traces."""
    problems: list[str] = []
    records = list(records)
    if not records:
        return ["empty trace: no records"]
    head = records[0]
    if head.get("kind") != "meta":
        problems.append(f"record 0: expected a meta record, got {head.get('kind')!r}")
    elif head.get("schema") not in ACCEPTED_SCHEMAS:
        problems.append(
            f"record 0: unknown schema {head.get('schema')!r} "
            f"(expected {SCHEMA_VERSION!r})"
        )
    last_ts = None
    live_ts: dict[str, float] = {}  # live samples are monotone per actor
    last_state_ts = None
    for i, rec in enumerate(records[1:], 1):
        kind = rec.get("kind")
        if kind == "meta":
            problems.append(f"record {i}: duplicate meta record")
        elif kind == "live":
            ts, actor = rec.get("ts"), rec.get("actor")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"record {i}: bad ts {ts!r}")
                continue
            if not actor:
                problems.append(f"record {i}: live sample without actor")
                continue
            if actor in live_ts and ts < live_ts[actor] - 1e-9:
                problems.append(
                    f"record {i}: live timestamps for {actor} not monotone "
                    f"({ts} after {live_ts[actor]})"
                )
            live_ts[actor] = ts
            for field in ("rss_bytes", "pairs_generated", "alignments"):
                value = rec.get(field, 0)
                if not _number(value):
                    problems.append(f"record {i}: {field} {value!r} is not a number")
                elif value < 0:
                    problems.append(f"record {i}: negative {field}")
        elif kind == "live_state":
            ts = rec.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"record {i}: bad ts {ts!r}")
                continue
            if last_state_ts is not None and ts < last_state_ts - 1e-9:
                problems.append(
                    f"record {i}: live_state timestamps not monotone "
                    f"({ts} after {last_state_ts})"
                )
            last_state_ts = ts
            progress = rec.get("progress", 0.0)
            if not _number(progress) or not 0.0 <= progress <= 1.0:
                problems.append(
                    f"record {i}: progress {progress!r} outside [0, 1]"
                )
        elif kind in _EVENT_KINDS:
            ts = rec.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"record {i}: bad ts {ts!r}")
                continue
            if last_ts is not None and ts < last_ts - 1e-9:
                problems.append(
                    f"record {i}: timestamps not monotone ({ts} after {last_ts})"
                )
            last_ts = ts
            if kind == "trace":
                if rec.get("event") not in _TRACE_EVENTS:
                    problems.append(
                        f"record {i}: unknown trace event {rec.get('event')!r}"
                    )
                end = rec.get("end", ts)
                if not _number(end):
                    problems.append(f"record {i}: end {end!r} is not a number")
                elif end < ts:
                    problems.append(f"record {i}: interval ends before it starts")
                if not rec.get("actor"):
                    problems.append(f"record {i}: trace event without actor")
            elif kind == "causal":
                if rec.get("event") not in CAUSAL_EVENTS:
                    problems.append(
                        f"record {i}: unknown causal event {rec.get('event')!r}"
                    )
                if not isinstance(rec.get("unit"), int):
                    problems.append(f"record {i}: causal record without a unit id")
                if not isinstance(rec.get("n"), int) or rec.get("n", -1) < 0:
                    problems.append(f"record {i}: causal record bad pair count")
                if not rec.get("actor"):
                    problems.append(f"record {i}: causal record without actor")
            else:
                if not rec.get("name"):
                    problems.append(f"record {i}: span without a name")
                duration = rec.get("duration", 0.0)
                if kind == "span_end" and not _number(duration):
                    problems.append(
                        f"record {i}: duration {duration!r} is not a number"
                    )
                elif kind == "span_end" and duration < 0:
                    problems.append(f"record {i}: negative span duration")
        elif kind == "metric":
            if rec.get("metric") not in _METRIC_KINDS:
                problems.append(f"record {i}: unknown metric kind {rec.get('metric')!r}")
            elif not rec.get("name"):
                problems.append(f"record {i}: metric without a name")
            elif rec["metric"] != "histogram":
                if not _number(rec.get("value")):
                    problems.append(
                        f"record {i}: {rec['metric']} {rec['name']!r} value "
                        f"{rec.get('value')!r} is not a number"
                    )
            else:
                buckets, counts = rec.get("buckets", []), rec.get("counts", [])
                if not (
                    isinstance(buckets, list)
                    and isinstance(counts, list)
                    and all(map(_number, buckets + counts))
                ):
                    problems.append(
                        f"record {i}: histogram {rec['name']!r} buckets and "
                        f"counts must be lists of numbers"
                    )
                elif len(counts) != len(buckets) + 1:
                    problems.append(
                        f"record {i}: histogram {rec['name']!r} needs "
                        f"len(buckets)+1 counts, got {len(counts)}"
                    )
                elif sum(counts) != rec.get("count"):
                    problems.append(
                        f"record {i}: histogram {rec['name']!r} counts sum to "
                        f"{sum(counts)}, not count={rec.get('count')}"
                    )
        elif kind == "latency":
            stage = rec.get("stage")
            if not stage:
                problems.append(f"record {i}: latency record without a stage")
                continue
            count, total = rec.get("count", 0), rec.get("sum", 0.0)
            if not _number(count) or count <= 0:
                problems.append(
                    f"record {i}: latency stage {stage!r} with count "
                    f"{rec.get('count')!r} (empty stages are omitted)"
                )
            if not _number(total):
                problems.append(
                    f"record {i}: latency stage {stage!r} sum {total!r} is not "
                    f"a number"
                )
            elif total < 0:
                problems.append(f"record {i}: latency stage {stage!r} negative sum")
            qs = [rec.get(q) for q in ("p50", "p90", "p99", "p999")]
            if any(not isinstance(q, (int, float)) for q in qs):
                problems.append(
                    f"record {i}: latency stage {stage!r} missing quantiles"
                )
            elif any(b < a - 1e-12 for a, b in zip(qs, qs[1:])):
                problems.append(
                    f"record {i}: latency stage {stage!r} quantiles not "
                    f"ordered: {qs}"
                )
            elif qs[0] < 0:
                problems.append(
                    f"record {i}: latency stage {stage!r} negative p50"
                )
        else:
            problems.append(f"record {i}: unknown record kind {kind!r}")
    # Span start/end pairing by id — except in a flight dump, a tail that
    # cuts spans open at either end.
    if head.get("stream") != "flight":
        started = {r["id"] for r in records if r.get("kind") == "span_start"}
        ended = {r["id"] for r in records if r.get("kind") == "span_end"}
        for sid in sorted(started ^ ended):
            problems.append(f"span id {sid}: unmatched start/end")
    return problems


# --------------------------------------------------------------------- #
# the human report
# --------------------------------------------------------------------- #


def _phase_times(records: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for rec in records:
        if rec.get("kind") == "metric" and rec.get("metric") == "counter":
            phase = phase_of(rec["name"])
            if phase is not None:
                out[phase] = rec["value"]
    return out


def summarise(records: list[dict]) -> str:
    """Reconstruct the paper-shaped measurements from a record stream."""
    meta = records[0] if records and records[0].get("kind") == "meta" else {}
    total = float(meta.get("total_time", 0.0))
    unit = "virtual s" if meta.get("clock") == "virtual" else "s"
    lines: list[str] = []
    lines.append(
        f"run: engine={meta.get('engine', '?')} "
        f"processors={meta.get('n_processors', 1)} clock={meta.get('clock', '?')} "
        f"total={total:.4f} {unit}"
    )

    phases = _phase_times(records)
    if phases:
        lines.append("")
        lines.append(f"per-phase times (Table 3 components, {unit}):")
        ordered = [n for n in TABLE3_ORDER if n in phases]
        ordered += [n for n in phases if n not in TABLE3_ORDER]
        width = max(len(n) for n in ordered)
        for name in ordered:
            lines.append(f"  {name:<{width}s}  {phases[name]:10.4f}")
        lines.append(f"  {'total':<{width}s}  {sum(phases.values()):10.4f}")

    busy = busy_times(records)
    if busy:
        lines.append("")
        lines.append("per-actor utilisation (busy fraction of total time):")
        for actor in sorted(busy, key=lambda a: (a != "master", a)):
            frac = busy[actor] / total if total > 0 else 0.0
            lines.append(f"  {actor:<10s}  {busy[actor]:10.4f} {unit}  {frac * 100:6.2f}%")
        if "master" in busy:
            frac = busy["master"] / total if total > 0 else 0.0
            lines.append(f"master busy fraction: {frac * 100:.2f}% (Fig. 8 measurement)")

    counters = {
        r["name"]: r["value"]
        for r in records
        if r.get("kind") == "metric"
        and r.get("metric") == "counter"
        and not r["name"].startswith(SPAN_PREFIX)
        and not r["name"].startswith("fault.")
    }
    if counters:
        lines.append("")
        lines.append("counters:")
        for name in counters:
            value = counters[name]
            shown = f"{value:.4f}" if value != int(value) else f"{int(value)}"
            lines.append(f"  {name} = {shown}")
    gauges = {
        r["name"]: r["value"]
        for r in records
        if r.get("kind") == "metric" and r.get("metric") == "gauge"
    }
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for name, value in gauges.items():
            lines.append(f"  {name} = {value:.6g}")

    lat = [r for r in records if r.get("kind") == "latency"]
    if lat:
        lines.append("")
        lines.append("work-unit latency (per stage, seconds):")
        lines.append(
            f"  {'stage':<14s}  {'count':>8s}  {'mean':>10s}  "
            f"{'p50':>10s}  {'p99':>10s}  {'p999':>10s}"
        )
        for r in lat:
            lines.append(
                f"  {r['stage']:<14s}  {r['count']:8d}  {r['mean']:10.3g}  "
                f"{r['p50']:10.3g}  {r['p99']:10.3g}  {r['p999']:10.3g}"
            )

    hists = [
        r
        for r in records
        if r.get("kind") == "metric"
        and r.get("metric") == "histogram"
        # latency.* histograms are summarised by the latency table above;
        # their 33-bucket dumps would drown the report.
        and not (lat and r["name"].startswith("latency."))
    ]
    for h in hists:
        lines.append("")
        mean = h["sum"] / h["count"] if h["count"] else 0.0
        lines.append(f"histogram {h['name']} (n={h['count']}, mean={mean:.2f}):")
        edges = ["<=%g" % b for b in h["buckets"]] + [">%g" % h["buckets"][-1]]
        for edge, count in zip(edges, h["counts"]):
            if count:
                lines.append(f"  {edge:>10s}  {count}")

    live = [r for r in records if r.get("kind") == "live"]
    if live:
        lines.append("")
        lines.append("live samples (streamed during the run):")
        per_actor: dict[str, list[dict]] = {}
        for rec in live:
            per_actor.setdefault(rec.get("actor", "?"), []).append(rec)
        for actor in sorted(per_actor):
            samples = per_actor[actor]
            last = samples[-1]
            peak_rss = max(r.get("rss_bytes", 0) for r in samples)
            lines.append(
                f"  {actor:<10s}  {len(samples):4d} samples  "
                f"peak rss {peak_rss / (1024 * 1024):8.1f} MiB  "
                f"cpu {last.get('cpu_seconds', 0.0):8.2f} s  "
                f"pairs {last.get('pairs_generated', 0)}"
            )
        states = [r for r in records if r.get("kind") == "live_state"]
        if states:
            final = states[-1]
            lines.append(
                f"  final progress {final.get('progress', 0.0) * 100:.1f}% "
                f"({'finished' if final.get('finished') else 'in flight'})"
            )

    fault_counters = {
        r["name"][len("fault.") :]: r["value"]
        for r in records
        if r.get("kind") == "metric"
        and r.get("metric") == "counter"
        and r["name"].startswith("fault.")
    }
    fault_events = [
        r for r in records if r.get("kind") == "trace" and r.get("event") == "fault"
    ]
    if fault_counters or fault_events:
        lines.append("")
        lines.append("faults:")
        for name, value in fault_counters.items():
            lines.append(f"  {name} = {int(value)}")
        for rec in fault_events:
            lines.append(
                f"  [{rec['ts']:10.4f}] {rec['actor']}: {rec.get('detail', '')}"
            )

    if any(r.get("kind") == "causal" for r in records):
        from repro.telemetry.causal import check_conservation

        lines.append("")
        lines.extend(check_conservation(records).lines())
    return "\n".join(lines)
