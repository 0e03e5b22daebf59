"""Postmortem reconstruction of a failed (or finished) run directory.

`pace-est postmortem <dir>` merges everything a run left behind — the
telemetry trace, the live stream and the per-process flight-recorder
dumps (:mod:`repro.telemetry.flight`), all JSONL files of one schema,
each loaded tolerantly (a writer that died mid-line, see
:func:`repro.telemetry.sinks.load_jsonl`) — into one causally-ordered
timeline, then reports:

- each actor's last known state (progress counters from live samples,
  the state a flight dump recorded);
- which slaves were lost, and which work units were in flight when the
  run ended (from :func:`repro.telemetry.causal.check_conservation`
  with in-flight allowed — in-flight units on a *finished* run are
  still flagged as errors);
- the merged event tail: the last moments before things went wrong.

Flight dumps (``meta.stream == "flight"``) are kept apart from the run's
own records: a dump repeats events the trace may also hold, so only the
timeline sees dumps — one line per event, whichever source it came
from — and the causal ledgers count the run's records alone.

The module is read-only over the run directory and never raises on
partial data: a postmortem has to work on exactly the runs that died
messily.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

from repro.telemetry.causal import check_conservation, format_unit
from repro.telemetry.live import replay_live_records
from repro.telemetry.sinks import load_jsonl

__all__ = ["RunSources", "collect_run_sources", "build_postmortem"]

#: Default number of merged timeline events shown at the end of a report.
DEFAULT_TAIL = 25


@dataclass
class RunSources:
    """Everything readable from one run directory."""

    directory: str
    #: The run's own records (trace and live streams), on the run clock.
    records: list[dict] = field(default_factory=list)
    #: One record list per flight dump, its ``meta`` record first.
    flight_dumps: list[list[dict]] = field(default_factory=list)
    #: ``(filename, record count)`` per run stream actually read.
    jsonl_files: list[tuple[str, int]] = field(default_factory=list)
    #: ``filename: message`` for files that could not be read at all.
    errors: dict[str, str] = field(default_factory=dict)

    @property
    def meta(self) -> dict:
        for rec in self.records:
            if rec.get("kind") == "meta":
                return rec
        return {}


def collect_run_sources(directory: str) -> RunSources:
    """Read every JSONL file in ``directory``: the run's streams and its
    flight dumps.

    Files are loaded tolerantly (a truncated final line — the
    writer died mid-record — is skipped with a warning instead of
    raised); files that are unreadable or broken earlier than their last
    line are reported in ``errors`` and otherwise ignored.
    """
    src = RunSources(directory=directory)
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        src.errors[directory] = str(exc)
        return src
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        path = os.path.join(directory, name)
        try:
            records = load_jsonl(path, tolerant=True)
        except (OSError, ValueError) as exc:
            src.errors[name] = str(exc)
            continue
        if records and records[0].get("stream") == "flight":
            src.flight_dumps.append(records)
        else:
            src.jsonl_files.append((name, len(records)))
            src.records.extend(records)
    # A stable causal order for the merged stream: every record kind in
    # the schema carries ts on the run clock.
    src.records.sort(key=lambda r: float(r.get("ts", 0.0)))
    return src


def _describe(rec: dict) -> str | None:
    """A timeline line's text for a noteworthy record (a message, a
    fault, a work-unit lifecycle step), else ``None``."""
    kind, event = rec.get("kind"), rec.get("event")
    if kind == "causal":
        extra = f" reason={rec['reason']}" if rec.get("reason") else ""
        to = f" slave={rec['slave']}" if rec.get("slave") is not None else ""
        return (
            f"{event} unit {format_unit(rec.get('unit', -1))} "
            f"n={rec.get('n', 0)}{to}{extra}"
        )
    if kind == "trace" and event == "fault":
        return f"FAULT {rec.get('detail', '')}"
    if kind == "trace" and event in ("send", "recv"):
        return f"{event} {rec.get('detail', '')}".rstrip()
    return None


def _timeline_tail(src: RunSources, tail: int) -> list[str]:
    """The last ``tail`` noteworthy events across all sources, merged on
    the run clock; a dump's event the run's records already hold (or an
    earlier dump did) is not repeated."""

    def entries(records):
        for rec in records:
            text = _describe(rec)
            if text is not None:
                yield float(rec.get("ts", 0.0)), rec.get("actor", "?"), text

    merged = list(entries(src.records))
    seen = set(merged)
    for entry in entries(itertools.chain(*src.flight_dumps)):
        if entry not in seen:
            seen.add(entry)
            merged.append(entry)
    merged.sort(key=lambda e: e[0])
    return [f"  t={ts:10.4f}  {actor:<8} {text}" for ts, actor, text in merged[-tail:]]


def build_postmortem(directory: str, *, tail: int = DEFAULT_TAIL) -> tuple[str, bool]:
    """Reconstruct a run's last moments; returns ``(report, ok)``.

    ``ok`` is False when the causal ledger shows orphans or double
    absorbs, or when a run that claims to have *finished* still has
    in-flight work units — an interrupted run with in-flight units is
    expected and reported, not failed.
    """
    src = collect_run_sources(directory)
    meta = src.meta
    lines: list[str] = []
    dump_metas = [dump[0] for dump in src.flight_dumps]
    run_id = meta.get("run_id") or next(
        (d["run_id"] for d in dump_metas if d.get("run_id")), ""
    )
    lines.append(f"postmortem: {directory}")
    lines.append(
        f"  run {run_id or '?'} · engine={meta.get('engine', '?')} "
        f"· schema={meta.get('schema', '?')}"
    )

    lines.append("sources:")
    for name, count in src.jsonl_files:
        lines.append(f"  {name}: {count} records")
    for dump, head in zip(src.flight_dumps, dump_metas):
        lines.append(
            f"  flight-{head.get('actor', '?')}.jsonl: {len(dump) - 1} events, "
            f"reason={head.get('reason', '?')} "
            f"at t={float(head.get('dumped_at', 0.0)):.4f}"
        )
    for name, err in src.errors.items():
        lines.append(f"  {name}: unreadable ({err})")
    if not src.jsonl_files and not src.flight_dumps:
        lines.append("  (no telemetry JSONL or flight dumps found)")
        return "\n".join(lines), False

    finished = bool(meta.get("total_time") is not None)
    state = replay_live_records(src.records).as_dict()
    flight_by_actor = {head.get("actor"): head for head in dump_metas}

    lines.append("actors:")
    views = [("master", state["master"])] + [
        (f"slave{v['slave_id']}", v) for v in state["slaves"]
    ]
    for actor, view in views:
        parts = [f"state={view['state']}"]
        if view["samples"]:
            parts.append(f"last seen t={view['last_ts']:.4f}")
            parts.append(f"aligned={view['alignments']}")
            parts.append(f"generated={view['pairs_generated']}")
            if actor != "master":
                parts.append(f"inc={view['incarnation']}")
        dump = flight_by_actor.get(actor)
        if dump is not None:
            parts.append(f"flight dump: {dump.get('reason', '?')}")
            st = dump.get("state")
            if isinstance(st, dict) and st:
                parts.append(
                    "dump state: "
                    + " ".join(f"{k}={v}" for k, v in sorted(st.items()))
                )
        lines.append(f"  {actor:<8} " + " · ".join(parts))
    lost = [v["slave_id"] for v in state["slaves"] if v["state"] == "lost"]
    if lost:
        lines.append(f"lost slaves: {', '.join(str(k) for k in lost)}")

    report = check_conservation(src.records)
    if report.ledgers:
        if report.in_flight:
            lines.append("in-flight work units at end of record stream:")
            for unit, n in sorted(report.in_flight.items()):
                led = report.ledgers[unit]
                where = (
                    f"dispatched to slave {led.last_slave}"
                    if led.flight_leftover > 0
                    else "queued in WORKBUF"
                )
                lines.append(
                    f"  unit {format_unit(unit)}: {n} pairs, {where}, "
                    f"last event t={led.last_ts:.4f}"
                )
        lines.extend(report.lines(allow_in_flight=not finished))
        ok = report.ok(allow_in_flight=not finished)
    else:
        lines.append(
            "no causal records found (run without --causal-trace); "
            "conservation not checked"
        )
        ok = not src.errors

    tail_lines = _timeline_tail(src, tail)
    if tail_lines:
        lines.append(f"timeline tail (last {len(tail_lines)} events):")
        lines.extend(tail_lines)
    return "\n".join(lines), ok
