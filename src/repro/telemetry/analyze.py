"""Post-run trace analysis: critical path, imbalance, and run diffing.

Works on loaded ``repro-telemetry/4`` JSONL records: the per-stage
``latency`` summaries every trace carries, its machine events and its
causal records.

Three questions, three entry points:

- :func:`analyze_trace` — *where does the time go?*  Per-stage quantile
  table, the critical-path stage (which lifecycle stage dominates the
  part of the work-unit round trip that cannot overlap with other work
  units), per-slave busy-time imbalance with straggler hints, and the
  master-serialisation fraction.
- :func:`diff_traces` — *did it get slower?*  Per-stage, per-quantile
  relative deltas between two traces, flagging regressions past a
  threshold; a trace diffed against itself reports zero regressions.
- :func:`stage_table` — the raw per-stage summary both of the above are
  built on, for tools that want numbers rather than prose.

Critical-path model: a work unit's round trip (``rtt``, dispatch →
verdict absorbed) decomposes into the stages that happen *inside* it —
``transit`` out, slave ``align`` (and any blocking ``generate`` the
slave interleaves), ``transit`` back, master ``absorb``.  ``queue_master``
dwell happens *before* dispatch, so it is reported separately as
admission backpressure rather than folded into the round trip.  The
critical-path stage is the in-flight stage with the largest total
seconds: shrinking any other stage first cannot shrink the makespan by
more.
"""

from __future__ import annotations

import math

from repro.telemetry.causal import check_conservation
from repro.telemetry.latency import QUANTILES, STAGES
from repro.telemetry.trace import busy_times

__all__ = [
    "stage_table",
    "analyze_trace",
    "diff_traces",
    "trace_meta",
    "conservation_section",
]

#: Stages that elapse inside a work unit's round trip (see module doc).
IN_FLIGHT_STAGES: tuple[str, ...] = ("transit", "align", "generate", "absorb")

#: Busy-time ratio (max slave / mean slave) past which a slave is named
#: a straggler.  1.15 = 15% above the mean — visible on Fig. 8's scale.
STRAGGLER_RATIO = 1.15

#: Default relative-increase threshold for :func:`diff_traces`.
DEFAULT_DIFF_THRESHOLD = 0.25

#: Absolute floor below which quantile increases are noise, not
#: regressions (sub-microsecond deltas are clock jitter in every domain
#: we measure).
_ABS_FLOOR = 1e-6


# --------------------------------------------------------------------- #
# extraction


def trace_meta(records: list[dict]) -> dict:
    """The trace's meta record (first line), or ``{}``."""
    if records and records[0].get("kind") == "meta":
        return records[0]
    return {}


def stage_table(records: list[dict]) -> dict[str, dict[str, float]]:
    """Per-stage ``{count, sum, mean, p50, p90, p99, p999}``, read off
    the trace's ``latency`` summary records, in lifecycle order."""
    table: dict[str, dict[str, float]] = {}
    for rec in records:
        if rec.get("kind") == "latency":
            table[rec["stage"]] = {
                k: rec[k]
                for k in ("count", "sum", "mean", "p50", "p90", "p99", "p999")
                if k in rec
            }
    ordered = [s for s in STAGES if s in table]
    ordered += sorted(set(table) - set(STAGES))
    return {s: table[s] for s in ordered}


def _busy_by_actor(records: list[dict]) -> dict[str, float]:
    """Busy seconds per actor, from ``compute`` trace intervals (mp and
    instrumented slaves) unioned with ``busy.<actor>.seconds`` gauges
    (the simulator's accounting)."""
    busy = {actor: s for actor, s in busy_times(records).items() if s > 0}
    for rec in records:
        if (
            rec.get("kind") == "metric"
            and rec.get("metric") == "gauge"
            and rec.get("name", "").startswith("busy.")
            and rec.get("name", "").endswith(".seconds")
        ):
            actor = rec["name"][len("busy.") : -len(".seconds")]
            busy[actor] = max(busy.get(actor, 0.0), float(rec["value"]))
    return busy


def _slave_busy(busy: dict[str, float]) -> dict[str, float]:
    return {a: s for a, s in busy.items() if a.startswith("slave")}


def _shard_busy(busy: dict[str, float]) -> dict[str, float]:
    """Busy seconds per master shard (``shard0``, ``shard1``, …).  Empty
    for single-master runs, whose master actor stays ``master``."""
    return {a: s for a, s in busy.items() if a.startswith("shard")}


def _counter_totals(records: list[dict], *names: str) -> dict[str, float]:
    """Final value of each named counter metric (counters are emitted as
    monotonically-summed totals, so the last record wins)."""
    totals: dict[str, float] = {}
    for rec in records:
        if (
            rec.get("kind") == "metric"
            and rec.get("metric") == "counter"
            and rec.get("name") in names
        ):
            totals[rec["name"]] = float(rec["value"])
    return totals


def critical_path(table: dict[str, dict[str, float]]) -> tuple[str, float]:
    """The in-flight stage with the largest total seconds and its share
    of the in-flight total.  ``("", nan)`` when nothing was observed."""
    totals = {
        s: table[s].get("sum", 0.0) for s in IN_FLIGHT_STAGES if s in table
    }
    grand = sum(totals.values())
    if not totals or grand <= 0:
        return "", math.nan
    stage = max(totals, key=lambda s: totals[s])
    return stage, totals[stage] / grand


# --------------------------------------------------------------------- #
# analyze


def conservation_section(records: list[dict]) -> tuple[list[str], int]:
    """Work-unit conservation report lines for a trace, plus the number
    of conservation *errors* (orphans, double absorbs, and — since any
    trace analyzed here claims to be a complete run — leftover in-flight
    units).  ``([], 0)`` when the trace carries no causal records."""
    report = check_conservation(records)
    if not report.ledgers:
        return [], 0
    lines = report.lines()
    errors = len(report.orphans) + len(report.in_flight)
    if report.storms:
        lines.append(
            f"  requeue storms usually mean the restart budget is bouncing "
            f"work between dying slaves — check fault counters"
        )
    return lines, errors


def analyze_trace(records: list[dict]) -> str:
    """Human-readable latency analysis of one trace."""
    meta = trace_meta(records)
    unit = "virtual s" if meta.get("clock") == "virtual" else "s"
    total = float(meta.get("total_time", 0.0))
    lines = [
        f"trace: engine={meta.get('engine', '?')} "
        f"processors={meta.get('n_processors', '?')} "
        f"clock={meta.get('clock', '?')} total={total:.4f} {unit}"
    ]
    if meta.get("run_id"):
        lines[0] += f" run={meta['run_id']}"

    table = stage_table(records)
    if not table:
        lines.append("no work-unit latency data in this trace")
        return "\n".join(lines)

    lines.append("")
    lines.append(f"per-stage latency ({unit}):")
    lines.append(
        f"  {'stage':<14s}{'count':>9s}{'total':>11s}{'mean':>11s}"
        f"{'p50':>11s}{'p90':>11s}{'p99':>11s}{'p999':>11s}"
    )
    for stage, rec in table.items():
        lines.append(
            f"  {stage:<14s}{int(rec.get('count', 0)):9d}"
            f"{rec.get('sum', 0.0):11.4g}{rec.get('mean', 0.0):11.4g}"
            + "".join(
                f"{rec.get(label, math.nan):11.4g}" for label, _ in QUANTILES
            )
        )

    stage, share = critical_path(table)
    lines.append("")
    if stage:
        lines.append(
            f"critical path: {stage} "
            f"({share * 100:.1f}% of in-flight stage seconds — "
            f"shrinking any other stage cannot help more)"
        )
    if "queue_master" in table:
        q = table["queue_master"]
        lines.append(
            f"admission backpressure: queue_master p99 "
            f"{q.get('p99', math.nan):.4g} {unit} over "
            f"{int(q.get('count', 0))} pairs (dwell before dispatch; "
            f"not part of the round trip)"
        )
    busy = _busy_by_actor(records)
    if "absorb" in table and total > 0:
        frac = table["absorb"].get("sum", 0.0) / total
        lines.append(
            f"master serialisation: absorb occupies {frac * 100:.1f}% of "
            f"the run (the Fig. 8 master-bottleneck axis)"
        )
        shards = _shard_busy(busy)
        if shards:
            counters = _counter_totals(
                records,
                "shard.sync_rounds",
                "shard.unions_exchanged",
                "shard.pairs_pruned",
            )
            lines.append(
                f"  sharded master: {len(shards)} shards, "
                f"{int(counters.get('shard.sync_rounds', 0))} sync rounds, "
                f"{int(counters.get('shard.unions_exchanged', 0))} unions "
                f"exchanged, "
                f"{int(counters.get('shard.pairs_pruned', 0))} pairs pruned"
            )
            hot = max(shards, key=lambda a: shards[a])
            for actor in sorted(shards):
                mark = "  <- hot shard" if actor == hot else ""
                lines.append(
                    f"    {actor:<10s} busy {shards[actor]:.4g} {unit} "
                    f"({shards[actor] / total * 100:.1f}% of the run)"
                    f"{mark}"
                )
            lines.append(
                f"  residual serialisation rides the hot shard ({hot}) "
                f"plus the merge exchanges; rebalance bucket ownership "
                f"before adding shards if the hot share dominates"
            )

    slaves = _slave_busy(busy)
    if len(slaves) >= 2:
        mean = sum(slaves.values()) / len(slaves)
        worst = max(slaves, key=lambda a: slaves[a])
        ratio = slaves[worst] / mean if mean > 0 else math.nan
        lines.append("")
        lines.append(
            f"slave load: {len(slaves)} slaves, busy mean {mean:.4g} {unit}, "
            f"max {slaves[worst]:.4g} {unit} ({worst}), "
            f"imbalance {ratio:.3f}x"
        )
        if ratio >= STRAGGLER_RATIO:
            lines.append(
                f"straggler hint: {worst} is {ratio:.2f}x the mean busy "
                f"time — check its EST share and the rtt tail"
            )
        else:
            lines.append("no straggler: busy times within "
                         f"{STRAGGLER_RATIO:.2f}x of the mean")

    cons_lines, _ = conservation_section(records)
    if cons_lines:
        lines.append("")
        lines.extend(cons_lines)
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# diff


def diff_traces(
    a_records: list[dict],
    b_records: list[dict],
    *,
    threshold: float = DEFAULT_DIFF_THRESHOLD,
) -> tuple[str, int]:
    """Compare trace *b* against baseline *a*; return ``(report,
    n_regressions)``.

    A regression is a per-stage mean or quantile that grew by more than
    ``threshold`` (relative) *and* more than an absolute noise floor.
    Identical traces — including a trace diffed against itself — report
    zero regressions.  Stages present on only one side are noted but
    never counted (engines legitimately differ in stage sets).
    """
    ta, tb = stage_table(a_records), stage_table(b_records)
    ma, mb = trace_meta(a_records), trace_meta(b_records)
    lines = [
        f"baseline: engine={ma.get('engine', '?')} total="
        f"{float(ma.get('total_time', 0.0)):.4f}"
        f"   candidate: engine={mb.get('engine', '?')} total="
        f"{float(mb.get('total_time', 0.0)):.4f}"
        f"   threshold: +{threshold * 100:.0f}%"
    ]
    regressions = 0
    shared = [s for s in ta if s in tb]
    metrics = ["mean"] + [label for label, _ in QUANTILES]
    if shared:
        lines.append("")
        lines.append(
            f"  {'stage':<14s}{'metric':>7s}{'baseline':>12s}"
            f"{'candidate':>12s}{'delta':>9s}"
        )
    for stage in shared:
        for m in metrics:
            va, vb = ta[stage].get(m), tb[stage].get(m)
            if va is None or vb is None:
                continue
            if math.isnan(va) or math.isnan(vb):
                continue
            delta = (vb - va) / va if va > 0 else (math.inf if vb > 0 else 0.0)
            regressed = delta > threshold and (vb - va) > _ABS_FLOOR
            if regressed:
                regressions += 1
            shown = (
                f"{delta * 100:+.1f}%" if math.isfinite(delta) else "+inf"
            )
            lines.append(
                f"  {stage:<14s}{m:>7s}{va:>12.4g}{vb:>12.4g}{shown:>9s}"
                + ("  REGRESSION" if regressed else "")
            )
    for stage in ta:
        if stage not in tb:
            lines.append(f"  note: stage {stage!r} only in baseline")
    for stage in tb:
        if stage not in ta:
            lines.append(f"  note: stage {stage!r} only in candidate")
    lines.append("")
    lines.append(
        f"{regressions} regression(s) past +{threshold * 100:.0f}%"
        if regressions
        else f"no regressions past +{threshold * 100:.0f}%"
    )
    return "\n".join(lines), regressions
