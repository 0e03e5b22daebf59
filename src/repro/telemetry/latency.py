"""Work-unit latency tracing: per-stage streaming histograms + quantiles.

The §3.3 master–slave alternation is a queueing system, and queueing
systems are diagnosed by *tail latency per stage*, not mean throughput: a
straggling slave shows up as a fat ``rtt`` p99, a dispatch pathology as
``queue_master`` dwarfing ``align``, a serialisation bottleneck as
``absorb`` creeping toward the message cadence.  This module is the
store those measurements land in.

A **work unit** is a pair-batch, and its lifecycle is broken into the
stages every engine reports under the same names
(:data:`STAGES`):

- ``generate`` — blocking pair generation of one portion (slave-side;
  bootstrap portions and PAIRBUF refills both count);
- ``queue_master`` — per-pair dwell time in WORKBUF, admission →
  dispatch (master-side; requeues after a slave loss restart the clock);
- ``transit`` — one message's network/pipe time, either direction
  (stamped ``sent_at`` on :class:`~repro.parallel.protocol.SlaveMsg` /
  :class:`~repro.parallel.protocol.MasterMsg`, observed at receipt);
- ``align`` — aligning one NEXTWORK batch (slave-side);
- ``absorb`` — the master incorporating one slave message (results,
  admission, reply computation);
- ``rtt`` — dispatch → verdict absorbed for one non-empty work batch,
  the end-to-end work-unit latency (master-side, spans the whole loop).

The sequential driver has no master, queue or wire, so it reports the
subset {``generate``, ``align``}; the simulator and the multiprocessing
backend report the full set with *identical* stage names — virtual
seconds under the simulator's clock, wall seconds under mp — so their
distributions are directly comparable (asserted by the cross-engine
parity test).

:class:`LatencyStore` is a thin facade over log-bucketed
:class:`~repro.telemetry.registry.Histogram` instruments named
``latency.<stage>.seconds`` inside a shared
:class:`~repro.telemetry.registry.MetricsRegistry` — which means
slave-side observations merge into the master via the existing
``_SlaveStats`` snapshot path, latency histograms ride the normal JSONL
``metric`` records, and the ``latency`` summary records
(:func:`latency_records`) are derivable from any snapshot.  Every run
reaches its store as :attr:`Telemetry.latency
<repro.telemetry.spans.Telemetry.latency>`, and the parallel engines and
the protocol observe unconditionally: a disabled session's store drops
every observation, so traced and untraced runs execute the same code.
Every observation is kept; the full store costs <2% wall on the 30k
monitored run (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math

from repro.telemetry.registry import MetricsRegistry

__all__ = [
    "STAGES",
    "SEQUENTIAL_STAGES",
    "LATENCY_BUCKETS",
    "LATENCY_PREFIX",
    "LATENCY_SUFFIX",
    "QUANTILES",
    "LatencyStore",
    "latency_records",
    "store_from_records",
]

#: The full lifecycle stage set (simulator and mp backend report all six).
STAGES: tuple[str, ...] = (
    "generate",
    "queue_master",
    "transit",
    "align",
    "absorb",
    "rtt",
)

#: The sequential driver's subset (no master, no queue, no wire).
SEQUENTIAL_STAGES: tuple[str, ...] = ("generate", "align")

#: Histogram naming: ``latency.<stage>.seconds``.
LATENCY_PREFIX = "latency."
LATENCY_SUFFIX = ".seconds"

#: The quantiles every breakdown reports.
QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
    ("p999", 0.999),
)

#: Log-spaced upper bounds, 4 per decade from 1 µs to 100 s.  Wide enough
#: for both clock domains: mp hops sit around 10 µs – 100 ms, virtual
#: stage costs around 0.1 ms – 10 s.  33 buckets keeps a full six-stage
#: store under 2 KiB per process.
LATENCY_BUCKETS: tuple[float, ...] = tuple(
    round(10.0 ** (e / 4.0), 10) for e in range(-24, 9)
)


def stage_metric(stage: str) -> str:
    """The registry histogram name for one stage."""
    return f"{LATENCY_PREFIX}{stage}{LATENCY_SUFFIX}"


def _stage_of(name: str) -> str | None:
    if name.startswith(LATENCY_PREFIX) and name.endswith(LATENCY_SUFFIX):
        return name[len(LATENCY_PREFIX) : -len(LATENCY_SUFFIX)]
    return None


class LatencyStore:
    """Streaming per-stage latency histograms with quantile readout.

    Observations go straight into log-bucketed histograms in ``registry``
    (own registry when none is given), so memory is O(stages × buckets)
    regardless of run length and merging slave stores into the master is
    the registry's existing ``merge_snapshot``.  A store built with
    ``enabled=False`` (a disabled session's) drops every observation.
    """

    def __init__(
        self, registry: MetricsRegistry | None = None, *, enabled: bool = True
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.enabled = enabled

    # ---- write path ---------------------------------------------------- #

    def observe(self, stage: str, seconds: float) -> None:
        """Record one stage latency (negative clamps to 0 — monotonic
        clocks across forked processes can disagree by nanoseconds)."""
        if self.enabled:
            self.registry.observe(
                stage_metric(stage), max(0.0, seconds), LATENCY_BUCKETS
            )

    # ---- read path ----------------------------------------------------- #

    def stages(self) -> list[str]:
        """Stages with at least one observation, in canonical order."""
        present = {
            s
            for name, h in self.registry.histograms.items()
            if (s := _stage_of(name)) is not None and h.count > 0
        }
        out = [s for s in STAGES if s in present]
        out += sorted(present - set(STAGES))
        return out

    def count(self, stage: str) -> int:
        h = self.registry.histograms.get(stage_metric(stage))
        return h.count if h is not None else 0

    def total(self, stage: str) -> float:
        """Summed seconds spent in one stage (across all work units)."""
        h = self.registry.histograms.get(stage_metric(stage))
        return h.sum if h is not None else 0.0

    def quantile(self, stage: str, q: float) -> float:
        """The stage's ``q``-quantile; NaN when never observed."""
        h = self.registry.histograms.get(stage_metric(stage))
        return h.quantile(q) if h is not None else math.nan

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Per-stage summary: count, sum, mean and the standard
        quantiles — the shape ``latency`` JSONL records carry."""
        out: dict[str, dict[str, float]] = {}
        for stage in self.stages():
            h = self.registry.histograms[stage_metric(stage)]
            rec: dict[str, float] = {
                "count": h.count,
                "sum": h.sum,
                "mean": h.mean,
            }
            for label, q in QUANTILES:
                rec[label] = h.quantile(q)
            out[stage] = rec
        return out

    # ---- reconstruction ------------------------------------------------ #

    @classmethod
    def from_metrics(cls, metrics: dict) -> "LatencyStore":
        """Rebuild a read-only store from a registry snapshot (the
        ``metrics`` dict of a :class:`TelemetrySnapshot` or the histogram
        records of a loaded JSONL trace via :func:`store_from_records`)."""
        store = cls()
        for name, rec in (metrics or {}).get("histograms", {}).items():
            if _stage_of(name) is None:
                continue
            h = store.registry.histogram(name, tuple(rec["buckets"]))
            h.counts = list(rec["counts"])
            h.count = int(rec["count"])
            h.sum = float(rec["sum"])
        return store


def latency_records(store: LatencyStore) -> list[dict]:
    """Per-stage ``{"kind": "latency", ...}`` summary records:
    denormalised quantiles so downstream tools need no bucket math.
    Empty when nothing was observed."""
    records = []
    for stage, rec in store.breakdown().items():
        records.append(
            {
                "kind": "latency",
                "stage": stage,
                "count": int(rec["count"]),
                "sum": rec["sum"],
                "mean": rec["mean"],
                **{label: rec[label] for label, _q in QUANTILES},
            }
        )
    return records


def store_from_records(records) -> LatencyStore:
    """Rebuild a :class:`LatencyStore` from loaded JSONL trace records.

    Reads the ``latency.<stage>.seconds`` histogram ``metric`` records —
    the denormalised ``latency`` summaries are *derived* from these, never
    the source of truth."""
    metrics = {
        "histograms": {
            rec["name"]: rec
            for rec in records
            if rec.get("kind") == "metric"
            and rec.get("metric") == "histogram"
            and _stage_of(rec.get("name", "")) is not None
        }
    }
    return LatencyStore.from_metrics(metrics)

