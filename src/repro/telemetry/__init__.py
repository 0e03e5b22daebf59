"""Unified telemetry: one session per run, its event list, and the readers.

One subsystem instruments the whole pipeline — preprocess → GST
construction → on-demand pair generation → alignment → cluster merging —
across all three drivers (sequential, simulated multiprocessor, real
multiprocessing).  A run's :class:`Telemetry` session is the only
recorder of its events: phase spans, machine send/recv/compute/fault
events and causal work-unit records all go into the session's one event
list as the JSONL records they are written as, while counters, gauges,
histograms and work-unit latencies go into its metrics registry
(``TimingBreakdown`` is a view over that registry, and fault counters
surface as ``fault.*`` metrics).  The session's clock stamps every
record a process writes: its events, the live monitor's ``live`` and
``live_state`` records (whose fold is the monitor's whole state), and
the crash flight recorder's dumps, which are the session's newest
events.  The report, analysis, export and postmortem modules read those
records, every stream in the one ``repro-telemetry/4`` schema.

Layering: this package depends only on the standard library, so every
other layer of the system may import it freely.

Typical use::

    from repro.telemetry import Telemetry, export_jsonl

    tel = Telemetry()
    result = run_parallel(collection, cfg, n_processors=4,
                          machine="multiprocessing", telemetry=tel)
    export_jsonl(result.telemetry, "trace.jsonl")

and ``pace-est report trace.jsonl`` reconstructs the per-phase times
(Table 3 shape), per-slave utilisation, and master-busy fraction from the
file alone.  ``pace-est analyze`` / ``pace-est diff`` break the same
trace down by work-unit lifecycle stage (:mod:`repro.telemetry.latency`,
:mod:`repro.telemetry.analyze`): per-stage p50/p90/p99/p999, the
critical-path stage, slave imbalance, and stage-by-stage regression
deltas between two runs.

Causal observability (:mod:`repro.telemetry.causal`,
:mod:`repro.telemetry.flight`, :mod:`repro.telemetry.export`,
:mod:`repro.telemetry.postmortem`): with ``causal_tracing`` enabled every
dispatched pair batch carries a work-unit id whose lifecycle events ride
the same JSONL stream, ``pace-est analyze`` checks conservation (every
admitted pair is absorbed, pruned or accounted in flight), ``pace-est
perfetto`` exports a Perfetto-loadable timeline with dispatch→absorb flow
arrows, and ``pace-est postmortem`` merges the trace with per-process
crash flight-recorder dumps to reconstruct a failed run's last moments.
"""

from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.telemetry.analyze import analyze_trace, diff_traces, stage_table
from repro.telemetry.causal import (
    UnitMinter,
    check_conservation,
    format_unit,
)
from repro.telemetry.export import chrome_trace, export_chrome_trace
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.postmortem import build_postmortem, collect_run_sources
from repro.telemetry.latency import (
    SEQUENTIAL_STAGES,
    STAGES,
    LatencyStore,
    latency_records,
    store_from_records,
)
from repro.telemetry.live import (
    LiveRunState,
    ResourceSampler,
    live_record,
    replay_live_records,
)
from repro.telemetry.monitor import (
    RunMonitor,
    monitored_run,
    render_progress_table,
    render_prometheus,
)
from repro.telemetry.sinks import (
    ACCEPTED_SCHEMAS,
    SCHEMA_VERSION,
    export_jsonl,
    load_jsonl,
    snapshot_records,
    summarise,
    validate_records,
)
from repro.telemetry.spans import TABLE3_ORDER, Telemetry, TelemetrySnapshot
from repro.telemetry.trace import render_timeline, utilisation

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Telemetry",
    "TelemetrySnapshot",
    "render_timeline",
    "utilisation",
    "SCHEMA_VERSION",
    "ACCEPTED_SCHEMAS",
    "TABLE3_ORDER",
    "LiveRunState",
    "live_record",
    "ResourceSampler",
    "replay_live_records",
    "RunMonitor",
    "monitored_run",
    "render_prometheus",
    "render_progress_table",
    "snapshot_records",
    "export_jsonl",
    "load_jsonl",
    "validate_records",
    "summarise",
    "quantile_from_buckets",
    "LatencyStore",
    "STAGES",
    "SEQUENTIAL_STAGES",
    "latency_records",
    "store_from_records",
    "analyze_trace",
    "diff_traces",
    "stage_table",
    "UnitMinter",
    "check_conservation",
    "format_unit",
    "chrome_trace",
    "export_chrome_trace",
    "FlightRecorder",
    "build_postmortem",
    "collect_run_sources",
]
