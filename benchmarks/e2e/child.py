"""One run of one workload, in a process of its own.

The parent (``run.py``) starts this file once per run, so every run pays
interpreter start, ``import repro``, FASTA parsing and collection build —
that is ``setup_s`` — and no run inherits a warm cache from the one
before.  The only inputs are a FASTA path and a workload name; the result
goes to ``--out`` as JSON.

Modes: ``run`` calls the workload's front door with tracing off (feeds the
end-to-end metrics); ``trace`` is the traced run (feeds the per-layer
metrics, never an end-to-end one) followed by a few standalone timed calls;
``oracle`` runs the sequential scalar per-pair reference.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
from time import perf_counter

import numpy as np

from repro.metrics.confusion import labels_from_clusters


#: Calibration bursts timed before and again after the measured call.
CAL_BURSTS = 3


def _burst() -> float:
    """Seconds for a fixed piece of work shaped like the program's own:
    half interpreter (dict and integer bytecode), half numpy (a stable
    argsort and a scan over 600k int64)."""
    t0 = perf_counter()
    acc = 0
    table = {}
    for i in range(250_000):
        table[i & 1023] = acc
        acc += (i * i) % 7
    a = (np.arange(600_000, dtype=np.int64) * 2654435761) % 1000003
    np.cumsum(a[np.argsort(a, kind="stable")]).max()
    return perf_counter() - t0


def _calibrate() -> list[float]:
    return [_burst() for _ in range(CAL_BURSTS)]


def _cpu() -> tuple[float, float]:
    """(own, reaped-children) user+sys CPU seconds of this process."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, reaped.ru_utime + reaped.ru_stime


def _mb(ru_maxrss_kb: int) -> float:
    return ru_maxrss_kb / 1024.0


def _array_bytes(*roots) -> int:
    """``nbytes`` of every distinct numpy array reachable from dataclass
    instances through dataclass fields, lists and tuples (computed from
    array sizes, not measured)."""
    seen: dict[int, int] = {}
    stack = list(roots)
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            seen[id(value)] = value.nbytes
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            stack.extend(getattr(value, f.name) for f in dataclasses.fields(value))
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
    return sum(seen.values())


def _front_door(workload, collection, telemetry=None):
    """Call the library entry point this workload measures.

    Returns ``(ClusteringResult, SimulationReport | None)``."""
    cfg = workload.config()
    if workload.engine == "sequential":
        from repro.core import PaceClusterer

        return PaceClusterer(cfg).cluster(collection, telemetry=telemetry), None
    if workload.engine == "multiprocessing":
        from repro.parallel import cluster_multiprocessing

        result = cluster_multiprocessing(
            collection, cfg, n_processors=workload.n_processors, telemetry=telemetry
        )
        return result, None
    from repro.parallel import SimulatedMachine

    report = SimulatedMachine(
        collection, cfg, n_processors=workload.n_processors, telemetry=telemetry
    ).run()
    return report.result, report


def _measured(call, out: dict):
    """Run ``call`` and record its wall and CPU seconds in ``out``.

    Returns ``(value, own CPU s, reaped-children CPU s)``."""
    cpu0 = _cpu()
    t0 = perf_counter()
    value = call()
    out["wall_s"] = perf_counter() - t0
    cpu1 = _cpu()
    own, reaped = cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]
    out["cpu_s"] = own + reaped
    return value, own, reaped


def _partition(clusters, counters, n_ests: int, out: dict) -> None:
    out["labels"] = labels_from_clusters(clusters, n_ests)
    out["counters"] = counters.as_dict()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _sequential_layers(collection, cfg, out: dict, run_id: str):
    from proxies import SpanRecorder, traced_cluster

    rec = SpanRecorder(run_id)
    traced, _, _ = _measured(lambda: traced_cluster(collection, cfg, rec), out)
    wall = out["wall_s"]
    counters = traced["counters"]
    stats = traced["gen_stats"]
    manager = traced["manager"]
    gst = traced["gst"]
    _partition(traced["clusters"], counters, collection.n_ests, out)
    self_times = rec.self_times()
    driver_self = sum(v for k, v in self_times.items() if k.startswith("core."))
    drain = rec.busy("pairs.next")
    align = rec.busy("align.call")
    merges = collection.n_ests - len(traced["clusters"])
    out["layers"] = {
        "suffix.gst_build_s": rec.busy("suffix.gst_build"),
        "suffix.forest_build_s": rec.busy("suffix.forest_build"),
        "suffix.suffixes": gst.n_suffix_positions,
        "pairs.drain_s": drain,
        "pairs.generated": counters.pairs_generated,
        "pairs.nodes_processed": stats.nodes_processed,
        "pairs.peak_lset": stats.peak_lset_entries,
        "pairs.per_s": _ratio(counters.pairs_generated, drain),
        "align.busy_s": align,
        "align.calls": rec.calls("align.call"),
        "align.pairs": traced["aligner"].pairs,
        "align.mean_group": _ratio(traced["aligner"].pairs, rec.calls("align.call")),
        "align.dp_cells": counters.dp_cells,
        "align.cells_per_s": _ratio(counters.dp_cells, align),
        "align.us_per_pair": 1e6 * _ratio(align, counters.pairs_processed),
        "align.accept_ratio": _ratio(counters.pairs_accepted, counters.pairs_processed),
        "cluster.find_s": rec.busy("cluster.find"),
        "cluster.merge_s": rec.busy("cluster.merge"),
        "cluster.finds": manager.find_count,
        "cluster.unions": manager.union_count,
        "cluster.skip_ratio": _ratio(counters.pairs_skipped, counters.pairs_generated),
        "cluster.redundant_aligned": counters.pairs_accepted - merges,
        "core.driver_self_s": driver_self,
        "core.residual_frac": _ratio(driver_self, wall),
    }
    return rec.spans, gst


def _telemetry_spans(snapshot, run_id: str) -> list[dict]:
    """The program's own phase spans, in the trace file's span format."""
    spans: dict[int, dict] = {}
    for ev in snapshot.events:
        if ev.get("kind") == "span_start":
            spans[ev["id"]] = {
                "id": ev["id"],
                "parent": ev["parent"],
                "name": f"{ev['actor']}.{ev['name']}",
                "start": ev["ts"],
                "end": ev["ts"],
                "busy": 0.0,
                "calls": 1,
                "run": run_id,
            }
        elif ev.get("kind") == "span_end" and ev["id"] in spans:
            spans[ev["id"]]["end"] = ev["ts"]
            spans[ev["id"]]["busy"] = ev["duration"]
    return list(spans.values())


def _parallel_layers(workload, collection, out: dict, run_id: str) -> list[dict]:
    """mp and sim workloads: an armed ``Telemetry()`` through the public
    parameter is the trace; the layers are read off the result."""
    from repro.telemetry import LatencyStore, Telemetry, snapshot_records

    (result, report), master_cpu, slave_cpu = _measured(
        lambda: _front_door(workload, collection, telemetry=Telemetry()), out
    )
    wall = out["wall_s"]
    counters = result.counters
    snap = result.telemetry
    lat = LatencyStore.from_metrics(snap.metrics)
    merges = collection.n_ests - result.n_clusters
    _partition(result.clusters, counters, collection.n_ests, out)
    layers = {
        "pairs.generated": counters.pairs_generated,
        "align.calls": lat.count("align"),
        "align.pairs": counters.pairs_processed,
        "align.mean_group": _ratio(counters.pairs_processed, lat.count("align")),
        "align.dp_cells": counters.dp_cells,
        "align.accept_ratio": _ratio(counters.pairs_accepted, counters.pairs_processed),
        "cluster.unions": counters.pairs_accepted,
        "cluster.skip_ratio": _ratio(counters.pairs_skipped, counters.pairs_generated),
        "cluster.redundant_aligned": counters.pairs_accepted - merges,
        "telemetry.events": len(snap.events),
        "telemetry.snapshot_bytes": sum(
            len(json.dumps(r)) + 1 for r in snapshot_records(snap)
        ),
    }
    timings = result.timings.components
    if report is None:
        # Stage latencies are wall seconds here (summed over both slaves);
        # under the simulator they are virtual and stay out of these rows.
        drain, align = lat.total("generate"), lat.total("align")
        layers.update(
            {
                "pairs.drain_s": drain,
                "pairs.per_s": _ratio(counters.pairs_generated, drain),
                "align.busy_s": align,
                "align.cells_per_s": _ratio(counters.dp_cells, align),
                "align.us_per_pair": 1e6 * _ratio(align, counters.pairs_processed),
                "suffix.gst_build_s": timings.get("gst_construction", 0.0),
                "parallel.gst_s": timings.get("gst_construction", 0.0),
                "parallel.partition_s": timings.get("partitioning", 0.0),
                "parallel.arena_setup_s": timings.get("arena_setup", 0.0),
                "parallel.alignment_phase_s": timings.get("alignment", 0.0),
                "parallel.messages": snap.metrics["counters"].get(
                    "messages.exchanged", 0
                ),
                "parallel.master_cpu_s": master_cpu,
                "parallel.slave_cpu_s": slave_cpu,
                "parallel.slave_peak_rss_mb": _mb(
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                ),
            }
        )
        for stage in ("generate", "queue_master", "transit", "align", "absorb", "rtt"):
            layers[f"parallel.lat.{stage}.p50_s"] = lat.quantile(stage, 0.50)
            layers[f"parallel.lat.{stage}.p99_s"] = lat.quantile(stage, 0.99)
    else:
        layers.update(
            {
                "sim.makespan_vs": report.total_time,
                "sim.master_busy_frac": report.master_busy_fraction,
                "sim.load_imbalance": report.load_imbalance,
                "sim.messages": report.messages_exchanged,
                "sim.messages_per_host_s": _ratio(report.messages_exchanged, wall),
            }
        )
        for phase in ("partitioning", "gst_construction", "sort_nodes", "alignment"):
            layers[f"sim.virtual.{phase}_vs"] = timings.get(phase, 0.0)
    out["layers"] = layers
    return _telemetry_spans(snap, run_id)


def _standalone_layers(workload, collection, layers: dict, gst=None) -> None:
    """Timed calls outside any run: pieces only the parallel engines use
    (bucket ranges, on-demand batches, arenas) measured on every workload's
    corpus, so a change to them shows where no engine call exposes it.
    ``gst`` is the traced run's index when that run exposed one."""
    from repro.pairs.batch import make_pair_generator
    from repro.pairs.ondemand import OnDemandPairGenerator
    from repro.suffix.gst import SuffixArrayGst

    cfg = workload.config()
    if gst is None:
        t0 = perf_counter()
        gst = SuffixArrayGst.build(collection)
        layers.setdefault("suffix.gst_build_s", perf_counter() - t0)
    t0 = perf_counter()
    ranges = gst.bucket_ranges(cfg.w)
    layers["suffix.bucket_ranges_s"] = perf_counter() - t0
    t0 = perf_counter()
    forest = gst.flat_forest(min_depth=cfg.psi)
    t_forest = perf_counter() - t0
    index_bytes = _array_bytes(gst, forest)
    layers.setdefault("suffix.forest_build_s", t_forest)
    layers.setdefault("suffix.suffixes", gst.n_suffix_positions)
    layers["suffix.forest_nodes"] = forest.n_nodes
    layers["suffix.index_bytes"] = index_bytes
    layers["suffix.bytes_per_suffix"] = _ratio(index_bytes, gst.n_suffix_positions)
    del forest

    generator = make_pair_generator(gst, cfg)
    ondemand = OnDemandPairGenerator(generator.pairs())
    t0 = perf_counter()
    while not ondemand.exhausted:
        ondemand.next_batch(cfg.batchsize)
    layers["pairs.ondemand_s"] = perf_counter() - t0
    layers.setdefault("pairs.nodes_processed", generator.stats.nodes_processed)
    layers.setdefault("pairs.peak_lset", generator.stats.peak_lset_entries)

    if workload.engine != "multiprocessing":
        return
    from repro.parallel import ArenaRegistry, GstArenas, attach_gst
    from repro.parallel.shards import plan_shards

    n_slaves = workload.n_processors - 1
    plan = plan_shards(ranges, n_slaves, cfg.master_shards)
    ranges_of = [
        [(lo, hi) for _key, lo, hi in plan.slave_ranges[k]] for k in range(n_slaves)
    ]
    t0 = perf_counter()
    arenas = GstArenas.create(
        gst, ranges_of, pair_engine=cfg.pair_engine, psi=cfg.psi
    )
    try:
        layers["parallel.arena_publish_s"] = perf_counter() - t0
        layers["parallel.arena_bytes"] = arenas.bundle.nbytes
        registry = ArenaRegistry()
        try:
            t0 = perf_counter()
            attach_gst(arenas.bundle, registry, 0)
            layers["parallel.attach_s"] = perf_counter() - t0
        finally:
            registry.close()
    finally:
        arenas.dispose()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("run", "trace", "oracle"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--fasta", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--run-id", default="")
    args = ap.parse_args(argv)

    from repro.parallel.shm import leaked_segments
    from repro.sequence import EstCollection
    from repro.sequence.fasta import read_fasta
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    t_load = time.monotonic()
    collection = EstCollection.from_records(read_fasta(args.fasta))
    t_ready = time.monotonic()
    out: dict = {
        "mode": args.mode,
        "workload": workload.name,
        "setup_s": t_ready - args.t_spawn,
        "load_s": t_ready - t_load,
        "bases": collection.total_chars,
        "n_ests": collection.n_ests,
    }
    spans: list[dict] = []
    cal = _calibrate()
    out["cal_setup_s"] = statistics.median(cal)

    gst = None
    if args.mode == "oracle":
        from repro.core import PaceClusterer

        result = PaceClusterer(workload.oracle_config()).cluster(collection)
        _partition(result.clusters, result.counters, collection.n_ests, out)
    elif args.mode == "run":
        (result, report), _, _ = _measured(lambda: _front_door(workload, collection), out)
        _partition(result.clusters, result.counters, collection.n_ests, out)
        if report is not None:
            out["sim_makespan_vs"] = report.total_time
    elif workload.engine == "sequential":
        spans, gst = _sequential_layers(collection, workload.config(), out, args.run_id)
    else:
        spans = _parallel_layers(workload, collection, out, args.run_id)
    # The machine's speed while the call ran: bursts from either side of it.
    out["cal_s"] = statistics.median(cal + _calibrate())
    if args.mode == "trace":
        _standalone_layers(workload, collection, out["layers"], gst)
        out["layers"]["sequence.load_s"] = out["load_s"]
        out["layers"]["sequence.bases"] = out["bases"]

    out["peak_rss_mb"] = _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    out["leaked"] = leaked_segments()
    out["spans"] = spans
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
