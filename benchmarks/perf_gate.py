"""Perf gates for the vectorised engines and arena startup.

Three subcommands, each measuring a reference implementation against its
optimised counterpart on the 30k-scaled dataset, verifying the optimised
output is *identical* (the oracle property), and writing the numbers as
JSON.  ``align`` and ``pairs`` gate engine speedups; ``startup`` gates the
shared-memory arena spawn path: per-slave pickled payload must shrink by
``--min-payload-ratio`` versus the legacy whole-index handoff, attach+
construct latency must stay under ``--max-startup-seconds``, clusters must
match the sequential oracle under both clean and injected-fault parallel
runs, and no shared-memory segment may survive either run.  The
committed ``BENCH_align.json`` / ``BENCH_pairs.json`` /
``BENCH_startup.json`` at the repo root record the reference
measurements.

Usage::

    PYTHONPATH=src python benchmarks/perf_gate.py align --out BENCH_align.json --min-speedup 8.0
    PYTHONPATH=src python benchmarks/perf_gate.py pairs --out BENCH_pairs.json --min-speedup 8.0
    PYTHONPATH=src python benchmarks/perf_gate.py startup --out BENCH_startup.json
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time
from pathlib import Path

from _common import bench_config, bench_env, dataset, dataset_gst
from repro.align import BatchPairAligner, PairAligner
from repro.pairs import SaPairGenerator, VectorPairGenerator

ALIGN_SCHEMA = "pace-align-gate/1"
PAIRS_SCHEMA = "pace-pairs-gate/1"
STARTUP_SCHEMA = "pace-startup-gate/1"


def _measure(make_run, rounds: int) -> tuple[float, object]:
    """Best-of-``rounds`` wall time (and the last run's output)."""
    best = float("inf")
    out = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = make_run()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _finish(record: dict, args, speedup: float, label: str) -> int:
    print(json.dumps(record, indent=2))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    if speedup < args.min_speedup:
        print(
            f"perf gate FAILED: {label} speedup {speedup:.2f}x < "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    print(f"perf gate passed: {label} {speedup:.2f}x faster")
    return 0


def run_align(args) -> int:
    col = dataset(30_000).collection
    gst = dataset_gst(30_000)
    pairs = []
    for pair in SaPairGenerator(gst, psi=bench_config().psi).pairs():
        pairs.append(pair)
        if len(pairs) >= args.pairs:
            break

    t_ref, ref_out = _measure(
        lambda: PairAligner(col).align_and_decide_batch(pairs), args.rounds
    )
    t_bat, bat_out = _measure(
        lambda: BatchPairAligner(
            col, group_size=args.group_size
        ).align_and_decide_batch(pairs),
        args.rounds,
    )
    if bat_out != ref_out:
        print("FAIL: batched results differ from the per-pair oracle",
              file=sys.stderr)
        return 2

    speedup = t_ref / t_bat if t_bat > 0 else float("inf")
    record = {
        "schema": ALIGN_SCHEMA,
        "dataset": 30_000,
        "n_pairs": len(pairs),
        "group_size": args.group_size,
        "per_pair_seconds": round(t_ref, 4),
        "batched_seconds": round(t_bat, 4),
        "speedup": round(speedup, 2),
        "min_speedup": args.min_speedup,
        "env": bench_env(),
    }
    return _finish(record, args, speedup, "batched alignment")


def run_pairs(args) -> int:
    gst = dataset_gst(30_000)
    psi = bench_config().psi

    t_sca, sca_out = _measure(
        lambda: list(SaPairGenerator(gst, psi).pairs()), args.rounds
    )
    t_vec, vec_out = _measure(
        lambda: list(VectorPairGenerator(gst, psi).pairs()), args.rounds
    )
    # The block arm: what the clustering loops consume, no Pair records.
    t_blk, blk_out = _measure(
        lambda: list(VectorPairGenerator(gst, psi).blocks()), args.rounds
    )
    # Exact equality — same multiset AND same order, within and across
    # depths.  The vector engine must be a pure performance layer.
    if vec_out != sca_out:
        print("FAIL: vector pair stream differs from the scalar oracle",
              file=sys.stderr)
        return 2
    if [pair for block in blk_out for pair in block] != sca_out:
        print("FAIL: flattened vector blocks differ from the scalar oracle",
              file=sys.stderr)
        return 2

    speedup = t_sca / t_vec if t_vec > 0 else float("inf")
    record = {
        "schema": PAIRS_SCHEMA,
        "dataset": 30_000,
        "psi": psi,
        "n_pairs": len(sca_out),
        "scalar_seconds": round(t_sca, 4),
        "vector_seconds": round(t_vec, 4),
        "block_seconds": round(t_blk, 4),
        "block_speedup": round(t_sca / t_blk if t_blk > 0 else float("inf"), 2),
        "speedup": round(speedup, 2),
        "min_speedup": args.min_speedup,
        "env": bench_env(),
    }
    return _finish(record, args, speedup, "vector pair generation")


def run_startup(args) -> int:
    from repro.align.batch import make_aligner
    from repro.core import PaceClusterer
    from repro.pairs.batch import make_pair_generator
    from repro.pairs.ondemand import OnDemandPairGenerator
    from repro.parallel import (
        FaultPlan,
        FaultSpec,
        FaultTolerance,
        GstArenas,
        attach_gst,
        cluster_multiprocessing,
        leaked_segments,
    )
    from repro.parallel.partition import assign_buckets
    from repro.parallel.shm import ArenaRegistry

    config = bench_config(pair_engine="vector")
    col = dataset(30_000).collection
    gst = dataset_gst(30_000)
    n_slaves = args.slaves
    assignment = assign_buckets(gst.bucket_ranges(config.w), n_slaves)
    ranges_of = [
        [(lo, hi) for _key, lo, hi in assignment.per_processor[k]]
        for k in range(n_slaves)
    ]

    # --- per-slave spawn payload: whole index vs descriptor bundle -------
    # The fork context never pickles Process args, so the payload is
    # measured explicitly: it is exactly what a spawn/forkserver context
    # (or any future MPI transport) would serialise per slave.
    legacy_bytes = max(
        len(pickle.dumps((gst, ranges_of[k], config))) for k in range(n_slaves)
    )
    shared = GstArenas.create(gst)
    try:
        shared_bytes = max(
            len(pickle.dumps((shared.bundle, ranges_of[k], config)))
            for k in range(n_slaves)
        )
        ratio = legacy_bytes / shared_bytes

        # --- spawn-to-first-result latency ---------------------------------
        # Both paths run the exact slave-startup sequence in-process:
        # deserialise the payload, materialise the gst (attach for the
        # shared path), build generator (with it the forest of the
        # slave's own ranges, one pass) + aligner, produce the first
        # dispatch batch.  Measured on slave 0 (the largest range set).
        def legacy_start():
            g, r, c = pickle.loads(pickle.dumps((gst, ranges_of[0], config)))
            gen = make_pair_generator(g, c, ranges=r)
            make_aligner(g.collection, c)
            return OnDemandPairGenerator(gen.pairs()).next_batch(c.batchsize)

        def shared_start():
            b, r, c = pickle.loads(
                pickle.dumps((shared.bundle, ranges_of[0], config))
            )
            registry = ArenaRegistry()
            try:
                g = attach_gst(b, registry)
                gen = make_pair_generator(g, c, ranges=r)
                make_aligner(g.collection, c)
                return OnDemandPairGenerator(gen.pairs()).next_batch(c.batchsize)
            finally:
                registry.close()

        t_legacy, first_legacy = _measure(legacy_start, args.rounds)
        t_shared, first_shared = _measure(shared_start, args.rounds)
        if first_shared != first_legacy:
            print(
                "FAIL: first dispatch batch differs between attached and "
                "deserialised startup",
                file=sys.stderr,
            )
            return 2
    finally:
        shared.dispose()

    # --- end-to-end oracle: clean and injected-fault parallel runs ------
    seq_clusters = PaceClusterer(config).cluster(col).clusters
    clean = cluster_multiprocessing(col, config, n_processors=n_slaves + 1)
    plan = FaultPlan.of(
        FaultSpec(slave_id=0, kind="kill", at_message=1, incarnation=None)
    )
    tol = FaultTolerance(slave_timeout=30.0, poll_interval=0.05, max_restarts=0)
    faulted = cluster_multiprocessing(
        col, config, n_processors=n_slaves + 1, faults=plan, tolerance=tol
    )
    clean_ok = clean.clusters == seq_clusters
    fault_ok = faulted.clusters == seq_clusters and faulted.faults.slaves_lost >= 1
    leaks = leaked_segments()

    record = {
        "schema": STARTUP_SCHEMA,
        "dataset": 30_000,
        "n_slaves": n_slaves,
        "legacy_payload_bytes": legacy_bytes,
        "shared_payload_bytes": shared_bytes,
        "payload_ratio": round(ratio, 1),
        "min_payload_ratio": args.min_payload_ratio,
        "legacy_startup_seconds": round(t_legacy, 4),
        "shared_startup_seconds": round(t_shared, 4),
        "max_startup_seconds": args.max_startup_seconds,
        "clean_oracle": clean_ok,
        "fault_oracle": fault_ok,
        "leaked_segments": leaks,
        "env": bench_env(),
    }
    print(json.dumps(record, indent=2))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")

    failures = []
    if not clean_ok:
        failures.append("clean parallel clusters differ from sequential oracle")
    if not fault_ok:
        failures.append("faulted parallel clusters differ from sequential oracle")
    if leaks:
        failures.append(f"leaked shared-memory segments: {leaks}")
    if ratio < args.min_payload_ratio:
        failures.append(
            f"payload ratio {ratio:.1f}x < {args.min_payload_ratio:.1f}x"
        )
    if t_shared > args.max_startup_seconds:
        failures.append(
            f"shared startup {t_shared:.2f}s > {args.max_startup_seconds:.2f}s"
        )
    if failures:
        for f in failures:
            print(f"perf gate FAILED: {f}", file=sys.stderr)
        return 1
    print(
        f"perf gate passed: per-slave payload {ratio:.0f}x smaller "
        f"({legacy_bytes} -> {shared_bytes} bytes), startup {t_shared:.3f}s"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="gate", required=True)

    p_align = sub.add_parser("align", help="per-pair vs batched alignment")
    p_align.add_argument("--out", type=Path, default=None,
                         help="write the measurement JSON here")
    p_align.add_argument("--min-speedup", type=float, default=8.0,
                         help="fail when batched speedup is below this "
                              "(default 8.0)")
    p_align.add_argument("--pairs", type=int, default=1000,
                         help="promising pairs to align (default 1000)")
    p_align.add_argument("--group-size", type=int, default=64,
                         help="batched engine DP group size (default 64)")
    p_align.add_argument("--rounds", type=int, default=3,
                         help="timing rounds, best-of (default 3)")
    p_align.set_defaults(func=run_align)

    p_pairs = sub.add_parser("pairs", help="scalar vs vector pair generation")
    p_pairs.add_argument("--out", type=Path, default=None,
                         help="write the measurement JSON here")
    p_pairs.add_argument("--min-speedup", type=float, default=8.0,
                         help="fail when vector speedup is below this "
                              "(default 8.0)")
    p_pairs.add_argument("--rounds", type=int, default=3,
                         help="timing rounds, best-of (default 3)")
    p_pairs.set_defaults(func=run_pairs)

    p_start = sub.add_parser(
        "startup", help="legacy vs shared-arena slave startup"
    )
    p_start.add_argument("--out", type=Path, default=None,
                         help="write the measurement JSON here")
    p_start.add_argument("--min-payload-ratio", type=float, default=10.0,
                         help="fail when the per-slave pickled payload "
                              "shrinks less than this factor (default 10)")
    p_start.add_argument("--max-startup-seconds", type=float, default=5.0,
                         help="fail when attach+construct+first-batch "
                              "exceeds this (default 5.0)")
    p_start.add_argument("--slaves", type=int, default=3,
                         help="slave count for payload/oracle runs "
                              "(default 3)")
    p_start.add_argument("--rounds", type=int, default=3,
                         help="timing rounds, best-of (default 3)")
    p_start.set_defaults(func=run_startup)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
