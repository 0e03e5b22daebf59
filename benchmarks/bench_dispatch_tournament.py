"""Dispatch-policy tournament on the simulated machine.

Runs every dispatch policy (``paper``, ``jbsq`` — see
:mod:`repro.parallel.dispatch`) across a suite of *skewed* workloads
where work-allocation actually matters:

- ``giant_gene``  — one massively over-expressed gene dominates the pair
  stream (the classic single-hot-cluster skew);
- ``zipf``        — Zipf-distributed cluster sizes (many small, few huge);
- ``hetero``      — a uniform dataset on a *heterogeneous* fleet: one
  slave runs 3x slower than its peers
  (:attr:`~repro.parallel.cost_model.CostModel.slave_speed_factors`).

Every run executes on the discrete-event simulator, so each cell of the
scorecard is deterministic: makespan and the p50/p99/p999 of the ``rtt``
work-unit latency stage are functions of the code alone, which is what
lets ``tests/test_reference_trace.py`` regenerate one cell's trace through
:func:`run_tournament` and compare it record for record with
``tests/data/reference_dispatch_trace.jsonl``.

Clusters are asserted identical across policies on every workload — a
dispatch policy shapes *when* pairs flow, never *what* the partition is.

Usage::

    python benchmarks/bench_dispatch_tournament.py \
        --out-md scorecard.md --out-jsonl scorecard.jsonl \
        --trace-out dispatch_sim.jsonl
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from _common import bench_config, bench_env, format_table, save_table
from repro.parallel.cost_model import CostModel
from repro.parallel.runtime import simulate_clustering
from repro.simulate import BenchmarkParams, make_benchmark
from repro.simulate.datasets import ReadParams
from repro.telemetry import Telemetry, export_jsonl

SCHEMA = "pace-dispatch-tournament/1"

#: The contenders.  ``paper`` stays the reproduction-fidelity default;
#: the tournament measures what the alternatives buy on skew.
POLICIES = ("paper", "jbsq:2")

#: Quantiles of the ``rtt`` (work-unit) latency stage each cell reports.
RTT_QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


def _params(skew: float, n_genes: int, mean: float) -> BenchmarkParams:
    return BenchmarkParams(
        n_genes=n_genes,
        mean_ests_per_gene=mean,
        expression_skew=skew,
        read_params=ReadParams.short_reads(),
        n_exons_range=(1, 3),
        exon_len_range=(80, 200),
    )


def workloads(n_slaves: int) -> list[dict]:
    """The skewed suite.  Each entry: name, dataset params, dataset seed,
    and the fleet's cost model."""
    # One slave at 2x cost: the straggler queue-aware policies exist
    # for.  Slow rank last so bucket assignment (greedy by size onto
    # rank order) doesn't conflate skew sources.  2x, not higher: setup
    # cost scales with the factor too, and a much slower slave joins so
    # late it never participates in the steady-state loop at this scale.
    hetero = CostModel(
        slave_speed_factors=(1.0,) * (n_slaves - 1) + (2.0,)
    )
    return [
        {
            "name": "giant_gene",
            "params": _params(skew=3.0, n_genes=20, mean=8.0),
            "seed": 101,
            "cost_model": CostModel(),
        },
        {
            "name": "zipf",
            "params": _params(skew=1.8, n_genes=30, mean=6.0),
            "seed": 202,
            "cost_model": CostModel(),
        },
        {
            "name": "hetero",
            "params": _params(skew=1.2, n_genes=24, mean=10.0),
            "seed": 303,
            "cost_model": hetero,
        },
    ]


def run_cell(
    collection, config, *, n_processors: int, cost_model: CostModel, policy: str
) -> tuple[dict, object, object]:
    """One (workload, policy) tournament cell.  Returns the measurement
    record, the cluster partition, and the telemetry snapshot."""
    tel = Telemetry()
    report = simulate_clustering(
        collection,
        replace(config, dispatch_policy=policy),
        n_processors=n_processors,
        cost_model=cost_model,
        telemetry=tel,
    )
    lat = tel.latency
    cell = {
        "policy": policy,
        "makespan": report.total_time,
        "master_busy_fraction": report.master_busy_fraction,
        "messages": report.messages_exchanged,
        "rtt_count": lat.count("rtt"),
    }
    for label, q in RTT_QUANTILES:
        cell[f"rtt_{label}"] = lat.quantile("rtt", q)
    clusters = sorted(tuple(sorted(c)) for c in report.result.clusters)
    return cell, clusters, report.result.telemetry


def run_tournament(args) -> tuple[list[dict], list[str], int]:
    """All cells.  Returns (records, markdown lines, exit code)."""
    n_processors = args.processors
    records: list[dict] = []
    md: list[str] = [
        "# Dispatch-policy tournament",
        "",
        f"Simulated machine, {n_processors} processors "
        f"({n_processors - 1} slaves); virtual clock — every number is "
        "deterministic.  `rtt` is the end-to-end work-unit latency "
        "(dispatch -> results absorbed).",
        "",
    ]
    failures = 0
    winners: dict[str, str] = {}
    for wl in workloads(n_processors - 1):
        bench = make_benchmark(wl["params"], np.random.default_rng(wl["seed"]))
        config = bench_config(batchsize=10)
        base_clusters = None
        cells = []
        for policy in POLICIES:
            cell, clusters, snapshot = run_cell(
                bench.collection,
                config,
                n_processors=n_processors,
                cost_model=wl["cost_model"],
                policy=policy,
            )
            cell.update(workload=wl["name"], n_ests=bench.collection.n_ests)
            if base_clusters is None:
                base_clusters = clusters
            elif clusters != base_clusters:
                print(
                    f"FAIL: policy {policy!r} changed the partition on "
                    f"{wl['name']} — dispatch must be output-invariant",
                    file=sys.stderr,
                )
                failures += 1
            cells.append(cell)
            records.append(cell)
            if (
                args.trace_out is not None
                and wl["name"] == "hetero"
                and policy == "paper"
            ):
                # The committed-reference cell: paper policy on the
                # heterogeneous fleet.
                export_jsonl(snapshot, args.trace_out)
        by_p99 = min(
            cells, key=lambda c: c["rtt_p99"] if c["rtt_p99"] == c["rtt_p99"] else math.inf
        )
        winners[wl["name"]] = by_p99["policy"]
        md.append(f"## {wl['name']} ({bench.collection.n_ests} ESTs)")
        md.append("")
        md.append("| policy | makespan (vs) | rtt p50 | rtt p99 | rtt p999 | batches |")
        md.append("|---|---|---|---|---|---|")
        for c in cells:
            mark = " **<- best p99**" if c is by_p99 else ""
            md.append(
                f"| {c['policy']}{mark} | {c['makespan']:.4f} "
                f"| {c['rtt_p50'] * 1e3:.2f} ms | {c['rtt_p99'] * 1e3:.2f} ms "
                f"| {c['rtt_p999'] * 1e3:.2f} ms | {c['rtt_count']} |"
            )
        md.append("")
    md.append("## Verdict")
    md.append("")
    for name, winner in winners.items():
        md.append(f"- `{name}`: best rtt p99 = **{winner}**")
    hetero_winner = winners.get("hetero", "paper")
    if hetero_winner == "paper":
        print(
            "FAIL: no policy beat 'paper' on rtt p99 on the hetero workload",
            file=sys.stderr,
        )
        failures += 1
    else:
        md.append("")
        md.append(
            f"Recommendation: `{hetero_winner}` on heterogeneous or skewed "
            "fleets; `paper` stays the default for reproduction fidelity."
        )
    return records, md, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--processors", type=int, default=5,
                        help="simulated processor count, master included "
                             "(default 5)")
    parser.add_argument("--out-md", type=Path, default=None,
                        help="write the markdown scorecard here")
    parser.add_argument("--out-jsonl", type=Path, default=None,
                        help="write one JSON record per cell here")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="export the paper-policy hetero-workload "
                             "telemetry trace here (the reference cell)")
    args = parser.parse_args(argv)

    records, md, failures = run_tournament(args)

    headers = ["workload", "policy", "makespan", "rtt_p50", "rtt_p99", "rtt_p999"]
    rows = [
        [r["workload"], r["policy"], f"{r['makespan']:.4f}",
         f"{r['rtt_p50'] * 1e3:.2f}ms", f"{r['rtt_p99'] * 1e3:.2f}ms",
         f"{r['rtt_p999'] * 1e3:.2f}ms"]
        for r in records
    ]
    lines = format_table("Dispatch-policy tournament (virtual seconds)",
                         headers, rows)
    print("\n".join(lines))
    save_table("bench_dispatch_tournament", lines)

    if args.out_md is not None:
        args.out_md.write_text("\n".join(md) + "\n")
    if args.out_jsonl is not None:
        env = bench_env()
        with args.out_jsonl.open("w") as fh:
            for rec in records:
                fh.write(json.dumps({"schema": SCHEMA, **rec, "env": env}) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
