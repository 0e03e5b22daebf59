"""Shard-scaling sweep on the simulated machine.

Sweeps the master shard count (1 / 2 / 4 / 8 by default) over the
30k-scaled dataset under two cost regimes:

- ``paper``        — the default :class:`~repro.parallel.cost_model.CostModel`
  (slave work dominates; sharding should be roughly neutral, its sync
  overhead visible but small);
- ``master_bound`` — inflated master-side costs (absorption, bookkeeping
  and message handling dominate), the regime ROADMAP 2 targets, where a
  single master serialises the run and splitting WORKBUF + union-find
  across shards buys real makespan.

Every run executes on the discrete-event simulator, so every cell is
deterministic: makespan, the per-shard busy split, sync-round count and
unions exchanged are functions of the code alone.  Clusters are asserted
identical across shard counts on both regimes — sharding shapes *where*
master work happens, never *what* the partition is.

Usage::

    python benchmarks/bench_shard_scaling.py \
        --out-md shard_scaling.md --out-jsonl shard_scaling.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from _common import bench_config, bench_env, dataset, dataset_gst, format_table, save_table
from repro.parallel.cost_model import CostModel
from repro.parallel.runtime import simulate_clustering

SCHEMA = "pace-shard-scaling/1"

#: The cost regimes each shard count is swept under.
REGIMES: dict[str, CostModel] = {
    "paper": CostModel(),
    "master_bound": CostModel(
        master_msg_cost=200e-6,
        master_pair_cost=30e-6,
        master_result_cost=20e-6,
        dp_cell_cost=0.002e-6,
        align_overhead=2e-6,
        pair_gen_cost=0.5e-6,
    ),
}


def run_sweep(args) -> tuple[list[dict], list[str], int]:
    """All (regime, shard-count) cells.  Returns (records, markdown
    lines, failure count)."""
    col = dataset(args.dataset).collection
    gst = dataset_gst(args.dataset)
    config = bench_config()
    from dataclasses import replace

    config = replace(config, shard_sync_interval=args.sync_interval)
    shard_counts = sorted(set(args.shards))
    records: list[dict] = []
    md = [
        "# Shard-scaling sweep",
        "",
        f"Simulated machine, {args.slaves} slaves, {col.n_ests} ESTs; "
        "virtual clock — every number is deterministic.  `speedup` is "
        "the single-master makespan over this cell's.",
        "",
    ]
    failures = 0
    for regime, cost_model in REGIMES.items():
        base_makespan = None
        base_clusters = None
        cells = []
        for n_shards in shard_counts:
            rep = simulate_clustering(
                col,
                replace(config, master_shards=n_shards),
                n_processors=args.slaves + 1,
                gst=gst,
                cost_model=cost_model,
            )
            clusters = sorted(tuple(sorted(c)) for c in rep.result.clusters)
            if base_clusters is None:
                base_clusters = clusters
            elif clusters != base_clusters:
                print(
                    f"FAIL: {n_shards} shards changed the partition under "
                    f"{regime} — sharding must be output-invariant",
                    file=sys.stderr,
                )
                failures += 1
            if base_makespan is None:
                base_makespan = rep.total_time
            cell = {
                "regime": regime,
                "n_shards": n_shards,
                "makespan": rep.total_time,
                "speedup": base_makespan / rep.total_time,
                "max_shard_busy_fraction": rep.max_shard_busy_fraction,
                "sync_rounds": rep.sync_rounds,
                "unions_exchanged": rep.unions_exchanged,
                "pairs_pruned": rep.pairs_pruned,
            }
            cells.append(cell)
            records.append(cell)
        md.append(f"## {regime}")
        md.append("")
        md.append(
            "| shards | makespan (vs) | speedup | max shard busy | "
            "syncs | unions | pruned |"
        )
        md.append("|---|---|---|---|---|---|---|")
        for c in cells:
            md.append(
                f"| {c['n_shards']} | {c['makespan']:.4f} "
                f"| {c['speedup']:.2f}x | "
                f"{c['max_shard_busy_fraction'] * 100:.1f}% "
                f"| {c['sync_rounds']} | {c['unions_exchanged']} "
                f"| {c['pairs_pruned']} |"
            )
        md.append("")
    return records, md, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", type=int, default=30_000,
                        help="scaled dataset size in ESTs (default 30000)")
    parser.add_argument("--slaves", type=int, default=16,
                        help="slave count (default 16)")
    parser.add_argument("--shards", type=int, nargs="+",
                        default=[1, 2, 4, 8],
                        help="shard counts to sweep (default 1 2 4 8)")
    parser.add_argument("--sync-interval", type=float, default=1e-3,
                        help="cross-shard sync cadence in virtual seconds "
                             "(default 1e-3)")
    parser.add_argument("--out-md", type=Path, default=None,
                        help="write the markdown scorecard here")
    parser.add_argument("--out-jsonl", type=Path, default=None,
                        help="write one JSON record per cell here")
    args = parser.parse_args(argv)

    records, md, failures = run_sweep(args)

    headers = ["regime", "shards", "makespan", "speedup", "syncs", "unions"]
    rows = [
        [r["regime"], str(r["n_shards"]), f"{r['makespan']:.4f}",
         f"{r['speedup']:.2f}x", str(r["sync_rounds"]),
         str(r["unions_exchanged"])]
        for r in records
    ]
    lines = format_table("Shard-scaling sweep (virtual seconds)", headers, rows)
    print("\n".join(lines))
    save_table("bench_shard_scaling", lines)

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
