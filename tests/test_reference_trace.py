"""The byte-level guard: both committed simulator reference traces must
regenerate, record for record, by their recipes in ``tests/data/README.md``.

The simulator's clock is virtual — every timestamp, latency and counter is
a function of the code alone — so any difference from a committed file is
a behaviour change in the protocol, the cost model, the engine core or
the telemetry stream, never machine noise.  Only ``meta.origin`` (the
session's monotonic origin) differs between runs.

``reference_trace.jsonl`` is a homogeneous 4-processor run with the banded
aligner.  ``reference_hetero_trace.jsonl`` is k-difference alignment on a
skewed corpus and a fleet with one slave at half speed, so it reaches the
deferral and parking paths the first one does not.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import ClusteringConfig
from repro.parallel import CostModel, simulate_clustering
from repro.simulate import BenchmarkParams, ReadParams, make_benchmark
from repro.telemetry import Telemetry, export_jsonl

DATA = Path(__file__).parent / "data"


def _records(path: Path) -> list[dict]:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        if rec["kind"] == "meta":
            rec.pop("origin", None)
    return records


def _cluster_recipe(tmp_path: Path, monkeypatch) -> Path:
    fasta = tmp_path / "bench.fa"
    fresh = tmp_path / "fresh.jsonl"
    assert main(["simulate", str(fasta), "--genes", "12", "--coverage", "8",
                 "--seed", "7"]) == 0
    assert main(["cluster", str(fasta), "--parallel", "4", "--machine",
                 "simulated", "--telemetry-out", str(fresh),
                 "-o", str(tmp_path / "clusters.tsv")]) == 0
    return fresh


def _hetero_recipe(tmp_path: Path, monkeypatch) -> Path:
    params = BenchmarkParams(
        n_genes=24,
        mean_ests_per_gene=10.0,
        expression_skew=1.2,
        read_params=ReadParams.short_reads(),
        n_exons_range=(1, 3),
        exon_len_range=(80, 200),
    )
    bench = make_benchmark(params, rng=np.random.default_rng(303))
    report = simulate_clustering(
        bench.collection,
        ClusteringConfig.small_reads(batchsize=10, align_engine="kdiff"),
        n_processors=5,
        cost_model=CostModel(slave_speed_factors=(1.0, 1.0, 1.0, 2.0)),
        telemetry=Telemetry(),
    )
    fresh = tmp_path / "fresh.jsonl"
    export_jsonl(report.result.telemetry, fresh)
    return fresh


RECIPES = {
    "reference_trace.jsonl": _cluster_recipe,
    "reference_hetero_trace.jsonl": _hetero_recipe,
}


@pytest.mark.parametrize("name", sorted(RECIPES, reverse=True))
def test_reference_trace_regenerates_record_for_record(name, tmp_path, monkeypatch):
    fresh = RECIPES[name](tmp_path, monkeypatch)
    want, got = _records(DATA / name), _records(fresh)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"record {i} of {name} drifted from the committed reference"
