"""The byte-level guard: both committed simulator reference traces must
regenerate, record for record, by their recipes in ``tests/data/README.md``.

The simulator's clock is virtual — every timestamp, latency and counter is
a function of the code alone — so any difference from a committed file is
a behaviour change in the protocol, the dispatch seam, the cost model, the
engine core or the telemetry stream, never machine noise.  Only
``meta.origin`` (the session's monotonic origin) differs between runs.

``reference_trace.jsonl`` is a homogeneous 4-processor run with the banded
aligner.  ``reference_dispatch_trace.jsonl`` is the dispatch tournament's
``hetero`` cell: k-difference alignment on a fleet with one slave at half
speed, so it reaches the deferral and parking paths the first one does not.
"""

from __future__ import annotations

import argparse
import importlib
import json
from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data"
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


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


def _tournament_recipe(tmp_path: Path, monkeypatch) -> Path:
    # The tournament script imports its helpers from benchmarks/; calling
    # run_tournament rather than main writes nothing but the trace.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tournament = importlib.import_module("bench_dispatch_tournament")
    fresh = tmp_path / "fresh.jsonl"
    tournament.run_tournament(argparse.Namespace(processors=5, trace_out=fresh))
    return fresh


RECIPES = {
    "reference_trace.jsonl": _cluster_recipe,
    "reference_dispatch_trace.jsonl": _tournament_recipe,
}


@pytest.mark.parametrize("name", sorted(RECIPES, reverse=True))
def test_reference_trace_regenerates_record_for_record(name, tmp_path, monkeypatch):
    fresh = RECIPES[name](tmp_path, monkeypatch)
    want, got = _records(DATA / name), _records(fresh)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"record {i} of {name} drifted from the committed reference"
