"""The byte-level guard: the committed simulator reference trace must
regenerate, record for record, by the recipe in ``tests/data/README.md``.

The simulator's clock is virtual — every timestamp, latency and counter is
a function of the code alone — so any difference from the committed file
is a behaviour change in the protocol, the cost model, the engine core or
the telemetry stream, never machine noise.  Only ``meta.origin`` (the
session's monotonic origin) differs between runs.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main

REFERENCE = Path(__file__).parent / "data" / "reference_trace.jsonl"


def _records(path: Path) -> list[dict]:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        if rec["kind"] == "meta":
            rec.pop("origin", None)
    return records


def test_reference_trace_regenerates_record_for_record(tmp_path):
    fasta = tmp_path / "bench.fa"
    fresh = tmp_path / "fresh.jsonl"
    assert main(["simulate", str(fasta), "--genes", "12", "--coverage", "8",
                 "--seed", "7"]) == 0
    assert main(["cluster", str(fasta), "--parallel", "4", "--machine",
                 "simulated", "--telemetry-out", str(fresh),
                 "-o", str(tmp_path / "clusters.tsv")]) == 0
    want, got = _records(REFERENCE), _records(fresh)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"record {i} drifted from the committed reference"
