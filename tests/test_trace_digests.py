"""Byte pins on what the trace tools print and what traced runs record.

``test_reference_trace`` pins the records a run writes for two recipes;
this file pins the rest of the path a paper figure takes:

- the bytes ``pace-est report --timeline 60``, ``analyze`` and
  ``perfetto`` produce from both committed reference traces (Table 3's
  phase columns and Fig. 8's master-busy fraction are read back this
  way), and
- the full record sequence of traced simulator runs with causal tracing
  on — faulted, two master shards, JBSQ dispatch, and faults under two
  shards — each of which must also stay clean under the strict
  conservation check.

Every input is deterministic (virtual clock, seeded corpus), so a digest
moves only when the code's output does.  Only ``meta.origin`` (the
session's monotonic origin) is dropped before hashing.  A deliberate
change to one of these outputs updates its digest here in the same
commit, with the reason.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import ClusteringConfig
from repro.parallel import FaultPlan, FaultSpec, FaultTolerance, simulate_clustering
from repro.simulate import BenchmarkParams, make_benchmark
from repro.telemetry import Telemetry, snapshot_records
from repro.telemetry.analyze import conservation_section

DATA = Path(__file__).parent / "data"

READER_DIGESTS = {
    ("reference_trace.jsonl", "report"):
        "3e1dbb90ec604a61e4eece0063dc2d4258a04b985d3626d6c68777088bbd02a9",
    ("reference_trace.jsonl", "analyze"):
        "142e38cdb220bd4ba05012bf528285a6b071931f75b7b11045842e09db071b8b",
    ("reference_trace.jsonl", "perfetto"):
        "9c2731cc03c1f1d0b37eef83d8886bbb681f3cfbefa2a3d1bba7f9141727ed49",
    ("reference_dispatch_trace.jsonl", "report"):
        "511635fe18a4dbdaae6983a66c42dc9a43b7ef42e10eec044064c5d08fe53c53",
    ("reference_dispatch_trace.jsonl", "analyze"):
        "975391bbf0a4a9b2fcc0b8ab7c0996c0c7ebb6f4ff96113bed52bcc1e32f2c8c",
    ("reference_dispatch_trace.jsonl", "perfetto"):
        "4cc622345cc6c80bb75a2517feb0e36c0dda5e98527c2deb3876369a00fac424",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "trace, command", sorted(READER_DIGESTS), ids=lambda v: v.split(".")[0]
)
def test_reader_output_is_pinned(trace, command, tmp_path, capsys):
    path = str(DATA / trace)
    if command == "perfetto":
        out = tmp_path / "trace.perfetto.json"
        assert main(["perfetto", path, "-o", str(out)]) == 0
        data = out.read_bytes()
    else:
        extra = ["--timeline", "60"] if command == "report" else []
        assert main([command, path, *extra]) == 0
        data = capsys.readouterr().out.encode()
    assert _sha256(data) == READER_DIGESTS[trace, command]


#: ``(sha256 of the records, record count, causal record count)``.
SIM_DIGESTS = {
    "faulted": (
        "94278014fa21e196576ff9c8cc6d590fe48005542d53ab6d7fcd3478886f8cc0", 293, 115
    ),
    "two_shards": (
        "07efeccaf993e491b68dc4111e94d818ae3ca718715f82b8e03d5af190a98520", 335, 130
    ),
    "jbsq": (
        "94cd1e25721e5258f4cd6285d3c8ed5cd2c0c959f1b175305a9f158b366776d1", 304, 132
    ),
    "faulted_two_shards": (
        "6f59007410c6c154c6ce65713756be2a8fc13a728d6465dd20bf2eb4dc2f5109", 343, 133
    ),
}


def _scenario(name: str, base: ClusteringConfig) -> tuple[ClusteringConfig, dict]:
    if name == "faulted":
        return base, dict(
            n_processors=4,
            faults=FaultPlan.of(
                FaultSpec(slave_id=0, kind="kill_after_send", at_message=1)
            ),
            tolerance=FaultTolerance(max_restarts=1, detection_delay=0.1),
        )
    if name == "two_shards":
        return replace(base, master_shards=2), dict(n_processors=5)
    if name == "jbsq":
        return replace(base, dispatch_policy="jbsq"), dict(n_processors=4)
    assert name == "faulted_two_shards"
    return replace(base, master_shards=2), dict(
        n_processors=5,
        faults=FaultPlan.of(FaultSpec(slave_id=2, kind="kill", at_message=2)),
        tolerance=FaultTolerance(detection_delay=0.1),
    )


@pytest.fixture(scope="module")
def corpus():
    params = BenchmarkParams.small(n_genes=10, mean_ests_per_gene=8)
    return make_benchmark(params, rng=1).collection


@pytest.mark.parametrize("name", sorted(SIM_DIGESTS))
def test_traced_simulator_records_are_pinned(name, corpus):
    base = replace(ClusteringConfig.small_reads(), causal_tracing=True)
    config, kwargs = _scenario(name, base)
    report = simulate_clustering(corpus, config, telemetry=Telemetry(), **kwargs)
    records = snapshot_records(report.result.telemetry)
    records[0].pop("origin", None)
    lines, errors = conservation_section(records)
    assert errors == 0, lines
    text = "\n".join(json.dumps(r) for r in records)
    n_causal = sum(r["kind"] == "causal" for r in records)
    assert (_sha256(text.encode()), len(records), n_causal) == SIM_DIGESTS[name]
