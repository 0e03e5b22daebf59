"""Tests of the benchmark harness itself (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``; takes about a
minute, almost all of it the one ``--quick`` pass the module shares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import run as bench  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def contract():
    return bench.load_contract()


@pytest.fixture(scope="module")
def quick_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    proc = subprocess.run(
        RUN + ["--quick", "--out", str(out)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return out


def test_quick_emits_exactly_the_declared_metrics(quick_file, contract):
    doc = json.loads(quick_file.read_text())
    assert list(doc["workloads"]) == [w["name"] for w in contract["workloads"]]
    for name, res in doc["workloads"].items():
        assert res["failed"] == 0, res["failures"]
        for section, key in (("end_to_end", "end_to_end"), ("per_layer", "per_layer")):
            declared = {m["name"]: m["unit"] for m in contract[key]}
            emitted = {m: v["unit"] for m, v in res[section].items()}
            assert emitted == declared, (name, section)
        assert all(v["median"] != 0 for v in res["end_to_end"].values()), name


def test_driver_mode_prints_one_result_line(contract):
    proc = subprocess.run(
        RUN + ["--workload", "deep_fast", "--seed", "3", "--seconds", "1",
               "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in contract["end_to_end"]}


def _reference_run():
    labels = [0, 0, 0, 1, 1, 2]
    run = {
        "labels": labels,
        "counters": {"pairs_generated": 9, "pairs_skipped": 5, "pairs_processed": 4},
        "leaked": [],
        "survivors": False,
    }
    oracle = {"digest": bench.partition_digest(labels), "pairs_generated": 9}
    return run, oracle, labels


def test_a_matching_run_passes_and_cluster_numbering_is_irrelevant():
    run, oracle, truth = _reference_run()
    assert bench.check_run(run, oracle, truth, 0.9) == []
    run["labels"] = [7, 7, 7, 3, 3, 5]
    assert bench.check_run(run, oracle, truth, 0.9) == []


def test_a_doctored_partition_is_a_failed_run():
    run, oracle, truth = _reference_run()
    run["labels"] = [0, 0, 1, 1, 1, 2]
    reasons = bench.check_run(run, oracle, truth, 0.9)
    assert any("partition differs" in r for r in reasons)
    assert any("ARI" in r for r in reasons)


def test_broken_pair_conservation_is_a_failed_run():
    run, oracle, truth = _reference_run()
    run["counters"]["pairs_skipped"] = 4
    assert any("conservation" in r for r in bench.check_run(run, oracle, truth, 0.9))
    run, oracle, truth = _reference_run()
    run["counters"].update(pairs_generated=8, pairs_skipped=4)
    assert any("oracle's" in r for r in bench.check_run(run, oracle, truth, 0.9))


def test_a_planted_segment_is_a_failed_run_and_is_removed(contract):
    planted = Path("/dev/shm/pace-e2e-test-planted")
    if not planted.parent.is_dir():
        pytest.skip("no /dev/shm on this platform")
    session = bench.Session()
    try:
        planted.write_bytes(b"x")
        # Seed 0 at the committed size: the oracle is read from oracle.json,
        # so the first child to run is the measured one.
        res = bench.measure_workload(
            session, "deep_fast", 0, 0.0, trace=False, min_repeats=1, contract=contract
        )
    finally:
        session.close()
        leftover = planted.exists()
        planted.unlink(missing_ok=True)
    assert res["failed"] == res["attempted"] == 1
    assert "pace-e2e-test-planted" in res["failures"][0]
    assert not leftover


def test_compare_of_a_file_with_itself_is_all_same(quick_file):
    proc = subprocess.run(
        RUN + ["--compare", str(quick_file), str(quick_file)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout
    rows = [line for line in proc.stdout.splitlines() if line.strip()]
    assert rows and all(line.endswith("same") for line in rows)


def test_compare_flags_a_regression(quick_file, tmp_path):
    doc = json.loads(quick_file.read_text())
    wall = doc["workloads"]["wide_default"]["end_to_end"]["wall_s"]
    wall["samples"] = [2.0 * v for v in wall["samples"]]
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(doc))
    proc = subprocess.run(
        RUN + ["--compare", str(quick_file), str(slower)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    worse = [line for line in proc.stdout.splitlines() if line.endswith("worse")]
    assert len(worse) == 1 and "wide_default" in worse[0] and "wall_s" in worse[0]
