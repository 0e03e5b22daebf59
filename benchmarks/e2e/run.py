#!/usr/bin/env python3
"""Whole-run benchmark of the three clustering engines.

Three ways in, one measuring core:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, the contract of ``BENCHMARK.json``: the last line of
    standard output is ``{"correct", "attempted", "failed", "metrics"}``
    with every end-to-end metric (``--trace 0``) or every per-layer metric
    (``--trace 1``).

``run.py [--seed N] [--out FILE] [--quick]``
    Every workload in turn — timed repeats, then one traced run — printing
    each metric by name with unit, median, min–max and sample count, and
    writing the lot to ``FILE``.

``run.py --compare A.json B.json``
    Two such files held against the bounds in ``BENCHMARK.json``.

Every run is a fresh child process (``child.py``), one at a time, that sees
only a FASTA file.  See README.md in this directory for the workloads, the
metrics and how they are expected to interact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
ORACLE_PATH = HERE / "oracle.json"
CONTRACT_PATH = ROOT / "BENCHMARK.json"

#: Seed whose corpora ``oracle.json`` records.
ORACLE_SEED = 0
#: Slack under the reference run's ARI before a run counts as failed.
ARI_MARGIN = 0.02
#: A child that has not finished by then is killed and counted as failed.
CHILD_TIMEOUT_S = 120
#: How long the rest of a finished child's process group gets to exit.
GROUP_EXIT_GRACE_S = 2.0
#: Timed repeats per invocation: at least / at most.
MIN_REPEATS = 3
MAX_REPEATS = 20
SUITE_MIN_REPEATS = 5
#: Untraced runs a ``--trace 1`` invocation makes to measure trace overhead.
TRACE_BASELINE_RUNS = 2
#: ``aligned_per_merge`` depends on message timing only on this engine.
INEXACT_ENGINE = "multiprocessing"

#: Seconds one calibration burst of ``child.py`` takes on the reference
#: machine.  Every time a child reports is scaled by ``CAL_REF_S / cal_s``,
#: the burst time it measured around that very call, so what is reported is
#: seconds *at reference speed*: it moves when the program does more work and
#: stays put when the box runs slower for a while (see README, "Bounds").
#: The value is arbitrary and must never change once a baseline exists.
CAL_REF_S = 0.060

SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class Aborted(Exception):
    """SIGINT/SIGTERM arrived; unwind through the cleanup handlers."""

    def __init__(self, signum: int) -> None:
        super().__init__(signal.Signals(signum).name)
        self.signum = signum


def load_contract() -> dict:
    with open(CONTRACT_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------- #
# checking a run
# --------------------------------------------------------------------- #


def partition_digest(labels: list[int]) -> str:
    """Digest of a partition, independent of how clusters are numbered."""
    first_seen: dict[int, int] = {}
    canonical = [first_seen.setdefault(lab, len(first_seen)) for lab in labels]
    return hashlib.sha256(",".join(map(str, canonical)).encode("ascii")).hexdigest()


def adjusted_rand_index(labels: list[int], truth: list[int]) -> float:
    from repro.metrics.confusion import pair_confusion

    c = pair_confusion(labels, truth)
    den = (c.tp + c.fn) * (c.fn + c.tn) + (c.tp + c.fp) * (c.fp + c.tn)
    return 2.0 * (c.tp * c.tn - c.fp * c.fn) / den if den else 1.0


def check_run(run: dict, oracle: dict, truth: list[int], ari_floor: float) -> list[str]:
    """Why this run counts as failed; empty when it does not.

    ``run`` is a child's result plus the parent's hygiene findings
    (``leaked`` segment names, ``survivors`` flag)."""
    reasons = []
    counters = run["counters"]
    if partition_digest(run["labels"]) != oracle["digest"]:
        reasons.append("partition differs from the sequential scalar oracle")
    if counters["pairs_generated"] != counters["pairs_skipped"] + counters["pairs_processed"]:
        reasons.append(
            "pair conservation broken: generated %d != skipped %d + aligned %d"
            % (
                counters["pairs_generated"],
                counters["pairs_skipped"],
                counters["pairs_processed"],
            )
        )
    if counters["pairs_generated"] != oracle["pairs_generated"]:
        reasons.append(
            "pairs_generated %d differs from the oracle's %d"
            % (counters["pairs_generated"], oracle["pairs_generated"])
        )
    ari = adjusted_rand_index(run["labels"], truth)
    if ari < ari_floor:
        reasons.append("ARI %.4f below the floor %.4f" % (ari, ari_floor))
    if run.get("leaked"):
        reasons.append("leaked shared-memory segments: %s" % ", ".join(run["leaked"]))
    if run.get("survivors"):
        reasons.append("a child process outlived the run")
    return reasons


# --------------------------------------------------------------------- #
# running children
# --------------------------------------------------------------------- #


class Session:
    """Owns what must not outlive the benchmark: the running child's
    process group, the temp directory, any ``pace-*`` segment a run left."""

    def __init__(self) -> None:
        from repro.parallel.shm import leaked_segments

        self._leaked_segments = leaked_segments
        #: Segments that were there before we started are not ours.
        self.foreign = set(leaked_segments())
        RESULTS.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
        self._n = 0

    def new_segments(self) -> list[str]:
        return sorted(set(self._leaked_segments()) - self.foreign)

    def _kill_group(self, proc: subprocess.Popen, grace: float = 0.0) -> bool:
        """Empty the child's process group; True if something had to be
        killed.  ``grace`` lets helpers that exit on their own once the
        child is gone (multiprocessing's resource tracker) do so."""
        deadline = time.monotonic() + grace
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return False
            if time.monotonic() >= deadline:
                break
            time.sleep(0.01)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return False
        proc.wait()
        return True

    def run_child(self, mode: str, workload: str, fasta: Path) -> dict | None:
        """One child run.  Returns its result with ``leaked``/``survivors``
        /``elapsed_s`` filled in by the parent, or ``None`` if it died."""
        self._n += 1
        out = self.tmp / f"{workload}.{mode}.{self._n}.json"
        env = dict(os.environ, **SINGLE_THREAD_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        t_spawn = time.monotonic()
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            "--mode", mode,
            "--workload", workload,
            "--fasta", str(fasta),
            "--out", str(out),
            "--t-spawn", repr(t_spawn),
            "--run-id", f"{workload}.{mode}.{self._n}",
        ]
        # Own session = own process group, so one killpg reaches the
        # slaves a multiprocessing run forks.
        proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True
        )
        code = None
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # Also the abort path: a signal unwinds through here.
            elapsed = time.monotonic() - t_spawn
            survivors = self._kill_group(
                proc, grace=GROUP_EXIT_GRACE_S if code is not None else 0.0
            )
        leaked = self.new_segments()
        for name in leaked:
            _unlink_segment(name)
        if code != 0 or not out.exists():
            print(f"# {workload} {mode}: child exited with {code}", file=sys.stderr)
            return None
        with open(out, encoding="ascii") as fh:
            result = json.load(fh)
        # What the child saw right after its run, plus what outlived it.
        result["leaked"] = sorted((set(result["leaked"]) - self.foreign) | set(leaked))
        result["survivors"] = survivors
        result["elapsed_s"] = elapsed
        return result

    def close(self) -> None:
        for name in self.new_segments():
            _unlink_segment(name)
        shutil.rmtree(self.tmp, ignore_errors=True)


def _unlink_segment(name: str) -> None:
    try:
        os.unlink(os.path.join("/dev/shm", name))
    except FileNotFoundError:
        pass


# --------------------------------------------------------------------- #
# measuring one workload
# --------------------------------------------------------------------- #


def _oracle_entry(run: dict, truth: list[int]) -> dict:
    return {
        "n_ests": run["n_ests"],
        "pairs_generated": run["counters"]["pairs_generated"],
        "digest": partition_digest(run["labels"]),
        "n_clusters": len(set(run["labels"])),
        "ari": adjusted_rand_index(run["labels"], truth),
    }


def resolve_oracle(session, workload, corpus, fasta, seed: int, quick: bool):
    """``(oracle, ari_floor, setup sample or None)`` for this input.

    Seed 0 at the committed sizes uses ``oracle.json`` and refuses a corpus
    whose hash moved; anything else runs the reference engine first."""
    committed = None
    if not quick:
        with open(ORACLE_PATH, encoding="utf-8") as fh:
            committed = json.load(fh)["corpora"][workload.corpus]
        if seed == ORACLE_SEED:
            if committed["fasta_sha256"] != corpus.sha256:
                raise SystemExit(
                    f"{workload.name}: the seed-{ORACLE_SEED} corpus "
                    f"{workload.corpus!r} no longer hashes to the value in "
                    f"oracle.json — the simulator or the workload sizes changed, "
                    f"so numbers would not be comparable.  Refusing to report."
                )
            return committed, committed["ari_floor"], None
    run = session.run_child("oracle", workload.name, fasta)
    if run is None:
        raise SystemExit(f"{workload.name}: the oracle run died")
    oracle = _oracle_entry(run, corpus.true_labels)
    floor = committed["ari_floor"] if committed else oracle["ari"] - ARI_MARGIN
    return oracle, floor, at_reference_speed(run, "setup_s")


def at_reference_speed(run: dict, key: str) -> float:
    """A child's time ``key`` scaled to the reference machine speed."""
    cal = run["cal_setup_s"] if key == "setup_s" else run["cal_s"]
    return run[key] * CAL_REF_S / cal


def _e2e_samples(runs: list[dict]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {
        "wall_s": [], "pairs_per_s": [], "cpu_s": [], "peak_rss_mb": [],
        "setup_s": [], "aligned_per_merge": [],
    }
    for run in runs:
        c = run["counters"]
        merges = run["n_ests"] - len(set(run["labels"]))
        wall = at_reference_speed(run, "wall_s")
        samples["wall_s"].append(wall)
        samples["pairs_per_s"].append(c["pairs_generated"] / wall)
        samples["cpu_s"].append(at_reference_speed(run, "cpu_s"))
        samples["peak_rss_mb"].append(run["peak_rss_mb"])
        samples["setup_s"].append(at_reference_speed(run, "setup_s"))
        samples["aligned_per_merge"].append(c["pairs_processed"] / merges)
    return samples


class _Attempts:
    """Runs of one workload on one input, each checked against the oracle."""

    def __init__(self, session, name, fasta, oracle, truth, ari_floor) -> None:
        self._session = session
        self._name = name
        self._fasta = fasta
        self._reference = (oracle, truth, ari_floor)
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, mode: str, workload: str | None = None) -> dict | None:
        workload = workload or self._name
        self.attempted += 1
        tag = f"{workload} {mode} run {self.attempted}"
        run = self._session.run_child(mode, workload, self._fasta)
        if run is None:
            self.failures.append(f"{tag}: child died")
            return None
        reasons = check_run(run, *self._reference)
        if reasons:
            self.failures.append(f"{tag}: " + "; ".join(reasons))
        return run


def _timed_runs(attempt: _Attempts, seconds: float, min_repeats: int) -> list[dict]:
    """Untraced runs until ``seconds`` of child time has been measured."""
    runs: list[dict] = []
    measured = 0.0
    while len(runs) < MAX_REPEATS and (len(runs) < min_repeats or measured < seconds):
        run = attempt("run")
        if run is None:
            break  # a dying child will die again; report what we have
        runs.append(run)
        measured += run["elapsed_s"]
    return runs


def _traced_layers(attempt: _Attempts, workload, baseline_wall: float) -> dict | None:
    """The traced run's layer metrics plus the ones that need other runs."""
    traced = attempt("trace")
    if traced is None:
        return None
    layers = traced["layers"]
    layers["core.speed_factor"] = CAL_REF_S / traced["cal_s"]
    overhead = at_reference_speed(traced, "wall_s") / baseline_wall - 1.0
    layers["core.trace_overhead_frac"] = overhead
    if workload.engine != "sequential":
        # On these engines the trace *is* an armed Telemetry().
        layers["telemetry.armed_overhead_frac"] = overhead
    if workload.engine == "multiprocessing":
        # The plain single-process run of the same problem.
        seq = attempt("run", "deep_fast")
        if seq is not None:
            layers["parallel.efficiency"] = at_reference_speed(seq, "wall_s") / (
                (workload.n_processors - 1) * baseline_wall
            )
    return traced


def measure_workload(
    session: Session,
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    quick: bool = False,
    min_repeats: int = MIN_REPEATS,
    baseline_wall: float | None = None,
    contract: dict,
) -> dict:
    """All runs of one workload for one invocation.

    Returns ``attempted``, ``failed``, ``failures`` (reasons), ``metrics``
    (name -> value: end-to-end when ``trace`` is false, per-layer when true)
    and, for end-to-end, ``samples`` (name -> per-run values)."""
    from workloads import WORKLOADS, make_corpus

    workload = WORKLOADS[name]
    corpus = make_corpus(workload.corpus, seed, quick=quick)
    fasta = session.tmp / f"{workload.corpus}.{seed}.fa"
    corpus.write(fasta)
    oracle, ari_floor, oracle_setup = resolve_oracle(
        session, workload, corpus, fasta, seed, quick
    )
    attempt = _Attempts(session, name, fasta, oracle, corpus.true_labels, ari_floor)
    if quick:
        seconds, min_repeats = 0.0, 1

    if not trace:
        runs = _timed_runs(attempt, seconds, min_repeats)
        if not runs:
            raise SystemExit(f"{name}: no run completed")
        samples = _e2e_samples(runs)
        if oracle_setup is not None:
            samples["setup_s"].append(oracle_setup)
        result = {
            "metrics": {k: statistics.median(v) for k, v in samples.items()},
            "samples": samples,
            "raw_wall_s": statistics.median(r["wall_s"] for r in runs),
            "speed_factor": statistics.median(CAL_REF_S / r["cal_s"] for r in runs),
        }
        if workload.engine == "simulated":
            result["sim_makespan_vs"] = [r["sim_makespan_vs"] for r in runs]
    else:
        if baseline_wall is None:
            base = _timed_runs(attempt, 0.0, 1 if quick else TRACE_BASELINE_RUNS)
            if not base:
                raise SystemExit(f"{name}: no untraced run completed")
            baseline_wall = statistics.median(
                at_reference_speed(r, "wall_s") for r in base
            )
        traced = _traced_layers(attempt, workload, baseline_wall)
        if traced is None:
            raise SystemExit(f"{name}: the traced run died")
        layers = traced["layers"]
        declared = [m["name"] for m in contract["per_layer"]]
        undeclared = sorted(set(layers) - set(declared))
        if undeclared:
            raise SystemExit(f"{name}: layer metrics not in BENCHMARK.json: {undeclared}")
        with open(RESULTS / f"{name}.trace.json", "w", encoding="ascii") as fh:
            json.dump(
                {"workload": name, "seed": seed, "quick": quick, "spans": traced["spans"]},
                fh,
            )
        result = {
            # A layer this engine does not have reads 0.
            "metrics": {m: float(layers.get(m, 0.0)) for m in declared},
            "traced_wall_s": traced["wall_s"],
        }
    result.update(
        engine=workload.engine,
        attempted=attempt.attempted,
        failed=len(attempt.failures),
        failures=attempt.failures,
    )
    return result


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #


def _units(contract: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}


def environment() -> dict:
    import numpy

    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
        commit = head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def warn_if_loaded(env: dict) -> None:
    if env["loadavg_1m_start"] > env["nproc"] / 2:
        print(
            "# warning: 1-min load average %.2f exceeds nproc/2 = %.1f; "
            "timings will be noisy" % (env["loadavg_1m_start"], env["nproc"] / 2),
            file=sys.stderr,
        )


def print_e2e(name: str, res: dict, units: dict) -> None:
    for metric, values in res["samples"].items():
        print(
            "%-14s %-20s %12.4f %-6s min %.4f  max %.4f  n=%d"
            % (name, metric, res["metrics"][metric], units[metric],
               min(values), max(values), len(values))
        )
    print(
        "%-14s times are at reference speed; as the clock read, wall_s %.4f "
        "(machine at %.2fx reference)" % (name, res["raw_wall_s"], res["speed_factor"])
    )
    for reason in res["failures"]:
        print(f"{name:14s} FAILED {reason}")


def print_layers(name: str, res: dict, units: dict) -> None:
    m = res["metrics"]
    for metric, value in m.items():
        print("%-14s %-34s %16.6g %s" % (name, metric, value, units[metric]))
    # Layer times and the traced wall are clock readings of one run, so they
    # add up; the overhead compares runs and is taken at reference speed.
    wall = res["traced_wall_s"]
    if res["engine"] == "sequential":
        layer_s = (
            m["suffix.gst_build_s"] + m["suffix.forest_build_s"] + m["pairs.drain_s"]
            + m["align.busy_s"] + m["cluster.find_s"] + m["cluster.merge_s"]
        )
        print(
            "%-14s traced wall %.3f s | sum of layers %.3f s | residual %.1f%% | "
            "trace overhead %+.1f%%"
            % (name, wall, layer_s, 100 * m["core.residual_frac"],
               100 * m["core.trace_overhead_frac"])
        )
    else:
        print(
            "%-14s wall with Telemetry() armed %.3f s | overhead %+.1f%%"
            % (name, wall, 100 * m["telemetry.armed_overhead_frac"])
        )
    for reason in res["failures"]:
        print(f"{name:14s} FAILED {reason}")


# --------------------------------------------------------------------- #
# the three modes
# --------------------------------------------------------------------- #


def driver_main(args, contract: dict) -> int:
    units = _units(contract)
    env = environment()
    warn_if_loaded(env)
    session = Session()
    try:
        res = measure_workload(
            session, args.workload, args.seed, args.seconds,
            trace=bool(args.trace), quick=args.quick, contract=contract,
        )
    finally:
        session.close()
    print("# " + json.dumps(env))
    (print_layers if args.trace else print_e2e)(args.workload, res, units)
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {
                    k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()
                },
            }
        )
    )
    return 0


def suite_main(args, contract: dict) -> int:
    from workloads import WORKLOADS

    units = _units(contract)
    env = environment()
    warn_if_loaded(env)
    out: dict = {
        "schema": "pace-e2e/1", "seed": args.seed, "quick": args.quick,
        "env": env, "workloads": {},
    }
    session = Session()
    t_start = time.monotonic()
    try:
        for w in contract["workloads"]:
            name = w["name"]
            e2e = measure_workload(
                session, name, args.seed, args.seconds, trace=False,
                quick=args.quick, min_repeats=SUITE_MIN_REPEATS, contract=contract,
            )
            print_e2e(name, e2e, units)
            layers = measure_workload(
                session, name, args.seed, args.seconds, trace=True,
                quick=args.quick, baseline_wall=e2e["metrics"]["wall_s"],
                contract=contract,
            )
            print_layers(name, layers, units)
            attempted = e2e["attempted"] + layers["attempted"]
            failed = e2e["failed"] + layers["failed"]
            print("%-14s fail_ratio %d/%d" % (name, failed, attempted))
            sys.stdout.flush()
            out["workloads"][name] = {
                "engine": WORKLOADS[name].engine,
                "attempted": attempted,
                "failed": failed,
                "failures": e2e["failures"] + layers["failures"],
                "end_to_end": {
                    m: {"unit": units[m], "median": e2e["metrics"][m], "samples": s}
                    for m, s in e2e["samples"].items()
                },
                "sim_makespan_vs": e2e.get("sim_makespan_vs"),
                "per_layer": {
                    m: {"unit": units[m], "value": v}
                    for m, v in layers["metrics"].items()
                },
            }
    finally:
        session.close()
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["elapsed_s"] = time.monotonic() - t_start
    print("# %.0f s, load average %.2f -> %.2f"
          % (env["elapsed_s"], env["loadavg_1m_start"], env["loadavg_1m_end"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
    return 1 if any(w["failed"] for w in out["workloads"].values()) else 0


def _iqr_share(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def compare_metric(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict on one metric of one workload: ``(verdict, relative change)``
    where a positive change is for the worse."""
    if sorted(a) == sorted(b):
        return "same", 0.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (med_b - med_a) / abs(med_a)
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if max(_iqr_share(a), _iqr_share(b)) > bound and overlap:
        return "unresolved", change
    return ("worse" if change > bound else "same"), change


def compare_main(args, contract: dict) -> int:
    with open(args.compare[0], encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.compare[1], encoding="utf-8") as fh:
        b = json.load(fh)
    exit_code = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name:14s} missing from {args.compare[1]}")
            exit_code = 1
            continue
        rows = []
        for m in contract["end_to_end"]:
            sa = wa["end_to_end"][m["name"]]["samples"]
            sb = wb["end_to_end"][m["name"]]["samples"]
            exact = m["name"] == "aligned_per_merge" and wa["engine"] != INEXACT_ENGINE
            if exact and a["seed"] == b["seed"]:
                verdict = "same" if sorted(sa) == sorted(sb) else "worse"
                change = 0.0
            else:
                verdict, change = compare_metric(sa, sb, m["better"], m["bound"])
            rows.append((m["name"], statistics.median(sa), statistics.median(sb),
                         change, m["bound"], verdict))
        if wa.get("sim_makespan_vs") and a["seed"] == b["seed"]:
            va, vb = set(wa["sim_makespan_vs"]), set(wb["sim_makespan_vs"] or [])
            rows.append(("sim_makespan_vs", min(va), min(vb) if vb else float("nan"),
                         0.0, 0.0, "same" if va == vb and len(va) == 1 else "worse"))
        ra = wa["failed"] / wa["attempted"]
        rb = wb["failed"] / wb["attempted"]
        rows.append(("fail_ratio", ra, rb, rb - ra, 0.0, "worse" if rb > ra else "same"))
        for metric, med_a, med_b, change, bound, verdict in rows:
            print("%-14s %-18s %14.6g %14.6g %+8.2f%%  bound %4.0f%%  %s"
                  % (name, metric, med_a, med_b, 100 * change, 100 * bound, verdict))
            if verdict == "worse":
                exit_code = 1
    return exit_code


def write_oracle(contract: dict) -> int:
    """Regenerate ``oracle.json`` from the reference engine (maintenance:
    only when a workload's corpus is changed on purpose)."""
    from workloads import WORKLOADS, make_corpus

    session = Session()
    corpora: dict = {}
    try:
        for workload in WORKLOADS.values():
            if workload.corpus in corpora:
                continue
            corpus = make_corpus(workload.corpus, ORACLE_SEED)
            fasta = session.tmp / f"{workload.corpus}.fa"
            corpus.write(fasta)
            run = session.run_child("oracle", workload.name, fasta)
            if run is None:
                raise SystemExit(f"{workload.name}: the oracle run died")
            entry = _oracle_entry(run, corpus.true_labels)
            entry["fasta_sha256"] = corpus.sha256
            entry["align_engine"] = workload.oracle_config().align_engine
            entry["ari_floor"] = round(entry["ari"] - ARI_MARGIN, 4)
            corpora[workload.corpus] = entry
            print(workload.corpus, entry)
    finally:
        session.close()
    with open(ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": ORACLE_SEED, "engine": "sequential scalar per-pair",
                   "corpora": corpora}, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="measure this workload only (BENCHMARK.json contract)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="keep starting timed repeats until this much time is measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the full run's numbers here (JSON)")
    ap.add_argument("--quick", action="store_true",
                    help="tiny corpora, one repeat: checks the harness, not the program")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--write-oracle", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.compare:
        return compare_main(args, contract)

    def on_signal(signum, _frame):
        # One abort is enough; a second signal must not interrupt cleanup.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise Aborted(signum)

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        if args.write_oracle:
            return write_oracle(contract)
        if args.workload:
            if args.workload not in {w["name"] for w in contract["workloads"]}:
                ap.error(f"unknown workload {args.workload!r}")
            return driver_main(args, contract)
        return suite_main(args, contract)
    except Aborted as stop:
        print(f"# {stop}: children killed, segments unlinked, nothing reported",
              file=sys.stderr)
        return 128 + stop.signum


if __name__ == "__main__":
    sys.exit(main())
