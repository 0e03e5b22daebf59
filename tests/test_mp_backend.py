"""Tests for the real-process (multiprocessing) parallel backend."""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import PaceClusterer
from repro.parallel import (
    FaultPlan,
    FaultSpec,
    SlaveFailure,
    cluster_multiprocessing,
    leaked_segments,
    run_parallel,
)
from repro.parallel import mp_backend


class TestMultiprocessingBackend:
    def test_matches_sequential_partition(self, small_benchmark, small_config):
        seq = PaceClusterer(small_config).cluster(small_benchmark.collection)
        par = cluster_multiprocessing(
            small_benchmark.collection, small_config, n_processors=3
        )
        assert par.clusters == seq.clusters

    def test_counters_populated(self, small_benchmark, small_config):
        res = cluster_multiprocessing(
            small_benchmark.collection, small_config, n_processors=2
        )
        c = res.counters
        assert c.pairs_generated > 0
        assert c.pairs_processed > 0
        assert c.pairs_accepted <= c.pairs_processed
        assert c.dp_cells > 0

    def test_rejects_single_processor(self, small_benchmark, small_config):
        with pytest.raises(ValueError):
            cluster_multiprocessing(
                small_benchmark.collection, small_config, n_processors=1
            )

    def test_timings_recorded(self, small_benchmark, small_config):
        res = cluster_multiprocessing(
            small_benchmark.collection, small_config, n_processors=2
        )
        assert res.timings.get("gst_construction") > 0
        assert res.timings.get("alignment") > 0


class TestSpawnFailureTeardown:
    def test_partial_startup_is_torn_down(
        self, small_benchmark, small_config, monkeypatch
    ):
        """If spawning slave k of p fails, the k-1 already-running slaves
        and their pipes must be torn down (and the shared arenas
        unlinked) before the error propagates — regression test for the
        startup handle leak."""
        real_start = mp_backend._start_process
        calls = {"n": 0}

        def failing_start(proc):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("injected spawn failure")
            real_start(proc)

        monkeypatch.setattr(mp_backend, "_start_process", failing_start)
        with pytest.raises(OSError, match="injected spawn failure"):
            cluster_multiprocessing(
                small_benchmark.collection, small_config, n_processors=4
            )
        assert calls["n"] == 2  # the loop stopped at the failure
        # Slave 0 was already running: the teardown must have reaped it.
        deadline = time.monotonic() + 10
        while mp.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert mp.active_children() == []
        # And the published segments must be gone despite the early abort.
        assert leaked_segments() == []

    def test_failure_on_first_spawn_closes_its_pipe(
        self, small_benchmark, small_config, monkeypatch
    ):
        def always_fail(proc):
            raise OSError("no processes today")

        monkeypatch.setattr(mp_backend, "_start_process", always_fail)
        with pytest.raises(OSError, match="no processes today"):
            cluster_multiprocessing(
                small_benchmark.collection, small_config, n_processors=2
            )
        assert mp.active_children() == []
        assert leaked_segments() == []


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="CPU affinity is Linux-only"
)
class TestSlavePlacement:
    """``_start_on_own_cpu`` places a slave once and leaves no pin behind."""

    def test_restores_the_mask(self):
        allowed = os.sched_getaffinity(0)
        for slave_id in range(2 * len(allowed)):
            mp_backend._start_on_own_cpu(slave_id)
            assert os.sched_getaffinity(0) == allowed

    def test_single_cpu_mask_is_left_alone(self):
        allowed = os.sched_getaffinity(0)
        one = {min(allowed)}
        os.sched_setaffinity(0, one)
        try:
            mp_backend._start_on_own_cpu(3)
            assert os.sched_getaffinity(0) == one
        finally:
            os.sched_setaffinity(0, allowed)


class TestRunParallelFacade:
    def test_simulated_dispatch(self, small_benchmark, small_config):
        res = run_parallel(
            small_benchmark.collection,
            small_config,
            n_processors=4,
            machine="simulated",
        )
        assert res.n_clusters > 0

    def test_multiprocessing_dispatch(self, small_benchmark, small_config):
        res = run_parallel(
            small_benchmark.collection,
            small_config,
            n_processors=2,
            machine="multiprocessing",
        )
        assert res.n_clusters > 0

    def test_unknown_machine_rejected(self, small_benchmark, small_config):
        with pytest.raises(ValueError, match="unknown machine"):
            run_parallel(small_benchmark.collection, small_config, machine="quantum")

    def test_engines_agree(self, small_benchmark, small_config):
        sim = run_parallel(
            small_benchmark.collection, small_config, n_processors=3, machine="simulated"
        )
        mp = run_parallel(
            small_benchmark.collection,
            small_config,
            n_processors=3,
            machine="multiprocessing",
        )
        assert sim.clusters == mp.clusters


#: Runs ``pace-est`` in a fresh interpreter whose master stops, forever,
#: at the first slave message: every slave is then parked in ``recv``
#: waiting for a reply, the state a master that dies mid-run leaves them
#: in.  The line ``stuck`` on stdout says the master got there.
_STUCK_MASTER = """
import sys, time
from repro.cli import main
from repro.parallel.engine import EngineCore

def stuck(self, *args, **kwargs):
    print("stuck", flush=True)
    time.sleep(600)

EngineCore.on_message = stuck
sys.exit(main(sys.argv[1:]))
"""


def _children(pid: int) -> list[int]:
    """Pids of the live processes whose parent is ``pid``."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(stat.parent.name))
    return out


PF_EXITING = 0x4  # include/linux/sched.h: set as do_exit begins, never cleared


def _proc_state(pid: int) -> tuple[str, int] | None:
    """``(state, flags)`` of ``pid`` from ``/proc/<pid>/stat`` (fields 3
    and 9), or ``None`` once it is reaped."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[6])


def _alive(pid: int) -> bool:
    """Whether ``pid`` can still run user code.

    A zombie (``Z``) or dead (``X``) task cannot, and neither can one with
    ``PF_EXITING`` set: it is inside ``do_exit``, which closes its files
    (so a reader of its pipes sees EOF) before ``exit_notify`` makes it a
    zombie.  The resource tracker inherits the CLI's stderr, so the test's
    ``communicate()`` can return inside that window while the tracker
    still reads ``R``; counting it as running raced the tracker's exit.
    """
    stat = _proc_state(pid)
    if stat is None:
        return False
    state, flags = stat
    return state not in ("Z", "X") and not flags & PF_EXITING


def _describe(pid: int) -> str:
    """``pid`` with its state and flags, for a failure message."""
    stat = _proc_state(pid)
    return f"{pid} reaped" if stat is None else f"{pid} state={stat[0]} flags={stat[1]:#x}"


def _wait_until(done, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not done() and time.monotonic() < deadline:
        time.sleep(0.05)
    return done()


@pytest.fixture()
def stuck_master(tmp_path):
    """Start a stuck ``pace-est cluster`` over 1 master + 3 slaves; yield
    ``(process, its children)`` once the slaves wait on it, and kill
    whatever is left afterwards."""
    fa = tmp_path / "bench.fa"
    assert main(["simulate", str(fa), "--genes", "6", "--coverage", "9", "--seed", "4"]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [
            sys.executable, "-c", _STUCK_MASTER, "cluster", str(fa),
            "--parallel", "4", "--machine", "multiprocessing",
            "-o", str(tmp_path / "out.tsv"),
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    children: list[int] = []
    try:
        assert proc.stdout.readline().strip() == "stuck", proc.stderr.read()
        children = _children(proc.pid)
        assert len(children) >= 3  # three slaves, plus the resource tracker
        yield proc, children
    finally:
        for pid in [proc.pid, *children]:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        proc.communicate()
        # A failed run's segments: the tracker was killed with the rest.
        for leftover in Path("/dev/shm").glob(f"pace-{proc.pid}-*"):
            leftover.unlink(missing_ok=True)


class TestTeardown:
    """A slave learns that the master is gone from EOF on its pipe, so no
    other process may hold the master's end of it open."""

    def test_slave_failure_propagates_at_five_processors(
        self, small_benchmark, small_config
    ):
        # A slave that never sees EOF holds the master's join for 10 s.
        plan = FaultPlan.of(FaultSpec(slave_id=0, kind="raise", at_message=1))
        start = time.monotonic()
        with pytest.raises(SlaveFailure):
            cluster_multiprocessing(
                small_benchmark.collection, small_config, n_processors=5, faults=plan
            )
        assert time.monotonic() - start <= 3.0
        assert _wait_until(lambda: not mp.active_children(), 5.0)

    def test_killed_master_leaves_no_process_behind(self, stuck_master):
        proc, children = stuck_master
        proc.kill()
        proc.wait()
        gone = _wait_until(lambda: not any(map(_alive, children)), 5.0)
        assert gone, [pid for pid in children if _alive(pid)]
        # The resource tracker, last to go, unlinks the run's segments.
        assert _wait_until(lambda: not leaked_segments(), 2.0), leaked_segments()

    def test_interrupted_cli_exits_130_with_one_line(self, stuck_master):
        proc, children = stuck_master
        proc.send_signal(signal.SIGINT)
        try:
            _out, err = proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            pytest.fail("pace-est still running 5 s after SIGINT")
        assert proc.returncode == 130
        # The run's own structured log lines aside, one line: no traceback.
        lines = [line for line in err.splitlines() if " actor=cli " not in line]
        assert lines == ["pace-est: interrupted"]
        assert not any(map(_alive, children)), [_describe(pid) for pid in children]
        assert leaked_segments() == []

    def test_alive_counts_a_sleeper_not_a_zombie_or_a_reaped_pid(self):
        sleeper = subprocess.Popen(["sleep", "5"])
        try:
            assert _alive(sleeper.pid), _describe(sleeper.pid)
        finally:
            sleeper.kill()
        # Wait for the zombie without reaping it.
        os.waitid(os.P_PID, sleeper.pid, os.WEXITED | os.WNOWAIT)
        assert _proc_state(sleeper.pid)[0] == "Z"
        assert not _alive(sleeper.pid)
        sleeper.wait()
        assert not _alive(sleeper.pid)
