"""Tests for the real-process (multiprocessing) parallel backend."""

import multiprocessing as mp
import os
import time

import pytest

from repro.core import PaceClusterer
from repro.parallel import cluster_multiprocessing, leaked_segments, run_parallel
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
