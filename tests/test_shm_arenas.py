"""Shared-memory arena tests: registry lifecycle, descriptor round-trips,
the fixed segment count, and — the part that matters operationally — proof that no
``/dev/shm`` segment survives a run, whether it completed cleanly, lost a
slave to an injected crash, or was killed by a KeyboardInterrupt in the
master.  The fault oracle (clusters identical to the sequential driver)
is asserted with attached arenas throughout.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.core import PaceClusterer
from repro.parallel import (
    ArenaRegistry,
    FaultPlan,
    FaultSpec,
    FaultTolerance,
    GstArenas,
    assign_buckets,
    attach_gst,
    cluster_multiprocessing,
    leaked_segments,
)
from repro.sequence import EstCollection
from repro.suffix import SuffixArrayGst

HARD_DEADLINE_S = 120


@contextmanager
def hard_deadline(seconds: int = HARD_DEADLINE_S):
    """Fail (instead of hanging CI) if the body runs too long."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {seconds}s — runtime hung")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def gst(small_benchmark):
    return SuffixArrayGst.build(small_benchmark.collection)


# --------------------------------------------------------------------- #
# registry lifecycle
# --------------------------------------------------------------------- #


class TestArenaRegistry:
    def test_create_attach_round_trip(self):
        arr = np.arange(1000, dtype=np.int32).reshape(10, 100)
        with ArenaRegistry() as reg:
            desc = reg.create(arr, "roundtrip")
            assert desc.dtype == "int32"
            assert desc.shape == (10, 100)
            assert desc.nbytes == arr.nbytes
            view = reg.attach(desc)
            np.testing.assert_array_equal(view, arr)
            assert not view.flags.writeable
        assert leaked_segments() == []

    def test_attach_from_second_registry(self):
        arr = np.linspace(0.0, 1.0, 17)
        owner = ArenaRegistry()
        desc = owner.create(arr, "xproc")
        attacher = ArenaRegistry()
        try:
            np.testing.assert_array_equal(attacher.attach(desc), arr)
        finally:
            attacher.close()
            owner.dispose()
        assert leaked_segments() == []

    def test_empty_array_round_trips(self):
        arr = np.empty(0, dtype=np.int64)
        with ArenaRegistry() as reg:
            desc = reg.create(arr, "empty")
            view = reg.attach(desc)
            assert view.size == 0
            assert view.dtype == np.int64

    def test_dispose_is_idempotent(self):
        reg = ArenaRegistry()
        reg.create(np.ones(8), "idem")
        reg.dispose()
        reg.dispose()
        reg.close()
        assert leaked_segments() == []

    def test_unlink_with_live_views_still_removes_names(self):
        # A live numpy view never pins the segment *name*: dispose()
        # always clears /dev/shm.  (The view itself is dangling after
        # close() — CPython unmaps regardless — so it must not be
        # dereferenced, which is why dispose is reserved for teardown.)
        reg = ArenaRegistry()
        desc = reg.create(np.arange(64), "pinned")
        view = reg.attach(desc)
        assert view[63] == 63
        reg.dispose()
        assert leaked_segments() == []

    def test_names_carry_the_audit_prefix(self):
        with ArenaRegistry() as reg:
            desc = reg.create(np.ones(4), "label")
            assert desc.name.startswith("pace-")
            assert desc.name.endswith("-label")
            assert leaked_segments() == [desc.name]


# --------------------------------------------------------------------- #
# descriptor reconstruction: collection, gst
# --------------------------------------------------------------------- #


class TestAttachedGst:
    def test_collection_from_arena_is_equal(self, small_benchmark):
        col = small_benchmark.collection
        arena, offsets = col.arena()
        rebuilt = EstCollection.from_arena(arena, offsets)
        assert rebuilt.n_ests == col.n_ests
        for k in range(col.n_strings):
            np.testing.assert_array_equal(rebuilt.string(k), col.string(k))
        text_a, starts_a = rebuilt.sa_text()
        text_b, starts_b = col.sa_text()
        np.testing.assert_array_equal(text_a, text_b)
        np.testing.assert_array_equal(starts_a, starts_b)

    @pytest.mark.parametrize("n_slaves", [1, 3])
    def test_seven_segments_whatever_the_slave_count(self, gst, small_config, n_slaves):
        # The index and nothing else is published: the sequence arena and
        # its offsets, text, starts, sa, lcp and pos_string.  Called the way
        # benchmarks/e2e/child.py calls it: the slaves' ranges and the two
        # keywords are accepted and ignored.
        plan = assign_buckets(gst.bucket_ranges(small_config.w), n_slaves)
        ranges_of = [[(lo, hi) for _k, lo, hi in owned] for owned in plan.per_processor]
        shared = GstArenas.create(
            gst, ranges_of, pair_engine="vector", psi=small_config.psi
        )
        try:
            assert len(shared.bundle.arrays) == 7
            assert shared.registry.n_segments == 7
            assert len(leaked_segments()) == 7
            assert shared.bundle.nbytes == sum(
                d.nbytes for d in shared.bundle.arrays.values()
            )
        finally:
            shared.dispose()
        assert leaked_segments() == []

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_attached_gst_pairs_match_local(self, gst, small_config, engine):
        from repro.pairs.batch import make_pair_generator

        config = replace(small_config, pair_engine=engine)
        ranges = [(lo, hi) for _k, lo, hi in gst.bucket_ranges(config.w)]
        shared = GstArenas.create(gst)
        reg = ArenaRegistry()
        try:
            agst = attach_gst(shared.bundle, reg)
            assert not agst.lcp.flags.writeable
            local = list(
                make_pair_generator(gst, config, ranges=ranges).pairs()
            )
            attached = list(
                make_pair_generator(agst, config, ranges=ranges).pairs()
            )
            assert attached == local
        finally:
            reg.close()
            shared.dispose()
        assert leaked_segments() == []

    def test_attached_lookups_match_local(self, gst):
        # The derived lookups read the shared views of text, starts and
        # pos_string and answer exactly as the master's own index does.
        shared = GstArenas.create(gst)
        reg = ArenaRegistry()
        try:
            agst = attach_gst(shared.bundle, reg)
            p = np.arange(gst.n_suffix_positions, dtype=np.int32)
            for name in ("offsets", "suffix_lengths", "left_chars"):
                assert np.array_equal(getattr(agst, name)(p), getattr(gst, name)(p))
            for name in ("text", "starts", "sa", "lcp", "pos_string"):
                assert getattr(agst, name).dtype == getattr(gst, name).dtype
            ranks = range(0, gst.n_suffix_positions, 97)
            assert [agst.suffix_info(r) for r in ranks] == [gst.suffix_info(r) for r in ranks]
            ranges = [(5, len(p) - 5), (0, 3)]
            assert np.array_equal(agst.suffix_chars(ranges), gst.suffix_chars(ranges))
            assert agst.bucket_ranges(4) == gst.bucket_ranges(4)
        finally:
            reg.close()
            shared.dispose()
        assert leaked_segments() == []

    def test_create_failure_leaves_no_segments(self, gst, monkeypatch):
        # If publishing dies partway (here: on the LCP array), every
        # segment created before the failure must already be unlinked.
        original = ArenaRegistry.create

        def explode(self, array, label=""):
            if label == "lcp":
                raise OSError("boom")
            return original(self, array, label)

        monkeypatch.setattr(ArenaRegistry, "create", explode)
        with pytest.raises(OSError, match="boom"):
            GstArenas.create(gst)
        assert leaked_segments() == []


# --------------------------------------------------------------------- #
# end-to-end lifecycle: no segment survives any kind of run
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def sequential_clusters(small_benchmark, small_config):
    return PaceClusterer(small_config).cluster(small_benchmark.collection).clusters


class TestRunLifecycle:
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_clean_run_oracle_and_no_leaks(
        self, small_benchmark, small_config, sequential_clusters, engine
    ):
        config = replace(small_config, pair_engine=engine)
        with hard_deadline():
            res = cluster_multiprocessing(
                small_benchmark.collection, config, n_processors=3
            )
        assert res.clusters == sequential_clusters
        assert leaked_segments() == []

    def test_crashed_slave_oracle_and_no_leaks(
        self, small_benchmark, small_config, sequential_clusters
    ):
        # Slave 0 dies on every incarnation with no restart budget: the
        # degraded reabsorb path builds the lost slave's forest in the
        # master and the master must still unlink everything.
        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="kill", at_message=1, incarnation=None)
        )
        tol = FaultTolerance(
            slave_timeout=15.0, poll_interval=0.05, max_restarts=0
        )
        with hard_deadline():
            res = cluster_multiprocessing(
                small_benchmark.collection,
                small_config,
                n_processors=3,
                faults=plan,
                tolerance=tol,
            )
        assert res.faults.slaves_lost >= 1
        assert res.clusters == sequential_clusters
        assert leaked_segments() == []

    def test_restarted_slave_attaches_and_no_leaks(
        self, small_benchmark, small_config, sequential_clusters
    ):
        plan = FaultPlan.of(
            FaultSpec(slave_id=1, kind="kill_after_send", at_message=1)
        )
        tol = FaultTolerance(
            slave_timeout=15.0, poll_interval=0.05, max_restarts=2
        )
        with hard_deadline():
            res = cluster_multiprocessing(
                small_benchmark.collection,
                small_config,
                n_processors=3,
                faults=plan,
                tolerance=tol,
            )
        assert res.faults.restarts >= 1
        assert res.clusters == sequential_clusters
        assert leaked_segments() == []

    def test_keyboard_interrupt_leaves_no_leaks(
        self, small_benchmark, small_config
    ):
        # Delay every slave's first report so the master is parked in its
        # poll loop when the interrupt lands mid-run; the finally block
        # must still unlink every segment.
        import _thread

        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="delay", at_message=0, delay=3.0),
            FaultSpec(slave_id=1, kind="delay", at_message=0, delay=3.0),
        )
        timer = threading.Timer(0.5, _thread.interrupt_main)
        timer.start()
        try:
            with hard_deadline():
                with pytest.raises(KeyboardInterrupt):
                    cluster_multiprocessing(
                        small_benchmark.collection,
                        small_config,
                        n_processors=3,
                        faults=plan,
                    )
        finally:
            timer.cancel()
        # Give the interrupted teardown a beat to finish reaping.
        time.sleep(0.1)
        assert leaked_segments() == []
