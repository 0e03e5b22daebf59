"""Tests for repro.util: RNG plumbing, timers, validation, heap release."""

import gc
import time

import numpy as np
import pytest

import repro.core.pipeline as pipeline
import repro.parallel.mp_backend as mp_backend
import repro.parallel.sim_machine as sim_machine
from repro.parallel import SimulatedMachine, cluster_multiprocessing
from repro.suffix.gst import SuffixArrayGst
from repro.util import (
    Stopwatch,
    TimingBreakdown,
    check_in_range,
    check_positive,
    check_probability,
    ensure_rng,
    spawn_rngs,
)
from repro.util.heap import release_free_heap


class TestEnsureRng:
    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, 10)
        b = ensure_rng(42).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_generator_passes_through_unchanged(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)


class TestSpawnRngs:
    def test_children_are_independent(self):
        a, b = spawn_rngs(7, 2)
        assert not np.array_equal(a.integers(0, 10**9, 8), b.integers(0, 10**9, 8))

    def test_family_reproducible_from_seed(self):
        fam1 = [g.integers(0, 10**9) for g in spawn_rngs(5, 3)]
        fam2 = [g.integers(0, 10**9) for g in spawn_rngs(5, 3)]
        assert fam1 == fam2

    def test_zero_children(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestStopwatch:
    def test_accumulates_across_cycles(self):
        sw = Stopwatch()
        for _ in range(2):
            sw.start()
            time.sleep(0.002)
            sw.stop()
        assert sw.elapsed >= 0.004

    def test_double_start_rejected(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_running_flag(self):
        sw = Stopwatch()
        assert not sw.running
        sw.start()
        assert sw.running
        sw.stop()
        assert not sw.running


class TestTimingBreakdown:
    def test_measure_accumulates_by_name(self):
        tb = TimingBreakdown()
        with tb.measure("a"):
            time.sleep(0.002)
        with tb.measure("a"):
            pass
        assert tb.get("a") >= 0.002
        assert tb.get("missing") == 0.0

    def test_total_is_sum(self):
        tb = TimingBreakdown()
        tb.add("x", 1.0)
        tb.add("y", 2.0)
        tb.add("x", 0.5)
        assert tb.total == pytest.approx(3.5)

    def test_as_row_with_order_appends_total(self):
        tb = TimingBreakdown()
        tb.add("x", 1.0)
        tb.add("y", 2.0)
        assert tb.as_row(["y", "x"]) == [2.0, 1.0, 3.0]

    def test_as_row_unknown_component_raises(self):
        """A misspelt component name must not silently render as 0.0."""
        tb = TimingBreakdown()
        tb.add("x", 1.0)
        with pytest.raises(KeyError, match="unknown timing component"):
            tb.as_row(["x", "z"])

    def test_as_row_explicit_zero_fill(self):
        tb = TimingBreakdown()
        tb.add("x", 1.0)
        assert tb.as_row(["x", "z"], missing="zero") == [1.0, 0.0, 1.0]
        with pytest.raises(ValueError):
            tb.as_row(["x"], missing="maybe")

    def test_merge(self):
        a = TimingBreakdown()
        a.add("x", 1.0)
        b = TimingBreakdown()
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.get("x") == 3.0 and a.get("y") == 3.0


class TestValidation:
    def test_check_positive_strict(self):
        check_positive("v", 1)
        with pytest.raises(ValueError):
            check_positive("v", 0)

    def test_check_positive_nonstrict_allows_zero(self):
        check_positive("v", 0, strict=False)
        with pytest.raises(ValueError):
            check_positive("v", -1, strict=False)

    def test_check_probability_bounds(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        with pytest.raises(ValueError):
            check_probability("p", 1.01)
        with pytest.raises(ValueError):
            check_probability("p", -0.01)

    def test_check_in_range(self):
        check_in_range("r", 5, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("r", 11, 0, 10)


class TestReleaseFreeHeap:
    """Each engine hands its freed heap back once its run's tables are
    garbage: no index is alive when the release runs."""

    def test_safe_to_call_repeatedly(self):
        release_free_heap()
        release_free_heap()

    @pytest.mark.parametrize("engine", ["sequential", "simulated", "multiprocessing"])
    def test_each_engine_releases_after_its_index_is_gone(
        self, engine, small_benchmark, small_config, monkeypatch
    ):
        def live_indexes() -> int:
            return sum(isinstance(o, SuffixArrayGst) for o in gc.get_objects())

        before = live_indexes()
        seen: list[int] = []
        for module in (pipeline, sim_machine, mp_backend):
            monkeypatch.setattr(
                module, "release_free_heap", lambda: seen.append(live_indexes())
            )
        col = small_benchmark.collection
        if engine == "sequential":
            pipeline.PaceClusterer(small_config).cluster(col)
        elif engine == "simulated":
            SimulatedMachine(col, small_config, n_processors=3).run()
        else:
            cluster_multiprocessing(col, small_config, n_processors=2)
        assert seen == [before]
