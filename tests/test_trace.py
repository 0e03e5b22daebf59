"""Tests for simulator event tracing: causality, accounting parity,
rendering."""

import pytest

from repro.parallel import SimulatedMachine
from repro.telemetry import Telemetry
from repro.telemetry.trace import busy_times, render_timeline, utilisation


def _machine_events(tel: Telemetry) -> list[dict]:
    return [r for r in tel.events if r["kind"] == "trace"]


@pytest.fixture()
def traced_run(small_benchmark, small_config):
    tel = Telemetry()
    machine = SimulatedMachine(
        small_benchmark.collection, small_config, n_processors=4, telemetry=tel
    )
    report = machine.run()
    return _machine_events(tel), report


class TestTraceRecorder:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            Telemetry().trace("compute", "master", 2.0, 1.0)

    def test_basic_recording(self):
        tel = Telemetry()
        tel.trace("send", "master", 1.0, detail="x")
        tel.trace("recv", "slave0", 2.0)
        tel.trace("compute", "slave0", 2.0, 3.0, "work")
        events = tel.snapshot().events
        assert [e["event"] for e in events] == ["send", "recv", "compute"]
        assert [e["end"] for e in events] == [1.0, 2.0, 3.0]
        assert "detail" not in events[1]  # an empty detail is left out
        assert sum(e["actor"] == "slave0" for e in events) == 2
        # A disabled session keeps nothing.
        off = Telemetry(enabled=False)
        off.trace("send", "master", 1.0)
        assert off.events == []


class TestSimulatorTracing:
    def test_events_recorded(self, traced_run):
        trace, report = traced_run
        assert len(trace) > 0
        kinds = {e["event"] for e in trace}
        assert kinds == {"send", "recv", "compute"}

    def test_all_events_within_run(self, traced_run):
        trace, report = traced_run
        for ev in trace:
            assert 0 <= ev["ts"] <= ev["end"] <= report.total_time + 1e-12

    def test_causality_sends_precede_receives(self, traced_run):
        """Every receive is preceded by a matching send from the peer at
        an earlier time (message latency is strictly positive)."""
        trace, _report = traced_run
        sends = sorted(e["ts"] for e in trace if e["event"] == "send")
        for recv in (e for e in trace if e["event"] == "recv"):
            assert any(s < recv["ts"] for s in sends), recv

    def test_master_compute_intervals_serialise(self, traced_run):
        """The master is one processor: its compute intervals never
        overlap."""
        trace, _report = traced_run
        intervals = sorted(
            (e["ts"], e["end"])
            for e in trace
            if e["actor"] == "master" and e["event"] == "compute"
        )
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2 + 1e-12

    def test_master_busy_matches_report(self, traced_run):
        trace, report = traced_run
        util = utilisation(trace, report.total_time)
        assert util["master"] == pytest.approx(report.master_busy_fraction, rel=1e-9)

    def test_send_count_matches_messages(self, traced_run):
        trace, report = traced_run
        sends = sum(1 for e in trace if e["event"] == "send")
        assert sends == report.messages_exchanged

    def test_tracing_does_not_change_results(self, small_benchmark, small_config):
        plain = SimulatedMachine(
            small_benchmark.collection, small_config, n_processors=4
        ).run()
        traced = SimulatedMachine(
            small_benchmark.collection,
            small_config,
            n_processors=4,
            telemetry=Telemetry(),
        ).run()
        assert plain.result.clusters == traced.result.clusters
        assert plain.total_time == traced.total_time


class TestRendering:
    def test_timeline_renders(self, traced_run):
        trace, _report = traced_run
        text = render_timeline(trace, max_events=10)
        assert "master" in text and "slave" in text
        assert "more events" in text  # truncation notice

    def test_empty_timeline(self):
        assert "actor" in render_timeline([])


class TestDegenerateInputs:
    def test_utilisation_empty_trace(self):
        assert utilisation([], 10.0) == {}

    def test_utilisation_zero_total_time(self):
        """A trivial run (total_time == 0) yields zero fractions, never a
        ZeroDivisionError."""
        tel = Telemetry()
        tel.trace("compute", "master", 0.0, 0.0, "noop")
        tel.trace("compute", "slave0", 0.0, 0.0, "noop")
        assert utilisation(tel.events, 0.0) == {"master": 0.0, "slave0": 0.0}
        assert utilisation(tel.events, -1.0) == {"master": 0.0, "slave0": 0.0}

    def test_extend_absorbs_foreign_events(self):
        """A master session absorbs a slave session's events (what the mp
        backend does with each final stats message); the snapshot puts
        both on the one run clock."""
        master, slave = Telemetry(), Telemetry()
        master.trace("send", "master", 2.0)
        slave.trace("recv", "slave0", 1.0)
        master.events.extend(slave.events)
        events = master.snapshot().events
        assert [e["actor"] for e in events] == ["slave0", "master"]

    def test_single_event_timeline_and_utilisation(self):
        """One compute interval: the timeline shows exactly it (no
        truncation notice) and utilisation is its busy fraction."""
        tel = Telemetry()
        tel.trace("compute", "slave0", 1.0, 3.0, "only")
        text = render_timeline(tel.events, max_events=60)
        assert text.count("\n") == 1  # header + the one event
        assert "only" in text and "more events" not in text
        assert utilisation(tel.events, 4.0) == {"slave0": 0.5}

    def test_single_instantaneous_event(self):
        """A lone send has zero busy time: it renders but utilises nobody."""
        tel = Telemetry()
        tel.trace("send", "master", 2.5)
        assert "send" in render_timeline(tel.events)
        assert utilisation(tel.events, 10.0) == {}


class TestDistinctOriginMerge:
    def test_merged_utilisation_spans_both_sources(self):
        """Busy time sums per actor over every source in the stream, and
        records of other kinds are ignored."""
        master, slave = Telemetry(), Telemetry(causal=True)
        master.trace("compute", "master", 0.0, 2.0)
        slave.trace("compute", "slave0", 2.0, 3.0)
        slave.record_causal("aligned", 7, 1, actor="slave0", ts=2.5)
        records = master.events + slave.events
        assert busy_times(records) == {"master": 2.0, "slave0": 1.0}
        assert utilisation(records, 4.0) == {"master": 0.5, "slave0": 0.25}
