"""Tests for simulator event tracing: causality, accounting parity,
rendering."""

import pytest

from repro.parallel import SimulatedMachine
from repro.telemetry import Telemetry
from repro.telemetry.trace import TraceEvent, TraceRecorder, render_timeline, utilisation


@pytest.fixture()
def traced_run(small_benchmark, small_config):
    tel = Telemetry()
    machine = SimulatedMachine(
        small_benchmark.collection, small_config, n_processors=4, telemetry=tel
    )
    report = machine.run()
    return tel.trace, report


class TestTraceRecorder:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            TraceEvent("compute", "master", 2.0, 1.0)

    def test_basic_recording(self):
        tr = TraceRecorder()
        tr.send("master", 1.0, "x")
        tr.recv("slave0", 2.0)
        tr.compute("slave0", 2.0, 3.0, "work")
        assert len(tr) == 3
        assert [e.kind for e in tr.ordered()] == ["send", "recv", "compute"]
        assert len(tr.by_actor("slave0")) == 2


class TestSimulatorTracing:
    def test_events_recorded(self, traced_run):
        trace, report = traced_run
        assert len(trace) > 0
        kinds = {e.kind for e in trace.events}
        assert kinds == {"send", "recv", "compute"}

    def test_all_events_within_run(self, traced_run):
        trace, report = traced_run
        for ev in trace.events:
            assert 0 <= ev.start <= ev.end <= report.total_time + 1e-12

    def test_causality_sends_precede_receives(self, traced_run):
        """Every receive is preceded by a matching send from the peer at
        an earlier time (message latency is strictly positive)."""
        trace, _report = traced_run
        sends = sorted(e.start for e in trace.events if e.kind == "send")
        for recv in (e for e in trace.events if e.kind == "recv"):
            assert any(s < recv.start for s in sends), recv

    def test_master_compute_intervals_serialise(self, traced_run):
        """The master is one processor: its compute intervals never
        overlap."""
        trace, _report = traced_run
        intervals = sorted(
            (e.start, e.end) for e in trace.by_actor("master") if e.kind == "compute"
        )
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2 + 1e-12

    def test_master_busy_matches_report(self, traced_run):
        trace, report = traced_run
        util = utilisation(trace, report.total_time)
        assert util["master"] == pytest.approx(report.master_busy_fraction, rel=1e-9)

    def test_send_count_matches_messages(self, traced_run):
        trace, report = traced_run
        sends = sum(1 for e in trace.events if e.kind == "send")
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
        assert "actor" in render_timeline(TraceRecorder())


class TestDegenerateInputs:
    def test_utilisation_empty_trace(self):
        assert utilisation(TraceRecorder(), 10.0) == {}

    def test_utilisation_zero_total_time(self):
        """A trivial run (total_time == 0) yields zero fractions, never a
        ZeroDivisionError."""
        tr = TraceRecorder()
        tr.compute("master", 0.0, 0.0, "noop")
        tr.compute("slave0", 0.0, 0.0, "noop")
        assert utilisation(tr, 0.0) == {"master": 0.0, "slave0": 0.0}
        assert utilisation(tr, -1.0) == {"master": 0.0, "slave0": 0.0}

    def test_total_span(self):
        tr = TraceRecorder()
        assert tr.total_span() == 0.0
        tr.compute("master", 1.0, 4.0)
        tr.send("master", 2.0)
        assert tr.total_span() == 4.0

    def test_extend_absorbs_foreign_events(self):
        tr = TraceRecorder()
        tr.send("master", 1.0)
        other = [TraceEvent("recv", "slave0", 2.0, 2.0)]
        tr.extend(other)
        assert len(tr) == 2
        assert [e.actor for e in tr.ordered()] == ["master", "slave0"]

    def test_single_event_timeline_and_utilisation(self):
        """One compute interval: the timeline shows exactly it (no
        truncation notice) and utilisation is its busy fraction."""
        tr = TraceRecorder()
        tr.compute("slave0", 1.0, 3.0, "only")
        text = render_timeline(tr, max_events=60)
        assert text.count("\n") == 1  # header + the one event
        assert "only" in text and "more events" not in text
        assert utilisation(tr, 4.0) == {"slave0": 0.5}
        assert tr.total_span() == 3.0

    def test_single_instantaneous_event(self):
        """A lone send has zero busy time: it renders but utilises nobody."""
        tr = TraceRecorder()
        tr.send("master", 2.5)
        assert "send" in render_timeline(tr)
        assert utilisation(tr, 10.0) == {}


class TestDistinctOriginMerge:
    def test_extend_offset_rebases_foreign_clock(self):
        """Merging records from streams with different time origins (a
        simulator trace starts at 0.0; an mp trace's meta origin is the
        master's monotonic start): extend(offset=their_origin - ours)
        puts both on one axis."""
        merged = TraceRecorder()
        merged.compute("master", 5.0, 6.0)  # our clock
        sim_events = [
            TraceEvent("compute", "slave0", 0.0, 1.0, "sim"),
            TraceEvent("send", "slave0", 1.0, 1.0, "sim"),
        ]
        merged.extend(sim_events, offset=5.0)
        ordered = merged.ordered()
        assert [e.start for e in ordered] == [5.0, 5.0, 6.0]
        # originals untouched (rebasing copies, never mutates)
        assert sim_events[0].start == 0.0

    def test_zero_offset_is_identity(self):
        tr = TraceRecorder()
        events = [TraceEvent("recv", "slave1", 3.0, 3.0)]
        tr.extend(events, offset=0.0)
        assert tr.events[0] is events[0]

    def test_merged_utilisation_spans_both_sources(self):
        tr = TraceRecorder()
        tr.compute("master", 0.0, 2.0)
        tr.extend([TraceEvent("compute", "slave0", 0.0, 1.0)], offset=2.0)
        util = utilisation(tr, 4.0)
        assert util == {"master": 0.5, "slave0": 0.25}
        assert tr.total_span() == 3.0
