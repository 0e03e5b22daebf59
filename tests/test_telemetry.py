"""Tests for the unified telemetry layer: registry semantics, span
nesting, JSONL round-trips, and sim-vs-mp engine parity."""

from __future__ import annotations

import io
import json

import pytest

from repro.core import PaceClusterer
from repro.parallel import cluster_multiprocessing, simulate_clustering
from repro.telemetry import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    SCHEMA_VERSION,
    Telemetry,
    export_jsonl,
    load_jsonl,
    snapshot_records,
    summarise,
    validate_records,
)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("pairs", 3)
        reg.inc("pairs")
        assert reg.get("pairs") == 4.0
        assert reg.get("missing", default=-1.0) == -1.0

    def test_counter_rejects_decrement(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.inc("pairs", -1)

    def test_gauge_is_last_write(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 5)
        reg.set_gauge("depth", 2)
        assert reg.gauge("depth").value == 2

    def test_histogram_default_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("x")
        assert h.buckets == DEFAULT_BUCKETS
        assert len(h.counts) == len(DEFAULT_BUCKETS) + 1

    def test_histogram_bucket_validation(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("x", buckets=())
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("x", buckets=(1, 1, 2))
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("x", buckets=(5, 2))

    def test_histogram_boundary_semantics(self):
        """A value equal to a bucket bound lands in that bucket; values
        above the last bound land in the overflow slot."""
        h = Histogram("x", buckets=(1, 2, 5))
        for v in (0.0, 1.0):  # v <= 1
            h.observe(v)
        h.observe(1.5)  # 1 < v <= 2
        h.observe(2.0)  # boundary: still the <=2 bucket
        h.observe(5.0)  # boundary: still the <=5 bucket
        h.observe(5.0001)  # overflow
        h.observe(100)  # overflow
        assert h.counts == [2, 2, 1, 2]
        assert h.count == 7
        assert h.sum == pytest.approx(0 + 1 + 1.5 + 2 + 5 + 5.0001 + 100)
        assert h.mean == pytest.approx(h.sum / 7)

    def test_merge_snapshot(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("pairs", 10)
        b.inc("pairs", 5)
        b.inc("only_b", 1)
        a.set_gauge("depth", 3)
        b.set_gauge("depth", 7)
        a.observe("sizes", 1, (1, 2))
        b.observe("sizes", 2, (1, 2))
        b.observe("sizes", 99, (1, 2))
        a.merge_snapshot(b.snapshot())
        assert a.get("pairs") == 15
        assert a.get("only_b") == 1
        assert a.gauge("depth").value == 7  # merge keeps the max
        h = a.histogram("sizes")
        assert h.counts == [1, 1, 1]
        assert h.count == 3

    def test_merge_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("sizes", 1, (1, 2))
        b.observe("sizes", 1, (1, 3))
        with pytest.raises(ValueError, match="bucket mismatch"):
            a.merge_snapshot(b.snapshot())

    def test_merge_empty_snapshot_is_noop(self):
        a = MetricsRegistry()
        a.inc("pairs")
        a.merge_snapshot(None)
        a.merge_snapshot({})
        assert a.get("pairs") == 1


# --------------------------------------------------------------------- #
# spans and sessions
# --------------------------------------------------------------------- #


class TestSpans:
    def test_span_accumulates_phase_seconds(self):
        tel = Telemetry()
        with tel.span("alignment"):
            pass
        with tel.span("alignment"):
            pass
        assert tel.registry.get("span.alignment.seconds") >= 0.0
        names = [e["name"] for e in tel.events]
        assert names == ["alignment", "alignment", "alignment", "alignment"]

    def test_span_nesting_parent_ids(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        start_outer, start_inner, end_inner, end_outer = tel.events
        assert start_outer["kind"] == "span_start"
        assert start_outer["parent"] is None
        assert start_inner["parent"] == start_outer["id"]
        assert end_inner["id"] == start_inner["id"]
        assert end_outer["id"] == start_outer["id"]
        assert end_outer["duration"] >= end_inner["duration"] >= 0.0

    def test_span_attrs_recorded(self):
        tel = Telemetry()
        with tel.span("gst_construction", n_ests=42):
            pass
        assert tel.events[0]["attrs"] == {"n_ests": 42}

    def test_disabled_mode_keeps_timings_drops_events(self):
        tel = Telemetry(enabled=False)
        with tel.span("alignment"):
            pass
        tel.count("pairs.produced", 5)
        tel.observe("sizes", 3)
        tel.set_gauge("depth", 1)
        # Phase seconds always accumulate (results must carry timings)...
        assert "span.alignment.seconds" in tel.registry.counters
        # ...but no events and no point instruments.
        assert tel.events == []
        assert tel.registry.get("pairs.produced") == 0.0
        assert not tel.registry.histograms
        assert not tel.registry.gauges

    def test_add_phase_external_clock(self):
        tel = Telemetry()
        tel.add_phase("sort_nodes", 2.5)
        tel.add_phase("sort_nodes", 0.5)
        snap = tel.snapshot(engine="simulated", clock="virtual", total_time=3.0)
        assert snap.phase_times() == {"sort_nodes": 3.0}
        assert snap.meta["clock"] == "virtual"
        assert snap.total_time == 3.0

    def test_snapshot_defaults_and_event_merge(self):
        tel = Telemetry()
        with tel.span("alignment"):
            pass
        tel.trace("compute", "slave0", 0.0, 1.0, "work")
        snap = tel.snapshot(engine="test", n_processors=2)
        assert snap.meta["clock"] == "wall"
        assert snap.meta["total_time"] >= 0.0
        kinds = [e["kind"] for e in snap.events]
        assert sorted(kinds) == ["span_end", "span_start", "trace"]
        ts = [e["ts"] for e in snap.events]
        assert ts == sorted(ts)

    def test_record_faults(self):
        class FC:
            def as_dict(self):
                return {"crashes_detected": 2, "pairs_reassigned": 0}

        tel = Telemetry()
        tel.record_faults(FC())
        tel.record_faults(None)  # tolerated
        assert tel.registry.get("fault.crashes_detected") == 2
        # Zero-valued fields are not materialised as counters.
        assert "fault.pairs_reassigned" not in tel.registry.counters


# --------------------------------------------------------------------- #
# sinks: JSONL round-trip, validation, report
# --------------------------------------------------------------------- #


def _sample_snapshot():
    tel = Telemetry()
    with tel.span("gst_construction"):
        with tel.span("sort_nodes"):
            pass
    tel.count("pairs.produced", 7)
    tel.observe("pairs.batch_size", 3, (1, 5, 10))
    tel.set_gauge("machine.load_imbalance", 0.1)
    tel.trace("compute", "master", 0.0, 0.25, "incorporate")
    tel.trace("compute", "slave0", 0.0, 0.75, "align")
    tel.registry.inc("fault.crashes_detected", 1)
    return tel.snapshot(engine="test", n_processors=2, total_time=1.0)


class TestSinks:
    def test_round_trip(self, tmp_path):
        snap = _sample_snapshot()
        path = tmp_path / "trace.jsonl"
        n = export_jsonl(snap, path)
        records = load_jsonl(path)
        assert len(records) == n
        assert records == snapshot_records(snap)
        assert validate_records(records) == []

    def test_export_to_stream(self):
        buf = io.StringIO()
        n = export_jsonl(_sample_snapshot(), buf)
        assert len(buf.getvalue().splitlines()) == n

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_jsonl(path)

    def test_validate_flags_problems(self):
        records = snapshot_records(_sample_snapshot())
        assert validate_records([]) == ["empty trace: no records"]
        # Wrong schema version.
        bad = [dict(records[0], schema="bogus/9")] + records[1:]
        assert any("unknown schema" in p for p in validate_records(bad))
        # Missing meta record.
        assert any("expected a meta" in p for p in validate_records(records[1:]))
        # Non-monotone event timestamps.
        events = [r for r in records if r["kind"] in ("span_start", "span_end")]
        shuffled = [records[0]] + events[::-1] + [r for r in records if r not in events and r is not records[0]]
        assert any("not monotone" in p for p in validate_records(shuffled))
        # Histogram counts that don't sum to count.
        broken = [
            dict(r, count=999)
            if r.get("kind") == "metric" and r.get("metric") == "histogram"
            else r
            for r in records
        ]
        assert any("sum to" in p for p in validate_records(broken))
        # Unmatched span start/end.
        orphaned = [r for r in records if r.get("kind") != "span_end"]
        assert any("unmatched" in p for p in validate_records(orphaned))
        # Unknown trace event kind.
        weird = records + [
            {"kind": "trace", "event": "teleport", "actor": "master", "ts": 99.0}
        ]
        assert any("unknown trace event" in p for p in validate_records(weird))
        # Fields that must be numbers and are not: problems, not TypeErrors.
        typed = records + [
            {"kind": "trace", "event": "send", "actor": "master", "ts": 99.0,
             "end": "x"},
            {"kind": "metric", "metric": "histogram", "name": "h",
             "buckets": [1.0], "counts": [0, "1"], "count": 1, "sum": 1.0},
            {"kind": "metric", "metric": "gauge", "name": "g", "value": "1"},
        ]
        found = validate_records(typed)
        assert any("end 'x' is not a number" in p for p in found)
        assert any("lists of numbers" in p for p in found)
        assert any("value '1' is not a number" in p for p in found)

    def test_summarise_reconstructs_measurements(self):
        text = summarise(snapshot_records(_sample_snapshot()))
        assert "engine=test" in text
        assert "Table 3" in text
        assert "gst_construction" in text and "sort_nodes" in text
        assert "master busy fraction: 25.00%" in text
        assert "pairs.produced = 7" in text
        assert "histogram pairs.batch_size" in text
        assert "faults:" in text and "crashes_detected = 1" in text

    def test_summarise_zero_total_time(self):
        tel = Telemetry()
        tel.trace("compute", "master", 0.0, 0.0, "nothing")
        text = summarise(snapshot_records(tel.snapshot(total_time=0.0)))
        assert "0.00%" in text  # no ZeroDivisionError


class TestLiveRecordValidation:
    """Error paths of the schema-/2 streamed record kinds."""

    @staticmethod
    def _meta(**over):
        rec = {
            "kind": "meta", "schema": SCHEMA_VERSION, "stream": "live",
            "run_id": "r", "n_processors": 3, "engine": "multiprocessing",
            "clock": "wall",
        }
        rec.update(over)
        return rec

    @staticmethod
    def _live(actor="slave0", ts=1.0, **over):
        rec = {
            "kind": "live", "actor": actor, "ts": ts, "rss_bytes": 100,
            "pairs_generated": 5, "alignments": 4,
        }
        rec.update(over)
        return rec

    @pytest.mark.parametrize("rev", [1, 2, 3])
    def test_old_schemas_rejected(self, rev, tmp_path, capsys):
        from repro.cli import main

        recs = snapshot_records(_sample_snapshot())
        recs[0] = dict(recs[0], schema=f"repro-telemetry/{rev}")
        problems = validate_records(recs)
        assert len(problems) == 1 and "unknown schema" in problems[0]
        path = tmp_path / "old.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown schema" in err

    def test_valid_live_stream(self):
        recs = [
            self._meta(),
            self._live("slave0", 1.0),
            self._live("slave1", 0.4),  # interleaved: fine across actors
            self._live("slave0", 2.0),
            {"kind": "live_state", "ts": 2.1, "progress": 0.5},
            {"kind": "live_state", "ts": 3.0, "progress": 1.0, "finished": True},
        ]
        assert validate_records(recs) == []

    def test_live_missing_actor_and_bad_ts(self):
        recs = [self._meta(), self._live(actor=""), self._live(ts=-1.0)]
        problems = validate_records(recs)
        assert any("without actor" in p for p in problems)
        assert any("bad ts" in p for p in problems)

    def test_live_per_actor_ts_regression(self):
        recs = [
            self._meta(),
            self._live("slave0", 2.0),
            self._live("slave0", 1.0),  # same actor going backwards: flagged
        ]
        assert any(
            "live timestamps for slave0 not monotone" in p
            for p in validate_records(recs)
        )

    def test_live_negative_counters(self):
        recs = [self._meta(), self._live(rss_bytes=-5, pairs_generated=-1)]
        problems = validate_records(recs)
        assert any("negative rss_bytes" in p for p in problems)
        assert any("negative pairs_generated" in p for p in problems)

    def test_live_state_errors(self):
        recs = [
            self._meta(),
            {"kind": "live_state", "ts": 5.0, "progress": 0.5},
            {"kind": "live_state", "ts": 4.0, "progress": 1.5},
            {"kind": "live_state", "ts": "soon", "progress": 0.5},
        ]
        problems = validate_records(recs)
        assert any("live_state timestamps not monotone" in p for p in problems)
        assert any("outside [0, 1]" in p for p in problems)
        assert any("bad ts" in p for p in problems)

    def test_foreign_records_rejected(self):
        recs = [self._meta(), {"kind": "prometheus_scrape", "ts": 1.0}]
        assert any("unknown record kind" in p for p in validate_records(recs))

    def test_summarise_merged_multi_slave_stream(self):
        """A live stream interleaving master + two slaves summarises to
        one line per actor with peak RSS and final counters."""
        recs = [self._meta()]
        for ts in (0.5, 1.0, 1.5):
            recs.append(self._live("slave0", ts, rss_bytes=int(ts * 100),
                                   pairs_generated=int(ts * 10)))
            recs.append(self._live("slave1", ts + 0.01, rss_bytes=50))
            recs.append(self._live("master", ts + 0.02, rss_bytes=900,
                                   pairs_generated=0))
        recs.append({"kind": "live_state", "ts": 2.0, "progress": 1.0,
                     "finished": True})
        text = summarise(recs)
        assert "live samples (streamed during the run):" in text
        for actor in ("master", "slave0", "slave1"):
            assert actor in text
        assert "3 samples" in text  # each actor sampled three times
        assert "pairs 15" in text  # slave0's final cumulative counter
        assert "final progress 100.0% (finished)" in text


# --------------------------------------------------------------------- #
# engine parity: the same workload through both engines
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def sim_snapshot(small_benchmark, small_config):
    tel = Telemetry()
    rep = simulate_clustering(
        small_benchmark.collection, small_config, n_processors=3, telemetry=tel
    )
    return rep.result.telemetry


@pytest.fixture(scope="module")
def mp_snapshot(small_benchmark, small_config):
    tel = Telemetry()
    res = cluster_multiprocessing(
        small_benchmark.collection, small_config, n_processors=3, telemetry=tel
    )
    return res.telemetry


class TestEngineParity:
    def test_both_validate(self, sim_snapshot, mp_snapshot):
        assert validate_records(snapshot_records(sim_snapshot)) == []
        assert validate_records(snapshot_records(mp_snapshot)) == []

    def test_meta_identifies_engines(self, sim_snapshot, mp_snapshot):
        assert sim_snapshot.meta["engine"] == "simulated"
        assert sim_snapshot.meta["clock"] == "virtual"
        assert mp_snapshot.meta["engine"] == "multiprocessing"
        assert mp_snapshot.meta["clock"] == "wall"
        assert sim_snapshot.meta["n_processors"] == 3
        assert mp_snapshot.meta["n_processors"] == 3

    def test_same_phase_names(self, sim_snapshot, mp_snapshot):
        """Both engines account the same Table 3 components — the mp
        backend's slave-side sort_nodes span arrives via registry merge.
        The mp backend additionally accounts the shared-arena publish
        step, which has no simulated counterpart (descriptor handoff is
        instantaneous in the discrete-event model)."""
        expected = {"partitioning", "gst_construction", "sort_nodes", "alignment"}
        assert set(sim_snapshot.phase_times()) == expected
        assert set(mp_snapshot.phase_times()) == expected | {"arena_setup"}

    def test_same_instrument_names(self, sim_snapshot, mp_snapshot):
        for snap in (sim_snapshot, mp_snapshot):
            counters = snap.metrics["counters"]
            assert counters["pairs.produced"] > 0
            assert counters["align.accepted"] > 0
            assert counters["messages.exchanged"] > 0
            assert "pairs.batch_size" in snap.metrics["histograms"]
            assert "align.band_width" in snap.metrics["histograms"]

    def test_event_counts_conserved(self, mp_snapshot):
        """In a fault-free mp run both sides record the full exchange:
        every send has a matching recv on the peer."""
        trace = [e for e in mp_snapshot.events if e["kind"] == "trace"]
        sends = [e for e in trace if e["event"] == "send"]
        recvs = [e for e in trace if e["event"] == "recv"]
        assert len(sends) == len(recvs) > 0
        master_recvs = sum(1 for e in recvs if e["actor"] == "master")
        slave_sends = sum(1 for e in sends if e["actor"].startswith("slave"))
        assert master_recvs == slave_sends
        assert not [e for e in trace if e["event"] == "fault"]

    def test_all_actors_traced(self, sim_snapshot, mp_snapshot):
        for snap in (sim_snapshot, mp_snapshot):
            actors = {
                e["actor"] for e in snap.events if e["kind"] == "trace"
            }
            assert actors == {"master", "slave0", "slave1"}

    def test_span_durations_within_total(self, mp_snapshot):
        for e in mp_snapshot.events:
            if e["kind"] == "span_end":
                assert 0.0 <= e["duration"] <= mp_snapshot.total_time + 1e-9

    def test_result_carries_snapshot_only_when_asked(
        self, small_benchmark, small_config
    ):
        plain = PaceClusterer(small_config).cluster(small_benchmark.collection)
        assert plain.telemetry is None
        assert plain.timings.get("alignment") > 0  # timings survive regardless
        instrumented = PaceClusterer(small_config).cluster(
            small_benchmark.collection, telemetry=Telemetry()
        )
        assert instrumented.telemetry is not None
        assert instrumented.telemetry.meta["engine"] == "sequential"
        assert instrumented.telemetry.phase_times()["alignment"] > 0


# --------------------------------------------------------------------- #
# CLI report round-trip
# --------------------------------------------------------------------- #


class TestCliReport:
    def test_report_from_exported_trace(self, sim_snapshot, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        export_jsonl(sim_snapshot, path)
        assert main(["report", str(path), "--timeline", "5"]) == 0
        out = capsys.readouterr().out
        assert "engine=simulated" in out
        assert "Table 3" in out
        assert "master busy fraction" in out
        assert "slave" in out  # the reconstructed timeline

    def test_report_rejects_invalid_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "metric", "metric": "counter", "name": "x", "value": 1}\n')
        assert main(["report", str(path)]) == 2
        assert "expected a meta" in capsys.readouterr().err
