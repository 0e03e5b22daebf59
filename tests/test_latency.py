"""Work-unit latency tracing: quantile math, the store, engine parity,
the latency summary records and the schema, and the analyze/diff
reporters."""

import json
import math

import pytest

from repro.core import PaceClusterer
from repro.parallel import run_parallel
from repro.parallel.protocol import MasterLogic, SlaveMsg
from repro.pairs.pair import Pair
from repro.telemetry import (
    ACCEPTED_SCHEMAS,
    SCHEMA_VERSION,
    SEQUENTIAL_STAGES,
    STAGES,
    Telemetry,
    LatencyStore,
    analyze_trace,
    diff_traces,
    latency_records,
    quantile_from_buckets,
    snapshot_records,
    stage_table,
    store_from_records,
    validate_records,
)
from repro.telemetry.causal import NO_UNIT
from repro.telemetry.latency import LATENCY_BUCKETS
from repro.telemetry.registry import MetricsRegistry


def _pair(i: int, j: int) -> Pair:
    """A promising pair between ESTs i and j (forward strings, zero seed
    offsets — the protocol only looks at est_a/est_b)."""
    return Pair(10, 2 * i, 0, 2 * j, 0)


# --------------------------------------------------------------------- #
# quantile math (satellite: registry.Histogram.quantile)


class TestQuantileFromBuckets:
    def test_linear_interpolation_within_bucket(self):
        # 10 observations, all in the (1, 2] bucket: quantiles interpolate
        # linearly across that bucket.
        buckets = (1.0, 2.0, 4.0)
        counts = [0, 10, 0, 0]
        assert quantile_from_buckets(buckets, counts, 0.5) == pytest.approx(1.5)
        assert quantile_from_buckets(buckets, counts, 0.0) == pytest.approx(1.0)
        assert quantile_from_buckets(buckets, counts, 1.0) == pytest.approx(2.0)

    def test_first_bucket_interpolates_from_zero(self):
        buckets = (4.0, 8.0)
        counts = [8, 0, 0]
        assert quantile_from_buckets(buckets, counts, 0.5) == pytest.approx(2.0)

    def test_overflow_clamps_to_last_bound(self):
        buckets = (1.0, 2.0)
        counts = [0, 0, 5]  # everything beyond the last finite bound
        assert quantile_from_buckets(buckets, counts, 0.99) == pytest.approx(2.0)

    def test_spread_distribution_is_monotone(self):
        buckets = tuple(float(b) for b in range(1, 11))
        counts = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 0]
        qs = [quantile_from_buckets(buckets, counts, q / 100) for q in range(101)]
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_empty_is_nan(self):
        assert math.isnan(quantile_from_buckets((1.0, 2.0), [0, 0, 0], 0.5))

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            quantile_from_buckets((1.0,), [1, 0], -0.1)
        with pytest.raises(ValueError):
            quantile_from_buckets((1.0,), [1, 0], 1.1)

    def test_histogram_method_matches_function(self):
        reg = MetricsRegistry()
        for v in (0.5, 1.5, 1.7, 3.0, 9.0):
            reg.observe("x", v, (1.0, 2.0, 4.0, 8.0))
        h = reg.histograms["x"]
        assert h.quantile(0.5) == quantile_from_buckets(
            tuple(h.buckets), h.counts, 0.5
        )


# --------------------------------------------------------------------- #
# the store


class TestLatencyStore:
    def test_observe_and_breakdown(self):
        store = LatencyStore()
        for ms in (1, 2, 3, 4, 100):
            store.observe("align", ms / 1e3)
        store.observe("rtt", 0.5)
        assert store.stages() == ["align", "rtt"]
        assert store.count("align") == 5
        assert store.total("align") == pytest.approx(0.110)
        b = store.breakdown()
        assert set(b) == {"align", "rtt"}
        assert b["align"]["count"] == 5
        assert b["align"]["p50"] <= b["align"]["p90"] <= b["align"]["p99"]
        # the 100ms outlier drags p999 well above p50
        assert b["align"]["p999"] > b["align"]["p50"]

    def test_canonical_stage_order(self):
        store = LatencyStore()
        for stage in ("rtt", "absorb", "generate", "custom_stage"):
            store.observe(stage, 0.01)
        assert store.stages() == ["generate", "absorb", "rtt", "custom_stage"]

    def test_negative_observation_clamps_to_zero(self):
        store = LatencyStore()
        store.observe("transit", -1e-9)
        assert store.count("transit") == 1
        assert store.total("transit") == 0.0

    def test_unobserved_stage_reads_empty(self):
        store = LatencyStore()
        assert store.count("align") == 0
        assert store.total("align") == 0.0
        assert math.isnan(store.quantile("align", 0.5))

    def test_shared_registry_merges_like_slave_stats(self):
        # Slave stores land in separate registries; merging their
        # snapshots into the master registry must merge the histograms
        # (this is the exact path mp slave metrics travel).
        master = MetricsRegistry()
        for _ in range(2):
            slave_reg = MetricsRegistry()
            slave = LatencyStore(slave_reg)
            slave.observe("align", 0.01)
            slave.observe("align", 0.02)
            master.merge_snapshot(slave_reg.snapshot())
        merged = LatencyStore(master)
        assert merged.count("align") == 4

    def test_from_metrics_roundtrip(self):
        store = LatencyStore()
        for v in (0.001, 0.01, 0.1, 1.0):
            store.observe("rtt", v)
        rebuilt = LatencyStore.from_metrics(store.registry.snapshot())
        assert rebuilt.count("rtt") == 4
        assert rebuilt.quantile("rtt", 0.99) == store.quantile("rtt", 0.99)

    def test_latency_records_only_observed_stages(self):
        store = LatencyStore()
        store.observe("align", 0.01)
        recs = latency_records(store)
        assert [r["stage"] for r in recs] == ["align"]
        rec = recs[0]
        assert rec["kind"] == "latency"
        assert rec["count"] == 1
        assert rec["p50"] <= rec["p90"] <= rec["p99"] <= rec["p999"]

    def test_buckets_span_microseconds_to_seconds(self):
        assert LATENCY_BUCKETS[0] == pytest.approx(1e-6)
        assert LATENCY_BUCKETS[-1] == pytest.approx(100.0)
        assert all(
            b > a for a, b in zip(LATENCY_BUCKETS, LATENCY_BUCKETS[1:])
        )


# --------------------------------------------------------------------- #
# zero cost when disabled


class TestDisabledTelemetry:
    def test_disabled_session_store_drops_observations(self):
        tel = Telemetry(enabled=False)
        tel.latency.observe("align", 1.0)
        assert tel.latency.count("align") == 0
        assert not tel.registry.histograms

    def test_enabled_session_lazily_creates_one(self):
        tel = Telemetry()
        store = tel.latency
        assert store is not None
        assert tel.latency is store  # cached, not rebuilt per access


# --------------------------------------------------------------------- #
# protocol-level stages (queue_master / rtt, engine-independent)


class TestMasterLogicLatency:
    def _msg(self, slave_id, pairs=(), pending=True):
        return SlaveMsg(
            slave_id=slave_id,
            results=(),
            pairs=tuple(pairs),
            exhausted=False,
            has_pending_results=pending,
        )

    def test_queue_master_measures_admission_to_dispatch(self):
        tel = Telemetry()
        store = tel.latency
        logic = MasterLogic(
            10, 1, batchsize=4, workbuf_capacity=100, telemetry=tel
        )
        pairs = tuple(_pair(0, i + 1) for i in range(4))
        # admitted and dispatched in the same reply → dwell 0; the next
        # message's pairs are admitted and dispatched at t=3.0 likewise.
        logic.on_message(self._msg(0, pairs), now=1.0)
        logic.on_message(
            self._msg(0, (_pair(5, 6), _pair(5, 7))), now=3.0
        )
        assert store.count("queue_master") == 4 + 2
        # every dwell is now - admission time, never negative
        assert store.total("queue_master") >= 0.0

    def test_rtt_observed_when_batch_retires(self):
        tel = Telemetry()
        store = tel.latency
        logic = MasterLogic(
            10, 1, batchsize=2, workbuf_capacity=100, telemetry=tel
        )
        logic.on_message(self._msg(0, (_pair(0, 1), _pair(0, 2))), now=1.0)
        logic.on_message(self._msg(0, (_pair(3, 4), _pair(3, 5))), now=2.0)
        # Third message retires the batch dispatched at t=1.0 (results
        # alternation: results cover every batch but the newest).
        logic.on_message(self._msg(0), now=4.5)
        assert store.count("rtt") == 1
        # the sum is exact (quantiles are bucket-interpolated, so assert
        # on the raw accumulator): dispatched at 1.0, absorbed at 4.5
        assert store.total("rtt") == pytest.approx(3.5)

    def test_slave_loss_requeues_and_restamps(self):
        tel = Telemetry()
        store = tel.latency
        logic = MasterLogic(
            10, 2, batchsize=2, workbuf_capacity=100, telemetry=tel
        )
        a, b = _pair(0, 1), _pair(0, 2)
        logic.on_message(self._msg(0, (a, b)), now=1.0)
        logic.slave_lost(0, now=5.0)
        # The grant comes back as WORKBUF entries stamped at the requeue.
        assert list(logic.workbuf) == [(a, NO_UNIT, 5.0), (b, NO_UNIT, 5.0)]
        assert 0 not in logic.in_flight
        # Their dwell is measured from the requeue, not the admission.
        reply = logic.on_message(self._msg(1), now=6.0)
        assert list(reply.work) == [a, b]
        assert store.count("queue_master") == 4
        assert store.total("queue_master") == pytest.approx(2.0)

    def test_mirrors_stay_aligned_through_defer_and_drop(self):
        """Wave dispatch takes pairs out of the middle of WORKBUF: a
        deferred entry must keep its admission stamp and work unit, a
        dropped one must settle its unit as pruned at dispatch."""
        from repro.align.scoring import AlignmentResult, OverlapPattern
        from repro.telemetry.causal import check_conservation

        tel = Telemetry(causal=True)
        store = tel.latency
        logic = MasterLogic(
            10, 2, batchsize=2, workbuf_capacity=100, telemetry=tel
        )
        a, b, c, d, e = (
            _pair(0, 1), Pair(11, 0, 0, 2, 0), _pair(2, 3), _pair(4, 5), _pair(6, 7)
        )

        def msg(slave_id, pairs, units, results=()):
            return SlaveMsg(
                slave_id=slave_id, results=results, pairs=pairs,
                exhausted=False, has_pending_results=True, pair_units=units,
            )

        # b repeats a's ESTs: deferred behind it; d is left when the wave fills.
        reply = logic.on_message(msg(0, (a, b, c, d), (7, 7, 8, 8)), now=1.0)
        assert list(reply.work) == [a, c] and reply.work_units == (7, 8)
        assert list(logic.workbuf) == [(b, 7, 1.0), (d, 8, 1.0)]
        # Slave 1: b still waits on slave 0's batch, d and e go out.
        reply = logic.on_message(msg(1, (e,), (9,)), now=2.0)
        assert list(reply.work) == [d, e] and reply.work_units == (8, 9)
        assert list(logic.workbuf) == [(b, 7, 1.0)]
        assert store.count("queue_master") == 4
        assert store.total("queue_master") == pytest.approx(1.0)  # d waited
        # a is accepted: b is now redundant and dropped at the next dispatch.
        res = AlignmentResult(20.0, 0, 10, 0, 10, OverlapPattern.A_CONTAINS_B, 0)
        logic.on_message(msg(0, (), (), results=((a, res, True),)), now=3.0)
        assert not logic.workbuf
        assert logic.stats.pairs_pruned == 1
        assert store.count("queue_master") == 4  # a dropped pair never dwelt
        pruned = [r for r in tel.events if r["event"] == "pruned"]
        assert [(r["unit"], r["n"], r["reason"]) for r in pruned] == [
            (7, 1, "dispatch")
        ]
        # Unit 7: 2 admitted == 1 dispatched (still in flight) + 1 pruned.
        ledger = check_conservation(tel.events).ledgers[7]
        assert ledger.workbuf_leftover == 0 and ledger.flight_leftover == 1


# --------------------------------------------------------------------- #
# cross-engine parity (acceptance: sim and mp stage sets identical)


@pytest.fixture(scope="module")
def engine_stores(small_benchmark, small_config):
    """Latency stores from all three engines on the same input."""
    stores = {}
    for machine in ("simulated", "multiprocessing"):
        tel = Telemetry()
        run_parallel(
            small_benchmark.collection,
            small_config,
            n_processors=4,
            machine=machine,
            telemetry=tel,
        )
        stores[machine] = tel.latency
    tel = Telemetry()
    PaceClusterer(small_config).cluster(
        small_benchmark.collection, telemetry=tel
    )
    stores["sequential"] = tel.latency
    return stores


class TestCrossEngineParity:
    def test_sim_and_mp_stage_sets_identical(self, engine_stores):
        sim = set(engine_stores["simulated"].stages())
        mp = set(engine_stores["multiprocessing"].stages())
        assert sim == mp == set(STAGES)

    def test_sequential_reports_the_documented_subset(self, engine_stores):
        assert set(engine_stores["sequential"].stages()) == set(
            SEQUENTIAL_STAGES
        )

    def test_all_engines_report_finite_tail_quantiles(self, engine_stores):
        for name, store in engine_stores.items():
            for stage in store.stages():
                for q in (0.5, 0.99, 0.999):
                    value = store.quantile(stage, q)
                    assert math.isfinite(value) and value >= 0.0, (
                        name,
                        stage,
                        q,
                    )

    def test_quantiles_ordered_per_stage(self, engine_stores):
        for store in engine_stores.values():
            for stage, rec in store.breakdown().items():
                assert (
                    rec["p50"] <= rec["p90"] <= rec["p99"] <= rec["p999"]
                ), stage


# --------------------------------------------------------------------- #
# latency summary records and the schema


def _run_sim_records(small_benchmark, small_config):
    tel = Telemetry()
    run_parallel(
        small_benchmark.collection,
        small_config,
        n_processors=4,
        machine="simulated",
        telemetry=tel,
    )
    return snapshot_records(
        tel.snapshot(engine="simulated", n_processors=4, clock="virtual")
    )


@pytest.fixture(scope="module")
def sim_records(small_benchmark, small_config):
    return _run_sim_records(small_benchmark, small_config)


class TestSchemaV3:
    def test_version_and_acceptance(self):
        assert SCHEMA_VERSION == "repro-telemetry/4"
        assert ACCEPTED_SCHEMAS == {"repro-telemetry/4"}

    def test_v3_snapshot_validates_and_roundtrips(self, sim_records):
        assert validate_records(sim_records) == []
        # JSON round trip (what export_jsonl/load_jsonl do)
        recycled = [json.loads(json.dumps(r)) for r in sim_records]
        assert validate_records(recycled) == []
        kinds = {r["kind"] for r in recycled}
        assert "latency" in kinds
        stages = {r["stage"] for r in recycled if r["kind"] == "latency"}
        assert stages == set(STAGES)

    def test_v3_meta_carries_origin(self, sim_records):
        assert "origin" in sim_records[0]

    def test_older_revs_rejected(self):
        for rev in ("repro-telemetry/1", "repro-telemetry/2", "repro-telemetry/3"):
            records = [
                {"kind": "meta", "schema": rev, "engine": "simulated",
                 "total_time": 1.0},
                {"kind": "metric", "metric": "counter", "name": "x",
                 "value": 1},
            ]
            problems = validate_records(records)
            assert len(problems) == 1
            assert "unknown schema" in problems[0] and rev in problems[0]

    def test_unordered_quantiles_rejected(self):
        records = [
            {"kind": "meta", "schema": SCHEMA_VERSION, "total_time": 1.0},
            {"kind": "latency", "stage": "align", "count": 3, "sum": 0.3,
             "mean": 0.1, "p50": 0.2, "p90": 0.1, "p99": 0.3, "p999": 0.4},
        ]
        problems = validate_records(records)
        assert any("not ordered" in p for p in problems)

    def test_stageless_latency_record_rejected(self):
        records = [
            {"kind": "meta", "schema": SCHEMA_VERSION, "total_time": 1.0},
            {"kind": "latency", "count": 1, "sum": 0.1, "mean": 0.1,
             "p50": 0.1, "p90": 0.1, "p99": 0.1, "p999": 0.1},
        ]
        problems = validate_records(records)
        assert any("without a stage" in p for p in problems)


# --------------------------------------------------------------------- #
# analyze / diff


@pytest.fixture(scope="module")
def reference_records():
    from pathlib import Path

    from repro.telemetry import load_jsonl

    path = Path(__file__).parent / "data" / "reference_trace.jsonl"
    return load_jsonl(path)


class TestAnalyze:
    def test_reference_trace_validates(self, reference_records):
        assert validate_records(reference_records) == []

    def test_names_critical_path_and_imbalance(self, reference_records):
        text = analyze_trace(reference_records)
        assert "critical path: align" in text
        assert "imbalance" in text
        assert "slave load: 3 slaves" in text
        for stage in STAGES:
            assert stage in text

    def test_stage_table_reads_latency_records_only(self, reference_records):
        assert list(stage_table(reference_records)) == list(STAGES)
        stripped = [
            r for r in reference_records if r.get("kind") != "latency"
        ]
        assert stage_table(stripped) == {}
        assert "no work-unit latency data" in analyze_trace(stripped)

    def test_store_from_records_matches_table(self, reference_records):
        store = store_from_records(reference_records)
        table = stage_table(reference_records)
        for stage in store.stages():
            assert store.count(stage) == table[stage]["count"]

    def test_analyze_total_on_empty_trace(self):
        text = analyze_trace(
            [{"kind": "meta", "schema": SCHEMA_VERSION, "total_time": 0.0}]
        )
        assert "no work-unit latency data" in text


class TestDiff:
    def test_self_diff_reports_zero_regressions(self, reference_records):
        report, regressions = diff_traces(
            reference_records, reference_records
        )
        assert regressions == 0
        assert "no regressions" in report

    def test_inflated_p99_detected(self, reference_records):
        doctored = []
        for rec in reference_records:
            if rec.get("kind") == "latency" and rec["stage"] == "align":
                rec = dict(rec)
                rec["p99"] = rec["p99"] * 10
                rec["p999"] = max(rec["p999"], rec["p99"])
            doctored.append(rec)
        report, regressions = diff_traces(reference_records, doctored)
        assert regressions >= 1
        assert "REGRESSION" in report

    def test_small_jitter_below_threshold_passes(self, reference_records):
        jittered = []
        for rec in reference_records:
            if rec.get("kind") == "latency":
                rec = {
                    k: (v * 1.05 if isinstance(v, float) else v)
                    for k, v in rec.items()
                }
            jittered.append(rec)
        _report, regressions = diff_traces(
            reference_records, jittered, threshold=0.25
        )
        assert regressions == 0

    def test_disjoint_stage_sets_noted_not_counted(self):
        meta = {"kind": "meta", "schema": SCHEMA_VERSION, "total_time": 1.0}
        a = [meta, {"kind": "latency", "stage": "align", "count": 1,
                    "sum": 0.1, "mean": 0.1, "p50": 0.1, "p90": 0.1,
                    "p99": 0.1, "p999": 0.1}]
        b = [meta]
        report, regressions = diff_traces(a, b)
        assert regressions == 0
        assert "only in baseline" in report


class TestCli:
    def test_analyze_and_diff_commands(self, tmp_path, reference_records):
        from pathlib import Path

        from repro.cli import main

        ref = str(Path(__file__).parent / "data" / "reference_trace.jsonl")
        assert main(["analyze", ref]) == 0
        assert main(["diff", ref, ref]) == 0

        doctored = tmp_path / "doctored.jsonl"
        lines = []
        for rec in reference_records:
            if rec.get("kind") == "latency":
                rec = dict(rec)
                for q in ("mean", "p50", "p90", "p99", "p999"):
                    rec[q] = rec[q] * 10
                rec["sum"] = rec["sum"] * 10
            lines.append(json.dumps(rec))
        doctored.write_text("\n".join(lines) + "\n")
        assert main(["diff", ref, str(doctored)]) == 1
        # regression direction matters: a *faster* candidate passes
        assert main(["diff", str(doctored), ref]) == 0


# --------------------------------------------------------------------- #
# /metrics rendering (satellite: histogram quantile gauges)


class TestPrometheusQuantiles:
    def test_latency_histograms_render_tail_gauges(self):
        from repro.telemetry import LiveRunState, render_prometheus

        reg = MetricsRegistry()
        store = LatencyStore(reg)
        for v in (0.001, 0.01, 0.1):
            store.observe("rtt", v)
        reg.observe("align.band_width", 12.0, (8.0, 16.0))
        text = render_prometheus(LiveRunState(2), reg.histograms)
        assert "pace_latency_rtt_seconds_count 3" in text
        assert "pace_latency_rtt_seconds_p50 " in text
        assert "pace_latency_rtt_seconds_p99 " in text
        assert "pace_latency_rtt_seconds_p999 " in text
        # non-latency histograms get count/sum/p50/p99 but no p999
        assert "pace_align_band_width_p50 " in text
        assert "pace_align_band_width_p999" not in text
        assert "NaN" not in text

    def test_empty_histograms_skipped(self):
        from repro.telemetry import LiveRunState, render_prometheus

        reg = MetricsRegistry()
        reg.histogram("latency.rtt.seconds", LATENCY_BUCKETS)  # no samples
        text = render_prometheus(LiveRunState(2), reg.histograms)
        assert "pace_latency_rtt_seconds" not in text
