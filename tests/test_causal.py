"""Causal work-unit tracing, Perfetto export, flight recorder, postmortem.

Covers the observability stack end to end: unit-id encoding, the
conservation ledger (orphans, double absorbs, requeue storms), causal
event streams from all three engines (including survival across injected
crashes and requeues), sim-vs-mp parity on the deterministic projections,
Chrome-trace JSON shape, flight-recorder dump semantics, tolerant JSONL
loading, the postmortem reconstruction, and the `--obs-out` CLI fan-out.
"""

from __future__ import annotations

import json
import signal
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.core import ClusteringConfig, PaceClusterer
from repro.parallel import (
    FaultPlan,
    FaultSpec,
    FaultTolerance,
    cluster_multiprocessing,
    run_parallel,
    simulate_clustering,
)
from repro.telemetry import (
    SCHEMA_VERSION,
    FlightRecorder,
    Telemetry,
    UnitMinter,
    build_postmortem,
    check_conservation,
    chrome_trace,
    collect_run_sources,
    export_chrome_trace,
    export_jsonl,
    format_unit,
    load_jsonl,
    validate_records,
)
from repro.telemetry.analyze import conservation_section
from repro.telemetry.causal import (
    CAUSAL_EVENTS,
    MAX_INCARNATION,
    REQUEUE_STORM_THRESHOLD,
    unit_parts,
)
from repro.telemetry.flight import DEFAULT_CAPACITY

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


def causal_records(snapshot) -> list[dict]:
    return [r for r in snapshot.events if r.get("kind") == "causal"]


def event_totals(records: list[dict]) -> dict[str, int]:
    """Pairs per event, plus ``pruned:<reason>`` per prune reason."""
    totals: dict[str, int] = {}
    for rec in records:
        keys = [rec["event"]]
        if rec["event"] == "pruned":
            keys.append(f"pruned:{rec.get('reason')}")
        for key in keys:
            totals[key] = totals.get(key, 0) + int(rec["n"])
    return totals


# --------------------------------------------------------------------- #
# unit ids
# --------------------------------------------------------------------- #


class TestUnitIds:
    def test_mint_decode_round_trip(self):
        for origin in (-1, 0, 3, 200):
            for inc in (0, 1, 7):
                mint = UnitMinter(origin, inc)
                for seq in range(3):
                    assert unit_parts(mint()) == (origin, inc, seq)

    def test_incarnations_never_collide(self):
        a = {UnitMinter(2, 0)() for _ in range(100)}
        b = {UnitMinter(2, 1)() for _ in range(100)}
        m = {UnitMinter(-1)() for _ in range(100)}
        assert not (a & b) and not (a & m) and not (b & m)

    def test_format(self):
        assert format_unit(UnitMinter(3, 1)()) == "s3.1:0"
        mint = UnitMinter(-1)
        mint()
        assert format_unit(mint()) == "m:1"

    def test_rejects_bad_origin_and_incarnation(self):
        with pytest.raises(ValueError):
            UnitMinter(-2)
        with pytest.raises(ValueError):
            UnitMinter(0, -1)
        # The incarnation has 8 bits: one more would mint incarnation 0's ids.
        assert unit_parts(UnitMinter(0, MAX_INCARNATION)()) == (0, 255, 0)
        with pytest.raises(ValueError, match="incarnation"):
            UnitMinter(0, MAX_INCARNATION + 1)

    def test_config_rejects_traced_shards_past_the_unit_id(self):
        # Recovery units carry the shard index as their incarnation.
        ClusteringConfig(master_shards=MAX_INCARNATION + 1, causal_tracing=True)
        ClusteringConfig(master_shards=300)  # untraced: no unit ids minted
        with pytest.raises(ValueError, match="at most 256 master shards"):
            ClusteringConfig(master_shards=300, causal_tracing=True)

    def test_tolerance_rejects_restarts_past_the_unit_id(self):
        # A replacement slave mints under its restart count.
        FaultTolerance(max_restarts=MAX_INCARNATION)
        with pytest.raises(ValueError, match="max_restarts"):
            FaultTolerance(max_restarts=1000)


# --------------------------------------------------------------------- #
# the conservation ledger
# --------------------------------------------------------------------- #


def _rec(event, unit, n, *, ts=0.0, slave=None, reason=None):
    rec = {"kind": "causal", "event": event, "unit": unit, "n": n,
           "actor": "master", "ts": ts}
    if slave is not None:
        rec["slave"] = slave
    if reason is not None:
        rec["reason"] = reason
    return rec


class TestConservation:
    def test_balanced_unit_passes(self):
        unit = UnitMinter(0)()
        report = check_conservation([
            _rec("generated", unit, 10),
            _rec("admitted", unit, 6),
            _rec("pruned", unit, 4, reason="admission"),
            _rec("dispatched", unit, 6, slave=0),
            _rec("absorbed", unit, 6, slave=0),
        ])
        assert report.ok()
        assert not report.orphans and not report.in_flight
        assert report.total_admitted == report.total_absorbed == 6

    def test_requeue_cancels_out_of_headline(self):
        unit = UnitMinter(0)()
        report = check_conservation([
            _rec("admitted", unit, 6),
            _rec("dispatched", unit, 6, slave=0),
            _rec("requeued", unit, 6),
            _rec("dispatched", unit, 6, slave=1),
            _rec("absorbed", unit, 6, slave=1),
        ])
        assert report.ok()
        assert report.total_admitted == report.total_absorbed == 6

    def test_never_admitted_unit_is_orphan(self):
        unit = UnitMinter(1)()
        report = check_conservation([
            _rec("dispatched", unit, 5, slave=1),
            _rec("absorbed", unit, 5, slave=1),
        ])
        assert not report.ok()
        assert any("never admitted" in msg for msg in report.orphans)

    def test_double_absorb_is_error(self):
        unit = UnitMinter(0)()
        report = check_conservation([
            _rec("admitted", unit, 4),
            _rec("dispatched", unit, 4, slave=0),
            _rec("absorbed", unit, 4, slave=0),
            _rec("absorbed", unit, 4, slave=0),
        ])
        assert not report.ok()
        assert any("double absorb" in msg for msg in report.orphans)

    def test_in_flight_reported_and_gated(self):
        unit = UnitMinter(0)()
        report = check_conservation([
            _rec("admitted", unit, 8),
            _rec("dispatched", unit, 8, slave=2),
        ])
        assert report.in_flight == {unit: 8}
        assert not report.ok()  # a completed run must balance
        assert report.ok(allow_in_flight=True)  # a crashed run may not
        lines = report.lines(allow_in_flight=True)
        assert any("slave 2" in line for line in lines)

    def test_workbuf_leftover_counts_as_in_flight(self):
        unit = UnitMinter(0)()
        report = check_conservation([
            _rec("admitted", unit, 8),
            _rec("dispatched", unit, 3, slave=0),
            _rec("absorbed", unit, 3, slave=0),
        ])
        assert report.in_flight == {unit: 5}
        assert any(
            "WORKBUF" in line for line in report.lines(allow_in_flight=True)
        )

    def test_requeue_storm_flagged(self):
        unit = UnitMinter(0)()
        events = [_rec("admitted", unit, 2)]
        for k in range(REQUEUE_STORM_THRESHOLD):
            events.append(_rec("dispatched", unit, 2, slave=k))
            events.append(_rec("requeued", unit, 2))
        events.append(_rec("dispatched", unit, 2, slave=0))
        events.append(_rec("absorbed", unit, 2, slave=0))
        report = check_conservation(events)
        assert report.ok()
        assert report.storms == {unit: REQUEUE_STORM_THRESHOLD}
        assert any("requeue storm" in line for line in report.lines())

    def test_non_causal_records_ignored(self):
        report = check_conservation([
            {"kind": "trace", "event": "send", "ts": 0.0},
            {"kind": "metric", "name": "x"},
        ])
        assert report.ok() and not report.ledgers

    def test_conservation_section_empty_without_ledgers(self):
        lines, errors = conservation_section([{"kind": "trace"}])
        assert lines == [] and errors == 0

    def test_conservation_section_counts_errors(self):
        unit = UnitMinter(0)()
        lines, errors = conservation_section([
            _rec("admitted", unit, 8),
            _rec("dispatched", unit, 8, slave=2),
        ])
        assert errors == 1
        assert any("FAIL" in line for line in lines)


# --------------------------------------------------------------------- #
# engine streams
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def causal_config(request):
    config = request.getfixturevalue("small_config")
    return replace(config, causal_tracing=True)


class TestEngineStreams:
    def test_sequential_stream_balances(self, small_benchmark, causal_config):
        tel = Telemetry()
        result = PaceClusterer(causal_config).cluster(
            small_benchmark.collection, telemetry=tel
        )
        records = causal_records(result.telemetry)
        assert records, "sequential run recorded no causal events"
        assert {r["event"] for r in records} <= CAUSAL_EVENTS
        report = check_conservation(records)
        assert report.ok(), report.lines()
        # Master-minted units only: the sequential driver is its own slave.
        assert all(unit_parts(r["unit"])[0] == -1 for r in records)

    def test_sequential_ledger_counts_what_the_loop_did(self):
        """On six identical reads every pair is promising but five
        alignments make one cluster: the ledger's absorbed pairs are the
        aligned ones and its pruned pairs the skipped ones, exactly."""
        import numpy as np

        from repro.sequence import EstCollection

        read = np.random.default_rng(6).integers(0, 4, size=300, dtype=np.uint8)
        col = EstCollection([read.copy() for _ in range(6)])
        tel = Telemetry()
        result = PaceClusterer(ClusteringConfig(causal_tracing=True)).cluster(
            col, telemetry=tel
        )
        c = result.counters
        assert (c.pairs_generated, c.pairs_processed) == (15, 5)
        records = causal_records(result.telemetry)
        totals = event_totals(records)
        assert totals["admitted"] == c.pairs_generated
        assert totals["absorbed"] == c.pairs_processed
        assert totals["pruned"] == c.pairs_skipped
        report = check_conservation(records)
        assert report.ok(), report.lines()  # strict: nothing in flight

    def test_sim_clean_run_balances(self, small_benchmark, causal_config):
        tel = Telemetry()
        report = simulate_clustering(
            small_benchmark.collection, causal_config,
            n_processors=4, telemetry=tel,
        )
        records = causal_records(report.result.telemetry)
        cons = check_conservation(records)
        assert cons.ok(), cons.lines()
        totals = event_totals(records)
        # Without faults or shards an admitted pair leaves WORKBUF one of
        # two ways: dispatched (then absorbed) or found co-clustered when
        # a wave is chosen.
        assert totals["pruned"] == (
            totals["pruned:admission"] + totals.get("pruned:dispatch", 0)
        )
        assert totals["admitted"] == (
            totals["dispatched"] + totals.get("pruned:dispatch", 0)
        )
        assert totals["dispatched"] == totals["absorbed"]

    def test_disabled_config_emits_no_causal_records(
        self, small_benchmark, small_config
    ):
        tel = Telemetry()
        report = simulate_clustering(
            small_benchmark.collection, small_config,
            n_processors=4, telemetry=tel,
        )
        assert not causal_records(report.result.telemetry)

    def test_sim_units_survive_crash_and_requeue(
        self, small_benchmark, causal_config
    ):
        faults = FaultPlan.of(
            FaultSpec(slave_id=0, kind="kill_after_send", at_message=1),
        )
        tel = Telemetry()
        report = simulate_clustering(
            small_benchmark.collection, causal_config,
            n_processors=4, faults=faults,
            tolerance=FaultTolerance(max_restarts=1, detection_delay=0.1),
            telemetry=tel,
        )
        records = causal_records(report.result.telemetry)
        cons = check_conservation(records)
        assert cons.ok(), cons.lines()
        # The kill happened after work was dispatched to slave 0, so its
        # in-flight units were requeued or requeue-pruned — and every one
        # of them still settled (conservation PASS above proves it).
        totals = event_totals(records)
        assert totals.get("requeued", 0) + totals.get("pruned", 0) > 0
        requeued_units = {
            r["unit"] for r in records if r["event"] == "requeued"
        }
        for unit in requeued_units:
            led = cons.ledgers[unit]
            assert led.in_flight == 0
        # Identical clusters to the sequential run, fault or no fault.
        seq = PaceClusterer(causal_config).cluster(small_benchmark.collection)
        assert report.result.clusters == seq.clusters

    def test_sim_vs_mp_parity_on_deterministic_projections(
        self, small_benchmark, causal_config
    ):
        """Generation is deterministic, asynchrony is not: the engines
        must agree on total pairs generated and on admitted plus pruned at
        admission (every offered pair meets exactly one of those fates),
        while the split may differ with real timing."""
        with hard_deadline():
            sim_tel, mp_tel = Telemetry(), Telemetry()
            sim = run_parallel(
                small_benchmark.collection, causal_config,
                n_processors=4, machine="simulated", telemetry=sim_tel,
            )
            mp = run_parallel(
                small_benchmark.collection, causal_config,
                n_processors=4, machine="multiprocessing", telemetry=mp_tel,
            )
        sim_totals = event_totals(causal_records(sim.telemetry))
        mp_totals = event_totals(causal_records(mp.telemetry))
        assert sim_totals["generated"] == mp_totals["generated"]
        assert (
            sim_totals["admitted"] + sim_totals["pruned:admission"]
            == mp_totals["admitted"] + mp_totals["pruned:admission"]
        )
        for totals in (sim_totals, mp_totals):
            assert totals["admitted"] == (
                totals["absorbed"] + totals.get("pruned:dispatch", 0)
            )
        for snapshot in (sim.telemetry, mp.telemetry):
            cons = check_conservation(causal_records(snapshot))
            assert cons.ok(), cons.lines()
        assert sim.clusters == mp.clusters


# --------------------------------------------------------------------- #
# Perfetto export
# --------------------------------------------------------------------- #


class TestChromeTrace:
    @pytest.fixture(scope="class")
    def sim_trace_records(self, request):
        benchmark = request.getfixturevalue("small_benchmark")
        config = replace(
            request.getfixturevalue("small_config"), causal_tracing=True
        )
        tel = Telemetry()
        report = simulate_clustering(
            benchmark.collection, config, n_processors=4, telemetry=tel,
        )
        from repro.telemetry import snapshot_records

        return snapshot_records(report.result.telemetry)

    def test_shape_is_chrome_trace_json(self, sim_trace_records, tmp_path):
        path = tmp_path / "trace.perfetto.json"
        n = export_chrome_trace(sim_trace_records, path)
        payload = json.loads(path.read_text())
        assert isinstance(payload, dict)
        events = payload["traceEvents"]
        assert len(events) == n > 0
        for ev in events:
            assert isinstance(ev["name"], str)
            assert ev["ph"] in {"M", "X", "i", "s", "t", "f"}
            assert isinstance(ev["pid"], int)
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], (int, float))
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_metadata_names_every_actor(self, sim_trace_records):
        payload = chrome_trace(sim_trace_records)
        named = {
            ev["args"]["name"]
            for ev in payload["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert "master" in named
        assert any(name.startswith("slave") for name in named)

    def test_flow_arrows_bind_dispatch_to_absorb(self, sim_trace_records):
        payload = chrome_trace(sim_trace_records)
        flows: dict[str, set[str]] = {"s": set(), "t": set(), "f": set()}
        for ev in payload["traceEvents"]:
            if ev["ph"] in flows:
                flows[ev["ph"]].add(ev["id"])
        assert flows["s"], "no flow starts in a causal-traced run"
        # Every finish closes a started flow; steps only appear on them.
        assert flows["f"] <= flows["s"]
        assert flows["t"] <= flows["s"]
        assert flows["f"]

    def test_causal_slices_use_causal_categories(self, sim_trace_records):
        payload = chrome_trace(sim_trace_records)
        cats = {
            ev.get("cat", "")
            for ev in payload["traceEvents"]
            if ev["ph"] == "X"
        }
        assert any(cat.startswith("causal.") for cat in cats)
        assert "machine" in cats

    def test_accepts_file_like_and_path_str(self, sim_trace_records, tmp_path):
        import io

        buf = io.StringIO()
        n1 = export_chrome_trace(sim_trace_records, buf)
        n2 = export_chrome_trace(
            sim_trace_records, str(tmp_path / "out.json")
        )
        assert n1 == n2
        assert json.loads(buf.getvalue())["traceEvents"]


# --------------------------------------------------------------------- #
# flight recorder
# --------------------------------------------------------------------- #


def _tail_lines(report: str) -> list[str]:
    """The timeline-tail lines of a postmortem report."""
    return report.split("timeline tail")[1].splitlines()[1:]


class TestFlightRecorder:
    def test_ring_is_bounded(self, tmp_path):
        tel = Telemetry(enabled=False)
        rec = FlightRecorder(str(tmp_path), "slave0", tel)
        for k in range(DEFAULT_CAPACITY + 10):
            tel.trace("send", "slave0", float(k))
        assert len(tel.events) == DEFAULT_CAPACITY
        records = load_jsonl(rec.dump("crash"))
        assert len(records) == 1 + DEFAULT_CAPACITY
        assert records[1]["ts"] == 10.0

    def test_enabled_session_dumps_its_newest_events(self, tmp_path):
        tel = Telemetry()
        rec = FlightRecorder(str(tmp_path), "master", tel)
        for k in range(DEFAULT_CAPACITY + 10):
            tel.trace("recv", "master", float(k))
        assert len(tel.events) == DEFAULT_CAPACITY + 10  # keeps them all
        records = load_jsonl(rec.dump("crash"))
        assert [r["ts"] for r in records[1:]] == [
            float(k) for k in range(10, DEFAULT_CAPACITY + 10)
        ]

    def test_disabled_session_without_recorder_keeps_nothing(self):
        tel = Telemetry(enabled=False)
        tel.trace("send", "slave0", 1.0)
        with tel.span("alignment"):
            pass
        assert not tel.events

    def test_dump_and_load_round_trip(self, tmp_path):
        tel = Telemetry(enabled=False)
        rec = FlightRecorder(
            str(tmp_path), "slave3", tel, run_id="r1",
            state_provider=lambda: {"pairbuf_depth": 7},
        )
        with tel.span("sort_nodes", actor="slave3"):
            tel.trace("send", "slave3", tel.now(), detail="to master")
        path = rec.dump("crash")
        assert path == str(tmp_path / "flight-slave3.jsonl")
        records = load_jsonl(path)
        assert validate_records(records) == []
        meta = records[0]
        assert meta["schema"] == SCHEMA_VERSION
        assert meta["stream"] == "flight"
        assert meta["actor"] == "slave3"
        assert meta["run_id"] == "r1"
        assert meta["reason"] == "crash"
        assert meta["state"] == {"pairbuf_depth": 7}
        assert 0.0 <= records[1]["ts"] <= meta["dumped_at"]
        assert [r["kind"] for r in records[1:]] == [
            "span_start", "trace", "span_end"
        ]

    def test_dump_cuts_spans_open_and_still_validates(self, tmp_path):
        tel = Telemetry(enabled=False)
        rec = FlightRecorder(str(tmp_path), "master", tel)
        with tel.span("alignment"):
            records = load_jsonl(rec.dump("crash"))
        assert [r["kind"] for r in records[1:]] == ["span_start"]
        assert validate_records(records) == []

    def test_first_dump_wins_unless_forced(self, tmp_path):
        rec = FlightRecorder(str(tmp_path), "master", Telemetry(enabled=False))
        assert rec.dump("crash") is not None
        assert rec.dump("sigterm") is None
        assert load_jsonl(rec.path)[0]["reason"] == "crash"
        assert rec.dump("fault-transition", force=True) is not None
        assert load_jsonl(rec.path)[0]["reason"] == "fault-transition"

    def test_half_written_dump_is_skipped_not_raised(self, tmp_path):
        (tmp_path / "flight-slave0.jsonl").write_text(
            '{"kind": "meta", "schema": "repro-telemetry/4", '
            '"stream": "flight", "actor": "slave0"}\n{"kind": "trace", '
        )
        FlightRecorder(str(tmp_path), "slave1", Telemetry(enabled=False)).dump(
            "crash"
        )
        with pytest.warns(UserWarning, match="truncated final line"):
            src = collect_run_sources(str(tmp_path))
        assert [dump[0]["actor"] for dump in src.flight_dumps] == [
            "slave0", "slave1"
        ]
        assert not src.records and not src.errors

    def test_merge_orders_events_and_tags_actors(self, tmp_path):
        a_tel, b_tel = Telemetry(enabled=False), Telemetry(enabled=False)
        a = FlightRecorder(str(tmp_path), "slave0", a_tel)
        b = FlightRecorder(str(tmp_path), "slave1", b_tel)
        a_tel.trace("send", "slave0", 2.0, detail="to master")
        b_tel.trace("recv", "slave1", 1.0, detail="reply from master")
        a.dump("crash")
        b.dump("crash")
        report, _ = build_postmortem(tmp_path)
        tail = _tail_lines(report)
        assert len(tail) == 2
        assert "slave1   recv reply from master" in tail[0]
        assert "slave0   send to master" in tail[1]

    def test_event_in_trace_and_dump_is_one_timeline_line(self, tmp_path):
        tel = Telemetry()
        rec = FlightRecorder(str(tmp_path), "master", tel)
        tel.trace("fault", "slave0", 0.5, detail="lost (crash or timeout)")
        rec.dump("fault-transition")
        export_jsonl(tel.snapshot(total_time=1.0), tmp_path / "trace.jsonl")
        report, _ = build_postmortem(tmp_path)
        assert len(_tail_lines(report)) == 1

    def test_dump_survives_unwritable_directory(self, tmp_path):
        rec = FlightRecorder(
            str(tmp_path / "not" / "a" / "file.txt"), "x", Telemetry(enabled=False)
        )
        (tmp_path / "not").write_text("blocked")  # makedirs will fail
        assert rec.dump("crash") is None  # never raises


# --------------------------------------------------------------------- #
# tolerant JSONL loading
# --------------------------------------------------------------------- #


class TestTolerantLoad:
    def test_truncated_final_line_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"kind": "meta", "schema": "repro-telemetry/4"}\n'
            '{"kind": "trace", "event": "send", "actor": "master", "ts": 1.0}\n'
            '{"kind": "trace", "event": "re'  # the crash took the rest
        )
        with pytest.warns(UserWarning, match="truncated final line"):
            records = load_jsonl(path, tolerant=True)
        assert len(records) == 2

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"kind": "meta"}\n'
            "garbage\n"
            '{"kind": "trace", "event": "send", "actor": "m", "ts": 1.0}\n'
        )
        with pytest.raises(ValueError):
            load_jsonl(path, tolerant=True)

    def test_strict_mode_raises_on_truncation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "meta"}\n{"kind": ')
        with pytest.raises(ValueError):
            load_jsonl(path)


# --------------------------------------------------------------------- #
# the acceptance scenario: faulted sharded mp run, end to end
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def faulted_obs_run(request, tmp_path_factory):
    """One faulted 4-slave 2-shard mp run with the full observability
    stack armed: causal tracing, flight recorders, telemetry JSONL."""
    benchmark = request.getfixturevalue("small_benchmark")
    obs_dir = tmp_path_factory.mktemp("obs")
    config = replace(
        request.getfixturevalue("small_config"),
        causal_tracing=True,
        flight_dir=str(obs_dir),
        master_shards=2,
    )
    faults = FaultPlan.of(
        FaultSpec(slave_id=0, kind="kill_after_send", at_message=1),
        FaultSpec(slave_id=2, kind="kill", at_message=2, incarnation=None),
    )
    tel = Telemetry()
    with hard_deadline():
        result = cluster_multiprocessing(
            benchmark.collection, config,
            n_processors=5, faults=faults,
            tolerance=FaultTolerance(
                slave_timeout=15.0, poll_interval=0.05, max_restarts=1
            ),
            telemetry=tel,
        )
    export_jsonl(result.telemetry, obs_dir / "trace.jsonl")
    return benchmark, config, obs_dir, result


class TestFaultedShardedRun:
    def test_clusters_match_sequential(self, faulted_obs_run):
        benchmark, config, _, result = faulted_obs_run
        seq = PaceClusterer(config).cluster(benchmark.collection)
        assert result.clusters == seq.clusters

    def test_conservation_passes(self, faulted_obs_run):
        _, _, obs_dir, _ = faulted_obs_run
        records = load_jsonl(obs_dir / "trace.jsonl", tolerant=True)
        assert not validate_records(records)
        cons = check_conservation(records)
        assert cons.ok(), cons.lines()

    def test_analyze_strict_conservation_is_clean(self, faulted_obs_run, capsys):
        from repro.cli import main

        _, _, obs_dir, _ = faulted_obs_run
        rc = main(["analyze", str(obs_dir / "trace.jsonl"), "--strict-conservation"])
        assert rc == 0, capsys.readouterr().out

    def test_flight_dump_per_dead_slave(self, faulted_obs_run):
        _, _, obs_dir, _ = faulted_obs_run
        dumps = {}
        for path in obs_dir.glob("flight-*.jsonl"):
            records = load_jsonl(path)
            assert validate_records(records) == [], path.name
            dumps[records[0]["actor"]] = records[0]
        assert dumps["slave0"]["reason"] == "injected-kill"
        assert dumps["slave2"]["reason"] == "injected-kill"
        # The master dumped on the fault transition, carrying its view of
        # the in-flight units the dead slaves were holding.
        master = dumps["master"]
        assert master["reason"] == "fault-transition"
        assert "in_flight_units" in master["state"]

    def test_perfetto_export_loads(self, faulted_obs_run, tmp_path):
        _, _, obs_dir, _ = faulted_obs_run
        records = load_jsonl(obs_dir / "trace.jsonl", tolerant=True)
        out = tmp_path / "timeline.perfetto.json"
        n = export_chrome_trace(records, out)
        payload = json.loads(out.read_text())
        assert len(payload["traceEvents"]) == n
        # Shards render as their own tracks.
        named = {
            ev["args"]["name"]
            for ev in payload["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert {"shard0", "shard1"} <= named

    def test_postmortem_names_lost_slaves(self, faulted_obs_run):
        _, _, obs_dir, _ = faulted_obs_run
        report, ok = build_postmortem(obs_dir)
        assert ok, report
        assert "slave2" in report
        assert "injected-kill" in report
        assert "conservation: PASS" in report

    def test_postmortem_on_truncated_run_reports_in_flight(
        self, faulted_obs_run, tmp_path
    ):
        """Cut the trace off mid-run (as a dead master would) and the
        postmortem must degrade to naming what was still in flight."""
        _, _, obs_dir, _ = faulted_obs_run
        records = load_jsonl(obs_dir / "trace.jsonl", tolerant=True)
        causal = [r for r in records if r.get("kind") == "causal"]
        # Drop everything after the first dispatch's timestamp so at
        # least one unit is mid-flight, and drop the meta total_time so
        # the run reads as unfinished.
        first_dispatch = next(
            r["ts"] for r in causal if r["event"] == "dispatched"
        )
        cut = []
        for rec in records:
            if rec.get("kind") == "meta":
                rec = {
                    k: v for k, v in rec.items() if k != "total_time"
                }
            if rec.get("ts", 0.0) <= first_dispatch:
                cut.append(rec)
        crash_dir = tmp_path / "crashed"
        crash_dir.mkdir()
        with open(crash_dir / "trace.jsonl", "w") as fh:
            for rec in cut:
                fh.write(json.dumps(rec) + "\n")
        report, ok = build_postmortem(crash_dir)
        assert ok, report
        assert "in flight" in report
        assert "dispatched to slave" in report

    def test_postmortem_empty_directory_fails(self, tmp_path):
        report, ok = build_postmortem(tmp_path / "nothing")
        assert not ok


class TestFlightClock:
    """Regression: with telemetry off, a slave's flight ring was stamped
    in raw ``time.monotonic()`` and the master's in run offsets, so the
    postmortem put the master's "lost" before the dead slave's last send.
    Every dump is now the tail of its session on the master's clock."""

    @pytest.fixture(scope="class")
    def dumps(self, small_benchmark, small_config, tmp_path_factory):
        flight_dir = tmp_path_factory.mktemp("flight")
        config = replace(small_config, flight_dir=str(flight_dir))
        t0 = time.monotonic()
        with hard_deadline():
            cluster_multiprocessing(
                small_benchmark.collection, config,
                n_processors=3,
                faults=FaultPlan.of(
                    FaultSpec(slave_id=0, kind="kill_after_send", at_message=1)
                ),
                tolerance=FaultTolerance(
                    slave_timeout=15.0, poll_interval=0.05, max_restarts=1
                ),
            )
        wall = time.monotonic() - t0
        paths = sorted(flight_dir.glob("flight-*"))
        assert paths, "no flight dumps written"
        return flight_dir, wall, {
            p.name.split(".")[0]: load_jsonl(p) for p in paths
        }

    def test_master_and_dead_slave_dumped(self, dumps):
        _, _, by_name = dumps
        assert set(by_name) == {"flight-master", "flight-slave0"}
        assert by_name["flight-slave0"][0]["reason"] == "injected-kill"

    def test_every_stamp_is_on_the_run_clock(self, dumps):
        _, wall, by_name = dumps
        for name, records in by_name.items():
            assert validate_records(records) == [], name
            assert 0.0 <= records[0]["dumped_at"] <= wall, name
            assert len(records) > 1, name
            for rec in records[1:]:
                assert 0.0 <= rec["ts"] <= rec.get("end", rec["ts"]) <= wall, (
                    name, rec
                )

    def test_postmortem_puts_last_send_before_the_loss(self, dumps):
        flight_dir, _, _ = dumps
        report, _ = build_postmortem(flight_dir, tail=10_000)
        tail = _tail_lines(report)
        last_send = max(
            i for i, line in enumerate(tail) if "slave0   send to master" in line
        )
        lost = next(
            i for i, line in enumerate(tail)
            if "slave0   FAULT lost" in line
        )
        assert last_send < lost, "\n".join(tail)


# --------------------------------------------------------------------- #
# the CLI fan-out
# --------------------------------------------------------------------- #


class TestObsOutFanout:
    def test_obs_out_writes_every_sink_with_one_run_id(
        self, tmp_path, small_benchmark
    ):
        from repro.cli import main
        from repro.sequence import FastaRecord, write_fasta

        collection = small_benchmark.collection
        fasta = tmp_path / "ests.fa"
        write_fasta(
            (
                FastaRecord(f"e{i}", collection.est_string(i))
                for i in range(collection.n_ests)
            ),
            fasta,
        )
        obs = tmp_path / "obs"
        with hard_deadline():
            rc = main([
                "cluster", str(fasta),
                "-o", str(tmp_path / "clusters.tsv"),
                "--w", "6", "--psi", "15",
                "--min-overlap", "30", "--min-ratio", "0.8",
                "--parallel", "3", "--machine", "simulated",
                "--obs-out", str(obs),
            ])
        assert rc == 0
        trace = load_jsonl(obs / "trace.jsonl", tolerant=True)
        live = load_jsonl(obs / "live.jsonl", tolerant=True)
        assert json.loads(
            (obs / "timeline.perfetto.json").read_text()
        )["traceEvents"]
        trace_meta = next(r for r in trace if r.get("kind") == "meta")
        live_meta = next(r for r in live if r.get("kind") == "meta")
        assert trace_meta["run_id"] == live_meta["run_id"] != ""
        # causal tracing came on with the fan-out
        assert any(r.get("kind") == "causal" for r in trace)
        report, ok = build_postmortem(obs)
        assert ok, report

    def test_causal_trace_requires_telemetry_out(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="telemetry"):
            main(["cluster", str(tmp_path / "x.fa"), "--causal-trace"])


# --------------------------------------------------------------------- #
# multi-shard metrics scrape
# --------------------------------------------------------------------- #


class TestShardMetrics:
    def test_multi_shard_metrics_scraped_from_endpoint(
        self, small_benchmark, small_config
    ):
        import urllib.request

        from repro.telemetry import RunMonitor

        monitor = RunMonitor(port=0, interval=0.05)
        try:
            with hard_deadline():
                simulate_clustering(
                    small_benchmark.collection,
                    replace(small_config, master_shards=2),
                    n_processors=4,
                    monitor=monitor,
                )
            url = f"http://127.0.0.1:{monitor.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as resp:
                text = resp.read().decode()
        finally:
            monitor.close()
        for gauge in (
            "pace_shard_slaves", "pace_shard_busy_slaves",
            "pace_shard_workbuf_depth", "pace_shard_pairs_dispatched_total",
            "pace_shard_merges_total", "pace_shard_unions_absorbed_total",
        ):
            assert f'{gauge}{{shard="0"}}' in text
            assert f'{gauge}{{shard="1"}}' in text
        # Single-master runs must keep their metric surface unchanged.
        monitor2 = RunMonitor(port=0, interval=0.05)
        try:
            simulate_clustering(
                small_benchmark.collection, small_config,
                n_processors=3, monitor=monitor2,
            )
            text2 = monitor2.metrics_text()
        finally:
            monitor2.close()
        assert "pace_shard_" not in text2

    def test_shard_rows_in_progress_table(self, small_benchmark, small_config):
        import io

        from repro.telemetry import (
            RunMonitor,
            render_progress_table,
            replay_live_records,
        )

        buf = io.StringIO()
        monitor = RunMonitor(live_out=buf, interval=0.05)
        try:
            simulate_clustering(
                small_benchmark.collection,
                replace(small_config, master_shards=2),
                n_processors=4,
                monitor=monitor,
            )
            table = render_progress_table(monitor.state.as_dict())
        finally:
            monitor.close()
        assert "shard0" in table and "shard1" in table
        assert "sync-in" in table
        # The shard view replays from the live JSONL stream too.
        records = [
            json.loads(line) for line in buf.getvalue().splitlines()
        ]
        replayed = replay_live_records(records)
        assert [s["shard_id"] for s in replayed.shards] == [0, 1]
