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
    FlightRecorder,
    Telemetry,
    UnitMinter,
    build_postmortem,
    check_conservation,
    chrome_trace,
    export_chrome_trace,
    export_jsonl,
    format_unit,
    load_flight_dumps,
    load_jsonl,
    merge_flight_events,
    validate_records,
)
from repro.telemetry.analyze import conservation_section
from repro.telemetry.causal import (
    CAUSAL_EVENTS,
    MAX_INCARNATION,
    REQUEUE_STORM_THRESHOLD,
    unit_parts,
)

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


class TestFlightRecorder:
    def test_ring_is_bounded(self, tmp_path):
        rec = FlightRecorder(str(tmp_path), "slave0", capacity=4)
        for k in range(10):
            rec.note("send", k=k)
        assert len(rec) == 4
        assert rec.events[0]["k"] == 6

    def test_dump_and_load_round_trip(self, tmp_path):
        clock_value = [1.5]
        rec = FlightRecorder(
            str(tmp_path), "slave3", run_id="r1",
            clock=lambda: clock_value[0],
            state_provider=lambda: {"pairbuf_depth": 7},
        )
        rec.note("send", msg=2)
        path = rec.dump("crash")
        assert path is not None
        dumps = load_flight_dumps(str(tmp_path))
        assert len(dumps) == 1
        dump = dumps[0]
        assert dump["schema"] == "repro-flight/1"
        assert dump["actor"] == "slave3"
        assert dump["reason"] == "crash"
        assert dump["state"] == {"pairbuf_depth": 7}
        assert dump["events"][0]["event"] == "send"

    def test_first_dump_wins_unless_forced(self, tmp_path):
        rec = FlightRecorder(str(tmp_path), "master")
        assert rec.dump("crash") is not None
        assert rec.dump("sigterm") is None
        assert load_flight_dumps(str(tmp_path))[0]["reason"] == "crash"
        assert rec.dump("fault-transition", force=True) is not None
        assert (
            load_flight_dumps(str(tmp_path))[0]["reason"] == "fault-transition"
        )

    def test_half_written_dump_is_skipped_not_raised(self, tmp_path):
        (tmp_path / "flight-slave0.json").write_text('{"actor": "slave0", ')
        rec = FlightRecorder(str(tmp_path), "slave1")
        rec.dump("crash")
        dumps = load_flight_dumps(str(tmp_path))
        assert len(dumps) == 2
        assert "load_error" in dumps[0]
        assert dumps[1]["actor"] == "slave1"

    def test_merge_orders_events_and_tags_actors(self, tmp_path):
        a = FlightRecorder(str(tmp_path), "slave0", clock=lambda: 2.0)
        b = FlightRecorder(str(tmp_path), "slave1", clock=lambda: 1.0)
        a.note("send")
        b.note("recv")
        a.dump("crash")
        b.dump("crash")
        merged = merge_flight_events(load_flight_dumps(str(tmp_path)))
        assert [e["actor"] for e in merged] == ["slave1", "slave0"]

    def test_dump_survives_unwritable_directory(self, tmp_path):
        rec = FlightRecorder(str(tmp_path / "not" / "a" / "file.txt"), "x")
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
        dumps = {d["actor"]: d for d in load_flight_dumps(str(obs_dir))}
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
