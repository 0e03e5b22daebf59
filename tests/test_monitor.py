"""Tests for the live run monitor: state aggregation, Prometheus
rendering, the HTTP endpoint, engine integration, and the
issue-acceptance scenario — an injected-fault multiprocessing run whose
/metrics endpoint reports the loss *before* the run completes.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import signal
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.core import PaceClusterer
from repro.parallel import (
    FaultPlan,
    FaultSpec,
    FaultTolerance,
    cluster_multiprocessing,
    simulate_clustering,
)
from repro.telemetry import (
    LiveRunState,
    SCHEMA_VERSION,
    ResourceSampler,
    RunMonitor,
    Telemetry,
    render_progress_table,
    render_prometheus,
    replay_live_records,
    live_record,
    validate_records,
)
from repro.telemetry.live import LIVE_FIELDS

HARD_DEADLINE_S = 120


@contextmanager
def hard_deadline(seconds: int = HARD_DEADLINE_S):
    """Fail (instead of hanging CI) if the body runs too long."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"monitored run exceeded {seconds}s — runtime hung")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _scrape(port: int, path: str = "/metrics") -> str:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5) as r:
        return r.read().decode()


# --------------------------------------------------------------------- #
# resource sampling
# --------------------------------------------------------------------- #


class TestResourceSampler:
    def test_readings_are_sane(self):
        s = ResourceSampler()
        rss = s.rss_bytes()
        peak = s.peak_rss_bytes()
        assert rss > 1024 * 1024  # a CPython process is bigger than 1 MiB
        assert peak >= rss // 2  # same order; peak can lag statm slightly
        assert s.cpu_seconds() >= 0.0

    def test_ru_maxrss_is_kib_on_linux(self):
        # getrusage reports ru_maxrss in KiB on Linux: 100 MiB -> bytes.
        from repro.telemetry.live import _ru_maxrss_bytes

        assert _ru_maxrss_bytes(102_400, platform="linux") == 100 * 1024 * 1024

    def test_ru_maxrss_is_bytes_on_macos(self):
        # ...but in bytes on macOS: the value passes through unscaled.
        # (The old heuristic multiplied anything under 4 GiB by 1024.)
        from repro.telemetry.live import _ru_maxrss_bytes

        assert _ru_maxrss_bytes(104_857_600, platform="darwin") == 104_857_600
        # Large Linux readings must still scale (no plausibility cutoff).
        big = 8 * 1024 * 1024 * 1024  # an 8 TiB reading, in KiB
        assert _ru_maxrss_bytes(big, platform="linux") == big * 1024


# --------------------------------------------------------------------- #
# the fold
# --------------------------------------------------------------------- #


def _live(k: int, ts: float, **fields) -> dict:
    return live_record(f"slave{k}", ts, **fields)


def _master(ts: float, **fields) -> dict:
    return {"kind": "live_state", "ts": ts, **fields}


def _views(st: LiveRunState) -> dict[int, dict]:
    return {v["slave_id"]: v for v in st.as_dict()["slaves"]}


class TestLiveRunState:
    def test_update_folds_samples(self):
        st = LiveRunState(2, engine="test")
        st.fold(_live(0, 1.0, pairs_generated=5, gen_position=0.5))
        st.fold(_live(0, 2.0, pairs_generated=9, gen_position=0.8))
        view = _views(st)[0]
        assert view["samples"] == 2
        assert view["pairs_generated"] == 9
        assert view["last_ts"] == 2.0
        assert st.now == 2.0
        assert view["state"] == "running"
        assert view["position"] == pytest.approx(0.8)

    def test_progress_averages_and_caps(self):
        st = LiveRunState(2, engine="test")
        assert st.progress == 0.0
        st.fold(_live(0, 1.0, gen_position=1.0, exhausted=True))
        st.fold(_live(1, 1.0, gen_position=0.5))
        assert st.progress == pytest.approx(0.75)
        # Generators done but a backlog remains: held at 0.99.
        st.fold(_live(1, 2.0, gen_position=1.0, exhausted=True))
        st.fold(_master(2.0, workbuf_depth=4))
        assert st.progress == pytest.approx(0.99)
        # Only finish() may claim 1.0.
        st.fold(_master(2.0, workbuf_depth=0))
        assert st.progress <= 0.999
        st.finish(3.0)
        assert st.progress == 1.0
        assert st.eta_seconds() == 0.0
        assert all(v["state"] == "stopped" for v in _views(st).values())

    def test_eta_proportional(self):
        st = LiveRunState(1, engine="test")
        st.fold(_live(0, 10.0, gen_position=0.5))
        assert st.eta_seconds() == pytest.approx(10.0)
        early = LiveRunState(1, engine="test")
        early.fold(_live(0, 0.1, gen_position=0.01))
        assert early.eta_seconds() is None

    def test_lost_and_revived(self):
        st = LiveRunState(2, engine="test")
        st.fold(_master(1.0, lost=[0]))
        assert _views(st)[0]["state"] == "lost"
        assert _views(st)[0]["position"] == 1.0  # cannot produce further work
        st.fold(_master(2.0, lost=[]))  # the master re-admitted it
        assert _views(st)[0]["state"] == "running"
        # Fault counters are the engine's account, published whole.
        assert st.fault_counters == {}
        st.fold(_master(2.0, faults={"slaves_lost": 1, "restarts": 1}))
        assert st.fault_counters == {"slaves_lost": 1, "restarts": 1}
        # A trace's fault event reporting a loss marks the slave too.
        st.fold(
            {
                "kind": "trace", "event": "fault", "actor": "slave1",
                "ts": 3.0, "end": 3.0, "detail": "lost (crash or timeout)",
            }
        )
        assert _views(st)[1]["state"] == "lost"
        # A late sample of the lost incarnation leaves it lost; one from
        # a newer incarnation means a replacement is running.
        st.fold(_live(1, 3.5))
        assert _views(st)[1]["state"] == "lost"
        st.fold(_live(1, 4.0, incarnation=1))
        assert _views(st)[1]["state"] == "running"

    def test_stragglers_flag_stale_running_slaves(self):
        st = LiveRunState(2, engine="test", straggler_after=5.0)
        st.fold(_live(0, 1.0))
        st.fold(_live(1, 1.0))
        st.fold(_master(10.0))
        assert st.stragglers() == [0, 1]
        st.fold(_live(1, 9.5))
        assert st.stragglers() == [0]
        st.fold(_master(10.0, stopped=[0]))  # stopped slaves are never stragglers
        assert st.stragglers() == []

    def test_other_records_change_nothing(self):
        st = LiveRunState(1, engine="test")
        before = st.as_dict()
        for rec in (
            {"kind": "meta", "schema": SCHEMA_VERSION},
            {"kind": "trace", "event": "send", "actor": "slave0", "ts": 1.0},
            {"kind": "causal", "event": "admitted", "unit": 1, "n": 2, "ts": 1.0},
        ):
            st.fold(rec)
        assert st.as_dict() == before


class TestReplay:
    def test_round_trip_through_records(self):
        meta = {
            "kind": "meta", "schema": SCHEMA_VERSION, "stream": "live",
            "run_id": "r1", "n_processors": 3, "engine": "multiprocessing",
            "clock": "wall",
        }
        records = [meta]
        records.append(_live(0, 1.0, pairs_generated=4))
        records.append(_live(1, 0.5, pairs_generated=2))
        records.append(
            {
                "kind": "live_state", "ts": 1.5, "progress": 0.4,
                "workbuf_depth": 2, "messages": 9, "merges": 3,
                "faults": {"slaves_lost": 1}, "lost": [1], "finished": False,
            }
        )
        st = replay_live_records(records)
        assert st.run_id == "r1"
        assert st.n_slaves == 2
        assert _views(st)[0]["pairs_generated"] == 4
        assert _views(st)[1]["state"] == "lost"
        assert st.fault_counters == {"slaves_lost": 1}
        assert not st.finished
        # A later state record revives slave 1 and finishes the run.
        records.append(
            {
                "kind": "live_state", "ts": 2.0, "progress": 1.0,
                "workbuf_depth": 0, "messages": 12, "merges": 5,
                "faults": {"slaves_lost": 1, "restarts": 1}, "lost": [],
                "finished": True,
            }
        )
        st = replay_live_records(records)
        assert _views(st)[1]["state"] == "stopped"
        assert st.finished and st.progress == 1.0
        assert st.merges == 5

    def test_sample_record_round_trip(self):
        fields = dict(
            incarnation=1, rss_bytes=1000, cpu_seconds=0.5, pairs_generated=7,
            alignments=6, dp_cells=99, pairbuf_depth=2, gen_position=0.7,
        )
        rec = live_record("slave3", 2.5, **fields)
        # One fixed key order, whatever order the fields come in.
        assert list(rec) == ["kind", "actor", "ts", *LIVE_FIELDS]
        shuffled = live_record("slave3", 2.5, **dict(reversed(fields.items())))
        assert json.dumps(shuffled) == json.dumps(rec)
        st = LiveRunState(0)
        st.fold(json.loads(json.dumps(rec)))
        view = _views(st)[3]
        assert view["samples"] == 1 and view["last_ts"] == 2.5
        assert {k: view[k] for k in ("incarnation", "rss_bytes", "dp_cells")} == {
            "incarnation": 1, "rss_bytes": 1000, "dp_cells": 99,
        }
        st.fold(live_record("master", 1.0, rss_bytes=5))
        assert st.as_dict()["master"]["slave_id"] == -1
        assert st.as_dict()["master"]["rss_bytes"] == 5
        with pytest.raises(TypeError, match="unknown"):
            live_record("slave0", 0.0, rss=1)


# --------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------- #


def _busy_state() -> LiveRunState:
    st = LiveRunState(2, run_id="abc123", engine="multiprocessing")
    st.fold(
        _live(
            0, 2.0, rss_bytes=50 << 20, cpu_seconds=1.5,
            pairs_generated=100, alignments=90, gen_position=0.6,
        )
    )
    st.fold(_live(1, 2.0, gen_position=0.4))
    st.fold(live_record("master", 2.1, rss_bytes=60 << 20, cpu_seconds=0.3))
    st.fold(
        _master(
            2.1, workbuf_depth=5, messages=40, merges=12, pairs_dispatched=80,
            faults={"slaves_lost": 1},
        )
    )
    return st


class TestPrometheusRendering:
    def test_metric_families(self):
        text = render_prometheus(_busy_state())
        assert "# TYPE pace_run_progress_ratio gauge" in text
        assert "pace_run_finished 0" in text
        assert "pace_workbuf_depth 5" in text
        assert "pace_merges_total 12" in text
        assert "pace_fault_slaves_lost_total 1" in text
        assert 'pace_slave_pairs_generated_total{slave="0"} 100' in text
        assert 'pace_slave_progress_ratio{slave="1"} 0.4' in text
        assert "pace_master_rss_bytes" in text
        # One TYPE line per family even with two labelled series.
        assert text.count("# TYPE pace_slave_up gauge") == 1

    def test_naming_conventions(self):
        """Every metric is pace_-prefixed; counters end in _total."""
        for line in render_prometheus(_busy_state()).splitlines():
            if line.startswith("# TYPE "):
                _, _, name, mtype = line.split()
                assert name.startswith("pace_")
                if mtype == "counter":
                    assert name.endswith("_total")


    def test_each_family_is_one_group(self):
        """Every family has exactly one ``# TYPE`` line and its samples
        follow it contiguously — with 2 slaves, where a slave-major loop
        splits the labelled families."""
        st = _busy_state()
        current, typed, samples = None, [], {}
        for line in render_prometheus(st).splitlines():
            if line.startswith("# TYPE "):
                current = line.split()[2]
                typed.append(current)
                continue
            name = line.split()[0].split("{")[0]
            assert name == current, f"{name} sample outside its group"
            samples[name] = samples.get(name, 0) + 1
        assert len(typed) == len(set(typed))
        assert set(typed) == set(samples)
        labelled = [n for n in typed if n.startswith("pace_slave_")]
        assert len(labelled) == 10
        assert all(samples[n] == 2 for n in labelled)


class TestProgressTable:
    def test_renders_all_slaves_and_faults(self):
        table = render_progress_table(_busy_state().as_dict())
        assert "slave0" in table and "slave1" in table
        assert "master" in table
        assert "engine=multiprocessing" in table
        assert "faults: slaves_lost=1" in table
        assert "[" in table and "#" in table  # the progress bar

    def test_finished_state(self):
        st = _busy_state()
        st.finish(3.0)
        table = render_progress_table(st.as_dict())
        assert "100.0%" in table and "finished" in table


# --------------------------------------------------------------------- #
# the HTTP endpoint
# --------------------------------------------------------------------- #


class TestEndpoint:
    def test_serves_metrics_state_healthz(self):
        mon = RunMonitor(port=0, interval=0.1)
        try:
            mon.begin_run(2, engine="test")
            mon.record(_live(0, 1.0, gen_position=0.5))
            port = mon.port
            assert port
            assert "pace_up 1" in _scrape(port)
            assert json.loads(_scrape(port, "/healthz")) == {"status": "ok"}
            state = json.loads(_scrape(port, "/state"))
            assert state["n_slaves"] == 2
            assert len(state["slaves"]) == 2
            with pytest.raises(urllib.error.HTTPError):
                _scrape(port, "/nope")
        finally:
            mon.close()
        assert mon.port is None

    def test_close_is_idempotent(self):
        mon = RunMonitor(port=0)
        mon.begin_run(1, engine="test")
        mon.close()
        mon.close()

    def test_close_skips_linger_when_run_never_finished(self):
        # A run that died (finish() never ran) must not block the caller's
        # exception path watching a dead endpoint.
        import time

        mon = RunMonitor(port=0)
        mon.begin_run(1, engine="test")
        t0 = time.monotonic()
        mon.close(linger=30.0)
        assert time.monotonic() - t0 < 5.0

    def test_close_lingers_only_on_clean_completion(self):
        import time

        mon = RunMonitor(port=0)
        mon.begin_run(1, engine="test")
        mon.finish(1.0)
        t0 = time.monotonic()
        mon.close(linger=0.3)
        assert time.monotonic() - t0 >= 0.3

    def test_double_close_after_fault_path(self):
        # The engine finally block and the CLI both call close(); the
        # second call must be a no-op even with a linger request.
        mon = RunMonitor(port=0)
        mon.begin_run(1, engine="test")
        mon.close()
        mon.close(linger=30.0)
        assert mon.port is None

    def test_live_out_stream_validates(self):
        buf = io.StringIO()
        mon = RunMonitor(live_out=buf, interval=0.001)
        mon.begin_run(1, engine="test")
        mon.record(_live(0, 0.5, gen_position=0.5))
        mon.record(_master(0.6))
        mon.finish(1.0)
        mon.close()
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert validate_records(records) == []
        st = replay_live_records(records)
        assert st.finished
        assert st.slaves[0]["samples"] == 1

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            RunMonitor(interval=0.0)


# --------------------------------------------------------------------- #
# engine integration
# --------------------------------------------------------------------- #


class TestEngineIntegration:
    def test_sequential_pipeline_reports(self, small_benchmark, small_config):
        buf = io.StringIO()
        mon = RunMonitor(live_out=buf, interval=0.001)
        PaceClusterer(small_config).cluster(small_benchmark.collection, monitor=mon)
        mon.close()
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert validate_records(records) == []
        st = replay_live_records(records)
        assert st.engine == "sequential"
        assert st.finished and st.progress == 1.0
        assert st.slaves[0]["samples"] > 0

    def test_simulated_machine_reports_virtual_time(
        self, small_benchmark, small_config
    ):
        buf = io.StringIO()
        mon = RunMonitor(live_out=buf, interval=0.05)
        rep = simulate_clustering(
            small_benchmark.collection, small_config, n_processors=3, monitor=mon
        )
        mon.close()
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert validate_records(records) == []
        assert records[0]["clock"] == "virtual"
        st = replay_live_records(records)
        assert st.finished
        # Virtual timestamps: the newest sample is within the virtual span.
        assert 0.0 < st.now <= rep.total_time + 1e-9
        assert set(st.slaves) == {0, 1}
        assert all(v["samples"] > 0 for v in st.slaves.values())

    def test_mp_run_with_endpoint(self, small_benchmark, small_config, tmp_path):
        live = tmp_path / "live.jsonl"
        mon = RunMonitor(port=0, live_out=live, interval=0.02)
        with hard_deadline():
            res = cluster_multiprocessing(
                small_benchmark.collection,
                small_config,
                n_processors=3,
                monitor=mon,
            )
        try:
            final = json.loads(_scrape(mon.port, "/state"))
        finally:
            mon.close()
        assert res.clusters
        assert final["finished"] and final["progress"] == 1.0
        assert {v["slave_id"] for v in final["slaves"]} == {0, 1}
        records = [json.loads(line) for line in live.read_text().splitlines()]
        assert validate_records(records) == []
        st = replay_live_records(records)
        assert st.finished
        assert all(v["samples"] > 0 for v in st.slaves.values())


class TestReplayEqualsLive:
    """Replaying a finished ``--live-out`` stream gives the final
    ``/state``: both are the fold of the same records."""

    @staticmethod
    def _assert_replay_equals_live(mon: RunMonitor, text: str) -> None:
        records = [json.loads(line) for line in text.splitlines()]
        assert validate_records(records) == []
        assert replay_live_records(records).as_dict() == mon.state_dict()

    def test_sequential(self, small_benchmark, small_config):
        buf = io.StringIO()
        mon = RunMonitor(live_out=buf, interval=0.001)
        PaceClusterer(small_config).cluster(small_benchmark.collection, monitor=mon)
        mon.close()
        self._assert_replay_equals_live(mon, buf.getvalue())

    def test_simulated(self, small_benchmark, small_config):
        buf = io.StringIO()
        mon = RunMonitor(live_out=buf, interval=0.002)
        simulate_clustering(
            small_benchmark.collection, small_config, n_processors=4, monitor=mon
        )
        mon.close()
        self._assert_replay_equals_live(mon, buf.getvalue())
        assert mon.state_dict()["pairs_dispatched"] > 0

    def test_multiprocessing(self, small_benchmark, small_config):
        buf = io.StringIO()
        mon = RunMonitor(live_out=buf, interval=0.01)
        with hard_deadline():
            cluster_multiprocessing(
                small_benchmark.collection, small_config, n_processors=3, monitor=mon
            )
        mon.close()
        self._assert_replay_equals_live(mon, buf.getvalue())
        assert mon.state_dict()["pairs_dispatched"] > 0

    def test_simulated_stream_is_pinned(self, small_benchmark, small_config):
        """The ``live`` lines, the final ``/state`` (run id and origin
        aside) and the ``/metrics`` line set (order aside) of one
        simulated run, pinned by digest."""
        buf = io.StringIO()
        mon = RunMonitor(live_out=buf, interval=0.002)
        simulate_clustering(
            small_benchmark.collection, small_config, n_processors=4, monitor=mon
        )
        mon.close()
        live = [
            line for line in buf.getvalue().splitlines()
            if json.loads(line)["kind"] == "live"
        ]
        final = mon.state_dict()
        del final["run_id"], final["origin"]
        metrics = sorted(mon.metrics_text().splitlines())
        assert len(live) == 10
        assert _sha("\n".join(live)) == (
            "830100c706c08a696aa00e8104a1e0cf02a18c743a23b36a6884fc12f2d390a7"
        )
        assert _sha(json.dumps(final, sort_keys=True)) == (
            "c4f0c4850d964322c1ff368c263434962e1bdbff1113839d4cc6f70044064ffe"
        )
        assert _sha("\n".join(metrics)) == (
            "0f670719e07de327e833683253866152da08fc079774b6c11d20ce43cf546b61"
        )


class TestHostClock:
    def test_simulated_stream_ignores_the_host_clock(
        self, small_benchmark, small_config, monkeypatch
    ):
        """The simulator's stream is a function of the run: a host clock
        that jumps 1 s per reading must not change one line of it."""
        import repro.telemetry.monitor

        def run() -> tuple[dict, list[str]]:
            buf = io.StringIO()
            mon = RunMonitor(live_out=buf, interval=0.002)
            simulate_clustering(
                small_benchmark.collection, small_config,
                n_processors=8, monitor=mon,
            )
            mon.close()
            head, *body = buf.getvalue().splitlines()
            meta = json.loads(head)
            del meta["run_id"], meta["origin"]
            return meta, body

        normal = run()
        clock = repro.telemetry.monitor.time
        real, ticks = clock.monotonic, itertools.count()
        monkeypatch.setattr(clock, "monotonic", lambda: real() + next(ticks))
        assert run() == normal


class TestOneClock:
    """Regression: the live stream kept an origin of its own (where the
    engine began aligning), so its samples ran behind the trace's clock
    by the index build.  Both now read the run's telemetry session."""

    @staticmethod
    def _assert_one_clock(live_text: str, snapshot) -> None:
        records = [json.loads(line) for line in live_text.splitlines()]
        assert validate_records(records) == []
        assert records[0]["origin"] == snapshot.meta["origin"]
        stamped = [r for r in records if r["kind"] in ("live", "live_state")]
        assert stamped
        for rec in stamped:
            assert 0.0 <= rec["ts"] <= snapshot.total_time, rec

    def test_sequential(self, small_benchmark, small_config):
        buf = io.StringIO()
        mon = RunMonitor(live_out=buf, interval=0.001)
        res = PaceClusterer(small_config).cluster(
            small_benchmark.collection, telemetry=Telemetry(), monitor=mon
        )
        mon.close()
        self._assert_one_clock(buf.getvalue(), res.telemetry)

    def test_multiprocessing(self, small_benchmark, small_config):
        buf = io.StringIO()
        mon = RunMonitor(live_out=buf, interval=0.001)
        with hard_deadline():
            res = cluster_multiprocessing(
                small_benchmark.collection, small_config,
                n_processors=3, telemetry=Telemetry(), monitor=mon,
            )
        mon.close()
        self._assert_one_clock(buf.getvalue(), res.telemetry)


class TestOneFaultAccount:
    def test_monitor_faults_equal_result_faults(
        self, small_benchmark, small_config, tmp_path
    ):
        """Slave 0 dies after its second send in every incarnation: lost,
        restarted, lost for good, its ranges regenerated in the master."""
        live = tmp_path / "live.jsonl"
        log = _WarningLog()
        mon = RunMonitor(port=0, live_out=live, interval=0.02, log=log)
        plan = FaultPlan.of(
            FaultSpec(
                slave_id=0, kind="kill_after_send", at_message=1, incarnation=None
            )
        )
        with hard_deadline():
            res = cluster_multiprocessing(
                small_benchmark.collection, small_config,
                n_processors=3, faults=plan, monitor=mon,
                tolerance=FaultTolerance(
                    slave_timeout=15.0, poll_interval=0.02, max_restarts=1
                ),
            )
        try:
            final = json.loads(_scrape(mon.port, "/state"))
        finally:
            mon.close()
        records = [json.loads(line) for line in live.read_text().splitlines()]
        last_state = [r for r in records if r["kind"] == "live_state"][-1]
        expected = {
            k: getattr(res.faults, k)
            for k in ("slaves_lost", "restarts", "pairs_reassigned", "slave_errors")
        }
        assert expected["slaves_lost"] == 2 and expected["restarts"] == 1
        for faults in (final["faults"], last_state["faults"]):
            assert {k: faults.get(k, 0) for k in expected} == expected
        # The log lines account for every loss and restart: their rises
        # add up to the totals, and the last one carries the total.
        for key, message in (
            ("slaves_lost", "slave lost"), ("restarts", "slave restarted")
        ):
            lines = [fields for msg, fields in log.warnings if msg == message]
            assert sum(fields["new"] for fields in lines) == expected[key]
            assert lines[-1][key] == expected[key]


class _WarningLog:
    """A structured-logger stand-in that keeps its warnings."""

    def __init__(self) -> None:
        self.warnings: list[tuple[str, dict]] = []

    def bind(self, **fields) -> "_WarningLog":
        return self

    def info(self, msg: str = "", **fields) -> None:
        pass

    def warning(self, msg: str = "", **fields) -> None:
        self.warnings.append((msg, fields))


class TestOwnedMonitorLifecycle:
    """Regression: an engine that created its own monitor from
    ``config.monitor_port`` closed it only on success, so a run that
    raised left the HTTP thread serving and the port bound, and the next
    run in the process on the same fixed port died with EADDRINUSE."""

    @staticmethod
    def _free_port() -> int:
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    @pytest.mark.parametrize("engine", ["sequential", "simulated"])
    def test_port_is_free_again_after_a_run_that_raised(
        self, engine, small_benchmark, small_config, monkeypatch
    ):
        import dataclasses

        import repro.core.pipeline
        import repro.parallel.engine

        cfg = dataclasses.replace(small_config, monitor_port=self._free_port())

        def run():
            if engine == "sequential":
                return PaceClusterer(cfg).cluster(small_benchmark.collection)
            return simulate_clustering(
                small_benchmark.collection, cfg, n_processors=3
            ).result

        class Boom(RuntimeError):
            pass

        def exploding_aligner(*args, **kwargs):
            class Aligner:
                dp_cells_total = model_cells_total = 0

                def align_and_decide(self, pair):
                    raise Boom("aligner failed mid-run")

                def align_and_decide_batch(self, pairs):
                    raise Boom("aligner failed mid-run")

            return Aligner()

        with monkeypatch.context() as patch:
            patch.setattr(repro.core.pipeline, "make_aligner", exploding_aligner)
            patch.setattr(repro.parallel.engine, "make_aligner", exploding_aligner)
            with pytest.raises(Boom):
                run()
        # Same process, same fixed port: must bind, and nobody may still
        # be serving the dead run there.
        with pytest.raises((urllib.error.URLError, ConnectionError)):
            _scrape(cfg.monitor_port, "/healthz")
        assert run().clusters


# --------------------------------------------------------------------- #
# the acceptance scenario: a lost slave is visible mid-run
# --------------------------------------------------------------------- #


class TestFaultVisibility:
    def test_injected_fault_surfaces_on_endpoint_before_completion(
        self, small_benchmark, small_config, tmp_path
    ):
        """Kill slave 0 before bootstrap; scrape /metrics continuously.
        Some mid-run scrape (pace_run_finished 0) must already carry the
        fault counter and per-slave progress series, and the final table
        must render every slave."""
        live = tmp_path / "live.jsonl"
        mon = RunMonitor(port=0, live_out=live, interval=0.02)
        mon.begin_run(2, engine="multiprocessing")
        port = mon.port
        scrapes: list[str] = []
        stop = threading.Event()

        def scraper():
            while not stop.is_set():
                try:
                    scrapes.append(_scrape(port))
                except OSError:
                    pass
                stop.wait(0.01)

        thread = threading.Thread(target=scraper, daemon=True)
        thread.start()
        plan = FaultPlan.of(
            FaultSpec(slave_id=0, kind="kill", at_message=0, incarnation=None)
        )
        try:
            with hard_deadline():
                res = cluster_multiprocessing(
                    small_benchmark.collection,
                    small_config,
                    n_processors=3,
                    faults=plan,
                    tolerance=FaultTolerance(
                        slave_timeout=1.0, poll_interval=0.02, max_restarts=0
                    ),
                    monitor=mon,
                )
        finally:
            stop.set()
            thread.join(timeout=5)
        assert res.faults.slaves_lost >= 1

        def lost_count(text: str) -> int:
            for line in text.splitlines():
                if line.startswith("pace_fault_slaves_lost_total "):
                    return int(float(line.split()[1]))
            return 0

        midrun = [s for s in scrapes if "pace_run_finished 0" in s]
        assert midrun, "endpoint was never scraped mid-run"
        witnessed = [s for s in midrun if lost_count(s) >= 1]
        assert witnessed, "no mid-run scrape reported the lost slave"
        # The same scrape carries per-slave progress and liveness series.
        w = witnessed[-1]
        assert 'pace_slave_progress_ratio{slave="0"}' in w
        assert 'pace_slave_progress_ratio{slave="1"}' in w
        assert 'pace_slave_up{slave="0"} 0' in w

        final_state = json.loads(_scrape(port, "/state"))
        mon.close()
        assert final_state["finished"]
        assert final_state["faults"]["slaves_lost"] >= 1

        # `pace-est monitor` rendering: every slave appears in the table.
        table = render_progress_table(final_state)
        assert "slave0" in table and "slave1" in table
        assert "slaves_lost=1" in table

        # The streamed live file replays to the same picture.
        records = [json.loads(line) for line in live.read_text().splitlines()]
        assert validate_records(records) == []
        st = replay_live_records(records)
        assert st.fault_counters.get("slaves_lost", 0) >= 1
        assert _views(st)[0]["state"] == "lost"


# --------------------------------------------------------------------- #
# monitor CLI
# --------------------------------------------------------------------- #


class TestMonitorCli:
    def test_monitor_renders_live_file(self, tmp_path, capsys):
        from repro.cli import main

        buf = io.StringIO()
        mon = RunMonitor(live_out=buf, interval=0.001, run_id="feedbeef")
        mon.begin_run(2, engine="test")
        mon.record(_live(0, 0.5, gen_position=0.5))
        mon.record(_live(1, 0.5, gen_position=0.25))
        mon.finish(1.0)
        mon.close()
        path = tmp_path / "live.jsonl"
        path.write_text(buf.getvalue())
        assert main(["monitor", str(path)]) == 0
        out = capsys.readouterr().out
        assert "feedbeef" in out
        assert "slave0" in out and "slave1" in out
        assert "100.0%" in out
