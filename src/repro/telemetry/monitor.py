"""The live run monitor: scrapeable endpoint, status lines, live JSONL.

:class:`RunMonitor` is the single object an engine talks to when live
monitoring is requested (``ClusteringConfig.monitor_port`` /
``--monitor-port`` / an explicit ``monitor=`` argument).  It owns a
:class:`~repro.telemetry.live.LiveRunState` and exposes it three ways:

1. an HTTP endpoint on a background thread (stdlib ``http.server``, no
   dependencies): ``/metrics`` in Prometheus text format, ``/healthz``,
   and ``/state`` as JSON (what the ``pace-est monitor`` CLI renders);
2. a rate-limited structured-log status line
   (:mod:`repro.util.logging`) with run-id/actor/phase fields;
3. an append-only live JSONL stream (``--live-out``): one
   ``{"kind": "live", ...}`` record per sample plus periodic
   ``live_state`` master records, replayable by
   :func:`~repro.telemetry.live.replay_live_records`.

Thread model: engine callbacks (``on_sample``, ``set_master``, …)
mutate the state under one lock; the HTTP handler renders under the same
lock.  When ``monitor is None`` nothing here is ever imported on a hot
path — the engines guard every call site.  Every engine brackets its run
with :func:`monitored_run`, which owns the monitor's lifecycle.

Metric naming follows the Prometheus conventions: ``pace_`` prefix,
``_total`` suffix on counters, base units in the name (``_bytes``,
``_seconds``, ``_ratio``), per-slave time series via a ``slave`` label.
The full convention is documented in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import IO

from repro.telemetry.live import LiveRunState, LiveSample
from repro.util.logging import StructuredLogger, get_logger, new_run_id

__all__ = [
    "RunMonitor",
    "monitored_run",
    "render_prometheus",
    "render_progress_table",
]


# --------------------------------------------------------------------- #
# prometheus text rendering
# --------------------------------------------------------------------- #


def _metric(lines: list[str], name: str, mtype: str, value, labels: str = "") -> None:
    if not any(line.startswith(f"# TYPE {name} ") for line in lines):
        lines.append(f"# TYPE {name} {mtype}")
    if isinstance(value, bool):
        value = int(value)
    lines.append(f"{name}{labels} {value}")


def render_prometheus(state: LiveRunState, histograms: dict | None = None) -> str:
    """The ``/metrics`` payload: Prometheus text exposition format,
    rendered from the live state alone (no client library).

    ``histograms`` (name → :class:`~repro.telemetry.registry.Histogram`,
    e.g. an attached registry's) adds ``_p50``/``_p99`` quantile gauges
    per histogram — plus ``_p999`` for the ``latency.*`` stage
    distributions, whose extreme tail is the whole point.
    """
    lines: list[str] = []
    _metric(lines, "pace_up", "gauge", 1)
    _metric(lines, "pace_run_finished", "gauge", state.finished)
    _metric(lines, "pace_run_progress_ratio", "gauge", f"{state.progress:.6f}")
    eta = state.eta_seconds()
    if eta is not None:
        _metric(lines, "pace_run_eta_seconds", "gauge", f"{eta:.3f}")
    _metric(lines, "pace_run_elapsed_seconds", "gauge", f"{state.now:.3f}")
    _metric(lines, "pace_run_slaves", "gauge", state.n_slaves)
    _metric(lines, "pace_workbuf_depth", "gauge", state.workbuf_depth)
    _metric(lines, "pace_messages_total", "counter", state.messages)
    _metric(lines, "pace_merges_total", "counter", state.merges)
    _metric(lines, "pace_pairs_dispatched_total", "counter", state.pairs_dispatched)

    for name in sorted(state.fault_counters):
        _metric(
            lines,
            f"pace_fault_{name}_total",
            "counter",
            state.fault_counters[name],
        )

    master = state.master
    if master.samples:
        _metric(lines, "pace_master_rss_bytes", "gauge", master.rss_bytes)
        _metric(
            lines,
            "pace_master_cpu_seconds_total",
            "counter",
            f"{master.cpu_seconds:.3f}",
        )

    for shard in state.shards:
        j = shard.get("shard_id", 0)
        lab = f'{{shard="{j}"}}'
        _metric(lines, "pace_shard_slaves", "gauge", shard.get("slaves", 0), lab)
        _metric(lines, "pace_shard_busy_slaves", "gauge", shard.get("busy", 0), lab)
        _metric(lines, "pace_shard_lost_slaves", "gauge", shard.get("lost", 0), lab)
        _metric(
            lines, "pace_shard_workbuf_depth", "gauge",
            shard.get("workbuf_depth", 0), lab,
        )
        _metric(
            lines, "pace_shard_pairs_dispatched_total", "counter",
            shard.get("pairs_dispatched", 0), lab,
        )
        _metric(
            lines, "pace_shard_merges_total", "counter",
            shard.get("merges", 0), lab,
        )
        _metric(
            lines, "pace_shard_pairs_pruned_total", "counter",
            shard.get("pruned", 0), lab,
        )
        _metric(
            lines, "pace_shard_unions_absorbed_total", "counter",
            shard.get("unions_absorbed", 0), lab,
        )
        _metric(
            lines, "pace_shard_sync_pruned_total", "counter",
            shard.get("sync_pruned", 0), lab,
        )

    stragglers = set(state.stragglers())
    for k, view in sorted(state.slaves.items()):
        lab = f'{{slave="{k}"}}'
        _metric(lines, "pace_slave_up", "gauge", not view.lost, lab)
        _metric(lines, "pace_slave_incarnation", "gauge", view.incarnation, lab)
        _metric(
            lines, "pace_slave_pairs_generated_total", "counter",
            view.pairs_generated, lab,
        )
        _metric(
            lines, "pace_slave_alignments_total", "counter", view.alignments, lab
        )
        _metric(lines, "pace_slave_dp_cells_total", "counter", view.dp_cells, lab)
        _metric(lines, "pace_slave_pairbuf_depth", "gauge", view.pairbuf_depth, lab)
        _metric(
            lines, "pace_slave_progress_ratio", "gauge",
            f"{view.position:.6f}", lab,
        )
        _metric(lines, "pace_slave_rss_bytes", "gauge", view.rss_bytes, lab)
        _metric(
            lines, "pace_slave_cpu_seconds_total", "counter",
            f"{view.cpu_seconds:.3f}", lab,
        )
        _metric(lines, "pace_slave_straggler", "gauge", k in stragglers, lab)

    for name, hist in sorted((histograms or {}).items()):
        if hist.count == 0:
            continue  # NaN quantiles have no place on a scrape endpoint
        base = "pace_" + name.replace(".", "_").replace("-", "_")
        quantiles = [("p50", 0.50), ("p99", 0.99)]
        if name.startswith("latency."):
            quantiles.append(("p999", 0.999))
        _metric(lines, f"{base}_count", "counter", hist.count)
        _metric(lines, f"{base}_sum", "counter", f"{hist.sum:.9g}")
        for label, q in quantiles:
            _metric(lines, f"{base}_{label}", "gauge", f"{hist.quantile(q):.9g}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# terminal rendering (the `pace-est monitor` table)
# --------------------------------------------------------------------- #


def _fmt_bytes(n: int) -> str:
    if n <= 0:
        return "-"
    mb = n / (1024 * 1024)
    return f"{mb:,.1f}M" if mb < 1024 else f"{mb / 1024:,.2f}G"


def render_progress_table(state: dict) -> str:
    """A terminal progress table from a ``/state`` JSON dict (also used
    on replayed ``--live-out`` streams)."""
    eta = state.get("eta_seconds")
    head = (
        f"run {state.get('run_id') or '?'} · engine={state.get('engine')} "
        f"· {state.get('n_slaves')} slaves · clock={state.get('clock')}"
    )
    prog = state.get("progress", 0.0) or 0.0
    bar_w = 30
    filled = int(round(prog * bar_w))
    bar = "#" * filled + "-" * (bar_w - filled)
    status = "finished" if state.get("finished") else "running"
    line2 = (
        f"[{bar}] {prog * 100:5.1f}%  {status}"
        f"  elapsed={state.get('now', 0.0):.1f}s"
        + (f"  eta={eta:.0f}s" if eta not in (None, 0.0) else "")
        + f"  workbuf={state.get('workbuf_depth', 0)}"
        f"  merges={state.get('merges', 0)}"
    )
    headers = [
        "slave", "state", "inc", "pairs", "aligned", "pairbuf",
        "pos%", "rss", "cpu(s)", "last-seen",
    ]
    rows: list[list[str]] = []
    stragglers = set(state.get("stragglers", ()))
    for view in state.get("slaves", []):
        k = view["slave_id"]
        mark = "*" if k in stragglers else ""
        rows.append(
            [
                f"slave{k}{mark}",
                view["state"],
                str(view["incarnation"]),
                str(view["pairs_generated"]),
                str(view["alignments"]),
                str(view["pairbuf_depth"]),
                f"{view['position'] * 100:.1f}",
                _fmt_bytes(view["rss_bytes"]),
                f"{view['cpu_seconds']:.2f}",
                f"{view['last_ts']:.1f}s" if view["samples"] else "-",
            ]
        )
    master = state.get("master")
    if master and master.get("samples"):
        rows.append(
            [
                "master", "-", "-", "-", "-",
                str(state.get("workbuf_depth", 0)), "-",
                _fmt_bytes(master["rss_bytes"]),
                f"{master['cpu_seconds']:.2f}",
                f"{master['last_ts']:.1f}s",
            ]
        )
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [head, line2, ""]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    shards = state.get("shards") or []
    if shards:
        sh_headers = [
            "shard", "slaves", "busy", "lost", "workbuf",
            "dispatched", "merges", "pruned", "sync-in", "sync-pruned",
        ]
        sh_rows = [
            [
                f"shard{s.get('shard_id', i)}",
                str(s.get("slaves", 0)),
                str(s.get("busy", 0)),
                str(s.get("lost", 0)),
                str(s.get("workbuf_depth", 0)),
                str(s.get("pairs_dispatched", 0)),
                str(s.get("merges", 0)),
                str(s.get("pruned", 0)),
                str(s.get("unions_absorbed", 0)),
                str(s.get("sync_pruned", 0)),
            ]
            for i, s in enumerate(shards)
        ]
        sh_widths = [
            max(len(h), *(len(r[i]) for r in sh_rows))
            for i, h in enumerate(sh_headers)
        ]
        lines.append("")
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(sh_headers, sh_widths))
        )
        for r in sh_rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, sh_widths)))
    faults = state.get("faults") or {}
    if faults:
        lines.append("")
        lines.append(
            "faults: " + "  ".join(f"{k}={v}" for k, v in sorted(faults.items()))
        )
    if stragglers:
        lines.append(f"stragglers (*): {sorted(stragglers)}")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# the HTTP endpoint
# --------------------------------------------------------------------- #


class _Handler(BaseHTTPRequestHandler):
    monitor: "RunMonitor"  # set on the server class per instance

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = self.server.monitor.metrics_text().encode()
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/healthz":
            body = b'{"status": "ok"}\n'
            ctype = "application/json"
        elif path == "/state":
            body = (
                json.dumps(self.server.monitor.state_dict(), sort_keys=False) + "\n"
            ).encode()
            ctype = "application/json"
        else:
            self.send_error(404, "unknown path (try /metrics, /healthz, /state)")
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # scrapes must not spam the run's stderr


class RunMonitor:
    """Live monitoring facade for one clustering run (see module docs).

    ``port=None`` disables the HTTP endpoint (status lines / live JSONL
    may still be active); ``port=0`` binds an OS-assigned port, readable
    from :attr:`port` once :meth:`begin_run` returns.
    """

    def __init__(
        self,
        *,
        port: int | None = None,
        live_out: Path | str | IO[str] | None = None,
        interval: float = 1.0,
        run_id: str | None = None,
        log: StructuredLogger | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"monitor interval must be > 0, got {interval}")
        self.requested_port = port
        self.interval = interval
        self.run_id = run_id or new_run_id()
        self.state: LiveRunState | None = None
        self._lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._live_path = live_out
        self._live_fh: IO[str] | None = None
        self._owns_fh = False
        self._log = (log or get_logger()).bind(run=self.run_id, actor="monitor")
        self._last_status = 0.0
        self._last_state_rec = 0.0
        self._closed = False
        self._registry = None

    # ---- lifecycle ---------------------------------------------------- #

    @property
    def port(self) -> int | None:
        """The bound endpoint port (None while no server is running)."""
        return self._server.server_address[1] if self._server else None

    def begin_run(
        self,
        n_slaves: int,
        *,
        engine: str,
        clock: str = "wall",
        straggler_after: float = 30.0,
        telemetry=None,
    ) -> LiveRunState:
        """Engine handshake: size the state, open the sinks.  Idempotent
        per monitor (a second run reuses the endpoint with fresh state).

        ``telemetry`` is the run's session, whose clock stamps the
        samples: its ``origin`` is published on ``/state`` and in the live
        meta record, as in the post-run trace's, and an enabled session's
        registry histograms become quantile gauges on ``/metrics`` (so
        ``latency.*`` stage quantiles are scrapeable mid-run; reads race
        benignly with writer increments — a scrape may see a histogram
        mid-update, never a torn value)."""
        origin = telemetry.origin if telemetry is not None else None
        enabled = telemetry is not None and telemetry.enabled
        self._registry = telemetry.registry if enabled else None
        with self._lock:
            self.state = LiveRunState(
                n_slaves,
                run_id=self.run_id,
                engine=engine,
                clock=clock,
                straggler_after=straggler_after,
                origin=origin,
            )
            self._open_live_sink(
                engine=engine, clock=clock, n_slaves=n_slaves, origin=origin
            )
        if self.requested_port is not None and self._server is None:
            server = ThreadingHTTPServer(("127.0.0.1", self.requested_port), _Handler)
            server.monitor = self
            server.daemon_threads = True
            self._server = server
            self._thread = threading.Thread(
                target=server.serve_forever,
                name=f"pace-monitor-{self.run_id}",
                daemon=True,
            )
            self._thread.start()
            self._log.info(
                "monitor endpoint up",
                port=self.port,
                paths="/metrics,/healthz,/state",
            )
        return self.state

    def _open_live_sink(self, **meta) -> None:
        if self._live_path is None or self._live_fh is not None:
            return
        if hasattr(self._live_path, "write"):
            self._live_fh = self._live_path
        else:
            self._live_fh = open(self._live_path, "w", encoding="utf-8")
            self._owns_fh = True
        # Stream meta first, like every telemetry JSONL; no total_time yet
        # (the final live_state record carries finished=true instead).
        from repro.telemetry.sinks import SCHEMA_VERSION

        self._write_record(
            {
                "kind": "meta",
                "schema": SCHEMA_VERSION,
                "stream": "live",
                "run_id": self.run_id,
                "n_processors": meta["n_slaves"] + 1,
                **{
                    k: v
                    for k, v in meta.items()
                    if k != "n_slaves" and v is not None
                },
            }
        )

    def close(self, linger: float = 0.0) -> None:
        """Tear down the endpoint and the live sink.  ``linger`` keeps the
        endpoint scrapeable for that many seconds after the run finishes
        (CI scrapes the final 100% state this way).  Idempotent — engine
        ``finally`` blocks and the CLI can both call it — and the linger
        sleep only happens on *clean* completion: when the run died
        (``finish()`` never ran) the caller is on an exception path and
        must not be blocked watching a corpse."""
        if self._closed:
            return
        self._closed = True
        finished = self.state is not None and self.state.finished
        if linger > 0 and self._server is not None and finished:
            time.sleep(linger)
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            if self._thread is not None:
                self._thread.join(timeout=5)
            self._server = None
            self._thread = None
        with self._lock:
            if self._live_fh is not None and self._owns_fh:
                self._live_fh.close()
            self._live_fh = None

    # ---- engine callbacks (all no-throw, all lock-guarded) ------------ #

    def _write_record(self, rec: dict) -> None:
        if self._live_fh is not None:
            try:
                self._live_fh.write(json.dumps(rec, sort_keys=False) + "\n")
                self._live_fh.flush()
            except OSError:
                self._live_fh = None  # a dead sink must not kill the run

    def on_sample(self, sample: LiveSample) -> None:
        """Fold one streamed sample in (low-priority pipe message)."""
        with self._lock:
            if self.state is None:
                return
            self.state.update(sample)
            self._write_record(sample.as_record())

    def set_master(self, **fields) -> None:
        """Mirror the master's queue/message accounting (see
        :meth:`LiveRunState.set_master` for the accepted fields)."""
        with self._lock:
            if self.state is not None:
                self.state.set_master(**fields)

    def set_shards(self, shard_states: list[dict]) -> None:
        """Replace the per-shard views (sharded-master engines push the
        full ``ShardedMaster.shard_states()`` list each refresh)."""
        with self._lock:
            if self.state is not None:
                self.state.set_shards(shard_states)

    def slave_lost(self, slave_id: int) -> None:
        with self._lock:
            if self.state is not None:
                self.state.slave_lost(slave_id)
        self._log.warning("slave lost", slave=slave_id)

    def slave_revived(self, slave_id: int) -> None:
        with self._lock:
            if self.state is not None:
                self.state.slave_revived(slave_id)
        self._log.info("slave restarted", slave=slave_id)

    def slave_stopped(self, slave_id: int) -> None:
        with self._lock:
            if self.state is not None:
                self.state.slave_stopped(slave_id)

    def finish(self, total_time: float | None = None) -> None:
        """The run completed: pin progress to 1.0, flush a final state
        record and a final status line."""
        with self._lock:
            if self.state is None:
                return
            self.state.finish(total_time)
            self._write_state_record()
        self._status_line(force=True)

    # ---- periodic output ---------------------------------------------- #

    def maybe_report(self, now: float | None = None) -> None:
        """Rate-limited periodic output: one structured status line and
        one ``live_state`` JSONL record per interval.  Engines call this
        from their event loop; it is cheap when the interval has not
        elapsed."""
        wall = time.monotonic()
        if wall - self._last_state_rec >= self.interval:
            self._last_state_rec = wall
            with self._lock:
                if self.state is not None:
                    if now is not None:
                        self.state.set_master(ts=now)
                    self._write_state_record()
        if wall - self._last_status >= max(self.interval, 5.0):
            self._last_status = wall
            self._status_line()

    def _write_state_record(self) -> None:
        state = self.state
        if state is None:
            return
        self._write_record(
            {
                "kind": "live_state",
                "ts": state.now,
                "progress": state.progress,
                "workbuf_depth": state.workbuf_depth,
                "messages": state.messages,
                "merges": state.merges,
                "faults": dict(state.fault_counters),
                "lost": sorted(
                    k for k, v in state.slaves.items() if v.lost
                ),
                **({"shards": [dict(s) for s in state.shards]} if state.shards else {}),
                "finished": state.finished,
            }
        )

    def _status_line(self, force: bool = False) -> None:
        with self._lock:
            state = self.state
            if state is None:
                return
            snap = state.as_dict()
        eta = snap["eta_seconds"]
        self._log.bind(actor="master", phase="alignment").info(
            "run finished" if snap["finished"] else "progress",
            progress=f"{snap['progress'] * 100:.1f}%",
            eta=f"{eta:.0f}s" if eta is not None else "?",
            workbuf=snap["workbuf_depth"],
            merges=snap["merges"],
            slaves_lost=snap["faults"].get("slaves_lost", 0),
            stragglers=len(snap["stragglers"]),
        )

    # ---- endpoint payloads -------------------------------------------- #

    def metrics_text(self) -> str:
        with self._lock:
            if self.state is None:
                return "# TYPE pace_up gauge\npace_up 0\n"
            histograms = (
                self._registry.histograms if self._registry is not None else None
            )
            return render_prometheus(self.state, histograms)

    def state_dict(self) -> dict:
        with self._lock:
            if self.state is None:
                return {"run_id": self.run_id, "slaves": [], "progress": 0.0}
            return self.state.as_dict()


@contextmanager
def monitored_run(
    monitor: RunMonitor | None,
    config,
    telemetry,
    n_slaves: int,
    *,
    engine: str,
    clock: str = "wall",
    straggler_after: float = 30.0,
):
    """The monitor's lifecycle around one clustering run, for every engine.

    Borrows ``monitor`` when the caller passed one, else creates (and
    owns) one when ``config.monitor_port`` is set, else yields ``None``.
    On entry it shares the monitor's run id with an enabled ``telemetry``
    session (so the live stream and the post-run trace can be joined) and
    performs the ``begin_run`` handshake with that session, whose origin
    and clock the live stream shares.  A clean exit finishes
    the run at the last clock reading the engine published; an exception
    skips that, so a dead run is never reported as complete.  An owned
    monitor is closed either way — its HTTP thread and port must not
    outlive a run that raised.  Stragglers are flagged after
    ``max(2 * interval, straggler_after)`` of sample silence.
    """
    owned = monitor is None and config.monitor_port is not None
    if owned:
        monitor = RunMonitor(
            port=config.monitor_port, interval=config.monitor_interval
        )
    if monitor is None:
        yield None
        return
    try:
        if telemetry.enabled and not telemetry.run_id:
            telemetry.run_id = monitor.run_id
        state = monitor.begin_run(
            n_slaves,
            engine=engine,
            clock=clock,
            straggler_after=max(2 * monitor.interval, straggler_after),
            telemetry=telemetry,
        )
        yield monitor
        monitor.finish(state.now)
    finally:
        if owned:
            monitor.close()
