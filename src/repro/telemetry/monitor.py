"""The live run monitor: scrapeable endpoint, status lines, live JSONL.

:class:`RunMonitor` is the single object an engine talks to when live
monitoring is requested (``ClusteringConfig.monitor_port`` /
``--monitor-port`` / an explicit ``monitor=`` argument), and it talks to
it in records only: :meth:`RunMonitor.record` folds one ``live`` or
``live_state`` record into a :class:`~repro.telemetry.live.LiveRunState`
(:meth:`~repro.telemetry.live.LiveRunState.fold`), and the state is
exposed three ways:

1. an HTTP endpoint on a background thread (stdlib ``http.server``, no
   dependencies, imported only when a port is asked for): ``/metrics``
   in Prometheus text format, ``/healthz``, and ``/state`` as JSON (what
   the ``pace-est monitor`` CLI renders);
2. a structured-log status line (:mod:`repro.util.logging`) with
   run-id/actor/phase fields;
3. an append-only live JSONL stream (``--live-out``): every ``live``
   record as it comes, plus the folded master side as a ``live_state``
   record, which :func:`~repro.telemetry.live.replay_live_records` folds
   back into the same state.

Status lines and ``live_state`` records go out at most once per interval
of the run clock (the records' ``ts``; virtual seconds in the
simulator), so a run's stream is a function of the run, not of the host.

Thread model: :meth:`RunMonitor.record` folds under one lock; the HTTP
handler renders under the same lock.  When ``monitor is None`` nothing
here runs — the engines guard every call site.  Every engine brackets
its run with :func:`monitored_run`, which owns the monitor's lifecycle.

Metric naming follows the Prometheus conventions: ``pace_`` prefix,
``_total`` suffix on counters, base units in the name (``_bytes``,
``_seconds``, ``_ratio``), per-slave time series via a ``slave`` label;
every family is one group of samples under one ``# TYPE`` line.  The
full convention is documented in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO

from repro.telemetry.live import LiveRunState
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


def _family(lines: list[str], name: str, mtype: str, samples) -> None:
    """One metric family: its ``# TYPE`` line, then every
    ``(labels, value)`` sample, contiguous.  No samples, no family."""
    samples = list(samples)
    if not samples:
        return
    lines.append(f"# TYPE {name} {mtype}")
    for labels, value in samples:
        if isinstance(value, bool):
            value = int(value)
        lines.append(f"{name}{labels} {value}")


def _get(key: str):
    return lambda row: row.get(key, 0)


#: Per-slave families, over ``/state``'s slave views.
_SLAVE_FAMILIES = (
    ("pace_slave_up", "gauge", lambda v: v["state"] != "lost"),
    ("pace_slave_incarnation", "gauge", _get("incarnation")),
    ("pace_slave_pairs_generated_total", "counter", _get("pairs_generated")),
    ("pace_slave_alignments_total", "counter", _get("alignments")),
    ("pace_slave_dp_cells_total", "counter", _get("dp_cells")),
    ("pace_slave_pairbuf_depth", "gauge", _get("pairbuf_depth")),
    ("pace_slave_progress_ratio", "gauge", lambda v: f"{v['position']:.6f}"),
    ("pace_slave_rss_bytes", "gauge", _get("rss_bytes")),
    ("pace_slave_cpu_seconds_total", "counter", lambda v: f"{v['cpu_seconds']:.3f}"),
    ("pace_slave_straggler", "gauge", _get("straggler")),
)

#: Per-shard families, over ``ShardedMaster.shard_states()`` dicts.
_SHARD_FAMILIES = (
    ("pace_shard_slaves", "gauge", _get("slaves")),
    ("pace_shard_busy_slaves", "gauge", _get("busy")),
    ("pace_shard_lost_slaves", "gauge", _get("lost")),
    ("pace_shard_workbuf_depth", "gauge", _get("workbuf_depth")),
    ("pace_shard_pairs_dispatched_total", "counter", _get("pairs_dispatched")),
    ("pace_shard_merges_total", "counter", _get("merges")),
    ("pace_shard_pairs_pruned_total", "counter", _get("pruned")),
    ("pace_shard_unions_absorbed_total", "counter", _get("unions_absorbed")),
    ("pace_shard_sync_pruned_total", "counter", _get("sync_pruned")),
)


def render_prometheus(state: LiveRunState, histograms: dict | None = None) -> str:
    """The ``/metrics`` payload: Prometheus text exposition format,
    rendered from the live state alone (no client library), one group
    per family.

    ``histograms`` (name → :class:`~repro.telemetry.registry.Histogram`,
    e.g. an attached registry's) adds ``_p50``/``_p99`` quantile gauges
    per histogram — plus ``_p999`` for the ``latency.*`` stage
    distributions, whose extreme tail is the whole point.
    """
    snap = state.as_dict()
    lines: list[str] = []
    eta = snap["eta_seconds"]
    for name, mtype, value in (
        ("pace_up", "gauge", 1),
        ("pace_run_finished", "gauge", snap["finished"]),
        ("pace_run_progress_ratio", "gauge", f"{snap['progress']:.6f}"),
        ("pace_run_eta_seconds", "gauge", None if eta is None else f"{eta:.3f}"),
        ("pace_run_elapsed_seconds", "gauge", f"{snap['now']:.3f}"),
        ("pace_run_slaves", "gauge", snap["n_slaves"]),
        ("pace_workbuf_depth", "gauge", snap["workbuf_depth"]),
        ("pace_messages_total", "counter", snap["messages"]),
        ("pace_merges_total", "counter", snap["merges"]),
        ("pace_pairs_dispatched_total", "counter", snap["pairs_dispatched"]),
        *(
            (f"pace_fault_{name}_total", "counter", count)
            for name, count in sorted(snap["faults"].items())
        ),
    ):
        if value is not None:
            _family(lines, name, mtype, [("", value)])

    master = snap["master"]
    if master["samples"]:
        _family(lines, "pace_master_rss_bytes", "gauge", [("", master["rss_bytes"])])
        _family(
            lines, "pace_master_cpu_seconds_total", "counter",
            [("", f"{master['cpu_seconds']:.3f}")],
        )

    shards = [(f'{{shard="{s.get("shard_id", 0)}"}}', s) for s in snap["shards"]]
    for name, mtype, get in _SHARD_FAMILIES:
        _family(lines, name, mtype, ((lab, get(s)) for lab, s in shards))

    stragglers = set(snap["stragglers"])
    slaves = []
    for v in snap["slaves"]:
        k = v["slave_id"]
        slaves.append((f'{{slave="{k}"}}', {**v, "straggler": k in stragglers}))
    for name, mtype, get in _SLAVE_FAMILIES:
        _family(lines, name, mtype, ((lab, get(v)) for lab, v in slaves))

    for name, hist in sorted((histograms or {}).items()):
        if hist.count == 0:
            continue  # NaN quantiles have no place on a scrape endpoint
        base = "pace_" + name.replace(".", "_").replace("-", "_")
        quantiles = [("p50", 0.50), ("p99", 0.99)]
        if name.startswith("latency."):
            quantiles.append(("p999", 0.999))
        for suffix, mtype, value in (
            ("count", "counter", hist.count),
            ("sum", "counter", f"{hist.sum:.9g}"),
            *((label, "gauge", f"{hist.quantile(q):.9g}") for label, q in quantiles),
        ):
            _family(lines, f"{base}_{suffix}", mtype, [("", value)])
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# terminal rendering (the `pace-est monitor` table)
# --------------------------------------------------------------------- #


def _fmt_bytes(n: int) -> str:
    if n <= 0:
        return "-"
    mb = n / (1024 * 1024)
    return f"{mb:,.1f}M" if mb < 1024 else f"{mb / 1024:,.2f}G"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max([len(h), *(len(r[i]) for r in rows)]) for i, h in enumerate(headers)
    ]
    return ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in [headers, *rows]]


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
    lines = [head, line2, "", *_table(headers, rows)]
    shards = state.get("shards") or []
    if shards:
        # The columns are the shard metric families, in their order.
        sh_headers = [
            "shard", "slaves", "busy", "lost", "workbuf",
            "dispatched", "merges", "pruned", "sync-in", "sync-pruned",
        ]
        sh_rows = [
            [f"shard{s.get('shard_id', i)}"]
            + [str(get(s)) for _, _, get in _SHARD_FAMILIES]
            for i, s in enumerate(shards)
        ]
        lines += ["", *_table(sh_headers, sh_rows)]
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
# the monitor
# --------------------------------------------------------------------- #


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
        self._server = None  # a ThreadingHTTPServer once begin_run binds one
        self._thread: threading.Thread | None = None
        self._live_path = live_out
        self._live_fh: IO[str] | None = None
        self._owns_fh = False
        self._log = (log or get_logger()).bind(run=self.run_id, actor="monitor")
        self._last_state_rec = self._last_status = float("-inf")
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
        records: its ``origin`` is published on ``/state`` and in the live
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
            self._last_state_rec = self._last_status = float("-inf")
            self._open_live_sink(
                n_processors=n_slaves + 1, engine=engine, clock=clock, origin=origin
            )
        if self.requested_port is not None and self._server is None:
            # Only a run that asked for a port pays for http.server.
            from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

            monitor = self

            class Handler(BaseHTTPRequestHandler):
                def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
                    path = self.path.split("?", 1)[0]
                    if path == "/metrics":
                        body = monitor.metrics_text().encode()
                        ctype = "text/plain; version=0.0.4; charset=utf-8"
                    elif path == "/healthz":
                        body = b'{"status": "ok"}\n'
                        ctype = "application/json"
                    elif path == "/state":
                        body = (json.dumps(monitor.state_dict()) + "\n").encode()
                        ctype = "application/json"
                    else:
                        self.send_error(
                            404, "unknown path (try /metrics, /healthz, /state)"
                        )
                        return
                    self.send_response(200)
                    self.send_header("Content-Type", ctype)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)

                def log_message(self, format: str, *args) -> None:  # noqa: A002
                    pass  # scrapes must not spam the run's stderr

            server = ThreadingHTTPServer(("127.0.0.1", self.requested_port), Handler)
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
        from repro.telemetry.sinks import SCHEMA_VERSION

        # Stream meta first, like every telemetry JSONL; no total_time yet
        # (the final live_state record carries finished=true instead).
        self._write_record(
            {"kind": "meta", "schema": SCHEMA_VERSION, "stream": "live",
             "run_id": self.run_id,
             **{k: v for k, v in meta.items() if v is not None}}
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

    # ---- the engine-facing entry point (no-throw, lock-guarded) ------- #

    def _write_record(self, rec: dict) -> None:
        if self._live_fh is not None:
            try:
                self._live_fh.write(json.dumps(rec) + "\n")
                self._live_fh.flush()
            except OSError:
                self._live_fh = None  # a dead sink must not kill the run

    def record(self, rec: dict) -> None:
        """Fold one ``live`` or ``live_state`` record into the run state.

        A ``live`` record streams to the live sink as it comes.  After a
        ``live_state`` record the folded master side goes out as a
        ``live_state`` record (with the derived ``progress``) at most
        once per ``interval`` of the run clock, a status line at most
        once per ``max(interval, 5)``, and a rise in the ``slaves_lost``
        / ``restarts`` fault counters is logged at once, with the rise
        (``new``) and the total.  The counters carry no slave ids; the
        trace's ``fault`` events name each slave."""
        with self._lock:
            state = self.state
            if state is None:
                return
            before = state.fault_counters  # a fold replaces, never mutates, it
            state.fold(rec)
            if rec["kind"] == "live":
                self._write_record(rec)
                return
            if state.now - self._last_state_rec >= self.interval:
                self._last_state_rec = state.now
                self._write_record(state.state_record())
            status = state.now - self._last_status >= max(self.interval, 5.0)
            if status:
                self._last_status = state.now
            after = state.fault_counters
        for key, message in (
            ("slaves_lost", "slave lost"), ("restarts", "slave restarted")
        ):
            new = after.get(key, 0) - before.get(key, 0)
            if new > 0:
                self._log.warning(message, new=new, **{key: after[key]})
        if status:
            self._status_line()

    def finish(self, total_time: float | None = None) -> None:
        """The run completed: pin progress to 1.0, flush a final state
        record and a final status line."""
        with self._lock:
            if self.state is None:
                return
            self.state.finish(total_time)
            self._write_record(self.state.state_record())
        self._status_line()

    def _status_line(self) -> None:
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
    the run at the newest run-clock reading the monitor folded; an
    exception skips that, so a dead run is never reported as complete.
    An owned monitor is closed either way — its HTTP thread and port must
    not outlive a run that raised.  Stragglers are flagged after
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
