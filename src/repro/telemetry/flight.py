"""Crash flight recorder: dump the tail of a process's telemetry session.

Aggregate telemetry only reaches disk when a run finishes; a slave that
dies mid-run takes its recent history with it.  Each process (master and
every mp slave) can therefore arm a :class:`FlightRecorder` over its
:class:`~repro.telemetry.spans.Telemetry` session and dump the session's
newest :data:`DEFAULT_CAPACITY` events to ``<dir>/flight-<actor>.jsonl``
when something goes wrong: an unhandled exception, a fault-tolerance
transition, or SIGTERM.  `pace-est postmortem` merges these dumps with
whatever telemetry JSONL made it to disk and reconstructs the run's last
moments.

The ring is the session's own: an enabled session keeps every event
already, and arming a recorder makes a disabled one keep its newest
events in a bounded deque (:meth:`Telemetry.keep_tail`).  So a dump holds
the records the run would have written — spans, machine events, causal
records — stamped by the one run clock.  With no recorder armed, a
disabled session records nothing.

A dump is a ``repro-telemetry/4`` JSONL file like any other stream: a
``meta`` record ::

    {"kind": "meta", "schema": "repro-telemetry/4", "stream": "flight",
     "actor": "slave3", "run_id": "...", "reason": "crash",
     "dumped_at": 0.125, "state": {...}}

then the tail records in run-clock order.  ``state`` is the output of an
optional ``state_provider`` callable — the engines attach one returning
protocol state (in-flight work units and grants, queue depth, stopped
slaves) so the dump names exactly what the process was holding
when it died.
"""

from __future__ import annotations

import json
import os
import signal
from typing import Callable

from repro.telemetry.sinks import SCHEMA_VERSION
from repro.telemetry.spans import Telemetry

__all__ = ["DEFAULT_CAPACITY", "FlightRecorder"]

#: Events a dump holds: enough to cover several protocol round trips per
#: slave without a disabled session ever keeping more than a few hundred
#: small dicts.
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Dump-on-disaster over one process's telemetry session."""

    def __init__(
        self,
        directory: str,
        actor: str,
        telemetry: Telemetry,
        *,
        run_id: str = "",
        state_provider: Callable[[], dict] | None = None,
    ) -> None:
        self.directory = directory
        self.actor = actor
        self.telemetry = telemetry
        self.run_id = run_id
        self.state_provider = state_provider
        self._dumped = False
        telemetry.keep_tail(DEFAULT_CAPACITY)

    @property
    def path(self) -> str:
        return os.path.join(self.directory, f"flight-{self.actor}.jsonl")

    def dump(self, reason: str, *, force: bool = False) -> str | None:
        """Write the session's tail to disk; idempotent unless ``force``.

        The first dump wins (a crash dump should not be overwritten by
        the SIGTERM handler firing during teardown).  Returns the path
        written, or ``None`` when skipped or the write itself failed —
        a flight recorder must never turn a crash into a different crash.
        """
        if self._dumped and not force:
            return None
        tel = self.telemetry
        meta = {
            "kind": "meta",
            "schema": SCHEMA_VERSION,
            "stream": "flight",
            "actor": self.actor,
            "run_id": self.run_id,
            "reason": reason,
            "dumped_at": tel.now(),
            "state": {},
        }
        if self.state_provider is not None:
            try:
                meta["state"] = self.state_provider()
            except Exception as exc:  # pragma: no cover - defensive
                meta["state_error"] = repr(exc)
        records = [meta, *tel.tail(DEFAULT_CAPACITY)]
        try:
            os.makedirs(self.directory, exist_ok=True)
            tmp = f"{self.path}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(rec, default=str) + "\n" for rec in records)
            os.replace(tmp, self.path)
        except OSError:
            return None
        self._dumped = True
        return self.path

    def install_sigterm(self) -> None:
        """Dump on SIGTERM, then die with the conventional 128+SIGTERM
        status (the previous handler is not chained — slaves install
        this in their own forked process)."""

        def _handler(signum, frame):  # pragma: no cover - signal path
            self.dump("sigterm")
            os._exit(128 + signum)

        signal.signal(signal.SIGTERM, _handler)
