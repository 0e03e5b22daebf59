"""Fault injection and recovery for the master–slave runtime.

The paper's §3.3 protocol assumes every slave lives for the whole run —
an acceptable assumption on a 2002 batch-scheduled IBM SP, fatal for a
long-running service.  This module is the fault layer shared by the real
multiprocessing backend (:mod:`repro.parallel.mp_backend`) and the
discrete-event simulator (:mod:`repro.parallel.sim_machine`):

- :class:`FaultSpec` / :class:`FaultPlan` describe *injected* faults
  (kill a slave at its N-th outgoing message, hang it, delay or refuse a
  send, raise inside its compute loop) so recovery paths are testable
  deterministically on both engines;
- :class:`FaultInjector` is the in-process trigger a slave consults
  around every protocol send;
- :class:`FaultTolerance` is the master's recovery policy (detection
  timeout, restart budget, backoff);
- :func:`reabsorb_ranges` is the degraded recovery action: regenerate a
  lost slave's promising pairs inside the master (when no slave survives,
  :meth:`~repro.parallel.protocol.MasterLogic.align_locally` finishes the
  remaining alignments in the master itself).

Recovery is correct because the clustering partition is invariant under
pair re-delivery: generators are deterministic over their bucket ranges,
re-aligning a pair reproduces the same accept decision, merging is
idempotent, and pairs are only skipped when their ESTs already share a
cluster.  Regenerating a lost slave's full range therefore yields a
superset of its unreported pairs without ever changing the final
clusters (the fault tests assert equality with the sequential run).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.pairs.ondemand import OnDemandPairGenerator
from repro.telemetry.causal import MAX_INCARNATION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.protocol import MasterLogic

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FaultTolerance",
    "InjectedFault",
    "SlaveFailure",
    "reabsorb_ranges",
]

#: Exit code of a slave process killed by an injected fault.
KILLED_EXIT_CODE = 77

#: How long a "hang" fault sleeps — long enough that only the master's
#: deadline (not the sleep expiring) can end it in any reasonable test.
_HANG_SECONDS = 3600.0

_FAULT_KINDS = ("kill", "kill_after_send", "hang", "delay", "raise")


class InjectedFault(RuntimeError):
    """Raised inside a slave by a ``raise``-kind fault (exercises the
    typed crash-report path rather than the process-death path)."""


class SlaveFailure(RuntimeError):
    """A slave reported an exception in its own computation.

    Deterministic errors would recur in any replacement slave, so the
    master re-raises instead of restarting; the original traceback is
    carried in ``slave_traceback``.
    """

    def __init__(self, slave_id: int, slave_traceback: str) -> None:
        super().__init__(
            f"slave {slave_id} failed with an unrecoverable error:\n"
            f"{slave_traceback}"
        )
        self.slave_id = slave_id
        self.slave_traceback = slave_traceback


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, keyed to a slave's N-th outgoing message.

    ``kind``:

    - ``"kill"`` — die *before* sending message ``at_message`` (the
      message is lost; for ``at_message=0`` the slave dies before its
      bootstrap report);
    - ``"kill_after_send"`` — send it, then die (in-flight work and
      PAIRBUF are lost);
    - ``"hang"`` — stop responding (detected only by the deadline);
    - ``"delay"`` — sleep ``delay`` seconds before sending (slow slave);
    - ``"raise"`` — raise :class:`InjectedFault` inside the compute loop
      (reported as a typed error, not a crash).

    ``incarnation`` selects which fork generation is hit: 0 is the
    original process, 1 the first replacement, …; ``None`` hits every
    incarnation (defeats restarts, forcing the degraded path).
    """

    slave_id: int
    kind: str
    at_message: int = 0
    delay: float = 0.0
    incarnation: int | None = 0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} ({_FAULT_KINDS})")
        if self.at_message < 0:
            raise ValueError("at_message must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A picklable set of :class:`FaultSpec` shipped to every slave."""

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        return cls(specs=tuple(specs))

    def for_slave(
        self, slave_id: int, incarnation: int = 0
    ) -> tuple[FaultSpec, ...]:
        return tuple(
            s
            for s in self.specs
            if s.slave_id == slave_id
            and (s.incarnation is None or s.incarnation == incarnation)
        )


class FaultInjector:
    """Per-incarnation trigger a slave consults around each send.

    ``before_send``/``after_send`` bracket every outgoing protocol
    message; the message index counts from 0 within one incarnation
    (a replacement slave restarts the count, mirroring its restarted
    generator).
    """

    def __init__(
        self, plan: FaultPlan | None, slave_id: int, incarnation: int = 0
    ) -> None:
        self._specs = (
            () if plan is None else plan.for_slave(slave_id, incarnation)
        )
        self.msg_index = 0
        #: Called just before an injected ``kill``/``kill_after_send``
        #: terminates the process — the flight recorder's last chance to
        #: dump (a real crash has an except clause; ``os._exit`` doesn't).
        self.on_fatal: "Callable[[str], object] | None" = None

    def _match(self, *kinds: str) -> FaultSpec | None:
        for spec in self._specs:
            if spec.at_message == self.msg_index and spec.kind in kinds:
                return spec
        return None

    def before_send(self) -> None:
        spec = self._match("raise")
        if spec is not None:
            raise InjectedFault(
                f"injected failure before message {self.msg_index}"
            )
        spec = self._match("delay")
        if spec is not None:
            time.sleep(spec.delay)
        if self._match("hang") is not None:
            time.sleep(_HANG_SECONDS)
        if self._match("kill") is not None:
            if self.on_fatal is not None:
                self.on_fatal("injected-kill")
            os._exit(KILLED_EXIT_CODE)

    def after_send(self) -> None:
        spec = self._match("kill_after_send")
        self.msg_index += 1
        if spec is not None:
            if self.on_fatal is not None:
                self.on_fatal("injected-kill")
            os._exit(KILLED_EXIT_CODE)


@dataclass(frozen=True)
class FaultTolerance:
    """The master's recovery policy.

    ``slave_timeout`` is the per-slave deadline: a slave that owes the
    master a message and stays silent this long is declared dead even if
    its process object still looks alive (covers hangs and livelocks).
    ``max_restarts`` bounds replacement forks per slave id; beyond it the
    master degrades to regenerating the lost slave's pairs itself.
    ``detection_delay`` is the simulator's virtual-time analogue of the
    sentinel/deadline machinery.
    """

    slave_timeout: float = 60.0
    poll_interval: float = 0.2
    max_restarts: int = 1
    restart_backoff: float = 0.05
    detection_delay: float = 0.5

    def __post_init__(self) -> None:
        if self.slave_timeout <= 0:
            raise ValueError("slave_timeout must be > 0")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        if not 0 <= self.max_restarts <= MAX_INCARNATION:
            # A replacement's incarnation tags its work-unit ids.
            raise ValueError(
                f"max_restarts must be in [0, {MAX_INCARNATION}], "
                f"got {self.max_restarts}"
            )

    def backoff_for(self, restarts_so_far: int) -> float:
        """Exponential backoff before forking the next replacement."""
        return self.restart_backoff * (2**restarts_so_far)


# --------------------------------------------------------------------- #
# Degraded recovery (shared by mp_backend and sim_machine).
# --------------------------------------------------------------------- #


def reabsorb_ranges(
    master: "MasterLogic", generator, *, batch: int = 4096, now: float = 0.0
) -> tuple[int, int]:
    """Regenerate a lost slave's promising pairs inside the master.

    ``generator`` is a fresh pair generator over the dead slave's ranges
    (:func:`~repro.pairs.batch.make_pair_generator`, the same engine the
    slave ran).  Generation is deterministic over those ranges, so this
    reproduces every pair the slave could ever have offered; admission
    filters out pairs whose ESTs already share a cluster.  Returns
    ``(produced, admitted)``.
    """
    source = OnDemandPairGenerator(generator.blocks())
    admitted = 0
    while True:
        block = source.next_batch(batch)
        if not len(block):
            break
        admitted += master.absorb_pairs(block, now=now)
    return source.produced, admitted
