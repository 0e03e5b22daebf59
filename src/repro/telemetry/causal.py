"""Causal work-unit tracing for the master–slave protocol.

The latency layer (PR 7) answers "how long do stages take in aggregate";
this module answers "what happened to *that* batch".  Every generated
pair batch is minted a compact integer **work-unit id** which rides the
protocol messages (``SlaveMsg.pair_units`` / ``MasterMsg.work_units``,
next to the ``sent_at`` stamps), survives fault requeues and pruning,
and leaves a lifecycle event trail:

``generated`` → ``admitted`` → ``dispatched`` → ``aligned`` →
``absorbed`` | ``requeued`` | ``pruned``

Events are plain dicts (``kind="causal"``) that the run's telemetry
session appends to its one event list as they happen
(:meth:`~repro.telemetry.spans.Telemetry.record_causal`, kept only when
the session's ``causal`` flag is set from ``config.causal_tracing``), so
they are written in the ``repro-telemetry/4`` JSONL schema beside every
other event, and `pace-est analyze`, the Perfetto exporter
(:mod:`repro.telemetry.export`) and `pace-est postmortem` all read the
same records.

Unit ids pack ``(origin actor, incarnation, sequence)`` into one int so a
replacement slave can never collide with its dead predecessor and the
origin is recoverable from the id alone (:func:`unit_parts`); the
incarnation has 8 bits (:data:`MAX_INCARNATION`).  The master mints its
own units for degraded-recovery regeneration (origin ``-1``,
incarnation 0).  An untraced run takes the same code path with
:data:`NULL_MINTER`: every unit is :data:`NO_UNIT`, the session keeps no
record and no id goes on the wire.

Conservation (:func:`check_conservation`) is accounted **master-side**:
only pairs that enter master custody (admitted into WORKBUF) are
balanced, because a crashed slave cannot report what stayed in its
PAIRBUF — that is exactly what the flight recorder captures instead.
For every unit::

    admitted + requeued == dispatched + pruned(dispatch) + workbuf leftover
    dispatched          == absorbed + requeued + pruned(requeue) + in flight

A completed run must balance with zero leftovers (degraded recovery
drains WORKBUF); an interrupted run reports the imbalance as
*in-flight at crash*.  ``absorbed > dispatched`` (double absorb) or
negative leftovers are always errors.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "CAUSAL_EVENTS",
    "NO_UNIT",
    "MAX_INCARNATION",
    "UnitMinter",
    "NULL_MINTER",
    "unit_parts",
    "format_unit",
    "UnitLedger",
    "ConservationReport",
    "check_conservation",
    "REQUEUE_STORM_THRESHOLD",
]

#: The lifecycle event vocabulary (validated by the /4 schema).
CAUSAL_EVENTS = frozenset(
    {"generated", "admitted", "dispatched", "aligned", "absorbed", "requeued", "pruned"}
)

#: Sentinel for "pair carries no unit" (tracing off at the sender).
NO_UNIT = -1

#: ``requeued`` events for one unit at or beyond this count are flagged
#: as a requeue storm by :func:`check_conservation` (a batch bouncing
#: between dying slaves instead of making progress).
REQUEUE_STORM_THRESHOLD = 3

# Bit layout: | origin+1 (23 bits) | incarnation (8 bits) | seq (32 bits) |
_SEQ_BITS = 32
_INC_BITS = 8
_INC_MASK = (1 << _INC_BITS) - 1
_SEQ_MASK = (1 << _SEQ_BITS) - 1

#: Largest incarnation: a slave's restart count.
MAX_INCARNATION = _INC_MASK


class UnitMinter:
    """Mints globally unique unit ids for one ``(origin, incarnation)``.

    ``origin`` is the slave id, or ``-1`` for master-minted units
    (degraded recovery, the sequential pipeline).  Incarnations keep a
    restarted slave's ids disjoint from its predecessor's.
    """

    #: Unit ids go on the wire (:data:`NULL_MINTER` keeps them off).
    enabled = True

    def __init__(self, origin: int, incarnation: int = 0) -> None:
        if origin < -1:
            raise ValueError(f"origin must be >= -1, got {origin}")
        if not 0 <= incarnation <= MAX_INCARNATION:
            raise ValueError(
                f"incarnation must be in [0, {MAX_INCARNATION}], got {incarnation}"
            )
        self.origin = origin
        self.incarnation = incarnation
        self._base = ((origin + 1) << (_INC_BITS + _SEQ_BITS)) | (
            incarnation << _SEQ_BITS
        )
        self._seq = 0

    def __call__(self) -> int:
        uid = self._base | (self._seq & _SEQ_MASK)
        self._seq += 1
        return uid


class _NullUnitMinter:
    """An untraced sender's minter: every batch is :data:`NO_UNIT`."""

    enabled = False

    def __call__(self) -> int:
        return NO_UNIT


NULL_MINTER = _NullUnitMinter()


def unit_parts(unit: int) -> tuple[int, int, int]:
    """Decode a unit id into ``(origin, incarnation, seq)``.

    ``origin`` is ``-1`` for master-minted units.
    """
    return (
        (unit >> (_INC_BITS + _SEQ_BITS)) - 1,
        (unit >> _SEQ_BITS) & _INC_MASK,
        unit & _SEQ_MASK,
    )


def format_unit(unit: int) -> str:
    """Human-readable unit id: ``s<origin>.<incarnation>:<seq>`` (slave
    origins) or ``m:<seq>`` (master-minted)."""
    origin, inc, seq = unit_parts(unit)
    if origin < 0:
        return f"m:{seq}"
    return f"s{origin}.{inc}:{seq}"


# --------------------------------------------------------------------- #
# Conservation accounting.
# --------------------------------------------------------------------- #


@dataclass
class UnitLedger:
    """Per-unit pair counts accumulated from causal records."""

    unit: int
    generated: int = 0  # slave-side mint (informational; lost on crash)
    admitted: int = 0  # pairs entering WORKBUF via admission/absorb_pairs
    dispatched: int = 0
    aligned: int = 0
    absorbed: int = 0  # results returned for dispatched pairs
    absorbed_drain: int = 0  # master-aligned in the final degraded drain
    requeued: int = 0  # pairs readmitted to WORKBUF from a dead slave
    pruned: int = 0  # all prune reasons below
    pruned_admission: int = 0
    pruned_dispatch: int = 0  # found co-clustered when a wave was chosen
    pruned_requeue: int = 0
    pruned_drain: int = 0
    requeue_events: int = 0
    first_ts: float = field(default=float("inf"))
    last_ts: float = field(default=float("-inf"))
    last_slave: int | None = None  # last slave this unit was dispatched to

    @property
    def workbuf_leftover(self) -> int:
        """Pairs admitted to WORKBUF and never dispatched, pruned, or
        drained (queue-side exits only — admission drops never entered;
        drain-absorbed pairs leave WORKBUF without a dispatch)."""
        return (
            self.admitted
            + self.requeued
            - self.dispatched
            - self.pruned_dispatch
            - self.pruned_drain
            - self.absorbed_drain
        )

    @property
    def flight_leftover(self) -> int:
        """Pairs dispatched and never absorbed, requeued, or pruned at
        requeue time."""
        return self.dispatched - self.absorbed - self.requeued - self.pruned_requeue

    @property
    def in_flight(self) -> int:
        """Pairs still in master custody (WORKBUF or slave-held)."""
        return self.workbuf_leftover + self.flight_leftover


@dataclass
class ConservationReport:
    """The outcome of :func:`check_conservation` over one record stream."""

    ledgers: dict[int, UnitLedger]
    #: Units with negative balances (double absorb / unit never admitted).
    orphans: list[str]
    #: Units still holding pairs at the end of the stream (crash
    #: in-flight when the run died; an error on a completed run).
    in_flight: dict[int, int]
    #: Units requeued :data:`REQUEUE_STORM_THRESHOLD`+ times.
    storms: dict[int, int]
    total_admitted: int = 0
    total_absorbed: int = 0
    total_pruned: int = 0

    @property
    def total_in_flight(self) -> int:
        return sum(self.in_flight.values())

    def ok(self, *, allow_in_flight: bool = False) -> bool:
        if self.orphans:
            return False
        return allow_in_flight or not self.in_flight

    def lines(self, *, allow_in_flight: bool = False) -> list[str]:
        """Render the check as report lines for `pace-est analyze`."""
        out = [
            "work-unit conservation: "
            f"{self.total_admitted} admitted == {self.total_absorbed} absorbed "
            f"+ {self.total_pruned} pruned + {self.total_in_flight} in flight "
            f"({len(self.ledgers)} units)"
        ]
        for msg in self.orphans:
            out.append(f"  ERROR {msg}")
        if self.in_flight:
            tag = "in flight at end" if allow_in_flight else "ERROR orphaned"
            for unit, n in sorted(self.in_flight.items()):
                led = self.ledgers[unit]
                where = (
                    f"slave {led.last_slave}" if led.flight_leftover > 0 else "WORKBUF"
                )
                out.append(f"  {tag}: unit {format_unit(unit)} holds {n} pairs ({where})")
        for unit, n in sorted(self.storms.items()):
            out.append(
                f"  WARN requeue storm: unit {format_unit(unit)} requeued {n} times"
            )
        status = "PASS" if self.ok(allow_in_flight=allow_in_flight) else "FAIL"
        out.append(f"  conservation: {status}")
        return out


def check_conservation(records: Iterable[dict]) -> ConservationReport:
    """Balance every work unit's pair flow from its causal records.

    Accepts any record stream (full telemetry JSONL or pre-filtered
    causal records); non-causal records are ignored.
    """
    ledgers: dict[int, UnitLedger] = {}
    requeues: dict[int, int] = defaultdict(int)
    for rec in records:
        if rec.get("kind") != "causal":
            continue
        unit = int(rec.get("unit", NO_UNIT))
        if unit == NO_UNIT:
            continue
        led = ledgers.get(unit)
        if led is None:
            led = ledgers[unit] = UnitLedger(unit=unit)
        event = rec.get("event", "")
        n = int(rec.get("n", 0))
        ts = float(rec.get("ts", 0.0))
        led.first_ts = min(led.first_ts, ts)
        led.last_ts = max(led.last_ts, ts)
        if event == "generated":
            led.generated += n
        elif event == "admitted":
            led.admitted += n
        elif event == "dispatched":
            led.dispatched += n
            if rec.get("slave") is not None:
                led.last_slave = int(rec["slave"])
        elif event == "aligned":
            led.aligned += n
        elif event == "absorbed":
            if rec.get("reason") == "drain":
                led.absorbed_drain += n
            else:
                led.absorbed += n
        elif event == "requeued":
            led.requeued += n
            led.requeue_events += 1
            requeues[unit] += 1
        elif event == "pruned":
            led.pruned += n
            reason = rec.get("reason", "")
            if reason == "admission":
                led.pruned_admission += n
            elif reason == "dispatch":
                led.pruned_dispatch += n
            elif reason == "requeue":
                led.pruned_requeue += n
            elif reason == "drain":
                led.pruned_drain += n

    orphans: list[str] = []
    in_flight: dict[int, int] = {}
    total_admitted = total_absorbed = total_pruned = 0
    for unit, led in sorted(ledgers.items()):
        # Requeues cancel out of the headline identity (a requeued pair
        # leaves flight and re-enters WORKBUF), so first-custody
        # admissions balance exactly:
        #   admitted == absorbed + pruned + in flight.
        total_admitted += led.admitted
        total_absorbed += led.absorbed + led.absorbed_drain
        total_pruned += (
            led.pruned_dispatch + led.pruned_requeue + led.pruned_drain
        )
        name = format_unit(unit)
        if led.dispatched > 0 and led.admitted + led.requeued == 0:
            orphans.append(f"unit {name}: dispatched {led.dispatched} pairs never admitted")
            continue
        if led.workbuf_leftover < 0:
            orphans.append(
                f"unit {name}: WORKBUF balance negative "
                f"({led.dispatched} dispatched + "
                f"{led.pruned_dispatch + led.pruned_drain + led.absorbed_drain} "
                f"pruned/drained > {led.admitted} admitted + {led.requeued} requeued)"
            )
        if led.flight_leftover < 0:
            orphans.append(
                f"unit {name}: double absorb ({led.absorbed} absorbed + "
                f"{led.requeued} requeued + {led.pruned_requeue} pruned > "
                f"{led.dispatched} dispatched)"
            )
        if led.workbuf_leftover >= 0 and led.flight_leftover >= 0 and led.in_flight > 0:
            in_flight[unit] = led.in_flight
    storms = {
        unit: n for unit, n in requeues.items() if n >= REQUEUE_STORM_THRESHOLD
    }
    return ConservationReport(
        ledgers=ledgers,
        orphans=orphans,
        in_flight=in_flight,
        storms=storms,
        total_admitted=total_admitted,
        total_absorbed=total_absorbed,
        total_pruned=total_pruned,
    )
