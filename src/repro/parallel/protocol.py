"""The master–slave clustering protocol (§3.3), engine-agnostic.

:class:`MasterLogic` and :class:`SlaveLogic` implement the paper's
protocol as pure state machines — one method call per message — so the
same code runs unchanged under the discrete-event simulator
(:mod:`repro.parallel.sim_machine`) and the real multiprocessing backend
(:mod:`repro.parallel.mp_backend`).  The engines differ only in how they
move messages and account time.

Protocol recap (from the paper):

- The master holds ``WORKBUF`` (pairs awaiting alignment, a bounded queue)
  and ``CLUSTERS`` (union–find).  Each slave message carries R alignment
  results and P promising pairs.  The master merges clusters for accepted
  results, admits into WORKBUF only pairs whose ESTs are in different
  clusters (count P′), then replies with W ≤ batchsize pairs of work and a
  request for E further pairs, where ``E = min(α · δ · batchsize,
  nfree / p)`` with ``α = P/P′`` and ``δ = p / active_slaves``.  A reply
  with neither work nor a request is withheld and the slave parks on a
  wait queue until work appears.
- Each slave holds its local GST portion (the pair generator), ``PAIRBUF``
  (generated pairs not yet shipped) and ``NEXTWORK`` (the next batch to
  align).  It aligns NEXTWORK while the master's reply travels, so
  communication is overlapped with computation; at bootstrap it generates
  three batchsize portions — aligns the first, ships the third, keeps the
  second as NEXTWORK.

One pragmatic addition: each slave message carries
``has_pending_results`` (it still holds an unreported NEXTWORK), which
lets the master drain in-flight work before sending ``stop`` without
guessing bootstrap portion sizes.

Custody: every pair sits in exactly one place, as a row of one record,
and pairs move between places as blocks (:class:`~repro.pairs.pair
.PairBlock`).  WORKBUF is one :class:`Custody` — a block with each row's
work unit and admission time as columns; a grant in flight is
``(custody, sent_at)``, the rows it took out of WORKBUF; PAIRBUF is a
block with its rows' units.  ``unit`` is the pair's causal work-unit id
(:mod:`repro.telemetry.causal`), ``since`` and ``sent_at`` the engine
clock at admission and dispatch.  Admission, the wave walk and pruning
test whole blocks against CLUSTERS at once; a ``Pair`` record is built
only where one pair is handled alone — by the aligner, and in the
results that come back.  Latency observations and lifecycle
events go to the run's :class:`~repro.telemetry.spans.Telemetry`
session, always: an untraced run hands in a disabled session, which
drops everything, and its masters and slaves mint only ``NO_UNIT``, so
the code an untraced run executes is the code a causal trace describes.
Unit ids go on the wire only when the run is traced.

Fault extension (not in the paper, which assumes immortal slaves): the
master tracks the grants it dispatched to each slave that have not yet
been reported back (``in_flight``).  :meth:`MasterLogic.slave_lost`
removes a dead slave from the protocol — off the wait queue, counted out
of ``active_slaves`` and termination — and requeues its unreported
dispatched pairs into WORKBUF so no accepted merge can be lost.
:meth:`MasterLogic.slave_revived` re-admits the same slave id when the
engine forks a replacement (which re-enters via a fresh bootstrap), and
:meth:`MasterLogic.absorb_pairs` lets an engine feed master-regenerated
pairs through the normal admission filter (degraded recovery; see
:mod:`repro.parallel.faults`).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.align.extend import PairAligner
from repro.align.scoring import AlignmentResult
from repro.cluster.manager import ClusterManager
from repro.cluster.waves import DEFER, STALE, TAKE, Speculation, next_wave
from repro.pairs.ondemand import OnDemandPairGenerator
from repro.pairs.pair import EMPTY_BLOCK, Pair, PairBlock, as_block
from repro.parallel.dispatch import DispatchPolicy, RequestContext, make_policy
from repro.telemetry.causal import NO_UNIT, NULL_MINTER, UnitMinter
from repro.telemetry.spans import Telemetry

__all__ = ["SlaveMsg", "MasterMsg", "MasterLogic", "SlaveLogic", "Custody"]

_NO_UNITS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Custody:
    """Pairs in one place of custody, as columns: the block, each row's
    work unit (int64) and the engine time it entered WORKBUF (float64).

    Iterating yields ``(pair, unit, since)`` per row, for inspection; the
    protocol only slices and joins records."""

    block: PairBlock
    units: np.ndarray
    since: np.ndarray

    def __len__(self) -> int:
        return len(self.block)

    def __iter__(self) -> Iterator[tuple[Pair, int, float]]:
        return zip(self.block, self.units.tolist(), self.since.tolist())

    def __getitem__(self, rows) -> "Custody":
        return Custody(self.block[rows], self.units[rows], self.since[rows])

    @staticmethod
    def join(parts: Sequence["Custody"]) -> "Custody":
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return NO_CUSTODY
        return Custody(
            PairBlock.concat([p.block for p in parts]),
            np.concatenate([p.units for p in parts]),
            np.concatenate([p.since for p in parts]),
        )


NO_CUSTODY = Custody(EMPTY_BLOCK, _NO_UNITS, np.zeros(0))


@dataclass(frozen=True)
class SlaveMsg:
    """Slave → master: R results + P promising pairs."""

    slave_id: int
    results: tuple[tuple[Pair, AlignmentResult, bool], ...]
    #: The P pairs, one block (pickled as one buffer); ``Pair`` records
    #: are accepted too and packed at admission.
    pairs: PairBlock | Sequence[Pair]
    exhausted: bool  # generator dry and PAIRBUF empty (a passive slave)
    has_pending_results: bool  # NEXTWORK non-empty at send time
    #: Sender clock at send time (session-origin seconds for the mp
    #: backend, virtual seconds under the simulator); -1.0 = unstamped,
    #: so receivers can tell "telemetry off" from "sent at t=0".
    sent_at: float = -1.0
    #: Causal work-unit id per pair in ``pairs`` (same length), or empty
    #: when causal tracing is off — the same additive convention as
    #: ``sent_at``, so untraced runs and old pickles are unaffected.
    pair_units: tuple[int, ...] = ()

    @property
    def n_results(self) -> int:
        return len(self.results)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class MasterMsg:
    """Master → slave: W pairs of work + request for E pairs (or stop)."""

    work: PairBlock | Sequence[Pair]
    request: int
    stop: bool = False
    #: See :attr:`SlaveMsg.sent_at`.
    sent_at: float = -1.0
    #: See :attr:`SlaveMsg.pair_units` (ids per pair in ``work``).
    work_units: tuple[int, ...] = ()

    @property
    def n_pairs(self) -> int:
        return len(self.work)


@dataclass
class MasterStats:
    """Master-side accounting (feeds WorkCounters and the busy-fraction
    measurement behind the paper's 'master is under 2% busy' claim)."""

    messages: int = 0
    results_received: int = 0
    results_accepted: int = 0  # alignments strong enough to merge
    pairs_offered: int = 0
    pairs_admitted: int = 0  # Σ P′
    pairs_dispatched: int = 0
    merges: int = 0
    workbuf_peak: int = 0
    pairs_reassigned: int = 0  # in-flight pairs requeued from lost slaves
    #: Admitted pairs dropped from WORKBUF unaligned because their ESTs
    #: came to share a cluster: after a cross-shard merge, or at dispatch.
    pairs_pruned: int = 0
    #: Pairs looked at while choosing waves (WORKBUF candidates plus the
    #: in-flight pairs seeding the speculation): the master's dispatch
    #: work, which the simulator charges for.
    pairs_examined: int = 0

    @property
    def pairs_skipped(self) -> int:
        """Offered pairs never aligned: refused admission, or admitted and
        later dropped from WORKBUF as co-clustered."""
        return self.pairs_offered - self.pairs_admitted + self.pairs_pruned


class MasterLogic:
    """The master processor's state machine."""

    def __init__(
        self,
        n_ests: int,
        n_slaves: int,
        *,
        batchsize: int,
        workbuf_capacity: int,
        telemetry: Telemetry | None = None,
        policy: DispatchPolicy | str = "paper",
        causal_actor: str = "master",
        causal_shard: int = 0,
    ) -> None:
        if n_slaves < 1:
            raise ValueError("need at least one slave")
        self.n_slaves = n_slaves
        self.batchsize = batchsize
        self.workbuf_capacity = workbuf_capacity
        self.manager = ClusterManager(n_ests)
        self.workbuf: Custody = NO_CUSTODY
        self.passive: set[int] = set()
        self.stopped: set[int] = set()
        self.waiting: set[int] = set()
        self.lost: set[int] = set()
        self.pending_results: dict[int, bool] = {}
        # Grants dispatched to each slave and not yet reported back, as
        # ``(entries, sent_at)``.  Replies and slave messages strictly
        # alternate per slave, and the results in a message cover the
        # grant from the *previous* reply (the newest grant is the
        # NEXTWORK the slave is still holding), so at most the two newest
        # grants are ever outstanding.
        self.in_flight: dict[int, deque[tuple[Custody, float]]] = {}
        self.stats = MasterStats()
        #: The run's session.  Its latency store receives ``queue_master``
        #: (per-pair WORKBUF dwell, admission or requeue → dispatch) and
        #: ``rtt`` (dispatch → results absorbed, per non-empty grant),
        #: timed by the ``now=`` the engine passes on every call; under
        #: causal tracing it receives a lifecycle record at each custody
        #: transfer, under ``causal_actor``, and unit ids go on the wire.
        #: The default, a disabled session, drops them all.
        if telemetry is None:
            telemetry = Telemetry(enabled=False)
        self.telemetry = telemetry
        self.latency = telemetry.latency
        #: The work-allocation policy computing each reply's request size
        #: (:mod:`repro.parallel.dispatch`).  The default reproduces the
        #: paper's formula bit for bit.
        self.policy = make_policy(policy)
        self.causal_actor = causal_actor
        # Units for regenerated pairs (absorb_pairs); the shard index
        # rides the incarnation bits so shards can never collide.
        self._recovery_mint = (
            UnitMinter(-1, causal_shard) if telemetry.causal else NULL_MINTER
        )
        # What CLUSTERS would be if every in-flight pair were accepted
        # (see _next_wave), and the waves chosen since it was last rebuilt.
        self._speculation = Speculation(self.manager)
        self._speculation_age = 0
        self._parked = 0  # head pairs of WORKBUF deferred on it

    # ------------------------------------------------------------------ #

    @property
    def active_slaves(self) -> int:
        return self.n_slaves - len(self.passive)

    @property
    def nfree(self) -> int:
        return self.workbuf_capacity - len(self.workbuf)

    @property
    def workbuf_depth(self) -> int:
        return len(self.workbuf)

    def finished(self) -> bool:
        return len(self.stopped | self.lost) == self.n_slaves

    def _record(
        self,
        event: str,
        units: Iterable[int],
        now: float,
        *,
        slave: int | None = None,
        reason: str | None = None,
    ) -> None:
        """One ``event`` per distinct unit among ``units`` (one per pair);
        ``NO_UNIT`` pairs (from an untraced sender) are skipped."""
        tel = self.telemetry
        if not tel.causal:
            return
        units = np.asarray(units).tolist()
        for u, n in Counter(u for u in units if u != NO_UNIT).items():
            tel.record_causal(
                event, u, n, actor=self.causal_actor, ts=now, slave=slave, reason=reason
            )

    # ------------------------------------------------------------------ #

    def on_message(self, msg: SlaveMsg, *, now: float = 0.0) -> MasterMsg | None:
        """Incorporate one slave message; return the reply, or ``None`` to
        park the slave on the wait queue (reply later via
        :meth:`drain_wait_queue`).

        ``now`` is the engine's clock (wall or virtual); it only stamps
        latency observations and causal events.
        """
        self.stats.messages += 1
        self.pending_results[msg.slave_id] = msg.has_pending_results
        # The results just received cover every grant except the newest
        # one (still held as the slave's NEXTWORK).
        flight = self.in_flight.get(msg.slave_id, ())
        while len(flight) > 1:
            entries, sent_at = flight.popleft()
            # A retired grant's round trip ends here.  Empty grants
            # (result-eliciting pings) carry no work unit.
            if entries:
                self.latency.observe("rtt", now - sent_at)
                self._record("absorbed", entries.units, now, slave=msg.slave_id)

        # 1. Update CLUSTERS from the R results.
        for pair, result, accepted in msg.results:
            self.stats.results_received += 1
            if accepted:
                self.stats.results_accepted += 1
                self._merge(pair, result)
            else:
                self._speculation.rejected(pair)

        # 2. Selectively admit offered pairs (the P′ selection of §3.3).
        # The E formula keeps inflow below nfree/p per slave, so overflow
        # is at most transient; admission is never refused because a
        # dropped pair could lose a merge witness (capacity is the *target*
        # the request computation steers toward, as in §3.3).
        pairs = as_block(msg.pairs)
        self.stats.pairs_offered += len(pairs)
        admitted = self._admit(pairs, msg.pair_units, now)
        self.stats.pairs_admitted += admitted

        if msg.exhausted:
            self.passive.add(msg.slave_id)

        return self._reply_for(msg.slave_id, len(pairs), admitted, now)

    def _admit(
        self,
        pairs: PairBlock,
        units: Sequence[int] | np.ndarray,
        now: float,
        *,
        event: str = "admitted",
        reason: str = "admission",
        slave: int | None = None,
    ) -> int:
        """Queue the pairs whose ESTs are in different clusters as WORKBUF
        rows stamped ``now``; record ``event`` for their units and
        ``pruned`` (``reason``) for the rest's.  Returns how many were
        queued.  ``units`` runs parallel to ``pairs``; a sender that ships
        none (an untraced one) has its pairs queued as ``NO_UNIT``."""
        n = len(pairs)
        if len(units) == n:
            units = np.asarray(units, dtype=np.int64)
        else:
            units = np.full(n, NO_UNIT, dtype=np.int64)
        live = ~self.manager.co_clustered(pairs)
        kept = Custody(pairs[live], units[live], np.full(int(live.sum()), float(now)))
        if len(kept):
            self.workbuf = Custody.join([self.workbuf, kept])
        self._record(event, kept.units, now, slave=slave)
        self._record("pruned", units[~live], now, slave=slave, reason=reason)
        if len(self.workbuf) > self.stats.workbuf_peak:
            self.stats.workbuf_peak = len(self.workbuf)
        return len(kept)

    def _refresh_speculation(self) -> None:
        """Rebuild the speculation from exactly the grants in flight."""
        in_flight = Custody.join(
            [entries for grants in self.in_flight.values() for entries, _ in grants]
        ).block
        self._speculation.restart(in_flight)
        self._speculation_age = 0
        self._parked = 0
        self.stats.pairs_examined += len(in_flight)

    def _next_wave(self, now: float, *, exact: bool = False) -> Custody:
        """Pop the WORKBUF entries of the next conflict-free wave (at most
        one batchsize).

        The walk is :func:`~repro.cluster.waves.next_wave` from the head of
        WORKBUF with the grants in flight at the slaves taken as
        undecided: a pair whose ESTs already share a cluster is dropped
        and counted in ``pairs_pruned``; a pair that the in-flight grants
        or earlier pairs of this wave would connect if they were all
        accepted stays at the head of WORKBUF, entry and order kept.

        To keep a wave's cost near O(batchsize) whatever is in flight or
        parked, the speculation is kept between waves — each wave adds its
        own pairs, :meth:`_merge` mirrors each accepted result — and the
        first ``_parked`` pairs of WORKBUF, already deferred on it, are
        passed over: it has only grown since.  Every ``n_slaves`` waves —
        about once per round of slave messages, the time a batch takes to
        come back — it is rebuilt from the in-flight grants and all of
        WORKBUF is walked again.  Until then the link of a rejected pair
        lingers, which can only defer more, so a caller whose next step
        rests on a wave being empty asks for ``exact``: an empty wave is
        then chosen again on a rebuilt speculation, and with nothing in
        flight it is empty only if WORKBUF ends up empty.
        """
        fresh = self._speculation_age >= self.n_slaves
        if fresh:
            self._refresh_speculation()
        wave = self._walk_workbuf(now)
        if exact and not fresh and not wave and self.workbuf:
            self._refresh_speculation()
            wave = self._walk_workbuf(now)
        self._speculation_age += 1
        return wave

    def _walk_workbuf(self, now: float) -> Custody:
        """One :func:`next_wave` over WORKBUF past its parked head; the
        taken and the stale rows leave WORKBUF, the rest keep their place."""
        held, parked = self.workbuf, self._parked
        start = parked

        def pull() -> PairBlock:
            nonlocal start
            stop = min(start + self.batchsize, len(held))
            chunk = held.block[start:stop]
            start = stop
            return chunk

        verdicts: list[int] = []
        for _, marks in next_wave(self._speculation, pull, self.batchsize):
            verdicts += marks  # only the last chunk's can fall short of it
        marks = np.asarray(verdicts, dtype=np.int8)
        taken = parked + np.flatnonzero(marks == TAKE)
        stale = parked + np.flatnonzero(marks == STALE)
        if taken.size or stale.size:
            keep = np.ones(len(held), dtype=bool)
            keep[taken] = False
            keep[stale] = False
            self.workbuf = held[keep]
        self._parked = parked + verdicts.count(DEFER)
        self.stats.pairs_pruned += stale.size
        self.stats.pairs_examined += len(verdicts)
        self._record("pruned", held.units[stale], now, reason="dispatch")
        return held[taken]

    def _merge(self, pair: Pair, result: AlignmentResult) -> bool:
        """Apply an accepted result to CLUSTERS, keeping the speculation's
        view of the two roots joined; True iff it united two clusters."""
        manager = self.manager
        root_a, root_b = manager.find(pair.est_a), manager.find(pair.est_b)
        if root_a == root_b:
            return False
        manager.merge(pair, result)
        self._speculation.link(root_a, root_b)
        self.stats.merges += 1
        return True

    def _take_work(self, now: float, *, exact: bool = False) -> Custody:
        """The next wave as a grant's rows, observing each pair's
        WORKBUF dwell time."""
        if not self.workbuf:
            return NO_CUSTODY
        wave = self._next_wave(now, exact=exact)
        for since in wave.since.tolist():
            self.latency.observe("queue_master", now - since)
        self.stats.pairs_dispatched += len(wave)
        return wave

    def _reply_for(
        self, slave_id: int, p: int, p_prime: int, now: float = 0.0
    ) -> MasterMsg | None:
        # W: up to batchsize pairs of work.
        work = self._take_work(now)

        # E: how many pairs to request next time.
        e = self._compute_request(slave_id, p, p_prime, now)

        if work or e > 0:
            return self._dispatch(slave_id, work, e, now)

        # Nothing to give and nothing to ask for.
        if self._all_done(slave_id):
            self._note_stop(slave_id)
            return MasterMsg(work=(), request=0, stop=True)
        self.waiting.add(slave_id)
        return None

    def _dispatch(
        self, slave_id: int, grant: Custody, request: int, now: float
    ) -> MasterMsg:
        """Record a (possibly empty) grant and build its reply; emptiness
        matters because receipt bookkeeping relies on strict
        reply/message alternation per slave."""
        self.in_flight.setdefault(slave_id, deque()).append((grant, now))
        self._record("dispatched", grant.units, now, slave=slave_id)
        return MasterMsg(
            work=grant.block,
            request=request,
            work_units=tuple(grant.units.tolist()) if self.telemetry.causal else (),
        )

    def _note_stop(self, slave_id: int) -> None:
        self.stopped.add(slave_id)
        self.in_flight.pop(slave_id, None)

    def queue_depth(self, slave_id: int) -> tuple[int, int]:
        """Non-empty grants in flight at ``slave_id``, and their pairs."""
        grants = self.in_flight.get(slave_id, ())
        sizes = [len(entries) for entries, _ in grants if entries]
        return len(sizes), sum(sizes)

    def _compute_request(
        self, slave_id: int, p: int, p_prime: int, now: float = 0.0
    ) -> int:
        """Grant size E for this reply, delegated to the dispatch policy.

        Passivity is a protocol invariant (a passive slave must never be
        asked for pairs or termination deadlocks), so it is enforced here
        rather than left to policies.
        """
        if slave_id in self.passive:
            return 0
        batches, pairs = self.queue_depth(slave_id)
        ctx = RequestContext(
            slave_id=slave_id,
            p=p,
            p_prime=p_prime,
            batchsize=self.batchsize,
            nfree=self.nfree,
            workbuf_depth=len(self.workbuf),
            workbuf_capacity=self.workbuf_capacity,
            n_slaves=self.n_slaves,
            active_slaves=self.active_slaves,
            passive=False,
            in_flight_batches=batches,
            in_flight_pairs=pairs,
            now=now,
        )
        return max(0, int(self.policy.request(ctx)))

    def _all_done(self, slave_id: int) -> bool:
        """May this slave be stopped outright?"""
        if self.workbuf:
            return False
        if self.pending_results.get(slave_id, False):
            return False
        # Only safe when no pair can ever appear again: every slave passive.
        return len(self.passive) == self.n_slaves

    # ------------------------------------------------------------------ #

    def drain_wait_queue(self, *, now: float = 0.0) -> list[tuple[int, MasterMsg]]:
        """Replies owed to wait-queued slaves, issued when work appeared or
        global termination became decidable.  Call after every
        :meth:`on_message`.

        WORKBUF can hold nothing but pairs deferred behind in-flight
        grants.  A parked slave holding such a grant (its NEXTWORK) is
        then sent an empty reply to fetch the results: nobody else can
        settle it, and they would have to be fetched before its stop
        anyway.  A parked slave holding none stays parked, not pinged:
        the grants in the way are with slaves that will report, or with
        parked ones just elicited.  Each empty reply retires a non-empty
        grant, so deferral cannot spin; and when no slave owes a message
        the wave is chosen ``exact``, so an empty one means real grants in
        flight at parked slaves, so it cannot stall.  A slave that still
        has pairs to offer is asked for them as soon as the request
        formula allows.
        """
        replies: list[tuple[int, MasterMsg]] = []
        blocked = False  # WORKBUF holds only deferred pairs
        for slave_id in sorted(self.waiting):
            work = NO_CUSTODY
            if not blocked:
                # With no message due to settle anything, what happens
                # next must rest on what is really in flight.
                work = self._take_work(now, exact=not self._reports_due())
            blocked = not work and bool(self.workbuf)
            pending = self.pending_results.get(slave_id, False)
            request = 0 if work else self._compute_request(slave_id, 0, 0, now)
            if work or request > 0:
                # ``request > 0``: parked because WORKBUF was too full to
                # ask for more and all of it deferred; there is room now.
                reply = self._dispatch(slave_id, work, request, now)
            elif blocked:
                if not any(entries for entries, _ in self.in_flight.get(slave_id, ())):
                    continue
                # The grant it holds may be what the deferred pairs wait
                # on, and its results have to be fetched once anyway.
                reply = self._dispatch(slave_id, NO_CUSTODY, 0, now)
            elif len(self.passive) < self.n_slaves:
                continue
            elif pending:
                # Elicit the final results with an empty work message.
                reply = self._dispatch(slave_id, NO_CUSTODY, 0, now)
            else:
                self._note_stop(slave_id)
                reply = MasterMsg(work=(), request=0, stop=True)
            self.waiting.discard(slave_id)
            replies.append((slave_id, reply))
        return replies

    def _reports_due(self) -> bool:
        """Does any slave owe the master a message (replied to, not yet
        heard back from)?"""
        return len(self.waiting | self.stopped | self.lost) < self.n_slaves

    # ------------------------------------------------------------------ #
    # Fault transitions (engine-driven; see repro.parallel.faults).
    # ------------------------------------------------------------------ #

    def slave_lost(self, slave_id: int, *, now: float = 0.0) -> int:
        """Drop a dead slave from the protocol.

        The slave leaves the wait queue, stops counting toward
        ``active_slaves`` and termination, and every pair the master had
        dispatched to it without seeing results is requeued into WORKBUF
        (filtered through the usual already-co-clustered test).  Returns
        the number of pairs requeued.
        """
        if slave_id in self.stopped:
            return 0  # stopped cleanly first; nothing outstanding
        self.lost.add(slave_id)
        self.passive.add(slave_id)
        self.waiting.discard(slave_id)
        self.pending_results[slave_id] = False
        # The requeued pairs are no longer undecided elsewhere: choose the
        # next wave on a rebuilt speculation, or they would defer themselves.
        self._speculation_age = self.n_slaves
        held = Custody.join([grant for grant, _ in self.in_flight.pop(slave_id, ())])
        # Requeued pairs restart the queue clock: their first wait ended
        # in a dead slave and was never work.
        requeued = self._admit(
            held.block,
            held.units,
            now,
            event="requeued",
            reason="requeue",
            slave=slave_id,
        )
        self.stats.pairs_reassigned += requeued
        return requeued

    def slave_revived(self, slave_id: int) -> None:
        """Re-admit a slave id whose replacement process is about to
        re-enter via a fresh bootstrap message."""
        self.lost.discard(slave_id)
        self.passive.discard(slave_id)
        self.stopped.discard(slave_id)
        self.waiting.discard(slave_id)
        # The replacement process starts with nothing in flight.
        self.pending_results.pop(slave_id, None)
        self.in_flight.pop(slave_id, None)

    def prune_workbuf(self, *, now: float = 0.0) -> int:
        """Drop WORKBUF pairs whose ESTs became co-clustered out-of-band
        (foreign unions absorbed during a cross-shard merge).  Admission
        already filters co-clustered pairs, but a merge learned from
        another shard can retroactively make queued pairs redundant; they
        would be dropped at dispatch anyway on the sequential-identity
        argument, so pruning here only saves queue space and alignment
        work.  Returns the number of pairs dropped."""
        # The foreign unions reached CLUSTERS without passing _merge.
        self._speculation_age = self.n_slaves
        held = self.workbuf
        if not held:
            return 0
        redundant = self.manager.co_clustered(held.block)
        pruned = int(redundant.sum())
        if not pruned:
            return 0
        self._record("pruned", held.units[redundant], now, reason="sync")
        self.workbuf = held[~redundant]
        self._parked -= int(redundant[: self._parked].sum())
        self.stats.pairs_pruned += pruned
        return pruned

    def align_locally(self, aligner: PairAligner, *, now: float = 0.0) -> int:
        """Align what is left in WORKBUF in the master itself, wave by
        wave — the last-resort degraded mode when no slave survives to be
        sent work.  Returns the number of alignments performed.

        The pairs leave WORKBUF without a dispatch, so they observe no
        dwell time and their units record the terminal ``absorbed``
        event only.
        """
        aligned = 0
        while self.workbuf:
            wave = self._next_wave(now, exact=True)
            if not wave:
                break
            work = list(wave.block)
            decisions = aligner.align_and_decide_batch(work)
            for pair, (result, accepted) in zip(work, decisions):
                self.stats.results_received += 1
                if accepted:
                    self.stats.results_accepted += 1
                    self._merge(pair, result)
                else:
                    self._speculation.rejected(pair)
            self._record("absorbed", wave.units, now, reason="drain")
            aligned += len(wave)
        return aligned

    def absorb_pairs(
        self, pairs: PairBlock | Iterable[Pair], *, now: float = 0.0
    ) -> int:
        """Admit engine-regenerated pairs (degraded recovery) through the
        normal selection filter.  Returns the number admitted.

        Each call mints a fresh master-origin work unit for its batch —
        the dead slave's ids cannot be recovered, and a distinct recovery
        unit keeps the conservation ledger exact.
        """
        pairs = as_block(pairs)
        unit = self._recovery_mint()
        self.telemetry.record_causal(
            "generated", unit, len(pairs), actor=self.causal_actor, ts=now,
            reason="recovery",
        )
        self.stats.pairs_offered += len(pairs)
        admitted = self._admit(pairs, np.full(len(pairs), unit, dtype=np.int64), now)
        self.stats.pairs_admitted += admitted
        return admitted


@dataclass
class SlaveStepCosts:
    """Work performed during one protocol step (for the cost model).

    ``dp_cells`` is the work the selected host engine actually did;
    ``model_cells`` is the banded-DP-equivalent work the simulated
    machine charges virtual time for (identical when the banded engine
    runs; the band area when the fast k-difference engine runs).
    """

    n_alignments: int = 0
    dp_cells: int = 0
    model_cells: int = 0
    pairs_generated_blocking: int = 0


class SlaveLogic:
    """One slave processor's state machine.

    An interaction is two calls: :meth:`align_pending` right after a
    send (the engines time it), then :meth:`finish_step` on the reply.
    """

    def __init__(
        self,
        slave_id: int,
        generator: OnDemandPairGenerator,
        aligner: PairAligner,
        *,
        batchsize: int,
        pairbuf_capacity: int,
        minter: UnitMinter = NULL_MINTER,
    ) -> None:
        self.slave_id = slave_id
        self.generator = generator
        self.aligner = aligner
        self.batchsize = batchsize
        self.pairbuf_capacity = pairbuf_capacity
        #: PAIRBUF: generated pairs not yet shipped, with each one's unit.
        self.pairbuf: PairBlock = EMPTY_BLOCK
        self._pairbuf_units = _NO_UNITS
        self.nextwork: PairBlock | Sequence[Pair] = EMPTY_BLOCK
        self._nextwork_units = _NO_UNITS
        self.done = False
        self.last_costs = SlaveStepCosts()
        self.total_alignments = 0
        self.total_dp_cells = 0
        self._aligned: tuple[tuple[Pair, AlignmentResult, bool], ...] | None = None
        self._align_costs = SlaveStepCosts()
        #: Mints one work-unit id per generated batch.  Lifecycle facts
        #: accumulate in ``causal_log`` as ``(event, unit, n)`` for the
        #: engine to drain (:meth:`drain_causal`) and stamp with its own
        #: clock; ``NO_UNIT`` facts (the default minter's) are not kept.
        self.minter = minter
        self.causal_log: list[tuple[str, int, int]] = []

    # ------------------------------------------------------------------ #

    def drain_causal(self) -> list[tuple[str, int, int]]:
        """Return and clear the ``(event, unit, n)`` facts accumulated
        since the last drain (the engine stamps them with its clock)."""
        out = self.causal_log
        self.causal_log = []
        return out

    def _log(self, event: str, unit: int, n: int) -> None:
        if n and unit != NO_UNIT:
            self.causal_log.append((event, unit, n))

    def _mint(self, pairs: PairBlock) -> int:
        """A fresh unit for one generated batch."""
        unit = self.minter()
        self._log("generated", unit, len(pairs))
        return unit

    def _fill(self, fetched: PairBlock) -> None:
        """Append a generated batch to PAIRBUF under a fresh unit."""
        if len(fetched):
            units = np.full(len(fetched), self._mint(fetched), dtype=np.int64)
            self.pairbuf = PairBlock.concat((self.pairbuf, fetched))
            self._pairbuf_units = np.concatenate((self._pairbuf_units, units))

    def _wire(self, units: np.ndarray) -> tuple[int, ...]:
        """``pair_units`` for a message: untraced slaves ship none."""
        return tuple(units.tolist()) if self.minter.enabled else ()

    # ------------------------------------------------------------------ #

    def bootstrap(self) -> SlaveMsg:
        """The paper's three-portion start-up: align the first batchsize
        portion, keep the second as NEXTWORK, ship the third."""
        costs = SlaveStepCosts()
        p1 = self.generator.next_batch(self.batchsize)
        p2 = self.generator.next_batch(self.batchsize)
        p3 = self.generator.next_batch(self.batchsize)
        costs.pairs_generated_blocking += len(p1) + len(p2) + len(p3)
        u1, u2, u3 = self._mint(p1), self._mint(p2), self._mint(p3)
        self._log("aligned", u1, len(p1))
        results = self._align_batch(list(p1), costs)
        self.nextwork = p2
        self._nextwork_units = np.full(len(p2), u2, dtype=np.int64)
        self.last_costs = costs
        return SlaveMsg(
            slave_id=self.slave_id,
            results=results,
            pairs=p3,
            exhausted=self.generator.exhausted and not self.pairbuf,
            has_pending_results=bool(self.nextwork),
            pair_units=self._wire(np.full(len(p3), u3, dtype=np.int64)),
        )

    def align_pending(self) -> SlaveStepCosts:
        """Align the current NEXTWORK (the work done while the master's
        reply is in flight).  Idempotent per interaction; the engines call
        it right after a send to learn its duration, :meth:`finish_step`
        consumes the results."""
        if self._aligned is None:
            costs = SlaveStepCosts()
            self._aligned = self._align_batch(list(self.nextwork), costs)
            self._align_costs = costs
            for unit, n in Counter(self._nextwork_units.tolist()).items():
                self._log("aligned", unit, n)
        return self._align_costs

    def finish_step(self, reply: MasterMsg) -> SlaveMsg | None:
        """Act on the master's reply, using the results prepared by
        :meth:`align_pending`."""
        if self._aligned is None:
            raise RuntimeError("finish_step before align_pending")
        results = self._aligned
        costs = self._align_costs
        self._aligned = None
        self._align_costs = SlaveStepCosts()
        if reply.stop:
            if self.nextwork:
                raise RuntimeError(
                    f"slave {self.slave_id} stopped with {len(self.nextwork)} "
                    f"unreported results"
                )
            self.done = True
            self.last_costs = costs
            return None
        self.nextwork = reply.work
        n = len(reply.work)
        self._nextwork_units = (
            np.asarray(reply.work_units, dtype=np.int64)
            if len(reply.work_units) == n
            else np.full(n, NO_UNIT, dtype=np.int64)
        )

        # Fill PAIRBUF toward the requested E (blocking generation; idle
        # generation during the wait is modelled by the engine via
        # :meth:`idle_generate`).
        want = reply.request
        if want > len(self.pairbuf):
            fetched = self.generator.next_batch(want - len(self.pairbuf))
            costs.pairs_generated_blocking += len(fetched)
            self._fill(fetched)
        k = min(want, len(self.pairbuf))
        pairs, units = self.pairbuf[:k], self._pairbuf_units[:k]
        self.pairbuf, self._pairbuf_units = self.pairbuf[k:], self._pairbuf_units[k:]

        self.last_costs = costs
        return SlaveMsg(
            slave_id=self.slave_id,
            results=results,
            pairs=pairs,
            exhausted=self.generator.exhausted and not self.pairbuf,
            has_pending_results=bool(self.nextwork),
            pair_units=self._wire(units),
        )

    def idle_generate(self, max_pairs: int) -> int:
        """Generate up to ``max_pairs`` into PAIRBUF (capacity permitting)
        — the paper's 'generate while waiting for the master'."""
        room = self.pairbuf_capacity - len(self.pairbuf)
        budget = min(max_pairs, room)
        if budget <= 0:
            return 0
        fetched = self.generator.next_batch(budget)
        self._fill(fetched)
        return len(fetched)

    # ------------------------------------------------------------------ #

    def _align_batch(
        self, pairs: list[Pair], costs: SlaveStepCosts
    ) -> tuple[tuple[Pair, AlignmentResult, bool], ...]:
        cells_before = self.aligner.dp_cells_total
        model_before = self.aligner.model_cells_total
        decisions = self.aligner.align_and_decide_batch(pairs)
        out = [
            (pair, result, accepted)
            for pair, (result, accepted) in zip(pairs, decisions)
        ]
        costs.n_alignments += len(pairs)
        costs.dp_cells += self.aligner.dp_cells_total - cells_before
        costs.model_cells += self.aligner.model_cells_total - model_before
        self.total_alignments += costs.n_alignments
        self.total_dp_cells = self.aligner.dp_cells_total
        return tuple(out)
