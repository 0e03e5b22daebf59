"""Pluggable master dispatch policies for the §3.3 work-allocation loop.

The paper steers work with a single formula: each reply carries a request
for ``E = min(α·δ·batchsize, nfree/p)`` further pairs, where ``α = P/P′``
measures how useful the slave's last offer was and ``δ`` compensates for
passive slaves.  That formula is one point in a rich design space —
queueing systems built on the same master/worker shape (JBSQ-style
dispatchers, CREW/EREW key-partitioned stores) choose the grant per
worker from live queue state instead, trading a little throughput for a
much thinner latency tail.

This module extracts that choice into a seam:

- :class:`RequestContext` — everything the master knows at the moment it
  computes one reply's request size: the slave's offer (``p``/``p_prime``),
  WORKBUF occupancy, fleet composition, and the slave's in-flight depth
  (non-empty grants not yet reported back, read off the master's own
  grant records);
- :class:`DispatchPolicy` — the interface: one stateless
  :meth:`~DispatchPolicy.request` per reply;
- :class:`PaperFormula` — the bitwise-faithful default.  It consults
  nothing but the paper's inputs, so runs under it are byte-identical to
  the pre-seam code on either engine;
- :class:`JBSQ` — join-bounded-shortest-queue adapted to this pull-based
  protocol: the grant shrinks linearly with the slave's in-flight batch
  depth and hits zero at the bound ``k``, keeping per-slave outstanding
  work short the way JBSQ(k) keeps server queues short.  WORKBUF then
  runs shallower, which is exactly what trims ``queue_master`` dwell.

Safety argument, shared by every policy: the request size only shapes
*inflow* of new promising pairs.  A zero grant to a slave that holds
work in flight cannot stall the run — that slave still owes the master a
results message, and admission/termination are unchanged.  A slave with
nothing in flight always receives the paper grant under every policy
shipped here, so pair generation can never be starved to a standstill.

Select a policy with ``ClusteringConfig.dispatch_policy`` / the CLI's
``--dispatch-policy`` (``paper``, ``jbsq``, ``jbsq:<k>``), or
pass a ready instance to :func:`make_policy` consumers.  ``paper`` stays
the default for reproduction fidelity; see
``benchmarks/bench_dispatch_tournament.py`` for the measured trade-offs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import POLICY_NAMES, parse_policy

__all__ = [
    "RequestContext",
    "DispatchPolicy",
    "PaperFormula",
    "JBSQ",
    "POLICY_NAMES",
    "make_policy",
    "parse_policy",
]


@dataclass(frozen=True)
class RequestContext:
    """The master's knowledge at one request computation.

    One instance per reply; all counts are taken *after* the incoming
    message was incorporated (results merged, offers admitted) and
    *after* the reply's own work batch was popped from WORKBUF, i.e. they
    describe the state the reply leaves behind.
    """

    slave_id: int
    #: Pairs the slave offered in the message being answered (P).
    p: int
    #: Of those, pairs admitted into WORKBUF (P′ — different-cluster).
    p_prime: int
    batchsize: int
    #: Free WORKBUF capacity (the paper's ``nfree``).
    nfree: int
    workbuf_depth: int
    workbuf_capacity: int
    n_slaves: int
    active_slaves: int
    #: The slave declared itself passive (generator dry, PAIRBUF empty).
    passive: bool
    #: Non-empty work batches dispatched to this slave, unreported.
    in_flight_batches: int
    #: Pairs inside those batches.
    in_flight_pairs: int
    #: Engine clock at computation time (virtual or wall seconds).
    now: float = 0.0


class DispatchPolicy:
    """Base class: subclasses implement :meth:`request`.

    Everything a policy may consult arrives in the context.  The
    in-flight depth in it counts the slave's *non-empty* grants the
    master still holds; empty ones (result-eliciting pings) carry no work
    and grants requeued from a lost slave are no longer in flight.
    """

    #: Human-readable policy identifier (scorecards, snapshots).
    name: str = "abstract"

    def request(self, ctx: RequestContext) -> int:
        """The number of further pairs to ask this slave for (E ≥ 0)."""
        raise NotImplementedError

    @staticmethod
    def paper_request(ctx: RequestContext) -> int:
        """The paper's §3.3 formula — the shared baseline every shipped
        policy modulates: ``E = min(α·δ·batchsize, nfree/p)``."""
        if ctx.passive:
            return 0
        delta = ctx.n_slaves / max(1, ctx.active_slaves)
        if ctx.p > 0:
            alpha = ctx.p / ctx.p_prime if ctx.p_prime > 0 else float(ctx.n_slaves)
        else:
            # Nothing offered (bootstrap or a zero request last round):
            # prime the flow with a plain δ·batchsize request.
            alpha = 1.0
        e = min(
            alpha * delta * ctx.batchsize, ctx.nfree / max(1, ctx.n_slaves)
        )
        return max(0, int(e))


class PaperFormula(DispatchPolicy):
    """The paper's formula, verbatim — the reproduction-fidelity default.

    Ignores the in-flight depth entirely, so protocol runs under it are
    byte-identical to the pre-policy-seam implementation (asserted by the
    oracle tests and the ``perf_gate.py dispatch`` gate).
    """

    name = "paper"

    def request(self, ctx: RequestContext) -> int:
        return self.paper_request(ctx)


class JBSQ(DispatchPolicy):
    """Join-bounded-shortest-queue over per-slave in-flight batch counts.

    Classic JBSQ(k) admits a request to a server only while its queue is
    shorter than ``k``.  In this pull-based protocol the master cannot
    withhold the work batch itself (the slave asked for it), but it *can*
    bound what it asks the slave to generate next: the grant shrinks
    linearly with the slave's in-flight batch depth and is zero once
    ``k`` batches are outstanding.  Slaves with short queues keep the
    generator warm; slaves juggling a backlog are left to drain it.  The
    aggregate effect is a shallower WORKBUF — pairs are pulled closer to
    when they are dispatched — which is what trims ``queue_master`` p99
    on skewed workloads (one giant cluster, Zipf sizes).

    ``k`` defaults to 2, the protocol's natural outstanding-batch bound:
    a slave aligning its NEXTWORK while a wait-queue grant is already on
    the wire is exactly two batches deep.
    """

    name = "jbsq"

    def __init__(self, k: int = 2) -> None:
        if k < 1:
            raise ValueError(f"JBSQ bound k must be >= 1, got {k}")
        self.k = k
        self.name = f"jbsq:{k}"

    def request(self, ctx: RequestContext) -> int:
        base = self.paper_request(ctx)
        if base <= 0:
            return base
        depth = ctx.in_flight_batches
        if depth >= self.k:
            return 0
        return int(base * (self.k - depth) / self.k)


def make_policy(spec: str | DispatchPolicy) -> DispatchPolicy:
    """Instantiate a dispatch policy from its config spec string.

    A ready :class:`DispatchPolicy` instance passes through unchanged, so
    callers can inject pre-configured (or test-double) policies wherever
    a config string is accepted.
    """
    if isinstance(spec, DispatchPolicy):
        return spec
    name, kwargs = parse_policy(spec)
    if name == "paper":
        return PaperFormula()
    return JBSQ(**kwargs)
