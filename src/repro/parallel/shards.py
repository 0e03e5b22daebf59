"""Sharded master: N masters with partitioned bucket ownership (ROADMAP 2).

The paper's §3.3 protocol keeps one master owning WORKBUF and the
CLUSTERS union–find, and argues it is not a bottleneck — true at 2002
scales, false once pair volume grows to millions of ESTs (`pace-est
analyze` reports the master-serialisation fraction directly).  This
module generalises the design: ``plan_shards`` partitions the w-prefix
bucket ranges across N :class:`MasterShard` instances with the same LPT
placement used slave-side (:func:`~repro.parallel.partition.assign_buckets`
applied at the shard level), each shard runs its own
:class:`~repro.parallel.protocol.MasterLogic` — WORKBUF, dispatch policy,
local union–find — over a disjoint subset of slaves, and a periodic
cross-shard merge exchanges accepted-pair union logs.

Correctness: the final partition is the connected components of the
accepted-pair graph, acceptance is a pure per-pair decision, and a shard
filtering against a *subset* of the global accepted edges only admits
extra redundant pairs (never drops a needed witness) — exactly the
argument that makes fault recovery and batched dispatch
partition-preserving.  Union exchange is commutative and idempotent
(edges are sets; ``seed_union`` ignores redundant ones), so the merge
cadence is a pure latency/throughput knob: any interleaving of syncs
yields the same final clusters as the single-master and sequential runs.
Foreign edges are absorbed *unlogged* (``seed_union`` does not append to
``merges``), so gossip never echoes: a shard only ever exports merges it
witnessed itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.cluster.manager import ClusterManager
from repro.parallel.partition import assign_buckets
from repro.parallel.protocol import MasterLogic, MasterMsg, MasterStats, SlaveMsg
from repro.telemetry.causal import format_unit
from repro.telemetry.spans import Telemetry

__all__ = ["ShardPlan", "plan_shards", "MasterShard", "ShardedMaster"]


@dataclass(frozen=True)
class ShardPlan:
    """Static shard topology for one run.

    ``shard_ranges[j]`` are the ``(key, lo, hi)`` bucket ranges shard ``j``
    owns; ``shard_slaves[j]`` the global slave ids it drives;
    ``slave_ranges[k]`` / ``slave_shard[k]`` the per-slave view.  Bucket
    ownership is disjoint by construction, so every promising pair is
    generated under exactly one shard.
    """

    n_shards: int
    shard_ranges: list[list[tuple[int, int, int]]]
    shard_slaves: list[list[int]]
    slave_ranges: list[list[tuple[int, int, int]]]
    slave_shard: list[int]
    slave_loads: list[int]

    @property
    def n_slaves(self) -> int:
        return len(self.slave_shard)

    @property
    def imbalance(self) -> float:
        """max/mean slave load, same convention as
        :attr:`~repro.parallel.partition.BucketAssignment.imbalance`."""
        if not self.slave_loads or sum(self.slave_loads) == 0:
            return 1.0
        mean = sum(self.slave_loads) / len(self.slave_loads)
        return max(self.slave_loads) / mean


def plan_shards(
    ranges: list[tuple[int, int, int]], n_slaves: int, n_shards: int
) -> ShardPlan:
    """Two-level LPT placement: buckets → shards, then each shard's
    buckets → its slaves.

    Slaves are split into contiguous near-equal blocks (shard 0 gets
    slaves ``0..c0-1`` and so on); both placement levels reuse
    :func:`assign_buckets`, which sorts its input internally, so a
    1-shard plan reproduces the unsharded ``assign_buckets(ranges,
    n_slaves)`` placement exactly.
    """
    if n_shards < 1:
        raise ValueError(f"need at least one master shard, got {n_shards}")
    if n_shards > n_slaves:
        raise ValueError(
            f"master shards ({n_shards}) cannot exceed slaves ({n_slaves}): "
            f"every shard must drive at least one slave"
        )
    shard_assignment = assign_buckets(ranges, n_shards)
    base, rem = divmod(n_slaves, n_shards)
    shard_slaves: list[list[int]] = []
    slave_ranges: list[list[tuple[int, int, int]]] = [[] for _ in range(n_slaves)]
    slave_shard = [0] * n_slaves
    slave_loads = [0] * n_slaves
    next_slave = 0
    for j in range(n_shards):
        count = base + (1 if j < rem else 0)
        ids = list(range(next_slave, next_slave + count))
        next_slave += count
        shard_slaves.append(ids)
        sub = assign_buckets(shard_assignment.per_processor[j], count)
        for local, k in enumerate(ids):
            slave_ranges[k] = sub.per_processor[local]
            slave_shard[k] = j
            slave_loads[k] = sub.loads[local]
    return ShardPlan(
        n_shards=n_shards,
        shard_ranges=shard_assignment.per_processor,
        shard_slaves=shard_slaves,
        slave_ranges=slave_ranges,
        slave_shard=slave_shard,
        slave_loads=slave_loads,
    )


class MasterShard:
    """One master shard: a :class:`MasterLogic` plus its union-log cursor.

    ``export_unions`` returns the accepted-merge edges this shard has
    witnessed since the last export; ``absorb_unions`` applies another
    shard's edges through ``seed_union`` (unlogged — absorbed knowledge is
    never re-exported) and prunes WORKBUF pairs the new unions made
    redundant.
    """

    def __init__(self, shard_id: int, logic: MasterLogic) -> None:
        self.shard_id = shard_id
        self.logic = logic
        self._log_cursor = 0
        #: Cumulative cross-shard sync accounting for this shard (how many
        #: foreign union edges it applied, and how many WORKBUF pairs those
        #: unions let it prune) — the monitor's per-shard sync view.
        self.unions_absorbed = 0
        self.sync_pruned = 0

    def export_unions(self) -> list[tuple[int, int]]:
        merges = self.logic.manager.merges
        edges = [
            (rec.pair.est_a, rec.pair.est_b)
            for rec in merges[self._log_cursor:]
        ]
        self._log_cursor = len(merges)
        return edges

    def absorb_unions(
        self, edges: list[tuple[int, int]], *, now: float = 0.0
    ) -> tuple[int, int]:
        """Apply foreign accepted-pair edges; returns ``(applied, pruned)``."""
        applied = 0
        for est_a, est_b in edges:
            if self.logic.manager.seed_union(est_a, est_b):
                applied += 1
        pruned = self.logic.prune_workbuf(now=now) if applied else 0
        return applied, pruned


class ShardedMaster:
    """N master shards behind the single-master engine-facing surface.

    Routes every protocol call to the shard owning the slave, aggregates
    the read-only views (stats, depths, stop sets) the engines consume,
    and implements the periodic all-to-all union exchange (:meth:`sync`).
    With ``n_shards == 1`` every call is a plain delegation and
    :meth:`combined` returns the shard's own manager, so the single-shard
    path is bit-identical to the historical single ``MasterLogic``.
    """

    def __init__(
        self,
        plan: ShardPlan,
        *,
        n_ests: int,
        batchsize: int,
        workbuf_capacity: int,
        telemetry: Telemetry | None = None,
        policy: str = "paper",
    ) -> None:
        self.plan = plan
        self.n_ests = n_ests
        self.n_slaves = plan.n_slaves
        self.batchsize = batchsize
        self.shards = [
            MasterShard(
                j,
                MasterLogic(
                    n_ests=n_ests,
                    n_slaves=len(plan.shard_slaves[j]),
                    batchsize=batchsize,
                    workbuf_capacity=workbuf_capacity,
                    telemetry=telemetry,
                    policy=policy,
                    causal_actor=(
                        "master" if plan.n_shards == 1 else f"shard{j}"
                    ),
                    causal_shard=j,
                ),
            )
            for j in range(plan.n_shards)
        ]
        self.sync_rounds = 0
        self.unions_exchanged = 0
        self.pairs_pruned = 0

    # ---- routing ------------------------------------------------------ #

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, slave_id: int) -> int:
        return self.plan.slave_shard[slave_id]

    def shard_for(self, slave_id: int) -> MasterShard:
        return self.shards[self.plan.slave_shard[slave_id]]

    def on_message(self, msg: SlaveMsg, *, now: float = 0.0) -> MasterMsg | None:
        return self.shard_for(msg.slave_id).logic.on_message(msg, now=now)

    def drain_wait_queue(self, *, now: float = 0.0) -> list[tuple[int, MasterMsg]]:
        replies: list[tuple[int, MasterMsg]] = []
        for shard in self.shards:
            replies.extend(shard.logic.drain_wait_queue(now=now))
        return replies

    def finished(self) -> bool:
        return all(shard.logic.finished() for shard in self.shards)

    # ---- aggregate views ---------------------------------------------- #

    @property
    def stopped(self) -> set[int]:
        out: set[int] = set()
        for shard in self.shards:
            out |= shard.logic.stopped
        return out

    @property
    def lost(self) -> set[int]:
        out: set[int] = set()
        for shard in self.shards:
            out |= shard.logic.lost
        return out

    @property
    def workbuf_depth(self) -> int:
        return sum(shard.logic.workbuf_depth for shard in self.shards)

    @property
    def stats(self) -> MasterStats:
        """Fresh sum of the per-shard stats (``workbuf_peak`` sums too,
        an upper bound on the simultaneous global depth)."""
        totals = {f.name: 0 for f in fields(MasterStats)}
        for shard in self.shards:
            for name in totals:
                totals[name] += getattr(shard.logic.stats, name)
        return MasterStats(**totals)

    def custody(self) -> dict:
        """What the master holds right now, for flight-recorder dumps:
        queue depth, stopped slaves, each shard's dispatch policy with the
        grants it sees in flight per slave, and — under causal tracing —
        the work units in flight per slave."""
        units: dict[str, list[str]] = {}
        policy: dict[str, dict] = {}
        for shard in self.shards:
            logic = shard.logic
            batches: dict[str, int] = {}
            pairs: dict[str, int] = {}
            for sid, grants in logic.in_flight.items():
                names = sorted(
                    {
                        format_unit(unit)
                        for entries, _ in grants
                        for unit in entries.units.tolist()
                        if unit >= 0
                    }
                )
                if names:
                    units.setdefault(str(sid), []).extend(names)
                n_batches, n_pairs = logic.queue_depth(sid)
                if n_batches:
                    batches[str(sid)], pairs[str(sid)] = n_batches, n_pairs
            policy[f"shard{shard.shard_id}"] = {
                "policy": logic.policy.name,
                "in_flight_batches": batches,
                "in_flight_pairs": pairs,
            }
        return {
            "workbuf_depth": self.workbuf_depth,
            "stopped": sorted(self.stopped),
            "policy": policy,
            "in_flight_units": units,
        }

    def shard_states(self) -> list[dict]:
        """Per-shard monitor view: slave liveness, queue depth and the
        dispatch/sync/prune counters.  Plain JSON-serialisable dicts so
        they can travel the ``/state`` endpoint and ``live_state`` JSONL
        records unchanged."""
        out: list[dict] = []
        for shard in self.shards:
            logic = shard.logic
            slaves = self.plan.shard_slaves[shard.shard_id]
            st = logic.stats
            out.append(
                {
                    "shard_id": shard.shard_id,
                    "slaves": len(slaves),
                    "busy": sum(
                        1
                        for k in slaves
                        if k not in logic.stopped and k not in logic.lost
                    ),
                    "lost": sum(1 for k in slaves if k in logic.lost),
                    "workbuf_depth": logic.workbuf_depth,
                    "pairs_dispatched": st.pairs_dispatched,
                    "merges": st.merges,
                    "pruned": st.pairs_pruned,
                    "unions_absorbed": shard.unions_absorbed,
                    "sync_pruned": shard.sync_pruned,
                }
            )
        return out

    # ---- cross-shard merge -------------------------------------------- #

    def sync(self, *, now: float = 0.0) -> list[tuple[int, int]]:
        """One all-to-all union exchange; returns per-shard
        ``(applied, pruned)`` so engines can attribute the cost.

        Exports are gathered from every shard *before* any absorption, so
        the round is symmetric: each shard applies exactly the edges its
        peers had witnessed when the round began.  Because edges are
        commutative/idempotent and absorbed edges are never re-exported,
        any schedule of sync rounds converges to the same partition.
        """
        if len(self.shards) == 1:
            return [(0, 0)]
        exports = [shard.export_unions() for shard in self.shards]
        per_shard: list[tuple[int, int]] = []
        for j, shard in enumerate(self.shards):
            foreign = [
                edge
                for i, edges in enumerate(exports)
                if i != j
                for edge in edges
            ]
            applied, pruned = (
                shard.absorb_unions(foreign, now=now) if foreign else (0, 0)
            )
            shard.unions_absorbed += applied
            shard.sync_pruned += pruned
            per_shard.append((applied, pruned))
        self.sync_rounds += 1
        self.unions_exchanged += sum(a for a, _ in per_shard)
        self.pairs_pruned += sum(p for _, p in per_shard)
        return per_shard

    # ---- final assembly ----------------------------------------------- #

    def combined(self) -> ClusterManager:
        """The global cluster state.

        Single shard: the shard's own manager (bit-identical to the
        unsharded run, merge log included).  Multiple shards: replay every
        shard's witnessed merge log into a fresh manager — ``merge``
        ignores records a previous shard's log already made redundant, so
        the replayed log is a deterministic spanning subset of the union
        of the per-shard logs and the components equal the closure of all
        accepted edges.
        """
        if len(self.shards) == 1:
            return self.shards[0].logic.manager
        combined = ClusterManager(self.n_ests)
        for shard in self.shards:
            for rec in shard.logic.manager.merges:
                combined.merge(rec.pair, rec.result)
        return combined
