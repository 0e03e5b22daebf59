"""The engine core driven directly: scripted events under a fake clock.

No event heap, no processes: the test is the engine.  It delivers slave
messages to :class:`~repro.parallel.engine.EngineCore` one at a time,
kills slaves at chosen points, runs a shard sync and the local drain, and
checks what every real engine relies on the core for — the fault
counters, pair conservation and the sequential partition.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import replace

import pytest

from repro.core import PaceClusterer
from repro.parallel.engine import EngineCore
from repro.suffix.gst import SuffixArrayGst
from repro.telemetry import Telemetry

N_SLAVES = 4  # two shards of two: slaves 0, 1 and 2, 3


@pytest.fixture()
def scripted(small_benchmark, small_config):
    cfg = replace(small_config, master_shards=2, batchsize=8)
    core = EngineCore(cfg, N_SLAVES, telemetry=Telemetry())
    core.plan(SuffixArrayGst.build(small_benchmark.collection))
    return core, _Script(core)


class _Script:
    """The smallest possible engine: a FIFO wire and a counting clock."""

    def __init__(self, core: EngineCore) -> None:
        self.core = core
        self.ticks = itertools.count(1)
        self.slaves = {}
        self.inbox: deque = deque()
        self.delivered = 0

    def now(self) -> float:
        return float(next(self.ticks))

    def boot(self, k: int, incarnation: int = 0) -> None:
        self.slaves[k] = self.core.build_slave(k, incarnation=incarnation)
        self.inbox.append(self.slaves[k].logic.bootstrap())

    def lose_unheard(self, k: int) -> None:
        """Slave ``k`` dies before anything it sent was delivered."""
        self.inbox = deque(m for m in self.inbox if m.slave_id != k)
        del self.slaves[k]

    def _act(self, replies) -> None:
        for k, reply in replies:
            logic = self.slaves[k].logic
            logic.align_pending()
            out = logic.finish_step(reply)
            if out is not None:
                self.inbox.append(out)

    def deliver(self, limit: int | None = None) -> None:
        """Deliver queued messages (at most ``limit``), acting on every
        reply at once: the master step, then the shard's wake."""
        core = self.core
        while self.inbox and (limit is None or limit > 0):
            msg = self.inbox.popleft()
            reply = core.on_message(msg, self.now())
            core.absorbed(msg.slave_id, 0.5)
            self.delivered += 1
            shard = core.master.shard_for(msg.slave_id).logic
            woken = shard.drain_wait_queue(now=self.now())
            self._act(([(msg.slave_id, reply)] if reply else []) + woken)
            if limit is not None:
                limit -= 1

    def wake_all(self) -> None:
        self._act(self.core.master.drain_wait_queue(now=self.now()))

    def totals(self):
        logics = [s.logic for s in self.slaves.values()]
        return [
            (m.generator.produced, m.total_alignments, m.total_dp_cells) for m in logics
        ]


def test_scripted_run_conserves_pairs_and_partition(
    scripted, small_benchmark, small_config
):
    core, run = scripted
    for k in range(N_SLAVES):
        run.boot(k)

    # Slave 1 dies unheard while the restart budget lasts: revived, and
    # the replacement re-enters by a fresh bootstrap.
    run.lose_unheard(1)
    revived = core.slave_lost(1, run.now(), revive=True)
    assert revived == (0, 0, 0)  # nothing was in flight, nothing regenerated
    run.boot(1, incarnation=1)

    # Slaves 2 and 3 — all of shard 1 — die unheard with the budget
    # spent: their ranges are regenerated into their own shard's WORKBUF.
    degraded = []
    for k in (2, 3):
        run.lose_unheard(k)
        degraded.append(core.slave_lost(k, run.now(), revive=False))
    assert all(r.requeued == 0 and r.produced >= r.admitted > 0 for r in degraded)
    shard1 = core.master.shards[1].logic
    assert shard1.workbuf_depth == sum(r.admitted for r in degraded)
    assert not core.master.shards[0].logic.lost

    fc = core.faults
    assert (fc.slaves_lost, fc.restarts) == (3, 1)
    assert fc.pairs_reassigned == sum(r.admitted for r in degraded)

    # Shard 0 makes some progress, then the shards exchange unions: what
    # shard 0 merged lets shard 1 prune, and the partition is unharmed.
    run.deliver(limit=6)
    per_shard = core.master.sync(now=run.now())
    assert core.master.sync_rounds == 1 and len(per_shard) == 2
    run.wake_all()

    # No slave of shard 1 survives to be sent its WORKBUF.
    aligned, model_cells = core.drain_locally(1, run.now())
    assert aligned > 0 and model_cells > 0
    assert shard1.workbuf_depth == 0 and shard1.finished()

    run.deliver()
    assert not run.inbox and core.master.finished()
    assert core.drain_locally(0, run.now()) == (0, 0)

    result = core.finish(
        run.totals(),
        incomplete_slaves=2,
        messages=run.delivered,
        shard_busy=[0.0, 0.0],
        engine="scripted",
        n_processors=N_SLAVES + 1,
        clock="fake",
    )
    c = result.counters
    assert c.pairs_generated == c.pairs_skipped + c.pairs_processed
    assert c.pairs_processed >= aligned
    assert result.faults is fc and fc.incomplete_slaves == 2
    oracle = PaceClusterer(small_config).cluster(small_benchmark.collection)
    assert result.clusters == oracle.clusters

    # The snapshot is labelled by the engine and carries the core's
    # counters; latency stages were stamped with the fake clock.
    snap = result.telemetry
    assert snap.meta["engine"] == "scripted" and snap.meta["clock"] == "fake"
    counters = snap.metrics["counters"]
    assert counters["messages.exchanged"] == run.delivered
    assert counters["fault.slaves_lost"] == 3 and counters["fault.restarts"] == 1
    assert counters["shard.sync_rounds"] == 1
    absorb = snap.metrics["histograms"]["latency.absorb.seconds"]
    assert absorb["count"] == run.delivered and absorb["sum"] == 0.5 * run.delivered


def test_loss_while_holding_work_requeues_it(scripted):
    core, run = scripted
    for k in range(N_SLAVES):
        run.boot(k)
    run.deliver(limit=N_SLAVES)  # every bootstrap answered
    logic = core.master.shard_for(0).logic
    in_flight = sum(len(entries) for entries, _ in logic.in_flight[0])
    assert in_flight > 0
    lost = core.slave_lost(0, run.now(), revive=True)
    # (On this corpus no merge has made any of them redundant meanwhile.)
    assert lost == (in_flight, 0, 0)
    assert core.faults.pairs_reassigned == in_flight
    assert 0 not in logic.lost and 0 not in logic.in_flight
