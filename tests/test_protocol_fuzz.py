"""Liveness/termination fuzzing of the master protocol.

The state-machine unit tests pin known scenarios; this fuzz harness
drives :class:`MasterLogic` with randomised synthetic slaves (random pair
supplies, random result flows, random exhaustion points) and asserts the
protocol always terminates with every slave stopped, every offered pair
either aligned or provably redundant, and no reply ever lost — the
properties that guarantee the simulated and real engines cannot deadlock.

Work is dispatched in conflict-free waves, so a pair can be deferred
behind batches in flight.  The second harness draws pairs from a small
EST universe (conflicts and stale pairs everywhere) under an
all-rejecting and a coin-flip aligner — the worst cases for speculation,
since every pair deferred on the bet "the blocker will be accepted" has
to be dispatched after all — and asserts deferral never stalls or spins.

Both harnesses run every drawn schedule twice, on a bare master and on
one recording latency and causal events: the records must change nothing
the protocol does, and the traced run's work-unit ledger must balance.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterManager, UnionFind
from repro.parallel.protocol import MasterLogic, MasterMsg, SlaveMsg
from repro.pairs import Pair
from repro.telemetry import Telemetry
from repro.telemetry.causal import UnitMinter, check_conservation


def _reject(pair: Pair) -> bool:
    return False


class _ScriptedSlave:
    """A fake slave honouring the wire protocol with a scripted pair
    supply and a scripted verdict per pair (by default every alignment
    is rejected, so cluster state stays inert and every pair must be
    dispatched).  Each batch it ships is stamped with a work unit of its
    own."""

    def __init__(
        self, slave_id: int, supply: list[Pair], batchsize: int, accept=_reject
    ):
        self.slave_id = slave_id
        self.supply = list(supply)
        self.batchsize = batchsize
        self.accept = accept
        self.mint = UnitMinter(slave_id)
        self.nextwork: tuple = ()
        self.done = False
        self.results_reported = 0
        self.pairs_sent = 0

    def _take(self, k: int) -> tuple:
        out = tuple(self.supply[:k])
        del self.supply[:k]
        self.pairs_sent += len(out)
        return out

    def _units(self, pairs: tuple) -> tuple:
        return (self.mint(),) * len(pairs)

    def bootstrap(self) -> SlaveMsg:
        p1 = self._take(self.batchsize)
        p2 = self._take(self.batchsize)
        p3 = self._take(self.batchsize)
        self.results_reported += len(p1)
        self.nextwork = p2
        return SlaveMsg(
            slave_id=self.slave_id,
            results=tuple((p, None, self.accept(p)) for p in p1),
            pairs=p3,
            exhausted=not self.supply,
            has_pending_results=bool(p2),
            pair_units=self._units(p3),
        )

    def step(self, reply: MasterMsg) -> SlaveMsg | None:
        results = tuple((p, None, self.accept(p)) for p in self.nextwork)
        self.results_reported += len(results)
        if reply.stop:
            assert not self.nextwork, "stopped while holding work"
            self.done = True
            return None
        self.nextwork = tuple(reply.work)
        outgoing = self._take(reply.request)
        return SlaveMsg(
            slave_id=self.slave_id,
            results=results,
            pairs=outgoing,
            exhausted=not self.supply,
            has_pending_results=bool(self.nextwork),
            pair_units=self._units(outgoing),
        )


@given(
    st.integers(1, 6),  # number of slaves
    st.lists(st.integers(0, 120), min_size=1, max_size=6),  # per-slave supply
    st.integers(1, 20),  # batchsize
    st.integers(0, 10**6),  # interleaving seed
)
@settings(max_examples=120, deadline=None)
def test_protocol_always_terminates(n_slaves, supplies, batchsize, seed):
    rng = random.Random(seed)
    supplies = (supplies * n_slaves)[:n_slaves]
    n_ests = 4000
    # Distinct pairs so the master's cluster test never filters anything.
    next_id = iter(range(0, n_ests - 2, 2))
    slaves = []
    total_supply = 0
    for k, count in enumerate(supplies):
        pairs = []
        for _ in range(count):
            try:
                i = next(next_id)
            except StopIteration:
                break
            pairs.append(Pair(20, 2 * i, 0, 2 * (i + 1), 0))
        total_supply += len(pairs)
        slaves.append(_ScriptedSlave(k, pairs, batchsize))

    master, slaves, _ = _drive_twice(slaves, batchsize, n_ests, rng)

    # Termination: everyone stopped, nothing in flight, no work lost.
    assert master.finished()
    assert all(s.done for s in slaves)
    assert not master.workbuf
    assert all(not s.supply for s in slaves), "pairs left unshipped"
    # Every admitted pair was handed out for alignment.
    assert master.stats.pairs_dispatched == master.stats.pairs_admitted
    # Conservation: with all pairs distinct (nothing filtered), every
    # supplied pair is eventually aligned exactly once — in its slave's
    # bootstrap, or after the master round-trip — and reported back.
    assert master.stats.pairs_admitted == master.stats.pairs_offered
    total_results = sum(s.results_reported for s in slaves)
    assert total_results == total_supply


@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=10),
    st.integers(1, 8),
)
@settings(max_examples=100, deadline=None)
def test_nothing_in_flight_means_work_or_empty_workbuf(queued, merged, batchsize):
    """The liveness invariant of wave dispatch: with no batch in flight a
    non-empty WORKBUF yields at least one pair, unless every queued pair
    had become redundant (then it is left empty and they are counted)."""
    master = MasterLogic(
        n_ests=10, n_slaves=2, batchsize=batchsize, workbuf_capacity=64
    )
    master.absorb_pairs(
        Pair(20, 2 * min(a, b), i, 2 * max(a, b), 0)
        for i, (a, b) in enumerate(queued)
        if a != b
    )
    for a, b in merged:  # unions learned after admission
        master.manager.seed_union(a, b)
    depth = len(master.workbuf)
    work = [pair for pair, _, _ in master._take_work(0.0)]
    assert work or not master.workbuf
    assert len(work) <= batchsize
    assert depth == len(work) + len(master.workbuf) + master.stats.pairs_pruned
    assert not any(master.manager.same_cluster(p.est_a, p.est_b) for p in work)


def _assert_conflict_free(master: MasterLogic, new_batches: list[tuple]) -> None:
    """A pair just dispatched joins two clusters that the other batches in
    flight, all accepted, would not already have joined (and that are not
    one) — unless the master has seen an alignment between those very
    clusters rejected, the evidence that lets it hedge the bet."""
    fresh = {pair for batch in new_batches for pair in batch}
    find = master.manager.find
    links = UnionFind(master.manager.n_ests)
    for grants in master.in_flight.values():
        for entries, _ in grants:
            for pair, _, _ in entries:
                if pair not in fresh:
                    links.union(find(pair.est_a), find(pair.est_b))
    for pair in (pair for batch in new_batches for pair in batch):
        ra, rb = find(pair.est_a), find(pair.est_b)
        assert ra != rb, f"dispatched {pair.key} inside one cluster"
        if not links.union(ra, rb):
            key = (min(ra, rb), max(ra, rb))
            assert master._speculation._rejections.get(key, 0) > 0, (
                f"dispatched {pair.key} though in-flight work already covers it"
            )


def _drive(master: MasterLogic, slaves: list[_ScriptedSlave], rng) -> list[tuple]:
    """Run the protocol to completion under a random message order,
    checking the dispatch invariants on every reply.  Returns every
    reply as ``(slave, work, request, stop)``, in the order sent."""
    sent = []
    inbox: list[SlaveMsg] = [s.bootstrap() for s in slaves]
    steps = 0
    while inbox:
        steps += 1
        assert steps < 20_000, "protocol did not terminate"
        msg = inbox.pop(rng.randrange(len(inbox)))
        reply = master.on_message(msg, now=float(steps))
        followups = list(master.drain_wait_queue(now=float(steps)))
        if reply is not None:
            followups.insert(0, (msg.slave_id, reply))
        _assert_conflict_free(master, [rep.work for _, rep in followups if rep.work])
        for slave_id, rep in followups:
            if not (rep.work or rep.request or rep.stop):
                # An empty reply exists to fetch results: never a ping.
                assert slaves[slave_id].nextwork, "pinged a slave holding nothing"
            sent.append((slave_id, rep.work, rep.request, rep.stop))
            out = slaves[slave_id].step(rep)
            if out is not None:
                inbox.append(out)
    return sent


def _drive_twice(slaves: list[_ScriptedSlave], batchsize: int, n_ests: int, rng):
    """Drive one schedule on a bare master, then again — fresh slaves,
    same message order — on one recording into a telemetry session with
    causal tracing on.  The records must change nothing: same replies, same
    stats; and every work unit the traced master took custody of must
    balance.  Returns the bare run's ``(master, slaves, replies)``."""
    state = rng.getstate()
    twins = copy.deepcopy(slaves)
    runs = []
    for fleet, telemetry in (
        (slaves, {}),
        (twins, {"telemetry": Telemetry(causal=True)}),
    ):
        rng.setstate(state)
        master = MasterLogic(
            n_ests=n_ests,
            n_slaves=len(fleet),
            batchsize=batchsize,
            workbuf_capacity=max(4 * batchsize * len(fleet), 64),
            **telemetry,
        )
        runs.append((master, fleet, _drive(master, fleet, rng)))
    (bare, _, replies), (traced, _, traced_replies) = runs
    assert traced_replies == replies
    assert traced.stats == bare.stats
    report = check_conservation(traced.telemetry.events)
    assert report.ok(), report.lines()
    return runs[0]


@given(
    st.integers(1, 5),  # number of slaves
    st.lists(st.integers(0, 90), min_size=1, max_size=5),  # per-slave supply
    st.integers(1, 12),  # batchsize
    st.integers(3, 14),  # EST universe: small = conflicts everywhere
    st.sampled_from([0.0, 0.5]),  # all-rejecting | coin-flip aligner
    st.integers(0, 10**6),  # seed: pairs, verdicts, interleaving
)
@settings(max_examples=150, deadline=None)
def test_deferral_never_stalls_or_spins(
    n_slaves, supplies, batchsize, n_ests, accept_rate, seed
):
    rng = random.Random(seed)
    supplies = (supplies * n_slaves)[:n_slaves]
    verdicts: dict[Pair, bool] = {}
    slaves = []
    for k, count in enumerate(supplies):
        pairs = []
        for serial in range(count):
            a, b = sorted(rng.sample(range(n_ests), 2))
            pair = Pair(20, 2 * a, serial, 2 * b, k)  # distinct records
            verdicts[pair] = rng.random() < accept_rate
            pairs.append(pair)
        slaves.append(_ScriptedSlave(k, pairs, batchsize, verdicts.__getitem__))

    master, slaves, _ = _drive_twice(slaves, batchsize, n_ests, rng)

    assert master.finished()
    assert all(s.done for s in slaves)
    assert not master.workbuf
    assert all(not s.supply for s in slaves), "pairs left unshipped"
    # Oracle partition: components of the accepted pairs, whichever of
    # them the protocol chose to align.
    oracle = ClusterManager(n_ests)
    for pair, accepted in verdicts.items():
        if accepted:
            oracle.seed_union(pair.est_a, pair.est_b)
    assert master.manager.clusters() == oracle.clusters()
    # Conservation: an admitted pair is dispatched or pruned, and every
    # supplied pair is aligned exactly once or skipped.
    st_ = master.stats
    assert st_.pairs_admitted == st_.pairs_dispatched + st_.pairs_pruned
    skipped = st_.pairs_offered - st_.pairs_admitted + st_.pairs_pruned
    assert sum(s.results_reported for s in slaves) + skipped == len(verdicts)
