"""The master's grant rule: the §3.3 request formula's corners, the same
corners end-to-end through MasterLogic, in-flight grants cleared when a
slave is lost or stopped, and cluster-oracle parity on both engines."""

import numpy as np
import pytest

from repro.core import PaceClusterer
from repro.core.config import ClusteringConfig
from repro.pairs import Pair
from repro.parallel import MasterLogic, cluster_multiprocessing, simulate_clustering
from repro.parallel.protocol import SlaveMsg
from repro.simulate import BenchmarkParams, make_benchmark


def _mk_pair(i, j, length=12):
    return Pair(length, 2 * i, 0, 2 * j, 0)


def _msg(slave_id, pairs=(), results=(), exhausted=False, pending=False):
    return SlaveMsg(
        slave_id=slave_id,
        results=tuple(results),
        pairs=tuple(pairs),
        exhausted=exhausted,
        has_pending_results=pending,
    )


def _master(**overrides):
    base = dict(n_ests=100, n_slaves=4, batchsize=10, workbuf_capacity=1000)
    base.update(overrides)
    return MasterLogic(**base)


class TestPaperFormulaEdgeCases:
    """The §3.3 formula's corners, through ``MasterLogic._compute_request``
    (4 slaves, batchsize 10, empty WORKBUF of 1000)."""

    def test_nominal_alpha_delta(self):
        # alpha = 10/5 = 2, delta = 1 -> E = 2 * 10 = 20.
        assert _master()._compute_request(0, 10, 5) == 20

    def test_p_prime_zero_uses_n_slaves_alpha(self):
        # Everything offered was redundant: alpha spikes to p (=n_slaves)
        # to pull harder, still capped by nfree/p.
        e = _master()._compute_request(0, 10, 0)
        assert e == min(4 * 10, 1000 // 4) * 1  # alpha=4, delta=1 -> 40

    def test_bootstrap_p_zero_primes_flow(self):
        # Nothing offered yet: alpha = 1 -> plain delta*batchsize.
        assert _master()._compute_request(0, 0, 0) == 10

    def test_nfree_zero_grants_nothing(self):
        assert _master(workbuf_capacity=0)._compute_request(0, 10, 10) == 0

    def test_passive_ctx_grants_nothing(self):
        m = _master()
        assert m.on_message(_msg(0, exhausted=True)) is None  # slave 0 passive
        assert m._compute_request(0, 10, 10) == 0

    def test_delta_compensates_passive_fleet(self):
        # 4 slaves, 2 active: delta = 2 doubles the request.
        m = _master()
        for k in (2, 3):
            assert m.on_message(_msg(k, exhausted=True)) is None
        assert m.active_slaves == 2
        assert m._compute_request(0, 10, 10) == 20


class TestMasterEdgeCases:
    """The same corners end-to-end through MasterLogic."""

    def test_passive_slave_never_granted(self):
        m = MasterLogic(n_ests=20, n_slaves=2, batchsize=5, workbuf_capacity=50)
        m.on_message(_msg(0, exhausted=True))  # slave 0 goes passive
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(8)]
        m.on_message(_msg(1, pairs=pairs))
        # Work is now queued; the wait-queue drain offers slave 0 work
        # but must still request nothing from it.
        woken = dict(m.drain_wait_queue())
        assert woken[0].work
        assert woken[0].request == 0

    def test_nfree_zero_no_request(self):
        m = MasterLogic(n_ests=40, n_slaves=1, batchsize=4, workbuf_capacity=4)
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(8)]
        reply = m.on_message(_msg(0, pairs=pairs))
        # W takes 4, 4 stay queued: WORKBUF is full, nothing more wanted.
        assert len(reply.work) == 4
        assert reply.request == 0

    def test_lost_then_revived_grant_cycle(self):
        m = MasterLogic(n_ests=40, n_slaves=2, batchsize=5, workbuf_capacity=100)
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(10)]
        r = m.on_message(_msg(0, pairs=pairs))
        assert r.request > 0
        m.slave_lost(0)
        # Lost -> passive: a straggling message from the dead incarnation
        # earns no grant.
        assert m._compute_request(0, 10, 10) == 0
        m.slave_revived(0)
        # Revived: the replacement bootstraps with a fresh grant.
        assert m._compute_request(0, 0, 0) > 0


class TestSlaveLostMirror:
    """The master's record of grants in flight: ``slave_lost`` requeues
    and clears a dead slave's grants, a stop clears the slave's record,
    and a revived slave starts from a clean slate."""

    def _master(self):
        m = MasterLogic(n_ests=40, n_slaves=2, batchsize=5, workbuf_capacity=100)
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(10)]
        reply = m.on_message(_msg(0, pairs=pairs))
        assert reply.work  # slave 0 now holds a batch in flight
        return m

    def test_mirror_cleared_on_slave_lost(self):
        m = self._master()
        held = m.custody()
        assert (held["in_flight_batches"], held["in_flight_pairs"]) == ({"0": 1}, {"0": 5})
        requeued = m.slave_lost(0)
        assert requeued == 5  # the in-flight batch went back to WORKBUF
        assert 0 not in m.in_flight
        assert m.custody()["in_flight_batches"] == {}

    def test_revived_slave_gets_full_grant(self):
        m = self._master()
        m.slave_lost(0)
        m.slave_revived(0)
        # The replacement's bootstrap sees a full grant (alpha = 1, delta = 1:
        # E = batchsize), and only its own batch is in flight, none of its
        # dead predecessor's.
        reply = m.on_message(_msg(0))
        assert reply.request == m.batchsize
        assert m.custody()["in_flight_pairs"] == {"0": len(reply.work)}

    def test_mirror_cleared_on_stop(self):
        m = MasterLogic(n_ests=10, n_slaves=1, batchsize=5, workbuf_capacity=50)
        m.on_message(_msg(0, exhausted=True, pending=True))
        ((_, ping),) = m.drain_wait_queue()  # an empty grant elicits the results
        assert not (ping.work or ping.stop)
        r = m.on_message(_msg(0, exhausted=True))
        assert r is not None and r.stop
        assert 0 not in m.in_flight
        assert m.custody()["in_flight_batches"] == {}


@pytest.fixture(scope="module")
def small_bench():
    return make_benchmark(
        BenchmarkParams.small(n_genes=6, mean_ests_per_gene=6.0),
        rng=np.random.default_rng(5),
    )


@pytest.fixture(scope="module")
def small_config():
    return ClusteringConfig.small_reads(batchsize=8, align_engine="kdiff")


class TestEngineOracle:
    """The paper grant, the only one, yields the sequential partition on
    both engines."""

    def test_sim_all_policies_match_sequential(self, small_bench, small_config):
        seq = PaceClusterer(small_config).cluster(small_bench.collection).clusters
        rep = simulate_clustering(small_bench.collection, small_config, n_processors=4)
        assert rep.result.clusters == seq

    def test_mp_paper_matches_sequential(self, small_bench, small_config):
        seq = PaceClusterer(small_config).cluster(small_bench.collection).clusters
        result = cluster_multiprocessing(small_bench.collection, small_config, n_processors=3)
        assert result.clusters == seq
