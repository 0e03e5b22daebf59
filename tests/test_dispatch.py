"""Dispatch-policy seam tests: the paper formula's edge cases through the
policy interface, JBSQ behaviour, the slave-lost mirror-clearing
regression, config/CLI plumbing, and cluster-oracle parity on both
engines."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core import PaceClusterer
from repro.core.config import ClusteringConfig
from repro.pairs import Pair
from repro.parallel import (
    JBSQ,
    DispatchPolicy,
    MasterLogic,
    PaperFormula,
    RequestContext,
    cluster_multiprocessing,
    make_policy,
    simulate_clustering,
)
from repro.parallel.dispatch import parse_policy
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


def _ctx(**overrides):
    base = dict(
        slave_id=0,
        p=10,
        p_prime=10,
        batchsize=10,
        nfree=1000,
        workbuf_depth=0,
        workbuf_capacity=1000,
        n_slaves=4,
        active_slaves=4,
        passive=False,
        in_flight_batches=0,
        in_flight_pairs=0,
    )
    base.update(overrides)
    return RequestContext(**base)


class TestPolicyFactory:
    def test_names(self):
        assert make_policy("paper").name == "paper"
        assert make_policy("jbsq").name == "jbsq:2"
        assert make_policy("jbsq:5").name == "jbsq:5"

    def test_instance_passthrough(self):
        pol = JBSQ(k=3)
        assert make_policy(pol) is pol

    def test_parse_jbsq_arg(self):
        assert parse_policy("jbsq:3") == ("jbsq", {"k": 3})
        assert parse_policy("paper") == ("paper", {})

    @pytest.mark.parametrize(
        "spec", ["bogus", "jbsq:x", "pace:2", "paper:1", "jbsq:"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            make_policy(spec)

    def test_jbsq_bound_validated(self):
        with pytest.raises(ValueError):
            JBSQ(k=0)


class TestPaperFormulaEdgeCases:
    """The §3.3 formula's corners, through the policy seam."""

    def test_nominal_alpha_delta(self):
        # alpha = 10/5 = 2, delta = 1 -> E = 2 * 10 = 20.
        assert PaperFormula().request(_ctx(p=10, p_prime=5)) == 20

    def test_p_prime_zero_uses_n_slaves_alpha(self):
        # Everything offered was redundant: alpha spikes to p (=n_slaves)
        # to pull harder, still capped by nfree/p.
        e = PaperFormula().request(_ctx(p=10, p_prime=0))
        assert e == min(4 * 10, 1000 // 4) * 1  # alpha=4, delta=1 -> 40

    def test_bootstrap_p_zero_primes_flow(self):
        # Nothing offered yet: alpha = 1 -> plain delta*batchsize.
        assert PaperFormula().request(_ctx(p=0, p_prime=0)) == 10

    def test_nfree_zero_grants_nothing(self):
        assert PaperFormula().request(_ctx(nfree=0)) == 0

    def test_passive_ctx_grants_nothing(self):
        assert PaperFormula().request(_ctx(passive=True)) == 0

    def test_delta_compensates_passive_fleet(self):
        # 4 slaves, 2 active: delta = 2 doubles the request.
        assert PaperFormula().request(_ctx(active_slaves=2)) == 20


class TestMasterEdgeCases:
    """The same corners end-to-end through MasterLogic."""

    def test_passive_slave_never_granted(self):
        m = MasterLogic(n_ests=20, n_slaves=2, batchsize=5, workbuf_capacity=50)
        m.on_message(_msg(0, exhausted=True))  # slave 0 goes passive
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(8)]
        m.on_message(_msg(1, pairs=pairs))
        # Work is now queued; the wait-queue drain offers slave 0 work
        # but must still request nothing from it.
        for sid, reply in m.drain_wait_queue():
            if sid == 0:
                assert reply.request == 0

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


class TestJBSQ:
    def test_grant_shrinks_with_depth(self):
        pol = JBSQ(k=2)
        assert pol.request(_ctx()) == 10
        assert pol.request(_ctx(in_flight_batches=1)) == 5
        assert pol.request(_ctx(in_flight_batches=2)) == 0

    def test_other_slaves_unaffected(self):
        m = MasterLogic(
            n_ests=40, n_slaves=2, batchsize=5, workbuf_capacity=100,
            policy=JBSQ(k=2),
        )
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(10)]
        m.on_message(_msg(0, pairs=pairs, pending=True))
        m.on_message(_msg(0, pending=True))
        assert m.queue_depth(0) == (2, 10)
        assert m.queue_depth(1) == (0, 0)
        assert m._compute_request(0, 0, 0) == 0  # k = 2 grants outstanding
        assert m._compute_request(1, 0, 0) > 0

    def test_retirement_restores_grant(self):
        m = MasterLogic(
            n_ests=40, n_slaves=1, batchsize=5, workbuf_capacity=100,
            policy=JBSQ(k=2),
        )
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(10)]
        m.on_message(_msg(0, pairs=pairs, pending=True))
        m.on_message(_msg(0, pending=True))
        assert m.queue_depth(0) == (2, 10)
        assert m._compute_request(0, 0, 0) == 0
        # The next message reports the first grant: one is left in flight.
        m.on_message(_msg(0, pending=True))
        assert m.queue_depth(0) == (1, 5)
        assert m._compute_request(0, 0, 0) > 0

    def test_empty_batches_not_counted(self):
        m = MasterLogic(
            n_ests=10, n_slaves=1, batchsize=5, workbuf_capacity=50,
            policy=JBSQ(k=2),
        )
        assert m.on_message(_msg(0, exhausted=True, pending=True)) is None
        ((_, ping),) = m.drain_wait_queue()
        assert not (ping.work or ping.stop)  # a result-eliciting ping, not work
        assert len(m.in_flight[0]) == 1
        assert m.queue_depth(0) == (0, 0)

    def test_zero_base_passes_through(self):
        # Stall safety: JBSQ only ever shrinks a positive paper grant; a
        # passive/full-buffer zero stays zero rather than going negative.
        pol = JBSQ(k=2)
        assert pol.request(_ctx(nfree=0)) == 0


class TestSlaveLostMirror:
    """Regression: grants issued immediately before a degraded-recovery
    drain once double-counted the dead slave's in-flight pairs in the
    JBSQ queue-depth view.  The depth is read off the master's grant
    records, which slave_lost requeues and clears."""

    def _master(self, policy):
        m = MasterLogic(
            n_ests=40, n_slaves=2, batchsize=5, workbuf_capacity=100,
            policy=policy,
        )
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(10)]
        reply = m.on_message(_msg(0, pairs=pairs))
        assert reply.work  # slave 0 now holds a batch in flight
        return m

    def test_mirror_cleared_on_slave_lost(self):
        m = self._master(JBSQ(k=2))
        assert m.queue_depth(0) != (0, 0)
        requeued = m.slave_lost(0)
        assert requeued > 0  # the in-flight batch went back to WORKBUF
        assert m.queue_depth(0) == (0, 0)

    def test_revived_slave_gets_full_grant(self):
        pol = JBSQ(k=2)
        m = self._master(pol)
        m.slave_lost(0)
        m.slave_revived(0)
        # The replacement's bootstrap must see a full paper-sized grant,
        # not one shrunk by its dead predecessor's phantom queue.
        reply = m.on_message(_msg(0))
        paper = PaperFormula()
        mirror = MasterLogic(
            n_ests=40, n_slaves=2, batchsize=5, workbuf_capacity=100,
            policy=paper,
        )
        # Same protocol state replayed under the paper policy:
        mirror.on_message(_msg(0, pairs=[_mk_pair(2 * k, 2 * k + 1) for k in range(10)]))
        mirror.slave_lost(0)
        mirror.slave_revived(0)
        expected = mirror.on_message(_msg(0))
        assert reply.request == expected.request

    def test_mirror_cleared_on_stop(self):
        m = MasterLogic(
            n_ests=10, n_slaves=1, batchsize=5, workbuf_capacity=50,
            policy=JBSQ(k=2),
        )
        m.on_message(_msg(0, exhausted=True, pending=True))
        m.drain_wait_queue()  # an empty grant elicits the last results
        r = m.on_message(_msg(0, exhausted=True))
        assert r is not None and r.stop
        assert 0 not in m.in_flight and m.queue_depth(0) == (0, 0)


class TestConfigAndCli:
    def test_config_default_paper(self):
        assert ClusteringConfig().dispatch_policy == "paper"

    @pytest.mark.parametrize("spec", ["paper", "jbsq", "jbsq:3"])
    def test_config_accepts_valid(self, spec):
        assert ClusteringConfig(dispatch_policy=spec).dispatch_policy == spec

    @pytest.mark.parametrize(
        "spec", ["bogus", "jbsq:0", "jbsq:x", "pace:2", "paper:1"]
    )
    def test_config_rejects_invalid(self, spec):
        with pytest.raises(ValueError):
            ClusteringConfig(dispatch_policy=spec)

    def test_config_grammar_matches_dispatch(self):
        # One grammar: the config validates with the very function the
        # dispatch module re-exports, so the two cannot diverge.
        from repro.core import config

        assert parse_policy is config.parse_policy
        for spec in ("paper", "jbsq", "jbsq:7"):
            assert make_policy(spec).name == make_policy(
                ClusteringConfig(dispatch_policy=spec).dispatch_policy
            ).name

    def test_cli_flag_parsed(self):
        args = build_parser().parse_args(
            ["cluster", "x.fa", "--dispatch-policy", "jbsq:3"]
        )
        assert args.dispatch_policy == "jbsq:3"

    def test_cli_flag_default(self):
        args = build_parser().parse_args(["cluster", "x.fa"])
        assert args.dispatch_policy == "paper"


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
    """--dispatch-policy paper must be byte-identical to the sequential
    partition on both engines, and no policy may change the partition."""

    def test_sim_all_policies_match_sequential(self, small_bench, small_config):
        seq = PaceClusterer(small_config).cluster(small_bench.collection).clusters
        for policy in ("paper", "jbsq:2"):
            rep = simulate_clustering(
                small_bench.collection,
                replace(small_config, dispatch_policy=policy),
                n_processors=4,
            )
            assert rep.result.clusters == seq, policy

    def test_mp_paper_matches_sequential(self, small_bench, small_config):
        seq = PaceClusterer(small_config).cluster(small_bench.collection).clusters
        import dataclasses

        cfg = dataclasses.replace(small_config, dispatch_policy="paper")
        result = cluster_multiprocessing(
            small_bench.collection, cfg, n_processors=3
        )
        assert result.clusters == seq

    def test_mp_jbsq_matches_sequential(self, small_bench, small_config):
        seq = PaceClusterer(small_config).cluster(small_bench.collection).clusters
        import dataclasses

        cfg = dataclasses.replace(small_config, dispatch_policy="jbsq:2")
        result = cluster_multiprocessing(
            small_bench.collection, cfg, n_processors=3
        )
        assert result.clusters == seq


class TestCustomPolicyInjection:
    def test_master_accepts_policy_instance(self):
        class Stingy(DispatchPolicy):
            name = "stingy"

            def request(self, ctx):
                return min(1, self.paper_request(ctx))

        m = MasterLogic(
            n_ests=20, n_slaves=1, batchsize=5, workbuf_capacity=50,
            policy=Stingy(),
        )
        pairs = [_mk_pair(2 * k, 2 * k + 1) for k in range(6)]
        reply = m.on_message(_msg(0, pairs=pairs))
        assert reply.request == 1
