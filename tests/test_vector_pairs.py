"""The vectorised pair engine against its scalar oracle.

`VectorPairGenerator` must be a pure performance layer: for any input it
yields the *exact* pair sequence of `SaPairGenerator` — same multiset and
same order within and across depths — with identical `PairGenStats` and
telemetry counters.  These tests pin that contract down with hypothesis
driving random overlapping collections (including reverse-complement
duplicates) across ψ edge values, mirroring tests/test_batch_align.py.
"""

import hashlib
import importlib.util
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusteringConfig, PaceClusterer
from repro.pairs import (
    OnDemandPairGenerator,
    SaPairGenerator,
    VectorPairGenerator,
    make_pair_generator,
)
from repro.pairs.batch import CHUNK_NODES, PAIR_BLOCK_SIZE, _pairable
from repro.pairs.sa_generator import REITERATION_ERROR, PairGenStats
from repro.sequence import EstCollection
from repro.sequence.alphabet import LAMBDA
from repro.sequence.seq import reverse_complement
from repro.simulate import BenchmarkParams, make_benchmark
from repro.suffix import SuffixArrayGst
from repro.telemetry import Telemetry

from test_pair_generation import _random_overlapping_collection

seeds = st.integers(0, 10**6)


def _benchmark_gst(corpus: str) -> tuple[SuffixArrayGst, ClusteringConfig]:
    """Index and base configuration of a ``benchmarks/e2e`` corpus at
    ``--quick`` size, seed 0."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look themselves up
    try:
        spec.loader.exec_module(workloads)
        records = workloads.make_corpus(corpus, 0, quick=True).records
        small_reads = workloads.CORPORA[corpus][1]
    finally:
        del sys.modules[spec.name]
    cfg = ClusteringConfig.small_reads() if small_reads else ClusteringConfig()
    return SuffixArrayGst.build(EstCollection.from_records(records)), cfg


def _both_streams(col: EstCollection, psi: int, **vector_kwargs):
    gst = SuffixArrayGst.build(col)
    scalar = SaPairGenerator(gst, psi)
    vector = VectorPairGenerator(gst, psi, **vector_kwargs)
    return scalar, vector, list(scalar.pairs()), list(vector.pairs())


class TestCrossEngineEquivalence:
    @given(seeds, st.integers(2, 8), st.integers(4, 12))
    @settings(max_examples=60, deadline=None)
    def test_identical_streams_random_collections(self, seed, n, psi):
        """Same pairs, same order — not just the same set."""
        rng = np.random.default_rng(seed)
        col = _random_overlapping_collection(rng, n)
        _, _, s, v = _both_streams(col, psi)
        assert s == v

    @given(seeds, st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_reverse_complement_duplicates(self, seed, n):
        """Collections where every read also appears reverse-complemented
        exercise the Lemma 4 complemented-pair discard heavily."""
        rng = np.random.default_rng(seed)
        base = _random_overlapping_collection(rng, n)
        seqs = []
        for i in range(base.n_ests):
            s = base.est(i)
            seqs.append(s.copy())
            seqs.append((3 - s)[::-1].copy())
        col = EstCollection(seqs)
        _, _, s, v = _both_streams(col, 5)
        assert s == v

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_psi_edge_values(self, seed):
        """ψ = 1 (every depth qualifies) and ψ beyond the longest read
        (empty forest) are the boundary regimes of forest construction."""
        rng = np.random.default_rng(seed)
        col = _random_overlapping_collection(rng, 4)
        for psi in (1, 2, 200):
            _, _, s, v = _both_streams(col, psi)
            assert s == v

    @given(seeds, st.integers(2, 6), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_ranges_partition_parity(self, seed, n, parts):
        """The slave path: generation restricted to rank sub-ranges."""
        rng = np.random.default_rng(seed)
        col = _random_overlapping_collection(rng, n)
        gst = SuffixArrayGst.build(col)
        hi = len(gst.sa)
        cuts = sorted({int(c) for c in rng.integers(0, hi + 1, size=parts - 1)})
        bounds = [0, *cuts, hi]
        ranges = list(zip(bounds[:-1], bounds[1:]))
        s = list(SaPairGenerator(gst, 4, ranges=ranges).pairs())
        v = list(VectorPairGenerator(gst, 4, ranges=ranges).pairs())
        assert s == v

    @given(seeds, st.integers(2, 7))
    @settings(max_examples=30, deadline=None)
    def test_stats_parity(self, seed, n):
        """All four public PairGenStats counters agree after a full drain
        (nodes, raw products, emitted pairs, and the peak-lset high-water
        mark of the paper's space claim)."""
        rng = np.random.default_rng(seed)
        col = _random_overlapping_collection(rng, n)
        scalar, vector, s, v = _both_streams(col, 5)
        assert s == v
        assert scalar.stats == vector.stats

    @given(seeds, st.integers(1, 17))
    @settings(max_examples=20, deadline=None)
    def test_block_size_does_not_change_the_stream(self, seed, block_size):
        rng = np.random.default_rng(seed)
        col = _random_overlapping_collection(rng, 5)
        _, _, s, v = _both_streams(col, 4, block_size=block_size)
        assert s == v


class TestGuards:
    def test_scalar_raises_on_reiteration(self):
        rng = np.random.default_rng(0)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 3))
        gen = SaPairGenerator(gst, 5)
        list(gen.pairs())
        with pytest.raises(RuntimeError, match="already iterated"):
            gen.pairs()

    def test_vector_raises_on_reiteration(self):
        rng = np.random.default_rng(0)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 3))
        gen = VectorPairGenerator(gst, 5)
        list(gen.pairs())
        with pytest.raises(RuntimeError, match="already iterated"):
            gen.pairs()

    def test_iter_protocol_hits_the_same_guard(self):
        rng = np.random.default_rng(1)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 3))
        for gen in (SaPairGenerator(gst, 5), VectorPairGenerator(gst, 5)):
            list(iter(gen))
            with pytest.raises(RuntimeError, match="already iterated"):
                iter(gen)

    def test_guard_message_is_shared(self):
        assert "already iterated" in REITERATION_ERROR

    def test_vector_rejects_bad_parameters(self):
        rng = np.random.default_rng(2)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 3))
        with pytest.raises(ValueError, match="psi"):
            VectorPairGenerator(gst, 0)
        with pytest.raises(ValueError, match="block_size"):
            VectorPairGenerator(gst, 5, block_size=0)


class TestTelemetryParity:
    def _drain_with_telemetry(self, gen_cls, gst, psi):
        tel = Telemetry()
        gen = gen_cls(gst, psi, telemetry=tel)
        pairs = list(gen.pairs())
        return pairs, tel.registry.snapshot()

    def test_counters_match_scalar_engine(self):
        rng = np.random.default_rng(7)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 8))
        s_pairs, s_snap = self._drain_with_telemetry(SaPairGenerator, gst, 4)
        v_pairs, v_snap = self._drain_with_telemetry(VectorPairGenerator, gst, 4)
        assert s_pairs == v_pairs
        s_counters = {
            k: v for k, v in s_snap["counters"].items() if k.startswith("pairs.")
        }
        v_counters = {
            k: v
            for k, v in v_snap["counters"].items()
            if k.startswith("pairs.") and k != "pairs.block_size"
        }
        assert s_counters == v_counters
        assert s_counters["pairs.nodes"] > 0

    def test_vector_engine_records_block_size_histogram(self):
        rng = np.random.default_rng(8)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 8))
        tel = Telemetry()
        gen = VectorPairGenerator(gst, 4, block_size=3, telemetry=tel)
        n_pairs = len(list(gen.pairs()))
        hist = tel.registry.snapshot()["histograms"]["pairs.block_size"]
        assert hist["count"] >= 1
        assert hist["sum"] == n_pairs

    def test_flush_happens_on_early_close(self):
        """Abandoning the stream mid-way still flushes pairs.nodes/raw."""
        rng = np.random.default_rng(9)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 8))
        tel = Telemetry()
        gen = VectorPairGenerator(gst, 4, telemetry=tel)
        it = gen.pairs()
        next(it)
        it.close()
        counters = tel.registry.snapshot()["counters"]
        assert "pairs.nodes" in counters and "pairs.raw" in counters


class TestFactory:
    def test_selects_engine_from_config(self):
        rng = np.random.default_rng(3)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 3))
        cfg_s = ClusteringConfig.small_reads(psi=6, pair_engine="scalar")
        cfg_v = ClusteringConfig.small_reads(psi=6, pair_engine="vector")
        assert isinstance(make_pair_generator(gst, cfg_s), SaPairGenerator)
        gen = make_pair_generator(gst, cfg_v)
        assert isinstance(gen, VectorPairGenerator)
        assert gen.psi == 6
        assert gen.block_size == PAIR_BLOCK_SIZE

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_golden_pair_stream_on_the_benchmark_corpus(self, engine):
        """The whole index (suffix array, LCP, forest) feeds this stream,
        so any change to how it is built must leave the digest alone.
        Corpus: ``benchmarks/e2e`` ``deep`` at ``--quick`` size, seed 0;
        the digest was taken before the index build was rewritten."""
        gst, cfg = _benchmark_gst("deep")
        cfg = replace(cfg, pair_engine=engine)
        pairs = [tuple(p) for p in make_pair_generator(gst, cfg).pairs()]
        assert len(pairs) == 769
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == (
            "cd36941e56490f8f6c4f4b5f25f34bad8e8137ede39a8ece4c6d3fa239065c36"
        )

    @pytest.mark.parametrize(
        "corpus, n_pairs, digest",
        [
            ("wide", 243, "ee25d624a90fe7a96ef796d1253f78b6f79b6e96625258bf4a4a7798c53fc262"),
            ("sparse", 163, "4d299be6e187b80c6657926510098f557d223130fe7eabdcb99a32ea1bfce7ff"),
            ("sim", 480, "b754faa0fcb848e21498a6c3116cb21ac22ca9587a7250e8830c64b212a58ff9"),
        ],
    )
    def test_golden_pair_stream_on_the_other_quick_corpora(
        self, corpus, n_pairs, digest
    ):
        """Pair *order* on the remaining three benchmark corpora, without
        the scalar engine's run time (digests taken from it)."""
        gst, cfg = _benchmark_gst(corpus)
        pairs = [tuple(p) for p in make_pair_generator(gst, cfg).pairs()]
        assert len(pairs) == n_pairs
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest

    def test_fast_engines_are_the_defaults(self):
        for cfg in (ClusteringConfig(), ClusteringConfig.small_reads()):
            assert (cfg.pair_engine, cfg.align_batch) == ("vector", 64)

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="pair_engine"):
            ClusteringConfig(pair_engine="simd")


class TestPipelineIntegration:
    def test_clusters_identical_across_engines(self):
        """End-to-end: the sequential pipeline produces the same partition
        (and the same pair counters) under either engine."""
        rng = np.random.default_rng(11)
        col = _random_overlapping_collection(rng, 20)
        results = {}
        for engine in ("scalar", "vector"):
            cfg = ClusteringConfig.small_reads(w=4, psi=8, pair_engine=engine)
            tel = Telemetry()
            res = PaceClusterer(cfg).cluster(col, telemetry=tel)
            counters = tel.registry.snapshot()["counters"]
            results[engine] = (
                res.labels(),
                counters.get("pairs.nodes"),
                counters.get("pairs.raw"),
            )
        assert results["scalar"] == results["vector"]

    def test_vector_stream_through_ondemand_wrapper(self):
        """The chunked emission must preserve on-demand batch semantics."""
        rng = np.random.default_rng(12)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 10))
        reference = list(SaPairGenerator(gst, 4).pairs())
        source = OnDemandPairGenerator(
            VectorPairGenerator(gst, 4, block_size=5).pairs()
        )
        got = []
        while not source.exhausted:
            got.extend(source.next_batch(7))
        assert got == reference
        assert source.produced == len(reference)


class TestBlockStream:
    @given(
        seeds,
        st.integers(2, 7),
        st.integers(1, 4),
        st.sampled_from([1, 7, PAIR_BLOCK_SIZE]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_flattened_blocks_equal_the_scalar_stream(
        self, seed, n, parts, block_size, rc_duplicates
    ):
        """``blocks()`` flattened is the scalar engine's stream element for
        element — with reverse-complement duplicates, over slave rank
        partitions — and no block exceeds ``block_size``."""
        rng = np.random.default_rng(seed)
        col = _random_overlapping_collection(rng, n)
        if rc_duplicates:
            seqs = []
            for i in range(col.n_ests):
                seqs += [col.est(i).copy(), (3 - col.est(i))[::-1].copy()]
            col = EstCollection(seqs)
        gst = SuffixArrayGst.build(col)
        hi = len(gst.sa)
        cuts = sorted({int(c) for c in rng.integers(0, hi + 1, size=parts - 1)})
        bounds = [0, *cuts, hi]
        ranges = None if parts == 1 else list(zip(bounds[:-1], bounds[1:]))
        expected = list(SaPairGenerator(gst, 4, ranges=ranges).pairs())
        blocks = list(
            VectorPairGenerator(gst, 4, ranges=ranges, block_size=block_size).blocks()
        )
        assert all(0 < len(b) <= block_size for b in blocks)
        assert [pair for block in blocks for pair in block] == expected

    def test_scalar_blocks_flatten_to_its_pairs(self):
        rng = np.random.default_rng(5)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 8))
        blocks = list(SaPairGenerator(gst, 4).blocks())
        assert [p for b in blocks for p in b] == list(SaPairGenerator(gst, 4).pairs())


class TestPairObjectBudget:
    """Pairs travel as blocks; a ``Pair`` record is built for a pair that
    reaches the aligner, not for every pair generated."""

    @pytest.fixture()
    def constructions(self, monkeypatch):
        from repro.pairs.pair import Pair

        count = [0]
        make = Pair.__new__

        def counting(cls, *args, **kwargs):
            count[0] += 1
            return make(cls, *args, **kwargs)

        monkeypatch.setattr(Pair, "__new__", staticmethod(counting))
        return count

    def test_sequential_deep_run(self, constructions):
        gst, cfg = _benchmark_gst("deep")
        res = PaceClusterer(cfg).cluster(gst.collection)
        c = res.counters
        assert c.pairs_generated > 10 * c.pairs_processed
        assert 0 < constructions[0] <= c.pairs_processed + len(res.merges)

    def test_two_slave_simulated_run(self, constructions):
        from repro.parallel import simulate_clustering

        gst, cfg = _benchmark_gst("deep")
        res = simulate_clustering(gst.collection, cfg, n_processors=3).result
        c = res.counters
        budget = c.pairs_processed + len(res.merges) + res.faults.pairs_reassigned
        assert 0 < constructions[0] <= budget
        assert constructions[0] < c.pairs_generated / 2


# --- inputs that repeat a string inside one node -------------------------

_RNG = np.random.default_rng(20021)
_GENOME = _RNG.integers(0, 4, size=150, dtype=np.uint8)
_UNIT = _RNG.integers(0, 4, size=20, dtype=np.uint8)
_POLY_A = np.zeros(40, dtype=np.uint8)


def _reads(*spans: tuple[int, int]) -> list[np.ndarray]:
    return [_GENOME[a:b].copy() for a, b in spans]


_CLEAN = _reads((0, 70), (30, 100), (60, 130), (85, 150))
REPEATED_CORPORA = {
    "poly_a_tails": [np.concatenate((r, _POLY_A)) for r in _CLEAN[:3]],
    "tandem_repeat": [
        np.concatenate((_GENOME[:30], _UNIT, _UNIT, _UNIT, _GENOME[30:60])),
        *_reads((10, 60), (20, 90)),
    ],
    "three_identical": [_GENOME[:60].copy() for _ in range(3)] + _reads((30, 100)),
    "own_reverse_complement": [
        np.concatenate((_GENOME[:45], reverse_complement(_GENOME[:45]))),
        *_reads((10, 80), (30, 100)),
    ],
    "clean_and_repeated_roots": [
        *_CLEAN,
        np.concatenate((_GENOME[100:150], _POLY_A)),
        np.concatenate((_UNIT, _UNIT, _UNIT, _GENOME[:25])),
    ],
}


def _root_repeats_a_string(gst: SuffixArrayGst, psi: int) -> list[bool]:
    """Per forest root: does its interval hold two suffixes of one string?"""
    forest = gst.flat_forest(min_depth=psi)
    strings = gst.pos_string[gst.sa]
    out = []
    for v in forest.roots().tolist():
        inside = strings[forest.lb[v] : forest.rb[v] + 1]
        out.append(np.unique(inside).size < inside.size)
    return out


class TestRepeatedStrings:
    """Nodes whose interval repeats a string take the min-rank filter
    (docs/ALGORITHMS.md §3.1); every other test corpus of realistic ψ
    never reaches it."""

    @pytest.mark.parametrize("psi", [1, 4, 15])
    @pytest.mark.parametrize("name", sorted(REPEATED_CORPORA))
    def test_stream_and_stats_match_the_scalar_engine(self, name, psi):
        gst = SuffixArrayGst.build(EstCollection(REPEATED_CORPORA[name]))
        n = len(gst.sa)
        # An empty range among them: it is skipped, not an error.
        split = [(0, n // 3), (n // 3, n // 3), (n // 3, n - 7), (n - 7, n)]
        for ranges in (None, split):
            scalar = SaPairGenerator(gst, psi, ranges=ranges)
            expected = list(scalar.pairs())
            assert expected
            vector = VectorPairGenerator(gst, psi, ranges=ranges)
            assert list(vector.pairs()) == expected
            assert vector.stats == scalar.stats

    @pytest.mark.parametrize(
        "name", ["poly_a_tails", "tandem_repeat", "clean_and_repeated_roots"]
    )
    def test_the_corpora_do_repeat_strings_at_est_psi(self, name):
        """Even at ψ = 15 some root holds one string twice — and only
        some: each forest mixes both kinds of node.  (Identical ESTs and a
        read that is its own reverse complement are distinct *strings*:
        they stress multi-string leaves and the same-EST discard.)"""
        gst = SuffixArrayGst.build(EstCollection(REPEATED_CORPORA[name]))
        kinds = _root_repeats_a_string(gst, 15)
        assert any(kinds) and not all(kinds)

    def test_ranks_past_32_bit_products(self):
        """52 000 suffixes, poly-A tailed and tandem-repeat reads among
        clean ones: the (string << 32 | position) keys, the forest's node
        keys and the covered-position shift all run on ranks above 46 340,
        where an int32 product or shift has wrapped (the reads' reverse
        complements put the repeating roots at the top of the array)."""
        rng = np.random.default_rng(7)
        genome = rng.integers(0, 4, size=12_000, dtype=np.uint8)
        reads = [genome[a : a + 210].copy() for a in rng.integers(0, 11_790, 120)]
        reads[40:43] = [np.concatenate((r, _POLY_A)) for r in reads[40:43]]
        reads[80] = np.concatenate((reads[80][:90], _UNIT, _UNIT, _UNIT, reads[80][90:]))
        gst = SuffixArrayGst.build(EstCollection(reads))
        assert gst.text.size >= 50_000
        forest = gst.flat_forest(min_depth=15)
        repeating = forest.roots()[_root_repeats_a_string(gst, 15)]
        assert forest.lb[repeating].max() > 46_340
        scalar = SaPairGenerator(gst, 15)
        vector = VectorPairGenerator(gst, 15)
        expected = list(scalar.pairs())
        assert len(expected) > 200
        assert list(vector.pairs()) == expected
        assert vector.stats == scalar.stats

    def test_benchmark_corpora_repeat_no_string(self):
        """The common case at EST ψ: no root of the ``deep`` corpus holds a
        string twice, so the whole run stays on the prefix-count path."""
        gst, cfg = _benchmark_gst("deep")
        assert not any(_root_repeats_a_string(gst, cfg.psi))


# --- nodes that can pair -------------------------------------------------

_PRUNE_CORPORA = ["poly_a_tails", "tandem_repeat", "clean_and_repeated_roots"]


class _RawPairNodes(PairGenStats):
    """Scalar-engine stats that also note the processing index of every
    node at which a raw pair is counted (``at``)."""

    def __setattr__(self, name, value):
        if name == "raw_pairs" and value:
            self.__dict__.setdefault("at", set()).add(self.nodes_processed - 1)
        super().__setattr__(name, value)


def _node_kinds(gst: SuffixArrayGst, psi: int):
    """Per node of the forest at ψ: can its interval pair (a λ, or two
    different left characters, read off directly), does it hold a string
    twice; and the nodes where the scalar engine counts a raw pair."""
    scalar = SaPairGenerator(gst, psi)
    scalar.stats = _RawPairNodes()
    list(scalar.pairs())
    forest = scalar._forest
    cls = gst.left_chars(gst.sa)
    strings = gst.pos_string[gst.sa]
    spans = list(zip(forest.lb.tolist(), (forest.rb + 1).tolist()))
    pairable = np.array([LAMBDA in cls[a:b] or np.unique(cls[a:b]).size > 1 for a, b in spans], dtype=bool)
    repeats = np.array([np.unique(strings[a:b]).size < b - a for a, b in spans], dtype=bool)
    at = np.array(sorted(scalar.stats.__dict__.get("at", ())), dtype=np.int64)
    emitting = forest.nodes_by_decreasing_depth()[at]
    return forest, pairable, repeats, emitting


class TestPairableNodes:
    """A node whose interval holds one non-λ left character emits no pair,
    nor does any node below it (docs/ALGORITHMS.md §3.1): the sweep gives
    such nodes no slots and keeps their roots out of the class index."""

    @staticmethod
    def _check_sound(gst: SuffixArrayGst, psi: int) -> None:
        forest, pairable, _, emitting = _node_kinds(gst, psi)
        assert (_pairable(gst.left_chars(gst.sa), forest.lb, forest.rb + 1) == pairable).all()
        assert pairable[emitting].all()
        inner = np.flatnonzero(forest.parent >= 0)
        assert pairable[forest.parent[inner[pairable[inner]]]].all()  # upward closed

    @given(seeds, st.integers(2, 8), st.sampled_from([1, 3, 15]))
    @settings(max_examples=40, deadline=None)
    def test_raw_pairs_only_at_pairable_nodes(self, seed, n, psi):
        col = _random_overlapping_collection(np.random.default_rng(seed), n)
        self._check_sound(SuffixArrayGst.build(col), psi)

    @pytest.mark.parametrize("psi", [1, 3, 15])
    @pytest.mark.parametrize("name", _PRUNE_CORPORA)
    def test_raw_pairs_only_at_pairable_nodes_of_repeats(self, name, psi):
        self._check_sound(SuffixArrayGst.build(EstCollection(REPEATED_CORPORA[name])), psi)

    def test_the_corpora_hold_nodes_that_cannot_pair(self):
        """Every corpus below has nodes that cannot pair — at one node per
        step, each is a step with no pairable node — and the tandem repeat
        has a node that repeats a string and cannot pair."""
        for reads in [*(REPEATED_CORPORA[name] for name in _PRUNE_CORPORA), _CLEAN]:
            gst = SuffixArrayGst.build(EstCollection(reads))
            for psi in (3, 15):
                _, pairable, _, _ = _node_kinds(gst, psi)
                assert pairable.any() and not pairable.all()
        gst = SuffixArrayGst.build(EstCollection(_CLEAN))
        assert not _node_kinds(gst, 15)[2].any()
        gst = SuffixArrayGst.build(EstCollection(REPEATED_CORPORA["tandem_repeat"]))
        _, pairable, repeats, _ = _node_kinds(gst, 15)
        assert (repeats & ~pairable).any() and (repeats & pairable).any()

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    @pytest.mark.parametrize("name", [*_PRUNE_CORPORA, "clean"])
    def test_any_step_size_matches_the_scalar_engine(self, monkeypatch, name, chunk):
        """Stream and every ``PairGenStats`` field equal the scalar
        engine's at any step size; at one node per step, also after every
        block (the scalar engine yields one block per emitting node)."""
        monkeypatch.setattr("repro.pairs.batch.CHUNK_NODES", chunk)
        reads = _CLEAN if name == "clean" else REPEATED_CORPORA[name]
        gst = SuffixArrayGst.build(EstCollection(reads))
        for psi in (3, 15):
            scalar = SaPairGenerator(gst, psi)
            vector = VectorPairGenerator(gst, psi)
            if chunk == 1:
                for mine, theirs in zip(vector.blocks(), scalar.blocks(), strict=True):
                    assert np.array_equal(mine.cols, theirs.cols)
                    assert vector.stats == scalar.stats
            else:
                assert list(vector.pairs()) == list(scalar.pairs())
            assert vector.stats == scalar.stats


class TestChunkedSweep:
    def test_stream_is_lazy_and_blocks_stay_bounded(self):
        """One on-demand batch must not sweep the whole forest, and every
        emitted block is observed, none above ``block_size``."""
        gst, cfg = _benchmark_gst("deep")
        tel = Telemetry()
        gen = VectorPairGenerator(gst, cfg.psi, block_size=16, telemetry=tel)
        assert gen.total_nodes > CHUNK_NODES
        source = OnDemandPairGenerator(gen.pairs())
        assert len(source.next_batch(60)) == 60
        assert 0 < gen.stats.nodes_processed < gen.total_nodes
        n_pairs = 60 + len(list(source))
        assert gen.stats.nodes_processed == gen.total_nodes
        hist = tel.registry.snapshot()["histograms"]["pairs.block_size"]
        assert hist["sum"] == n_pairs
        # Bucket 0 is "<= 16": no block exceeded block_size.
        assert hist["counts"][0] == hist["count"] >= n_pairs / 16

    def test_generator_allocations_stay_below_the_arena_engine(self):
        """tracemalloc peak of build + drain on the ``deep`` quick corpus.
        The lset-arena engine this one replaced peaked at 3.39 MB here; an
        untraced first drain takes numpy's one-time allocations out."""
        gst, cfg = _benchmark_gst("deep")
        list(VectorPairGenerator(gst, cfg.psi).pairs())
        tracemalloc.start()
        try:
            list(VectorPairGenerator(gst, cfg.psi).pairs())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_index_build_stays_within_its_bytes_per_suffix(self):
        """tracemalloc live and peak bytes of ``SuffixArrayGst.build`` per
        suffix on 300 short reads.  What it returns is the one-byte text 1
        + ``sa`` 4 + int16 ``lcp`` 2 + ``pos_string`` 4 = 11.05 B/suffix
        (25.1 with an int32 text and offset, length and left-character
        tables; 52.1 when the tables were int64); the peak is 24.0
        B/suffix — 34.0 while a rank array, prefix doubling and a
        separate LCP pass followed the seed, 42.7 while the seed sort took
        an ``argsort`` of its keys and a gather of them, 52.8 with those
        tables under the sort, 83.6 while the sort kept a rank array per
        round for the LCP pass, 104.9 with int64 tables.  On 70 000
        suffixes much of it is the fixed per-block scratch of the passes
        over keys.  The pin keeps the 29 % headroom the 34.0 had."""
        reads = make_benchmark(
            replace(BenchmarkParams.small(100, 3), expression_skew=0.0), rng=0
        ).reads[:300]
        col = EstCollection([read.codes for read in reads])
        SuffixArrayGst.build(col)
        tracemalloc.start()
        try:
            gst = SuffixArrayGst.build(col)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = gst.n_suffix_positions
        assert gst.lcp.size == m
        assert live <= 12 * m
        assert peak <= 31 * m

    def test_index_to_first_pair_peak_on_the_deep_corpus(self):
        """tracemalloc peak of build + generator construction + first pair
        on the ``deep`` quick corpus (18 814 suffixes): 1.88 MB, against
        2.17 MB with the sort's rank levels and int32 count tables, and
        3.08 MB with int64 tables and forest and a class index over every
        rank.  About 1 MB of it is the first chunk's per-slot tables,
        which do not scale with the corpus."""
        gst, cfg = _benchmark_gst("deep")
        col = gst.collection
        next(VectorPairGenerator(gst, cfg.psi).pairs())
        del gst
        tracemalloc.start()
        try:
            gst = SuffixArrayGst.build(col)
            next(VectorPairGenerator(gst, cfg.psi).pairs())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.67 * 3_075_431

    def test_phase_peaks_on_full_length_reads(self):
        """tracemalloc peak per suffix of each phase of a sequential run on
        full-length reads (80 genes × 2 reads of ~550 bp, 215 348
        suffixes), each over what is live when it starts: index build
        18.8, forest build 25.9, pair drain 25.4 B/suffix.  The build was
        22.3 while a rank array, prefix doubling and a separate LCP pass
        followed the seed; it now peaks in the first refinement round, the
        seed at 17.6.  They were
        27.2 / 27.3 / 26.7 while the seed sort took an ``argsort`` of its
        keys and packed them beside two shifted copies, the forest's leaf
        owners were computed beside the labels they are read from, and
        the drain held the processing order through the string sort; a
        drain of 30.7 while every node got slots and the covered ranks and
        root tables lived through the string sort; 39.1 / 41.4 / 44.7
        while the index kept an int32 text and offset, length and
        left-character tables (25 B/suffix, and the sort read two of
        them), 65.6 / 61.8 / 54.2 while the sort kept rank levels and seed
        windows, the forest searched int64 node keys and the drain counted
        classes in one int32 table.  Each phase's peak sits close to the
        next one's, so each is pinned, with under 10 % headroom: a
        regression in any becomes the run's peak."""
        reads = make_benchmark(
            BenchmarkParams(n_genes=80, mean_ests_per_gene=2, expression_skew=0.0),
            rng=0,
        ).reads
        col = EstCollection([read.codes for read in reads])
        psi = ClusteringConfig().psi
        list(VectorPairGenerator(SuffixArrayGst.build(col), psi).pairs())
        tracemalloc.start()
        try:
            gst = SuffixArrayGst.build(col)
            build = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            gen = VectorPairGenerator(gst, psi)
            forest = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            for _pair in gen.pairs():
                pass
            drain = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = gst.n_suffix_positions
        assert m > 200_000
        assert build <= 20.6 * m
        assert forest <= 28 * m
        assert drain <= 27.5 * m
