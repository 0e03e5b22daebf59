"""Micro-benchmarks of the individual substrates.

Not tied to a paper exhibit; these keep the per-component costs visible
(suffix-array construction rate, the Kasai reference LCP, pair-generation
throughput, alignment engines, union-find ops) so regressions in any
layer show up before they distort the table/figure benches.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import bench_config, dataset, dataset_gst
from repro.align import (
    BatchPairAligner,
    PairAligner,
    ScoringParams,
    extend_overlap,
    overlap_align,
)
from repro.cluster import UnionFind
from repro.pairs import SaPairGenerator, VectorPairGenerator
from repro.suffix import build_suffix_array
from repro.suffix.lcp import lcp_kasai


@pytest.fixture(scope="module")
def medium():
    return dataset(30_000)


@pytest.fixture(scope="module")
def medium_text(medium):
    return medium.collection.sa_text()[0]


@pytest.fixture(scope="module")
def promising_pairs(medium):
    """A fixed slice of the 30k dataset's promising-pair stream — the
    shared workload of the per-pair vs batched alignment benches."""
    gst = dataset_gst(30_000)
    gen = SaPairGenerator(gst, psi=bench_config().psi)
    pairs = []
    for pair in gen.pairs():
        pairs.append(pair)
        if len(pairs) >= 1000:
            break
    return pairs


def test_suffix_array_construction(benchmark, medium_text):
    sa = benchmark(build_suffix_array, medium_text)
    assert len(sa) == len(medium_text)


def test_lcp_kasai(benchmark, medium_text):
    sa = build_suffix_array(medium_text)
    lcp = benchmark(lcp_kasai, medium_text, sa.sa)
    assert len(lcp) == len(medium_text)


def test_pair_generation_throughput(benchmark, medium):
    gst = dataset_gst(30_000)

    def drain():
        gen = SaPairGenerator(gst, psi=bench_config().psi)
        return sum(1 for _ in gen.pairs())

    count = benchmark.pedantic(drain, rounds=1, iterations=1)
    assert count > 0


def test_pair_generation_vector(benchmark, medium):
    gst = dataset_gst(30_000)

    def drain():
        gen = VectorPairGenerator(gst, psi=bench_config().psi)
        return sum(1 for _ in gen.pairs())

    count = benchmark.pedantic(drain, rounds=1, iterations=1)
    # Pure perf layer: identical pair count to the scalar drain above.
    assert count == sum(
        1 for _ in SaPairGenerator(gst, psi=bench_config().psi).pairs()
    )


def test_banded_extension(benchmark):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 4, 550).astype(np.uint8)
    y = x.copy()
    flips = rng.random(550) < 0.02
    y[flips] = (y[flips] + 1) % 4
    params = ScoringParams()
    res = benchmark(extend_overlap, x, y, params, 20)
    assert res.consumed_x == 550


def test_full_overlap_alignment(benchmark):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 4, 300).astype(np.uint8)
    y = np.concatenate([x[150:], rng.integers(0, 4, 150).astype(np.uint8)])
    res = benchmark.pedantic(
        overlap_align, args=(x, y, ScoringParams()), rounds=1, iterations=1
    )
    assert res.overlap_len >= 140


def test_alignment_per_pair(benchmark, medium, promising_pairs):
    col = medium.collection

    def run():
        return PairAligner(col).align_and_decide_batch(promising_pairs)

    out = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(out) == len(promising_pairs)


def test_alignment_batched(benchmark, medium, promising_pairs):
    col = medium.collection

    def run():
        return BatchPairAligner(col, group_size=64).align_and_decide_batch(
            promising_pairs
        )

    out = benchmark.pedantic(run, rounds=3, iterations=1)
    # The batched engine must be a pure perf layer: identical decisions.
    assert out == PairAligner(col).align_and_decide_batch(promising_pairs)


def test_union_find_throughput(benchmark):
    rng = np.random.default_rng(0)
    n = 50_000
    edges = rng.integers(0, n, size=(n, 2))

    def run():
        uf = UnionFind(n)
        for a, b in edges:
            uf.union(int(a), int(b))
        return uf.n_components

    comps = benchmark(run)
    assert comps >= 1


def test_union_find_batched_finds(benchmark):
    """The array ``find_many`` (admission, wave selection, WORKBUF
    pruning): the roots of a block's EST columns in one level-synchronous
    sweep over the int32 parent array."""
    rng = np.random.default_rng(1)
    n = 50_000
    uf = UnionFind(n)
    for a, b in rng.integers(0, n, size=(n // 2, 2)):
        uf.union(int(a), int(b))
    queries = rng.integers(0, n, size=4 * n).astype(np.int32)

    def run():
        return uf.find_many(queries)

    roots = benchmark(run)
    assert roots.tolist() == [uf.find(x) for x in queries.tolist()]


def test_gst_facade_build(benchmark, medium):
    from repro.suffix import SuffixArrayGst

    gst = benchmark.pedantic(
        SuffixArrayGst.build, args=(medium.collection,), rounds=1, iterations=1
    )
    assert gst.n_suffix_positions > 0


def test_flat_forest_build(benchmark):
    gst = dataset_gst(30_000)
    forest = benchmark(gst.flat_forest, min_depth=bench_config().psi)
    assert forest.n_nodes > 0
