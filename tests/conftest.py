"""Shared fixtures: small deterministic benchmarks and configurations.

Everything is seeded; tests never depend on wall-clock or ordering
accidents.  The "small" regimes use short reads (~120 bp) and short genes
so whole pipelines run in well under a second each.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClusteringConfig, PaceClusterer
from repro.pairs import TreePairGenerator
from repro.sequence import EstCollection
from repro.simulate import BenchmarkParams, ErrorModel, make_benchmark
from repro.suffix import NaiveGst


@pytest.fixture(scope="session")
def small_benchmark():
    """10 genes, ~80 short ESTs, 2% errors — the standard pipeline input."""
    return make_benchmark(
        BenchmarkParams.small(n_genes=10, mean_ests_per_gene=8), rng=1
    )


@pytest.fixture(scope="session")
def clean_benchmark():
    """Error-free reads: every overlap is exact (recovery should be easy)."""
    params = BenchmarkParams.small(n_genes=6, mean_ests_per_gene=14)
    params = BenchmarkParams(
        n_genes=params.n_genes,
        mean_ests_per_gene=params.mean_ests_per_gene,
        read_params=params.read_params,
        error_model=ErrorModel.perfect(),
        n_exons_range=params.n_exons_range,
        exon_len_range=params.exon_len_range,
    )
    return make_benchmark(params, rng=7)


@pytest.fixture(scope="session")
def small_config():
    return ClusteringConfig.small_reads()


@pytest.fixture(scope="session")
def tree_engine_run(small_config):
    """``(collection, clusters)`` of the paper-faithful tree engine — the
    explicit bucket trees of ``NaiveGst`` under ``TreePairGenerator`` —
    on a corpus of its own (25 ESTs): it is a pure-Python oracle, ~4 s
    here against ~30 s on ``small_benchmark``.  Run once per session."""
    col = make_benchmark(
        BenchmarkParams.small(n_genes=4, mean_ests_per_gene=6), rng=3
    ).collection
    gst = NaiveGst.build(col, w=small_config.w)
    pairs = TreePairGenerator(gst, psi=small_config.psi).pairs()
    return col, PaceClusterer(small_config).cluster_pairs(col, pairs).clusters


@pytest.fixture(scope="session")
def tiny_collection():
    """A handful of hand-written overlapping strings (deterministic)."""
    return EstCollection.from_strings(
        [
            "ACGTACGTACGTTTTGGGCCCAAA",
            "ACGTTTTGGGCCCAAACCCGGGTT",
            "TTTGGGCCCAAACCCGG",
            "GGGTTTAAACCCGGGTTTACGTAC",
            "CATCATCATCATCAT",
        ],
        names=["a", "b", "c", "d", "e"],
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def overlapping_reads(rng, n: int, genome_len: int = 120, lo: int = 15, hi: int = 50):
    """Random reads off one random genome (helper for property tests)."""
    from repro.sequence.seq import reverse_complement

    genome = rng.integers(0, 4, size=genome_len, dtype=np.uint8)
    reads = []
    for _ in range(n):
        a = int(rng.integers(0, genome_len - lo))
        b = int(rng.integers(a + lo, min(genome_len, a + hi) + 1))
        read = genome[a:b]
        if rng.random() < 0.5:
            read = reverse_complement(read)
        reads.append(read.copy())
    return reads
