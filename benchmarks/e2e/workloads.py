"""Workload definitions of the whole-run benchmark.

A workload is a corpus, an engine (one of the library's three front doors)
and a pinned configuration.  Sizes are committed: once a baseline exists,
changing a number here silently changes every metric, so ``oracle.json``
records the FASTA hash of each seed-0 corpus and the driver refuses to
report against a corpus that no longer matches.

How ``--seed`` makes the input.  The *structure* of a corpus (genes, gene
lengths, expression levels, read placement, sequencing errors) comes from
``make_benchmark(params, rng=0)`` and is the same for every seed.  The seed
draws the EST order and, per EST, which strand the FASTA carries.  That is a
different input to every layer — another suffix array, other string ids,
another pair order among equal-depth nodes, other union–find operands — with
the same amount of promising-pair work: measured on the committed sizes,
``pairs_generated`` is identical across seeds and the aligned count moves
by a few percent.  Drawing the structure from the seed as well was measured
and rejected: on the skewed corpus the depth and length of the top gene move
``pairs_generated`` by 2.3x and wall time by ±15 % between seeds, wider than
any regression bound this benchmark could then hold.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core import ClusteringConfig
from repro.sequence.alphabet import decode
from repro.sequence.fasta import FastaRecord, write_fasta
from repro.sequence.seq import reverse_complement
from repro.simulate import BenchmarkParams, ErrorModel, make_benchmark

#: Seed of every corpus's structure (see module docstring).
STRUCTURE_SEED = 0


def _deep(quick: bool) -> BenchmarkParams:
    if quick:
        return BenchmarkParams.small(n_genes=12, mean_ests_per_gene=6)
    return BenchmarkParams.small(n_genes=100, mean_ests_per_gene=8)


def _wide(quick: bool) -> BenchmarkParams:
    base = (
        BenchmarkParams.small(n_genes=20, mean_ests_per_gene=4)
        if quick
        else BenchmarkParams.small(n_genes=150, mean_ests_per_gene=4)
    )
    return dataclasses.replace(
        base,
        expression_skew=0.0,
        paralog_fraction=0.3,
        paralog_divergence=0.08,
        alt_splicing_fraction=0.3,
        error_model=ErrorModel(0.02, 0.01, 0.01),
    )


def _sparse(quick: bool) -> BenchmarkParams:
    return BenchmarkParams(
        n_genes=12 if quick else 350, mean_ests_per_gene=2, expression_skew=0.0
    )


def _sim(quick: bool) -> BenchmarkParams:
    if quick:
        return BenchmarkParams.small(n_genes=6, mean_ests_per_gene=6)
    return BenchmarkParams.small(n_genes=30, mean_ests_per_gene=8)


#: corpus name -> (params factory, short-read regime?).  The regime picks
#: the base configuration: ``ClusteringConfig.small_reads()`` or the
#: paper defaults (w=8, psi=25).
CORPORA = {
    "deep": (_deep, True),
    "wide": (_wide, True),
    "sparse": (_sparse, False),
    "sim": (_sim, True),
}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str
    #: "sequential" | "multiprocessing" | "simulated"
    engine: str
    #: ``ClusteringConfig`` fields pinned by this workload; everything else
    #: is whatever the library defaults to, so a default flip shows.
    overrides: dict = field(default_factory=dict)
    n_processors: int = 1
    why: str = ""

    @property
    def small_reads(self) -> bool:
        return CORPORA[self.corpus][1]

    def config(self) -> ClusteringConfig:
        return _config(self.small_reads, self.overrides)

    def oracle_config(self) -> ClusteringConfig:
        """The sequential scalar per-pair engine on this workload's
        thresholds and align engine — the reference every run must match."""
        pinned = {
            k: v for k, v in self.overrides.items() if k == "align_engine"
        }
        return _config(
            self.small_reads, {**pinned, "pair_engine": "scalar", "align_batch": 0}
        )


def _config(small_reads: bool, overrides: dict) -> ClusteringConfig:
    if small_reads:
        return ClusteringConfig.small_reads(**overrides)
    return ClusteringConfig(**overrides)


_FAST = {"pair_engine": "vector", "align_batch": 64}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "deep_default",
            "deep",
            "sequential",
            why="deep skewed library on library defaults: scalar pair drain "
            "and same_cluster lookups dominate; a default flip shows here",
        ),
        Workload(
            "deep_fast",
            "deep",
            "sequential",
            overrides=dict(_FAST),
            why="same corpus through the vector pair engine and batched "
            "aligner: stale in-batch skips make alignment the larger share",
        ),
        Workload(
            "wide_default",
            "wide",
            "sequential",
            why="many shallow genes with paralogs: few pairs, most aligned, "
            "most rejected; alignment-bound, union-find write-light",
        ),
        Workload(
            "sparse_build",
            "sparse",
            "sequential",
            overrides={"align_engine": "kdiff", "pair_engine": "vector"},
            why="full-length reads at depth 2: suffix array and forest build "
            "dominate wall time and peak RSS; pair/align changes bypass it",
        ),
        Workload(
            "mp_deep_fast",
            "deep",
            "multiprocessing",
            overrides={**_FAST, "shared_arenas": True},
            n_processors=3,
            why="real master + 2 slaves on the deep corpus: arena publish, "
            "spawn, pipe transit, on-demand batches, master absorb",
        ),
        Workload(
            "sim_p8",
            "sim",
            "simulated",
            n_processors=8,
            why="discrete-event machine, 8 processors: host cost of the "
            "protocol objects plus a virtual makespan that repeats exactly",
        ),
    )
}


@dataclass
class Corpus:
    """One generated input: FASTA records plus what checking needs."""

    records: list[FastaRecord]
    true_labels: list[int]
    sha256: str

    def write(self, path) -> None:
        write_fasta(self.records, path)


def make_corpus(corpus: str, seed: int, *, quick: bool = False) -> Corpus:
    """The corpus ``corpus`` as ``--seed`` presents it (module docstring)."""
    params = CORPORA[corpus][0](quick)
    bench = make_benchmark(params, rng=STRUCTURE_SEED)
    rng = np.random.default_rng(seed)
    order = rng.permutation(bench.n_ests)
    flipped = rng.random(bench.n_ests) < 0.5
    records = []
    labels = []
    for new_id, (old_id, flip) in enumerate(zip(order.tolist(), flipped.tolist())):
        read = bench.reads[old_id]
        codes = reverse_complement(read.codes) if flip else read.codes
        records.append(FastaRecord(f"EST{new_id}", decode(codes)))
        labels.append(read.gene_id)
    digest = hashlib.sha256()
    for rec in records:
        digest.update(rec.sequence.encode("ascii"))
        digest.update(b"\n")
    return Corpus(records=records, true_labels=labels, sha256=digest.hexdigest())
