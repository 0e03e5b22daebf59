"""The sequential clustering loop.

This is the algorithmic core of §2 stripped of parallel machinery: consume
promising pairs in decreasing order of maximal-common-substring length;
skip pairs whose ESTs already share a cluster; align the remainder; merge
on acceptance; stop when the generator runs dry (or an optional work
budget is hit).  The three counters — generated, processed (= aligned),
accepted — are exactly the three series of the paper's Fig. 7.

The parallel drivers reuse this module's :class:`WorkCounters`; the final
cluster partition is provably independent of pair processing order (see
tests/test_integration.py::test_order_independence), which is why the
simulated and real parallel runs reproduce the sequential partition
exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.align.extend import PairAligner
from repro.cluster.manager import ClusterManager
from repro.cluster.waves import Speculation, by_verdict, next_wave
from repro.pairs.ondemand import OnDemandPairGenerator
from repro.pairs.pair import Pair

__all__ = ["WorkCounters", "greedy_cluster", "greedy_cluster_batched"]


@dataclass
class WorkCounters:
    """Pair-flow accounting (Fig. 7: generated / processed / accepted)."""

    pairs_generated: int = 0
    pairs_skipped: int = 0  # dropped by the already-clustered test
    pairs_processed: int = 0  # actually aligned
    pairs_accepted: int = 0  # alignment strong enough to merge
    dp_cells: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "pairs_generated": self.pairs_generated,
            "pairs_skipped": self.pairs_skipped,
            "pairs_processed": self.pairs_processed,
            "pairs_accepted": self.pairs_accepted,
            "dp_cells": self.dp_cells,
        }


def greedy_cluster(
    pair_stream: Iterable[Pair],
    aligner: PairAligner,
    manager: ClusterManager,
    *,
    skip_clustered: bool = True,
    counters: WorkCounters | None = None,
    max_alignments: int | None = None,
) -> WorkCounters:
    """Run the clustering loop to completion (mutates ``manager``).

    Parameters
    ----------
    skip_clustered:
        The paper's pair-selection optimisation.  ``False`` aligns every
        generated pair — the ablation arm measuring how much work the
        cluster test saves.
    max_alignments:
        Optional hard budget on alignments (used by incremental and
        exploratory runs); the partition is then possibly partial.
    """
    counters = counters if counters is not None else WorkCounters()
    cells_before = aligner.dp_cells_total
    for pair in pair_stream:
        counters.pairs_generated += 1
        if skip_clustered and manager.same_cluster(pair.est_a, pair.est_b):
            counters.pairs_skipped += 1
            continue
        if max_alignments is not None and counters.pairs_processed >= max_alignments:
            counters.pairs_skipped += 1
            continue
        result, accepted = aligner.align_and_decide(pair)
        counters.pairs_processed += 1
        if accepted:
            counters.pairs_accepted += 1
            manager.merge(pair, result)
    counters.dp_cells += aligner.dp_cells_total - cells_before
    return counters


def greedy_cluster_batched(
    pair_stream: Iterable[Pair],
    aligner: PairAligner,
    manager: ClusterManager,
    *,
    batch_size: int,
    skip_clustered: bool = True,
    counters: WorkCounters | None = None,
    max_alignments: int | None = None,
) -> WorkCounters:
    """The clustering loop in conflict-free waves (mutates ``manager``).

    Each round chooses up to ``batch_size`` pairs with
    :func:`~repro.cluster.waves.next_wave`, aligns them with one
    :meth:`~repro.align.extend.PairAligner.align_and_decide_batch` call
    (vectorised by :class:`~repro.align.batch.BatchPairAligner`), merges
    the accepted ones, and reconsiders the deferred pairs ahead of fresh
    ones from the stream.  A wave holds no pair that an earlier pair of
    the same wave could make redundant, so no more pairs are aligned than
    in the one-at-a-time loop (on the same stream, a subset of them), and
    the final partition is identical: it is the connected components of
    the accepted-pair graph, acceptance is a pure per-pair decision, and
    a pair is dropped unaligned only once its ESTs really share a cluster.

    ``skip_clustered=False`` aligns every pair once, in plain
    ``batch_size`` strides: with no pair selection there is nothing to
    defer.
    """
    counters = counters if counters is not None else WorkCounters()
    cells_before = aligner.dp_cells_total
    generator = (
        pair_stream
        if isinstance(pair_stream, OnDemandPairGenerator)
        else OnDemandPairGenerator(pair_stream)
    )
    deferred: deque[Pair] = deque()

    def pull() -> list[Pair]:
        if deferred:
            n = min(batch_size, len(deferred))
            return [deferred.popleft() for _ in range(n)]
        fresh = generator.next_batch(batch_size)
        counters.pairs_generated += len(fresh)
        return fresh

    while True:
        room = batch_size
        if max_alignments is not None:
            room = min(room, max_alignments - counters.pairs_processed)
        if room <= 0:
            break
        wave: list[Pair] = []
        held: list[Pair] = []
        if skip_clustered:
            for chunk, verdicts in next_wave(Speculation(manager), pull, room):
                taken, kept, stale = by_verdict(chunk, verdicts)
                wave += taken
                held += kept
                counters.pairs_skipped += len(stale)
        else:
            chunk = pull()
            wave, held = chunk[:room], chunk[room:]
        deferred.extendleft(reversed(held))
        if not wave:
            break
        counters.pairs_processed += len(wave)
        for pair, (result, accepted) in zip(wave, aligner.align_and_decide_batch(wave)):
            if accepted:
                counters.pairs_accepted += 1
                manager.merge(pair, result)
    # Alignment budget spent: whatever is left is retired unaligned.
    unaligned = len(deferred) + sum(1 for _ in generator)
    counters.pairs_generated += unaligned - len(deferred)
    counters.pairs_skipped += unaligned
    counters.dp_cells += aligner.dp_cells_total - cells_before
    return counters
