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

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.align.extend import PairAligner
from repro.cluster.manager import ClusterManager
from repro.cluster.waves import Speculation, by_verdict
from repro.pairs.ondemand import OnDemandPairGenerator
from repro.pairs.pair import EMPTY_BLOCK, Pair, PairBlock
from repro.telemetry import Telemetry
from repro.telemetry.causal import NULL_MINTER, UnitMinter

__all__ = ["WorkCounters", "greedy_cluster", "greedy_cluster_batched", "SKIP_WINDOW"]

#: Pairs per window of the batched loop's skip test: one root comparison
#: each.  Larger than a wave costs nothing but the test itself: the walk
#: stops at the first live pair once the wave is full, and the rest of the
#: window goes back to the head of the queue.
SKIP_WINDOW = 512

_NO_UNITS = np.zeros(0, dtype=np.int64)


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
    pair_stream: Iterable[PairBlock] | Iterable[Pair] | OnDemandPairGenerator,
    aligner: PairAligner,
    manager: ClusterManager,
    *,
    batch_size: int,
    skip_clustered: bool = True,
    counters: WorkCounters | None = None,
    max_alignments: int | None = None,
    telemetry: Telemetry | None = None,
    sample: Callable[[int], None] | None = None,
) -> WorkCounters:
    """The clustering loop in conflict-free waves (mutates ``manager``).

    Each round chooses up to ``batch_size`` pairs by a
    :class:`~repro.cluster.waves.Speculation` walk, aligns them with one
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

    Pairs move as blocks (the generator's ``blocks()``, or ``Pair``
    records packed into blocks): the skip test runs on windows of
    :data:`SKIP_WINDOW` pairs, deferred pairs wait as a block, and a
    ``Pair`` is built only for a wave member.  The loop observes itself
    in ``telemetry`` (an enabled session; traced and untraced runs take
    the same path): ``generate`` latency per window pulled from the
    stream, ``align`` latency per wave, and under causal tracing each such
    window is a master-minted work unit whose pairs settle ``absorbed``
    when aligned and ``pruned`` when dropped, both with reason
    ``"drain"``.  ``sample(pairs generated)`` runs after every window
    pulled from the stream (the live monitor's hook).
    """
    counters = counters if counters is not None else WorkCounters()
    tel = telemetry if telemetry is not None else Telemetry(enabled=False)
    mint = UnitMinter(-1) if tel.causal else NULL_MINTER
    cells_before = aligner.dp_cells_total
    generator = (
        pair_stream
        if isinstance(pair_stream, OnDemandPairGenerator)
        else OnDemandPairGenerator(pair_stream)
    )
    window = max(batch_size, SKIP_WINDOW) if skip_clustered else batch_size
    # Deferred pairs and pulled ones not looked at, in stream order, ahead
    # of fresh ones; with each pair's work unit.
    held, held_units = EMPTY_BLOCK, _NO_UNITS

    def pull() -> tuple[PairBlock, np.ndarray]:
        nonlocal held, held_units
        if len(held):
            chunk, units = held[:window], held_units[:window]
            held, held_units = held[window:], held_units[window:]
            return chunk, units
        t0 = tel.now()
        chunk = generator.next_batch(window)
        n = len(chunk)
        if not n:
            return chunk, _NO_UNITS
        tel.latency.observe("generate", tel.now() - t0)
        counters.pairs_generated += n
        unit = mint()
        ts = tel.now()
        tel.record_causal("generated", unit, n, actor="master", ts=ts)
        tel.record_causal("admitted", unit, n, actor="master", ts=ts)
        if sample is not None:
            sample(counters.pairs_generated)
        return chunk, np.full(n, unit, dtype=np.int64)

    while True:
        room = batch_size
        if max_alignments is not None:
            room = min(room, max_alignments - counters.pairs_processed)
        if room <= 0:
            break
        speculation = Speculation(manager)
        wave: list[Pair] = []
        wave_units: list[np.ndarray] = []
        kept: list[PairBlock] = []
        kept_units: list[np.ndarray] = []
        while room > 0:
            chunk, units = pull()
            n = len(chunk)
            if not n:
                break
            if skip_clustered:
                taken, deferred, stale = by_verdict(speculation.classify(chunk, room), n)
            else:
                taken = np.arange(min(room, n))
                deferred, stale = np.arange(room, n), taken[:0]
            room -= taken.size
            wave.extend(chunk[taken])
            wave_units.append(units[taken])
            kept.append(chunk[deferred])
            kept_units.append(units[deferred])
            counters.pairs_skipped += stale.size
            _settle(tel, "pruned", units[stale])
        held = PairBlock.concat([*kept, held])
        held_units = np.concatenate([*kept_units, held_units])
        if not wave:
            break
        counters.pairs_processed += len(wave)
        t0 = tel.now()
        decisions = aligner.align_and_decide_batch(wave)
        tel.latency.observe("align", tel.now() - t0)
        _settle(tel, "absorbed", np.concatenate(wave_units))
        for pair, (result, accepted) in zip(wave, decisions):
            if accepted:
                counters.pairs_accepted += 1
                manager.merge(pair, result)
    # Alignment budget spent: whatever is left is retired unaligned.
    _settle(tel, "pruned", held_units)
    unaligned = len(held) + generator.drain()
    counters.pairs_generated += unaligned - len(held)
    counters.pairs_skipped += unaligned
    counters.dp_cells += aligner.dp_cells_total - cells_before
    return counters


def _settle(tel: Telemetry, event: str, units: np.ndarray) -> None:
    """Record ``event`` for the pairs of each work unit among ``units``
    (the sequential driver is its own master and slave: reason
    ``"drain"``, as for the parallel master aligning locally)."""
    if tel.causal and units.size:
        ts = tel.now()
        for unit, n in Counter(units.tolist()).items():
            tel.record_causal(event, unit, n, actor="master", ts=ts, reason="drain")
