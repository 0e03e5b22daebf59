"""The sequential clustering pipeline — the library's front door.

:class:`PaceClusterer` wires the substrates together exactly as Fig. 2 of
the paper: GST construction → on-demand pair generation → pair selection →
pairwise alignment → cluster management, and reports the per-component
timing breakdown in Table 3's categories.

Instrumentation: every phase runs inside a telemetry span (see
:mod:`repro.telemetry`), so passing ``telemetry=Telemetry()`` to
:meth:`PaceClusterer.cluster` yields a structured event stream plus
alignment/pair metrics on ``result.telemetry``; without it, a disabled
session accumulates only the phase seconds the result has always carried.

For multi-processor runs (real or simulated) see
:mod:`repro.parallel.runtime`; for adding new EST batches to an existing
clustering see :mod:`repro.core.incremental`.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator

from repro.align.batch import make_aligner
from repro.cluster.greedy import WorkCounters, greedy_cluster, greedy_cluster_batched
from repro.cluster.manager import ClusterManager
from repro.core.config import ClusteringConfig
from repro.core.results import ClusteringResult
from repro.pairs.pair import Pair
from repro.pairs.batch import make_pair_generator
from repro.sequence.collection import EstCollection
from repro.suffix.gst import SuffixArrayGst
from repro.telemetry import Telemetry
from repro.telemetry.causal import UnitMinter
from repro.telemetry.live import ResourceSampler, live_record
from repro.telemetry.monitor import RunMonitor, monitored_run
from repro.util.timing import TimingBreakdown

__all__ = ["PaceClusterer"]


class _TimedAligner:
    """Transparent aligner proxy observing per-batch ``align`` latency.

    The sequential driver has no protocol steps to hang stage timings on,
    so the aligner itself is the measurement point; every other attribute
    (``dp_cells_total`` etc.) passes straight through."""

    def __init__(self, inner, lat, now) -> None:
        self._inner = inner
        self._lat = lat
        self._now = now

    def align_and_decide_batch(self, pairs):
        t0 = self._now()
        out = self._inner.align_and_decide_batch(pairs)
        if pairs:
            self._lat.observe("align", self._now() - t0)
        return out

    def align_and_decide(self, pair):
        t0 = self._now()
        out = self._inner.align_and_decide(pair)
        self._lat.observe("align", self._now() - t0)
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _timed_pair_stream(
    stream: Iterable[Pair], lat, now, batchsize: int
) -> Iterator[Pair]:
    """Yield the stream unchanged while observing ``generate`` latency per
    batchsize chunk — timing covers only the upstream pulls, never the
    consumer's alignment work in between."""
    it = iter(stream)
    while True:
        t0 = now()
        chunk = list(itertools.islice(it, batchsize))
        if not chunk:
            return
        lat.observe("generate", now() - t0)
        yield from chunk


def _causal_stream(
    stream: Iterable[Pair],
    tel: Telemetry,
    manager: ClusterManager,
    batchsize: int,
    skip_clustered: bool,
) -> Iterator[Pair]:
    """Yield the stream unchanged while minting one work unit per
    batchsize chunk and recording its lifecycle in ``tel``.

    The sequential driver is its own master *and* slave, so each unit is
    master-minted and absorbed in place (reason ``"drain"``, same as the
    parallel master aligning locally).  The absorbed/pruned split is the
    skip-clustered test at yield time.  That is the consumer's own
    decision for the one-at-a-time loop, which tests the same cluster
    state.  The wave loop may defer a pair counted absorbed here and drop
    it later, once a merge of its wave has made it redundant, so there
    ``absorbed`` is an upper bound on the pairs aligned (``pruned`` pairs
    are dropped by both).  The unit's balance is exact either way: both
    buckets settle on the WORKBUF side of the conservation check.
    """
    mint = UnitMinter(-1)
    it = iter(stream)
    while True:
        chunk = list(itertools.islice(it, batchsize))
        if not chunk:
            return
        unit = mint()
        ts = tel.now()
        tel.record_causal("generated", unit, len(chunk), actor="master", ts=ts)
        tel.record_causal("admitted", unit, len(chunk), actor="master", ts=ts)
        absorbed = pruned = 0
        for pair in chunk:
            if skip_clustered and manager.same_cluster(pair.est_a, pair.est_b):
                pruned += 1
            else:
                absorbed += 1
            yield pair
        ts = tel.now()
        if absorbed:
            tel.record_causal(
                "absorbed", unit, absorbed, actor="master", ts=ts, reason="drain"
            )
        if pruned:
            tel.record_causal(
                "pruned", unit, pruned, actor="master", ts=ts, reason="drain"
            )


class PaceClusterer:
    """Sequential EST clustering with the paper's algorithm set."""

    def __init__(self, config: ClusteringConfig | None = None) -> None:
        self.config = config or ClusteringConfig()

    # ------------------------------------------------------------------ #

    def cluster(
        self,
        collection: EstCollection,
        *,
        telemetry: Telemetry | None = None,
        monitor: RunMonitor | None = None,
    ) -> ClusteringResult:
        """Cluster a collection end to end.

        ``monitor`` (or ``config.monitor_port``) attaches a live run
        monitor: the single sequential worker reports as "slave 0", with
        progress read from the pair generator's resumable position, by
        sampling inside the pair stream at the monitor's interval.
        """
        cfg = self.config
        tel = telemetry if telemetry is not None else Telemetry(enabled=False)
        timings = TimingBreakdown(registry=tel.registry)

        with tel.span("gst_construction", n_ests=collection.n_ests):
            gst = SuffixArrayGst.build(collection)

        # Forest construction + decreasing-depth ordering happen lazily in
        # the generators; constructing the generator here accounts the
        # eager part (forest building) under "sort_nodes", like Table 3.
        with tel.span("sort_nodes"):
            generator = make_pair_generator(
                gst, cfg, telemetry=tel if tel.enabled else None
            )

        aligner = make_aligner(
            collection, cfg, telemetry=tel if tel.enabled else None
        )
        manager = ClusterManager(collection.n_ests)
        counters = WorkCounters()

        pair_stream: Iterable[Pair] = generator.pairs()
        if tel.enabled:
            # Sequential lifecycle = {generate, align}: time batchsize
            # chunks of generation, and alignment via an aligner proxy.
            pair_stream = _timed_pair_stream(
                pair_stream, tel.latency, tel.now, cfg.batchsize
            )
            aligner = _TimedAligner(aligner, tel.latency, tel.now)
        tel.causal = cfg.causal_tracing and tel.enabled
        if tel.causal:
            pair_stream = _causal_stream(
                pair_stream, tel, manager, cfg.batchsize, cfg.skip_clustered
            )
        with monitored_run(
            monitor, cfg, tel, 1, engine="sequential"
        ) as monitor, tel.span("alignment"):
            if monitor is not None:
                pair_stream = self._monitored_stream(
                    pair_stream, generator, manager, monitor, tel.now
                )
            if cfg.align_batch:
                greedy_cluster_batched(
                    pair_stream,
                    aligner,
                    manager,
                    batch_size=cfg.batchsize,
                    skip_clustered=cfg.skip_clustered,
                    counters=counters,
                )
            else:
                greedy_cluster(
                    pair_stream,
                    aligner,
                    manager,
                    skip_clustered=cfg.skip_clustered,
                    counters=counters,
                )
            if monitor is not None:
                monitor.record(
                    {"kind": "live_state", "ts": tel.now(), "merges": len(manager.merges)}
                )

        snapshot = None
        if telemetry is not None:
            tel.count("pairs.produced", counters.pairs_generated)
            snapshot = tel.snapshot(engine="sequential", n_processors=1)
        return ClusteringResult(
            n_ests=collection.n_ests,
            clusters=manager.clusters(),
            counters=counters,
            timings=timings,
            gen_stats=generator.stats,
            merges=list(manager.merges),
            telemetry=snapshot,
        )

    # ------------------------------------------------------------------ #

    @staticmethod
    def _monitored_stream(
        stream: Iterable[Pair],
        generator,
        manager: ClusterManager,
        monitor: RunMonitor,
        now: Callable[[], float],
    ) -> Iterator[Pair]:
        """Wrap the pair stream so the sequential run samples itself at
        the monitor's interval (the generators expose resumable forest
        positions), stamped by ``now``, the run session's clock."""
        sampler = ResourceSampler()
        total_nodes = generator.total_nodes
        last = -math.inf
        produced = 0
        for pair in stream:
            produced += 1
            ts = now()
            if ts - last >= monitor.interval:
                last = ts
                monitor.record(
                    live_record(
                        "slave0",
                        ts,
                        rss_bytes=sampler.rss_bytes(),
                        cpu_seconds=sampler.cpu_seconds(),
                        pairs_generated=produced,
                        gen_position=(
                            min(
                                1.0,
                                generator.stats.nodes_processed / total_nodes,
                            )
                            if total_nodes
                            else 0.0
                        ),
                    )
                )
                monitor.record(
                    {"kind": "live_state", "ts": ts, "merges": len(manager.merges)}
                )
            yield pair

    # ------------------------------------------------------------------ #

    def cluster_pairs(
        self,
        collection: EstCollection,
        pair_stream: Iterable[Pair],
        *,
        telemetry: Telemetry | None = None,
    ) -> ClusteringResult:
        """Cluster from an externally-supplied pair stream (ablations and
        baselines feed arbitrary-order streams through this)."""
        cfg = self.config
        tel = telemetry if telemetry is not None else Telemetry(enabled=False)
        timings = TimingBreakdown(registry=tel.registry)
        aligner = make_aligner(
            collection, cfg, telemetry=tel if tel.enabled else None
        )
        manager = ClusterManager(collection.n_ests)
        counters = WorkCounters()
        with tel.span("alignment"):
            if cfg.align_batch:
                greedy_cluster_batched(
                    pair_stream,
                    aligner,
                    manager,
                    batch_size=cfg.batchsize,
                    skip_clustered=cfg.skip_clustered,
                    counters=counters,
                )
            else:
                greedy_cluster(
                    pair_stream,
                    aligner,
                    manager,
                    skip_clustered=cfg.skip_clustered,
                    counters=counters,
                )
        snapshot = None
        if telemetry is not None:
            snapshot = tel.snapshot(engine="sequential", n_processors=1)
        return ClusteringResult(
            n_ests=collection.n_ests,
            clusters=manager.clusters(),
            counters=counters,
            timings=timings,
            merges=list(manager.merges),
            telemetry=snapshot,
        )
