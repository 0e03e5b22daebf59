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
The batched loop records its own stages, work units and live samples
(:func:`~repro.cluster.greedy.greedy_cluster_batched`), so a traced and
an untraced run execute the same loop.

For multi-processor runs (real or simulated) see
:mod:`repro.parallel.runtime`; for adding new EST batches to an existing
clustering see :mod:`repro.core.incremental`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

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
from repro.telemetry.live import ResourceSampler, live_record
from repro.telemetry.monitor import RunMonitor, monitored_run
from repro.util.heap import release_free_heap
from repro.util.timing import TimingBreakdown

__all__ = ["PaceClusterer"]


def _live_sampler(
    generator, manager: ClusterManager, monitor: RunMonitor, now: Callable[[], float]
) -> Callable[[int], None]:
    """The sequential run's live hook: at most one ``slave0`` record (its
    resources, pairs generated and the generator's resumable forest
    position) and one ``live_state`` record per monitor interval, stamped
    by ``now``, the run session's clock."""
    sampler = ResourceSampler()
    total_nodes = generator.total_nodes
    last = -math.inf

    def sample(produced: int) -> None:
        nonlocal last
        ts = now()
        if ts - last < monitor.interval:
            return
        last = ts
        position = generator.stats.nodes_processed / total_nodes if total_nodes else 0.0
        monitor.record(
            live_record(
                "slave0",
                ts,
                rss_bytes=sampler.rss_bytes(),
                cpu_seconds=sampler.cpu_seconds(),
                pairs_generated=produced,
                gen_position=min(1.0, position),
            )
        )
        monitor.record({"kind": "live_state", "ts": ts, "merges": len(manager.merges)})

    return sample


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
        sampling as the batched loop pulls pairs, at the monitor's
        interval.  The per-pair oracle loop (``align_batch=0``) records
        phase spans only.

        The index, generator and aligner are garbage once the run
        returns; their freed heap goes back to the operating system
        (:func:`~repro.util.heap.release_free_heap`).
        """
        result = self._cluster(collection, telemetry, monitor)
        release_free_heap()
        return result

    def _cluster(
        self,
        collection: EstCollection,
        telemetry: Telemetry | None,
        monitor: RunMonitor | None,
    ) -> ClusteringResult:
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
        tel.causal = cfg.causal_tracing and tel.enabled
        with monitored_run(
            monitor, cfg, tel, 1, engine="sequential"
        ) as monitor, tel.span("alignment"):
            if cfg.align_batch:
                greedy_cluster_batched(
                    generator.blocks(),
                    aligner,
                    manager,
                    batch_size=cfg.batchsize,
                    skip_clustered=cfg.skip_clustered,
                    counters=counters,
                    telemetry=tel,
                    sample=(
                        None
                        if monitor is None
                        else _live_sampler(generator, manager, monitor, tel.now)
                    ),
                )
            else:
                greedy_cluster(
                    generator.pairs(),
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
