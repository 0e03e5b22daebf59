"""Timing proxies and the span recorder of the traced run.

The program is traced from outside: ``traced_cluster`` composes the same
public calls as ``PaceClusterer.cluster`` (suffix-array backend) and puts a
proxy at each layer boundary — the pair iterator's ``next``, the aligner's
``align_and_decide(_batch)`` and the cluster manager's
``same_cluster(_batch)`` / ``merge``.  Nothing under ``src/`` knows it is
being watched, so the untraced runs that feed the end-to-end metrics
execute exactly the code a user runs.

A span is ``(id, parent, name, start, end, busy, calls)``.  Phase spans
have ``busy == end - start``.  Per-pair calls are folded: one span per
``FOLD`` calls, whose ``busy`` is the time spent *inside* those calls
(the interval ``start..end`` also contains the caller's work between
them).  A span's self time is its ``busy`` minus its children's ``busy``.
"""

from __future__ import annotations

from time import perf_counter

from repro.align.batch import make_aligner
from repro.cluster.greedy import WorkCounters, greedy_cluster, greedy_cluster_batched
from repro.cluster.manager import ClusterManager
from repro.pairs.batch import make_pair_generator
from repro.suffix.gst import SuffixArrayGst

#: Per-pair calls folded into one span.
FOLD = 1024


class SpanRecorder:
    """In-memory span store; written out once, when the run has ended."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _add(self, name, start, end, busy, calls) -> int:
        sid = len(self.spans)
        self.spans.append(
            {
                "id": sid,
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "start": start,
                "end": end,
                "busy": busy,
                "calls": calls,
                "run": self.run_id,
            }
        )
        return sid

    def span(self, name: str) -> "_Phase":
        return _Phase(self, name)

    def busy(self, name: str) -> float:
        return sum(s["busy"] for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(s["calls"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Self time per span name (busy minus children's busy)."""
        child_busy = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_busy[s["parent"]] += s["busy"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["busy"] - child_busy[s["id"]]
        return out


class _Phase:
    def __init__(self, rec: SpanRecorder, name: str) -> None:
        self._rec = rec
        self._name = name

    def __enter__(self):
        rec = self._rec
        self._sid = rec._add(self._name, perf_counter(), 0.0, 0.0, 1)
        rec._stack.append(self._sid)
        return self

    def __exit__(self, *exc):
        rec = self._rec
        rec._stack.pop()
        span = rec.spans[self._sid]
        span["end"] = perf_counter()
        span["busy"] = span["end"] - span["start"]


class _Folded:
    """Accumulates timed calls and emits one span per ``FOLD`` of them."""

    __slots__ = ("_rec", "_name", "_calls", "_busy", "_start", "_end")

    def __init__(self, rec: SpanRecorder, name: str) -> None:
        self._rec = rec
        self._name = name
        self._calls = 0
        self._busy = 0.0
        self._start = 0.0
        self._end = 0.0

    def add(self, t0: float, t1: float) -> None:
        if not self._calls:
            self._start = t0
        self._calls += 1
        self._busy += t1 - t0
        self._end = t1
        if self._calls >= FOLD:
            self.flush()

    def flush(self) -> None:
        if self._calls:
            self._rec._add(self._name, self._start, self._end, self._busy, self._calls)
            self._calls = 0
            self._busy = 0.0


class TimedPairStream:
    """Iterator proxy: time spent inside the pair generator's ``next``."""

    def __init__(self, stream, rec: SpanRecorder) -> None:
        self._next = iter(stream).__next__
        self.timer = _Folded(rec, "pairs.next")

    def __iter__(self):
        return self

    def __next__(self):
        t0 = perf_counter()
        try:
            return self._next()
        finally:
            self.timer.add(t0, perf_counter())


class TimedAligner:
    """Aligner proxy; every other attribute passes through."""

    def __init__(self, inner, rec: SpanRecorder) -> None:
        self._inner = inner
        self.timer = _Folded(rec, "align.call")
        self.pairs = 0

    def align_and_decide(self, pair):
        t0 = perf_counter()
        out = self._inner.align_and_decide(pair)
        self.timer.add(t0, perf_counter())
        self.pairs += 1
        return out

    def align_and_decide_batch(self, pairs):
        t0 = perf_counter()
        out = self._inner.align_and_decide_batch(pairs)
        self.timer.add(t0, perf_counter())
        self.pairs += len(out)
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedClusterManager(ClusterManager):
    """Cluster manager with timed pair selection and merging."""

    def __init__(self, n_ests: int, rec: SpanRecorder) -> None:
        super().__init__(n_ests)
        self.find_timer = _Folded(rec, "cluster.find")
        self.merge_timer = _Folded(rec, "cluster.merge")

    def same_cluster(self, est_a, est_b):
        t0 = perf_counter()
        out = ClusterManager.same_cluster(self, est_a, est_b)
        self.find_timer.add(t0, perf_counter())
        return out

    def same_cluster_batch(self, pairs):
        t0 = perf_counter()
        out = ClusterManager.same_cluster_batch(self, pairs)
        self.find_timer.add(t0, perf_counter())
        return out

    def merge(self, pair, result):
        t0 = perf_counter()
        out = ClusterManager.merge(self, pair, result)
        self.merge_timer.add(t0, perf_counter())
        return out


def traced_cluster(collection, cfg, rec: SpanRecorder) -> dict:
    """One sequential clustering run with a proxy at every layer boundary.

    Returns what the untraced front door's result carries — clusters,
    counters, generator stats — plus the handles the layer metrics are
    read from.
    """
    counters = WorkCounters()
    with rec.span("core.cluster"):
        with rec.span("suffix.gst_build"):
            gst = SuffixArrayGst.build(collection)
        with rec.span("suffix.forest_build"):
            generator = make_pair_generator(gst, cfg)
        aligner = TimedAligner(make_aligner(collection, cfg), rec)
        manager = TimedClusterManager(collection.n_ests, rec)
        stream = TimedPairStream(generator.pairs(), rec)
        with rec.span("core.greedy"):
            if cfg.align_batch:
                greedy_cluster_batched(
                    stream,
                    aligner,
                    manager,
                    batch_size=cfg.batchsize,
                    skip_clustered=cfg.skip_clustered,
                    counters=counters,
                )
            else:
                greedy_cluster(
                    stream,
                    aligner,
                    manager,
                    skip_clustered=cfg.skip_clustered,
                    counters=counters,
                )
            for timer in (
                stream.timer, aligner.timer, manager.find_timer, manager.merge_timer
            ):
                timer.flush()
        with rec.span("core.components"):
            clusters = manager.clusters()
    return {
        "clusters": clusters,
        "counters": counters,
        "gen_stats": generator.stats,
        "gst": gst,
        "aligner": aligner,
        "manager": manager,
    }
