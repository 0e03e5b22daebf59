"""Result objects returned by the clustering drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.greedy import WorkCounters
from repro.cluster.manager import MergeRecord
from repro.pairs.sa_generator import PairGenStats
from repro.telemetry import TABLE3_ORDER, TelemetrySnapshot
from repro.util.timing import TimingBreakdown

__all__ = ["ClusteringResult", "FaultCounters", "COMPONENT_ORDER"]

#: Table 3's component columns, in the paper's order.
COMPONENT_ORDER = list(TABLE3_ORDER)


@dataclass
class FaultCounters:
    """Fault-and-recovery accounting for a parallel run.

    ``slaves_lost`` counts slave-death events (a slave that dies twice
    across restarts counts twice); ``restarts`` counts replacement
    processes forked; ``pairs_reassigned`` counts pairs recovered into
    WORKBUF — requeued in-flight work plus master-regenerated admissions;
    ``incomplete_slaves`` counts slave ids whose final stats report never
    arrived (their per-slave counters default to zero rather than being
    silently miscounted); ``slave_errors`` counts typed error reports
    (slave-side exceptions, re-raised by the master).
    """

    slaves_lost: int = 0
    restarts: int = 0
    pairs_reassigned: int = 0
    incomplete_slaves: int = 0
    slave_errors: int = 0

    @property
    def any_faults(self) -> bool:
        return bool(
            self.slaves_lost
            or self.restarts
            or self.pairs_reassigned
            or self.incomplete_slaves
            or self.slave_errors
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "slaves_lost": self.slaves_lost,
            "restarts": self.restarts,
            "pairs_reassigned": self.pairs_reassigned,
            "incomplete_slaves": self.incomplete_slaves,
            "slave_errors": self.slave_errors,
        }


@dataclass
class ClusteringResult:
    """Everything a clustering run reports.

    ``clusters`` is the final partition (lists of EST indices);
    ``counters`` the Fig. 7 pair-flow accounting; ``timings`` the Table 3
    component breakdown; ``gen_stats`` the generator-side counters
    (including the peak lset footprint behind the O(N)-space claim);
    ``faults`` the fault-and-recovery accounting of parallel runs
    (``None`` for sequential drivers, which have no slaves to lose);
    ``telemetry`` the full measurement snapshot (spans, metrics, machine
    trace) when the run was handed a live :class:`~repro.telemetry.
    Telemetry` session — exportable with
    :func:`repro.telemetry.export_jsonl` and summarised by
    ``pace-est report``.
    """

    n_ests: int
    clusters: list[list[int]]
    counters: WorkCounters
    timings: TimingBreakdown
    gen_stats: PairGenStats | None = None
    merges: list[MergeRecord] = field(default_factory=list)
    faults: FaultCounters | None = None
    telemetry: TelemetrySnapshot | None = None

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def labels(self) -> list[int]:
        out = [-1] * self.n_ests
        for cid, members in enumerate(self.clusters):
            for x in members:
                out[x] = cid
        return out

    def summary(self) -> str:
        c = self.counters
        text = (
            f"{self.n_ests} ESTs -> {self.n_clusters} clusters | "
            f"pairs generated {c.pairs_generated}, aligned {c.pairs_processed}, "
            f"accepted {c.pairs_accepted} | total {self.timings.total:.2f}s"
        )
        if self.faults is not None and self.faults.any_faults:
            f = self.faults
            text += (
                f" | faults: {f.slaves_lost} slaves lost, "
                f"{f.restarts} restarted, {f.pairs_reassigned} pairs reassigned"
            )
        return text
