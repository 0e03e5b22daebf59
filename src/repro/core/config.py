"""The single configuration surface of the clustering system.

Paper-derived defaults: window ``w = 8`` ("a window size of eight is used
in partitioning the ESTs into buckets", §4.2), ``batchsize = 60`` ("batch
size is chosen to be sixty pairs"; Fig. 8 locates the optimum at 40–60),
and a ψ threshold sized to the read regime (long exact matches are
abundant between true overlaps at 1–2% error).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.align.extend import BandPolicy
from repro.align.scoring import AcceptanceCriteria, ScoringParams
from repro.util.validation import check_in_range, check_positive

__all__ = ["ClusteringConfig"]


@dataclass(frozen=True)
class ClusteringConfig:
    """Parameters of a clustering run (sequential or parallel)."""

    #: Bucket window w: suffixes are partitioned on their first w characters.
    w: int = 8
    #: Promising-pair threshold ψ: minimum maximal-common-substring length.
    psi: int = 25
    #: Pairs per master→slave work message (Fig. 8 sweeps this).
    batchsize: int = 60
    #: Master-side pair selection: skip pairs already co-clustered.
    skip_clustered: bool = True
    #: Align by banded seed extension (Fig. 5a); False = whole-string DP.
    use_seed_extension: bool = True
    #: Seed-extension scorer: "banded" (optimal affine score within the
    #: band) or "kdiff" (greedy minimum-edit, O(k^2) work — the fast path;
    #: quality-equivalent at EST error rates, see benchmarks/bench_engines).
    align_engine: str = "banded"
    #: DP group size for the batched alignment engine
    #: (:class:`repro.align.batch.BatchPairAligner`): pairs are chosen in
    #: conflict-free waves and their extensions aligned in vectorised
    #: groups of up to this many.  The size bounds the banded kernel, whose
    #: state is one band-wide column per extension, swept down to the last
    #: row where that extension can end (docs/ALGORITHMS.md §4.1); the
    #: kdiff kernel's
    #: state is (2E + 1) diagonals per edit level, independent of length,
    #: so it takes a whole wave as one group (measured on ``sparse``:
    #: whole waves 44 ms against 59 ms in 64-extension chunks) and sends
    #: waves under ``KDIFF_GROUP_MIN`` extensions to the per-pair kernel,
    #: which is faster there (repro.align.batch).  ``0`` selects the
    #: per-pair reference engine (the oracle, with ``pair_engine="scalar"``).
    align_batch: int = 64
    #: Promising-pair generation engine over the suffix-array backend:
    #: "vector" (:class:`repro.pairs.batch.VectorPairGenerator`, lsets as
    #: suffix-array intervals swept in numpy) or "scalar"
    #: (:class:`repro.pairs.sa_generator.SaPairGenerator`, the reference
    #: oracle — identical pair stream, several times slower).
    pair_engine: str = "vector"
    scoring: ScoringParams = field(default_factory=ScoringParams)
    acceptance: AcceptanceCriteria = field(default_factory=AcceptanceCriteria)
    band_policy: BandPolicy = field(default_factory=BandPolicy)
    #: Capacity of the master's WORKBUF, in pairs (§3.3).
    workbuf_capacity: int = 4096
    #: Capacity of each slave's PAIRBUF, in pairs (§3.3).
    pairbuf_capacity: int = 1024
    #: Live run monitor HTTP port (``/metrics``, ``/healthz``, ``/state``),
    #: 0–65535.  ``None`` disables monitoring entirely (the hot paths stay
    #: untouched); ``0`` binds an OS-assigned port.
    monitor_port: int | None = None
    #: Live monitor sample interval in seconds (per-slave resource/progress
    #: samples and master status lines).  Ignored when monitoring is off.
    monitor_interval: float = 1.0
    #: Publish the built index (sequence arena, suffix/LCP arrays, lookup
    #: tables) in named shared-memory segments and have slave
    #: processes attach by descriptor instead of receiving copies — makes
    #: per-slave spawn payload O(1) in dataset size.  Only the real
    #: multiprocessing backend consults this; ``False`` restores the legacy
    #: whole-object handoff.
    shared_arenas: bool = True
    #: Not a field: ``benchmarks/e2e/child.py`` reads it to call
    #: :func:`repro.parallel.shards.plan_shards`; delete both when ROADMAP
    #: item 1 re-anchors that harness.
    master_shards: ClassVar[int] = 1
    #: Causal work-unit tracing (:mod:`repro.telemetry.causal`): mint a
    #: work-unit id per generated pair batch and record its lifecycle
    #: (generated → dispatched → aligned → absorbed/requeued/pruned) into
    #: the telemetry event stream.  Requires telemetry to be enabled on
    #: the run; off by default so reference traces stay byte-identical.
    causal_tracing: bool = False
    #: Directory for crash flight-recorder dumps
    #: (:mod:`repro.telemetry.flight`).  Only the multiprocessing engine
    #: arms recorders: its master and every slave dump their telemetry
    #: session's newest events there on crash, fault-tolerance
    #: transitions, or SIGTERM; the sequential and simulated engines
    #: ignore it.  ``None`` disables the recorders entirely.
    flight_dir: str | None = None

    def __post_init__(self) -> None:
        check_positive("w", self.w)
        check_positive("psi", self.psi)
        check_positive("batchsize", self.batchsize)
        check_positive("align_batch", self.align_batch, strict=False)
        check_positive("workbuf_capacity", self.workbuf_capacity)
        check_positive("pairbuf_capacity", self.pairbuf_capacity)
        if self.monitor_port is not None:
            check_in_range("monitor_port", self.monitor_port, 0, 65535)
        check_positive("monitor_interval", self.monitor_interval)
        if self.psi < self.w:
            raise ValueError(
                f"psi ({self.psi}) must be >= w ({self.w}): buckets split the "
                f"GST at depth w, so shallower nodes are unavailable"
            )
        if self.align_engine not in ("banded", "kdiff"):
            raise ValueError(f"unknown align_engine {self.align_engine!r}")
        if self.pair_engine not in ("scalar", "vector"):
            raise ValueError(f"unknown pair_engine {self.pair_engine!r}")

    @classmethod
    def small_reads(cls, **overrides) -> "ClusteringConfig":
        """Defaults scaled to the short-read test regime
        (:meth:`repro.simulate.ReadParams.short_reads`)."""
        base = dict(
            w=6,
            psi=15,
            acceptance=AcceptanceCriteria(min_score_ratio=0.8, min_overlap=30),
        )
        base.update(overrides)
        return cls(**base)
