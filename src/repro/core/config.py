"""The single configuration surface of the clustering system.

Paper-derived defaults: window ``w = 8`` ("a window size of eight is used
in partitioning the ESTs into buckets", §4.2), ``batchsize = 60`` ("batch
size is chosen to be sixty pairs"; Fig. 8 locates the optimum at 40–60),
and a ψ threshold sized to the read regime (long exact matches are
abundant between true overlaps at 1–2% error).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.align.extend import BandPolicy
from repro.align.scoring import AcceptanceCriteria, ScoringParams
from repro.telemetry.causal import MAX_INCARNATION
from repro.util.validation import check_positive

__all__ = ["ClusteringConfig", "POLICY_NAMES", "parse_policy"]

#: Canonical dispatch-policy names (``jbsq`` also takes a ``jbsq:<k>`` form).
POLICY_NAMES: tuple[str, ...] = ("paper", "jbsq")


def parse_policy(spec: str) -> tuple[str, dict]:
    """Split a dispatch-policy spec string into ``(name, kwargs)``.

    ``"paper"`` / ``"jbsq"`` select defaults; ``"jbsq:3"`` sets the bound.
    Raises ``ValueError`` on anything else.  The grammar lives here, with
    the config field it validates, because :mod:`repro.parallel.dispatch`
    (which instantiates the policies) may import this module but not the
    other way round.
    """
    name, sep, arg = spec.partition(":")
    if name not in POLICY_NAMES:
        raise ValueError(
            f"unknown dispatch policy {spec!r} (expected one of "
            f"{POLICY_NAMES} or 'jbsq:<k>')"
        )
    if not sep:
        return name, {}
    if name != "jbsq" or not arg.isdigit() or int(arg) < 1:
        raise ValueError(
            f"bad dispatch policy argument in {spec!r}: only 'jbsq:<k>' "
            f"with integer k >= 1 takes one"
        )
    return name, {"k": int(arg)}


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
    #: Live run monitor HTTP port (``/metrics``, ``/healthz``, ``/state``).
    #: ``None`` disables monitoring entirely (the hot paths stay untouched);
    #: ``0`` binds an OS-assigned port.
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
    #: Master work-allocation policy (:mod:`repro.parallel.dispatch`):
    #: "paper" (the §3.3 formula, reproduction-faithful default) or "jbsq"
    #: / "jbsq:<k>" (join-bounded-shortest-queue over in-flight batches).
    dispatch_policy: str = "paper"
    #: Number of master shards (:mod:`repro.parallel.shards`).  ``1`` is
    #: the paper's single master; ``N > 1`` partitions bucket ownership,
    #: WORKBUF, dispatch and the union–find across N masters, each driving
    #: a disjoint subset of slaves, with periodic cross-shard union
    #: merging.  Must not exceed the slave count of the run.
    master_shards: int = 1
    #: Cross-shard merge cadence in seconds (virtual seconds under the
    #: simulator, wall seconds under the multiprocessing backend).  A pure
    #: latency/throughput knob: any cadence yields the same partition.
    shard_sync_interval: float = 0.25
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
            check_positive("monitor_port", self.monitor_port, strict=False)
        check_positive("monitor_interval", self.monitor_interval)
        check_positive("master_shards", self.master_shards)
        check_positive("shard_sync_interval", self.shard_sync_interval)
        if self.psi < self.w:
            raise ValueError(
                f"psi ({self.psi}) must be >= w ({self.w}): buckets split the "
                f"GST at depth w, so shallower nodes are unavailable"
            )
        if self.align_engine not in ("banded", "kdiff"):
            raise ValueError(f"unknown align_engine {self.align_engine!r}")
        if self.pair_engine not in ("scalar", "vector"):
            raise ValueError(f"unknown pair_engine {self.pair_engine!r}")
        parse_policy(self.dispatch_policy)
        if self.causal_tracing and self.master_shards > MAX_INCARNATION + 1:
            raise ValueError(
                f"causal tracing supports at most {MAX_INCARNATION + 1} master "
                f"shards (a work-unit id has 8 bits for the shard), got "
                f"{self.master_shards}"
            )

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
