"""Front door for parallel clustering runs.

Two engines execute the identical protocol:

- ``machine="simulated"`` — the deterministic discrete-event machine with
  a virtual clock (any processor count; this is what regenerates the
  paper's scaling tables and figures);
- ``machine="multiprocessing"`` — real OS processes over pipes
  (functional parallelism; wall-clock numbers are Python's, not the
  paper's IBM SP).

Both accept a :class:`~repro.parallel.faults.FaultPlan` (inject slave
crashes, hangs and delays deterministically) and a
:class:`~repro.parallel.faults.FaultTolerance` (detection timeouts,
restart budget); recovery events land in ``result.faults``.
"""

from __future__ import annotations

from repro.core.config import ClusteringConfig
from repro.core.results import ClusteringResult
from repro.parallel.cost_model import CostModel
from repro.parallel.faults import FaultPlan, FaultTolerance
from repro.parallel.mp_backend import cluster_multiprocessing
from repro.parallel.sim_machine import SimulatedMachine, SimulationReport
from repro.sequence.collection import EstCollection
from repro.suffix.gst import SuffixArrayGst
from repro.telemetry import Telemetry
from repro.telemetry.monitor import RunMonitor

__all__ = ["simulate_clustering", "run_parallel"]


def simulate_clustering(
    collection: EstCollection,
    config: ClusteringConfig | None = None,
    *,
    n_processors: int = 8,
    cost_model: CostModel | None = None,
    gst: SuffixArrayGst | None = None,
    faults: FaultPlan | None = None,
    tolerance: FaultTolerance | None = None,
    telemetry: Telemetry | None = None,
    monitor: RunMonitor | None = None,
) -> SimulationReport:
    """Run one simulated parallel clustering and return its full report.

    ``gst`` may be supplied to share one built index across a parameter
    sweep (construction is deterministic, so this does not change
    results — only saves host time).  ``telemetry`` records the run
    (virtual-time trace, metrics, phase accounting) onto
    ``report.result.telemetry``.  The dispatch policy and shard count
    are the config's (``dataclasses.replace`` it to sweep them).
    """
    machine = SimulatedMachine(
        collection,
        config,
        n_processors=n_processors,
        cost_model=cost_model,
        gst=gst,
        faults=faults,
        tolerance=tolerance,
        telemetry=telemetry,
        monitor=monitor,
    )
    return machine.run()


def run_parallel(
    collection: EstCollection,
    config: ClusteringConfig | None = None,
    *,
    n_processors: int = 8,
    machine: str = "simulated",
    cost_model: CostModel | None = None,
    faults: FaultPlan | None = None,
    tolerance: FaultTolerance | None = None,
    telemetry: Telemetry | None = None,
    monitor: RunMonitor | None = None,
) -> ClusteringResult:
    """Parallel clustering with either engine, returning the result object
    (for the simulated engine, timings are virtual seconds).  ``telemetry``
    instruments the run on either engine with the same span names and
    event schema (the sim-vs-mp parity tests hold the engines to this).
    ``monitor`` attaches a live run monitor to either engine."""
    if machine == "simulated":
        return simulate_clustering(
            collection,
            config,
            n_processors=n_processors,
            cost_model=cost_model,
            faults=faults,
            tolerance=tolerance,
            telemetry=telemetry,
            monitor=monitor,
        ).result
    if machine == "multiprocessing":
        return cluster_multiprocessing(
            collection,
            config,
            n_processors=n_processors,
            faults=faults,
            tolerance=tolerance,
            telemetry=telemetry,
            monitor=monitor,
        )
    raise ValueError(f"unknown machine {machine!r} (simulated|multiprocessing)")
