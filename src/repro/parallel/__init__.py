"""Parallel clustering: the master-slave protocol of §3.3 executed either
on a deterministic discrete-event simulated multiprocessor (scaling
studies) or on real OS processes (functional parallelism), with a fault
layer (crash detection, restarts, degraded recovery) on top of both."""

from repro.parallel.arenas import GstArenas, GstBundle, attach_gst
from repro.parallel.cost_model import CostModel
from repro.parallel.engine import EngineCore
from repro.parallel.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultTolerance,
    InjectedFault,
    SlaveFailure,
)
from repro.parallel.mp_backend import cluster_multiprocessing
from repro.parallel.partition import BucketAssignment, assign_buckets
from repro.parallel.protocol import MasterLogic, MasterMsg, SlaveLogic, SlaveMsg
from repro.parallel.runtime import run_parallel, simulate_clustering
from repro.parallel.shm import ArenaDescriptor, ArenaRegistry, leaked_segments
from repro.parallel.sim_machine import SimulatedMachine, SimulationReport
from repro.telemetry.trace import render_timeline, utilisation

__all__ = [
    "ArenaDescriptor",
    "ArenaRegistry",
    "GstArenas",
    "GstBundle",
    "attach_gst",
    "leaked_segments",
    "CostModel",
    "cluster_multiprocessing",
    "EngineCore",
    "BucketAssignment",
    "assign_buckets",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FaultTolerance",
    "InjectedFault",
    "SlaveFailure",
    "MasterLogic",
    "MasterMsg",
    "SlaveLogic",
    "SlaveMsg",
    "run_parallel",
    "simulate_clustering",
    "SimulatedMachine",
    "render_timeline",
    "utilisation",
    "SimulationReport",
]
