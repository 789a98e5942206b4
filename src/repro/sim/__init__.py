"""Deterministic discrete-event cluster simulator with MPI-like messaging."""

from repro.sim.collectives import COLLECTIVE_TAG_BASE, CollectiveEffect
from repro.sim.core import AllOf, Effect, Event, Process, Simulator, Timeout, WaitEvent
from repro.sim.critical_path import CriticalPath, analyze_critical_path
from repro.sim.deadlock import (
    BlockedRank,
    DeadlockReport,
    RunOutcome,
    WatchdogConfig,
    diagnose,
)
from repro.sim.faults import (
    Degradation,
    FaultPlan,
    LinkFaults,
    MessageFate,
    NodePause,
    Straggler,
)
from repro.sim.mpi import Rank, RecvRequest, SendRequest, World
from repro.sim.network import Network
from repro.sim.reliable import ReliableConfig, ReliableStats, ReliableTransport
from repro.sim.resources import FifoResource
from repro.sim.sharding import (
    ShardedResult,
    ShardedSimulation,
    ShardWorld,
    shard_bounds,
)
from repro.sim.steady import SteadyStateReport, analyze, compute_starts, steady_period
from repro.sim.topology import (
    TOPOLOGIES,
    Crossbar,
    FatTree,
    Mesh2D,
    Ring,
    Topology,
    make_topology,
)
from repro.sim.tracing import (
    A_TERMS,
    B_TERMS,
    CPU_BUSY_KINDS,
    KIND_TERMS,
    RESOURCES,
    Trace,
    TraceRecord,
    merged_length,
)

__all__ = [
    "A_TERMS",
    "AllOf",
    "B_TERMS",
    "BlockedRank",
    "COLLECTIVE_TAG_BASE",
    "CPU_BUSY_KINDS",
    "CollectiveEffect",
    "CriticalPath",
    "Crossbar",
    "DeadlockReport",
    "Degradation",
    "Effect",
    "Event",
    "FatTree",
    "FaultPlan",
    "FifoResource",
    "KIND_TERMS",
    "LinkFaults",
    "Mesh2D",
    "MessageFate",
    "Network",
    "NodePause",
    "Process",
    "RESOURCES",
    "Ring",
    "Rank",
    "RecvRequest",
    "ReliableConfig",
    "ReliableStats",
    "ReliableTransport",
    "RunOutcome",
    "SendRequest",
    "ShardWorld",
    "ShardedResult",
    "ShardedSimulation",
    "Simulator",
    "SteadyStateReport",
    "Straggler",
    "TOPOLOGIES",
    "Timeout",
    "Topology",
    "Trace",
    "TraceRecord",
    "WaitEvent",
    "WatchdogConfig",
    "World",
    "analyze",
    "analyze_critical_path",
    "compute_starts",
    "diagnose",
    "make_topology",
    "merged_length",
    "shard_bounds",
    "steady_period",
]
