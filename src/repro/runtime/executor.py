"""Execute tiled SPMD programs on the simulated cluster.

The executor wires a :class:`~repro.runtime.program.TiledProgram` to a
:class:`~repro.sim.mpi.World`, runs it to completion and returns the
measured (virtual) completion time together with utilisation statistics —
the simulator-side counterpart of the paper's wall-clock measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.kernels.workloads import StencilWorkload
from repro.model.machine import Machine
from repro.runtime.program import TiledProgram
from repro.sim.critical_path import CriticalPath, analyze_critical_path
from repro.sim.deadlock import RunOutcome, WatchdogConfig
from repro.sim.faults import FaultPlan
from repro.sim.mpi import World
from repro.sim.reliable import ReliableConfig
from repro.sim.sharding import ShardedResult, ShardedSimulation
from repro.sim.tracing import Trace

__all__ = [
    "ExecutionResult",
    "RobustResult",
    "default_watchdog",
    "run_tiled",
    "run_tiled_robust",
    "run_tiled_sharded",
    "run_schedule_pair",
]


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one simulated run."""

    workload_name: str
    v: int
    grain: int
    blocking: bool
    completion_time: float
    messages_sent: int
    mean_cpu_utilization: float
    trace: Trace
    network_stats: dict
    result: np.ndarray | None = None
    #: Simulator events drained (0 for cache-served engine results).
    event_count: int = 0

    @property
    def schedule_name(self) -> str:
        return "non-overlapping" if self.blocking else "overlapping"

    def critical_path(self) -> CriticalPath | None:
        """Measured binding chain of the run (``None`` when untraced)."""
        if not self.trace.enabled or not self.trace.records:
            return None
        return analyze_critical_path(
            self.trace, makespan=self.completion_time
        )


def run_tiled(
    workload: StencilWorkload,
    v: int,
    machine: Machine,
    *,
    blocking: bool,
    numeric: bool = False,
    trace: bool | str = False,
    max_events: int = 50_000_000,
    engine=None,
    topology=None,
) -> ExecutionResult:
    """Simulate the workload at tile height ``v`` under one schedule.

    ``blocking=True`` runs the paper's ProcB (non-overlapping schedule);
    ``blocking=False`` runs ProcNB (overlapping schedule).  ``numeric``
    additionally performs the real stencil arithmetic and returns the
    gathered global array for verification.

    ``engine`` (a :class:`repro.experiments.engine.Engine`) routes the
    run through the fast sweep engine's persistent result cache;
    numeric, traced, and topology-routed runs always execute directly.

    ``trace`` accepts ``False``/``True``/``"full"``/``"streaming"`` (see
    :class:`~repro.sim.mpi.World`) — results are bit-identical across
    trace modes.  ``topology`` (a
    :class:`~repro.sim.topology.Topology`) selects the fabric; ``None``
    or a crossbar keeps the historical model bit-identically.
    """
    if engine is not None and topology is None and not (numeric or trace):
        return engine.run_tiled(
            workload, v, machine, blocking=blocking, max_events=max_events
        )
    prog = TiledProgram(workload, v, machine, blocking=blocking, numeric=numeric)
    world = World(machine, prog.num_ranks, trace=trace, topology=topology)
    completion = world.run(prog.programs(), max_events=max_events)
    util = (
        world.trace.mean_utilization(completion)
        if trace and completion > 0
        else float("nan")
    )
    return ExecutionResult(
        workload_name=workload.name,
        v=v,
        grain=prog.grain,
        blocking=blocking,
        completion_time=completion,
        messages_sent=world.messages_sent,
        mean_cpu_utilization=util,
        trace=world.trace,
        network_stats=world.network.stats(),
        result=prog.gather() if numeric else None,
        event_count=world.sim.event_count,
    )


def _synthetic_combine(_values):  # pragma: no cover - never called
    raise RuntimeError(
        "numeric stencil arithmetic is unavailable inside a shard "
        "process; sharded runs are timing-only"
    )


class _TiledPrograms:
    """Picklable zero-argument program factory for sharded runs.

    Holds the run recipe (workload, tile height, machine, schedule) and
    rebuilds the :class:`TiledProgram` on call, so each shard *process*
    constructs its own programs instead of pickling generator closures —
    which cannot be pickled.  Synthetic mode only: numeric state lives in
    per-rank numpy arrays that a sharded run could not gather, and the
    kernel's ``combine`` lambda (also unpicklable) is swapped for a stub
    in transit — timing-only programs never call it.
    """

    __slots__ = ("workload", "v", "machine", "blocking")

    def __init__(self, workload: StencilWorkload, v: int, machine: Machine,
                 blocking: bool):
        self.workload = workload
        self.v = v
        self.machine = machine
        self.blocking = blocking

    def __getstate__(self):
        kernel = replace(
            self.workload.kernel, combine=_synthetic_combine,
            combine_source=None,
        )
        workload = replace(self.workload, kernel=kernel)
        return (workload, self.v, self.machine, self.blocking)

    def __setstate__(self, state):
        self.workload, self.v, self.machine, self.blocking = state

    def __call__(self):
        return TiledProgram(
            self.workload, self.v, self.machine, blocking=self.blocking
        ).programs()


def run_tiled_sharded(
    workload: StencilWorkload,
    v: int,
    machine: Machine,
    *,
    blocking: bool,
    nshards: int,
    trace: bool | str = False,
    faults: FaultPlan | None = None,
    processes: bool = False,
    shard_timeout: float | None = None,
    max_shard_restarts: int = 2,
    harness_chaos=None,
    max_events: int = 50_000_000,
) -> ShardedResult:
    """Simulate the workload with its ranks partitioned over ``nshards``
    shard simulators (see :mod:`repro.sim.sharding`).

    Timing-only (synthetic) runs: numeric verification needs the global
    array gather, which stays on :func:`run_tiled`.  Results are
    bit-identical to the single-process :func:`run_tiled` values for
    every shard count — completion time, message count, per-rank term
    and busy-time aggregates.  ``processes=True`` puts each shard in its
    own OS process; the program factory is rebuilt inside each child.

    Process-backed shards are supervised: a shard that dies (or, with
    ``shard_timeout``, hangs) is respawned and replayed from its window
    history up to ``max_shard_restarts`` times, preserving bit-identical
    results; ``harness_chaos`` injects such failures deterministically
    (tests/CI only).
    """
    prog = TiledProgram(workload, v, machine, blocking=blocking)
    sharded = ShardedSimulation(
        machine, prog.num_ranks, nshards, trace=trace, faults=faults,
        processes=processes, shard_timeout=shard_timeout,
        max_shard_restarts=max_shard_restarts, harness_chaos=harness_chaos,
    )
    factory = _TiledPrograms(workload, v, machine, blocking)
    return sharded.run(factory=factory, max_events=max_events)


@dataclass(frozen=True)
class RobustResult:
    """Outcome of one watched run under (possible) fault injection.

    Unlike :class:`ExecutionResult`, the run may not have completed:
    ``outcome.status`` distinguishes ``completed`` / ``degraded`` /
    ``deadlocked``, and ``result`` is only populated for completed
    numeric runs (a wedged pipeline has no trustworthy array)."""

    workload_name: str
    v: int
    grain: int
    blocking: bool
    outcome: RunOutcome
    trace: Trace
    network_stats: dict
    result: np.ndarray | None = None
    #: Simulator events drained during the watched run.
    event_count: int = 0

    @property
    def status(self) -> str:
        return self.outcome.status

    @property
    def completion_time(self) -> float:
        return self.outcome.completion_time

    @property
    def schedule_name(self) -> str:
        return "non-overlapping" if self.blocking else "overlapping"

    def critical_path(self) -> CriticalPath | None:
        """The binding chain the watchdog run computed (``None`` when
        untraced or deadlocked)."""
        return self.outcome.critical_path


def default_watchdog(
    workload: StencilWorkload,
    v: int,
    machine: Machine,
    *,
    reliable: ReliableConfig | None = None,
    faults: FaultPlan | None = None,
    safety: float = 4.0,
) -> WatchdogConfig:
    """A stall threshold the run cannot trip while healthy.

    The watchdog must not fire during the longest legitimate no-progress
    interval: one tile's compute charge, one face message's full
    pipeline, a complete retransmission backoff ladder, or a fault-plan
    pause/degradation window — whichever is largest, times ``safety``.
    """
    grain = workload.grain(v)
    face = max(workload.face_elements(v), default=0)
    nbytes = machine.message_bytes(face)
    pipeline = (
        machine.fill_mpi_buffer_time(nbytes)
        + 2.0 * machine.fill_kernel_buffer_time(nbytes)
        + 2.0 * machine.transmit_time(nbytes)
        + machine.network_latency
    )
    floor = max(machine.compute_time(grain), pipeline, 1e-9)
    if faults is not None:
        wire_factor = max((d.factor for d in faults.degradations), default=1.0)
        cpu_factor = max((s.factor for s in faults.stragglers), default=1.0)
        pause = max((p.end - p.start for p in faults.pauses), default=0.0)
        floor = floor * max(wire_factor, cpu_factor) + pause
    if reliable is not None:
        floor += reliable.worst_case_wait
    return WatchdogConfig(stall_time=safety * floor)


def run_tiled_robust(
    workload: StencilWorkload,
    v: int,
    machine: Machine,
    *,
    blocking: bool,
    faults: FaultPlan | None = None,
    reliable: ReliableConfig | None = None,
    watchdog: WatchdogConfig | None = None,
    numeric: bool = False,
    trace: bool | str = False,
    max_events: int = 50_000_000,
    topology=None,
) -> RobustResult:
    """Simulate the workload under fault injection with a live watchdog.

    Like :func:`run_tiled`, but the world is built with ``faults`` (a
    seeded :class:`~repro.sim.faults.FaultPlan`) and optionally
    ``reliable`` (ack/timeout/retransmit delivery), and the run goes
    through :meth:`World.run_outcome`: it finishes in bounded virtual
    time with a structured status instead of hanging or raising on a
    wedged pipeline.  ``watchdog`` defaults to :func:`default_watchdog`
    scaled to this workload/machine/protocol.
    """
    prog = TiledProgram(workload, v, machine, blocking=blocking, numeric=numeric)
    world = World(
        machine, prog.num_ranks, trace=trace, faults=faults, reliable=reliable,
        topology=topology,
    )
    if watchdog is None:
        watchdog = default_watchdog(
            workload, v, machine, reliable=reliable, faults=faults
        )
    outcome = world.run_outcome(
        prog.programs(), max_events=max_events, watchdog=watchdog
    )
    return RobustResult(
        workload_name=workload.name,
        v=v,
        grain=prog.grain,
        blocking=blocking,
        outcome=outcome,
        trace=world.trace,
        network_stats=world.network.stats(),
        result=prog.gather() if numeric and outcome.completed else None,
        event_count=world.sim.event_count,
    )


def run_schedule_pair(
    workload: StencilWorkload,
    v: int,
    machine: Machine,
    **kwargs,
) -> tuple[ExecutionResult, ExecutionResult]:
    """Run both schedules at the same tile height; returns
    ``(non_overlapping, overlapping)``."""
    non = run_tiled(workload, v, machine, blocking=True, **kwargs)
    ovl = run_tiled(workload, v, machine, blocking=False, **kwargs)
    return non, ovl
