"""SUMMA-style GEMM on a 2-D process grid with pipelined multicast.

SUMMA (Scalable Universal Matrix Multiplication Algorithm, van de Geijn
& Watts 1997) computes ``C = A · B`` on a ``q × q`` process grid by
iterating over ``k``-panels: at step ``p`` the owning column broadcasts
its ``A`` panel along each process *row*, the owning row broadcasts its
``B`` panel along each process *column*, and every rank accumulates the
local panel product.  Its performance hinges on how the panel broadcast
is implemented — the pipelined-multicast experiments this module models
(the ``csl-experiments`` SUMMA exemplar from the ROADMAP) replace the
naive root-sends-to-everyone broadcast with a segmented chain: the panel
is cut into segments forwarded rank-to-rank, so with ``s`` segments the
chain completes in roughly ``(1 + (q - 2) / s)`` panel times instead of
``q - 1``.

Two broadcast methods, same schedule otherwise:

* ``"pipelined"`` — :meth:`repro.sim.mpi.Rank.multicast` chain with
  ``segments`` pieces (the collective rides the full simulator stack:
  NIC/link contention, topology routing, ARQ, trace lanes).
* ``"sequential"`` — the naive baseline: the root sends the whole panel
  to each other group member in turn, serialising ``q - 1`` full panels
  through the root's TX NIC.

The machinery mirrors the stencil path: :func:`summa_programs` builds
per-rank generator programs, :func:`run_summa` executes them on a
:class:`~repro.sim.mpi.World` (optionally topology-routed, faulted, and
ARQ-protected) and returns a :class:`SummaResult` with the makespan,
network statistics, and critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.machine import Machine
from repro.sim.critical_path import CriticalPath, analyze_critical_path
from repro.sim.deadlock import RunOutcome, WatchdogConfig
from repro.sim.faults import FaultPlan
from repro.sim.mpi import World
from repro.sim.reliable import ReliableConfig
from repro.sim.tracing import Trace
from repro.util.validation import require_positive_int

__all__ = ["SummaConfig", "SummaResult", "summa_programs", "run_summa",
           "summa_watchdog"]

#: Application-level tag bases for the two panel streams (well below the
#: reserved collective tag space; the multicast collective adds its own
#: offset on top of the per-call tag).
_TAG_A = 0
_TAG_B = 64


@dataclass(frozen=True)
class SummaConfig:
    """One SUMMA job: ``grid² `` ranks, ``panels`` k-steps, per-rank
    tiles of ``tile_m × tile_k`` (A), ``tile_k × tile_n`` (B) and a
    ``tile_m × tile_n × tile_k`` local panel product per step."""

    grid: int = 4
    tile_m: int = 64
    tile_n: int = 64
    tile_k: int = 64
    panels: int = 8
    segments: int = 4
    method: str = "pipelined"

    def __post_init__(self) -> None:
        require_positive_int(self.grid, "grid")
        if self.grid < 2:
            raise ValueError("SUMMA needs a grid of at least 2x2")
        require_positive_int(self.tile_m, "tile_m")
        require_positive_int(self.tile_n, "tile_n")
        require_positive_int(self.tile_k, "tile_k")
        require_positive_int(self.panels, "panels")
        require_positive_int(self.segments, "segments")
        if self.method not in ("pipelined", "sequential"):
            raise ValueError(
                f"method must be 'pipelined' or 'sequential', "
                f"got {self.method!r}"
            )

    @property
    def num_ranks(self) -> int:
        return self.grid * self.grid

    def a_panel_bytes(self, machine: Machine) -> float:
        return machine.message_bytes(self.tile_m * self.tile_k)

    def b_panel_bytes(self, machine: Machine) -> float:
        return machine.message_bytes(self.tile_k * self.tile_n)

    def panel_points(self) -> int:
        """Loop iterations of one local panel product (the A2 charge)."""
        return self.tile_m * self.tile_n * self.tile_k

    def describe(self) -> str:
        return (
            f"summa {self.grid}x{self.grid} "
            f"({self.tile_m}x{self.tile_n}x{self.tile_k} tiles, "
            f"{self.panels} panels, {self.method}"
            + (f"/{self.segments}seg" if self.method == "pipelined" else "")
            + ")"
        )


def _sequential_cast(ctx, chain, nbytes, tag, label):
    """Naive broadcast down ``chain``: the root sends the full panel to
    every other member, one message each (posted together, but the
    root's TX NIC still carries ``len(chain) - 1`` full panels)."""
    root = chain[0]
    if ctx.rank == root:
        reqs = []
        for dst in chain[1:]:
            reqs.append((yield ctx.isend(dst, nbytes, None, tag,
                                         label=label)))
        if reqs:
            yield ctx.waitall(reqs)
    else:
        yield ctx.recv(root, nbytes, tag)


def summa_programs(cfg: SummaConfig, machine: Machine) -> list:
    """Per-rank generator programs for one SUMMA job.

    Rank ``r * grid + c`` sits at grid position ``(r, c)``.  At panel
    ``p`` the A chain runs along row ``r`` rooted at column ``p % grid``
    and the B chain along column ``c`` rooted at row ``p % grid``; both
    chains start at the root and wrap around the row/column, so every
    step's pipeline has the same shape regardless of the root.
    """
    g = cfg.grid
    a_bytes = cfg.a_panel_bytes(machine)
    b_bytes = cfg.b_panel_bytes(machine)
    points = cfg.panel_points()

    def make(rank: int):
        r, c = divmod(rank, g)
        row = [r * g + cc for cc in range(g)]
        col = [rr * g + c for rr in range(g)]

        def prog(ctx):
            for p in range(cfg.panels):
                root = p % g
                a_chain = row[root:] + row[:root]
                b_chain = col[root:] + col[:root]
                a_label = f"A-panel p{p}"
                b_label = f"B-panel p{p}"
                if cfg.method == "pipelined":
                    yield ctx.multicast(a_chain, a_bytes,
                                        segments=cfg.segments, tag=_TAG_A)
                    yield ctx.multicast(b_chain, b_bytes,
                                        segments=cfg.segments, tag=_TAG_B)
                else:
                    yield from _sequential_cast(ctx, a_chain, a_bytes,
                                                _TAG_A, a_label)
                    yield from _sequential_cast(ctx, b_chain, b_bytes,
                                                _TAG_B, b_label)
                yield ctx.compute_points(points, label=f"gemm p{p}")
            return None

        return prog

    return [make(rank) for rank in range(cfg.num_ranks)]


@dataclass(frozen=True)
class SummaResult:
    """Outcome of one simulated SUMMA run."""

    config: SummaConfig
    completion_time: float
    messages_sent: int
    trace: Trace
    network_stats: dict
    outcome: RunOutcome | None = None
    event_count: int = 0

    @property
    def status(self) -> str:
        return self.outcome.status if self.outcome is not None else "completed"

    def critical_path(self) -> CriticalPath | None:
        """Measured binding chain (``None`` when untraced/deadlocked)."""
        if self.outcome is not None:
            return self.outcome.critical_path
        if not self.trace.enabled or not self.trace.records:
            return None
        return analyze_critical_path(self.trace, makespan=self.completion_time)


def summa_watchdog(
    cfg: SummaConfig,
    machine: Machine,
    *,
    reliable: ReliableConfig | None = None,
    faults: FaultPlan | None = None,
    safety: float = 4.0,
) -> WatchdogConfig:
    """A stall threshold a healthy SUMMA run cannot trip: the largest of
    one panel compute, one full-panel message pipeline (sequential casts
    move whole panels), the retransmit ladder, and fault windows."""
    nbytes = max(cfg.a_panel_bytes(machine), cfg.b_panel_bytes(machine))
    pipeline = (
        machine.fill_mpi_buffer_time(nbytes)
        + 2.0 * machine.fill_kernel_buffer_time(nbytes)
        + 2.0 * machine.transmit_time(nbytes) * cfg.grid
        + machine.network_latency
    )
    floor = max(machine.compute_time(cfg.panel_points()), pipeline, 1e-9)
    if faults is not None:
        wire_factor = max((d.factor for d in faults.degradations), default=1.0)
        cpu_factor = max((s.factor for s in faults.stragglers), default=1.0)
        pause = max((p.end - p.start for p in faults.pauses), default=0.0)
        floor = floor * max(wire_factor, cpu_factor) + pause
    if reliable is not None:
        floor += reliable.worst_case_wait
    return WatchdogConfig(stall_time=safety * floor)


def run_summa(
    cfg: SummaConfig,
    machine: Machine,
    *,
    topology=None,
    trace: bool | str = False,
    faults: FaultPlan | None = None,
    reliable: ReliableConfig | None = None,
    watchdog: WatchdogConfig | None = None,
    max_events: int = 50_000_000,
) -> SummaResult:
    """Simulate one SUMMA job.

    Fault-free runs go through :meth:`World.run` (raises on deadlock,
    which a healthy SUMMA cannot reach); runs with ``faults`` or
    ``reliable`` go through the watchdog (:meth:`World.run_outcome`) and
    carry a structured outcome — a killed panel leg is classified
    ``degraded`` (ARQ recovered it) or ``deadlocked`` (it wedged the
    pipeline) exactly like stencil chaos runs.
    """
    world = World(machine, cfg.num_ranks, trace=trace, faults=faults,
                  reliable=reliable, topology=topology)
    programs = summa_programs(cfg, machine)
    if faults is None and reliable is None:
        completion = world.run(programs, max_events=max_events)
        outcome = None
    else:
        if watchdog is None:
            watchdog = summa_watchdog(cfg, machine, reliable=reliable,
                                      faults=faults)
        outcome = world.run_outcome(programs, max_events=max_events,
                                    watchdog=watchdog)
        completion = outcome.completion_time
    return SummaResult(
        config=cfg,
        completion_time=completion,
        messages_sent=world.messages_sent,
        trace=world.trace,
        network_stats=world.network.stats(),
        outcome=outcome,
        event_count=world.sim.event_count,
    )
