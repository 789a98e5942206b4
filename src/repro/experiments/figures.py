"""Figure 9/10/11 sweep harness: completion time vs tile height V.

For each tile height the harness runs both schedules on the simulated
cluster *and* evaluates the analytic eq.-(3)/(4) predictions, producing
the series the paper plots (simulated curves play the role of the
paper's measured curves; the analytic curves are the "theoretical"
comparison of §5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.workloads import StencilWorkload
from repro.model.completion import (
    nonoverlap_completion_time,
    nonoverlap_steps,
    overlap_completion_time,
    overlap_steps,
)
from repro.model.costs import StepCosts, step_costs
from repro.model.machine import Machine
from repro.runtime.executor import run_tiled

__all__ = ["SweepPoint", "SweepResult", "default_heights", "analytic_step",
           "analytic_times", "sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One tile height's results: simulated and analytic, both schedules."""

    v: int
    grain: int
    t_nonoverlap_sim: float
    t_overlap_sim: float
    t_nonoverlap_model: float
    t_overlap_model: float

    @property
    def improvement_sim(self) -> float:
        return 1.0 - self.t_overlap_sim / self.t_nonoverlap_sim

    @property
    def improvement_model(self) -> float:
        return 1.0 - self.t_overlap_model / self.t_nonoverlap_model


@dataclass(frozen=True)
class SweepResult:
    """A full V-sweep of one workload on one machine."""

    workload_name: str
    machine: Machine
    points: tuple[SweepPoint, ...]

    def best(self, *, overlap: bool, simulated: bool = True) -> SweepPoint:
        """The point minimising the requested curve."""
        if not self.points:
            raise ValueError("empty sweep")
        if simulated:
            key = (lambda p: p.t_overlap_sim) if overlap else (
                lambda p: p.t_nonoverlap_sim
            )
        else:
            key = (lambda p: p.t_overlap_model) if overlap else (
                lambda p: p.t_nonoverlap_model
            )
        return min(self.points, key=key)

    @property
    def optimal_improvement_sim(self) -> float:
        """Improvement of the overlap optimum over the non-overlap optimum —
        the paper's Fig. 12 bottom-row metric."""
        t_non = self.best(overlap=False).t_nonoverlap_sim
        t_ovl = self.best(overlap=True).t_overlap_sim
        return 1.0 - t_ovl / t_non


def default_heights(workload: StencilWorkload, max_points: int = 12,
                    minimum: int = 4) -> list[int]:
    """A geometric grid of tile heights from ``minimum`` to a quarter of
    the mapped extent — the paper's "for all possible values of V,
    ranging from 4 to k_max/4" sweep, thinned for simulation cost.

    Heights need not divide the extent (the last tile is clipped), so the
    grid is free to land near the true optimum.
    """
    if max_points < 2:
        raise ValueError("max_points must be at least 2")
    lo = max(1, minimum)
    hi = workload.space.extents[workload.mapped_dim] // 4
    if hi <= lo:
        return [min(lo, workload.space.extents[workload.mapped_dim])]
    ratio = (hi / lo) ** (1.0 / (max_points - 1))
    out: list[int] = []
    v = float(lo)
    for _ in range(max_points):
        # Clamp before comparing: float accumulation can land round(v) on
        # (or past) hi before the last step, which would otherwise leave a
        # duplicate or out-of-order hi at the end of the grid.
        iv = min(round(v), hi)
        if not out or iv > out[-1]:
            out.append(iv)
        v *= ratio
    if out[-1] < hi:
        out.append(hi)
    return out


def analytic_step(workload: StencilWorkload, machine: Machine, v: int) -> StepCosts:
    """The A/B step-cost decomposition of one interior-processor step."""
    faces = workload.face_elements(v)
    sizes = [machine.message_bytes(f) for f in faces]
    return step_costs(machine, workload.grain(v), sizes)


def analytic_times(
    workload: StencilWorkload, machine: Machine, v: int
) -> tuple[float, float]:
    """(non-overlap, overlap) eq.-(3)/(4) predictions at height ``v``."""
    sc = analytic_step(workload, machine, v)
    ts = workload.tiled_space(v)
    upper = ts.normalized_upper()
    t_non = nonoverlap_completion_time(nonoverlap_steps(upper), sc)
    t_ovl = overlap_completion_time(
        overlap_steps(upper, workload.mapped_dim), sc
    )
    return t_non, t_ovl


def sweep(
    workload: StencilWorkload,
    machine: Machine,
    heights: list[int] | None = None,
    *,
    engine=None,
) -> SweepResult:
    """Run the full V-sweep (both schedules, simulated + analytic).

    ``engine`` (a :class:`repro.experiments.engine.Engine`) fans the
    2×len(heights) independent simulations across worker processes and/or
    serves them from the persistent result cache; without one, runs are
    executed serially in-process.  Engine results are bit-identical to
    the serial path.
    """
    if heights is None:
        heights = default_heights(workload)
    if not heights:
        raise ValueError("no tile heights to sweep")
    if engine is not None:
        pairs = [(v, blocking) for v in heights for blocking in (True, False)]
        runs = engine.run_batch(workload, machine, pairs)
        sim = {(v, blocking): r for (v, blocking), r in zip(pairs, runs)}
    else:
        sim = None
    points = []
    for v in heights:
        if sim is not None:
            non, ovl = sim[(v, True)], sim[(v, False)]
        else:
            non = run_tiled(workload, v, machine, blocking=True)
            ovl = run_tiled(workload, v, machine, blocking=False)
        t_non_m, t_ovl_m = analytic_times(workload, machine, v)
        points.append(
            SweepPoint(
                v=v,
                grain=workload.grain(v),
                t_nonoverlap_sim=non.completion_time,
                t_overlap_sim=ovl.completion_time,
                t_nonoverlap_model=t_non_m,
                t_overlap_model=t_ovl_m,
            )
        )
    return SweepResult(workload.name, machine, tuple(points))
