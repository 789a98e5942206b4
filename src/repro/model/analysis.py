"""Analytic sensitivity and crossover analysis of the two schedules.

Answers the questions the paper's §4 case split raises but does not
tabulate: for a given workload geometry and machine, *where* does the
step become communication-bound (the A/B crossover in V), how does the
overlap advantage respond to each machine parameter, and what does the
model predict as the continuous-V optimum for each schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.model.completion import nonoverlap_steps, overlap_steps
from repro.model.costs import StepCosts, step_costs
from repro.model.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (model <- kernels)
    from repro.kernels.workloads import StencilWorkload

__all__ = [
    "ScheduleModel",
    "workload_step",
    "cpu_comm_crossover",
    "continuous_optimum",
    "parameter_sensitivity",
]


def workload_step(
    workload: StencilWorkload, machine: Machine, v: float
) -> StepCosts:
    """Interior-processor step costs at (possibly fractional) height ``v``.

    Fractional ``v`` supports root finding / continuous optimisation; the
    geometry scales linearly in ``v`` for the paper's workloads.
    """
    if v <= 0:
        raise ValueError("v must be positive")
    sides = workload.tile_sides(max(1, round(v)))
    cross = 1.0
    for k, s in enumerate(sides):
        if k != workload.mapped_dim:
            cross *= s
    grain = cross * v
    c = [sum(d[k] for d in workload.deps.vectors)
         for k in range(workload.space.ndim)]
    faces = []
    for k, s in enumerate(sides):
        if k == workload.mapped_dim or c[k] == 0:
            continue
        faces.append(machine.message_bytes(c[k] * grain / s))
    return step_costs(machine, grain, faces)


def cpu_comm_crossover(
    workload: StencilWorkload,
    machine: Machine,
    *,
    lo: float = 1.0,
    hi: float | None = None,
) -> float | None:
    """The tile height where A1+A2+A3 = B1+B2+B3+B4 (§4's case boundary).

    Returns None when one side dominates over the whole range — then a
    single case of eq. (5) applies everywhere — and likewise for a flat
    gap (a machine whose two sides are identical at every V): there is
    no *unique* crossover, so None, never an arbitrary endpoint.
    """
    if hi is None:
        hi = float(workload.space.extents[workload.mapped_dim])
    if hi <= lo:
        raise ValueError("hi must exceed lo")

    def gap(v: float) -> float:
        sc = workload_step(workload, machine, v)
        return sc.cpu_side - sc.comm_side

    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo == 0 and g_hi == 0:
        # Both endpoints balanced: either a flat gap (no unique
        # crossover → None) or a genuine double root at the endpoints;
        # the midpoint tells the two apart.
        if gap((lo + hi) / 2) == 0:
            return None
        return lo
    if g_lo == 0:
        return lo
    if g_hi == 0:
        return hi
    if (g_lo > 0) == (g_hi > 0):
        return None
    # Imported on first use: scipy would add ~0.6 s to every start-up.
    from scipy.optimize import brentq

    return float(brentq(gap, lo, hi))


@dataclass(frozen=True)
class ScheduleModel:
    """Continuous-V analytic optimum of one schedule.

    ``flat`` marks a degenerate machine whose completion-time curve is
    constant over the bracket (e.g. comm-free workloads where V only
    rescales identical step counts): ``v_opt`` is then pinned to the
    lower bound by convention rather than being an arbitrary interior
    point chosen by the minimiser.
    """

    overlap: bool
    v_opt: float
    t_opt: float
    flat: bool = False


def continuous_optimum(
    workload: StencilWorkload,
    machine: Machine,
    *,
    overlap: bool,
    lo: float = 1.0,
    hi: float | None = None,
) -> ScheduleModel:
    """Minimise the analytic completion time over real-valued V.

    Uses the simulator-faithful pipelined step for the overlap schedule
    (see ``StepCosts.pipelined_step``) and the serialized step for the
    non-overlapping one; step counts come from the exact hyperplane
    formulas with the tiled extent ``ceil(extent / V)``.
    """
    extent = workload.space.extents[workload.mapped_dim]
    if hi is None:
        hi = float(extent) / 2
    if hi <= lo:
        raise ValueError("hi must exceed lo")

    cross_tiles = [
        e // s
        for k, (e, s) in enumerate(
            zip(workload.space.extents, workload.tile_sides(1))
        )
        if k != workload.mapped_dim
    ]

    def completion(v: float) -> float:
        sc = workload_step(workload, machine, v)
        k_tiles = extent / v
        upper = [t - 1 for t in cross_tiles] + [max(0, round(k_tiles) - 1)]
        # Reorder upper so the mapped dim sits in its true position.
        full_upper = []
        it = iter(upper[:-1])
        for k in range(workload.space.ndim):
            full_upper.append(
                upper[-1] if k == workload.mapped_dim else next(it)
            )
        if overlap:
            steps = overlap_steps(full_upper, workload.mapped_dim)
            return steps * sc.pipelined_step
        return nonoverlap_steps(full_upper) * sc.serialized_step

    # Imported on first use: scipy would add ~0.6 s to every start-up.
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(completion, bounds=(lo, hi), method="bounded")
    # Bounded Brent never evaluates the exact endpoints, so a monotone
    # or flat curve would otherwise return an arbitrary interior point.
    # Snap to whichever of {lo, interior, hi} is best; ties prefer the
    # smaller V so degenerate machines get a stable, well-defined answer.
    candidates = [
        (lo, float(completion(lo))),
        (float(res.x), float(res.fun)),
        (hi, float(completion(hi))),
    ]
    t_min = min(t for _, t in candidates)
    t_max = max(t for _, t in candidates)
    tol = 1e-12 * max(abs(t_min), 1.0)
    flat = (t_max - t_min) <= tol and (
        float(completion((lo + hi) / 2)) - t_min <= tol
    )
    v_best, t_best = min((v, t) for v, t in candidates if t <= t_min + tol)
    return ScheduleModel(
        overlap=overlap, v_opt=float(v_best), t_opt=float(t_best), flat=flat
    )


def parameter_sensitivity(
    workload: StencilWorkload,
    machine: Machine,
    v: int,
    *,
    parameter: str,
    rel_step: float = 0.01,
) -> float:
    """Relative sensitivity d(log improvement)/d(log parameter) at ``v``.

    ``parameter`` is any positive float field of :class:`Machine` (e.g.
    ``"t_s"``, ``"t_t"``, ``"t_c"``).  Positive values mean increasing
    the parameter widens the overlap advantage.
    """
    base_value = getattr(machine, parameter)
    if not isinstance(base_value, float) or base_value <= 0:
        raise ValueError(f"{parameter!r} is not a positive float parameter")

    def improvement(m: Machine) -> float:
        sc = workload_step(workload, m, v)
        upper = workload.tiled_space(v).normalized_upper()
        t_non = nonoverlap_steps(upper) * sc.serialized_step
        t_ovl = overlap_steps(upper, workload.mapped_dim) * sc.pipelined_step
        return 1.0 - t_ovl / t_non

    up = improvement(machine.with_(**{parameter: base_value * (1 + rel_step)}))
    down = improvement(machine.with_(**{parameter: base_value * (1 - rel_step)}))
    base = improvement(machine)
    if base == 0:
        return 0.0
    return (up - down) / (2 * rel_step * base)
