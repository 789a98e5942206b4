"""Analytic completion-time formulas (paper eqs. (3), (4), (5)).

Non-overlapping (Hodzic–Shang, §3):

    T = P(g) * (T_comp + T_comm),      T_comm = T_startup + T_transmit

Overlapping (§4):

    T = P(g) * max(A1 + A2 + A3,  B1 + B2 + B3 + B4)

with the two regimes of eq. (5): when the CPU side prevails,
``T(g) = P0 (A1 + A3) g^{-1/n} + P0 t_c g^{(n-1)/n}`` (Lemma 1 of [4]
gives ``P(g) = P0 g^{-1/n}`` at fixed tile shape), and symmetrically for
the communication-bound case.  The optimal grain is the zero of
``T'(g)``; with size-independent fill costs that zero is closed-form.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.model.costs import StepCosts
from repro.model.machine import Machine
from repro.util.validation import require_positive_float, require_positive_int

__all__ = [
    "nonoverlap_steps",
    "overlap_steps",
    "nonoverlap_completion_time",
    "overlap_completion_time",
    "lemma1_p0",
    "lemma1_steps",
    "hodzic_shang_optimal_grain",
    "overlap_optimal_grain_closed_form",
    "overlap_optimal_grain_case2_closed_form",
    "minimize_completion_over_grain",
    "improvement",
]


# -- schedule lengths -----------------------------------------------------


def nonoverlap_steps(normalized_upper: Sequence[int]) -> int:
    """Number of time hyperplanes of Π = (1,…,1) over a tiled space whose
    first tile is the origin and last tile is ``normalized_upper``:
    ``Π·u − Π·0 + 1``."""
    u = [int(x) for x in normalized_upper]
    if any(x < 0 for x in u):
        raise ValueError("normalized upper bounds must be non-negative")
    return sum(u) + 1


def overlap_steps(
    normalized_upper: Sequence[int],
    mapped_dim: int,
    *,
    paper_approximation: bool = False,
) -> int | float:
    """Number of time steps of the overlapping schedule
    ``Π_ov = (2,…,2,1,2,…,2)`` (coefficient 1 on ``mapped_dim``).

    Exact: ``2·Σ_{j≠i} u_j + u_i + 1``.  With
    ``paper_approximation=True`` returns the paper's §5 expression
    ``2·Σ_{j≠i} (u_j+1) + (u_i+1)·…`` style count ``2·i_max + 2·j_max +
    k_max/V`` — i.e. tile *counts* per dimension without the +1 — which
    is what Fig. 12 tabulates (possibly fractional).
    """
    u = [int(x) for x in normalized_upper]
    if any(x < 0 for x in u):
        raise ValueError("normalized upper bounds must be non-negative")
    if not 0 <= mapped_dim < len(u):
        raise ValueError(f"mapped_dim must be in [0, {len(u)})")
    if paper_approximation:
        counts = [x + 1 for x in u]
        return 2 * sum(c for j, c in enumerate(counts) if j != mapped_dim) + counts[
            mapped_dim
        ]
    return 2 * sum(x for j, x in enumerate(u) if j != mapped_dim) + u[mapped_dim] + 1


# -- completion times -----------------------------------------------------


def nonoverlap_completion_time(num_steps: float, step: StepCosts) -> float:
    """Eq. (3): ``P(g) × (T_comp + T_comm)`` with serialized sub-phases."""
    if num_steps < 0:
        raise ValueError("num_steps must be non-negative")
    return num_steps * step.serialized_step


def overlap_completion_time(num_steps: float, step: StepCosts) -> float:
    """Eq. (4): ``P(g) × max(A1+A2+A3, B1+B2+B3+B4)``."""
    if num_steps < 0:
        raise ValueError("num_steps must be non-negative")
    return num_steps * step.overlapped_step


# -- Lemma 1 of Hodzic–Shang ----------------------------------------------


def lemma1_p0(num_steps: float, grain: float, ndim: int) -> float:
    """Fit the Lemma-1 constant: ``P(g) = P0 g^{-1/n}`` ⇒
    ``P0 = P(g) · g^{1/n}`` from one observed (steps, grain) pair."""
    require_positive_float(num_steps, "num_steps")
    require_positive_float(grain, "grain")
    require_positive_int(ndim, "ndim")
    return num_steps * grain ** (1.0 / ndim)


def lemma1_steps(p0: float, grain: float, ndim: int) -> float:
    """``P(g) = P0 · g^{-1/n}`` (continuous approximation)."""
    require_positive_float(p0, "p0")
    require_positive_float(grain, "grain")
    require_positive_int(ndim, "ndim")
    return p0 * grain ** (-1.0 / ndim)


# -- optimal grain ---------------------------------------------------------


def hodzic_shang_optimal_grain(machine: Machine, num_neighbors: int = 1) -> float:
    """Expression (11) of [4] as used in Example 1: ``g = c · t_s / t_c``
    with ``c`` the number of neighbouring processors."""
    require_positive_int(num_neighbors, "num_neighbors")
    return num_neighbors * machine.t_s / machine.t_c


def overlap_optimal_grain_closed_form(
    machine: Machine, ndim: int, fill_time_per_step: float
) -> float:
    """Optimal ``g`` for eq. (5) case 1 with size-independent fills.

    ``T(g) = P0 [F g^{-1/n} + t_c g^{(n-1)/n}]`` with
    ``F = A1 + A3`` per step; ``T'(g) = 0`` gives

        g* = F / ((n-1) · t_c).

    Only meaningful for ``n >= 2`` (for ``n = 1`` the time is monotone in
    ``g`` and the optimum is the whole space).
    """
    require_positive_int(ndim, "ndim")
    require_positive_float(fill_time_per_step, "fill_time_per_step")
    if ndim < 2:
        raise ValueError("closed-form grain needs ndim >= 2")
    return fill_time_per_step / ((ndim - 1) * machine.t_c)


def overlap_optimal_grain_case2_closed_form(
    ndim: int, kernel_fill_per_step: float, wire_coefficient: float
) -> float:
    """Optimal ``g`` for eq. (5) *case 2* (communication-bound steps).

    With ``B1 = B4 = b·t_t·V0·g^{(n-1)/n}`` (the paper's §4 form) and
    size-independent kernel fills ``K = B2 + B3`` per step,

        T(g) = P0 [K g^{-1/n} + W g^{(n-2)/n}],   W = 2·b·t_t·V0,

    and ``T'(g) = 0`` gives ``g^{(n-1)/n} = K / ((n-2) · W)``, i.e.

        g* = ( K / ((n-2) · W) )^{n/(n-1)}.

    Needs ``n >= 3`` (for ``n = 2`` the wire term is g-independent and T
    is monotone decreasing — tile as large as memory allows).
    """
    require_positive_int(ndim, "ndim")
    require_positive_float(kernel_fill_per_step, "kernel_fill_per_step")
    require_positive_float(wire_coefficient, "wire_coefficient")
    if ndim < 3:
        raise ValueError("case-2 closed-form grain needs ndim >= 3")
    base = kernel_fill_per_step / ((ndim - 2) * wire_coefficient)
    return base ** (ndim / (ndim - 1))


def minimize_completion_over_grain(
    completion: Callable[[float], float],
    lower: float,
    upper: float,
) -> tuple[float, float]:
    """Numerically minimise a completion-time curve ``T(g)`` over
    ``[lower, upper]``; returns ``(g_opt, T(g_opt))``.

    Used when the fill costs depend on ``g`` and no closed form exists
    (the paper resorts to experimental tuning for the same reason).

    Degenerate curves return well-defined grains instead of whatever
    interior point bounded Brent stalls on: a flat ``T`` returns exactly
    ``lower``, a monotone-decreasing ``T`` (comm-free machines) returns
    exactly ``upper``, and any tie within relative tolerance prefers the
    smaller grain.
    """
    require_positive_float(lower, "lower")
    require_positive_float(upper, "upper")
    if upper <= lower:
        raise ValueError("upper must exceed lower")
    # Imported on first use: scipy would add ~0.6 s to every start-up.
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(completion, bounds=(lower, upper), method="bounded")
    candidates = [
        (lower, float(completion(lower))),
        (float(res.x), float(res.fun)),
        (upper, float(completion(upper))),
    ]
    t_min = min(t for _, t in candidates)
    tol = 1e-12 * max(abs(t_min), 1.0)
    g_best, t_best = min((g, t) for g, t in candidates if t <= t_min + tol)
    return float(g_best), float(t_best)


def improvement(t_nonoverlap: float, t_overlap: float) -> float:
    """Relative improvement of overlap over non-overlap, as a fraction
    (the paper's Fig. 12 bottom row: 0.32–0.38 for its experiments)."""
    require_positive_float(t_nonoverlap, "t_nonoverlap")
    require_positive_float(t_overlap, "t_overlap")
    return 1.0 - t_overlap / t_nonoverlap
