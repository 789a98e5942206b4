"""Communication-minimal *general* (possibly skewed) tilings — the [2]/[11]
optimisation the paper cites in §2.4.

Rectangular tiles are optimal only when the dependence cone is the
positive orthant.  For skewed cones (e.g. ``D = {(1,0),(1,1)}``) a
parallelepiped tile aligned with the cone's extreme rays cuts strictly
fewer dependences per unit volume.  This module minimises the
communication *fraction* (formula (1) divided by tile volume — shape-only
by Boulet et al.'s argument) over general nonsingular ``P`` at fixed
volume:

* ``P`` is parameterised as ``L · diag(s)`` with ``L`` unit lower
  triangular (skew factors) and positive sides ``s`` whose product is the
  volume — every orientation-preserving parallelepiped up to column
  permutation;
* legality (``H D >= 0``) enters as an exact penalty;
* a Nelder–Mead multi-start (seeded from the rectangular optimum and the
  extreme-vector tiling when available) does the numeric search, and the
  float optimum is snapped to small rationals and re-validated exactly.

Returns whichever of {search result, rectangular optimum, extreme-vector
tiling} has the smallest exact communication fraction — so the result is
never worse than the closed-form baselines.
"""

from __future__ import annotations

from fractions import Fraction
from math import exp, log

import numpy as np

from repro.ir.dependence import DependenceSet
from repro.tiling.communication import communication_fraction
from repro.tiling.cones import extreme_vectors, tiling_from_extremes
from repro.tiling.shape import continuous_optimal_sides
from repro.tiling.transform import TilingTransformation
from repro.util.intmat import FractionMatrix

__all__ = ["optimize_general_tiling"]

_PENALTY = 1e6
_MAX_DENOMINATOR = 64


def _pack(n: int) -> int:
    """Number of decision variables: skew entries + (n-1) free log-sides."""
    return n * (n - 1) // 2 + (n - 1)


def _unpack(x: np.ndarray, n: int, log_volume: float) -> np.ndarray:
    """Decision vector → P matrix (float)."""
    skews = x[: n * (n - 1) // 2]
    free_logs = x[n * (n - 1) // 2:]
    logs = np.append(free_logs, log_volume - float(np.sum(free_logs)))
    logs = np.clip(logs, -20.0, 20.0)
    lower = np.eye(n)
    k = 0
    for i in range(n):
        for j in range(i):
            lower[i, j] = skews[k]
            k += 1
    return lower @ np.diag(np.exp(logs))


def _objective(x: np.ndarray, n: int, log_volume: float, d: np.ndarray) -> float:
    p = _unpack(x, n, log_volume)
    try:
        h = np.linalg.inv(p)
    except np.linalg.LinAlgError:  # pragma: no cover - exp sides keep P regular
        return _PENALTY
    hd = h @ d
    violation = float(np.sum(np.maximum(0.0, -hd)))
    return float(np.sum(hd)) + _PENALTY * violation


def _snap_to_rational(p: np.ndarray) -> TilingTransformation | None:
    """Round a float P to small rationals; None if singular/illegal-ish."""
    rows = [
        [Fraction(float(v)).limit_denominator(_MAX_DENOMINATOR) for v in row]
        for row in p
    ]
    m = FractionMatrix(rows)
    if m.determinant() == 0:
        return None
    return TilingTransformation(P=m)


def _completed_extreme_tiling(
    deps: DependenceSet, volume: float
) -> TilingTransformation | None:
    """P whose columns are the extreme vectors plus unit-vector padding to
    full rank, scaled toward the requested volume."""
    n = deps.ndim
    cols: list[tuple[int, ...]] = list(extreme_vectors(deps))
    for k in range(n):
        if len(cols) == n:
            break
        unit = tuple(int(i == k) for i in range(n))
        trial = FractionMatrix.from_columns(cols + [unit])
        if trial.rank() == len(cols) + 1:
            cols.append(unit)
    if len(cols) != n:
        return None
    p = FractionMatrix.from_columns(cols)
    det = p.determinant()
    if det == 0:
        return None
    base_vol = float(abs(det))
    scale = Fraction(
        (volume / base_vol) ** (1.0 / n)
    ).limit_denominator(_MAX_DENOMINATOR)
    if scale <= 0:
        scale = Fraction(1)
    return TilingTransformation(P=p.scale(scale))


def optimize_general_tiling(
    deps: DependenceSet,
    volume: float,
    *,
    restarts: int = 3,
    seed: int = 0,
) -> TilingTransformation:
    """The best legal tiling of the given volume found by the search,
    never worse (in exact communication fraction) than the rectangular
    optimum or the extreme-vector tiling."""
    if volume <= 0:
        raise ValueError("volume must be positive")
    n = deps.ndim
    d = deps.as_array().astype(float)
    log_volume = log(volume)

    candidates: list[TilingTransformation] = []

    # Baseline 1: the closed-form rectangular optimum.
    rect_sides = continuous_optimal_sides(deps, volume)
    candidates.append(
        TilingTransformation(
            P=FractionMatrix(
                [
                    [
                        Fraction(rect_sides[i]).limit_denominator(
                            _MAX_DENOMINATOR
                        ) if i == j else Fraction(0)
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
            )
        )
    )

    # Baseline 2: extreme-vector parallelepiped, scaled to the volume.
    try:
        ext = tiling_from_extremes(deps)
        base_vol = float(ext.tile_volume())
        scale = Fraction(
            (volume / base_vol) ** (1.0 / n)
        ).limit_denominator(_MAX_DENOMINATOR)
        if scale > 0:
            candidates.append(TilingTransformation(P=ext.P.scale(scale)))
    except ValueError:
        pass

    # Baseline 3 (always legal): the extreme set completed to a basis with
    # unit vectors.  Every dependence is a non-negative combination of the
    # extremes alone, so any nonsingular completion keeps H D >= 0 — this
    # guarantees a legal candidate even when no rectangular tiling exists.
    completed = _completed_extreme_tiling(deps, volume)
    if completed is not None:
        candidates.append(completed)

    # Numeric search, seeded near each baseline plus random starts.
    # Imported on first use: scipy would add ~0.6 s to every start-up.
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    nvars = _pack(n)
    starts = [np.zeros(nvars)]
    starts += [rng.normal(scale=0.5, size=nvars) for _ in range(restarts)]
    for x0 in starts:
        res = minimize(
            _objective, x0, args=(n, log_volume, d), method="Nelder-Mead",
            options={"maxiter": 2000, "xatol": 1e-6, "fatol": 1e-9},
        )
        snapped = _snap_to_rational(_unpack(res.x, n, log_volume))
        if snapped is not None and snapped.is_legal(deps):
            candidates.append(snapped)

    legal = [c for c in candidates if c.is_legal(deps)]
    if not legal:
        raise ValueError("no legal tiling found (dependences may be degenerate)")
    return min(legal, key=lambda t: communication_fraction(t, deps))
