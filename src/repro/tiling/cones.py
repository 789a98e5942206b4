"""Dependence cones and extreme vectors (Ramanujam–Sadayappan, [8]).

The paper cites [8] for the equivalence between *finding a valid tiling
H* and *finding a set of extreme vectors for the dependence set*: a
tiling is legal (``H D >= 0``) exactly when every dependence vector lies
in the cone spanned by the tile side vectors (the columns of
``P = H^{-1}``), because ``d = P (H d)`` expresses ``d`` as a
non-negative combination of the columns whenever ``H d >= 0``.

This module makes that equivalence executable:

* :func:`in_cone` — exact cone-membership for the square nonsingular
  generator case (solve and check signs with rationals), LP-based for
  general generator sets;
* :func:`cone_contains_dependences` — the legality predicate phrased on
  the P side, tested equivalent to ``H D >= 0``;
* :func:`extreme_vectors` — the minimal generating subset of a
  dependence set (redundant vectors are non-negative combinations of the
  others);
* :func:`tiling_from_extremes` — build a legal tiling whose sides are
  (scaled) extreme vectors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from repro.ir.dependence import DependenceSet
from repro.tiling.transform import TilingTransformation
from repro.util.intmat import FractionMatrix

__all__ = [
    "in_cone",
    "cone_contains_dependences",
    "extreme_vectors",
    "tiling_from_extremes",
]

_LP_TOLERANCE = 1e-9


def in_cone(
    generators: Sequence[Sequence[int]], point: Sequence[int]
) -> bool:
    """Is ``point`` a non-negative rational combination of ``generators``?

    Exact for a square nonsingular generator matrix; otherwise decided by
    an LP feasibility problem (equality-constrained, x >= 0).
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if not gens:
        return not any(point)
    n = len(gens[0])
    if any(len(g) != n for g in gens) or len(point) != n:
        raise ValueError("generators/point dimension mismatch")

    if len(gens) == n:
        m = FractionMatrix.from_columns(gens)
        if m.determinant() != 0:
            coeffs = m.inverse().matvec(point)
            return all(c >= 0 for c in coeffs)

    # Imported on first use: scipy would add ~0.6 s to every start-up.
    from scipy.optimize import linprog

    a_eq = np.array(gens, dtype=float).T
    b_eq = np.array(point, dtype=float)
    res = linprog(
        c=np.zeros(len(gens)),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * len(gens),
        method="highs",
    )
    if res.status == 2:  # infeasible
        return False
    if not res.success:  # pragma: no cover - solver hiccup
        raise RuntimeError(f"cone membership LP failed: {res.message}")
    residual = a_eq @ res.x - b_eq
    return bool(np.max(np.abs(residual)) <= _LP_TOLERANCE)


def cone_contains_dependences(
    tiling: TilingTransformation, deps: DependenceSet
) -> bool:
    """Legality on the P side: every dependence in cone(columns of P).

    Equivalent to :meth:`TilingTransformation.is_legal` (``H D >= 0``);
    the tests assert the equivalence on random tilings.
    """
    columns = [
        tuple(tiling.P[i, j] for i in range(tiling.ndim))
        for j in range(tiling.ndim)
    ]
    # Columns of P are rational; clear denominators per column (scaling a
    # generator does not change its cone).
    int_columns = []
    for col in columns:
        denom = 1
        for x in col:
            denom = denom * x.denominator // _gcd(denom, x.denominator)
        int_columns.append(tuple(int(x * denom) for x in col))
    return all(in_cone(int_columns, d) for d in deps.vectors)


def _gcd(a: int, b: int) -> int:
    from math import gcd

    return gcd(a, b) or 1


def extreme_vectors(deps: DependenceSet) -> tuple[tuple[int, ...], ...]:
    """The minimal subset of dependence vectors generating the same cone.

    A vector is redundant when it is a non-negative combination of the
    *other* vectors; redundant vectors are removed greedily (first-seen
    order), which is sound because cone membership is monotone in the
    generator set.
    """
    remaining: list[tuple[int, ...]] = list(deps.vectors)
    k = 0
    while k < len(remaining):
        others = remaining[:k] + remaining[k + 1:]
        if others and in_cone(others, remaining[k]):
            del remaining[k]
        else:
            k += 1
    return tuple(remaining)


def tiling_from_extremes(
    deps: DependenceSet, scale: int = 1
) -> TilingTransformation:
    """A legal tiling whose tile sides are the (scaled) extreme vectors.

    Only defined when the extreme set has exactly ``n`` linearly
    independent vectors (then ``P = scale · [e_1 … e_n]`` is nonsingular
    and every dependence lies in its cone by construction).  ``scale``
    grows the tile without changing its shape — the [8] recipe for
    containing dependences while tuning grain.
    """
    if scale < 1:
        raise ValueError("scale must be at least 1")
    ext = extreme_vectors(deps)
    n = deps.ndim
    if len(ext) != n:
        raise ValueError(
            f"need exactly {n} extreme vectors to form tile sides, "
            f"got {len(ext)}: {ext}"
        )
    p = FractionMatrix.from_columns(ext).scale(scale)
    if p.determinant() == 0:
        raise ValueError("extreme vectors are linearly dependent")
    tiling = TilingTransformation(P=p)
    tiling.check_legal(deps)
    return tiling
