"""Log-scale radial distance between compact origin-interior sets.

For two such sets the distance is the log of the smallest mutual inclusion
scaling: ``d(C, D) = ln max(mu_out, mu_in)`` where ``D <= mu_out * C`` and
``C <= mu_in * D`` with the smallest possible factors. For nested ``C <= D``
this reduces to the one-sided factor, and ``D <= exp(delta) * C`` holds
exactly when ``d(C, D) <= delta``.

The factors are read from support LPs, which each polytope memoizes.
:func:`set_distances` solves the support LPs of both sides of every pair it
is given as one batch: the reproduction tables of distances between two
sequences (one call per rate) and the distances between consecutive
iterates of an ``iterate`` task use it. A single :func:`set_distance`, as
in the planner's steps, batches its own two sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .polytope import (
    CSetPolytope,
    _pool,
    _support_values,
    is_subset,
    scale,
    support_many,
)


@dataclass
class DistanceResult:
    distance: float
    mu_out: float  # D is contained in mu_out * C (clamped at 1)
    mu_in: float   # C is contained in mu_in * D (clamped at 1)


def inclusion_factor(C: CSetPolytope, D: CSetPolytope) -> float:
    """Smallest ``mu > 0`` with ``D`` contained in ``mu * C``."""
    if C.dim != D.dim:
        raise DimensionError("inclusion factor across different dimensions")
    _check_origin_interior(C, D)
    return _inclusion_factor(support_many(D, C.H), C.b)


def _check_origin_interior(C: CSetPolytope, D: CSetPolytope) -> None:
    if np.min(C.b) <= 0.0 or np.min(D.b) <= 0.0:
        raise ValidationError("inclusion factors need origin-interior sets")


def _inclusion_factor(supports: np.ndarray, b: np.ndarray) -> float:
    """The factor from the inner set's supports along the outer set's
    facets, whose offsets are ``b``."""
    return max(0.0, float(np.max(supports / b)))


def set_distance(C: CSetPolytope, D: CSetPolytope) -> DistanceResult:
    return set_distances([(C, D)])[0]


def set_distances(pairs) -> list[DistanceResult]:
    """:func:`set_distance` of every ``(C, D)`` of ``pairs``, in order.

    Every pair is checked first (dimensions, then origin-interior sets), so
    a pair that fails a check raises before any LP is solved. The support
    LPs of all pairs then run as one batch (:func:`polytope._pool`), and the
    sides are read pair by pair, ``D`` along ``C``'s facets before ``C``
    along ``D``'s. After an LP fault each side is read from the memos only
    when its turn comes, so the first error in that order raises, as it does
    when the pairs are taken one at a time.
    """
    pairs = list(pairs)
    for C, D in pairs:
        if C.dim != D.dim:
            raise DimensionError("distance across different dimensions")
        _check_origin_interior(C, D)
    sides = [side for C, D in pairs for side in ((D, C.H), (C, D.H))]
    pooled = _pool(sides)
    if pooled is None:  # each side solves its faulted LPs again when read
        supports = (support_many(p, directions) for p, directions in sides)
    else:
        supports = map(_support_values, pooled)
    results = []
    for C, D in pairs:
        out = _inclusion_factor(next(supports), C.b)
        inn = _inclusion_factor(next(supports), D.b)
        distance = float(np.log(max(out, inn)))
        results.append(DistanceResult(distance=distance, mu_out=max(1.0, out), mu_in=max(1.0, inn)))
    return results


def check_inclusion_equivalence(C: CSetPolytope, D: CSetPolytope, delta: float) -> bool:
    """Inclusion form of the distance bound: ``D`` inside ``exp(delta) * C``.

    Requires ``C`` inside ``D``; agrees with ``set_distance(C, D) <= delta``.
    """
    if delta < 0.0:
        raise ValidationError("delta must be nonnegative")
    if not is_subset(C, D):
        raise ValidationError("first argument must be contained in the second")
    return is_subset(D, scale(C, float(np.exp(delta))))
