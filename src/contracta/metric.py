"""Log-scale radial distance between compact origin-interior sets.

For two such sets the distance is the log of the smallest mutual inclusion
scaling: ``d(C, D) = ln max(mu_out, mu_in)`` where ``D <= mu_out * C`` and
``C <= mu_in * D`` with the smallest possible factors. For nested ``C <= D``
this reduces to the one-sided factor, and ``D <= exp(delta) * C`` holds
exactly when ``d(C, D) <= delta``.

The factors are read from the supports of each set along the other's
facets, which each polytope memoizes. :func:`set_distances` maps
:func:`set_distance` over a table of pairs (the reproduction tables of
distances between two sequences, and the distances between consecutive
iterates of an ``iterate`` task) after checking every pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .polytope import CSetPolytope, is_subset, scale, support_many


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


def _check_pair(C: CSetPolytope, D: CSetPolytope) -> None:
    if C.dim != D.dim:
        raise DimensionError("distance across different dimensions")
    _check_origin_interior(C, D)


def _check_origin_interior(C: CSetPolytope, D: CSetPolytope) -> None:
    if C.b.min() <= 0.0 or D.b.min() <= 0.0:
        raise ValidationError("inclusion factors need origin-interior sets")


def _inclusion_factor(supports: np.ndarray, b: np.ndarray) -> float:
    """The factor from the inner set's supports along the outer set's
    facets, whose offsets are ``b``."""
    return max(0.0, float(np.max(supports / b)))


def set_distance(C: CSetPolytope, D: CSetPolytope) -> DistanceResult:
    """The distance between ``C`` and ``D``; ``D``'s supports along ``C``'s
    facets are read before ``C``'s along ``D``'s, so the first error in that
    order raises."""
    _check_pair(C, D)
    out = _inclusion_factor(support_many(D, C.H), C.b)
    inn = _inclusion_factor(support_many(C, D.H), D.b)
    distance = float(np.log(max(out, inn)))
    return DistanceResult(distance=distance, mu_out=max(1.0, out), mu_in=max(1.0, inn))


def set_distances(pairs) -> list[DistanceResult]:
    """:func:`set_distance` of every ``(C, D)`` of ``pairs``, in order.

    Every pair is checked first (dimensions, then origin-interior sets), so
    a pair that fails a check raises before any support is read.
    """
    pairs = list(pairs)
    for C, D in pairs:
        _check_pair(C, D)
    return [set_distance(C, D) for C, D in pairs]


def check_inclusion_equivalence(C: CSetPolytope, D: CSetPolytope, delta: float) -> bool:
    """Inclusion form of the distance bound: ``D`` inside ``exp(delta) * C``.

    Requires ``C`` inside ``D``; agrees with ``set_distance(C, D) <= delta``.
    """
    if delta < 0.0:
        raise ValidationError("delta must be nonnegative")
    if not is_subset(C, D):
        raise ValidationError("first argument must be contained in the second")
    return is_subset(D, scale(C, float(np.exp(delta))))
