"""Log-scale radial distance between compact origin-interior sets.

For two such sets the distance is the log of the smallest mutual inclusion
scaling: ``d(C, D) = ln max(mu_out, mu_in)`` where ``D <= mu_out * C`` and
``C <= mu_in * D`` with the smallest possible factors. For nested ``C <= D``
this reduces to the one-sided factor, and ``D <= exp(delta) * C`` holds
exactly when ``d(C, D) <= delta``.
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
    if np.min(C.b) <= 0.0 or np.min(D.b) <= 0.0:
        raise ValidationError("inclusion factors need origin-interior sets")
    return max(0.0, float(np.max(support_many(D, C.H) / C.b)))


def set_distance(C: CSetPolytope, D: CSetPolytope) -> DistanceResult:
    if C.dim != D.dim:
        raise DimensionError("distance across different dimensions")
    out, inn = inclusion_factor(C, D), inclusion_factor(D, C)
    distance = float(np.log(max(out, inn)))
    return DistanceResult(distance=distance, mu_out=max(1.0, out), mu_in=max(1.0, inn))


def check_inclusion_equivalence(C: CSetPolytope, D: CSetPolytope, delta: float) -> bool:
    """Inclusion form of the distance bound: ``D`` inside ``exp(delta) * C``.

    Requires ``C`` inside ``D``; agrees with ``set_distance(C, D) <= delta``.
    """
    if delta < 0.0:
        raise ValidationError("delta must be nonnegative")
    if not is_subset(C, D):
        raise ValidationError("first argument must be contained in the second")
    return is_subset(D, scale(C, float(np.exp(delta))))
