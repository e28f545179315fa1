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
from .onestep import SeedLabel, SetSequence
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
    return _factor(support_many(D, C.H), C.b)


def _factor(supports: np.ndarray, offsets: np.ndarray) -> float:
    """Inclusion factor from the supports of the inner set along the outer
    set's facets."""
    return max(0.0, float(np.max(supports / offsets)))


def set_distance(C: CSetPolytope, D: CSetPolytope) -> DistanceResult:
    if C.dim != D.dim:
        raise DimensionError("distance across different dimensions")
    return _distance(inclusion_factor(C, D), inclusion_factor(D, C))


def _distance(out: float, inn: float) -> DistanceResult:
    distance = float(np.log(max(out, inn)))
    return DistanceResult(distance=distance, mu_out=max(1.0, out), mu_in=max(1.0, inn))


def step_distances(seq: SetSequence) -> list[float]:
    """``set_distance(entries[j], entries[j - 1]).distance`` for each step j
    of an iterated sequence.

    When ``iterate`` verified the steps' inclusions, one of the two factors
    comes from the supports it kept in ``seq.inclusion_supports``.
    """
    distances = []
    for j in range(1, len(seq.entries)):
        nxt, prev = seq.entries[j], seq.entries[j - 1]
        if seq.seed_label is SeedLabel.FROM_STATE_SET:  # kept: nxt along prev's facets
            inn = _factor(seq.inclusion_supports[j - 1], prev.b)
            result = _distance(inclusion_factor(nxt, prev), inn)
        elif seq.seed_label is SeedLabel.CONTRACTIVE:  # kept: prev along nxt's facets
            out = _factor(seq.inclusion_supports[j - 1], nxt.b)
            result = _distance(out, inclusion_factor(prev, nxt))
        else:
            result = set_distance(nxt, prev)
        distances.append(result.distance)
    return distances


def check_inclusion_equivalence(C: CSetPolytope, D: CSetPolytope, delta: float) -> bool:
    """Inclusion form of the distance bound: ``D`` inside ``exp(delta) * C``.

    Requires ``C`` inside ``D``; agrees with ``set_distance(C, D) <= delta``.
    """
    if delta < 0.0:
        raise ValidationError("delta must be nonnegative")
    if not is_subset(C, D):
        raise ValidationError("first argument must be contained in the second")
    return is_subset(D, scale(C, float(np.exp(delta))))
