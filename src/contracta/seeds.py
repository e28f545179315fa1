"""Construction and validation of initial contractive sets.

A quadratic certificate ``(K, P, beta, lam)`` describes the ellipsoid
``{x | x' P x <= beta}`` made ``lam``-contractive by the feedback ``u = K x``.
The set engine is polytopic, so a validated ellipsoid is bridged to a
cross-polytope inscribed in it; in whitened coordinates the closed loop
shrinks 2-norms by ``lam``, and a ball of radius ``r`` fits in a
cross-polytope of circumradius ``r * sqrt(n)``, which yields the (weaker)
polytopic rate ``lam * sqrt(n)``. The constructed set is re-verified
(it must lie in its own one-step set) rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    RateTooWeakError,
    SeedNotContractiveError,
    SeedValidationError,
    ValidationError,
)
from .numerics import schur_radius_bound, symmetric_eigen_min
from .onestep import SystemModel, is_lambda_contractive, noncontractive_point
from .polytope import CSetPolytope, HPolytope, _check_facets, _facet_cap, is_subset, validate_cset

_PSD_SLACK = 1e-10


@dataclass
class EllipsoidSeed:
    K: np.ndarray
    P: np.ndarray
    beta: float
    lam: float

    def __post_init__(self):
        self.K = np.atleast_2d(np.asarray(self.K, dtype=float))
        self.P = np.atleast_2d(np.asarray(self.P, dtype=float))
        self.beta = float(self.beta)
        self.lam = float(self.lam)


def validate_ellipsoid_seed(sys: SystemModel, seed: EllipsoidSeed) -> EllipsoidSeed:
    """Check every condition a quadratic contractive certificate must meet.

    (a) P symmetric positive definite, (b) closed-loop quadratic decrease at
    rate lam^2, (c) closed loop Schur stable, (d) the level set fits inside
    the state constraints and maps inside the input constraints through K.
    Each failed check is reported by name.
    """
    if seed.K.shape != (sys.m, sys.n):
        raise DimensionError("feedback gain must be m x n")
    if seed.P.shape != (sys.n, sys.n):
        raise DimensionError("shape matrix must be n x n")
    if not 0.0 < seed.lam <= 1.0:
        raise ValidationError("certified rate must be in (0, 1]")
    if not seed.beta > 0.0:
        raise ValidationError("level must be positive")

    if float(np.max(np.abs(seed.P - seed.P.T))) > 1e-12 * max(1.0, float(np.max(np.abs(seed.P)))):
        raise SeedValidationError("check (a) failed: P is not symmetric")
    if symmetric_eigen_min(seed.P) <= _PSD_SLACK:
        raise SeedValidationError("check (a) failed: P is not positive definite")

    closed_loop = sys.A + sys.B @ seed.K
    gap = seed.lam**2 * seed.P - closed_loop.T @ seed.P @ closed_loop
    if symmetric_eigen_min(0.5 * (gap + gap.T)) < -_PSD_SLACK:
        raise SeedValidationError(
            "check (b) failed: closed loop does not decrease x'Px at rate lam^2"
        )
    if schur_radius_bound(closed_loop) >= 1.0 - 1e-12:
        raise SeedValidationError("check (c) failed: closed loop not certified Schur stable")

    w, V = np.linalg.eigh(seed.P)

    def inv_quad(a):  # a' P^-1 a
        return float(np.sum((V.T @ a) ** 2 / w))

    for row, offset in zip(sys.X.H, sys.X.b):
        if np.sqrt(seed.beta * inv_quad(row)) > offset + 1e-9:
            raise SeedValidationError(
                "check (d) failed: level set leaves the state constraints"
            )
    for row, offset in zip(sys.U.H, sys.U.b):
        mapped = seed.K.T @ row
        quad = inv_quad(mapped)
        if quad > 0.0 and np.sqrt(seed.beta * quad) > offset + 1e-9:
            raise SeedValidationError(
                "check (d) failed: feedback leaves the input constraints on the level set"
            )
    return seed


def polytopic_inner_seed(sys: SystemModel, seed: EllipsoidSeed) -> tuple[CSetPolytope, float]:
    """Cross-polytope inscribed in a validated ellipsoid seed.

    Vertices are ``+-sqrt(beta/n) * P^(-1/2) e_i``; the returned set is
    contractive at the inflated rate ``lam * sqrt(n)`` (required < 1), and
    that claim is re-verified before returning.
    """
    validate_ellipsoid_seed(sys, seed)
    n = sys.n
    lam_eff = seed.lam * float(np.sqrt(n))
    if lam_eff >= 1.0:
        raise RateTooWeakError(
            f"certified rate {seed.lam} inflates to {lam_eff:.4f} >= 1 in dimension {n}"
        )
    C = _inscribed_crosspolytope(seed.P, seed.beta / n)
    if not is_lambda_contractive(sys, lam_eff, C):
        raise SeedNotContractiveError(
            "constructed inner seed failed re-verification (numerical fault)"
        )
    return C, lam_eff


def _inscribed_crosspolytope(P, level: float) -> CSetPolytope:
    """Hull of ``+-sqrt(level) * P^(-1/2) e_i`` in H-form.

    In whitened coordinates this is ``|y|_1 <= sqrt(level)``, i.e. rows
    ``s' P^(1/2) x <= sqrt(level)`` over all sign vectors ``s``: ``2^n``
    rows, checked against the facet cap before any is built.
    """
    P = np.atleast_2d(P)
    n = P.shape[0]
    _check_facets(2**n, _facet_cap(), "the inscribed cross-polytope")
    w, V = np.linalg.eigh(P)
    sqrt_P = V @ np.diag(np.sqrt(w)) @ V.T
    radius = float(np.sqrt(level))
    rows = []
    for signs in np.ndindex(*(2,) * n):
        s = np.array([1.0 if v == 0 else -1.0 for v in signs])
        rows.append(s @ sqrt_P)
    return validate_cset(HPolytope(np.vstack(rows), np.full(2**n, radius)))


def accept_user_seed(sys: SystemModel, lam: float, C: CSetPolytope) -> CSetPolytope:
    """Gate for externally supplied seed sets: certified compact with the
    origin interior, inside the state constraints, and contractive at the
    requested rate. A rejection for the rate carries a point of the seed
    that admits no valid input as ``witness``."""
    if not isinstance(C, CSetPolytope):
        C = validate_cset(C)
    if not is_subset(C, sys.X):
        raise SeedNotContractiveError("seed set is not contained in the state constraints")
    witness = noncontractive_point(sys, lam, C)
    if witness is not None:
        raise SeedNotContractiveError(
            f"seed point {np.array2string(witness, precision=6)} admits no valid input",
            witness=witness,
        )
    return C


def lyapunov_level_matrix(closed_loop: np.ndarray, lam: float) -> np.ndarray:
    """Solve ``(M/lam)' P (M/lam) - P = -I`` for P by direct linear solve.

    Helper for building quadratic certificates from a given feedback; the
    scaled closed loop must be Schur stable for P to be positive definite.
    """
    M = np.atleast_2d(np.asarray(closed_loop, dtype=float)) / float(lam)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise DimensionError("closed-loop matrix must be square")
    lhs = np.kron(M.T, M.T) - np.eye(n * n)
    vec_p = np.linalg.solve(lhs, -np.eye(n).ravel(order="F"))
    P = vec_p.reshape((n, n), order="F")
    return 0.5 * (P + P.T)
