"""Dense linear programming by a two-phase tableau simplex.

Problems are stated as maximization of ``objective . x`` over inequality
rows ``A x <= b`` with free (sign-unrestricted) variables; finite variable
bounds are folded into extra rows. Free variables are split into positive
and negative parts internally. Bland's smallest-index rule is used for both
the entering and the leaving choice, so the pivot sequence -- and therefore
the reported outcome -- is a pure, deterministic function of the input.

Instances here have a few variables and at most about a hundred rows:
support and inclusion LPs over one polytope's facets, and redundancy tests
against the facets found so far. At that size a dense tableau beats
anything clever.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import TOL
from .errors import ComputationError, DimensionError, ValidationError

_MAX_PIVOTS = 20000


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """Maximize ``objective . x`` subject to ``A x <= b`` and optional bounds.

    Bounds are per-variable arrays; use ``-inf``/``+inf`` entries (or None
    for the whole array) where a bound is absent.
    """

    objective: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None


@dataclass
class LpOutcome:
    status: LpStatus
    value: float
    x: np.ndarray | None

    @property
    def optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


def solve_lp(prob: LinearProgram) -> LpOutcome:
    """Solve a small dense LP; classify infeasible/unbounded instances."""
    c = np.asarray(prob.objective, dtype=float).ravel()
    n = c.size
    if n == 0:
        raise DimensionError("objective must have at least one entry")
    A = np.asarray(prob.A, dtype=float)
    if A.size == 0:
        A = np.zeros((0, n))
    A = np.atleast_2d(A)
    b = np.asarray(prob.b, dtype=float).ravel()
    if A.shape[1] != n:
        raise DimensionError(
            f"constraint matrix has {A.shape[1]} columns, objective has {n}"
        )
    if A.shape[0] != b.size:
        raise DimensionError(
            f"constraint matrix has {A.shape[0]} rows, rhs has {b.size}"
        )
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise ValidationError("nonfinite entries in LP data")

    rows = [A]
    rhs = [b]
    for bound, sign in ((prob.lower, -1.0), (prob.upper, 1.0)):
        if bound is None:
            continue
        bound = np.asarray(bound, dtype=float).ravel()
        if bound.size != n:
            raise DimensionError("variable bound length does not match objective")
        for i in np.flatnonzero(np.isfinite(bound)):
            row = np.zeros(n)
            row[i] = sign
            rows.append(row[None, :])
            rhs.append(np.array([sign * bound[i]]))
    A = np.vstack(rows)
    b = np.concatenate(rhs)

    status, x = _two_phase(c, A, b)
    if status is LpStatus.INFEASIBLE:
        return LpOutcome(LpStatus.INFEASIBLE, -np.inf, None)
    if status is LpStatus.UNBOUNDED:
        return LpOutcome(LpStatus.UNBOUNDED, np.inf, None)
    residual = float(np.max(A @ x - b, initial=0.0))
    if residual > TOL.feas * max(1.0, float(np.max(np.abs(b), initial=1.0))):
        raise ComputationError(f"simplex returned an infeasible point (residual {residual:.3e})")
    return LpOutcome(LpStatus.OPTIMAL, float(c @ x), x)


def _two_phase(c: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Two-phase simplex on the split/slack standard form."""
    n = c.size
    k = A.shape[0]
    if k == 0:
        # No constraints at all: bounded only for a zero objective.
        if np.all(c == 0.0):
            return LpStatus.OPTIMAL, np.zeros(n)
        return LpStatus.UNBOUNDED, None

    ncols = 2 * n + k
    E = np.hstack([A, -A, np.eye(k)])
    h = b.astype(float).copy()
    neg = h < 0.0
    E[neg] *= -1.0
    h[neg] *= -1.0

    art_rows = np.flatnonzero(neg)
    nart = art_rows.size
    if nart:
        art_cols = np.zeros((k, nart))
        art_cols[art_rows, np.arange(nart)] = 1.0
        tab = np.hstack([E, art_cols, h[:, None]])
    else:
        tab = np.hstack([E, h[:, None]])

    basis = np.empty(k, dtype=int)
    basis[~neg] = 2 * n + np.flatnonzero(~neg)
    basis[neg] = ncols + np.arange(nart)

    if nart:
        cost1 = np.zeros(ncols + nart)
        cost1[ncols:] = -1.0
        status = _iterate(tab, basis, cost1)
        if status is not LpStatus.OPTIMAL:  # pragma: no cover - phase 1 is bounded
            raise ComputationError("phase-1 simplex did not terminate optimally")
        phase1 = float(tab[basis >= ncols, -1].sum())
        if phase1 > TOL.feas:
            return LpStatus.INFEASIBLE, None
        _drive_out_artificials(tab, basis, ncols)
        keep = basis < ncols
        tab = np.hstack([tab[keep, :ncols], tab[keep, -1:]])
        basis = basis[keep]

    cost2 = np.concatenate([c, -c, np.zeros(tab.shape[1] - 1 - 2 * n)])
    status = _iterate(tab, basis, cost2)
    if status is LpStatus.UNBOUNDED:
        return LpStatus.UNBOUNDED, None
    z = np.zeros(tab.shape[1] - 1)
    z[basis] = tab[:, -1]
    return LpStatus.OPTIMAL, z[:n] - z[n : 2 * n]


def _iterate(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> LpStatus:
    """Pivot ``tab`` (canonical w.r.t. ``basis``) to optimality in place."""
    m = tab.shape[1] - 1
    red = cost.copy()
    for i, bi in enumerate(basis):
        if red[bi] != 0.0:
            red -= red[bi] * tab[i, :m]
    for _ in range(_MAX_PIVOTS):
        candidates = np.flatnonzero(red > TOL.opt)
        if candidates.size == 0:
            return LpStatus.OPTIMAL
        enter = int(candidates[0])  # Bland: smallest improving index
        col = tab[:, enter]
        usable = np.flatnonzero(col > TOL.pivot)
        if usable.size == 0:
            return LpStatus.UNBOUNDED
        ratios = tab[usable, -1] / col[usable]
        best = float(np.min(ratios))
        near = usable[ratios <= best + 1e-12]
        leave = int(near[np.argmin(basis[near])])  # Bland: smallest basic index
        _pivot(tab, red, leave, enter)
        basis[leave] = enter
    raise ComputationError("simplex exceeded the pivot budget")


def _pivot(tab: np.ndarray, red: np.ndarray, row: int, col: int) -> None:
    m = tab.shape[1] - 1
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    red -= red[col] * tab[row, :m]
    red[col] = 0.0


def _drive_out_artificials(tab: np.ndarray, basis: np.ndarray, ncols: int) -> None:
    """Pivot basic artificials (at value zero) onto structural columns."""
    dummy = np.zeros(tab.shape[1] - 1)
    for i in range(basis.size):
        if basis[i] < ncols:
            continue
        row = tab[i, :ncols]
        pivots = np.flatnonzero(np.abs(row) > TOL.pivot)
        if pivots.size == 0:
            continue  # redundant row; dropped by the caller
        col = int(pivots[0])
        _pivot(tab, dummy, i, col)
        basis[i] = col
