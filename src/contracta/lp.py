"""Dense linear programming by a two-phase simplex on a condensed tableau.

Problems are stated as maximization of ``objective . x`` over inequality
rows ``A x <= b`` with free (sign-unrestricted) variables; finite variable
bounds are folded into extra rows. Free variables are split into positive
and negative parts internally. Bland's smallest-index rule is used for both
the entering and the leaving choice, so the pivot sequence -- and therefore
the reported outcome -- is a pure, deterministic function of the input.

Instances have a few variables and tens to a few hundred rows, so a dense
tableau wins, and the cost is the fixed overhead of each call and pivot.
``solve_lp`` solves one LP per call (``_simplex``).

The tableau is condensed and slot-major (slot x row): each nonbasic
column and the rhs holds the ``k`` rows and a reduced cost, with the
variable id of each slot beside it. Ids follow the columns of the full
tableau ``[A, -A, I, artificials]``. A basic column is a unit vector up to
the signs of its zeros, so a pivot puts the leaving variable's column in
the entering variable's slot and pivots on it.

With no negative offset, the slack basis is feasible and phase 2 starts
on ``2n`` slots. Otherwise the LP also gets a slot per row, for the slack
of a negated row (empty and never entering for the other rows), and
phase 1 runs with the same pivots: artificials on the negated rows, phase-1
costs priced in row order, drive-out on the smallest column id, artificial
slots emptied and each row whose artificial stays basic zeroed (a zero row
never passes the ratio test). The slacks basic from the start hold ``-0``
in the negated rows, which a slack's column brought back into a slot lacks.
That moves no bit of an outcome: the sign of a zero decides no pivot, and
it reaches the rhs only in rows still basic on their first slack (a pivot
row's rhs ends ``+0`` or nonzero), which never feed ``x``.

Invariant: a kernel change must keep the pivot sequence and every
floating-point operation of the full-tableau two-phase simplex, so each
``LpOutcome`` stays bit-identical for every input; ``tests/test_lp.py``
checks this against a reference copy of that simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import TOL
from .errors import ComputationError, DimensionError, ValidationError

_MAX_PIVOTS = 20000
_BUDGET = "simplex exceeded the pivot budget"


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
        raise DimensionError(f"constraint matrix has {A.shape[1]} columns, objective has {n}")
    if A.shape[0] != b.size:
        raise DimensionError(f"constraint matrix has {A.shape[0]} rows, rhs has {b.size}")
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValidationError("nonfinite entries in LP data")

    if prob.lower is not None or prob.upper is not None:
        rows, rhs = [A], [b]
        for bound, sign in ((prob.lower, -1.0), (prob.upper, 1.0)):
            if bound is None:
                continue
            bound = np.asarray(bound, dtype=float).ravel()
            if bound.size != n:
                raise DimensionError("variable bound length does not match objective")
            idx = np.flatnonzero(np.isfinite(bound))
            block = np.zeros((idx.size, n))
            block[np.arange(idx.size), idx] = sign
            rows.append(block)
            rhs.append(sign * bound[idx])
        A = np.vstack(rows)
        b = np.concatenate(rhs)

    if A.shape[0] == 0:
        # No constraints at all: bounded only for a zero objective.
        if not (c == 0.0).all():
            return LpOutcome(LpStatus.UNBOUNDED, np.inf, None)
        x = np.zeros(n)
        return LpOutcome(LpStatus.OPTIMAL, float(c @ x), x)
    return _simplex(c, A, b)


def _solve_or_fault(c: np.ndarray, A: np.ndarray, b: np.ndarray):
    """``solve_lp`` outcome of ``max c.x`` over ``A x <= b``, or the
    ``ComputationError`` it raises."""
    try:
        return solve_lp(LinearProgram(c, A, b))
    except ComputationError as exc:
        return exc


def _simplex(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> LpOutcome:
    """The outcome of ``max c . x`` over ``A x <= b`` (``k >= 1`` rows);
    raises ``ComputationError`` when the simplex faults."""
    k, n = A.shape
    neg = b < 0.0
    signed = bool(neg.any())
    m = 2 * n + k + k * signed  # past every variable id, artificials included
    rows, rhs = A, b
    if signed:
        flip = np.where(neg, -1.0, 1.0)  # negated rows
        rows, rhs = A * flip[:, None], b * flip
    tab = np.zeros((2 * n + k * signed + 1, k + 1))  # nonbasic columns, then the rhs
    tab[:n, :k] = rows.T
    np.negative(tab[:n, :k], out=tab[n : 2 * n, :k])
    tab[-1, :k] = rhs
    nonbasic = np.empty(tab.shape[0] - 1, dtype=np.intp)  # variable id of each slot
    nonbasic[: 2 * n] = np.arange(2 * n)
    basis = np.where(neg, 2 * n + k, 2 * n) + np.arange(k)  # artificials on the negated rows
    if signed:
        if not _phase1(c, tab, nonbasic, basis, neg, m):
            return LpOutcome(LpStatus.INFEASIBLE, -np.inf, None)
    else:
        tab[:n, k] = c  # slack costs are zero: nothing to price out
        np.negative(c, out=tab[n : 2 * n, k])
    if not _pivots(tab, nonbasic, basis, m):
        return LpOutcome(LpStatus.UNBOUNDED, np.inf, None)
    z = np.zeros(m + 1)  # a zeroed row's basic id is m
    z[basis] = tab[-1, :k]
    x = z[:n] - z[n : 2 * n]
    residual = (A @ x - b).max(initial=0.0)
    if residual > TOL.feas * np.abs(b).max(initial=1.0):
        raise ComputationError(f"simplex returned an infeasible point (residual {residual:.3e})")
    return LpOutcome(LpStatus.OPTIMAL, float(c @ x), x)


def _phase1(c, tab, nonbasic, basis, neg, m) -> bool:
    """Phase 1 of the tableau ``_simplex`` built, up to the phase-2 pricing;
    False when the LP is infeasible."""
    k, n = neg.size, c.size
    ncols = 2 * n + k  # structural and slack ids; artificials follow
    slack = tab[2 * n : ncols, :k]  # slot 2n + i: the slack of row i when negated
    slack[neg[:, None] & neg[None, :]] = -0.0  # its zeros are negated too
    rows = np.flatnonzero(neg)
    slack[rows, rows] = -1.0
    nonbasic[2 * n :] = np.where(neg, np.arange(2 * n, ncols), m)
    _price(tab, np.where(neg, -1.0, 0.0))
    if not _pivots(tab, nonbasic, basis, m):  # phase 1 is bounded; a fault if not
        raise ComputationError("phase-1 simplex did not terminate optimally")
    artificial = basis >= ncols
    if tab[-1, :k][artificial].sum() > TOL.feas:
        return False
    product = np.empty_like(tab)
    for i in np.flatnonzero(artificial).tolist():
        # drive the basic artificial of row i out on the smallest column id
        ids = np.where((np.abs(tab[:-1, i]) > TOL.pivot) & (nonbasic < ncols), nonbasic, m)
        slot = ids.argmin()
        if ids[slot] < m:
            _pivot(tab, nonbasic, basis, slot, i, tab[slot].copy(), product)
    dropped = nonbasic >= ncols  # artificial slots
    tab[:-1][dropped] = 0.0
    nonbasic[dropped] = m
    rows = np.flatnonzero(basis >= ncols)  # redundant rows
    tab[:, rows] = 0.0
    basis[rows] = m
    cost = np.zeros(m + 1)  # phase-2 cost of each variable id
    cost[:n] = c
    np.negative(c, out=cost[n : 2 * n])
    tab[:-1, k] = cost[nonbasic]
    _price(tab, cost[basis])
    return True


def _price(tab: np.ndarray, cost: np.ndarray) -> None:
    """Subtract ``cost[i]`` times row ``i`` from the reduced costs, row by
    row in order, where that basic cost is nonzero."""
    k = tab.shape[1] - 1
    red = tab[:-1, k]
    for i in np.flatnonzero(cost).tolist():
        red -= cost[i] * tab[:-1, i]


def _pivots(tab, nonbasic, basis, m) -> bool:
    """Bland pivots until the LP is optimal (True) or unbounded (False);
    ``m`` exceeds every variable id."""
    k = tab.shape[1] - 1
    product = np.empty_like(tab)
    red = tab[:-1, k]
    opt, piv = TOL.opt, TOL.pivot
    for _ in range(_MAX_PIVOTS):
        # Bland: the improving slot of smallest variable id
        ids = np.where(red > opt, nonbasic, m)
        slot = ids.argmin()
        if ids[slot] == m:
            return True
        col = tab[slot].copy()
        usable = col[:k] > piv
        if not usable.any():
            return False
        ratios = np.full(k, np.inf)
        np.divide(tab[-1, :k], col[:k], out=ratios, where=usable)
        near = ratios <= ratios.min() + 1e-12
        # Bland: smallest basic index among the tied rows
        leave = np.where(near, basis, m).argmin()
        _pivot(tab, nonbasic, basis, slot, leave, col, product)
    raise ComputationError(_BUDGET)


def _pivot(tab, nonbasic, basis, slot, leave, col, product) -> None:
    """Pivot on row ``leave`` of the column in ``slot`` (``col``, a copy),
    with the full tableau's floating-point operations: the leaving
    variable's unit column takes the slot; ``1/p`` goes in the pivot row and
    ``0 - col_i * (1/p)`` in row ``i``, each product taken as ``row_s *
    col_i``, bit-for-bit ``col_i * row_s``. The reduced costs are pivoted
    before the full tableau turns ``-0`` in the pivot row into ``+0``; they
    are only compared with ``opt``, so a zero's sign among them changes
    nothing."""
    p = col[leave]
    tab[slot] = 0.0  # the leaving variable's unit column
    tab[slot, leave] = 1.0
    row = tab[:, leave]
    row /= p
    col[leave] = 0.0  # the entering column, as the full tableau's factors
    np.multiply(row[:, None], col[None, :], out=product)
    tab -= product
    nonbasic[slot], basis[leave] = basis[leave], nonbasic[slot]
