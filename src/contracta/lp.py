"""Dense linear programming by a two-phase tableau simplex.

Problems are stated as maximization of ``objective . x`` over inequality
rows ``A x <= b`` with free (sign-unrestricted) variables; finite variable
bounds are folded into extra rows. Free variables are split into positive
and negative parts internally. Bland's smallest-index rule is used for both
the entering and the leaving choice, so the pivot sequence -- and therefore
the reported outcome -- is a pure, deterministic function of the input.

Instances have a few variables and mostly tens of rows (support and
inclusion LPs over one polytope's facets); the all-rows redundancy test of
``remove_redundancy`` and ``membership_certificate`` build a few hundred.
At that size a dense tableau wins, and the cost is the fixed overhead of
each call and each pivot.

``solve_lp_batch`` solves many such LPs at once: support LPs of one or more
polytopes along many directions. When no offset is negative the slack basis
is feasible, so phase 1 is skipped, and the LPs are pivoted in lockstep, one
Bland pivot of every unfinished LP per step, with the array operations of
``_iterate`` and ``_pivot`` applied along a leading LP axis. An LP leaves the stack when it is optimal or unbounded,
and one pass after the last step builds and checks the basic solutions of
all that left. This pays the per-pivot overhead once per step instead of
once per LP. The stack is the condensed tableau, slot-major (LP x slot x
row): each of the ``2n`` nonbasic columns and the rhs holds ``k`` constraint
rows and a reduced cost, and the variable id of each slot is kept beside it.
The ``k`` basic columns of the full tableau ``[A, -A, I, rhs]`` are exact
unit vectors, so dropping them loses nothing: a pivot swaps the leaving
variable's unit column into the entering variable's slot and pivots on it,
and Bland's entering choice is the improving slot of smallest variable id.
Neither the layout nor the pooled pass changes an operation on an element.

Two kernels stay. Routing a single nonnegative-offset LP through
``_lockstep`` (L = 1) would leave ``_two_phase`` only phase 1, but on support
LPs of random C-sets it took 2.0-2.5 times ``solve_lp``'s time at 2-40 rows
and 1.2 times at 128 (medians of 7 interleaved runs of 200 LPs, Intel Xeon
VM, one thread), and a ``reproduce`` benchmark pass sends 2,880 single LPs.

Invariant: a kernel change must keep the pivot sequence and every
floating-point operation, so each ``LpOutcome`` stays bit-identical for
every input; ``tests/test_lp.py`` checks this against a reference copy. The
same holds for the batched entry: each of its outcomes is bit-identical to
``solve_lp`` on that LP alone, signed zeros included, and an LP faults in a
batch exactly when ``solve_lp`` raises on it (checked there too). A fault
is kept per LP: the other LPs of the batch keep their outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import TOL
from .errors import ComputationError, DimensionError, ValidationError

_MAX_PIVOTS = 20000
# solve_lp_batch runs at least this many LPs in lockstep: on LPs of 2-40 rows
# in 1-4 variables, 8 LPs took 0.48-1.00 (median 0.62) of the time of solving
# them one at a time and 4 took 0.85-1.62 (median 1.03) (Intel Xeon VM, one
# core). A lockstep chunk holds about this many bytes of tableau, which bounds
# the memory a batch adds.
_LOCKSTEP_MIN = 8
_BATCH_BYTES = 1 << 20


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

    status, x = _two_phase(c, A, b)
    if x is None:
        return LpOutcome(status, -np.inf if status is LpStatus.INFEASIBLE else np.inf, None)
    residual = float((A @ x - b).max(initial=0.0))
    if residual > TOL.feas * float(np.abs(b).max(initial=1.0)):
        raise ComputationError(f"simplex returned an infeasible point (residual {residual:.3e})")
    return LpOutcome(LpStatus.OPTIMAL, float(c @ x), x)


def solve_lp_batch(objectives, A, b) -> list[LpOutcome]:
    """Solve ``max c_l . x`` subject to ``A_l x <= b_l`` for every row ``c_l``
    of ``objectives``; the outcomes are bit-identical to ``solve_lp``'s.

    ``A`` is one ``k x n`` matrix shared by all LPs or an ``L x k x n``
    stack, and ``b`` likewise ``k`` or ``L x k``. When no offset is
    negative the slack basis is feasible, and at least ``_LOCKSTEP_MIN``
    LPs are solved in lockstep, in chunks of about ``_BATCH_BYTES`` of
    tableau; otherwise they are solved one at a time. An LP that faults
    (``solve_lp`` raises ``ComputationError`` on it) raises here too: the
    first such LP in input order.
    """
    outcomes = _solve_batch(objectives, A, b)
    for out in outcomes:
        if isinstance(out, ComputationError):
            raise out
    return outcomes


def _solve_batch(objectives, A, b) -> list:
    """``solve_lp_batch``'s outcomes, with the ``ComputationError`` of each
    LP that faults in its place instead of raising; the other LPs keep their
    outcomes."""
    C = np.asarray(objectives, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    L = C.shape[0] if C.ndim == 2 else -1
    stacked = A.ndim == 3
    if (
        L < 0
        or A.ndim not in (2, 3)
        or b.ndim != A.ndim - 1
        or (stacked and not len(A) == len(b) == L)
    ):
        raise _misfit(C, A, b)
    if L < _LOCKSTEP_MIN or A.shape[-2] == 0 or (b < 0.0).any():
        if stacked:
            return [_solve_or_fault(c, a, r) for c, a, r in zip(C, A, b)]
        return [_solve_or_fault(c, A, b) for c in C]
    n, k = C.shape[1], A.shape[-2]
    if n == 0 or A.shape[-1] != n or b.shape[-1] != k:
        raise _misfit(C, A, b)
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(C).all()):
        raise ValidationError("nonfinite entries in LP data")
    if not stacked:
        A = np.broadcast_to(A, (L, k, n))
        b = np.broadcast_to(b, (L, k))
    chunk = max(1, _BATCH_BYTES // (8 * (k + 1) * (2 * n + 1)))
    outcomes: list = []
    for start in range(0, L, chunk):
        part = slice(start, start + chunk)
        outcomes.extend(_lockstep(C[part], A[part], b[part]))
    return outcomes


def _solve_or_fault(c: np.ndarray, A: np.ndarray, b: np.ndarray):
    """``solve_lp`` outcome of ``max c.x`` over ``A x <= b``, or the
    ``ComputationError`` it raises."""
    try:
        return solve_lp(LinearProgram(c, A, b))
    except ComputationError as exc:
        return exc


def _misfit(C: np.ndarray, A: np.ndarray, b: np.ndarray) -> DimensionError:
    return DimensionError(f"LP data of shapes {C.shape}, {A.shape} and {b.shape} do not fit")


def _lockstep(C: np.ndarray, A: np.ndarray, b: np.ndarray) -> list:
    """Phase 2 of ``_two_phase`` from the slack basis for a stack of LPs, one
    pivot of every unfinished LP per step, with ``_iterate``'s Bland rule and
    ``_pivot``'s floating-point operations.

    Each LP keeps only its ``2n`` nonbasic columns and the rhs, slot-major:
    a slot holds the column's ``k`` rows, then its reduced cost. A basic
    column of the full tableau is a unit vector, so a pivot puts the leaving
    variable's unit column in the entering variable's slot and pivots on it
    as ``_pivot`` would: ``1/p`` in the pivot row, ``0 - col_i * (1/p)`` in
    row ``i``, each product taken as ``row_s * col_i``, which is bit-for-bit
    ``col_i * row_s``. The reduced costs are pivoted with the other rows,
    before ``_pivot`` turns ``-0`` entries of the pivot row into ``+0``; they
    are only compared with ``opt``, so the sign of a zero among them changes
    nothing. A finished LP leaves with its basis and rhs, and one ``_finish``
    after the loop settles them all: its work is per LP, so no bit moves.

    An LP that faults gets the ``ComputationError`` that ``solve_lp`` would
    raise on it in its place; the other LPs go on.
    """
    L, k, n = A.shape
    m = 2 * n + k
    tab = np.empty((L, 2 * n + 1, k + 1))  # nonbasic columns, then the rhs
    tab[:, :n, :k] = A.transpose(0, 2, 1)
    np.negative(A.transpose(0, 2, 1), out=tab[:, n : 2 * n, :k])
    tab[:, -1, :k] = b
    tab[:, :n, k] = C  # slack costs are zero: nothing to price out
    np.negative(C, out=tab[:, n : 2 * n, k])
    tab[:, -1, k] = 0.0
    nonbasic = np.tile(np.arange(2 * n), (L, 1))  # variable id of each slot
    basis = np.tile(np.arange(2 * n, m), (L, 1))
    outcomes: list[LpOutcome | ComputationError | None] = [None] * L
    settled = []  # (positions, optimal flags, bases, rhs) of finished LPs
    live = np.arange(L)  # position of each unfinished LP in the input
    lanes = np.arange(L)
    product = np.empty_like(tab)
    red, rhs = tab[:, :-1, k], tab[:, -1, :k]
    opt, piv = TOL.opt, TOL.pivot
    for _ in range(_MAX_PIVOTS):
        # Bland: the improving slot of smallest variable id
        ids = np.where(red > opt, nonbasic, m)
        slot = ids.argmin(axis=1)
        enter = ids.min(axis=1)
        col = tab[lanes, slot]
        usable = col[:, :k] > piv
        optimal = enter == m
        finished = optimal | ~usable.any(axis=1)
        if finished.any():
            settled.append((live[finished], optimal[finished], basis[finished], rhs[finished]))
            going = ~finished
            live, tab, basis, nonbasic = live[going], tab[going], basis[going], nonbasic[going]
            if not live.size:
                break
            slot, enter, col, usable = slot[going], enter[going], col[going], usable[going]
            lanes = np.arange(live.size)
            red, rhs = tab[:, :-1, k], tab[:, -1, :k]
            product = product[: live.size]
        ratios = np.full(usable.shape, np.inf)
        np.divide(rhs, col[:, :k], out=ratios, where=usable)
        # unusable rows hold inf, and every live LP has a finite ratio
        near = ratios <= ratios.min(axis=1, keepdims=True) + 1e-12
        # Bland: smallest basic index among the tied rows
        leave = np.where(near, basis, m).argmin(axis=1)
        p = col[lanes, leave]
        tab[lanes, slot] = 0.0  # the leaving variable's unit column
        tab[lanes, slot, leave] = 1.0
        row = tab[lanes, :, leave]
        row /= p[:, None]
        tab[lanes, :, leave] = row
        col[lanes, leave] = 0.0  # the entering column, as _pivot's factors
        np.multiply(row[:, :, None], col[:, None, :], out=product)
        tab -= product
        nonbasic[lanes, slot] = basis[lanes, leave]
        basis[lanes, leave] = enter
    for l in live.tolist():
        outcomes[l] = ComputationError("simplex exceeded the pivot budget")
    if settled:  # LPs that all retired at one step need no join
        joined = settled[0] if len(settled) == 1 else map(np.concatenate, zip(*settled))
        where, optimal, basis, rhs = joined
        z = np.zeros((where.size, m))
        np.put_along_axis(z, basis, rhs, axis=1)
        _finish(outcomes, where, optimal, z[:, :n] - z[:, n : 2 * n], C, A, b)
    return outcomes


def _finish(outcomes, where, optimal, X, C, A, b) -> None:
    """Store the outcomes of finished lockstep LPs (``X`` their basic
    solutions), with ``solve_lp``'s residual check on each optimal point; an
    LP that fails it gets ``solve_lp``'s error instead."""
    bw = b[where]
    residual = np.maximum((A[where] @ X[:, :, None])[:, :, 0] - bw, 0.0).max(axis=1)
    scale = np.maximum(np.abs(bw).max(axis=1), 1.0)
    # stacked 1 x n by n x 1 products take the dot-product path of ``c @ x``
    values = (C[where][:, None, :] @ X[:, :, None])[:, 0, 0].tolist()
    for l, opt, value, x in zip(where.tolist(), optimal.tolist(), values, X):
        if opt:
            outcomes[l] = LpOutcome(LpStatus.OPTIMAL, value, x)
        else:
            outcomes[l] = LpOutcome(LpStatus.UNBOUNDED, np.inf, None)
    for i in np.flatnonzero(optimal & (residual > TOL.feas * scale)).tolist():
        outcomes[where[i]] = ComputationError(
            f"simplex returned an infeasible point (residual {residual[i]:.3e})"
        )


def _two_phase(c: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Two-phase simplex on the tableau ``[A, -A, I, artificials, rhs]``; a row
    with ``b < 0`` is negated outside its artificial column, which is basic."""
    n = c.size
    k = A.shape[0]
    if k == 0:
        # No constraints at all: bounded only for a zero objective.
        if (c == 0.0).all():
            return LpStatus.OPTIMAL, np.zeros(n)
        return LpStatus.UNBOUNDED, None

    ncols = 2 * n + k
    neg = b < 0.0
    nart = int(np.count_nonzero(neg))
    tab = np.zeros((k, ncols + nart + 1))
    tab[:, :n] = A
    np.negative(A, out=tab[:, n : 2 * n])
    rows = np.arange(k)
    basis = 2 * n + rows
    tab[rows, basis] = 1.0
    tab[:, -1] = b
    if nart:
        tab[neg, :ncols] *= -1.0
        tab[neg, -1] *= -1.0
        basis[neg] = ncols + np.arange(nart)
        tab[rows[neg], basis[neg]] = 1.0
        cost1 = np.zeros(ncols + nart)
        cost1[ncols:] = -1.0
        status = _iterate(tab, basis, cost1)
        if status is not LpStatus.OPTIMAL:  # pragma: no cover - phase 1 is bounded
            raise ComputationError("phase-1 simplex did not terminate optimally")
        if tab[basis >= ncols, -1].sum() > TOL.feas:
            return LpStatus.INFEASIBLE, None
        _drive_out_artificials(tab, basis, ncols)
        keep = basis < ncols
        tab = np.hstack([tab[keep, :ncols], tab[keep, -1:]])
        basis = basis[keep]

    m = tab.shape[1] - 1
    cost2 = np.zeros(m)
    cost2[:n] = c
    np.negative(c, out=cost2[n : 2 * n])
    status = _iterate(tab, basis, cost2)
    if status is LpStatus.UNBOUNDED:
        return LpStatus.UNBOUNDED, None
    z = np.zeros(m)
    z[basis] = tab[:, -1]
    return LpStatus.OPTIMAL, z[:n] - z[n : 2 * n]


def _iterate(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> LpStatus:
    """Pivot ``tab`` (canonical w.r.t. ``basis``) to optimality in place."""
    m = tab.shape[1] - 1
    red = cost.copy()
    # Basic columns are exact unit vectors (``_pivot`` writes 0/1), so pricing
    # out the basis needs only the rows whose basic cost is nonzero.
    basic_cost = cost[basis]
    for i in basic_cost.nonzero()[0]:
        red -= basic_cost[i] * tab[i, :m]
    opt, piv = TOL.opt, TOL.pivot
    for _ in range(_MAX_PIVOTS):
        improving = red > opt
        enter = int(improving.argmax())  # Bland: smallest improving index
        if not improving[enter]:
            return LpStatus.OPTIMAL
        col = tab[:, enter]
        usable = (col > piv).nonzero()[0]
        if usable.size == 0:
            return LpStatus.UNBOUNDED
        ratios = tab[usable, -1] / col[usable]
        near = usable[ratios <= ratios.min() + 1e-12]
        # Bland: smallest basic index among the tied rows
        leave = int(near[0] if near.size == 1 else near[basis[near].argmin()])
        _pivot(tab, red, leave, enter)
        basis[leave] = enter
    raise ComputationError("simplex exceeded the pivot budget")


def _pivot(tab: np.ndarray, red: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= factors[:, None] * tab[row]
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    red -= red[col] * tab[row, :-1]
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
