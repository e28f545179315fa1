"""Dense linear programming by a two-phase simplex on a condensed tableau.

Problems are stated as maximization of ``objective . x`` over inequality
rows ``A x <= b`` with free (sign-unrestricted) variables; finite variable
bounds are folded into extra rows. Free variables are split into positive
and negative parts internally. Bland's smallest-index rule is used for both
the entering and the leaving choice, so the pivot sequence -- and therefore
the reported outcome -- is a pure, deterministic function of the input.

Instances have a few variables and tens to a few hundred rows, so a dense
tableau wins, and the cost is the fixed overhead of each call and pivot.
One kernel, ``_lockstep``, solves every LP: ``solve_lp`` hands it a stack
of one, ``solve_lp_batch`` stacks of many. Every unfinished LP of a stack
takes one Bland pivot per step, so the per-pivot overhead is paid once per
step; an LP leaves the stack when it is optimal or unbounded, and one pass
at the end builds and checks the basic solutions of all that left.

The tableau is condensed and slot-major (LP x slot x row): each nonbasic
column and the rhs holds the ``k`` rows and a reduced cost, with the
variable id of each slot beside it. Ids follow the columns of the full
tableau ``[A, -A, I, artificials]``. A basic column is a unit vector up to
the signs of its zeros, so a pivot puts the leaving variable's column in
the entering variable's slot and pivots on it.

With no negative offset in a stack, the slack basis is feasible and phase 2
starts on ``2n`` slots. Otherwise each LP also gets a slot per row, for the
slack of a negated row (empty and never entering for the others), and
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
checks this against a reference copy of that simplex. The same holds for
the batched entry: each of its outcomes is bit-identical to ``solve_lp`` on
that LP alone, signed zeros included, and an LP faults in a batch exactly
when ``solve_lp`` raises on it (checked there too). A fault is kept per LP:
the other LPs of the batch keep their outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import TOL
from .errors import ComputationError, DimensionError, ValidationError

_MAX_PIVOTS = 20000
_BUDGET = "simplex exceeded the pivot budget"
# A lockstep chunk holds about this many bytes of tableau, which bounds the
# memory a batch adds.
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

    if A.shape[0] == 0:
        # No constraints at all: bounded only for a zero objective.
        if not (c == 0.0).all():
            return LpOutcome(LpStatus.UNBOUNDED, np.inf, None)
        x = np.zeros(n)
        return LpOutcome(LpStatus.OPTIMAL, float(c @ x), x)
    out = _lockstep(c[None], A[None], b[None])[0]
    if isinstance(out, ComputationError):
        raise out
    return out


def solve_lp_batch(objectives, A, b) -> list[LpOutcome]:
    """Solve ``max c_l . x`` subject to ``A_l x <= b_l`` for every row ``c_l``
    of ``objectives``; the outcomes are bit-identical to ``solve_lp``'s.

    ``A`` is one ``k x n`` matrix shared by all LPs or an ``L x k x n``
    stack, and ``b`` likewise ``k`` or ``L x k``. The LPs are solved in
    lockstep, in chunks of about ``_BATCH_BYTES`` of tableau. An LP that
    faults (``solve_lp`` raises ``ComputationError`` on it) raises here too:
    the first such LP in input order.
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
    fits = A.ndim in (2, 3) and b.ndim == A.ndim - 1 and (not stacked or len(A) == len(b) == L)
    if L < 0 or not fits:
        raise _misfit(C, A, b)
    n, k = C.shape[1], A.shape[-2]
    if n == 0 or A.shape[-1] != n or b.shape[-1] != k:
        raise _misfit(C, A, b)
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(C).all()):
        raise ValidationError("nonfinite entries in LP data")
    if not stacked:
        A = np.broadcast_to(A, (L, k, n))
        b = np.broadcast_to(b, (L, k))
    if k == 0:  # no rows: solve_lp answers without the simplex
        return [_solve_or_fault(c, a, r) for c, a, r in zip(C, A, b)]
    slots = 2 * n + (k if (b < 0.0).any() else 0)
    chunk = max(1, _BATCH_BYTES // (8 * (k + 1) * (slots + 1)))
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
    """The outcomes of ``max c_l . x`` over ``A_l x <= b_l`` for a stack of
    LPs (``C`` is ``L x n``, ``A`` is ``L x k x n`` with ``k >= 1``, ``b`` is
    ``L x k``). An LP that faults gets the ``ComputationError`` that
    ``solve_lp`` raises on it in its place; the other LPs go on."""
    L, k, n = A.shape
    outcomes: list[LpOutcome | ComputationError | None] = [None] * L
    neg = b < 0.0
    signed = np.count_nonzero(neg) > 0
    m = 2 * n + k + k * signed  # past every variable id, artificials included
    flip = np.where(neg, -1.0, 1.0) if signed else None  # negated rows
    rows, rhs = (A * flip[:, :, None], b * flip) if signed else (A, b)
    tab = np.zeros((L, 2 * n + k * signed + 1, k + 1))  # nonbasic columns, then the rhs
    tab[:, :n, :k] = rows.transpose(0, 2, 1)
    np.negative(tab[:, :n, :k], out=tab[:, n : 2 * n, :k])
    tab[:, -1, :k] = rhs
    nonbasic = np.empty((L, tab.shape[1] - 1), dtype=np.intp)  # variable id of each slot
    nonbasic[:, : 2 * n] = np.arange(2 * n)
    basis = np.where(neg, 2 * n + k, 2 * n) + np.arange(k)  # artificials on the negated rows
    if signed:
        live, state = _phase1(outcomes, C, tab, nonbasic, basis, neg, m)
    else:
        tab[:, :n, k] = C  # slack costs are zero: nothing to price out
        np.negative(C, out=tab[:, n : 2 * n, k])
        live, state = np.arange(L), (tab, nonbasic, basis)
    records, over = _pivots(*state, m)
    for l in live[over].tolist():
        outcomes[l] = ComputationError(_BUDGET)
    if records:
        parts = [(r[0], r[1], r[4], r[2][:, -1, :k]) for r in records]  # where, optimal, basis, rhs
        where, optimal, basis, rhs = _joined(parts)
        _finish(outcomes, live[where], optimal, basis, rhs, C, A, b, m)
    return outcomes


def _phase1(outcomes, C, tab, nonbasic, basis, neg, m):
    """Phase 1 of the stack ``_lockstep`` built, up to the phase-2 pricing.
    Stores the outcome of each LP that is infeasible or faults, and returns
    the positions and phase-2 state (``_pivots``'s arguments) of the rest."""
    k, n = neg.shape[1], C.shape[1]
    ncols = 2 * n + k  # structural and slack ids; artificials follow
    slack = tab[:, 2 * n : ncols, :k]  # slot 2n + i: the slack of row i when negated
    slack[neg[:, :, None] & neg[:, None, :]] = -0.0  # its zeros are negated too
    lps, rows = np.nonzero(neg)
    slack[lps, rows, rows] = -1.0
    nonbasic[:, 2 * n :] = np.where(neg, np.arange(2 * n, ncols), m)
    _price(tab, np.where(neg, -1.0, 0.0))
    records, over = _pivots(tab, nonbasic, basis, m)
    for l in over.tolist():
        outcomes[l] = ComputationError(_BUDGET)
    if not records:
        return over[:0], (tab[:0], nonbasic[:0], basis[:0])
    live, bounded, tab, nonbasic, basis = _joined(records)
    artificial = basis >= ncols
    infeasible = ~bounded  # phase 1 is bounded; a fault if not
    for j in np.flatnonzero(bounded & artificial.any(axis=1)).tolist():
        infeasible[j] = tab[j, -1, :k][artificial[j]].sum() > TOL.feas
    for l, ok in zip(live[infeasible].tolist(), bounded[infeasible].tolist()):
        fault = ComputationError("phase-1 simplex did not terminate optimally")
        outcomes[l] = LpOutcome(LpStatus.INFEASIBLE, -np.inf, None) if ok else fault
    live, tab, nonbasic, basis = _rows((live, tab, nonbasic, basis), ~infeasible)
    for i in np.flatnonzero((basis >= ncols).any(axis=0)).tolist():
        # drive the basic artificial of row i out on the smallest column id
        lps = np.flatnonzero(basis[:, i] >= ncols)
        ids = nonbasic[lps]
        ids = np.where((np.abs(tab[lps, :-1, i]) > TOL.pivot) & (ids < ncols), ids, m)
        slot = ids.argmin(axis=1)
        lps, slot = lps[ids.min(axis=1) < m], slot[ids.min(axis=1) < m]
        part = _rows((tab, nonbasic, basis), lps)
        lanes, sub = np.arange(lps.size), part[0]
        _pivot(*part, lanes, slot, np.full(lps.size, i), sub[lanes, slot], np.empty_like(sub))
        tab[lps], nonbasic[lps], basis[lps] = part
    dropped = nonbasic >= ncols  # artificial slots
    tab[:, :-1][dropped] = 0.0
    nonbasic[dropped] = m
    lps, rows = np.nonzero(basis >= ncols)  # redundant rows
    tab[lps, :, rows] = 0.0
    basis[lps, rows] = m
    cost = np.zeros((live.size, m + 1))  # phase-2 cost of each variable id
    cost[:, :n] = C[live]
    np.negative(C[live], out=cost[:, n : 2 * n])
    tab[:, :-1, k] = np.take_along_axis(cost, nonbasic, axis=1)
    _price(tab, np.take_along_axis(cost, basis, axis=1))
    return live, (tab, nonbasic, basis)


def _price(tab: np.ndarray, cost: np.ndarray) -> None:
    """Subtract ``cost[l, i]`` times row ``i`` from LP ``l``'s reduced costs,
    row by row in order, where that basic cost is nonzero."""
    k = tab.shape[2] - 1
    red = tab[:, :-1, k]
    for i in np.flatnonzero(cost.any(axis=0)).tolist():
        lps = np.flatnonzero(cost[:, i])
        red[lps] -= cost[lps, i, None] * tab[lps, :-1, i]


def _pivots(tab, nonbasic, basis, m):
    """Bland pivots on a stack until each LP is optimal or unbounded. Returns
    one record per step that retired LPs (their positions in the stack,
    optimal flags, tableaux, slot ids and bases) and the positions of the
    LPs left over the pivot budget; ``m`` exceeds every variable id."""
    k = tab.shape[2] - 1
    records = []
    live = lanes = np.arange(len(tab))  # position of each unfinished LP in the stack
    product = np.empty_like(tab)
    red = tab[:, :-1, k]
    opt, piv = TOL.opt, TOL.pivot
    for _ in range(_MAX_PIVOTS):
        # Bland: the improving slot of smallest variable id
        ids = np.where(red > opt, nonbasic, m)
        slot = ids.argmin(axis=1)
        col = tab[lanes, slot]
        usable = col[:, :k] > piv
        optimal = ids[lanes, slot] == m
        finished = optimal | ~np.logical_or.reduce(usable, axis=1)
        retired = np.count_nonzero(finished)
        if retired == live.size:  # the last LPs retire together (or none is left): no copies
            records.append((live, optimal, tab, nonbasic, basis))
            return records, live[:0]
        if retired:
            records.append(_rows((live, optimal, tab, nonbasic, basis), finished))
            going = ~finished
            live, tab, nonbasic, basis = _rows((live, tab, nonbasic, basis), going)
            slot, col, usable = slot[going], col[going], usable[going]
            lanes = np.arange(live.size)
            red = tab[:, :-1, k]
            product = product[: live.size]
        ratios = np.full(usable.shape, np.inf)
        np.divide(tab[:, -1, :k], col[:, :k], out=ratios, where=usable)
        # unusable rows hold inf, and every live LP has a finite ratio
        near = ratios <= ratios.min(axis=1, keepdims=True) + 1e-12
        # Bland: smallest basic index among the tied rows
        leave = np.where(near, basis, m).argmin(axis=1)
        _pivot(tab, nonbasic, basis, lanes, slot, leave, col, product)
    return records, live


def _pivot(tab, nonbasic, basis, lanes, slot, leave, col, product) -> None:
    """Pivot each LP ``l`` of the stack on row ``leave[l]`` of the column in
    ``slot[l]`` (``col``, a copy), with the full tableau's floating-point
    operations: the leaving variable's unit column takes the slot; ``1/p``
    goes in the pivot row and ``0 - col_i * (1/p)`` in row ``i``, each
    product taken as ``row_s * col_i``, bit-for-bit ``col_i * row_s``. The
    reduced costs are pivoted before the full tableau turns ``-0`` in the
    pivot row into ``+0``; they are only compared with ``opt``, so a zero's
    sign among them changes nothing."""
    p = col[lanes, leave]
    tab[lanes, slot] = 0.0  # the leaving variable's unit column
    tab[lanes, slot, leave] = 1.0
    row = tab[lanes, :, leave]
    row /= p[:, None]
    tab[lanes, :, leave] = row
    col[lanes, leave] = 0.0  # the entering column, as the full tableau's factors
    np.multiply(row[:, :, None], col[:, None, :], out=product)
    tab -= product
    entering = nonbasic[lanes, slot]
    nonbasic[lanes, slot] = basis[lanes, leave]
    basis[lanes, leave] = entering


def _rows(arrays, mask) -> tuple:
    """The LPs ``mask`` selects, from each of ``arrays``."""
    return tuple(a[mask] for a in arrays)


def _joined(records):
    """The records of ``_pivots``, or parts of them, as one, field by field."""
    if len(records) == 1:
        return records[0]
    return [np.concatenate(part) for part in zip(*records)]


def _finish(outcomes, where, optimal, basis, rhs, C, A, b, m) -> None:
    """Store the outcomes of finished LPs at positions ``where`` of the
    stack, from their bases and rhs, with ``solve_lp``'s residual check on
    each optimal point; an LP that fails it gets ``solve_lp``'s error
    instead."""
    n = C.shape[1]
    z = np.zeros((where.size, m + 1))  # a zeroed row's basic id is m
    z[np.arange(where.size)[:, None], basis] = rhs
    X = z[:, :n] - z[:, n : 2 * n]
    bw = b[where]
    residual = ((A[where] @ X[:, :, None])[:, :, 0] - bw).max(axis=1, initial=0.0)
    scale = np.abs(bw).max(axis=1, initial=1.0)
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
