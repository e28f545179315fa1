"""H-representation polytope algebra.

A polytope is the solution set of ``H x <= b``. Facet rows are normalized to
unit Euclidean norm at construction, which makes radii and redundancy
thresholds scale-free. ``CSetPolytope`` marks a polytope that passed the
compact/origin-interior certification of :func:`validate_cset`, which every
input set passes; ``one_step_set`` builds its shadows as C-sets by proof.

The constructor checks its input: a nonempty 2-D facet matrix with one
offset per row (``DimensionError``), finite entries and no zero row
(``ValidationError``). Everything built from outside data goes through it:
user and scenario polytopes, :func:`box`, :func:`intersect`, :func:`scale`
(which also checks its factor) and the lifted polytope of ``one_step_set``.
Rows the library computes from checked rows -- Fourier-Motzkin shadows, the
output of :func:`remove_redundancy` and :func:`project`, and the C-set of
``one_step_set`` -- skip the checks (``HPolytope._computed``) but not the
normalization, which is the constructor's own routine. Each of these
constructions divides by the row norms again, even where the rows are unit
rows already: the recomputed norm is 1 only up to an ulp, so the division
is not idempotent, and one division fewer would move the bits of results.

Facet data are immutable after construction. Each polytope memoizes its
support LP outcomes by the LP tolerances in force and then by direction; an
outcome, a fault (``ComputationError``) included, is what any re-solve would
give, so memo writes are idempotent and a polytope is safe to share across
threads. A fault raises where it is read (:func:`_checked`). A memo is
filled by whichever batch solved the LP: the polytope's own, or one pooled
over several polytopes (:func:`_support_lps`: the planner's steps and the
distance tables). Construction renormalizes rows, so no memo passes to
another polytope, not even one built from the same rows. A system's
one-step memo is keyed by bits instead: a target with an earlier target's
bits gets that target's one-step set, memo included, which is the earlier
target itself when they are equal.

Redundancy removal tests each row against the facets found so far by
reading its maximum off their vertices, which an incremental double
description keeps as facets are found; only rows this cannot decide with a
clear margin, and flat sets, take an LP (:func:`remove_redundancy`).
:func:`vertices` reads the same description, in any dimension.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

from .config import TOL
from .errors import (
    ComputationError,
    DimensionError,
    EmptyInteriorError,
    EmptySetError,
    FacetBudgetError,
    OriginNotInteriorError,
    UnboundedDirectionError,
    UnboundedSetError,
    ValidationError,
)
from .lp import _LOCKSTEP_MIN, LinearProgram, LpStatus, _solve_batch, _solve_or_fault, solve_lp

_FACET_CAP_ENV = "CONTRACTA_MAX_FACETS"
_DEFAULT_FACET_CAP = 10000
_ZERO_ROW = 1e-12
_RAY_BLOCK = 256  # rays per block in _first_hits, rows in _Description.maxima


def _facet_cap() -> int:
    raw = os.environ.get(_FACET_CAP_ENV)
    if raw is None:
        return _DEFAULT_FACET_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{_FACET_CAP_ENV} must be an integer") from exc


class HPolytope:
    """Inequality-form polytope ``{x | H x <= b}`` with unit facet normals."""

    __slots__ = ("H", "b", "_memo")

    def __init__(self, H, b):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        if H.ndim != 2 or H.shape[0] == 0 or H.shape[1] == 0:
            raise DimensionError("facet matrix must be a nonempty 2-D array")
        if H.shape[0] != b.size:
            raise DimensionError(f"{H.shape[0]} facets but {b.size} offsets")
        if not (np.isfinite(H).all() and np.isfinite(b).all()):
            raise ValidationError("nonfinite facet data")
        norms = _row_norms(H)
        if (norms <= _ZERO_ROW).any():
            raise ValidationError("all-zero facet row")
        self._set_rows(H, b, norms)

    @classmethod
    def _computed(cls, H: np.ndarray, b: np.ndarray, norms: np.ndarray | None = None):
        """A polytope on rows the library computed from checked ones: a
        nonempty float matrix, matching offsets, finite, with no zero row.
        The constructor's checks are skipped, its normalization is not.
        ``norms`` are ``_row_norms(H)`` when the caller has them."""
        p = cls.__new__(cls)
        p._set_rows(H, b, _row_norms(H) if norms is None else norms)
        return p

    def _set_rows(self, H: np.ndarray, b: np.ndarray, norms: np.ndarray) -> None:
        self.H = H / norms[:, None]
        self.b = b / norms
        self.H.setflags(write=False)
        self.b.setflags(write=False)
        self._memo = {}  # support LP outcomes, see _support_lps

    @property
    def dim(self) -> int:
        return self.H.shape[1]

    @property
    def nfacets(self) -> int:
        return self.H.shape[0]

    def contains(self, x, tol: float | None = None) -> bool:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise DimensionError("point dimension mismatch")
        if tol is None:
            tol = TOL.feas
        return bool(np.all(self.H @ x <= self.b + tol))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, facets={self.nfacets})"


class CSetPolytope(HPolytope):
    """A polytope certified bounded with the origin strictly inside."""


def _row_norms(H: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``H``."""
    return np.sqrt(np.add.reduce(H * H, axis=1))


def box(lower, upper) -> HPolytope:
    """Axis-aligned box ``[lower_i, upper_i]`` in each coordinate."""
    lower = np.asarray(lower, dtype=float).ravel()
    upper = np.asarray(upper, dtype=float).ravel()
    if lower.size != upper.size:
        raise DimensionError("bound vectors differ in length")
    if np.any(lower >= upper):
        raise ValidationError("lower bounds must be strictly below upper bounds")
    n = lower.size
    eye = np.eye(n)
    return HPolytope(np.vstack([eye, -eye]), np.concatenate([upper, -lower]))


def symmetric_box(halfwidths) -> HPolytope:
    halfwidths = np.asarray(halfwidths, dtype=float).ravel()
    return box(-halfwidths, halfwidths)


def validate_cset(p: HPolytope) -> CSetPolytope:
    """Certify that ``p`` is compact with the origin in its interior.

    When every offset is positive the origin is feasible and no probe LP is
    needed; the 2n coordinate LPs that test boundedness run as one batch.
    """
    interior = bool(np.all(p.b > 0.0))
    if not interior:
        probe = _checked(_support_lps([(p, np.zeros((1, p.dim)))])[0][0])
        if probe.status is LpStatus.INFEASIBLE:
            raise EmptyInteriorError("polytope is empty")
    axis = _unbounded_axis(p)
    if axis is not None:
        raise UnboundedSetError(f"unbounded in coordinate direction {axis}")
    if not interior:
        raise OriginNotInteriorError("origin is not strictly interior")
    return CSetPolytope(p.H, p.b)


def _unbounded_axis(p: HPolytope) -> int | None:
    """First coordinate along which ``p`` is unbounded, in either sign."""
    eye = np.eye(p.dim)
    (outcomes,) = _support_lps([(p, np.concatenate((eye, -eye)))])
    unbounded = [_checked(out).status is LpStatus.UNBOUNDED for out in outcomes]
    axes = np.flatnonzero(np.logical_or(unbounded[: p.dim], unbounded[p.dim :]))
    return int(axes[0]) if axes.size else None


def support(p: HPolytope, direction) -> float:
    """Support value ``max a.x`` over the polytope."""
    a = np.asarray(direction, dtype=float).ravel()
    if a.size != p.dim:
        raise DimensionError("direction dimension mismatch")
    return _support_value(_support_lps([(p, a[None, :])])[0][0])


def support_many(p: HPolytope, directions) -> np.ndarray:
    """Support values of ``p`` along each row of ``directions``.

    Equal to :func:`support` per row, and raises its error for the first
    row whose LP is unbounded, infeasible or faults; LPs not in the memo run
    as one batch.
    """
    return _support_values(_support_lps([(p, directions)])[0])


def _support_lps(pairs) -> list:
    """Support LP outcomes of each polytope ``p`` along each row of its
    ``directions``, for every ``(p, directions)`` of ``pairs``, as one list
    per pair, from the polytopes' memos.

    A memo is keyed by the LP tolerances in force, then by the direction's
    bytes, sliced once from the directions' buffer. The misses of all pairs
    are solved in one batch (:func:`_solve_misses`), each direction once per
    polytope however many pairs ask for it, as part of the first pair that
    asks. Every outcome is stored, a fault's ``ComputationError`` too, and
    none raises here: a reader raises it (:func:`_checked`). A fault is
    stored without its traceback, whose frames hold the simplex tableau.
    Optimal points are read-only, as callers hand them out as witnesses.
    """
    tol = (TOL.feas, TOL.opt, TOL.pivot)
    keyed, todos, misses, queued = [], [], [], {}
    for p, directions in pairs:
        directions = np.asarray(directions, dtype=float)
        if directions.ndim != 2 or directions.shape[1] != p.dim:
            raise DimensionError("direction dimension mismatch")
        raw, width = directions.tobytes(), 8 * p.dim
        keys = [raw[i : i + width] for i in range(0, len(raw), width)]
        memo = p._memo.setdefault(tol, {})
        keyed.append((memo, keys))
        pending = queued.setdefault(id(p), set())  # keys an earlier pair of p sends
        todo = {key: i for i, key in enumerate(keys) if key not in memo and key not in pending}
        if todo:  # a row per new key
            pending.update(todo)
            todos.append((memo, todo))
            misses.append((p, directions[list(todo.values())]))
    for (memo, todo), outs in zip(todos, _solve_misses(misses)):
        for key, out in zip(todo, outs):
            if isinstance(out, ComputationError):
                out.__traceback__ = None
            elif out.x is not None:
                out.x.setflags(write=False)
            memo[key] = out
    return [[memo[key] for key in keys] for memo, keys in keyed]


def _solve_misses(misses) -> list:
    """``lp._solve_batch``'s outcomes of the support LPs of each ``(p,
    directions)`` of ``misses``, one list per pair.

    With a single pair, too few LPs for lockstep or polytopes of different
    dimensions, each pair's LPs run on its polytope's own rows. Otherwise
    all run as one stack, each polytope's rows padded to the longest with
    zero rows of offset 0: a zero row never passes the ratio test, so its
    slack stays basic at 0, and the padding changes no outcome's bits.
    """
    counts = [len(d) for _, d in misses]
    if len(misses) < 2 or sum(counts) < _LOCKSTEP_MIN or len({p.dim for p, _ in misses}) > 1:
        return [_solve_batch(d, p.H, p.b) for p, d in misses]
    ends = list(itertools.accumulate(counts))
    k = max(p.nfacets for p, _ in misses)
    A = np.zeros((ends[-1], k, misses[0][0].dim))
    b = np.zeros((ends[-1], k))
    for (p, _), end, count in zip(misses, ends, counts):
        A[end - count : end, : p.nfacets] = p.H
        b[end - count : end, : p.nfacets] = p.b
    outs = _solve_batch(np.concatenate([d for _, d in misses]), A, b)
    return [outs[end - count : end] for end, count in zip(ends, counts)]


def _support_values(outcomes) -> np.ndarray:
    return np.array([_support_value(out) for out in outcomes])


def _support_value(out) -> float:
    out = _checked(out)
    if out.status is LpStatus.UNBOUNDED:
        raise UnboundedDirectionError("support is unbounded in this direction")
    if out.status is LpStatus.INFEASIBLE:
        raise EmptySetError("support of an empty polytope")
    return out.value


def _checked(out):
    """A memoized support LP outcome, or a fresh copy of its fault raised:
    threads that share a memo never share an exception."""
    if isinstance(out, ComputationError):
        raise type(out)(*out.args)
    return out


def radial(p: CSetPolytope, xi) -> float:
    """Largest ``mu`` with ``mu * xi`` inside ``p`` for a unit direction."""
    xi = np.asarray(xi, dtype=float).ravel()
    if xi.size != p.dim:
        raise DimensionError("direction dimension mismatch")
    norm = float(np.linalg.norm(xi))
    if abs(norm - 1.0) > 1e-12:
        raise ValidationError("radial direction must have unit norm")
    dots = p.H @ xi
    positive = dots > 0.0
    if not np.any(positive):
        raise UnboundedDirectionError("no facet bounds this direction")
    return float(np.min(p.b[positive] / dots[positive]))


def scale(p: HPolytope, mu: float):
    """Origin-centered scaling ``mu * p``; preserves C-set certification."""
    if not mu > 0.0:
        raise ValidationError("scaling factor must be positive")
    return type(p)(p.H, mu * p.b)


def intersect(p: HPolytope, q: HPolytope) -> HPolytope:
    if p.dim != q.dim:
        raise DimensionError("intersection of polytopes of different dimension")
    return HPolytope(np.vstack([p.H, q.H]), np.concatenate([p.b, q.b]))


def is_subset(inner: HPolytope, outer: HPolytope) -> bool:
    """Facet-wise inclusion test with feasibility slack on the inner side."""
    return _first_exceeded(inner, outer) is None


def _first_exceeded(inner: HPolytope, outer: HPolytope):
    """Support LP outcome of ``inner`` along the first facet of ``outer``
    that it exceeds by more than ``feas``, or None when ``inner`` lies in
    ``outer``.

    The facets are checked in order, on the supports of one batch; an
    unbounded, infeasible or faulting support LP before the first exceeded
    facet raises as :func:`support` does.
    """
    if inner.dim != outer.dim:
        raise DimensionError("inclusion test across different dimensions")
    (outcomes,) = _support_lps([(inner, outer.H)])
    for out, offset in zip(outcomes, outer.b):
        if _support_value(out) > offset + TOL.feas:
            return out
    return None


def remove_redundancy(p: HPolytope) -> HPolytope:
    """Drop facets whose removal does not change the set.

    The rows of :func:`_collapse_parallel` are kept or removed in that
    order. A row is redundant when maximizing its normal over the rows it is tested
    against (with its own offset relaxed by one unit so the LP stays
    bounded) stays within ``feas`` of its offset. Redundant rows are
    removed, and the kept rows are returned in that order.

    Rows are tested by Clarkson's output-sensitive algorithm, only against
    the rows already known to be facets, whose set is described by its
    vertices (an incremental double description, :class:`_Description`):

    * The interior point is the origin when every offset exceeds ``feas``,
      as for C-sets and their Fourier-Motzkin shadows; such input is
      nonempty, so no LP is needed. Otherwise it is the Chebyshev centre,
      whose LP also raises ``EmptySetError`` on empty input. The tests run
      in coordinates centred on it, so every offset is positive.
    * The ray from the interior point along each row normal marks the first
      row it crosses as a facet. When that finds every row a facet, nothing
      else runs.
    * Otherwise the tests run in rounds. A round reads the maximum of every
      undecided row over the facets known at its start off their vertices,
      one matrix product for all rows (+inf along an unbounded ray). A row
      whose maximum stays within ``feas`` of its offset is redundant. When
      the maximum beats the offset, the ray from the interior point toward
      the best vertex (or along the unbounded ray) marks the first row it
      crosses as a facet, and the facet joins the description; the row is
      tested again next round unless it was that row. The rays of one round
      are traced together, in row order, and a row whose ray hits a facet
      found earlier in the same round is also tested again next round.

    A ray hit counts only when the next row lies more than ``10 feas`` of
    violation behind it. Some rows instead take the all-rows test, one LP
    against all rows except those removed before it, in order: the rows of
    a tied hit, those whose maximum lies within ``_DD_MARGIN`` of ``offset +
    feas``, every row of a set whose Chebyshev radius is at most ``feas`` (a
    flat set), and, since a missed vertex could only make a row look
    redundant, every row found redundant when the final description is not
    bounded with each known facet tight at ``n`` vertices or more. The kept
    rows are thus those of testing every row, in order, against all rows not
    yet removed. A row whose all-rows LP faults (``solve_lp`` raises
    ``ComputationError``, as on near-parallel rows 1e-9 apart) is kept,
    which never changes the set.
    """
    keep = _irredundant_rows(p)
    return HPolytope._computed(p.H[keep], p.b[keep])


def _irredundant_rows(p: HPolytope) -> np.ndarray:
    """Indices of the rows of ``p`` that :func:`remove_redundancy` keeps, in its order."""
    kept = _collapse_parallel(p.H, p.b)
    H, b = p.H[kept], p.b[kept]
    k = H.shape[0]
    if k <= 1:
        return kept
    slack, radius = _interior_slack(H, b)
    removed = np.zeros(k, dtype=bool)
    if radius > TOL.feas and (slack > 0.0).all():
        wide = _clarkson_rounds(H, slack, removed)
    else:
        wide = np.ones(k, dtype=bool)
    for i in np.flatnonzero(wide):
        rows = ~removed
        rows[i + 1 :] = True  # rows after i count as not yet removed
        rows[i] = False
        tested = np.append(np.flatnonzero(rows), i)
        trial_b = b[tested]
        trial_b[-1] += 1.0
        out = _solve_or_fault(H[i], H[tested], trial_b)
        removed[i] = (
            not isinstance(out, ComputationError)
            and out.status is LpStatus.OPTIMAL
            and out.value <= b[i] + TOL.feas
        )
    if removed.all():  # cannot happen for a bounded set; fail safe
        return kept
    return kept[~removed]


def _clarkson_rounds(H: np.ndarray, slack: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """Clarkson's tests, in rounds, of the rows of ``{y | H y <= slack}``
    (every slack positive) against the facets found so far, read off the
    vertices of those facets (:class:`_Description`).

    Marks redundant rows in ``removed`` and returns the mask of rows that
    need the all-rows test: tied ray hits, maxima within ``_DD_MARGIN`` of
    the verdict, and every row found redundant when the final description
    is not a polytope whose every facet meets ``n`` vertices.
    """
    k, n = H.shape
    known = np.zeros(k, dtype=bool)
    first, clear = _first_hits(H, H, slack, removed)  # rays along the row normals
    known[first[clear]] = True
    wide = np.zeros(k, dtype=bool)
    if known.all():  # every row is a facet, as on most C-set shadows: nothing to build
        return wide
    dd, rows = _Description(n), np.concatenate((H, -slack[:, None]), axis=1)
    for j in np.flatnonzero(known):
        dd.insert(rows[j])
    while True:
        todo = np.flatnonzero(~(known | removed | wide))
        if todo.size == 0:
            break
        values, directions = dd.maxima(H[todo])
        gap = values - (slack[todo] + TOL.feas)
        redundant, beaten = gap < -_DD_MARGIN, gap > _DD_MARGIN
        removed[todo[redundant]] = True
        wide[todo[~(redundant | beaten)]] = True
        beaten = np.flatnonzero(beaten)
        if beaten.size == 0:
            continue
        # the ray toward the best vertex (or along an unbounded ray) leaves the set early
        first, clear = _first_hits(directions[beaten], H, slack, removed)
        found = np.zeros(k, dtype=bool)  # facets found in this round
        for i, hit, ok in zip(todo[beaten], first, clear):
            if ok and not known[hit]:
                known[hit] = found[hit] = True
                dd.insert(rows[hit])
            elif not (ok and found[hit]):
                wide[i] = True
    if not dd.is_polytope():
        wide |= removed
        removed[:] = False
    return wide


# A generator lies on a hyperplane when |a . g| <= _DD_TIGHT |a|, g of unit norm.
_DD_TIGHT = 1e-10
# A maximum this close to a row's verdict threshold ``slack + feas`` is decided by LP.
_DD_MARGIN = 1e-11


class _Description:
    """Incremental double description (Motzkin et al. 1953; Fukuda and
    Prodon 1996) of ``{y | H_F y <= s_F}``, every ``s_F`` positive, as the
    cone ``{(y, t) | H_F y <= s_F t, t >= 0}``: unit extreme rays ``rays``,
    a lineality basis ``lines`` (whose ``t`` is 0), and the 0/1 incidence
    ``tight`` of each ray on ``t >= 0`` (column 0), then on each inserted
    row. A ray with ``t > 0`` is the vertex ``y / t``; ``t`` is exactly 0
    on recession rays, which only combine rays and lines with ``t = 0``.
    """

    __slots__ = ("rays", "lines", "tight")

    def __init__(self, n: int):
        self.rays = np.eye(1, n + 1, n)  # the origin, with all of R^n as lineality
        self.lines = np.eye(n, n + 1)
        self.tight = np.zeros((1, 1))

    def insert(self, a: np.ndarray) -> None:
        """Add the row ``a . (y, t) <= 0``, that is ``h y <= s`` for ``a = (h, -s)``."""
        tol = _DD_TIGHT * math.hypot(1.0, a[-1])
        if len(self.lines):
            la = self.lines @ a
            j = np.abs(la).argmax()
            if abs(la[j]) > tol:  # the row cuts the lineality: one line becomes a ray
                line = self.lines[j]
                lines = np.delete(self.lines - np.outer(la / la[j], line), j, axis=0)
                rays = self.rays - np.outer(self.rays @ a / la[j], line)  # now on the row
                self.lines = lines / _row_norms(lines)[:, None]
                rays = np.concatenate((rays, -np.sign(la[j]) * line[None]))
                rays /= _row_norms(rays)[:, None]
                m, c = self.tight.shape
                tight = np.ones((m + 1, c + 1))  # the new ray lies on every row but this one
                tight[:m, :c] = self.tight
                tight[m, c] = 0.0
                self.rays, self.tight = rays, tight
                return
        R, Z = self.rays, self.tight
        w = R @ a
        cut = w > tol
        pos, neg = np.flatnonzero(cut), np.flatnonzero(w < -tol)
        Zp, Zn = Z[pos], Z[neg]
        # adjacent pairs: at least d - 2 common tight rows, held by no third ray
        p, q = np.nonzero(Zp @ Zn.T >= R.shape[1] - len(self.lines) - 2)
        common = Zp[p] * Zn[q]
        adjacent = np.count_nonzero(common @ Z.T == common.sum(axis=1)[:, None], axis=1) == 2
        p, q = pos[p[adjacent]], neg[q[adjacent]]
        new = w[p, None] * R[q] - w[q, None] * R[p]  # on the row
        keep = ~cut
        Z = np.concatenate((Z, (w >= -tol)[:, None]), axis=1)[keep]
        common = np.concatenate((common[adjacent], np.ones((len(p), 1))), axis=1)
        self.rays = np.concatenate((R[keep], new / _row_norms(new)[:, None]))
        self.tight = np.concatenate((Z, common))

    def maxima(self, H: np.ndarray):
        """Maximum of each row of ``H`` over the set (+inf when unbounded),
        and a direction toward it: the best vertex or an unbounded ray. Rows
        are read in blocks of ``_RAY_BLOCK``, which bounds the temporaries."""
        if len(H) > _RAY_BLOCK:
            blocks = [self.maxima(H[i : i + _RAY_BLOCK]) for i in range(0, len(H), _RAY_BLOCK)]
            return tuple(np.concatenate(parts) for parts in zip(*blocks))
        gens = np.vstack((self.rays, self.lines, -self.lines))
        t = gens[:, -1]
        dots = H @ gens[:, :-1].T
        values = np.divide(dots, t, out=np.where(dots > 0.0, np.inf, -np.inf), where=t > 0.0)
        best = values.argmax(axis=1)
        return values[np.arange(len(H)), best], gens[best, :-1]

    def is_polytope(self) -> bool:
        """Bounded, and every inserted row tight at ``n`` vertices or more."""
        n = self.rays.shape[1] - 1
        return (self.lines.size == 0 and (self.rays[:, -1] > 0.0).all()
                and (self.tight[:, 1:].sum(axis=0) >= n).all())


def _interior_slack(H: np.ndarray, b: np.ndarray):
    """Row slacks ``b - H c`` at a point ``c`` inside ``{x | H x <= b}``, and
    a lower bound on the clearance of ``c``.

    ``c`` is the origin, whose slacks are ``b`` itself, when every offset
    exceeds ``feas``; otherwise the Chebyshev centre, with the radius capped
    at 1 so unbounded sets stay bounded LPs.
    """
    n = H.shape[1]
    if (b > TOL.feas).all():
        return b, float(b.min())
    objective = np.zeros(n + 1)
    objective[n] = 1.0
    lower = np.full(n + 1, -np.inf)
    lower[n] = 0.0
    upper = np.full(n + 1, np.inf)
    upper[n] = 1.0
    out = solve_lp(
        LinearProgram(objective, np.hstack([H, np.ones((H.shape[0], 1))]), b, lower, upper)
    )
    if out.status is LpStatus.INFEASIBLE:
        raise EmptySetError("cannot reduce an empty polytope")
    return b - H @ out.x[:n], out.value


def _first_hits(directions: np.ndarray, H: np.ndarray, slack: np.ndarray, ignore: np.ndarray):
    """First row crossed by the ray from the interior point along each of
    ``directions``, and whether that crossing is clear.

    ``slack`` are the row slacks of the interior point. Rows in the mask
    ``ignore``, and rows with ``H_j . d <= 0``, are never crossed. The
    crossing is clear when the ray can violate the first row by more than
    ``10 feas`` before it reaches the next one, which makes that row a facet
    even under the ``feas`` redundancy test. Rays are traced in blocks of
    ``_RAY_BLOCK``, which bounds the temporary arrays.
    """
    if directions.shape[0] > _RAY_BLOCK:
        blocks = [
            _first_hits(directions[start : start + _RAY_BLOCK], H, slack, ignore)
            for start in range(0, directions.shape[0], _RAY_BLOCK)
        ]
        return tuple(np.concatenate(parts) for parts in zip(*blocks))
    dots = directions @ H.T
    dots[:, ignore] = 0.0
    t = np.divide(slack, dots, out=np.full(dots.shape, np.inf), where=dots > 0.0)
    rays = np.arange(t.shape[0])
    hit = t.argmin(axis=1)
    t_first = t[rays, hit]
    t[rays, hit] = np.inf
    return hit, dots[rays, hit] * (t.min(axis=1) - t_first) > 10.0 * TOL.feas


def _collapse_parallel(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Indices of the rows to keep, the tightest offset among rows sharing
    an identical normal, in lexicographic order of the normals."""
    order = np.lexsort(np.concatenate((b[None, :], H.T[::-1])))  # H columns first, offset last
    H = H[order]
    # equal normals are adjacent, and the first row of a run has the smallest offset
    keep = np.empty(b.size, dtype=bool)
    keep[0] = True
    (H[1:] != H[:-1]).any(axis=1, out=keep[1:])
    return order[keep]


def project(p: HPolytope, keep: int) -> HPolytope:
    """Orthogonal projection onto the first ``keep`` coordinates.

    Trailing coordinates are eliminated one at a time (Fourier-Motzkin), so
    the output is the exact shadow ``{x | exists y : (x, y) in p}`` whatever
    redundant rows each elimination carries. Redundancy removal runs after
    the last elimination, and after every other elimination whose rows would
    grow in number at the next one (with ``pos`` rows of positive and ``neg``
    of negative coefficient on the next coordinate, ``pos * neg > pos +
    neg``); otherwise the rows carry on with only parallel copies collapsed
    (Imbert, "Fourier's elimination: which to choose?", 1993). A skipped
    removal thus never lets the row count grow, and the facet cap keeps its
    meaning. An elimination can produce hundreds of rows of which a few
    dozen are facets; :func:`remove_redundancy` tests each row only against
    the facets found so far (Clarkson's algorithm), on their vertices.

    An elimination lists first the rows with a zero coefficient on the
    eliminated coordinate, in order, then, for each row ``i`` with a
    positive coefficient ``c_i``, in order, its combination ``-c_j * row_i +
    c_i * row_j`` with each row ``j`` of negative coefficient ``c_j``, in
    order; all combinations are formed as one array. Rows whose normal
    vanishes are dropped: one with an offset below ``-feas`` raises
    ``EmptySetError``, and no row left raises ``UnboundedSetError``.

    FM combines two unit rows with positive weights, and the combined
    normal is no longer than the sum of the weights, so no normalized
    offset falls below the smallest input offset. When every
    offset of ``p`` exceeds ``feas`` (the lift of C-sets), the origin thus
    serves as the interior point of every reduction with no LP. Otherwise
    each reduction's rows get a Chebyshev-centre LP, and flat intermediate
    sets fall back to testing each row against all rows.
    """
    if not 1 <= keep < p.dim:
        raise ValidationError(f"keep must be in [1, {p.dim - 1}]")
    cap = _facet_cap()
    H, b = p.H, p.b
    for col in range(p.dim - 1, keep - 1, -1):
        coeff = H[:, col]
        pos = coeff > _ZERO_ROW
        neg = coeff < -_ZERO_ROW
        zero = ~(pos | neg)
        c_pos = coeff[pos]
        c_neg = -coeff[neg]
        n_zero = np.count_nonzero(zero)
        n_new = n_zero + c_pos.size * c_neg.size
        if n_new > cap:
            raise FacetBudgetError(
                f"projection would create {n_new} facets (cap {cap}; set {_FACET_CAP_ENV})"
            )
        rows = np.concatenate((b[:, None], H[:, :col]), axis=1)  # offset, then kept coordinates
        new = np.empty((n_new, col + 1))
        new[:n_zero] = rows[zero]
        # row i * c_neg.size + j: c_neg[j] * (positive row i) + c_pos[i] * (negative row j)
        new[n_zero:] = (
            c_neg[None, :, None] * rows[pos, None] + c_pos[:, None, None] * rows[None, neg]
        ).reshape(-1, col + 1)
        norms = _row_norms(new[:, 1:])
        trivial = norms <= _ZERO_ROW
        if trivial.any():
            if (new[trivial, 0] < -TOL.feas).any():
                raise EmptySetError("projection input is empty")
            new, norms = new[~trivial], norms[~trivial]
        if norms.size == 0:
            raise UnboundedSetError("projection shadow is unconstrained")
        shadow = HPolytope._computed(new[:, 1:], new[:, 0], norms)
        H, b = shadow.H, shadow.b
        if col > keep:
            nxt = H[:, col - 1]
            n_pos = np.count_nonzero(nxt > _ZERO_ROW)
            n_neg = np.count_nonzero(nxt < -_ZERO_ROW)
            if n_pos * n_neg <= n_pos + n_neg:  # the next elimination cannot add rows
                kept = _collapse_parallel(H, b)
                H, b = H[kept], b[kept]
                continue
        shadow = remove_redundancy(shadow)
        H, b = shadow.H, shadow.b
    return HPolytope._computed(H, b)


def vertices(p: HPolytope) -> list[np.ndarray]:
    """All vertices of a C-set, in any dimension (other input goes through
    :func:`validate_cset`), each solved on its tight facets in the double
    description of :func:`remove_redundancy`'s facets: ``numpy.linalg.solve``
    on exactly ``n``, least squares on more. A description that is not
    bounded with every facet tight at ``n`` vertices, or a vertex whose
    facets have rank below ``n``, raises ``ComputationError``: a missed
    vertex would make :func:`outer_radius` too small."""
    if not isinstance(p, CSetPolytope):
        p = validate_cset(p)
    n, rows = p.dim, np.sort(_irredundant_rows(p))  # solved in the order of p's rows
    H, b = p.H[rows], p.b[rows]
    dd = _Description(n)
    for a in np.concatenate((H, -b[:, None]), axis=1):
        dd.insert(a)
    if not dd.is_polytope():
        raise ComputationError("the double description misses a vertex")
    tight = dd.tight[:, 1:] == 1.0
    simple = tight.sum(axis=1) == n
    on = np.nonzero(tight[simple])[1].reshape(-1, n)  # each simple vertex's facets, in order
    degenerate = [np.linalg.lstsq(H[t], b[t], rcond=None) for t in tight[~simple]]
    if (np.linalg.matrix_rank(H[on]) < n).any() or any(out[2] < n for out in degenerate):
        raise ComputationError("a vertex's tight facets do not span the space")
    return list(np.linalg.solve(H[on], b[on][..., None])[..., 0]) + [out[0] for out in degenerate]


def inradius_origin(p: CSetPolytope) -> float:
    """Radius of the largest origin-centered ball inside ``p``."""
    return float(np.min(p.b))


def outer_radius(p: CSetPolytope) -> float:
    """Circumscribed-ball radius around the origin: the largest vertex norm,
    exact in every dimension."""
    return float(max(np.linalg.norm(v) for v in vertices(p)))
