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
support LP outcomes by direction and by the LP tolerances in force; an
outcome is what any re-solve would give, so memo writes are idempotent and a
polytope is safe to share across threads. Construction renormalizes rows, so
no memo passes to another polytope, not even one built from the same rows.
"""

from __future__ import annotations

import itertools
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
    UnsupportedDimensionError,
    ValidationError,
)
from .lp import LinearProgram, LpStatus, solve_lp, solve_lp_batch

_FACET_CAP_ENV = "CONTRACTA_MAX_FACETS"
_DEFAULT_FACET_CAP = 10000
_ZERO_ROW = 1e-12
_RAY_BLOCK = 256  # rays per block in _first_hits


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
        probe = _support_lps(p, np.zeros((1, p.dim)))[0]
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
    outcomes = _support_lps(p, np.concatenate((eye, -eye)))
    unbounded = [out.status is LpStatus.UNBOUNDED for out in outcomes]
    axes = np.flatnonzero(np.logical_or(unbounded[: p.dim], unbounded[p.dim :]))
    return int(axes[0]) if axes.size else None


def support(p: HPolytope, direction) -> float:
    """Support value ``max a.x`` over the polytope."""
    a = np.asarray(direction, dtype=float).ravel()
    if a.size != p.dim:
        raise DimensionError("direction dimension mismatch")
    return _support_value(_support_lps(p, a[None, :])[0])


def support_many(p: HPolytope, directions) -> np.ndarray:
    """Support values of ``p`` along each row of ``directions``.

    Equal to :func:`support` per row, and raises its error for the first
    row whose LP is unbounded or infeasible; LPs not in the memo run as one
    batch.
    """
    return np.array([_support_value(out) for out in _support_lps(p, directions)])


def _support_lps(p: HPolytope, directions) -> list:
    """Support LP outcomes of ``p`` along each row of ``directions``, from
    ``p``'s memo; the new directions are solved once each, in one batch.
    Optimal points are read-only, as callers hand them out as witnesses."""
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != p.dim:
        raise DimensionError("direction dimension mismatch")
    tol = (TOL.feas, TOL.opt, TOL.pivot)
    keys = [tol + (d.tobytes(),) for d in directions]
    memo = p._memo
    todo = {key: i for i, key in enumerate(keys) if key not in memo}  # a row per new key
    for key, out in zip(todo, solve_lp_batch(directions[list(todo.values())], p.H, p.b)):
        if out.x is not None:
            out.x.setflags(write=False)
        memo[key] = out
    return [memo[key] for key in keys]


def _support_value(out) -> float:
    if out.status is LpStatus.UNBOUNDED:
        raise UnboundedDirectionError("support is unbounded in this direction")
    if out.status is LpStatus.INFEASIBLE:
        raise EmptySetError("support of an empty polytope")
    return out.value


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
    unbounded or infeasible support LP before the first exceeded facet
    raises as :func:`support` does.
    """
    if inner.dim != outer.dim:
        raise DimensionError("inclusion test across different dimensions")
    for out, offset in zip(_support_lps(inner, outer.H), outer.b):
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
    the rows already known to be facets, so each LP has |facets| + 1 rows
    instead of one row per input row:

    * The interior point is the origin when every offset exceeds ``feas``,
      as for C-sets and their Fourier-Motzkin shadows; such input is
      nonempty, so no LP is needed. Otherwise it is the Chebyshev centre,
      whose LP also raises ``EmptySetError`` on empty input. The tests run
      in coordinates centred on it, so every offset is positive.
    * The ray from the interior point along each row normal marks the first
      row it crosses as a facet, with no LP.
    * The tests run in rounds. A round tests every undecided row against
      the facets known at its start, as one batch of LPs. When a row's LP
      optimum beats its offset, the ray from the interior point to the
      optimum marks the first row it crosses as a facet; the row is tested
      again next round unless it was that row. The rays of one round are
      traced together, in row order, and a row whose ray hits a facet found
      earlier in the same round is also tested again next round.

    A ray hit counts only when the next row lies more than ``10 feas`` of
    violation behind it. After a tied hit, and for every row of a set whose
    Chebyshev radius is at most ``feas`` (a flat set), the row is instead
    tested against all rows except those removed before it, one row at a
    time in order. The kept rows are thus those of testing every row, in
    order, against all rows not yet removed.

    A row whose test LP faults (``solve_lp`` raises ``ComputationError``, as
    on near-parallel rows 1e-9 apart) is kept, which never changes the set;
    it does not count as a known facet. The outcomes of the other LPs are
    those they have without the fault.
    """
    H, b = _collapse_parallel(p.H, p.b)
    k = H.shape[0]
    if k <= 1:
        return HPolytope._computed(H, b)
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
        out = _solve_or_none(H[i], H[tested], trial_b)
        removed[i] = (
            out is not None and out.status is LpStatus.OPTIMAL and out.value <= b[i] + TOL.feas
        )
    if removed.all():  # cannot happen for a bounded set; fail safe
        return HPolytope._computed(H, b)
    return HPolytope._computed(H[~removed], b[~removed])


def _clarkson_rounds(H: np.ndarray, slack: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """Clarkson's tests, in rounds, of the rows of ``{y | H y <= slack}``
    (every slack positive) against the facets found so far.

    Marks redundant rows in ``removed`` and returns the mask of rows whose
    ray hit was tied, which need the all-rows test. A row whose test LP
    faults is kept, but not as a known facet.
    """
    k, n = H.shape
    known = np.zeros(k, dtype=bool)
    first, clear = _first_hits(H, H, slack, removed)  # rays along the row normals
    known[first[clear]] = True
    wide = np.zeros(k, dtype=bool)
    if known.all():  # every row is a facet, as on most C-set shadows: no LP
        return wide
    faulted = np.zeros(k, dtype=bool)
    while True:
        todo = np.flatnonzero(~(known | removed | wide | faulted))
        if todo.size == 0:
            return wide
        facets = np.flatnonzero(known)
        A = np.empty((todo.size, facets.size + 1, n))
        A[:, :-1] = H[facets]
        A[:, -1] = H[todo]
        rhs = np.empty((todo.size, facets.size + 1))
        rhs[:, :-1] = slack[facets]
        rhs[:, -1] = slack[todo] + 1.0
        # the test set holds the interior point and caps the row: every LP is optimal
        outs = _test_lps(H[todo], A, rhs)
        lost = np.array([out is None for out in outs])
        faulted[todo[lost]] = True
        values = np.array([np.inf if out is None else out.value for out in outs])
        redundant = values <= slack[todo] + TOL.feas
        removed[todo[redundant]] = True
        beaten = np.flatnonzero(~(redundant | lost))
        if beaten.size == 0:
            continue
        first, clear = _first_hits(np.array([outs[j].x for j in beaten]), H, slack, removed)
        found = np.zeros(k, dtype=bool)  # facets found in this round
        for i, hit, ok in zip(todo[beaten], first, clear):
            if ok and not known[hit]:
                known[hit] = found[hit] = True
            elif not (ok and found[hit]):
                wide[i] = True


def _test_lps(C: np.ndarray, A: np.ndarray, b: np.ndarray) -> list:
    """``solve_lp_batch(C, A, b)``, with None for each LP that faults
    (raises ``ComputationError``). A fault aborts the whole batch, so the LPs
    are then solved one at a time; the others keep their bits."""
    try:
        return solve_lp_batch(C, A, b)
    except ComputationError:
        return [_solve_or_none(c, a, r) for c, a, r in zip(C, A, b)]


def _solve_or_none(c: np.ndarray, A: np.ndarray, b: np.ndarray):
    """``solve_lp`` outcome of ``max c.x`` over ``A x <= b``, or None when it faults."""
    try:
        return solve_lp(LinearProgram(c, A, b))
    except ComputationError:
        return None


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


def _collapse_parallel(H: np.ndarray, b: np.ndarray):
    """Keep only the tightest offset among facets sharing an identical normal."""
    keys = np.concatenate((b[None, :], H.T[::-1]))  # lexsort: H columns first, offset last
    order = np.lexsort(keys)
    H, b = H[order], b[order]
    # equal normals are adjacent, and the first row of a run has the smallest offset
    keep = np.empty(b.size, dtype=bool)
    keep[0] = True
    (H[1:] != H[:-1]).any(axis=1, out=keep[1:])
    return H[keep], b[keep]


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
    the facets found so far (Clarkson's algorithm).

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
                H, b = _collapse_parallel(H, b)
                continue
        shadow = remove_redundancy(shadow)
        H, b = shadow.H, shadow.b
    return HPolytope._computed(H, b)


def vertices(p: HPolytope) -> list[np.ndarray]:
    """All vertices of a bounded polytope of dimension at most 4."""
    n = p.dim
    if n > 4:
        raise UnsupportedDimensionError("vertex enumeration limited to dimension <= 4")
    if not isinstance(p, CSetPolytope) and _unbounded_axis(p) is not None:
        raise UnboundedSetError("cannot enumerate vertices of an unbounded set")
    found: list[np.ndarray] = []
    for idx in itertools.combinations(range(p.nfacets), n):
        sub = p.H[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, p.b[list(idx)])
        if not np.all(p.H @ v <= p.b + TOL.feas):
            continue
        if any(np.max(np.abs(v - u)) <= 1e-8 for u in found):
            continue
        found.append(v)
    return found


def inradius_origin(p: CSetPolytope) -> float:
    """Radius of the largest origin-centered ball inside ``p``."""
    return float(np.min(p.b))


def outer_radius(p: CSetPolytope) -> float:
    """A circumscribed-ball radius around the origin.

    Exact (max vertex norm) up to dimension 4. In higher dimension falls back
    to the bounding-box bound ``sqrt(sum_i max(support(e_i), support(-e_i))^2)``,
    which may overestimate; any overestimate keeps downstream contraction
    factors valid, merely more conservative.
    """
    if p.dim <= 4:
        verts = vertices(p)
        return float(max(np.linalg.norm(v) for v in verts))
    eye = np.eye(p.dim)
    extents = support_many(p, np.concatenate((eye, -eye))).tolist()
    total = 0.0
    for hi, lo in zip(extents[: p.dim], extents[p.dim :]):
        total += max(hi, lo) ** 2
    return float(np.sqrt(total))
