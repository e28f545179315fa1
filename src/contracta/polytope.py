"""H-representation polytope algebra.

A polytope is the solution set of ``H x <= b``. Facet rows are normalized to
unit Euclidean norm at construction, which makes radii and redundancy
thresholds scale-free. ``CSetPolytope`` marks a polytope that passed the
compact/origin-interior certification of :func:`validate_cset`; every set
consumed by the contraction machinery goes through that gate.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from .config import TOL
from .errors import (
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
from .lp import LinearProgram, LpStatus, solve_lp

_FACET_CAP_ENV = "CONTRACTA_MAX_FACETS"
_DEFAULT_FACET_CAP = 10000
_ZERO_ROW = 1e-12
_RAY_BLOCK = 256  # rows per block of the normal-ray table in remove_redundancy


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

    __slots__ = ("H", "b")

    def __init__(self, H, b):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        if H.ndim != 2 or H.shape[0] == 0 or H.shape[1] == 0:
            raise DimensionError("facet matrix must be a nonempty 2-D array")
        if H.shape[0] != b.size:
            raise DimensionError(f"{H.shape[0]} facets but {b.size} offsets")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(b))):
            raise ValidationError("nonfinite facet data")
        norms = np.sqrt(np.sum(H * H, axis=1))
        if np.any(norms <= _ZERO_ROW):
            raise ValidationError("all-zero facet row")
        self.H = H / norms[:, None]
        self.b = b / norms
        self.H.setflags(write=False)
        self.b.setflags(write=False)

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
    """Certify that ``p`` is compact with the origin in its interior."""
    probe = solve_lp(LinearProgram(np.zeros(p.dim), p.H, p.b))
    if probe.status is LpStatus.INFEASIBLE:
        raise EmptyInteriorError("polytope is empty")
    for i in range(p.dim):
        direction = np.zeros(p.dim)
        for sign in (1.0, -1.0):
            direction[i] = sign
            out = solve_lp(LinearProgram(direction, p.H, p.b))
            if out.status is LpStatus.UNBOUNDED:
                raise UnboundedSetError(f"unbounded in coordinate direction {i}")
    if np.any(p.b <= 0.0):
        raise OriginNotInteriorError("origin is not strictly interior")
    return CSetPolytope(p.H, p.b)


def support(p: HPolytope, direction) -> float:
    """Support value ``max a.x`` over the polytope."""
    a = np.asarray(direction, dtype=float).ravel()
    if a.size != p.dim:
        raise DimensionError("direction dimension mismatch")
    out = solve_lp(LinearProgram(a, p.H, p.b))
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
    if inner.dim != outer.dim:
        raise DimensionError("inclusion test across different dimensions")
    for row, offset in zip(outer.H, outer.b):
        if support(inner, row) > offset + TOL.feas:
            return False
    return True


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
      whose LP also raises ``EmptySetError`` on empty input.
    * The ray from the interior point along each row normal marks the first
      row it crosses as a facet, with no LP.
    * When a row's LP optimum beats its offset, the ray from the interior
      point to the optimum marks the first row it crosses as a facet, and
      the row is tested again unless it was that row.

    A ray hit counts only when the next row lies more than ``10 feas`` of
    violation behind it. On a tied hit, and for every row of a set whose
    Chebyshev radius is at most ``feas`` (a flat set), the row is tested
    against all rows not yet removed instead. The kept rows are thus those
    of testing every row, in order, against all rows not yet removed.
    """
    H, b = _collapse_parallel(p.H, p.b)
    k = H.shape[0]
    if k <= 1:
        return HPolytope(H, b)
    center, radius = _interior_point(H, b)
    slack = b - H @ center
    flat = radius <= TOL.feas
    known = np.zeros(k, dtype=bool) if flat else _normal_ray_facets(H, slack)
    removed = np.zeros(k, dtype=bool)
    for i in range(k):
        wide = flat
        while not known[i]:
            rows = ~removed if wide else known.copy()
            rows[i] = False
            tested = np.append(np.flatnonzero(rows), i)
            trial_b = b[tested]
            trial_b[-1] += 1.0
            out = solve_lp(LinearProgram(H[i], H[tested], trial_b))
            if out.status is LpStatus.OPTIMAL and out.value <= b[i] + TOL.feas:
                removed[i] = True
                break
            if wide:
                known[i] = True
                break
            # the test set holds the interior point and caps row i: the LP is optimal
            dots = H @ (out.x - center)
            dots[removed] = 0.0
            first, clear = _first_hits(dots[None, :], slack)
            if clear[0] and not known[first[0]]:  # each retest adds a facet
                known[first[0]] = True
            else:
                wide = True
    if np.all(removed):  # cannot happen for a bounded set; fail safe
        return HPolytope(H, b)
    return HPolytope(H[~removed], b[~removed])


def _interior_point(H: np.ndarray, b: np.ndarray):
    """A point inside ``{x | H x <= b}`` and a lower bound on its clearance.

    The origin when every offset exceeds ``feas``; otherwise the Chebyshev
    centre, with the radius capped at 1 so unbounded sets stay bounded LPs.
    """
    n = H.shape[1]
    if np.all(b > TOL.feas):
        return np.zeros(n), float(np.min(b))
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
    return out.x[:n], out.value


def _normal_ray_facets(H: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Mask of the rows crossed first, clear of ties, by the rays from the
    interior point along each row normal (``slack`` are its row slacks)."""
    known = np.zeros(H.shape[0], dtype=bool)
    for start in range(0, H.shape[0], _RAY_BLOCK):
        first, clear = _first_hits(H[start : start + _RAY_BLOCK] @ H.T, slack)
        known[first[clear]] = True
    return known


def _first_hits(dots: np.ndarray, slack: np.ndarray):
    """First row crossed by each ray, and whether that crossing is clear.

    Ray ``r`` leaves a point with row slacks ``slack`` along a direction
    ``d`` with ``dots[r, j] = H_j . d``; rows with ``dots <= 0`` are never
    crossed. The crossing is clear when the ray can violate the first row
    by more than ``10 feas`` before it reaches the next one, which makes
    that row a facet even under the ``feas`` redundancy test.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(dots > 0.0, slack / dots, np.inf)
    rays = np.arange(t.shape[0])
    first = np.argmin(t, axis=1)
    t_first = t[rays, first]
    t[rays, first] = np.inf
    gap = dots[rays, first] * (np.min(t, axis=1) - t_first)
    return first, gap > 10.0 * TOL.feas


def _collapse_parallel(H: np.ndarray, b: np.ndarray):
    """Keep only the tightest offset among facets sharing an identical normal."""
    keys = np.vstack([b[None, :], H.T[::-1]])  # lexsort: H columns first, offset last
    order = np.lexsort(keys)
    H, b = H[order], b[order]
    # equal normals are adjacent, and the first row of a run has the smallest offset
    keep = np.concatenate([[True], np.any(H[1:] != H[:-1], axis=1)])
    return H[keep], b[keep]


def project(p: HPolytope, keep: int) -> HPolytope:
    """Orthogonal projection onto the first ``keep`` coordinates.

    Trailing coordinates are eliminated one at a time (Fourier-Motzkin) with
    redundancy removal after each elimination, so the output is the exact
    shadow ``{x | exists y : (x, y) in p}``. An elimination can produce
    hundreds of rows of which a few dozen are facets; :func:`remove_redundancy`
    tests each row only against the facets found so far (Clarkson's
    algorithm). FM combines two unit rows with positive weights, and the
    combined normal is no longer than the sum of the weights, so no
    normalized offset falls below the smallest input offset. When every
    offset of ``p`` exceeds ``feas`` (the lift of C-sets), the origin thus
    serves as the interior point of every elimination with no LP.
    Otherwise each elimination's rows get a Chebyshev-centre LP, and flat
    intermediate sets fall back to testing each row against all rows.
    """
    if not 1 <= keep < p.dim:
        raise ValidationError(f"keep must be in [1, {p.dim - 1}]")
    cap = _facet_cap()
    H, b = p.H, p.b
    for col in range(p.dim - 1, keep - 1, -1):
        coeff = H[:, col]
        pos = np.flatnonzero(coeff > _ZERO_ROW)
        neg = np.flatnonzero(coeff < -_ZERO_ROW)
        zero = np.flatnonzero(np.abs(coeff) <= _ZERO_ROW)
        n_new = zero.size + pos.size * neg.size
        if n_new > cap:
            raise FacetBudgetError(
                f"projection would create {n_new} facets (cap {cap}; set {_FACET_CAP_ENV})"
            )
        rows = [np.hstack([H[zero][:, :col], b[zero][:, None]])]
        for ip in pos:
            cp = coeff[ip]
            combo_H = (-coeff[neg])[:, None] * H[ip, :col][None, :] + cp * H[neg][:, :col]
            combo_b = (-coeff[neg]) * b[ip] + cp * b[neg]
            rows.append(np.hstack([combo_H, combo_b[:, None]]))
        stacked = np.vstack(rows) if rows else np.zeros((0, col + 1))
        H, b = stacked[:, :col], stacked[:, col]
        norms = np.sqrt(np.sum(H * H, axis=1))
        trivial = norms <= _ZERO_ROW
        if np.any(b[trivial] < -TOL.feas):
            raise EmptySetError("projection input is empty")
        H, b = H[~trivial], b[~trivial]
        if H.shape[0] == 0:
            raise UnboundedSetError("projection shadow is unconstrained")
        reduced = remove_redundancy(HPolytope(H, b))
        H, b = reduced.H, reduced.b
    return HPolytope(H, b)


def vertices(p: HPolytope) -> list[np.ndarray]:
    """All vertices of a bounded polytope of dimension at most 4."""
    n = p.dim
    if n > 4:
        raise UnsupportedDimensionError("vertex enumeration limited to dimension <= 4")
    if not isinstance(p, CSetPolytope):
        for i in range(n):
            direction = np.zeros(n)
            for sign in (1.0, -1.0):
                direction[i] = sign
                if solve_lp(LinearProgram(direction, p.H, p.b)).status is LpStatus.UNBOUNDED:
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
    total = 0.0
    for i in range(p.dim):
        direction = np.zeros(p.dim)
        direction[i] = 1.0
        hi = support(p, direction)
        direction[i] = -1.0
        lo = support(p, direction)
        total += max(hi, lo) ** 2
    return float(np.sqrt(total))
