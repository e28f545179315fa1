"""H-representation polytope algebra.

A polytope is the solution set of ``H x <= b``. Facet rows are normalized to
unit Euclidean norm at construction, which makes radii and redundancy
thresholds scale-free. ``CSetPolytope`` marks a polytope that passed the
compact/origin-interior certification of :func:`validate_cset`, which every
input set passes; ``one_step_set`` builds its shadows as C-sets by proof.

The constructor checks its input: a nonempty 2-D facet matrix with one
offset per row (``DimensionError``), finite entries, no zero row and no row
whose norm overflows (``ValidationError``). Data from outside go through it:
user and scenario polytopes, :func:`box` and the cross-polytope seeds. Rows
are divided by their norms where they are made, and nowhere else: in the
constructor, in ``one_step_set``'s lift (only its rows ``H_D [A B]``) and
in each Fourier-Motzkin elimination of :func:`project`, which also divides
again the rows it passes through. A made row of norm at most ``_ZERO_ROW``
has no normal; :func:`project` alone drops it, the lift's included.
:func:`intersect`, :func:`scale`, :func:`validate_cset`,
:func:`remove_redundancy`, :func:`project`'s output and ``one_step_set``'s
C-set keep the unit rows they are given, bit for bit (``HPolytope._computed``).

Facet data are immutable after construction. Each polytope memoizes its
support LP outcomes by the LP tolerances in force and then by direction
(its zeros as ``+0``). A memo is made on the polytope's first query under
those tolerances, holding the outcome along the normal of each certified
facet, a row that its own normal ray from the origin crosses first,
clearly: the facet's offset, exact, at a point of the set on the facet,
with no LP (:func:`_facet_supports`); validated boxes and reduced sets that
ran no redundancy round are born with it. Along any other direction, a set that
carries its vertices answers with the largest ``d . v`` over them, at that
vertex, and no LP: :func:`remove_redundancy` keeps their incidence on its
rows when its double description of the output is complete, the vertices
are solved when first read (:func:`_vertex_list`), and :func:`project`'s
output and ``one_step_set``'s C-set carry both on. The incidence stays
beside the vertices: with a box U, ``one_step_set`` reads it to combine
only the facets that may be adjacent, of the target and of each segment
sum it makes from it (:func:`_adjacent_facets`, :func:`_eliminate`), and
to seed its own set's description with the vertices it carries through
the sums (:meth:`_Description._of_polytope`, :meth:`_Description.facets`).
:func:`validate_cset` gives a box its vertices in closed form, with no
incidence (:func:`_box_bounds`). Any other set's outcome is the
simplex's, a fault (``ComputationError``) included, one LP per direction
(:func:`_support_lps`). An outcome depends only on the polytope's bits,
the vertex list it carries from its making, the direction's bits and the
tolerances, so memo writes are idempotent, equal bits carry equal outcomes
however a polytope was queried (and, with no vertex list, however it was
built), and a polytope is safe to share across threads. A fault raises
where it is read (:func:`_checked`). :func:`validate_cset` shares its
input's arrays, memo and vertex list.
A system's one-step memo is keyed by bits: a target with an earlier
target's bits gets that target's one-step set, memo included, which is the
earlier target itself when they are equal.

Redundancy removal tests each row against the facets found so far by
reading its maximum off their vertices, which an incremental double
description keeps as facets are found; a ray whose first crossing ties is
settled by inserting the tied rows, and only rows this cannot decide with a
clear margin, and flat sets, take an LP (:func:`remove_redundancy`).
:func:`vertices` reads the vertex list a set carries, or else the same
description, in any dimension. A description's incidence is bounded by the
square of the facet cap (``FacetBudgetError``).
"""

from __future__ import annotations

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
from .lp import LinearProgram, LpOutcome, LpStatus, _solve_or_fault, solve_lp

_FACET_CAP_ENV = "CONTRACTA_MAX_FACETS"
_DEFAULT_FACET_CAP = 10000
_ZERO_ROW = 1e-12
_NEGATIVE_ZERO = np.float64(-0.0).tobytes()
_RAY_BLOCK = 256  # rays per block in _first_hits, rows in _Description.maxima
_PAIR_CELLS = 2**16  # largest pair-by-ray product of one adjacency test in _Description.insert
_SHARED_CELLS = 2**20  # largest block of common-row counts in _Description.insert
_MIN_CELLS = 2**20  # incidence cells a double description may always hold, whatever the cap
_BOX_DIM = 10  # the largest box that validate_cset gives its 2**n vertices


def _check_facets(count: int, cap: int, what: str) -> None:
    """Raise ``FacetBudgetError`` when ``what`` would have more facets than ``cap``."""
    if count > cap:
        message = f"{what} would create {count} facets (cap {cap}; set {_FACET_CAP_ENV})"
        raise FacetBudgetError(message)


def _facet_cap() -> int:
    raw = os.environ.get(_FACET_CAP_ENV, str(_DEFAULT_FACET_CAP))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValidationError(f"{_FACET_CAP_ENV} must be a positive integer, not {raw!r}")
    return cap


def _description_cells() -> int:
    """The incidence cells a double description may hold (:class:`_Description`)."""
    return max(_facet_cap() ** 2, _MIN_CELLS)


def _check_cells(rays: int, columns: int) -> None:
    """Raise ``FacetBudgetError`` when a double description of ``rays``
    rays by ``columns`` incidence columns would pass its budget; the facet
    cap is read only past ``_MIN_CELLS``."""
    if rays * columns > _MIN_CELLS and rays * columns > (cells := _description_cells()):
        raise FacetBudgetError(
            f"a double description would hold {rays} rays by {columns} rows "
            f"(cap {cells} from the facet cap; set {_FACET_CAP_ENV})"
        )


class HPolytope:
    """Inequality-form polytope ``{x | H x <= b}`` with unit facet normals."""

    __slots__ = ("H", "b", "_memo", "_incidence", "_vertices")

    def __init__(self, H, b):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        if H.ndim != 2 or H.shape[0] == 0 or H.shape[1] == 0:
            raise DimensionError("facet matrix must be a nonempty 2-D array")
        if H.shape[0] != b.size:
            raise DimensionError(f"{H.shape[0]} facets but {b.size} offsets")
        if not (np.isfinite(H).all() and np.isfinite(b).all()):
            raise ValidationError("nonfinite facet data")
        norms = _finite_norms(H)
        if (norms <= _ZERO_ROW).any():
            raise ValidationError("all-zero facet row")
        self._set_rows(H / norms[:, None], b / norms, {})

    @classmethod
    def _computed(cls, H: np.ndarray, b: np.ndarray, memo: dict | None = None,
                  incidence: np.ndarray | None = None, vertices: np.ndarray | None = None):
        """A polytope on unit rows computed from checked ones (nonempty,
        finite, matching offsets), taken as they are: no check, no division.
        ``one_step_set``'s lift may also hold rows of norm at most
        ``_ZERO_ROW``, for :func:`project` to drop. A ``memo`` is that of a
        polytope with these bits and this ``incidence``, shared; the
        ``incidence`` of the set's vertices on its rows is that of
        :func:`remove_redundancy`'s complete description, and ``vertices``
        the points solved from it (:func:`_vertex_list`), which answer its
        supports."""
        p = cls.__new__(cls)
        p._set_rows(H, b, {} if memo is None else memo, incidence, vertices)
        return p

    def _set_rows(self, H: np.ndarray, b: np.ndarray, memo: dict,
                  incidence: np.ndarray | None = None,
                  vertices: np.ndarray | None = None) -> None:
        H.setflags(write=False)
        b.setflags(write=False)
        self.H, self.b, self._memo = H, b, memo  # the memo of support LPs, see _support_lps
        self._incidence, self._vertices = incidence, vertices  # see _vertex_list

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


def _finite_norms(H: np.ndarray) -> np.ndarray:
    """:func:`_row_norms`, raising ``ValidationError`` on a norm that is not
    finite (entries from about 1e154 on overflow it): dividing by it would
    turn the row into a zero row and delete it."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _row_norms(H)
    if not np.isfinite(norms).all():
        raise ValidationError("a facet row's norm overflows")
    return norms


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
    needed; the 2n coordinate LPs then test boundedness.
    A coordinate direction that is the normal of a certified facet, as on
    a box, is a memo entry with no LP (:func:`_facet_supports`). The C-set
    shares ``p``'s ``H`` and ``b`` arrays, its memo and its vertex list.
    A box (:func:`_box_bounds`) of at most ``_BOX_DIM`` dimensions with
    positive offsets that carries neither a vertex list nor an incidence is
    a C-set by its form, certified with no query; it gets instead its 2^n
    vertices in closed form, read-only, and no incidence: one per sign
    pattern, each coordinate the bound its sign picks, the bits that
    solving the pattern's n rows gives (:func:`vertices`). It is born with
    a memo of its own holding its 2n certified facets, since each row's own
    ray crosses it alone; its vertices answer the other directions.
    """
    interior = bool(np.all(p.b > 0.0))
    if interior and p._vertices is None and p._incidence is None and p.dim <= _BOX_DIM:
        bounds = _box_bounds(p)
        if bounds is not None:  # bounded by its form, the origin inside: no ray to trace
            upper = (np.arange(1 << p.dim)[:, None] >> np.arange(p.dim)) & 1
            points = np.where(upper == 1, bounds[1], bounds[0])
            points.setflags(write=False)
            q = CSetPolytope._computed(p.H, p.b, vertices=points)
            _memo(q, np.ones(p.nfacets, dtype=bool))  # each row's own ray crosses it alone
            return q
    if not interior:
        probe = _checked(_support_lps(p, np.zeros((1, p.dim)))[0])
        if probe.status is LpStatus.INFEASIBLE:
            raise EmptyInteriorError("polytope is empty")
    axis = _unbounded_axis(p)
    if axis is not None:
        raise UnboundedSetError(f"unbounded in coordinate direction {axis}")
    if not interior:
        raise OriginNotInteriorError("origin is not strictly interior")
    return CSetPolytope._computed(p.H, p.b, p._memo, p._incidence, p._vertices)  # the same outcomes


def _box_bounds(p: HPolytope) -> tuple[np.ndarray, np.ndarray] | None:
    """The lower and upper bound of each coordinate of ``p`` when its rows
    are a box's, else None: 2n unit rows, each a signed coordinate vector,
    one row per sign and axis."""
    H, n = p.H, p.dim
    if H.shape[0] != 2 * n or np.count_nonzero(H) != 2 * n:
        return None
    rows = np.arange(2 * n)
    axis = np.abs(H).argmax(axis=1)
    sign = H[rows, axis]
    slot = axis + n * (sign < 0.0)
    if not ((np.abs(sign) == 1.0).all() and (np.sort(slot) == rows).all()):
        return None
    bounds = np.empty(2 * n)
    bounds[slot] = sign * p.b  # the upper bounds, then the lower ones
    return bounds[n:], bounds[:n]


def _unbounded_axis(p: HPolytope) -> int | None:
    """First coordinate along which ``p`` is unbounded, in either sign."""
    eye = np.eye(p.dim)
    outcomes = _support_lps(p, np.concatenate((eye, -eye)))
    unbounded = [_checked(out).status is LpStatus.UNBOUNDED for out in outcomes]
    axes = np.flatnonzero(np.logical_or(unbounded[: p.dim], unbounded[p.dim :]))
    return int(axes[0]) if axes.size else None


def support(p: HPolytope, direction) -> float:
    """Support value ``max a.x`` over the polytope."""
    a = np.asarray(direction, dtype=float).ravel()
    return _support_value(_support_lps(p, a[None, :])[0])  # which checks the dimension


def support_many(p: HPolytope, directions) -> np.ndarray:
    """Support values of ``p`` along each row of ``directions``.

    Equal to :func:`support` per row, and raises its error for the first
    row whose LP is unbounded, infeasible or faults; every LP not in the
    memo is solved first.
    """
    return _support_values(_support_lps(p, directions))


def _support_lps(p: HPolytope, directions) -> list:
    """Support LP outcomes of ``p`` along each row of ``directions``, from
    its memo.

    A memo is keyed by the LP tolerances in force, then by the direction's
    bytes (its zeros as ``+0``), sliced once from the directions' buffer.
    It starts with the supports along the polytope's certified facets, each
    its offset (:func:`_memo`). Along any other direction it holds, on a
    polytope that carries its vertices, the largest ``d . v`` over them, at
    that vertex (:func:`_vertex_supports`), and otherwise the simplex's
    outcome, each LP solved once, on its own (:func:`lp._solve_or_fault`).
    Every outcome is stored, a fault's ``ComputationError`` too, and none
    raises here: a reader raises it (:func:`_checked`). A fault is stored
    without its traceback, whose frames hold the simplex tableau. Optimal
    points are read-only, as callers hand them out as witnesses.
    """
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != p.dim:
        raise DimensionError("direction dimension mismatch")
    keys, memo = _row_keys(directions), _memo(p)
    todo = {key: i for i, key in enumerate(keys) if key not in memo}
    if todo:
        rows = directions[list(todo.values())]  # a row per new key
        points = _vertex_list(p)
        if points is not None:
            memo.update(zip(todo, _vertex_supports(points, rows)))
        else:
            for key, d in zip(todo, rows):
                out = _solve_or_fault(d, p.H, p.b)
                if isinstance(out, ComputationError):
                    out.__traceback__ = None
                elif out.x is not None:
                    out.x.setflags(write=False)
                memo[key] = out
    return [memo[key] for key in keys]


def _memo(p: HPolytope, facets: np.ndarray | None = None) -> dict:
    """``p``'s support memo under the LP tolerances in force, made when
    first asked for under them holding the supports along ``p``'s certified
    facets (:func:`_facet_supports`, given their mask ``facets`` if known):
    at birth for a validated box and some reduced sets, else on a query."""
    tol = (TOL.feas, TOL.opt, TOL.pivot)
    memo = p._memo.get(tol)
    if memo is None:
        memo = p._memo.setdefault(tol, _facet_supports(p.H, p.b, facets))
    return memo


def _row_keys(rows: np.ndarray) -> list:
    """The memo key of each row of a float array: its bytes with every zero
    made ``+0``, sliced once from the array's buffer. The sign of a zero
    entry of an objective decides no pivot and moves no bit of ``solve_lp``'s
    outcome, so directions that differ only there share their outcome."""
    raw, width = rows.tobytes(), 8 * rows.shape[1]
    if _NEGATIVE_ZERO in raw:  # a -0 entry, or bytes across two entries that match it
        raw = (rows + 0.0).tobytes()
    return [raw[i : i + width] for i in range(0, len(raw), width)]


def _facet_supports(H: np.ndarray, b: np.ndarray, facets: np.ndarray | None = None) -> dict:
    """The support outcomes of ``{x | H x <= b}`` along the normal ``h_i``
    of each certified facet, keyed as in its memo. When every offset
    exceeds ``feas``, a row that the ray from the origin along its own
    normal crosses first, clearly (:func:`_first_hits`), is a facet: its
    support is its offset ``b_i``, exactly, attained at the point ``b_i
    h_i`` of the set (``+ 0.0`` turns ``-0`` into the simplex's ``+0``, so
    an axis-aligned facet's outcome is ``solve_lp``'s, bit for bit). A
    caller that traced those rays already, under the tolerances in force,
    passes their verdict as the mask ``facets``."""
    if not (b > TOL.feas).all():
        return {}
    if facets is None:
        first, clear = _first_hits(H, H, b, np.zeros(len(b), dtype=bool))
        facets = clear & (first == np.arange(len(b)))
    H, b = H[facets], b[facets]
    points = b[:, None] * H + 0.0
    points.setflags(write=False)  # read-only, as every memoized optimal point
    return {
        key: LpOutcome(LpStatus.OPTIMAL, value, x)
        for key, value, x in zip(_row_keys(H), b.tolist(), points)
    }


def _vertex_list(p: HPolytope) -> np.ndarray | None:
    """The vertices of ``p``, one per row and read-only, or None when it
    carries none. A set that :func:`remove_redundancy` describes completely
    carries, from its making, the incidence of each vertex on its rows
    (booleans); the vertices are solved on their tight rows
    (:func:`_vertex_points`) when first read and kept beside it. When one's
    rows do not span the space there are none, and the incidence goes too:
    its description missed a vertex. A set that no support past its
    certified facets and no one-step set reads solves none; a one-step set
    built from its target's description, and a validated box
    (:func:`validate_cset`), carry their vertices from their making."""
    v, incidence = p._vertices, p._incidence
    if v is None and incidence is not None:
        v = _vertex_points(p.H, p.b, incidence)
        if v is None:
            p._incidence = None
        else:
            v.setflags(write=False)  # its rows are handed out as optimal points
            p._vertices = v  # the same points whichever thread solves them
    return v


def _adjacent_facets(p: HPolytope) -> np.ndarray | None:
    """Which pairs of ``p``'s facets may be adjacent, as a boolean matrix:
    those that share ``n - 1`` vertices or more of the incidence ``p``
    carries, or None when it carries none or its vertices do not solve
    (:func:`_vertex_list`). Adjacent
    facets meet in a face of dimension ``n - 2``, which holds ``n - 1``
    affinely independent vertices, so no adjacent pair is left out."""
    incidence = p._incidence
    if incidence is None or _vertex_list(p) is None:
        return None
    return _shared_counts(incidence) >= p.dim - 1


def _shared_counts(incidence: np.ndarray) -> np.ndarray:
    """How many vertices each pair of rows shares, as a square matrix over
    the columns of ``incidence`` (vertices by rows, booleans).

    Shared vertices are counted as integers: each vertex adds one to every
    pair of the rows it lies on, one ``bincount`` per count of tight rows,
    so the work grows with the vertices' tight pairs, not with the
    incidence's size."""
    k = incidence.shape[1]
    counts = incidence.sum(axis=1)
    shared = np.zeros(k * k, dtype=np.intp)
    for count in np.unique(counts[counts > 0]).tolist():
        on = np.nonzero(incidence[counts == count])[1].reshape(-1, count)
        shared += np.bincount((on[:, :, None] * k + on[:, None, :]).ravel(), minlength=k * k)
    return shared.reshape(k, k)


def _vertex_supports(points: np.ndarray, directions: np.ndarray) -> list:
    """The support outcomes along each of ``directions`` of the polytope
    whose vertices are the rows of ``points``: the largest ``d . v``, at
    that vertex (a read-only row of ``points``), with no LP."""
    values = directions @ points.T
    best = values.argmax(axis=1)
    return [
        LpOutcome(LpStatus.OPTIMAL, value, points[i])
        for value, i in zip(values[np.arange(len(best)), best].tolist(), best.tolist())
    ]


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
    if not np.isfinite(xi).all():
        raise ValidationError("radial direction must be finite")
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
    if not math.isfinite(float(mu) * float(np.abs(p.b).max())):  # the largest product
        raise ValidationError("nonfinite facet data")
    return type(p)._computed(p.H, mu * p.b)


def intersect(p: HPolytope, q: HPolytope) -> HPolytope:
    if p.dim != q.dim:
        raise DimensionError("intersection of polytopes of different dimension")
    return HPolytope._computed(np.vstack([p.H, q.H]), np.concatenate([p.b, q.b]))


def is_subset(inner: HPolytope, outer: HPolytope) -> bool:
    """Facet-wise inclusion test with feasibility slack on the inner side."""
    return _first_exceeded(inner, outer) is None


def _first_exceeded(inner: HPolytope, outer: HPolytope):
    """Support LP outcome of ``inner`` along the first facet of ``outer``
    that it exceeds by more than ``feas``, or None when ``inner`` lies in
    ``outer``.

    The facets are checked in order, every support solved first; an
    unbounded, infeasible or faulting support LP before the first exceeded
    facet raises as :func:`support` does.
    """
    if inner.dim != outer.dim:
        raise DimensionError("inclusion test across different dimensions")
    outcomes = _support_lps(inner, outer.H)
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
    * A ray hit is clear when the next row lies more than ``10 feas`` of
      violation behind it. On a tie, as through the degenerate vertices of
      a cross-polytope's shadows, each tied row whose maximum still beats
      its offset joins the description, last row first (of rows that differ
      by rounding, the all-rows test keeps the last), and the ray's row is
      tested again next round. After the rounds, a tied row is a facet when
      the ray toward the centroid of its vertices hits it clearly, with
      only the rows removed before it ignored; a tied row whose vertices
      span less than a facet is redundant among the facets, which drop it
      without changing the set.

    Some rows instead take the all-rows test, one LP against all rows
    except those removed before it, in order: those whose maximum lies
    within ``_DD_MARGIN`` of ``offset + feas``, those whose ray inserts no
    row, every row of a set whose Chebyshev radius is at most ``feas`` (a
    flat set), and, since a missed vertex could only make a row look
    redundant, every row found redundant and every tied row left unsettled
    when a tied row is neither confirmed nor dropped, or the final
    description is not bounded with each facet tight at ``n`` vertices or
    more. The kept rows are thus those of testing every row, in order,
    against all rows not yet removed. A row whose all-rows LP faults
    (``solve_lp`` raises ``ComputationError``, as on near-parallel rows
    1e-9 apart) is kept, which never changes the set.

    When the rounds end with the complete description of the output (a
    bounded one, each facet tight at ``n`` vertices or more, no row left to
    the all-rows test or unsettled) and the interior point is the origin,
    the output carries its vertices, which answer its supports
    (:func:`_support_lps`): each solved on its tight rows when first read
    (:func:`_vertex_list`), and none kept when a vertex's tight rows do not
    span the space. A ray's own quotient ``y / t`` is not kept: it can
    break a row of the set by more than ``feas``. When no round runs, the
    normal rays were the memo's, and the output is born with its memo.
    """
    keep, incidence, facets = _irredundant_rows(p)
    out = HPolytope._computed(p.H[keep], p.b[keep], incidence=incidence)
    if facets is not None:  # the ray pass traced the memo's rays
        _memo(out, facets)
    return out


def _irredundant_rows(p: HPolytope):
    """Indices of the rows of ``p`` that :func:`remove_redundancy` keeps, in
    its order; when the redundancy rounds end with the complete double
    description of the set they bound about the origin, the incidence of
    its vertices on the kept rows (vertices by rows, booleans; else None);
    and when no round runs, the mask of :func:`_facet_supports`' facets."""
    kept = _collapse_parallel(p.H, p.b)
    H, b = p.H[kept], p.b[kept]
    k = H.shape[0]
    if k <= 1:
        return kept, None, None
    slack, radius = _interior_slack(H, b)
    removed = np.zeros(k, dtype=bool)
    incidence = facets = None
    if radius > TOL.feas and (slack > 0.0).all():
        wide, dd, columns, facets = _clarkson_rounds(H, slack, removed)
        if dd is not None and (b > TOL.feas).all():  # the slacks are b: y is x
            incidence = np.zeros((len(dd.rays), k - np.count_nonzero(removed)), dtype=bool)
            incidence[:, (np.cumsum(~removed) - 1)[columns]] = dd.tight[:, 1:] == 1.0
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
        return kept, None, None
    return kept[~removed], incidence, facets


def _clarkson_rounds(H: np.ndarray, slack: np.ndarray, removed: np.ndarray):
    """Clarkson's tests, in rounds, of the rows of ``{y | H y <= slack}``
    (every slack positive) against the facets found so far, read off the
    vertices of those facets (:class:`_Description`).

    Marks redundant rows in ``removed`` and returns the mask of rows that
    need the all-rows test: maxima within ``_DD_MARGIN`` of the verdict,
    rays whose hit inserts no row, and, when the final description is not
    a polytope whose every facet meets ``n`` vertices or a row inserted on
    a tied hit stays unsettled (:func:`_settle`), every row found redundant
    and every unsettled row. With it come the final description and the
    row of each of its inserted columns when that mask is empty and the
    description complete (every row left is one of its facets), else None
    twice; and when no round runs, the mask of the rows that their own ray
    crosses first, clearly (:func:`_facet_supports`' verdict; else None).

    On a tied hit, each tied row that still beats the description is
    inserted (:func:`_beating`) as a facet to be settled after the rounds.
    The ray's row is tested again next round when its hit, or one of its
    tied rows, was inserted in this round.
    """
    k, n = H.shape
    known = np.zeros(k, dtype=bool)
    first, clear = _first_hits(H, H, slack, removed)  # rays along the row normals
    known[first[clear]] = True
    wide = np.zeros(k, dtype=bool)
    if known.all():  # every row is a facet, as on most C-set shadows: nothing to build
        return wide, None, None, clear & (first == np.arange(k))
    dd, rows = _Description(n), np.concatenate((H, -slack[:, None]), axis=1)
    order = list(np.flatnonzero(known))  # the inserted rows, in the order of dd's columns
    for j in order:
        dd.insert(rows[j])
    tied = np.zeros(k, dtype=bool)  # rows inserted on a tied hit
    while True:
        todo = np.flatnonzero(~(known | tied | removed | wide))
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
        found = np.zeros(k, dtype=bool)  # rows inserted in this round
        for i, direction, hit, ok in zip(todo[beaten], directions[beaten], first, clear):
            if ok and not (known[hit] or tied[hit]):
                known[hit] = found[hit] = True
                order.append(hit)
                dd.insert(rows[hit])
                continue
            hits = [hit]
            if not ok:
                hits = _tied_rows(direction, H, slack, removed)
                for j in _beating(dd, hits[~(known[hits] | tied[hits])], H, slack):
                    tied[j] = found[j] = True
                    order.append(j)
                    dd.insert(rows[j])
            if not found[hits].any():
                wide[i] = True
    unsettled = _settle(dd, order, tied, H, slack, removed) if tied.any() else tied
    if unsettled.any() or not dd.is_polytope():
        wide |= removed | unsettled
        removed[:] = False
    if wide.any():
        return wide, None, None, None
    return wide, dd, [j for j in order if not removed[j]], None  # _settle drops their columns


def _tied_rows(direction: np.ndarray, H: np.ndarray, slack: np.ndarray, ignore: np.ndarray):
    """The rows that the ray from the interior point along ``direction``
    crosses within ``10 feas`` of violation of its first crossing, which
    make that crossing unclear (:func:`_first_hits`), in row order."""
    dots = H @ direction
    dots[ignore] = 0.0
    t = np.divide(slack, dots, out=np.full(dots.shape, np.inf), where=dots > 0.0)
    hit = t.argmin()
    return np.flatnonzero(dots[hit] * (t - t[hit]) <= 10.0 * TOL.feas)


def _beating(dd: "_Description", candidates: np.ndarray, H: np.ndarray, slack: np.ndarray):
    """Yield, last row first, each of the rows ``candidates`` whose maximum
    over the description beats its verdict threshold by more than
    ``_DD_MARGIN`` when its turn comes; the caller inserts each row yielded.
    Inserts only shrink the set, so a row that does not beat it stays
    behind. Of rows that differ by rounding only, the last is inserted and
    the others no longer beat the set: the all-rows test, in order, also
    keeps the last of them."""
    candidates = candidates[::-1]
    while candidates.size:
        values, _ = dd.maxima(H[candidates])
        candidates = candidates[values - (slack[candidates] + TOL.feas) > _DD_MARGIN]
        if candidates.size:
            yield candidates[0]
            candidates = candidates[1:]


def _settle(dd: "_Description", order: list, tied: np.ndarray, H: np.ndarray,
            slack: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """Settle the rows in the mask ``tied``, inserted on tied hits, once the
    rounds are over; return the mask of those left unsettled.

    A row is a facet when the ray toward the centroid of the vertices that
    its column of ``dd`` marks tight hits it clearly (:func:`_first_hits`),
    ignoring only the removed rows before it, which the all-rows test, in
    order, has removed by then: the ray violates the row by more than ``10
    feas`` at a point that satisfies every other row present at that test,
    which so keeps it. A row whose tight rays have rank below ``n`` has a
    face that is not a facet, so it is redundant among the other rows of
    ``dd``: it is marked in ``removed`` and its column dropped, which leaves
    the set, its vertices and every verdict read off them unchanged.
    """
    n = H.shape[1]
    vertex = dd.rays[:, -1] > 0.0
    points = dd.rays[:, :-1] / np.where(vertex, dd.rays[:, -1], 1.0)[:, None]
    unsettled, lower = tied.copy(), []
    for c, j in enumerate(order, start=1):
        if not tied[j]:
            continue
        marks = dd.tight[:, c] == 1.0
        if marks.sum() < n or np.linalg.matrix_rank(dd.rays[marks]) < n:
            lower.append(c)
            unsettled[j], removed[j] = False, True
        elif vertex[marks].all():
            ignore = removed.copy()
            ignore[j:] = False
            hit, clear = _first_hits(points[marks].mean(axis=0)[None], H, slack, ignore)
            unsettled[j] = not (clear[0] and hit[0] == j)
    dd.tight = np.delete(dd.tight, lower, axis=1)
    return unsettled


# A generator lies on a hyperplane when |a . g| <= _DD_TIGHT |a|, g of unit norm.
_DD_TIGHT = 1e-10
# A maximum this close to a row's verdict threshold ``slack + feas`` is decided by LP.
_DD_MARGIN = 1e-11


class _Description:
    """Incremental double description (Motzkin et al. 1953; Fukuda and
    Prodon 1996) of ``{y | H_F y <= s_F}``, every ``s_F`` positive, as the
    cone ``{(y, t) | H_F y <= s_F t, t >= 0}``: unit extreme rays ``rays``,
    a lineality basis ``lines`` (whose ``t`` is 0), and the incidence
    ``tight`` of each ray on ``t >= 0`` (column 0), then on each inserted
    row, as float32 0/1 entries: their products count common tight rows
    exactly (below 2**24) in single-precision BLAS at half the memory
    traffic of float64. A ray with ``t > 0`` is the vertex ``y / t``; ``t``
    is exactly 0 on recession rays, which only combine rays and lines with
    ``t = 0``.

    The incidence holds at most the square of the facet cap or
    ``_MIN_CELLS`` entries (rays by columns), whichever is more: a
    description that would grow past it raises ``FacetBudgetError`` before
    it allocates the larger arrays (:func:`_check_cells`).
    """

    __slots__ = ("rays", "lines", "tight")

    def __init__(self, n: int):
        self.rays = np.eye(1, n + 1, n)  # the origin, with all of R^n as lineality
        self.lines = np.eye(n, n + 1)
        self.tight = np.zeros((1, 1), dtype=np.float32)

    @classmethod
    def _of_polytope(cls, rays: np.ndarray, tight: np.ndarray) -> "_Description":
        """The description of a polytope given by its vertices, as unit rays
        with ``t > 0``, and their incidence on its rows (booleans): no
        lineality, and no ray tight at ``t >= 0``."""
        dd = cls.__new__(cls)
        dd.rays, dd.lines = rays, np.empty((0, rays.shape[1]))
        _check_cells(len(rays), tight.shape[1] + 1)
        dd.tight = np.zeros((len(rays), tight.shape[1] + 1), dtype=np.float32)
        dd.tight[:, 1:] = tight
        return dd

    def insert(self, a: np.ndarray) -> None:
        """Add the row ``a . (y, t) <= 0``, that is ``h y <= s`` for ``a = (h, -s)``.

        Each new ray is ``w_p R_q - w_q R_p`` over its norm, for an adjacent
        pair of rays on either side of the row (``w = R a``). The incidence
        is gathered and grown in one new array, and numpy is called through
        its cheapest entries (``take``, ``nonzero``, ``add.reduce``): most
        descriptions hold a few dozen rays, where call overhead dominates.
        The rays the row cuts are paired in blocks (:meth:`_pairs`).
        """
        tol = _DD_TIGHT * math.hypot(1.0, a[-1])
        R, Z = self.rays, self.tight
        m, c = Z.shape
        if len(self.lines):
            la = self.lines @ a
            j = np.abs(la).argmax()
            if abs(la[j]) > tol:  # the row cuts the lineality: one line becomes a ray
                line, others = self.lines[j], np.arange(len(la)) != j
                lines = self.lines[others] - (la[others] / la[j])[:, None] * line
                self.lines = lines / _row_norms(lines)[:, None]
                rays = np.empty((m + 1, R.shape[1]))
                rays[:m] = R - (R @ a / la[j])[:, None] * line  # now on the row
                rays[m] = -np.sign(la[j]) * line
                self.rays = rays / _row_norms(rays)[:, None]
                tight = np.ones((m + 1, c + 1), dtype=np.float32)  # on every row but this one
                tight[:m, :c] = Z
                tight[m, c] = 0.0
                self.tight = tight
                return
        w = R @ a
        cut, below = w > tol, w < -tol
        (pos,) = cut.nonzero()
        (keep,) = (~cut).nonzero()
        k = len(keep)
        try:
            with np.errstate(invalid="raise"):
                p, q, common = self._pairs(Z, pos, below, k)
        except FloatingPointError:  # BLAS's flag on 0/1 entries: count again in float64
            p, q, common = self._pairs(Z.astype(float), pos, below, k)
        _check_cells(k + len(p), c + 1)
        tight = np.empty((k + len(p), c + 1), dtype=np.float32)
        tight[:k, :c] = Z.take(keep, axis=0)
        tight[:k, c] = w.take(keep) >= -tol
        tight[k:, :c] = common
        tight[k:, c] = 1.0
        rays = np.empty((k + len(p), R.shape[1]))
        rays[:k] = R.take(keep, axis=0)
        new = w.take(p)[:, None] * R.take(q, axis=0) - w.take(q)[:, None] * R.take(p, axis=0)
        np.divide(new, _row_norms(new)[:, None], out=rays[k:])  # on the row
        self.rays, self.tight = rays, tight

    def _pairs(self, Z: np.ndarray, pos: np.ndarray, below: np.ndarray, kept: int):
        """The adjacent pairs of a ray above a row (the rays ``pos``) and
        one below it (the mask ``below``), as ray indices ``p`` and ``q``,
        and the incidence their new rays share, for a description that keeps
        ``kept`` rays. The rays above are paired in blocks of
        ``_SHARED_CELLS`` common-row counts (:meth:`_block_pairs`), and
        ``FacetBudgetError`` is raised as soon as the pairs found would grow
        the incidence past its budget."""
        m, c = Z.shape
        step = max(1, _SHARED_CELLS // m)
        if len(pos) <= step:
            return self._block_pairs(Z, pos, below)
        found, total = [], kept
        for start in range(0, len(pos), step):
            found.append(self._block_pairs(Z, pos[start : start + step], below))
            total += len(found[-1][0])
            _check_cells(total, c + 1)
        return tuple(np.concatenate(parts) for parts in zip(*found))

    def _block_pairs(self, Z: np.ndarray, pos: np.ndarray, below: np.ndarray):
        """:meth:`_pairs` of the rays above ``pos``, all at once."""
        m = len(Z)
        Zp = Z.take(pos, axis=0)
        shared = Zp @ Z.T  # tight rows each ray above the row shares with each ray
        # adjacent pairs, one ray on either side: at least d - 2 common tight rows,
        # held by no third ray, which must share them all with both rays of the pair
        least = self.rays.shape[1] - len(self.lines) - 2
        near_p, near = (shared >= least).nonzero()
        pair = below[near]
        p, q = near_p[pair], near[pair]
        counts = shared[p, q]
        common = Zp.take(p, axis=0) * Z.take(q, axis=0)
        if len(p) * m <= _PAIR_CELLS:
            adjacent = np.add.reduce(common @ Z.T == counts[:, None], axis=1) == 2
        else:  # the pairs of each ray above, against the rays near it only
            counts = counts[:, None]
            ends = np.searchsorted(near_p, np.arange(len(pos) + 1)).tolist()
            starts = np.searchsorted(p, np.arange(len(pos) + 1)).tolist()
            adjacent = np.empty(len(p), dtype=bool)
            for i in range(len(pos)):
                s, e = starts[i], starts[i + 1]
                if s < e:  # only the columns tight at the ray above can be common
                    (cols,) = Zp[i].nonzero()
                    near_rows = Z.take(near[ends[i] : ends[i + 1]], axis=0).take(cols, axis=1)
                    third = common[s:e].take(cols, axis=1) @ near_rows.T == counts[s:e]
                    adjacent[s:e] = np.add.reduce(third, axis=1) == 2
        return pos[p[adjacent]], q[adjacent], common[adjacent]

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

    def facets(self) -> np.ndarray | None:
        """Which inserted rows are facets of a bounded description, as a
        mask over its columns after the first: a row tight at ``n`` vertices
        or more whose tight vertices are not a proper subset of another such
        row's, and have rank ``n`` by ``matrix_rank``'s rule. The exact face
        test drops the rows tight only along a ridge, whose rounded vertices
        the rank rule may count as spanning a facet. The rank test takes one
        batched SVD per power of two of the counts of tight vertices, each
        row's vertices padded with zero rows, which change no singular
        value. None when two facets have the same tight vertices: which one
        the redundancy rule keeps is not read off the description."""
        n = self.rays.shape[1] - 1
        tight = self.tight[:, 1:] == 1.0
        counts = np.add.reduce(tight, axis=0)
        (cols,) = (counts >= n).nonzero()
        counts = counts[cols]
        within = _shared_counts(tight[:, cols]) == counts[:, None]  # row i's vertices in row j's
        np.fill_diagonal(within, False)
        kept = ~(within & (counts[:, None] < counts)).any(axis=1)
        if (within & (counts[:, None] == counts) & kept[:, None] & kept).any():
            return None
        cols, counts = cols[kept], counts[kept]
        row, vertex = tight[:, cols].T.nonzero()  # each row's vertices, in order
        slot = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
        bucket = np.frexp(counts - 1)[1]  # rows of 2**(b - 1) + 1 to 2**b vertices
        facet = np.zeros(tight.shape[1], dtype=bool)
        for b in np.unique(bucket).tolist():
            group = bucket == b
            ours = group[row]
            stacked = np.zeros((np.count_nonzero(group), 1 << b, n + 1))
            stacked[(np.cumsum(group) - 1)[row[ours]], slot[ours]] = self.rays[vertex[ours]]
            s = np.linalg.svd(stacked, compute_uv=False)
            limit = s[:, 0] * np.maximum(counts[group], n + 1) * np.finfo(float).eps
            facet[cols[group]] = np.add.reduce(s > limit[:, None], axis=1) >= n
        return facet


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


def _collapse_parallel(H: np.ndarray, b: np.ndarray, groups=None) -> np.ndarray:
    """Indices of the rows to keep, the tightest offset among rows sharing
    an identical normal (the first row on a tie), in lexicographic order of
    the normals; ``groups``, if known, is :func:`_parallel_groups` of ``H``."""
    if groups is not None:
        order, starts = groups
        return order if starts is None else order[np.lexsort((b[order], starts.cumsum()))][starts]
    order = np.lexsort(np.concatenate((b[None, :], H.T[::-1])))  # H columns first, offset last
    H = H[order]
    # equal normals are adjacent, and the first row of a run has the smallest offset
    keep = np.empty(b.size, dtype=bool)
    keep[0] = True
    (H[1:] != H[:-1]).any(axis=1, out=keep[1:])
    return order[keep]


def _parallel_groups(H: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The rows of ``H`` in lexicographic order of their normals (a stable
    sort), and which of them start a run of equal normals (None if all do)."""
    order = np.lexsort(H.T[::-1])
    starts = np.ones(len(H), dtype=bool)
    (H[order[1:]] != H[order[:-1]]).any(axis=1, out=starts[1:])
    return order, None if starts.all() else starts


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

    Each elimination forms every pair (:func:`_eliminate`), and no offset
    it makes falls below the smallest it is given. When every offset of
    ``p`` exceeds ``feas`` (the lift of C-sets), the origin thus serves as
    the interior point of every reduction with no LP. Otherwise each
    reduction's rows get a Chebyshev-centre LP, and flat intermediate sets
    fall back to testing each row against all rows.
    """
    if not 1 <= keep < p.dim:
        raise ValidationError(f"keep must be in [1, {p.dim - 1}]")
    return _project(p, keep, _facet_cap())


def _project(p: HPolytope, keep: int, cap: int, plans: dict | None = None) -> HPolytope:
    """:func:`project` under the facet cap ``cap``, ``keep`` checked. With
    ``plans``, a dict, each elimination's plan (:class:`_Elimination`), the
    choice after it and a collapse's grouping (:func:`_parallel_groups`),
    which depend on the normals alone, are kept there by ``col`` and the
    bits of the rows eliminated: rows with those bits only replay their
    offsets, to the bits and errors of a projection without ``plans``."""
    H, b = p.H, p.b
    for col in range(p.dim - 1, keep - 1, -1):
        key = None if plans is None else (col, H.tobytes())
        if key is not None and key in plans:
            plan, collapse, groups = plans[key]
            shadow = plan.replay(b, cap)
        else:
            shadow, plan = _eliminate(H, b, col, cap)
            nxt = shadow.H[:, col - 1] if col > keep else shadow.H[:0, 0]
            n_pos, n_neg = np.count_nonzero(nxt > _ZERO_ROW), np.count_nonzero(nxt < -_ZERO_ROW)
            # the next elimination cannot add rows: collapse parallel rows, do not reduce
            collapse = col > keep and n_pos * n_neg <= n_pos + n_neg
            groups = _parallel_groups(shadow.H) if collapse and key is not None else None
            if key is not None:
                plans[key] = plan, collapse, groups
        H, b = shadow.H, shadow.b
        if collapse:
            kept = _collapse_parallel(H, b) if groups is None else _collapse_parallel(H, b, groups)
            H, b = H[kept], b[kept]
            continue
        shadow = remove_redundancy(shadow)
        H, b = shadow.H, shadow.b
    return shadow


def _eliminate(H: np.ndarray, b: np.ndarray, col: int, cap: int,
               pairs: np.ndarray | None = None) -> tuple[HPolytope, "_Elimination"]:
    """The Fourier-Motzkin shadow of ``{x | H x <= b}`` (unit rows) on its
    coordinates before ``col``, the last one, with redundant rows kept, and
    its plan, which replays it for other offsets (:class:`_Elimination`).

    It lists first the rows with a zero coefficient on ``col``, in order,
    then, for each row ``i`` with a positive coefficient ``c_i``, in order,
    its combination ``-c_j * row_i + c_i * row_j`` with each row ``j`` of
    negative coefficient ``c_j``, in order, that ``pairs[i, j]`` allows (a
    boolean matrix over the rows; None allows every pair); all combinations
    are formed as one array, offsets with normals, after the facet cap
    ``cap`` is checked against their count. Rows whose normal vanishes are
    dropped (:meth:`_Elimination.shadow`). Only a pair whose row is implied
    by the others may be left out: the shadow is then the same set.

    FM combines two unit rows with positive weights, and the combined
    normal is no longer than the sum of the weights, so no normalized offset
    falls below the smallest input offset.
    """
    coeff = H[:, col]
    pos, neg = coeff > _ZERO_ROW, coeff < -_ZERO_ROW
    zero, pos, neg = (~(pos | neg)).nonzero()[0], pos.nonzero()[0], neg.nonzero()[0]
    block = None if pairs is None else pairs[np.ix_(pos, neg)]
    count = pos.size * neg.size if block is None else np.count_nonzero(block)
    _check_facets(zero.size + count, cap, "projection")  # before any pair is formed
    # the pairs row by row: each i in order, its j in order
    i, j = (np.ones((pos.size, neg.size), dtype=bool) if block is None else block).nonzero()
    pos, second = pos[i], neg[j]
    plan = _Elimination()
    plan.first, plan.second = np.concatenate((zero, pos)), second
    plan.c_neg, plan.c_pos = -coeff[second][:, None], coeff[pos][:, None]
    new = plan.combine(np.concatenate((b[:, None], H[:, :col]), axis=1))  # offset, then normal
    normals = new[:, 1:]
    norms = _row_norms(normals)
    plan.trivial, plan.kept = norms <= _ZERO_ROW, None
    if plan.trivial.any():
        plan.kept = ~plan.trivial
        normals, norms = normals[plan.kept], norms[plan.kept]
    plan.norms, plan.H = norms, normals / norms[:, None]
    plan.H.setflags(write=False)
    return plan.shadow(new[:, 0]), plan


class _Elimination:
    """What an elimination (:func:`_eliminate`) reads but the offsets: the
    rows ``first`` that pass, then those that combine with the rows
    ``second`` with weights ``c_neg`` and ``c_pos``; the shadow's unit rows
    ``H`` and the ``norms`` that divided them, those whose normal vanished
    (``trivial``) dropped, and the ``kept`` mask when any did."""

    __slots__ = ("first", "second", "c_neg", "c_pos", "trivial", "kept", "norms", "H")

    def combine(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` (2-D) combined, unnormalized: ``c_neg * row_i + c_pos * row_j``."""
        out = rows[self.first]
        pair = out[self.first.size - self.second.size :]
        pair *= self.c_neg
        pair += self.c_pos * rows[self.second]
        return out

    def replay(self, b: np.ndarray, cap: int) -> HPolytope:
        """The shadow for offsets ``b``, its row count checked first against ``cap``."""
        _check_facets(self.first.size, cap, "projection")
        return self.shadow(self.combine(b[:, None])[:, 0])

    def shadow(self, offsets: np.ndarray) -> HPolytope:
        """The shadow on the planned rows with the unnormalized ``offsets``:
        a dropped row with an offset below ``-feas`` raises ``EmptySetError``,
        then no row left raises ``UnboundedSetError``."""
        if self.kept is not None:
            if (offsets[self.trivial] < -TOL.feas).any():
                raise EmptySetError("projection input is empty")
            offsets = offsets[self.kept]
        if offsets.size == 0:
            raise UnboundedSetError("projection shadow is unconstrained")
        return HPolytope._computed(self.H, offsets / self.norms)


def _vertex_points(H: np.ndarray, b: np.ndarray, tight: np.ndarray) -> np.ndarray | None:
    """The vertex of ``{x | H x <= b}`` (unit rows) on each row of the
    incidence ``tight`` (vertices by rows of ``H``), solved on the rows it
    marks, in ``H``'s order: ``numpy.linalg.solve`` on exactly ``n``, and on
    more rows least squares by the SVD's pseudo-inverse, formed as
    ``numpy.linalg.pinv`` forms it; one batched solve per count of rows.
    None when a vertex's rows have rank below ``n`` by ``matrix_rank``'s
    rule: that is no vertex, and a vertex may be missing.

    On ``n`` unit rows every singular value is at most ``sqrt(n)``, so the
    smallest is at least ``|det| / sqrt(n)**(n - 1)``: a determinant above
    ``n**(n/2 + 1) * 1e-12`` puts it above ``n**1.5 * 1e-12``, far beyond
    ``matrix_rank``'s threshold (at most ``n**1.5 * eps``) and the
    determinant's rounding. Only the other square systems take the SVD of
    that rank test."""
    n = H.shape[1]
    counts = tight.sum(axis=1)
    points = np.empty((len(tight), n))
    for count in np.unique(counts).tolist():
        if count < n:
            return None
        group = counts == count
        on = np.nonzero(tight[group])[1].reshape(-1, count)  # each vertex's rows, in order
        A, rhs = H[on], b[on][..., None]
        if count == n:
            unclear = np.abs(np.linalg.det(A)) <= n ** (n / 2 + 1) * 1e-12
            if unclear.any() and (np.linalg.matrix_rank(A[unclear]) < n).any():
                return None
            points[group] = np.linalg.solve(A, rhs)[..., 0]
            continue
        u, s, vt = np.linalg.svd(A, full_matrices=False)
        if (s[:, -1] <= s[:, 0] * count * np.finfo(float).eps).any():
            return None
        pinv = vt.transpose(0, 2, 1) @ ((1.0 / s)[..., None] * u.transpose(0, 2, 1))
        points[group] = (pinv @ rhs)[..., 0]
    return points


def vertices(p: HPolytope) -> list[np.ndarray]:
    """All vertices of a C-set, in any dimension (other input goes through
    :func:`validate_cset`): the list the set carries (:func:`_vertex_list`),
    or else each vertex solved on its tight facets in the double
    description of :func:`remove_redundancy`'s facets (:func:`_vertex_points`).
    A description that is not bounded with every facet tight at ``n``
    vertices, or a vertex whose facets have rank below ``n``, raises
    ``ComputationError``: a missed vertex would make :func:`outer_radius`
    too small."""
    if not isinstance(p, CSetPolytope):
        p = validate_cset(p)
    carried = _vertex_list(p)
    if carried is not None:
        return list(carried.copy())
    rows = np.sort(_irredundant_rows(p)[0])  # solved in the order of p's rows
    H, b = p.H[rows], p.b[rows]
    dd = _Description(p.dim)
    for a in np.concatenate((H, -b[:, None]), axis=1):
        dd.insert(a)
    if not dd.is_polytope():
        raise ComputationError("the double description misses a vertex")
    points = _vertex_points(H, b, dd.tight[:, 1:] == 1.0)
    if points is None:
        raise ComputationError("a vertex's tight facets do not span the space")
    return list(points)


def inradius_origin(p: CSetPolytope) -> float:
    """Radius of the largest origin-centered ball inside ``p``."""
    return float(np.min(p.b))


def outer_radius(p: CSetPolytope) -> float:
    """Circumscribed-ball radius around the origin: the largest vertex norm,
    exact in every dimension."""
    return float(max(np.linalg.norm(v) for v in vertices(p)))
