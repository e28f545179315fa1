"""One-step backward sets, iterated set sequences, and contractiveness tests.

The central object is the pre-image map: states inside the state constraints
from which some admissible input reaches ``lam * D`` in one step. It is
computed literally, by projecting the lifted state-input polytope back onto
the state coordinates. Iterating the map from the state constraint set gives
a nested outer approximation of the maximal contractive set; iterating from
a contractive seed gives an expanding inner one. A set is tested for
contractiveness the same way: it is ``lam``-contractive iff it lies in its
own one-step set. With a box U, a step eliminates the inputs one at a time,
a chain of segment sums: when the target carries the incidence to tell,
each link combines only the facets that may be adjacent and gives the set
that every pair gives, and carries the sum's vertices and incidence on to
the next. The step then reads its facets off a double description built
from them, cut by X's rows, instead of reducing its rows from nothing.
Each system memoizes its map: the bits of a target are projected once per
rate and tolerances, whoever asks, and its normals are planned once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .config import TOL
from .errors import (
    ComputationError,
    DimensionError,
    OriginNotInteriorError,
    SeedNotContractiveError,
    ValidationError,
)
from .lp import LinearProgram, LpStatus, solve_lp
from .numerics import matrix_power, reachability_matrix, singular_extremes, spectral_norm
from .polytope import (
    _RAY_BLOCK,
    _ZERO_ROW,
    CSetPolytope,
    HPolytope,
    _adjacent_facets,
    _box_bounds,
    _collapse_parallel,
    _Description,
    _eliminate,
    _facet_cap,
    _finite_norms,
    _first_exceeded,
    _project,
    _shared_counts,
    _vertex_list,
    _vertex_points,
    inradius_origin,
    is_subset,
    outer_radius,
    remove_redundancy,
    validate_cset,
)


class SeedLabel(Enum):
    FROM_STATE_SET = "from_state_set"  # nested, shrinking sequence
    CONTRACTIVE = "contractive"        # expanding sequence


@dataclass(eq=False, frozen=True)
class SystemModel:
    """Linear system ``x+ = A x + B u`` with compact constraint sets X, U.

    Immutable: ``A`` and ``B`` are read-only copies of the caller's arrays.
    Its certificate constants are kept from their first use; its one-step
    sets, and the plans of their lifts and eliminations by the bits of the
    normals they read, in memos that live and die with it
    (:func:`one_step_set`), unbounded in size.
    """

    A: np.ndarray
    B: np.ndarray
    X: CSetPolytope
    U: CSetPolytope

    def __post_init__(self):
        A = np.array(self.A, dtype=float, ndmin=2)
        B = np.array(self.B, dtype=float, ndmin=2)
        if A.shape[0] != A.shape[1]:
            raise DimensionError("A must be square")
        if B.shape[0] != A.shape[0]:
            raise DimensionError("B must have as many rows as A")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ValidationError("nonfinite system matrices")
        X = self.X if isinstance(self.X, CSetPolytope) else validate_cset(self.X)
        U = self.U if isinstance(self.U, CSetPolytope) else validate_cset(self.U)
        if X.dim != A.shape[0]:
            raise DimensionError("state constraint set dimension mismatch")
        if U.dim != B.shape[1]:
            raise DimensionError("input constraint set dimension mismatch")
        A.setflags(write=False)
        B.setflags(write=False)
        for name, value in (("A", A), ("B", B), ("X", X), ("U", U), ("_steps", {}), ("_plans", {})):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def reachability(self) -> np.ndarray:
        out = reachability_matrix(self.A, self.B, self.n)
        out.setflags(write=False)
        return out

    @cached_property
    def sigma_extremes(self) -> tuple[float, float]:
        """Smallest and largest singular values of the reachability matrix."""
        return singular_extremes(self.reachability)

    @cached_property
    def a_extremes(self) -> tuple[float, float]:
        """Smallest and largest singular values of A."""
        return singular_extremes(self.A)

    @cached_property
    def alpha(self) -> float:
        """The largest spectral norm of ``A^j`` over j = 1..n, at least 1."""
        return max(1.0, *(spectral_norm(matrix_power(self.A, j)) for j in range(1, self.n + 1)))

    @cached_property
    def radii(self) -> tuple[float, float, float]:
        """Exact inscribed and circumscribed radii of X, inscribed radius of U."""
        return inradius_origin(self.X), outer_radius(self.X), inradius_origin(self.U)

    @property
    def controllable(self) -> bool:
        return self.sigma_extremes[0] > TOL.ctrb


@dataclass
class SetSequence:
    lam: float
    entries: list[CSetPolytope] = field(default_factory=list)
    seed_label: SeedLabel | None = None


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not 0.0 < lam <= 1.0:
        raise ValidationError("contraction rate must be in (0, 1]")
    return lam


def one_step_set(sys: SystemModel, lam: float, D: CSetPolytope) -> CSetPolytope:
    """States in X steerable into ``lam * D`` with one admissible input.

    Built as the shadow of the lifted polytope
    ``{(x, u) : x in X, u in U, H_D (A x + B u) <= lam * b_D}``
    on the state coordinates, with redundant facets removed. The lift keeps
    X's and U's rows and offsets as they are and divides only the rows it
    makes, ``H_D [A B]`` and ``lam * b_D``, by their norms: an overflowing
    norm raises ``ValidationError``, and a row of norm at most ``_ZERO_ROW``
    (``0 <= lam * b_D``, as when ``A`` resets a state) is left to
    :func:`project`, which drops it.

    With a box U, ``B U`` is a sum of segments, one per input column, and
    ``lam * D (+) (-B U)`` a chain of segment sums. The facets of a sum
    with a segment are the sum's, translated, and one per silhouette ridge:
    a pair of adjacent facets. The Fourier-Motzkin row of two facets that
    are not adjacent is then redundant, so when D carries the incidence of
    a complete description (:func:`~contracta.polytope._adjacent_facets`),
    each elimination, last input first as in :func:`project`, combines two
    facets of the sum so far only when they share ``n - 1`` of its
    vertices or more; the rows formed keep their bits and order, and the
    facet cap counts only them. Any other target projects the lift with
    every pair (:func:`project`), and so does a U that is no box, unless it
    is one interval.

    Such a step inherits D's description (:func:`_inherited`): the
    vertices of each sum and their incidence on the rows formed follow from
    the sum before, and those of ``lam * D (+) (-B U)``, mapped by A's
    inverse and cut by X's rows, describe the one-step set, so its facets
    are read off with 2n inserts, no redundancy rounds and no LP, in
    :func:`project`'s order and bits. A U that is no box, an
    ill-conditioned A, a facet of a sum parallel to its segment and a
    description that fails its checks fall back: with one input the step
    reduces the rows it formed with :func:`remove_redundancy`, with
    several it projects the lift.

    No LP re-certifies the shadow: the lift keeps X's rows, which bound it,
    and its offsets (those of X, U and ``lam * D``) must be positive, which
    makes the shadow's positive too (see :func:`project`). A target without
    the origin in its interior raises ``OriginNotInteriorError``. The C-set
    carries the shadow's support memo, its vertex incidence, when its
    reduction kept one, and the vertices an inherited description solved,
    which answer its supports with no LP and prune and describe its own
    next step. The facet cap is read once, for the key and the projection.

    The result is memoized on ``sys``, keyed by everything the projection
    reads: ``lam``, the LP tolerances, the facet cap and the bits of ``D``'s
    ``H`` and ``b``. A target with the bits of an earlier one thus gets that
    target's one-step set, with its support memo, and no projection. A C-set
    target whose shadow has its bits is returned itself (the first such
    target of those bits), so from it every later step is a memo hit that
    returns it again: a sequence that reaches a fixed point is stationary.
    All that the lift and each elimination of a projection read but the
    offsets is planned once per system, by the bits of ``D.H`` (:func:`_lift`)
    and of the rows eliminated (:func:`~contracta.polytope._project`): a
    target with an earlier one's normals replays only its offsets.
    """
    lam = _check_lambda(lam)
    if D.dim != sys.n:
        raise DimensionError("target set dimension mismatch")
    bits = (D.H.tobytes(), D.b.tobytes())
    cap = _facet_cap()
    key = (lam, TOL.feas, TOL.opt, TOL.pivot, cap) + bits
    q = sys._steps.get(key)
    if q is not None:
        return q
    lifted = _lift(sys, lam, D)
    rows, shadow = _inherited(sys, lam, D, lifted, cap)
    if shadow is None and rows is not None and sys.m == 1:  # one link's rows are the lift's
        shadow = remove_redundancy(rows)
    elif shadow is None:  # a longer chain's rows are not project's: project anew
        shadow = _project(lifted, sys.n, cap, sys._plans)
    q = CSetPolytope._computed(shadow.H, shadow.b, shadow._memo, shadow._incidence,
                               shadow._vertices)
    if isinstance(D, CSetPolytope) and (q.H.tobytes(), q.b.tobytes()) == bits:
        q = D
    sys._steps[key] = q
    return q


# A step inherits its target's description only through an A whose
# singular values lie within this ratio: A's inverse maps the vertices
_COND_LIMIT = 1e8
# and only when no facet normal h of a sum has |h . g| within this share of
# |g|, g the column of B that the sum's next segment moves along
_FLAT_INPUT = 1e-6


def _inherited(sys: SystemModel, lam: float, D: CSetPolytope, lifted: HPolytope,
               cap: int) -> tuple[HPolytope | None, HPolytope | None]:
    """The Fourier-Motzkin rows of ``lifted``'s last elimination, formed
    with only the pairs of facets that may be adjacent, and
    :func:`remove_redundancy` of them read off a double description built
    from the target's, or None for either when it cannot be.

    With a box U, ``S = lam D (+) (-B U)`` is a chain of segment sums, one
    link per input column, eliminated as :func:`project` eliminates them,
    last column first (Fukuda, "From the zonotope construction to the
    Minkowski addition of convex polytopes", 2004; Weibel, EPFL thesis,
    2007). Each link combines two facets of the sum so far only when they
    share ``n - 1`` of its vertices or more (:func:`_eliminate`, whose rows
    keep their bits and order), and reads the next sum's vertices and their
    incidence off the current ones (:func:`_segment`). After the last link
    the vertices, mapped by ``numpy.linalg.solve(A, .)``, and that incidence
    describe ``A^-1 S``, cut by X's rows (:func:`_described`).

    Both are None when D carries no incidence or its vertices do not solve,
    and when U is no box and has several columns: :func:`one_step_set` then
    projects the lift. The description is None when U is no box, A's
    singular values are more than ``_COND_LIMIT`` apart, a facet of a sum
    is within ``_FLAT_INPUT`` of parallel to its link's column of B, the
    rows are not those of a segment sum, or :func:`_described` fails; with
    several links :func:`one_step_set` then projects the lift, whose rows
    the chain's are not, and with one it reduces the rows.
    """
    n, m = sys.n, sys.m
    adjacent = _adjacent_facets(D)
    if adjacent is None:
        return None, None
    bounds = _box_bounds(sys.U)
    if bounds is None and m > 1:  # a 1-D U is an interval: its pairs prune
        return None, None
    s_min, s_max = sys.a_extremes
    H, b, T, W, normals = lifted.H, lifted.b, D._incidence, lam * _vertex_list(D), D.H
    for col in range(n + m - 1, n - 1, -1):
        if col < n + m - 1:  # the sum so far: its pairs that may be adjacent, its normals
            adjacent = _shared_counts(T) >= n - 1
            normals = np.linalg.solve(sys.A.T, H[-T.shape[1] :, :n].T).T
            normals /= np.linalg.norm(normals, axis=1)[:, None]
        pairs = np.ones((len(H), len(H)), dtype=bool)
        pairs[-len(adjacent) :, -len(adjacent) :] = adjacent
        rows, plan = _eliminate(H, b, col, cap, pairs)
        g = sys.B[:, col - n]
        if (bounds is None or not s_min * _COND_LIMIT > s_max
                or (np.abs(normals @ g) <= _FLAT_INPUT * np.linalg.norm(g)).any()):
            return rows, None
        link = _segment(H[:, col], plan, T, W, g, bounds[0][col - n], bounds[1][col - n])
        if link is None:
            return rows, None
        W, T = link
        H, b = rows.H, rows.b
    return rows, _described(sys, rows, W, T)


def _segment(coeff: np.ndarray, plan, T: np.ndarray, W: np.ndarray, g: np.ndarray,
             u_lo: float, u_hi: float):
    """The vertices of ``S (+) (-g [u_lo, u_hi])`` and their incidence on
    the rows that :func:`_eliminate` formed by ``plan``, from the vertices
    ``W`` of the sum S and their incidence ``T`` on its rows, the last of
    the rows whose coefficients on the eliminated column are ``coeff``;
    None when the rows are not a segment sum's.

    A vertex ``w`` of S on a row with ``coeff < 0`` gives ``w - g u_hi``,
    and on a row with ``coeff > 0`` gives ``w - g u_lo``. Such a point lies
    on a translate of one row iff ``w`` lies on that row and the translate
    moves toward this end, and on a row made from two rows iff ``w`` lies on
    both. The rows before S's pass through (X's, and the other columns' U
    rows), but for the column's own U pair, which combines into the one
    trivial row that :func:`_eliminate` drops.
    """
    top = len(coeff) - T.shape[1]  # the rows before S's
    passed = plan.first.size - plan.second.size
    first, second = plan.first[passed:] - top, plan.second - top  # U's rows < 0
    if passed != top - 2 or len(plan.H) != top - 2 + len(second) - 1:
        return None  # a row without a normal besides the U pair's (the first)
    first, second = first[1:], second[1:]
    pos, neg = coeff > _ZERO_ROW, coeff < -_ZERO_ROW
    upper, lower = first < 0, second < 0  # a row of S moved toward u_hi, toward u_lo
    first, second = np.where(upper, second, first), np.where(lower, first, second)
    points, incidence = [], []
    for u, moved, rows_on in ((u_hi, neg[top:], ~lower), (u_lo, pos[top:], ~upper)):
        at = T[:, moved].any(axis=1)
        points.append(W[at] - u * g)
        on = T[at]
        incidence.append(on[:, first] & on[:, second] & rows_on)
    return np.concatenate(points), np.concatenate(incidence)


def _described(sys: SystemModel, rows: HPolytope, W: np.ndarray, T: np.ndarray) -> HPolytope | None:
    """:func:`remove_redundancy` of the one-step set's Fourier-Motzkin
    ``rows`` (X's first), read off a double description, or None when it
    cannot be: the vertices ``W`` of ``S = lam D (+) (-B U)``, mapped by
    ``numpy.linalg.solve(A, .)``, with their incidence ``T`` on the rows
    after X's, describe ``A^-1 S``, and X's rows are inserted into it
    (:class:`~contracta.polytope._Description`). Its facets
    (:meth:`~contracta.polytope._Description.facets`) are kept in
    :func:`~contracta.polytope._collapse_parallel`'s order, with their
    incidence and the vertices solved on it (:func:`_vertex_points`).

    None when the description is not bounded, two facets have the same
    vertices, the collapse of parallel rows drops a facet, a vertex's facets
    do not span the space, or a vertex breaks one of the rows by more than
    ``feas``.
    """
    x_rows = sys.X.nfacets
    x = np.linalg.solve(sys.A, W.T).T
    rays = np.concatenate((x, np.ones((len(x), 1))), axis=1)
    dd = _Description._of_polytope(rays / np.linalg.norm(rays, axis=1)[:, None], T)
    for h, offset in zip(rows.H[:x_rows], rows.b[:x_rows]):
        dd.insert(np.append(h, -offset))
    if not (dd.rays[:, -1] > 0.0).all():
        return None
    facets = dd.facets()
    if facets is None:
        return None
    columns = np.concatenate((np.arange(x_rows, rows.nfacets), np.arange(x_rows)))
    kept = np.zeros(rows.nfacets, dtype=bool)
    kept[columns[facets]] = True
    order = _collapse_parallel(rows.H, rows.b)
    out = order[kept[order]]
    if len(out) != np.count_nonzero(kept):
        return None
    tight = np.empty((len(dd.rays), rows.nfacets), dtype=bool)
    tight[:, columns] = dd.tight[:, 1:] == 1.0
    tight = tight[:, out]
    H, b = rows.H[out], rows.b[out]
    points = _vertex_points(H, b, tight)
    if points is None:
        return None
    for start in range(0, rows.nfacets, _RAY_BLOCK):
        block = slice(start, start + _RAY_BLOCK)
        if not ((rows.H[block] @ points.T).max(axis=1) <= rows.b[block] + TOL.feas).all():
            return None
    points.setflags(write=False)
    return HPolytope._computed(H, b, incidence=tight, vertices=points)


def _lift(sys: SystemModel, lam: float, D: CSetPolytope) -> HPolytope:
    """The lifted polytope ``{(x, u) : x in X, u in U, H_D (A x + B u) <=
    lam * b_D}`` of :func:`one_step_set`: X's rows, U's, then one row per
    facet of D, in D's order. The rows, read-only, and the norms dividing
    D's (1 for a row of norm at most ``_ZERO_ROW``, left as made) are kept
    on ``sys`` by the bits of ``D.H``: a later lift only divides its offsets
    ``lam * b_D``. X's and U's rows and offsets enter as they are."""
    X, U, n = sys.X, sys.U, sys.n
    lifted_b = np.concatenate((X.b, U.b, lam * D.b))
    if not np.all(lifted_b > 0.0):
        raise OriginNotInteriorError("one-step target must have the origin in its interior")
    key = D.H.tobytes()
    if key not in sys._plans:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            made = np.concatenate((D.H @ sys.A, D.H @ sys.B), axis=1)
        norms = _finite_norms(made)
        norms[norms <= _ZERO_ROW] = 1.0
        H = np.block([[X.H, np.zeros((X.nfacets, sys.m))], [np.zeros((U.nfacets, n)), U.H],
                      [made / norms[:, None]]])
        H.setflags(write=False)
        sys._plans[key] = H, norms
    H, norms = sys._plans[key]
    lifted_b[-len(norms) :] /= norms
    return HPolytope._computed(H, lifted_b)


def _verify(lam: float, prev: CSetPolytope, nxt: CSetPolytope, seed_label: SeedLabel, step: int):
    """Check step ``step`` of a labelled sequence, ``prev`` to ``nxt``: ``nxt``
    lies in ``prev`` (from the state set) or contains it (from a contractive
    seed); the test's supports stay in the inner set's memo. From a
    contractive seed, step 1 is the seed's contractiveness test
    (``SeedNotContractiveError``); any other failure is a numerical fault.
    """
    nests = seed_label is SeedLabel.FROM_STATE_SET
    if not (is_subset(nxt, prev) if nests else is_subset(prev, nxt)):
        if not nests and step == 1:
            raise SeedNotContractiveError(f"seed set is not {lam}-contractive")
        what = "from the state set failed to nest" if nests else (
            "from a contractive seed failed to expand"
        )
        raise ComputationError(f"sequence {what} at step {step}")


def iterate(
    sys: SystemModel,
    lam: float,
    D: CSetPolytope,
    k: int,
    seed_label: SeedLabel | None = None,
) -> SetSequence:
    """Entries ``0..k`` of the iterated one-step sequence started at ``D``.

    Each entry is the one-step set of the one before, and when the seed
    label is known the step is verified (:func:`_verify`): shrinking from
    the state set, expanding from a contractive seed. A violation indicates
    a numerical fault and raises, except that a seed failing step 1 is not
    contractive. Once a step returns its target, the sequence is
    stationary: the later entries are that object, each step a memo hit of
    :func:`one_step_set` whose verification reads memoized supports.
    """
    lam = _check_lambda(lam)
    if k < 0:
        raise ValidationError("iteration count must be nonnegative")
    seq = SetSequence(lam=lam, entries=[D], seed_label=seed_label)
    for j in range(1, k + 1):
        prev = seq.entries[-1]
        nxt = one_step_set(sys, lam, prev)
        if seed_label is not None:
            _verify(lam, prev, nxt, seed_label, j)
        seq.entries.append(nxt)
    return seq


def is_lambda_contractive(sys: SystemModel, lam: float, C: CSetPolytope) -> bool:
    """True iff ``C`` lies in its own one-step set (see :func:`noncontractive_point`)."""
    return noncontractive_point(sys, lam, C) is None


def noncontractive_point(sys: SystemModel, lam: float, C: CSetPolytope) -> np.ndarray | None:
    """A point of ``C`` from which no admissible input reaches ``lam * C``,
    or None when ``C`` is ``lam``-contractive.

    ``C`` is ``lam``-contractive iff ``C`` lies in ``Q = one_step_set(sys,
    lam, C)``; Q lies in X, so this also tests ``C`` against X. The point
    returned maximizes, over ``C``, the first facet of Q that ``C`` exceeds
    by more than ``feas``. The test has no dimension limit.
    """
    out = _first_exceeded(C, one_step_set(sys, lam, C))
    return None if out is None else out.x


@dataclass
class MembershipCertificate:
    """Feasible input sequence and terminal point witnessing set membership."""

    inputs: list[np.ndarray]
    gamma: np.ndarray


def membership_certificate(
    sys: SystemModel, lam: float, C: CSetPolytope, x, k: int
) -> MembershipCertificate | None:
    """LP certificate for ``x`` in the ``k+1``-fold one-step set of ``C``.

    Feasibility of the stacked program over ``(u_0, ..., u_k, gamma)`` --
    intermediate states in scaled copies of X, inputs admissible, terminal
    equality landing on ``lam^(k+1) * gamma`` with ``gamma`` in C -- is
    necessary and sufficient. Returns the witness, or None if infeasible.
    """
    lam = _check_lambda(lam)
    if k < 0:
        raise ValidationError("horizon must be nonnegative")
    x = np.asarray(x, dtype=float).ravel()
    if x.size != sys.n or C.dim != sys.n:
        raise DimensionError("point or set dimension mismatch")
    n, m = sys.n, sys.m
    nvar = (k + 1) * m + n
    powers = [matrix_power(sys.A, j) for j in range(k + 2)]

    rows = []
    rhs = []
    for j in range(k + 1):
        block = np.zeros((sys.X.nfacets, nvar))
        for i in range(j):
            block[:, i * m : (i + 1) * m] = sys.X.H @ (powers[j - 1 - i] @ sys.B) * lam**i
        rows.append(block)
        rhs.append(lam**j * sys.X.b - sys.X.H @ (powers[j] @ x))
    for i in range(k + 1):
        block = np.zeros((sys.U.nfacets, nvar))
        block[:, i * m : (i + 1) * m] = sys.U.H
        rows.append(block)
        rhs.append(sys.U.b)
    block = np.zeros((C.nfacets, nvar))
    block[:, (k + 1) * m :] = C.H
    rows.append(block)
    rhs.append(C.b)
    # terminal equality as paired inequalities
    eq = np.zeros((n, nvar))
    for i in range(k + 1):
        eq[:, i * m : (i + 1) * m] = powers[k - i] @ sys.B * lam**i
    eq[:, (k + 1) * m :] = -(lam ** (k + 1)) * np.eye(n)
    eq_rhs = -(powers[k + 1] @ x)
    rows.extend([eq, -eq])
    rhs.extend([eq_rhs, -eq_rhs])

    out = solve_lp(LinearProgram(np.zeros(nvar), np.vstack(rows), np.concatenate(rhs)))
    if out.status is LpStatus.INFEASIBLE:
        return None
    if out.status is not LpStatus.OPTIMAL:  # pragma: no cover
        raise ComputationError("membership program neither optimal nor infeasible")
    z = out.x
    inputs = [z[i * m : (i + 1) * m].copy() for i in range(k + 1)]
    return MembershipCertificate(inputs=inputs, gamma=z[(k + 1) * m :].copy())
