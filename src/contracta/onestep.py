"""One-step backward sets, iterated set sequences, and contractiveness tests.

The central object is the pre-image map: states inside the state constraints
from which some admissible input reaches ``lam * D`` in one step. It is
computed literally, by projecting the lifted state-input polytope back onto
the state coordinates. Iterating the map from the state constraint set gives
a nested outer approximation of the maximal contractive set; iterating from
a contractive seed gives an expanding inner one. A set is tested for
contractiveness the same way: it is ``lam``-contractive iff it lies in its
own one-step set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

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
from .numerics import matrix_power, reachability_matrix, singular_extremes
from .polytope import (
    CSetPolytope,
    HPolytope,
    _first_exceeded,
    is_subset,
    project,
    validate_cset,
)


class SeedLabel(Enum):
    FROM_STATE_SET = "from_state_set"  # nested, shrinking sequence
    CONTRACTIVE = "contractive"        # expanding sequence


@dataclass(eq=False)
class SystemModel:
    """Linear system ``x+ = A x + B u`` with compact constraint sets X, U."""

    A: np.ndarray
    B: np.ndarray
    X: CSetPolytope
    U: CSetPolytope

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if self.A.shape[0] != self.A.shape[1]:
            raise DimensionError("A must be square")
        if self.B.shape[0] != self.A.shape[0]:
            raise DimensionError("B must have as many rows as A")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.B))):
            raise ValidationError("nonfinite system matrices")
        if not isinstance(self.X, CSetPolytope):
            self.X = validate_cset(self.X)
        if not isinstance(self.U, CSetPolytope):
            self.U = validate_cset(self.U)
        if self.X.dim != self.n:
            raise DimensionError("state constraint set dimension mismatch")
        if self.U.dim != self.m:
            raise DimensionError("input constraint set dimension mismatch")
        self.A.setflags(write=False)
        self.B.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def reachability(self) -> np.ndarray:
        return reachability_matrix(self.A, self.B, self.n)

    @property
    def controllable(self) -> bool:
        sigma_min, _ = singular_extremes(self.reachability)
        return sigma_min > TOL.ctrb


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
    on the state coordinates, with redundant facets removed.

    No LP re-certifies the shadow: the lift keeps X's rows, which bound it,
    and its offsets (those of X, U and ``lam * D``) must be positive, which
    makes the shadow's positive too (see :func:`project`). A target without
    the origin in its interior raises ``OriginNotInteriorError``.

    A C-set target whose shadow has its ``H`` and ``b`` bits is returned
    itself, memo included. The shadow is a function of those bits alone, so
    from such a target every later step is the target again (see
    :func:`_project`).
    """
    lam = _check_lambda(lam)
    if D.dim != sys.n:
        raise DimensionError("target set dimension mismatch")
    X, U = sys.X, sys.U
    top = X.nfacets + U.nfacets
    lifted_H = np.zeros((top + D.nfacets, sys.n + sys.m))
    lifted_H[: X.nfacets, : sys.n] = X.H
    lifted_H[X.nfacets : top, sys.n :] = U.H
    lifted_H[top:, : sys.n] = D.H @ sys.A
    lifted_H[top:, sys.n :] = D.H @ sys.B
    lifted_b = np.concatenate((X.b, U.b, lam * D.b))
    if not np.all(lifted_b > 0.0):
        raise OriginNotInteriorError("one-step target must have the origin in its interior")
    shadow = project(HPolytope(lifted_H, lifted_b), sys.n)
    q = CSetPolytope._computed(shadow.H, shadow.b)
    if (
        isinstance(D, CSetPolytope)
        and q.b.tobytes() == D.b.tobytes()
        and q.H.tobytes() == D.H.tobytes()
    ):
        return D
    return q


def _project(
    sys: SystemModel, lam: float, before: CSetPolytope | None, prev: CSetPolytope
) -> CSetPolytope:
    """The entry after ``prev`` of a one-step sequence whose entry before
    ``prev`` is ``before`` (None at the start): ``prev`` itself, with no
    projection, once the sequence is stationary (``prev is before``, see
    :func:`one_step_set`), else ``one_step_set(sys, lam, prev)``."""
    return prev if prev is before else one_step_set(sys, lam, prev)


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

    Each entry is projected from the one before (:func:`_project`), and when
    the seed label is known the step is verified (:func:`_verify`): shrinking
    from the state set, expanding from a contractive seed. A violation
    indicates a numerical fault and raises, except that a seed failing step
    1 is not contractive. Once a step returns its target, the sequence is
    stationary: the later entries are that object, neither projected nor
    verified again.
    """
    lam = _check_lambda(lam)
    if k < 0:
        raise ValidationError("iteration count must be nonnegative")
    seq = SetSequence(lam=lam, entries=[D], seed_label=seed_label)
    before = None
    for j in range(1, k + 1):
        prev = seq.entries[-1]
        nxt = _project(sys, lam, before, prev)
        if seed_label is not None and prev is not before:
            _verify(lam, prev, nxt, seed_label, j)
        seq.entries.append(nxt)
        before = prev
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
