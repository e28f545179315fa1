"""Iteration budgeting and rate selection with a-priori guarantees.

Two planning entry points:

* ``epsilon_plan`` -- given a contractive seed C, bound the number of
  one-step iterations after which the sequence started at the state set is
  inside ``(1 + eps)`` times the sequence started at C (and therefore inside
  ``(1 + eps)`` times the maximal contractive set).
* ``select_lambda`` -- given an accuracy ``mu``, pick a rate ``lam`` and a
  count ``k`` before computing any set, such that the k-th iterate from C is
  sandwiched between ``mu`` times the maximal controlled invariant set and
  the maximal ``lam``-contractive set.

``approximate_cmax1`` then executes a plan either by running the full
a-priori budget or by stopping at the first iteration where the inclusion
is observed geometrically. The seed's first step is its contractiveness
gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .certificate import ContractionCertificate, compute_certificate
from .config import TOL
from .errors import (
    ComputationError,
    ContractaError,
    IterationBudgetError,
    SeedNotContractiveError,
    ValidationError,
)
from .metric import set_distance
from .onestep import (
    SeedLabel,
    SystemModel,
    _verify,
    is_lambda_contractive,
    one_step_set,
)
from .polytope import CSetPolytope, support_many

_CEIL_NUDGE = 1e-12


class Purpose(Enum):
    EPSILON_APPROX = "epsilon_approx"
    MU_APPROX = "mu_approx"


class Strategy(Enum):
    APRIORI_BOUND = "apriori_bound"
    ADAPTIVE_INCLUSION = "adaptive_inclusion"


@dataclass
class IterationPlan:
    lam: float
    delta: float
    d_seed_state: float
    certificate: ContractionCertificate  # the certificate at ``lam`` that gave eta
    k: int
    purpose: Purpose
    accuracy: float              # eps for epsilon plans, mu for rate selection
    case: str | None = None      # rate selection branch taken: "i" or "ii"
    branch_value: float | None = None  # 2 * lam_star**k at the branch decision

    @property
    def eta(self) -> float:
        return self.certificate.eta

    @property
    def epsilon(self) -> float:
        if self.purpose is Purpose.EPSILON_APPROX:
            return self.accuracy
        return (1.0 - self.accuracy) / (2.0 * self.accuracy)

    def as_dict(self) -> dict:
        data = {
            "lambda": self.lam,
            "delta": self.delta,
            "d_seed_state": self.d_seed_state,
            "eta": self.eta,
            "k": self.k,
            "purpose": self.purpose.value,
            "accuracy": self.accuracy,
            "epsilon": self.epsilon,
        }
        if self.case is not None:
            data["case"] = self.case
            data["branch_value"] = self.branch_value
        return data


@dataclass
class ApproximationResult:
    terminal_set: CSetPolytope
    k_star: int
    strategy: Strategy
    certified_relations: list[dict] = field(default_factory=list)
    per_iteration: list[dict] = field(default_factory=list)


def iteration_bound(eta: float, delta: float, d_seed_state: float, n: int) -> int:
    """Smallest admissible iteration count for the distance to fall to delta.

    Zero when the start distance is already within delta; otherwise
    ``n * ceil((ln delta - ln d) / ln eta)``, with a tiny downward nudge
    before the ceiling so representation error cannot add a spurious step,
    and ``n`` at ``eta = 0``, where one n-step block takes the distance to 0.
    """
    if not 0.0 <= eta < 1.0:
        raise ValidationError("contraction factor must lie in [0, 1)")
    if not delta > 0.0:
        raise ValidationError("delta must be positive")
    if not math.isfinite(d_seed_state):
        raise ValidationError("distance must be finite")
    if d_seed_state < 0.0:
        raise ValidationError("distance must be nonnegative")
    if n < 1:
        raise ValidationError("state dimension must be positive")
    if d_seed_state <= delta:
        return 0
    if eta == 0.0:
        return n
    ratio = (math.log(delta) - math.log(d_seed_state)) / math.log(eta)
    return n * math.ceil(ratio - _CEIL_NUDGE)


def epsilon_plan(
    sys: SystemModel, lam: float, C: CSetPolytope, eps: float
) -> IterationPlan:
    """Plan guaranteeing the state-set iterate lands in ``(1+eps)`` times the
    seed iterate after ``k`` steps, for a ``lam``-contractive seed ``C``."""
    if not eps > 0.0:
        raise ValidationError("epsilon must be positive")
    if not is_lambda_contractive(sys, lam, C):
        raise SeedNotContractiveError(f"seed set is not {lam}-contractive")
    cert = compute_certificate(sys, lam)
    delta = math.log1p(eps)
    d_seed_state = set_distance(C, sys.X).distance
    k = iteration_bound(cert.eta, delta, d_seed_state, sys.n)
    return IterationPlan(
        lam=lam,
        delta=delta,
        d_seed_state=d_seed_state,
        certificate=cert,
        k=k,
        purpose=Purpose.EPSILON_APPROX,
        accuracy=eps,
    )


def exact_k_oracle_1d(lam: float, eps: float) -> int:
    """Closed-form smallest iteration count for the scalar benchmark family
    (state gain 1.1, unit input gain, state box 10, input box 1, seed half
    width 2). Serves as the exact reference the a-priori bound is compared
    against."""
    if not 0.6 <= lam <= 1.0:
        raise ValidationError("rate outside the benchmark's contractive range")
    if not 0.0 < eps <= 4.0:
        raise ValidationError("accuracy outside the benchmark's range")
    value = math.log((1.1 - lam) * (8.0 / eps - 2.0) + 1.0) / (math.log(1.1) - math.log(lam))
    return math.ceil(value - _CEIL_NUDGE)


def select_lambda(
    sys: SystemModel, lam_star: float, C: CSetPolytope, mu: float
) -> IterationPlan:
    """Choose a rate and an iteration count achieving accuracy ``mu``.

    With ``eps = (1 - mu) / (2 mu)`` and the budget ``k`` planned at
    ``lam_star``: if ``1 + mu <= 2 lam_star^k`` the pair ``(lam_star, k)``
    already works (case i). Otherwise the rate is raised to
    ``exp((ln(1 + mu) - ln 2) / k)`` (case ii); the contraction factor only
    shrinks when the rate grows, so the same ``k`` remains admissible --
    violation of that recheck indicates a numerical fault.
    """
    if not 0.0 < lam_star < 1.0:
        raise ValidationError("initial rate must be in (0, 1)")
    if not 0.0 < mu < 1.0:
        raise ValidationError("accuracy must be in (0, 1)")
    eps = (1.0 - mu) / (2.0 * mu)
    base = epsilon_plan(sys, lam_star, C, eps)
    k = base.k
    branch_value = 2.0 * lam_star**k
    rate_plan = dict(purpose=Purpose.MU_APPROX, accuracy=mu, branch_value=branch_value)
    if 1.0 + mu <= branch_value * (1.0 + _CEIL_NUDGE):
        return replace(base, case="i", **rate_plan)
    if k == 0:  # pragma: no cover - impossible: 1 + mu < 2
        raise ComputationError("branch condition failed at k = 0")
    lam = math.exp((math.log1p(mu) - math.log(2.0)) / k)
    cert = compute_certificate(sys, lam)
    if iteration_bound(cert.eta, base.delta, base.d_seed_state, sys.n) > k:
        raise ComputationError(
            "iteration budget no longer admissible after raising the rate"
        )
    return replace(base, lam=lam, certificate=cert, case="ii", **rate_plan)


def approximate_cmax1(
    sys: SystemModel,
    plan: IterationPlan,
    C: CSetPolytope,
    strategy: Strategy = Strategy.ADAPTIVE_INCLUSION,
) -> ApproximationResult:
    """Execute a plan and return the terminal contractive set.

    Both strategies advance the seed and state-set sequences jointly, each
    step a one-step set and its verification as in :func:`iterate`. The
    one-step sets are the system's memo, so neither step 1 of the seed nor a
    stationary sequence projects again. The seed's first step is the gate: it
    raises ``SeedNotContractiveError`` unless C lies in its one-step set,
    even for ``plan.k == 0``. Each step records facet counts, the distance
    between the seed and state iterates and the inclusion slack of the state
    iterate inside ``(1 + eps)`` times the seed iterate.

    Each step projects both iterates, then verifies the seed's before the
    state's. When the state's projection raises, the seed's verification of
    that step runs first, so a seed that fails it raises before the
    projection's error. The adaptive strategy stops at the first step where
    the inclusion is observed (never later than ``plan.k``); the a-priori
    strategy runs exactly ``plan.k`` steps. The terminal set's
    contractiveness is re-verified.
    """
    lam = plan.lam
    one_plus_eps = 1.0 + plan.epsilon
    _verify(lam, C, one_step_set(sys, lam, C), SeedLabel.CONTRACTIVE, 1)
    seed_j, state_j, records = C, sys.X, []
    for j in range(plan.k + 1):
        if j > 0:
            seed_prev, state_prev = seed_j, state_j
            seed_j = one_step_set(sys, lam, seed_prev)
            try:
                state_j = one_step_set(sys, lam, state_prev)
            except ContractaError:
                _verify(lam, seed_prev, seed_j, SeedLabel.CONTRACTIVE, j)
                raise
            _verify(lam, seed_prev, seed_j, SeedLabel.CONTRACTIVE, j)
            _verify(lam, state_prev, state_j, SeedLabel.FROM_STATE_SET, j)
        slack = float(np.max(support_many(state_j, seed_j.H) - one_plus_eps * seed_j.b))
        records.append(
            {
                "step": j,
                "seed_facets": seed_j.nfacets,
                "state_facets": state_j.nfacets,
                "distance": set_distance(seed_j, state_j).distance,
                "inclusion_slack": slack,
            }
        )
        if strategy is Strategy.ADAPTIVE_INCLUSION and slack <= TOL.feas:
            break
    stop = len(records) - 1
    terminal = seed_j
    if slack > TOL.feas:
        if strategy is Strategy.ADAPTIVE_INCLUSION:
            raise IterationBudgetError(
                f"inclusion not observed within the planned {plan.k} iterations"
            )
        # a-priori guarantee must hold at the final step
        raise IterationBudgetError("planned iteration count did not achieve the inclusion")
    relations = [
        {
            "relation": "state_iterate_within_(1+eps)_seed_iterate",
            "step": stop,
            "slack": slack,
            "holds": slack <= TOL.feas,
        },
        {
            "relation": "terminal_set_contractive",
            "step": stop,
            "slack": 0.0,
            "holds": is_lambda_contractive(sys, lam, terminal),
        },
    ]
    if not relations[-1]["holds"]:
        raise ComputationError("terminal set failed the contractiveness re-check")
    if plan.purpose is Purpose.MU_APPROX:
        relations.append(
            {
                "relation": "accuracy_condition_1+mu<=2*lam^k",
                "step": stop,
                "slack": (1.0 + plan.accuracy) - 2.0 * lam**stop,
                "holds": 1.0 + plan.accuracy <= 2.0 * lam**stop * (1.0 + _CEIL_NUDGE),
            }
        )
    return ApproximationResult(
        terminal_set=terminal,
        k_star=stop,
        strategy=strategy,
        certified_relations=relations,
        per_iteration=records,
    )
