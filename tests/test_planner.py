import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from contracta import (
    HPolytope,
    Purpose,
    SeedLabel,
    Strategy,
    SystemModel,
    approximate_cmax1,
    epsilon_plan,
    exact_k_oracle_1d,
    is_subset,
    iterate,
    iteration_bound,
    scale,
    select_lambda,
    set_distance,
    support_many,
    symmetric_box,
    validate_cset,
)
from contracta import onestep, planner
from contracta import polytope as polytope_module
from contracta.benchmarks import scalar_seed, scalar_system
from contracta.certificate import compute_certificate
from contracta.errors import (
    ComputationError,
    FacetBudgetError,
    SeedNotContractiveError,
    ValidationError,
)
from contracta.scenario import run_scenario_dict
from conftest import count_lps

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

ETA_1D = 10.0 / 11.0
LN5 = math.log(5.0)

TABLE_A = {
    (2, 0.6): (192, 132, 106),
    (2, 0.8): (142, 98, 80),
    (2, 1.0): (112, 78, 64),
    (1, 0.6): (54, 37, 30),
    (1, 0.8): (54, 37, 30),
    (1, 1.0): (54, 37, 30),
}
TABLE_B = {0.6: (10, 8, 7), 0.8: (18, 13, 11), 1.0: (47, 30, 23)}
EPSILONS = (0.01, 0.05, 0.1)


class TestIterationBound:
    def test_one_dimensional_bound(self):
        assert iteration_bound(ETA_1D, math.log(1.01), LN5, 1) == 54

    def test_two_dimensional_bound(self):
        sys2 = scalar_system(2)
        from contracta import compute_certificate

        eta = compute_certificate(sys2, 0.6).eta
        assert iteration_bound(eta, math.log(1.01), LN5, 2) == 192

    def test_degenerate_when_close(self):
        assert iteration_bound(0.9, 1.0, 0.5, 3) == 0
        assert iteration_bound(0.9, 1.0, 1.0, 3) == 0

    def test_zero_contraction_factor(self):
        # at eta = 0 one n-step block takes any distance to 0
        assert iteration_bound(0.0, 0.1, 1.0, 2) == 2
        assert iteration_bound(0.0, 1.0, 0.5, 3) == 0

    @pytest.mark.parametrize("distance", [math.nan, math.inf])
    def test_nonfinite_distance_rejected(self, distance):
        with pytest.raises(ValidationError, match="distance must be finite"):
            iteration_bound(0.5, 0.1, distance, 2)

    def test_guards(self):
        with pytest.raises(ValidationError):
            iteration_bound(1.0, 0.1, 1.0, 1)
        with pytest.raises(ValidationError):
            iteration_bound(0.9, 0.0, 1.0, 1)


class TestEpsilonPlan:
    @pytest.mark.parametrize("n,lam", list(TABLE_A))
    def test_reference_grid(self, n, lam):
        sysn = scalar_system(n)
        seed = scalar_seed(n)
        ks = tuple(epsilon_plan(sysn, lam, seed, eps).k for eps in EPSILONS)
        assert ks == TABLE_A[(n, lam)]

    def test_plan_fields(self):
        plan = epsilon_plan(scalar_system(1), 0.8, scalar_seed(1), 0.1)
        assert plan.purpose is Purpose.EPSILON_APPROX
        assert plan.k == 30
        assert plan.delta == pytest.approx(math.log(1.1))
        assert plan.d_seed_state == pytest.approx(LN5, abs=1e-9)
        assert plan.eta == pytest.approx(ETA_1D, abs=1e-12)

    def test_large_epsilon_needs_no_iterations(self):
        plan = epsilon_plan(scalar_system(1), 0.8, scalar_seed(1), 4.0)
        assert plan.k == 0

    def test_noncontractive_seed_rejected(self):
        with pytest.raises(SeedNotContractiveError):
            epsilon_plan(scalar_system(1), 0.5, scalar_seed(1), 0.1)

    def test_five_dimensional_plan(self):
        # planning has no dimension limit; eta in closed form as for n <= 3
        n, lam = 5, 0.8
        plan = epsilon_plan(scalar_system(n), lam, scalar_seed(n), 0.1)
        sigma = math.sqrt((1.21**n - 1.0) / 0.21)
        rho = lam ** (n - 1) / 1.1**n * min(5.0, sigma)
        assert plan.eta == pytest.approx(1.0 - rho / (10.0 * math.sqrt(n)), rel=1e-9)
        assert plan.d_seed_state == pytest.approx(LN5, abs=1e-9)
        assert plan.k == 445
        with pytest.raises(SeedNotContractiveError):
            epsilon_plan(scalar_system(n), 0.5, scalar_seed(n), 0.1)

    def test_five_dimensional_cross_polytope_state_set(self):
        # X = {|x|_1 <= 5}: the exact outer radius 5 replaced a bounding box
        # of sqrt(125) = 11.1803, which gave eta 0.95926 and k = 385
        n, lam = 5, 0.9
        signs = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
        scalar = scalar_system(n)
        X = validate_cset(HPolytope(signs, np.full(32, 5.0)))
        seed = validate_cset(symmetric_box([0.5] * n))
        plan = epsilon_plan(SystemModel(scalar.A, scalar.B, X, scalar.U), lam, seed, 0.1)
        rho = lam ** (n - 1) / 1.1**n * math.sqrt(n) / 2.0  # r_x_lo / 2 is the smaller term
        assert plan.certificate.r_x_hi == pytest.approx(5.0, abs=1e-12)
        assert plan.eta == pytest.approx(1.0 - rho / 5.0, rel=1e-12)
        assert plan.eta == pytest.approx(0.9089056137, abs=1e-10)
        assert plan.d_seed_state == pytest.approx(math.log(10.0), abs=1e-12)  # along each axis
        assert plan.k == 170

    def test_cross_polytope_plan_ties_take_the_all_rows_test(self, monkeypatch):
        # scripts/cross5_plan_scenario.json: the one-step sets of X = {|x|_1 <= 5}
        # are degenerate shadows whose ray hits tie; the 1,217 rows whose tied
        # hit finds no row inserted in its round take the all-rows LP, and the
        # plan's other LPs are support LPs
        scenario = json.loads((SCRIPTS / "cross5_plan_scenario.json").read_text())
        lps = count_lps(monkeypatch)
        reading, solved = [], []
        supports, solve = polytope_module._support_lps, polytope_module._solve_or_fault

        def read(p, directions):
            reading.append(p)
            try:
                return supports(p, directions)
            finally:
                reading.pop()

        def solving(*lp):
            if not reading:
                solved.append(lp)
            return solve(*lp)

        monkeypatch.setattr(polytope_module, "_support_lps", read)
        monkeypatch.setattr(polytope_module, "_solve_or_fault", solving)
        plan = run_scenario_dict(scenario).results["plan"]
        assert len(solved) == 1217
        assert lps[0] == 1217 + 172
        assert plan["k"] == 120
        assert plan["eta"] == 0.9089056137473465


class TestExactOracle:
    @pytest.mark.parametrize("lam", list(TABLE_B))
    def test_reference_grid(self, lam):
        assert tuple(exact_k_oracle_1d(lam, eps) for eps in EPSILONS) == TABLE_B[lam]

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            exact_k_oracle_1d(0.5, 0.1)
        with pytest.raises(ValidationError):
            exact_k_oracle_1d(0.8, 5.0)


class TestSelectLambda:
    def test_reference_pipeline(self):
        plan = select_lambda(scalar_system(1), 0.98, scalar_seed(1), 5.0 / 6.0)
        assert plan.case == "ii"
        assert plan.k == 30
        assert plan.branch_value == pytest.approx(2.0 * 0.98**30, rel=1e-12)
        assert plan.branch_value == pytest.approx(1.0910, abs=1e-3)
        assert plan.lam == pytest.approx(0.9971, abs=5e-4)
        assert plan.purpose is Purpose.MU_APPROX
        # the rate is exact by construction: 2 lam^k = 1 + mu
        assert 2.0 * plan.lam**plan.k == pytest.approx(1.0 + 5.0 / 6.0, rel=1e-12)

    def test_case_i_when_budget_is_zero(self):
        # mu = 1/9 gives eps = 4, the whole distance is inside delta
        plan = select_lambda(scalar_system(1), 0.98, scalar_seed(1), 1.0 / 9.0)
        assert plan.case == "i"
        assert plan.k == 0
        assert plan.lam == pytest.approx(0.98)

    def test_case_ii_with_low_initial_rate(self):
        plan = select_lambda(scalar_system(1), 0.6, scalar_seed(1), 0.5)
        assert plan.case == "ii"
        assert plan.k == 15
        assert plan.lam == pytest.approx(0.75 ** (1.0 / 15.0), rel=1e-12)
        assert 1.5 <= 2.0 * plan.lam**plan.k + 1e-12

    def test_branch_condition_checked_both_ways(self):
        # brute-force the branch on a grid of accuracies
        sys1 = scalar_system(1)
        seed = scalar_seed(1)
        for mu in (0.05, 0.2, 0.5, 0.8, 5.0 / 6.0):
            plan = select_lambda(sys1, 0.9, seed, mu)
            eps = (1.0 - mu) / (2.0 * mu)
            base = epsilon_plan(sys1, 0.9, seed, eps)
            expected_case = "i" if 1.0 + mu <= 2.0 * 0.9**base.k * (1 + 1e-12) else "ii"
            assert plan.case == expected_case
            assert plan.k == base.k
            assert 1.0 + mu <= 2.0 * plan.lam**plan.k * (1.0 + 1e-9)

    def test_guards(self):
        with pytest.raises(ValidationError):
            select_lambda(scalar_system(1), 1.0, scalar_seed(1), 0.5)
        with pytest.raises(ValidationError):
            select_lambda(scalar_system(1), 0.9, scalar_seed(1), 1.0)
        with pytest.raises(SeedNotContractiveError):
            select_lambda(scalar_system(1), 0.5, scalar_seed(1), 0.5)


class TestApproximation:
    def test_adaptive_matches_exact_first_hit(self):
        sys1 = scalar_system(1)
        seed = scalar_seed(1)
        plan = select_lambda(sys1, 0.98, seed, 5.0 / 6.0)
        outcome = approximate_cmax1(sys1, plan, seed, Strategy.ADAPTIVE_INCLUSION)
        assert outcome.k_star == 23
        assert outcome.k_star == exact_k_oracle_1d(plan.lam, plan.epsilon)

    @pytest.mark.parametrize("lam,eps,expected", [(0.8, 0.05, 13), (0.6, 0.1, 7), (1.0, 0.1, 23)])
    def test_adaptive_first_hit_grid(self, lam, eps, expected):
        sys1 = scalar_system(1)
        seed = scalar_seed(1)
        plan = epsilon_plan(sys1, lam, seed, eps)
        outcome = approximate_cmax1(sys1, plan, seed, Strategy.ADAPTIVE_INCLUSION)
        assert outcome.k_star == expected
        assert outcome.k_star == exact_k_oracle_1d(lam, eps)
        assert outcome.k_star <= plan.k

    def test_apriori_runs_full_budget_and_dominates_adaptive(self):
        sys1 = scalar_system(1)
        seed = scalar_seed(1)
        plan = epsilon_plan(sys1, 0.8, seed, 0.1)
        assert plan.k == 30
        full = approximate_cmax1(sys1, plan, seed, Strategy.APRIORI_BOUND)
        early = approximate_cmax1(sys1, plan, seed, Strategy.ADAPTIVE_INCLUSION)
        assert full.k_star == 30
        assert is_subset(early.terminal_set, full.terminal_set)
        assert all(r["holds"] for r in full.certified_relations)

    def test_guarantee_inclusion_after_plan(self):
        for n in (1, 2):
            sysn = scalar_system(n)
            seed = scalar_seed(n)
            plan = epsilon_plan(sysn, 0.8, seed, 0.5)
            outcome = approximate_cmax1(sysn, plan, seed, Strategy.APRIORI_BOUND)
            state_entry = outcome.per_iteration[-1]
            assert state_entry["inclusion_slack"] <= 1e-9

    def test_accuracy_sandwich_on_reference_pipeline(self):
        sys1 = scalar_system(1)
        seed = scalar_seed(1)
        mu = 5.0 / 6.0
        plan = select_lambda(sys1, 0.98, seed, mu)
        outcome = approximate_cmax1(sys1, plan, seed, Strategy.ADAPTIVE_INCLUSION)
        target = validate_cset(symmetric_box([10.0 * mu]))
        assert is_subset(target, scale(outcome.terminal_set, 1.0 + 1e-9))
        assert 1.0 + mu <= 2.0 * plan.lam**outcome.k_star * (1.0 + 1e-12)

    def test_seed_gate(self):
        sys1 = scalar_system(1)
        bad = validate_cset(symmetric_box([9.0]))
        plan = epsilon_plan(sys1, 0.8, scalar_seed(1), 0.1)
        with pytest.raises(SeedNotContractiveError):
            approximate_cmax1(sys1, plan, bad, Strategy.ADAPTIVE_INCLUSION)

    def test_seed_gate_without_steps(self):
        # [-9, 9] plans k = 0 at rate 1 and eps = 0.2; the gate still runs
        sys1 = scalar_system(1)
        plan = epsilon_plan(sys1, 1.0, validate_cset(symmetric_box([9.0])), 0.2)
        assert plan.k == 0
        bad = validate_cset(symmetric_box([20.0]))
        for strategy in Strategy:
            with pytest.raises(SeedNotContractiveError, match="not 1.0-contractive"):
                approximate_cmax1(sys1, plan, bad, strategy)
            outcome = approximate_cmax1(sys1, plan, validate_cset(symmetric_box([9.0])), strategy)
            assert outcome.k_star == 0

    def test_one_projection_of_the_seed(self, monkeypatch):
        # the gate is the seed's first step: 2 k* projections, the gate and
        # the terminal re-check; step 1 of the seed is the gate's memo hit
        sys2, seed = scalar_system(2), scalar_seed(2)
        plan = select_lambda(sys2, 0.98, seed, 5.0 / 6.0)
        assert plan.k == 64
        original, project_once = onestep.one_step_set, onestep._project
        targets, projected = [], []  # one_step_set targets; the projected ones

        def counted(sys, lam, D):
            targets.append(D)
            return original(sys, lam, D)

        def projecting(p, keep, cap, plans):
            projected.append(targets[-1])
            return project_once(p, keep, cap, plans)

        monkeypatch.setattr(onestep, "one_step_set", counted)
        monkeypatch.setattr(planner, "one_step_set", counted)
        monkeypatch.setattr(onestep, "_project", projecting)
        for strategy, k_star in ((Strategy.ADAPTIVE_INCLUSION, 23), (Strategy.APRIORI_BOUND, 64)):
            projected.clear()
            # a fresh system each time, whose memo holds none of the sets
            fresh = SystemModel(sys2.A, sys2.B, sys2.X, sys2.U)
            outcome = approximate_cmax1(fresh, plan, seed, strategy)
            assert outcome.k_star == k_star
            assert sum(D is seed for D in projected) == 1
            assert len(projected) == 2 * k_star + 1

    def test_plans_once_per_normals(self, monkeypatch):
        # the a-priori run's 205 lifts have 2 targets' normals: it plans 2
        # lifts and 4 eliminations (collapsed after its first elimination,
        # the second target's rows are the first's), and all others replay.
        # The one cold reduction makes no plan and takes remove_redundancy;
        # the 204 replayed ones plan once and, each row decided by the
        # first trace, never take it
        sys3, seed = scalar_system(3), scalar_seed(3)
        plan = select_lambda(sys3, 0.98, seed, 5.0 / 6.0)
        fresh = SystemModel(sys3.A, sys3.B, sys3.X, sys3.U)
        lift, eliminate, replay = onestep._lift, polytope_module._eliminate, (
            polytope_module._Elimination.replay)
        reduce, remove_redundancy = polytope_module._Elimination.reduce, (
            polytope_module.remove_redundancy)
        targets, made, replayed, reduced = [], [], [], []

        def lifting(sys, lam, D):
            targets.append(D.H.tobytes())
            return lift(sys, lam, D)

        def eliminating(*args):
            made.append(args[2])
            return eliminate(*args)

        def replaying(self, b, cap):
            replayed.append(len(b))
            return replay(self, b, cap)

        def reducing(self, shadow):
            reduced.append((id(self), self.reduction is None))  # None: not planned yet
            return reduce(self, shadow)

        monkeypatch.setattr(onestep, "_lift", lifting)
        monkeypatch.setattr(polytope_module, "_eliminate", eliminating)
        monkeypatch.setattr(polytope_module._Elimination, "replay", replaying)
        monkeypatch.setattr(polytope_module._Elimination, "reduce", reducing)
        monkeypatch.setattr(polytope_module, "remove_redundancy",
                            lambda p: reduced.append("cold") or remove_redundancy(p))
        outcome = approximate_cmax1(fresh, plan, seed, Strategy.APRIORI_BOUND)
        assert outcome.k_star == plan.k == 102 and len(targets) == 2 * plan.k + 1
        assert len(set(targets)) == 2
        assert sorted(type(key).__name__ for key in fresh._plans) == ["bytes"] * 2 + ["tuple"] * 4
        assert made == [5, 4, 3, 5] and len(replayed) == 3 * len(targets) - 4
        assert reduced[0] == "cold" and len(reduced) == len(targets)
        assert len({plan for plan, _ in reduced[1:]}) == 1  # one plan reduces every replay
        assert [unplanned for _, unplanned in reduced[1:]] == [True] + [False] * (len(targets) - 2)

    def test_support_lps_once_per_polytope(self, monkeypatch):
        # the slack, the distance and the steps' inclusion tests ask the same
        # iterates for the same directions; their memos solve each LP once
        sys2, seed = scalar_system(2), scalar_seed(2)
        plan = select_lambda(sys2, 0.98, seed, 5.0 / 6.0)
        lps = count_lps(monkeypatch)
        for strategy, bound in ((Strategy.ADAPTIVE_INCLUSION, 280), (Strategy.APRIORI_BOUND, 772)):
            lps[0] = 0
            approximate_cmax1(sys2, plan, seed, strategy)
            assert lps[0] <= bound

    @pytest.mark.parametrize("shrink", [True, False])
    def test_seed_failure_before_state_projection_error(self, monkeypatch, shrink):
        # step 2 projects both iterates before it verifies either: a seed that
        # fails to expand still raises before the state's projection error
        sys2, seed = scalar_system(2), scalar_seed(2)
        plan = select_lambda(sys2, 0.98, seed, 5.0 / 6.0)
        original = onestep.one_step_set
        seeds, states = [seed], []

        def faulty(sys, lam, D):
            if any(D is s for s in seeds[:-1]):  # step 1 of the seed: the gate's memo
                return original(sys, lam, D)
            if D is seeds[-1]:
                seeds.append(original(sys, lam, D))
                if shrink and len(seeds) == 3:  # the seed's step 2 shrinks
                    seeds[-1] = scale(seeds[-1], 0.5)
                return seeds[-1]
            states.append(D)
            if len(states) == 2:
                raise FacetBudgetError("state projection at step 2")
            return original(sys, lam, D)

        monkeypatch.setattr(onestep, "one_step_set", faulty)
        monkeypatch.setattr(planner, "one_step_set", faulty)
        expected = (ComputationError, "failed to expand at step 2") if shrink else (
            FacetBudgetError, "state projection at step 2"
        )
        with pytest.raises(expected[0], match=expected[1]):
            approximate_cmax1(sys2, plan, seed, Strategy.APRIORI_BOUND)
        assert len(seeds) == 3 and len(states) == 2  # both step-2 projections ran

    @pytest.mark.parametrize("faulty", [("seed", "state"), ("state",)])
    def test_pooled_lp_faults_raise_in_step_order(self, monkeypatch, lp_supports, faulty):
        # step 2 projects both iterates before it verifies either; when the
        # seed's and the state's verification LPs both fault, the seed's
        # fault is raised
        sys3, seed = scalar_system(3), oblique_seed()
        plan = epsilon_plan(sys3, 0.9, seed, 0.5)  # below rate 1 the state set shrinks
        assert approximate_cmax1(sys3, plan, seed, Strategy.ADAPTIVE_INCLUSION).k_star >= 2
        made = []  # one-step sets in projection order: seed_1, state_1, seed_2, state_2, ...
        original, solve = onestep.one_step_set, polytope_module._solve_or_fault

        def recorded(sys, lam, D):
            q = original(sys, lam, D)
            if all(q is not m for m in made):  # not a memo hit (seed step 1 is the gate's)
                made.append(q)
            return q

        def injected(c, A, b):
            if len(made) >= 4:
                seed_1, seed_2, state_2 = made[0], made[2], made[3]
                along_seed_2 = (seed_2.H == c).all(axis=1).any()
                if "seed" in faulty and np.array_equal(A, seed_1.H) and along_seed_2:
                    return ComputationError("seed fault")
                if "state" in faulty and np.array_equal(A, state_2.H):
                    return ComputationError("state fault")
            return solve(c, A, b)

        monkeypatch.setattr(onestep, "one_step_set", recorded)
        monkeypatch.setattr(planner, "one_step_set", recorded)
        monkeypatch.setattr(polytope_module, "_solve_or_fault", injected)
        fresh = SystemModel(sys3.A, sys3.B, sys3.X, sys3.U)  # sys3's memo holds the steps
        with pytest.raises(ComputationError, match=f"^{faulty[0]} fault$"):
            approximate_cmax1(fresh, plan, seed, Strategy.ADAPTIVE_INCLUSION)
        assert len(made) == 4 and made[3] is not made[1]  # raised at step 2

    @pytest.mark.parametrize("faulty", [("seed", "state"), ("state",)])
    def test_window_lp_faults_raise_in_step_order(self, monkeypatch, lp_supports, faulty):
        # an a-priori run raises a seed fault at step 2 before a state fault
        # at step 5
        sys3, seed = scalar_system(3), oblique_seed()
        plan = epsilon_plan(sys3, 0.9, seed, 0.5)
        assert plan.k > 5
        made = []  # one-step sets in projection order: seed_1, state_1, seed_2, state_2, ...
        original, solve = onestep.one_step_set, polytope_module._solve_or_fault

        def recorded(sys, lam, D):
            q = original(sys, lam, D)
            if all(q is not m for m in made):
                made.append(q)
            return q

        def over(p, A, b):  # the state iterates share their normals
            return np.array_equal(A, p.H) and np.array_equal(b, p.b)

        def along(p, c):  # a facet normal of p: seed_1 along seed_2's is step 2
            return (p.H == c).all(axis=1).any()

        def injected(c, A, b):
            if "seed" in faulty and len(made) >= 4:
                seed_1, state_1, seed_2 = made[0], made[1], made[2]
                if over(seed_1, A, b) and along(seed_2, c) and not along(state_1, c):
                    return ComputationError("seed fault")
            if "state" in faulty and len(made) >= 10 and over(made[9], A, b):
                return ComputationError("state fault")
            return solve(c, A, b)

        monkeypatch.setattr(onestep, "one_step_set", recorded)
        monkeypatch.setattr(planner, "one_step_set", recorded)
        monkeypatch.setattr(polytope_module, "_solve_or_fault", injected)
        fresh = SystemModel(sys3.A, sys3.B, sys3.X, sys3.U)
        with pytest.raises(ComputationError, match=f"^{faulty[0]} fault$"):
            approximate_cmax1(fresh, plan, seed, Strategy.APRIORI_BOUND)

    @pytest.mark.parametrize("oblique", [False, True])
    def test_apriori_records_match_adaptive_bits(self, oblique):
        # both strategies take the same steps; no record moves a bit
        def case():
            if oblique:
                sys3, seed = scalar_system(3), oblique_seed()
                return sys3, epsilon_plan(sys3, 0.9, seed, 0.5), seed
            sys2, seed = scalar_system(2), scalar_seed(2)
            return sys2, select_lambda(sys2, 0.98, seed, 5.0 / 6.0), seed

        adaptive = approximate_cmax1(*case(), Strategy.ADAPTIVE_INCLUSION)
        sysn, plan, seed = case()  # fresh sets: no memo of the adaptive run
        full = approximate_cmax1(sysn, plan, seed, Strategy.APRIORI_BOUND)
        k_star = adaptive.k_star
        assert (plan.k, k_star) == ((102, 8) if oblique else (64, 23))
        assert repr(full.per_iteration[: k_star + 1]) == repr(adaptive.per_iteration)
        assert len(full.per_iteration) == plan.k + 1

    def test_apriori_run_solves_no_lp(self, monkeypatch):
        # every support is along a set's own facet normal, certified in its
        # memo with no LP: the seed's normals -e_1 and -e_2, whose zeros are
        # -0, share their memo keys with the +0 rows of the sets asked
        sys2, seed = scalar_system(2), scalar_seed(2)
        plan = select_lambda(sys2, 0.98, seed, 5.0 / 6.0)
        assert plan.k == 64
        lps = count_lps(monkeypatch)
        approximate_cmax1(sys2, plan, seed, Strategy.APRIORI_BOUND)
        assert lps[0] == 0

    def test_slack_and_distance_on_oblique_facets(self):
        sys3, seed = scalar_system(3), oblique_seed()
        lam, eps = 1.0, 0.5
        plan = epsilon_plan(sys3, lam, seed, eps)
        outcome = approximate_cmax1(sys3, plan, seed, Strategy.ADAPTIVE_INCLUSION)
        steps = outcome.k_star
        assert 0 < steps < plan.k
        seeds = iterate(sys3, lam, seed, steps, SeedLabel.CONTRACTIVE).entries
        states = iterate(sys3, lam, sys3.X, steps, SeedLabel.FROM_STATE_SET).entries
        assert len(outcome.per_iteration) == steps + 1
        for record, seed_j, state_j in zip(outcome.per_iteration, seeds, states):
            S = scale(seed_j, 1.0 + eps)
            expected = float(np.max(support_many(state_j, S.H) - S.b))
            assert record["inclusion_slack"] == expected
            assert record["distance"] == set_distance(seed_j, state_j).distance


def oblique_seed():
    """A seed with oblique facets for the 3-D scalar benchmark.

    It lies in the box of half width 0.9 < 1 / 1.1, where ``u = -1.1 x`` is
    admissible and steers every point to the origin, so it is contractive
    at every rate.
    """
    rng = np.random.default_rng(0)
    H = np.vstack([rng.normal(size=(6, 3)), np.eye(3), -np.eye(3)])
    b = np.concatenate([rng.uniform(0.4, 0.8, size=6), np.full(6, 0.9)])
    return validate_cset(HPolytope(H, b))


class TestPlanCertificate:
    @pytest.mark.parametrize("mu,case", [(1.0 / 9.0, "i"), (5.0 / 6.0, "ii")])
    def test_plan_carries_its_certificate(self, mu, case):
        sys1 = scalar_system(1)
        plan = select_lambda(sys1, 0.98, scalar_seed(1), mu)
        assert plan.case == case
        assert plan.certificate.lam == plan.lam
        assert plan.certificate.as_dict() == compute_certificate(sys1, plan.lam).as_dict()
        assert plan.as_dict()["eta"] == plan.eta == plan.certificate.eta
