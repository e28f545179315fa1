"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with its
headline numbers once its assertions clear (run with ``pytest -v -s`` to see
the lines as they happen). Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np

from contracta import (
    Strategy,
    approximate_cmax1,
    compute_certificate,
    epsilon_plan,
    exact_k_oracle_1d,
    is_subset,
    iterate,
    iteration_bound,
    membership_certificate,
    scale,
    select_lambda,
    set_distance,
    support,
    symmetric_box,
    validate_cset,
)
from contracta.benchmarks import (
    oscillator_distance,
    oscillator_step_box,
    oscillator_system,
    scalar_seed,
    scalar_seed_halfwidth,
    scalar_state_halfwidth,
    scalar_system,
    stabilizable_system,
)
from contracta.scenario import run_scenario_dict
from conftest import nested_cset_pair, random_cset, random_controllable_system

EPSILONS = (0.01, 0.05, 0.1)
TABLE_A = {
    (2, 0.6): (192, 132, 106),
    (2, 0.8): (142, 98, 80),
    (2, 1.0): (112, 78, 64),
    (1, 0.6): (54, 37, 30),
    (1, 0.8): (54, 37, 30),
    (1, 1.0): (54, 37, 30),
}
TABLE_B = {0.6: (10, 8, 7), 0.8: (18, 13, 11), 1.0: (47, 30, 23)}


def announce(num, name, detail=""):
    print(f"ACCEPTANCE {num} {name}: PASS {detail}".rstrip())


def test_criterion_1_iteration_bound_grid():
    start = time.perf_counter()
    for (n, lam), expected in TABLE_A.items():
        sysn = scalar_system(n)
        eta = compute_certificate(sysn, lam).eta
        d = set_distance(scalar_seed(n), sysn.X).distance
        got = tuple(iteration_bound(eta, math.log1p(eps), d, n) for eps in EPSILONS)
        assert got == expected, f"grid mismatch at n={n}, lam={lam}: {got}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, "a-priori iteration bound grid", f"(exact integers, {elapsed:.2f}s)")


def test_criterion_2_exact_count_grid():
    start = time.perf_counter()
    for lam, expected in TABLE_B.items():
        got = tuple(exact_k_oracle_1d(lam, eps) for eps in EPSILONS)
        assert got == expected, f"exact grid mismatch at lam={lam}: {got}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(2, "exact 1-D iteration count grid", f"(exact integers, {elapsed:.2f}s)")


def test_criterion_3_rate_selection_pipeline():
    start = time.perf_counter()
    sys1 = scalar_system(1)
    seed = scalar_seed(1)
    mu = 5.0 / 6.0
    plan = select_lambda(sys1, 0.98, seed, mu)
    assert plan.k == 30
    assert abs(plan.lam - 0.9971) <= 5e-4
    assert abs(plan.branch_value - 1.0910) <= 1e-3
    outcome = approximate_cmax1(sys1, plan, seed, Strategy.ADAPTIVE_INCLUSION)
    assert outcome.k_star == 23
    conservatism = (plan.lam - 0.98) / (1.0 - 0.98)
    assert abs(conservatism - 0.8552) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(
        3,
        "rate-selection pipeline",
        f"(k=30, lam={plan.lam:.4f}, k*=23, ratio={conservatism:.4f}, {elapsed:.2f}s)",
    )


def test_criterion_4_scalar_closed_forms():
    sys1 = scalar_system(1)
    worst = 0.0
    for lam in (0.6, 0.8, 1.0):
        seq_c = iterate(sys1, lam, scalar_seed(1), 30)
        seq_x = iterate(sys1, lam, sys1.X, 30)
        for k in range(31):
            for seq, closed in ((seq_c, scalar_seed_halfwidth), (seq_x, scalar_state_halfwidth)):
                for direction in ((1.0,), (-1.0,)):
                    err = abs(support(seq.entries[k], direction) - closed(k, lam))
                    worst = max(worst, err)
                    assert err <= 1e-7
    announce(4, "scalar iterate endpoints vs closed form", f"(max err {worst:.2e})")


def test_criterion_5_rotation_example():
    sysr = oscillator_system()
    C = validate_cset(symmetric_box([1.0, 1.0]))
    D = validate_cset(symmetric_box([2.0, 1.0]))
    worst_d = worst_box = 0.0
    for lam in (0.5, 0.9, 1.0):
        seq_c = iterate(sysr, lam, C, 7)
        seq_d = iterate(sysr, lam, D, 7)
        # distance sequence against the closed form, including the j = 0 value ln 2
        for j in range(4):
            for k in (2 * j, 2 * j + 1):
                got = set_distance(seq_c.entries[k], seq_d.entries[k]).distance
                err = abs(got - oscillator_distance(lam, j))
                worst_d = max(worst_d, err)
                assert err <= 1e-8
        assert abs(
            set_distance(seq_c.entries[0], seq_d.entries[0]).distance - math.log(2.0)
        ) <= 1e-12
        # one-step engine against the box recursion
        for seq in (seq_c, seq_d):
            tau = (support(seq.entries[0], [1.0, 0.0]), support(seq.entries[0], [0.0, 1.0]))
            for k in range(1, 8):
                tau = oscillator_step_box(lam, *tau)
                for direction, expect in zip(([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]),
                                             (tau[0], tau[1], tau[0], tau[1])):
                    err = abs(support(seq.entries[k], direction) - expect)
                    worst_box = max(worst_box, err)
                    assert err <= 1e-9
    announce(5, "rotation distances and one-step boxes",
             f"(max dist err {worst_d:.2e}, max box err {worst_box:.2e})")


def test_criterion_6_stabilizable_counterexample():
    sysr = stabilizable_system()
    assert sysr.controllable is False
    C = validate_cset(symmetric_box([1.0]))
    D = validate_cset(symmetric_box([2.0]))
    for lam in (0.5, 0.8):
        seq_c = iterate(sysr, lam, C, 4)
        seq_d = iterate(sysr, lam, D, 4)
        for k in range(5):
            got = set_distance(seq_c.entries[k], seq_d.entries[k]).distance
            assert abs(got - math.log(2.0)) <= 1e-9
    report = run_scenario_dict({"task": {"reproduce": {"name": "stabilizable"}}})
    assert any("ln(2)" in w for w in report.warnings), "misprint warning missing"
    announce(6, "stabilizable counterexample", "(constant ln 2, no contraction, warning emitted)")


def test_criterion_7_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(501)

    # metric axioms on 200 random pairs (1-D and 2-D)
    for i in range(200):
        dim = 1 + i % 2
        C = random_cset(rng, dim)
        D = random_cset(rng, dim)
        E = random_cset(rng, dim)
        dcd = set_distance(C, D).distance
        assert abs(dcd - set_distance(D, C).distance) <= 1e-8
        assert dcd <= set_distance(C, E).distance + set_distance(D, E).distance + 1e-8
        assert set_distance(C, C).distance <= 1e-8

    # non-expansiveness and monotonicity along iterates, k <= 4
    for _ in range(15):
        sysr = random_controllable_system(rng)
        lam = float(rng.uniform(0.4, 1.0))
        C, D = nested_cset_pair(rng, 2)
        base = set_distance(C, D).distance
        seq_c = iterate(sysr, lam, C, 4)
        seq_d = iterate(sysr, lam, D, 4)
        for k in range(1, 5):
            assert is_subset(seq_c.entries[k], seq_d.entries[k])
            assert set_distance(seq_c.entries[k], seq_d.entries[k]).distance <= base + 1e-8

    # scaled unit-rate iterates stay inside the rate-lam iterates (50 instances)
    for _ in range(50):
        sysr = random_controllable_system(rng)
        D = random_cset(rng, 2)
        lam = float(rng.uniform(0.3, 0.95))
        k = int(rng.integers(1, 5))
        q_one = iterate(sysr, 1.0, D, k).entries[k]
        q_lam = iterate(sysr, lam, D, k).entries[k]
        assert is_subset(scale(q_one, lam**k), q_lam)

    # certified n-step contraction on 50 random controllable planar systems
    for _ in range(50):
        sysr = random_controllable_system(rng)
        lam = float(rng.uniform(0.3, 1.0))
        eta = compute_certificate(sysr, lam).eta
        C, D = nested_cset_pair(rng, 2)
        base = set_distance(C, D).distance
        qc = iterate(sysr, lam, C, 2).entries[2]
        qd = iterate(sysr, lam, D, 2).entries[2]
        assert set_distance(qc, qd).distance <= eta * base + 1e-8

    # membership program agrees with geometric membership (100 points/instance)
    for _ in range(3):
        sysr = random_controllable_system(rng)
        C = random_cset(rng, 2)
        lam = float(rng.uniform(0.5, 1.0))
        k = int(rng.integers(1, 4))
        target = iterate(sysr, lam, C, k).entries[k]
        checked = 0
        for _ in range(100):
            x = rng.uniform(-4.0, 4.0, size=2)
            inside = target.contains(x, tol=-1e-6)
            outside = not target.contains(x, tol=1e-6)
            if not (inside or outside):
                continue
            assert (membership_certificate(sysr, lam, C, x, k - 1) is not None) == inside
            checked += 1
        assert checked >= 80

    # inclusion guarantee after every epsilon plan (scalar families)
    for n in (1, 2):
        sysn = scalar_system(n)
        plan = epsilon_plan(sysn, 0.8, scalar_seed(n), 0.5)
        outcome = approximate_cmax1(sysn, plan, scalar_seed(n), Strategy.APRIORI_BOUND)
        qx_ok = outcome.per_iteration[-1]["inclusion_slack"] <= 1e-8
        assert qx_ok

    # accuracy sandwich on the rate-selection output
    sys1 = scalar_system(1)
    mu = 5.0 / 6.0
    plan = select_lambda(sys1, 0.98, scalar_seed(1), mu)
    outcome = approximate_cmax1(sys1, plan, scalar_seed(1), Strategy.ADAPTIVE_INCLUSION)
    target = validate_cset(symmetric_box([10.0 * mu]))
    assert is_subset(target, scale(outcome.terminal_set, 1.0 + 1e-8))

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(7, "property suites", f"({elapsed:.1f}s)")
