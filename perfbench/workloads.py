"""Workload inputs and output checks for the contracta benchmark.

A workload is a fixed list of ``Task`` objects built from the workload seed;
a run goes over it in passes, each in its own seed-drawn order. Each task
holds one scenario dict for ``contracta.scenario.run_scenario_dict`` and a
check that inspects the task's report outside the timed region. The workload
seed fixes everything a run feeds the library: task order, drawn seed boxes
and the sample points of the membership checks.

* ``ladder``  -- ``iterate`` from X at rate 0.9 over a fixed population of
  random controllable systems (see ``LADDER_CASES``). Almost all of the time
  goes into Fourier-Motzkin projection and tall redundancy-removal LPs.
* ``seeded``  -- ``select-lambda`` with a polytope seed drawn inside its
  closed-form contractive range, on the scalar family (n = 1..3) and the
  oscillator, half with the adaptive and half with the a-priori strategy.
  Time goes into thousands of LPs of 2-8 rows per task.
* ``reproduce`` -- the five built-in reproduction targets; the seed only
  changes their order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from contracta import benchmarks, scenario
from contracta.onestep import membership_certificate
from contracta.polytope import HPolytope, is_subset, radial, support, validate_cset

WORKLOADS = ("ladder", "seeded", "reproduce")

LADDER_LAMBDA = 0.9
# (n, m, k, system seeds). Every seed draws one system with
# ``random_controllable_system(np.random.default_rng(seed), n, m)``. The
# population is fixed rather than drawn from the workload seed: per-task time
# spans 0.03 s to 5 s across system seeds, so a run over a few dozen freshly
# drawn systems would measure which systems it drew, not the program. The
# two-input shape uses seeds 8-11 because seeds 2, 7 and 13 take 9-11 s
# each, and one of them would fill half a pass and leave a run room for a
# single pass.
LADDER_CASES = (
    (3, 1, 4, range(16)),
    (4, 1, 2, range(16)),
    (3, 2, 3, range(8, 12)),
)
# Facet counts of Q_0..Q_4 for (n, m, k) = (3, 1, 4) and system seed 7.
REFERENCE_FACETS = {(3, 1, 4, 7): [6, 16, 28, 44, 66]}

SEEDED_LAMBDA_STAR = 0.98
SEEDED_MU = 5.0 / 6.0
SEEDED_SYSTEMS = (("scalar", 1), ("scalar", 2), ("scalar", 3), ("oscillator", 2))
SEEDED_STRATEGIES = ("adaptive", "apriori")
SEEDED_DRAWS = 4  # boxes drawn per (system, strategy)
# Seed half widths are drawn within 10% of the paper's seed [-2, 2], inside
# the scalar family's contractive range (0, 1/(1.1 - lambda*)] = (0, 8.33].
# The planned k grows with ln(10 / w), so wider draws make the work of a pass
# depend on the draw more than on the program.
SEEDED_HALFWIDTH = (1.8, 2.2)

REPRODUCE_TARGETS = ("table1a", "table1b", "lambda-selection", "rotation-distances", "stabilizable")
REPRODUCE_REPEATS = 20  # tasks per target

# Reference values and tolerances of the acceptance suite.
TABLE_1A = {
    (2, 0.6): [192, 132, 106],
    (2, 0.8): [142, 98, 80],
    (2, 1.0): [112, 78, 64],
    (1, "any"): [54, 37, 30],
}
TABLE_1B = {0.6: [10, 8, 7], 0.8: [18, 13, 11], 1.0: [47, 30, 23]}


@dataclass
class Task:
    name: str
    scenario: dict
    # check(results, warnings) -> None when the report is right, else a reason.
    check: Callable[[dict, list], str | None]


def random_controllable_system(rng: np.random.Generator, n: int, m: int):
    """Draw ``(A, B, x_halfwidths, u_halfwidths)``.

    Same distribution and draw order as the test suite's
    ``random_controllable_system``: entries of A in [-1.2, 1.2], of B in
    [-1, 1], redrawn until the reachability matrix has sigma_min > 1e-2, then
    box half widths in [2, 5] for X and [0.5, 1.5] for U.
    """
    while True:
        A = rng.uniform(-1.2, 1.2, size=(n, n))
        B = rng.uniform(-1.0, 1.0, size=(n, m))
        reach = np.hstack([np.linalg.matrix_power(A, j) @ B for j in range(n - 1, -1, -1)])
        if np.linalg.svd(reach, compute_uv=False).min() > 1e-2:
            break
    return A, B, rng.uniform(2.0, 5.0, size=n), rng.uniform(0.5, 1.5, size=m)


def _box_block(halfwidths) -> dict:
    w = np.asarray(halfwidths, dtype=float)
    eye = np.eye(w.size)
    return {"H": np.vstack([eye, -eye]).tolist(), "b": np.concatenate([w, w]).tolist()}


def _system_block(A, B, X, U) -> dict:
    return {"A": np.asarray(A).tolist(), "B": np.asarray(B).tolist(), "X": X, "U": U}


def _polytope_block(p) -> dict:
    return {"H": p.H.tolist(), "b": p.b.tolist()}


class Workload:
    """The tasks of one workload for one workload seed.

    Construction builds and validates every input; this is the set-up the
    benchmark times.
    """

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.seed = seed
        if name == "ladder":
            self.tasks = _ladder_tasks(seed)
        elif name == "seeded":
            self.tasks = _seeded_tasks(seed)
        else:
            self.tasks = [
                _reproduce_task(t, r) for r in range(REPRODUCE_REPEATS) for t in REPRODUCE_TARGETS
            ]

    def pass_tasks(self, pass_index: int) -> list[Task]:
        order = np.random.default_rng((self.seed, 0, pass_index)).permutation(len(self.tasks))
        return [self.tasks[i] for i in order]


# --- ladder ---------------------------------------------------------------


def _ladder_tasks(seed: int) -> list[Task]:
    tasks = []
    for n, m, k, system_seeds in LADDER_CASES:
        for s in system_seeds:
            A, B, x_half, u_half = random_controllable_system(np.random.default_rng(s), n, m)
            data = {
                "system": _system_block(A, B, _box_block(x_half), _box_block(u_half)),
                "task": {"iterate": {"lambda": LADDER_LAMBDA, "k": k, "seed": "X"}},
            }
            system = scenario.validate_scenario(data).system
            check = _ladder_check(
                system, k, (seed, 1, len(tasks)), REFERENCE_FACETS.get((n, m, k, s))
            )
            tasks.append(Task(f"ladder/n{n}m{m}k{k}/sys{s}", data, check))
    return tasks


def _sample_points(rng: np.random.Generator, p) -> list[np.ndarray]:
    """Two interior, two exterior and two near-facet points (1e-4 either
    side of the boundary along a random ray)."""
    factors = [
        rng.uniform(0.2, 0.95),
        rng.uniform(0.2, 0.95),
        rng.uniform(1.05, 1.6),
        rng.uniform(1.05, 1.6),
        1.0 - 1e-4,
        1.0 + 1e-4,
    ]
    points = []
    for factor in factors:
        xi = rng.normal(size=p.dim)
        xi /= np.linalg.norm(xi)
        points.append(factor * radial(p, xi) * xi)
    return points


def _ladder_check(system, k: int, points_seed, expected_facets):
    def check(results: dict, warnings: list) -> str | None:
        sets = [validate_cset(HPolytope(s["H"], s["b"])) for s in results["sets"]]
        if len(sets) != k + 1:
            return f"{len(sets)} entries, expected {k + 1}"
        facets = [p.nfacets for p in sets]
        if facets != [r["facets"] for r in results["per_iteration"]]:
            return "per_iteration facet counts disagree with the returned sets"
        if expected_facets is not None and facets != expected_facets:
            return f"facet sequence {facets}, expected {expected_facets}"
        rng = np.random.default_rng(points_seed)
        for j in range(1, k + 1):
            if not is_subset(sets[j], sets[j - 1]):
                return f"Q_{j} is not inside Q_{j - 1}"
            for x in _sample_points(rng, sets[j]):
                inside = sets[j].contains(x, tol=0.0)
                certified = (
                    membership_certificate(system, LADDER_LAMBDA, system.X, x, j - 1) is not None
                )
                if inside != certified:
                    return f"membership of {x.tolist()} in Q_{j}: H-rep {inside}, LP {certified}"
        return None

    return check


# --- seeded ---------------------------------------------------------------


def _seeded_tasks(seed: int) -> list[Task]:
    rng = np.random.default_rng((seed, 2))
    tasks = []
    for family, n in SEEDED_SYSTEMS:
        for strategy, draw in itertools.product(SEEDED_STRATEGIES, range(SEEDED_DRAWS)):
            if family == "scalar":
                system = benchmarks.scalar_system(n)
                widths = rng.uniform(*SEEDED_HALFWIDTH, size=n)
            else:
                system = benchmarks.oscillator_system()
                widths = _oscillator_seed(rng, SEEDED_LAMBDA_STAR)
            data = {
                "system": _system_block(
                    system.A, system.B, _polytope_block(system.X), _polytope_block(system.U)
                ),
                "seed": {"polytope": _box_block(widths), "lambda": SEEDED_LAMBDA_STAR},
                "task": {
                    "select-lambda": {
                        "lambda-star": SEEDED_LAMBDA_STAR,
                        "mu": SEEDED_MU,
                        "strategy": strategy,
                    }
                },
            }
            scenario.validate_scenario(data)
            tasks.append(
                Task(
                    f"seeded/{family}{n}/{strategy}/{draw}",
                    data,
                    _seeded_check(strategy, widths if family == "scalar" else None),
                )
            )
    return tasks


def _oscillator_seed(rng: np.random.Generator, lam: float) -> np.ndarray:
    """Box half widths (tau1, tau2) inside the oscillator's closed-form
    contractive range tau2 <= lam tau1, tau1 <= lam tau2 + 1: with
    tau2 in [0.8, 0.9] lam tau1 both hold for every tau1 <= 4."""
    tau1 = rng.uniform(*SEEDED_HALFWIDTH)
    return np.array([tau1, lam * tau1 * rng.uniform(0.8, 0.9)])


def scalar_halfwidth(w: float, k: int, lam: float) -> float:
    """Half width of the k-th scalar-family iterate from the box [-w, w];
    ``benchmarks.scalar_seed_halfwidth`` is the case w = 2."""
    q = (lam / 1.1) ** k
    return w * q + (1.0 - q) / (1.1 - lam)


def _seeded_check(strategy: str, scalar_widths):
    def check(results: dict, warnings: list) -> str | None:
        plan, approx = results["plan"], results["approximation"]
        failing = [r["relation"] for r in approx["certified_relations"] if not r["holds"]]
        if failing:
            return f"certified relations do not hold: {failing}"
        k_star = approx["iterations"]
        if k_star > plan["k"] or (strategy == "apriori" and k_star != plan["k"]):
            return f"k* = {k_star} with planned k = {plan['k']} ({strategy})"
        if scalar_widths is None:
            return None
        terminal = HPolytope(approx["terminal_set"]["H"], approx["terminal_set"]["b"])
        for i, w in enumerate(scalar_widths):
            want = scalar_halfwidth(w, k_star, plan["lambda"])
            for sign in (1.0, -1.0):
                direction = np.zeros(len(scalar_widths))
                direction[i] = sign
                got = support(terminal, direction)
                if abs(got - want) > 1e-9:
                    return f"terminal half width {got!r} on axis {i}, closed form {want!r}"
        return None

    return check


# --- reproduce ------------------------------------------------------------


def _reproduce_task(target: str, replicate: int) -> Task:
    data = {"task": {"reproduce": {"name": target}}}
    scenario.validate_scenario(data)
    return Task(f"reproduce/{target}/{replicate}", data, _REPRODUCE_CHECKS[target])


def _check_table1a(results: dict, warnings: list) -> str | None:
    got = {(row["n"], row["lambda"]): row["k"] for row in results["grid"]}
    return None if got == TABLE_1A else f"Table 1a grid {got}"


def _check_table1b(results: dict, warnings: list) -> str | None:
    got = {row["lambda"]: row["k"] for row in results["grid"]}
    return None if got == TABLE_1B else f"Table 1b grid {got}"


def _check_lambda_selection(results: dict, warnings: list) -> str | None:
    expected = (
        results["k"] == 30
        and abs(results["lambda"] - 0.9971) <= 5e-4
        and abs(results["branch_value"] - 1.0910) <= 1e-3
        and results["adaptive_k_star"] == 23
        and abs(results["conservatism_ratio"] - 0.8552) <= 1e-3
        and results["accuracy_inclusion_holds"]
    )
    if expected:
        return None
    return (
        f"k={results['k']} lambda={results['lambda']} branch={results['branch_value']} "
        f"k*={results['adaptive_k_star']} ratio={results['conservatism_ratio']}"
    )


def _check_rotation(results: dict, warnings: list) -> str | None:
    worst = max(abs(r["distance"] - r["closed_form"]) for r in results["rows"])
    if worst > 1e-8:
        return f"rotation distance error {worst!r}"
    for r in results["rows"]:
        if r["step"] == 0 and abs(r["distance"] - math.log(2.0)) > 1e-12:
            return f"step-0 distance {r['distance']!r} at lambda {r['lambda']}, expected ln 2"
    if not any("[1,1]" in w for w in warnings):
        return "misprint warning for the [1,1] interval missing"
    return None


def _check_stabilizable(results: dict, warnings: list) -> str | None:
    worst = max(abs(r["distance"] - math.log(2.0)) for r in results["rows"])
    if worst > 1e-9:
        return f"distance deviates from ln 2 by {worst!r}"
    if results["controllable"] is not False:
        return "stabilizable system reported controllable"
    if not any("ln(2)" in w for w in warnings):
        return "misprint warning for the ln 2 distance missing"
    return None


_REPRODUCE_CHECKS = {
    "table1a": _check_table1a,
    "table1b": _check_table1b,
    "lambda-selection": _check_lambda_selection,
    "rotation-distances": _check_rotation,
    "stabilizable": _check_stabilizable,
}
