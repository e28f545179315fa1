"""Built-in reproduction targets over the benchmark systems.

Each target recomputes a published reference grid or sequence from scratch
through the public pipeline and reports both the computed values and the
reference values side by side. Known misprints in the reference data are
surfaced as warnings, never silently corrected.
"""

from __future__ import annotations

import math

import numpy as np

from . import benchmarks as bm
from .errors import ComputationError, ValidationError
from .metric import set_distances
from .onestep import iterate
from .planner import (
    Strategy,
    approximate_cmax1,
    epsilon_plan,
    exact_k_oracle_1d,
    iteration_bound,
    select_lambda,
)
from .polytope import support, symmetric_box, validate_cset

TARGETS = ("table1a", "table1b", "lambda-selection", "rotation-distances", "stabilizable")

_LAMBDAS = (0.6, 0.8, 1.0)
_EPSILONS = (0.01, 0.05, 0.1)


def run(name: str):
    if name not in TARGETS:
        raise ValidationError(f"unknown reproduction target {name!r}; choose from {TARGETS}")
    return _RUNNERS[name]()


def _table1a():
    rows = []
    for n in (2, 1):
        sysn = bm.scalar_system(n)
        seed = bm.scalar_seed(n)
        for lam in _LAMBDAS:
            # only k depends on eps; it is the bound epsilon_plan computes
            plan = epsilon_plan(sysn, lam, seed, _EPSILONS[0])
            ks = [
                iteration_bound(plan.eta, math.log1p(eps), plan.d_seed_state, n)
                for eps in _EPSILONS
            ]
            rows.append({"n": n, "lambda": lam, "epsilons": list(_EPSILONS), "k": ks})
    # the scalar rows are rate independent; collapse them to a single entry
    scalar = [r for r in rows if r["n"] == 1]
    if any(r["k"] != scalar[0]["k"] for r in scalar):
        raise ComputationError("scalar Table 1a rows depend on the rate; they cannot be collapsed")
    rows = [r for r in rows if r["n"] == 2] + [
        {"n": 1, "lambda": "any", "epsilons": list(_EPSILONS), "k": scalar[0]["k"]}
    ]
    return {
        "grid": rows,
        "csv": _grid_csv(rows, key="lambda"),
    }, []


def _table1b():
    rows = []
    for lam in _LAMBDAS:
        ks = [exact_k_oracle_1d(lam, eps) for eps in _EPSILONS]
        rows.append({"lambda": lam, "epsilons": list(_EPSILONS), "k": ks})
    return {"grid": rows, "csv": _grid_csv(rows, key="lambda", with_n=False)}, []


def _grid_csv(rows, key: str, with_n: bool = True) -> str:
    header = (["n"] if with_n else []) + [key] + [f"eps={e}" for e in _EPSILONS]
    lines = [",".join(header)]
    for row in rows:
        cells = ([str(row["n"])] if with_n else []) + [str(row[key])] + [str(k) for k in row["k"]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _lambda_selection():
    sys1 = bm.scalar_system(1)
    seed = bm.scalar_seed(1)
    mu = 5.0 / 6.0
    lam_star = 0.98
    plan = select_lambda(sys1, lam_star, seed, mu)
    outcome = approximate_cmax1(sys1, plan, seed, Strategy.ADAPTIVE_INCLUSION)
    terminal_halfwidth = support(outcome.terminal_set, np.array([1.0]))
    results = {
        "mu": mu,
        "lambda_star": lam_star,
        "epsilon": plan.epsilon,
        "k": plan.k,
        "case": plan.case,
        "branch_value": plan.branch_value,
        "lambda": plan.lam,
        "conservatism_ratio": (plan.lam - lam_star) / (1.0 - lam_star),
        "adaptive_k_star": outcome.k_star,
        "terminal_halfwidth": terminal_halfwidth,
        "mu_times_cmax1_halfwidth": mu * 10.0,
        "accuracy_inclusion_holds": bool(terminal_halfwidth >= mu * 10.0 - 1e-9),
        "certificate": plan.certificate.as_dict(),
        "per_iteration": outcome.per_iteration,
        "csv": _kv_csv(
            [
                ("k", plan.k),
                ("branch_value", plan.branch_value),
                ("lambda", plan.lam),
                ("conservatism_ratio", (plan.lam - lam_star) / (1.0 - lam_star)),
                ("adaptive_k_star", outcome.k_star),
            ]
        ),
    }
    return results, []


def _kv_csv(pairs) -> str:
    lines = ["quantity,value"] + [f"{k},{v}" for k, v in pairs]
    return "\n".join(lines) + "\n"


def _rotation_distances():
    warnings = [
        "reference seed pair: the second interval of the larger box is printed as [1,1]; "
        "the reproduction uses [-1,1], which matches the stated step-0 distance ln(2)"
    ]
    sysr = bm.oscillator_system()
    C = validate_cset(symmetric_box([1.0, 1.0]))
    D = validate_cset(symmetric_box([2.0, 1.0]))
    rows = []
    for lam in (0.5, 0.9, 1.0):
        seq_c = iterate(sysr, lam, C, 7)
        seq_d = iterate(sysr, lam, D, 7)
        for step, result in enumerate(set_distances(zip(seq_c.entries, seq_d.entries))):
            computed = result.distance
            reference = bm.oscillator_distance(lam, step // 2)
            rows.append(
                {
                    "lambda": lam,
                    "step": step,
                    "distance": computed,
                    "closed_form": reference,
                    "abs_error": abs(computed - reference),
                }
            )
    csv_lines = ["lambda,step,distance,closed_form,abs_error"]
    csv_lines += [
        f'{r["lambda"]},{r["step"]},{r["distance"]!r},{r["closed_form"]!r},{r["abs_error"]!r}'
        for r in rows
    ]
    return {"rows": rows, "max_abs_error": max(r["abs_error"] for r in rows),
            "csv": "\n".join(csv_lines) + "\n"}, warnings


def _stabilizable():
    warnings = [
        "reference prints the constant distance as 1; the evaluated log-ratio of the "
        "half widths is ln(2) ~= 0.693147, and the reproduction reports ln(2)"
    ]
    sysr = bm.stabilizable_system()
    C = validate_cset(symmetric_box([1.0]))
    D = validate_cset(symmetric_box([2.0]))
    rows = []
    for lam in (0.5, 0.8):
        seq_c = iterate(sysr, lam, C, 4)
        seq_d = iterate(sysr, lam, D, 4)
        for step, result in enumerate(set_distances(zip(seq_c.entries, seq_d.entries))):
            rows.append(
                {
                    "lambda": lam,
                    "step": step,
                    "distance": result.distance,
                    "expected": float(np.log(2.0)),
                }
            )
    csv_lines = ["lambda,step,distance,expected"]
    csv_lines += [f'{r["lambda"]},{r["step"]},{r["distance"]!r},{r["expected"]!r}' for r in rows]
    return {
        "rows": rows,
        "controllable": sysr.controllable,
        "max_abs_error": max(abs(r["distance"] - r["expected"]) for r in rows),
        "csv": "\n".join(csv_lines) + "\n",
    }, warnings


_RUNNERS = {
    "table1a": _table1a,
    "table1b": _table1b,
    "lambda-selection": _lambda_selection,
    "rotation-distances": _rotation_distances,
    "stabilizable": _stabilizable,
}
