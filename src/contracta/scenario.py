"""Scenario files and machine-readable reports.

A scenario is a JSON document with a system block (matrices and constraint
H-representations), at most one seed block, exactly one task block, and
output options. Reports echo the parsed inputs so every number they contain
can be recomputed from the report alone.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import reproduce as reproduce_mod
from .certificate import compute_certificate
from .config import TOL
from .errors import ScenarioParseError, ValidationError
from .metric import set_distance, set_distances
from .onestep import SeedLabel, SystemModel, iterate
from .planner import Strategy, approximate_cmax1, epsilon_plan, select_lambda
from .polytope import CSetPolytope, HPolytope, validate_cset
from .seeds import EllipsoidSeed, accept_user_seed, polytopic_inner_seed

TASK_NAMES = ("certify", "plan-epsilon", "select-lambda", "iterate", "distance", "reproduce")


@dataclass
class Scenario:
    raw: dict
    task_name: str
    task: dict
    system: SystemModel | None = None
    seed: dict | None = None
    output: dict = field(default_factory=dict)


@dataclass
class Report:
    inputs: dict
    task: str
    results: dict
    warnings: list[str] = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "inputs": self.inputs,
            "task": self.task,
            "results": jsonable(self.results),
            "warnings": list(self.warnings),
            "timing": self.timing,
        }


def jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays into plain JSON values."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        # tolist already gives plain values, except inside object arrays
        return jsonable(value.tolist()) if value.dtype == object else value.tolist()
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def parse_scenario_text(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"scenario parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario root must be an object")
    return data


def serialize_scenario(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _matrix_from_block(block, name: str) -> np.ndarray:
    try:
        return np.array(block, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not a numeric array: {exc}") from exc


def _polytope_from_block(block, name: str) -> HPolytope:
    if not isinstance(block, dict) or "H" not in block or "b" not in block:
        raise ValidationError(f"{name} must be an object with H and b")
    try:
        return HPolytope(_matrix_from_block(block["H"], name), _matrix_from_block(block["b"], name))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"{name}: {exc}") from exc


def validate_scenario(data: dict, task: str | None = None) -> Scenario:
    """Structural validation: one task block, consistent dimensions. A
    ``task`` other than the one the scenario declares raises
    ``ValidationError`` before the system is built."""
    unknown = set(data) - {"system", "seed", "task", "output"}
    if unknown:
        raise ValidationError(f"unknown scenario keys: {sorted(unknown)}")
    task_block = data.get("task")
    if not isinstance(task_block, dict):
        raise ValidationError("scenario must contain a task object")
    names = [k for k in task_block if k in TASK_NAMES]
    if len(names) != 1 or len(task_block) != 1:
        raise ValidationError(f"exactly one task of {TASK_NAMES} is required")
    task_name = names[0]
    if task is not None and task_name != task:
        raise ValidationError(f"scenario declares a {task_name} task, not {task}")
    params = task_block[task_name]
    if not isinstance(params, dict):
        raise ValidationError("task parameters must be an object")

    for name in ("system", "seed"):
        if name in data and not isinstance(data[name], dict):
            raise ValidationError(f"{name} block must be an object")
    system = None
    if "system" in data:
        block = data["system"]
        for key in ("A", "B", "X", "U"):
            if key not in block:
                raise ValidationError(f"system block is missing {key}")
        system = SystemModel(
            A=_matrix_from_block(block["A"], "system.A"),
            B=_matrix_from_block(block["B"], "system.B"),
            X=validate_cset(_polytope_from_block(block["X"], "system.X")),
            U=validate_cset(_polytope_from_block(block["U"], "system.U")),
        )
    elif task_name not in ("distance", "reproduce"):
        raise ValidationError(f"task {task_name} requires a system block")

    output = data.get("output", {})
    if not isinstance(output, dict):
        raise ValidationError("output options must be an object")
    return Scenario(
        raw=data,
        task_name=task_name,
        task=params,
        system=system,
        seed=data.get("seed"),
        output=output,
    )


def resolve_seed(scenario: Scenario, lam: float) -> tuple[CSetPolytope, float]:
    """Build and gate the scenario's seed set for use at rate ``lam``.

    Returns the seed polytope and the rate it is certified contractive at
    (the inflated rate for ellipsoid seeds, ``lam`` for polytope seeds).
    """
    if scenario.seed is None:
        raise ValidationError("this task requires a seed block")
    block = scenario.seed
    if "polytope" in block:
        _require(block, "lambda", _number, "polytope seed block")
        seed_poly = validate_cset(_polytope_from_block(block["polytope"], "seed.polytope"))
        C = accept_user_seed(scenario.system, lam, seed_poly)
        return C, lam
    if "ellipsoid" in block:
        e = block["ellipsoid"]
        for key in ("K", "P", "beta", "lambda"):
            if not isinstance(e, dict) or key not in e:
                raise ValidationError(f"ellipsoid seed block is missing {key}")
        seed = EllipsoidSeed(
            K=_matrix_from_block(e["K"], "seed.ellipsoid.K"),
            P=_matrix_from_block(e["P"], "seed.ellipsoid.P"),
            beta=_require(e, "beta", _number, "seed.ellipsoid"),
            lam=_require(e, "lambda", _number, "seed.ellipsoid"),
        )
        C, lam_eff = polytopic_inner_seed(scenario.system, seed)
        if lam + 1e-12 < lam_eff:
            raise ValidationError(
                f"ellipsoid seed is only contractive at rate {lam_eff:.6f}, above the task rate {lam}"
            )
        return C, lam_eff
    raise ValidationError("seed block must contain either a polytope or an ellipsoid")


def run_scenario(path: str, task: str | None = None) -> Report:
    with open(path, "r", encoding="utf-8") as fh:
        data = parse_scenario_text(fh.read())
    return run_scenario_dict(data, task)


def run_scenario_dict(data: dict, task: str | None = None) -> Report:
    """Validate and run a scenario, which must declare ``task`` when one is
    given (see :func:`validate_scenario`)."""
    scenario = validate_scenario(data, task)
    start = time.perf_counter()
    handler = _TASK_HANDLERS[scenario.task_name]
    results, warnings = handler(scenario)
    elapsed = time.perf_counter() - start
    return Report(
        inputs=scenario.raw,
        task=scenario.task_name,
        results=jsonable(results),
        warnings=warnings,
        timing={"seconds": elapsed, "feasibility_tolerance": TOL.feas},
    )


def _require(block: dict, key: str, caster, name: str = "task"):
    if key not in block:
        raise ValidationError(f"{name} is missing {key}")
    try:
        return caster(block[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} field {key}: {exc}") from exc


def _number(value) -> float:
    """A rate or an accuracy: a number, never a boolean or a numeric string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _whole(value) -> int:
    """An iteration count: a whole number, neither truncated nor parsed."""
    if not _number(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _task_certify(scenario: Scenario):
    lam = _require(scenario.task, "lambda", _number)
    cert = compute_certificate(scenario.system, lam)
    return {
        "certificate": cert.as_dict(),
        "controllable": scenario.system.controllable,
    }, []


def _task_plan_epsilon(scenario: Scenario):
    lam = _require(scenario.task, "lambda", _number)
    eps = _require(scenario.task, "epsilon", _number)
    C, lam_eff = resolve_seed(scenario, lam)
    lam = max(lam, lam_eff)
    plan = epsilon_plan(scenario.system, lam, C, eps)
    return {"plan": plan.as_dict(), "certificate": plan.certificate.as_dict()}, []


def _task_select_lambda(scenario: Scenario):
    lam_star = _require(scenario.task, "lambda-star", _number)
    mu = _require(scenario.task, "mu", _number)
    strategy = scenario.task.get("strategy")
    if strategy is not None:
        strategy = _parse_strategy(strategy)
    C, _ = resolve_seed(scenario, lam_star)
    plan = select_lambda(scenario.system, lam_star, C, mu)
    results = {
        "plan": plan.as_dict(),
        "conservatism_ratio": (plan.lam - lam_star) / (1.0 - lam_star),
        "certificate": plan.certificate.as_dict(),
    }
    if strategy is not None:
        outcome = approximate_cmax1(scenario.system, plan, C, strategy)
        results["approximation"] = _approximation_dict(outcome)
    return results, []


def _parse_strategy(name: str) -> Strategy:
    table = {"apriori": Strategy.APRIORI_BOUND, "adaptive": Strategy.ADAPTIVE_INCLUSION}
    if not isinstance(name, str) or name not in table:
        raise ValidationError("strategy must be 'apriori' or 'adaptive'")
    return table[name]


def _approximation_dict(outcome) -> dict:
    return {
        "strategy": outcome.strategy.value,
        "iterations": outcome.k_star,
        "terminal_set": {"H": outcome.terminal_set.H, "b": outcome.terminal_set.b},
        "certified_relations": outcome.certified_relations,
        "per_iteration": outcome.per_iteration,
    }


def _task_iterate(scenario: Scenario):
    lam = _require(scenario.task, "lambda", _number)
    k = _require(scenario.task, "k", _whole)
    seed_kind = scenario.task.get("seed", "X")
    if seed_kind == "X":
        D, label = scenario.system.X, SeedLabel.FROM_STATE_SET
    elif seed_kind == "seed":
        D, lam_eff = resolve_seed(scenario, lam)
        lam = max(lam, lam_eff)
        label = SeedLabel.CONTRACTIVE
    else:
        raise ValidationError("iterate seed must be 'X' or 'seed'")
    seq = iterate(scenario.system, lam, D, k, label)
    distances = [0.0] + [
        result.distance for result in set_distances(zip(seq.entries[1:], seq.entries))
    ]
    records = [
        {"step": j, "facets": entry.nfacets, "distance_to_previous": distances[j]}
        for j, entry in enumerate(seq.entries)
    ]
    final = seq.entries[-1]
    return {
        "lambda": lam,
        "seed": seed_kind,
        "iterations": k,
        "per_iteration": records,
        "final_set": {"H": final.H, "b": final.b},
        "sets": [{"H": e.H, "b": e.b} for e in seq.entries],
    }, []


def _task_distance(scenario: Scenario):
    C = validate_cset(_polytope_from_block(scenario.task.get("C"), "distance.C"))
    D = validate_cset(_polytope_from_block(scenario.task.get("D"), "distance.D"))
    result = set_distance(C, D)
    return {
        "distance": result.distance,
        "mu_out": result.mu_out,
        "mu_in": result.mu_in,
    }, []


def _task_reproduce(scenario: Scenario):
    name = scenario.task.get("name")
    return reproduce_mod.run(name)


_TASK_HANDLERS = {
    "certify": _task_certify,
    "plan-epsilon": _task_plan_epsilon,
    "select-lambda": _task_select_lambda,
    "iterate": _task_iterate,
    "distance": _task_distance,
    "reproduce": _task_reproduce,
}


def report_to_json(report: Report) -> str:
    return json.dumps(report.as_dict(), indent=2, sort_keys=True)


__all__ = [
    "Report",
    "Scenario",
    "jsonable",
    "parse_scenario_text",
    "report_to_json",
    "resolve_seed",
    "run_scenario",
    "run_scenario_dict",
    "serialize_scenario",
    "validate_scenario",
]
