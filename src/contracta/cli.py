"""Command-line front end.

Subcommands run one scenario per process: ``certify``, ``plan``,
``select-lambda``, ``iterate`` and ``distance`` read a scenario file whose
task block matches the subcommand; ``reproduce <name>`` needs no scenario.
Exit codes: 0 ok, 2 parse error, 3 validation error, 4 computation error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import set_feasibility_tolerance
from .errors import (
    ComputationError,
    ContractaError,
    ScenarioParseError,
    ValidationError,
)
from .polytope import CSetPolytope, HPolytope, validate_cset
from .scenario import Report, report_to_json, run_scenario, run_scenario_dict
from .svg import render_svg

_SUBCOMMAND_TASK = {
    "certify": "certify",
    "plan": "plan-epsilon",
    "select-lambda": "select-lambda",
    "iterate": "iterate",
    "distance": "distance",
}

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_COMPUTATION = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contracta",
        description="Contractive-set computation for constrained linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_TASK:
        cmd = sub.add_parser(name, help=f"run a scenario with a {_SUBCOMMAND_TASK[name]} task")
        cmd.add_argument("--scenario", required=True, help="path to the scenario file")
        _common_flags(cmd)
    rep = sub.add_parser("reproduce", help="rerun a built-in reproduction target")
    rep.add_argument("name", help="table1a | table1b | lambda-selection | rotation-distances | stabilizable")
    _common_flags(rep)
    return parser


def _common_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--out", help="write the JSON report to this path (default: stdout)")
    cmd.add_argument("--svg", action="store_true", help="also write a 2-D rendering")
    cmd.add_argument("--csv", action="store_true", help="also write CSV output")
    cmd.add_argument("--tol", type=float, help="override the feasibility tolerance family")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is not None:
            set_feasibility_tolerance(args.tol)
        if args.command == "reproduce":
            report = run_scenario_dict({"task": {"reproduce": {"name": args.name}}})
        else:
            report = run_scenario(args.scenario, _SUBCOMMAND_TASK[args.command])
        _emit(report, args)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    except ContractaError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    return EXIT_OK


def _emit(report: Report, args) -> None:
    text = report_to_json(report)
    out_base = args.out or report.inputs.get("output", {}).get("report")
    if out_base:
        with open(out_base, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
        out_base = "contracta_report.json"

    want_csv = args.csv or bool(report.inputs.get("output", {}).get("csv"))
    if want_csv:
        csv_text = _csv_payload(report)
        path = _with_suffix(out_base, ".csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    want_svg = args.svg or bool(report.inputs.get("output", {}).get("svg"))
    if want_svg:
        sets = _renderable_sets(report)
        render_svg(sets, _with_suffix(out_base, ".svg"))


def _with_suffix(path: str, suffix: str) -> str:
    if path.endswith(".json"):
        return path[: -len(".json")] + suffix
    return path + suffix


def _csv_payload(report: Report) -> str:
    results = report.results
    if "csv" in results:
        return results["csv"]
    lines = ["quantity,value"]
    _flatten("", results, lines)
    return "\n".join(lines) + "\n"


def _flatten(prefix: str, value, lines: list[str]) -> None:
    """One ``key,value`` line per scalar leaf; a list's index is a key segment."""
    if isinstance(value, list):
        value = dict(enumerate(value))
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), item, lines)
    elif isinstance(value, (bool, int, float, str)):
        lines.append(f"{prefix},{value}")


def _renderable_sets(report: Report) -> list[CSetPolytope]:
    results = report.results
    blocks = []
    if "sets" in results:
        blocks = results["sets"]
    elif "approximation" in results and "terminal_set" in results["approximation"]:
        blocks = [results["approximation"]["terminal_set"]]
    elif "final_set" in results:
        blocks = [results["final_set"]]
    if not blocks:
        raise ValidationError("this report contains no renderable sets")
    sets = []
    for block in blocks:
        sets.append(validate_cset(HPolytope(np.array(block["H"]), np.array(block["b"]))))
    return sets


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
