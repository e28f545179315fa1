import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import contracta.onestep as onestep_module
import contracta.polytope as polytope_module
from contracta import HPolytope, reproduce, support, symmetric_box, validate_cset
from contracta.cli import main
from contracta.errors import ComputationError, ScenarioParseError, ValidationError
from contracta.scenario import (
    jsonable,
    parse_scenario_text,
    run_scenario_dict,
    serialize_scenario,
    validate_scenario,
)
from contracta.svg import render_svg

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def scalar_scenario(task):
    return {
        "system": {
            "A": [[1.1]],
            "B": [[1.0]],
            "X": {"H": [[1.0], [-1.0]], "b": [10.0, 10.0]},
            "U": {"H": [[1.0], [-1.0]], "b": [1.0, 1.0]},
        },
        "seed": {"polytope": {"H": [[1.0], [-1.0]], "b": [2.0, 2.0]}, "lambda": 0.6},
        "task": task,
    }


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestScenarioFormat:
    def test_round_trip_identity(self):
        scenario = scalar_scenario({"certify": {"lambda": 0.8}})
        assert parse_scenario_text(serialize_scenario(scenario)) == scenario

    def test_parse_error_is_positioned(self):
        with pytest.raises(ScenarioParseError, match="line 2"):
            parse_scenario_text('{\n  "task": oops\n}')

    def test_exactly_one_task(self):
        scenario = scalar_scenario({"certify": {"lambda": 0.8}})
        scenario["task"]["distance"] = {}
        with pytest.raises(ValidationError):
            validate_scenario(scenario)

    def test_unknown_keys_rejected(self):
        scenario = scalar_scenario({"certify": {"lambda": 0.8}})
        scenario["bogus"] = 1
        with pytest.raises(ValidationError):
            validate_scenario(scenario)

    def test_jsonable_arrays_match_elementwise_conversion(self):
        def elementwise(value):  # converts every array entry one at a time
            if isinstance(value, dict):
                return {k: elementwise(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [elementwise(v) for v in value]
            if isinstance(value, np.ndarray):
                return [elementwise(v) for v in value.tolist()]
            if isinstance(value, (np.bool_, bool)):
                return bool(value)
            if isinstance(value, (np.integer, int)):
                return int(value)
            if isinstance(value, (np.floating, float)):
                return float(value)
            return value

        floats = np.array([[-0.0, 1.5], [np.float64(2.0) / 3.0, -7.25]])
        value = {
            "floats": floats,
            "ints": np.arange(-3, 3, dtype=np.int32),
            "bools": np.array([True, False]),
            "nested": ({"rows": floats[0], "count": np.int64(4)}, [np.array([1e-300, 2e300])]),
            "objects": np.array([np.float32(0.5), np.int16(-2), np.bool_(True)], dtype=object),
        }
        assert json.dumps(jsonable(value)) == json.dumps(elementwise(value))
        assert json.dumps(jsonable(floats)) == "[[-0.0, 1.5], [0.6666666666666666, -7.25]]"

    def test_jsonable_zero_dimensional_array_is_its_scalar(self):
        assert jsonable(np.array(2.0)) == 2.0 and type(jsonable(np.array(2.0))) is float
        assert jsonable(np.array(3)) == 3 and type(jsonable(np.array(3))) is int
        assert jsonable(np.array(True)) is True
        assert jsonable(np.array(np.float64(0.25), dtype=object)) == 0.25


class TestRunScenario:
    def test_certify_reports_eta(self):
        report = run_scenario_dict(scalar_scenario({"certify": {"lambda": 0.8}}))
        assert report.results["certificate"]["eta"] == pytest.approx(0.90909, abs=1e-5)
        assert report.results["controllable"] is True

    def test_select_lambda_reference(self):
        report = run_scenario_dict(
            scalar_scenario({"select-lambda": {"mu": 5.0 / 6.0, "lambda-star": 0.98}})
        )
        plan = report.results["plan"]
        assert plan["k"] == 30
        assert plan["lambda"] == pytest.approx(0.9971, abs=5e-4)

    def test_plan_epsilon_with_ellipsoid_seed(self):
        scenario = scalar_scenario({"plan-epsilon": {"lambda": 0.6, "epsilon": 0.1}})
        scenario["seed"] = {
            "ellipsoid": {"K": [[-0.5]], "P": [[1.0]], "beta": 4.0, "lambda": 0.6}
        }
        report = run_scenario_dict(scenario)
        assert report.results["plan"]["k"] == 30

    def test_iterate_records_and_sets(self):
        report = run_scenario_dict(
            scalar_scenario({"iterate": {"lambda": 0.8, "k": 3, "seed": "seed"}})
        )
        assert len(report.results["per_iteration"]) == 4
        assert report.results["per_iteration"][2]["facets"] == 2
        assert len(report.results["sets"]) == 4

    def test_distance_without_system(self):
        report = run_scenario_dict(
            {
                "task": {
                    "distance": {
                        "C": {"H": [[1.0], [-1.0]], "b": [2.0, 2.0]},
                        "D": {"H": [[1.0], [-1.0]], "b": [10.0, 10.0]},
                    }
                }
            }
        )
        assert report.results["distance"] == pytest.approx(np.log(5.0), abs=1e-9)

    def test_reports_are_recomputable(self):
        scenario = scalar_scenario({"certify": {"lambda": 0.8}})
        first = run_scenario_dict(scenario)
        second = run_scenario_dict(first.inputs)
        assert first.results == second.results

    def test_missing_task_field(self):
        with pytest.raises(ValidationError):
            run_scenario_dict(scalar_scenario({"certify": {}}))


class TestReproduceTargets:
    def test_table1a_grid(self):
        report = run_scenario_dict({"task": {"reproduce": {"name": "table1a"}}})
        grid = {(row["n"], row["lambda"]): row["k"] for row in report.results["grid"]}
        assert grid[(2, 0.6)] == [192, 132, 106]
        assert grid[(2, 0.8)] == [142, 98, 80]
        assert grid[(2, 1.0)] == [112, 78, 64]
        assert grid[(1, "any")] == [54, 37, 30]

    def test_table1b_grid(self):
        report = run_scenario_dict({"task": {"reproduce": {"name": "table1b"}}})
        grid = {row["lambda"]: row["k"] for row in report.results["grid"]}
        assert grid == {0.6: [10, 8, 7], 0.8: [18, 13, 11], 1.0: [47, 30, 23]}

    def test_lambda_selection_pipeline(self):
        report = run_scenario_dict({"task": {"reproduce": {"name": "lambda-selection"}}})
        res = report.results
        assert res["k"] == 30
        assert res["adaptive_k_star"] == 23
        assert res["conservatism_ratio"] == pytest.approx(0.8552, abs=1e-3)

    def test_rotation_distances_flags_seed_misprint(self):
        report = run_scenario_dict({"task": {"reproduce": {"name": "rotation-distances"}}})
        assert report.results["max_abs_error"] < 1e-8
        assert any("[-1,1]" in w for w in report.warnings)

    def test_stabilizable_flags_constant_misprint(self):
        report = run_scenario_dict({"task": {"reproduce": {"name": "stabilizable"}}})
        assert report.results["controllable"] is False
        assert report.results["max_abs_error"] < 1e-9
        assert any("ln(2)" in w for w in report.warnings)

    def test_unknown_target(self):
        with pytest.raises(ValidationError):
            run_scenario_dict({"task": {"reproduce": {"name": "nope"}}})

    def test_table1a_rate_dependent_scalar_rows_raise(self, monkeypatch):
        # the scalar rows are collapsed to one "any" row only when they agree;
        # a rate-dependent eta makes the k of every epsilon depend on the rate
        monkeypatch.setattr(
            reproduce,
            "epsilon_plan",
            lambda sysn, lam, seed, eps: SimpleNamespace(eta=lam / 2, d_seed_state=1.0),
        )
        with pytest.raises(ComputationError, match="depend on the rate"):
            reproduce.run("table1a")


class TestCliProcess:
    def test_certify_exit_and_report(self, tmp_path):
        scenario = write(tmp_path, "s.json", scalar_scenario({"certify": {"lambda": 0.8}}))
        out = tmp_path / "report.json"
        assert main(["certify", "--scenario", scenario, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["certificate"]["eta"] == pytest.approx(0.90909, abs=1e-5)

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        assert main(["certify", "--scenario", str(path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["certify", "--scenario", str(tmp_path / "absent.json")]) == 2

    def test_validation_error_exit_3(self, tmp_path):
        scenario = write(tmp_path, "s.json", {"task": {"certify": {"lambda": 0.8}}})
        assert main(["certify", "--scenario", scenario]) == 3

    def test_non_numeric_matrix_exit_3(self, tmp_path):
        scenario = scalar_scenario({"certify": {"lambda": 0.8}})
        scenario["system"]["A"] = [["not-a-number"]]
        assert main(["certify", "--scenario", write(tmp_path, "s.json", scenario)]) == 3

    def test_non_numeric_task_field_exit_3(self, tmp_path):
        scenario = scalar_scenario({"certify": {"lambda": "high"}})
        assert main(["certify", "--scenario", write(tmp_path, "s.json", scenario)]) == 3

    @pytest.mark.parametrize("strategy", [["adaptive"], {"name": "apriori"}, 1])
    def test_non_string_strategy_exit_3(self, tmp_path, strategy):
        task = {"select-lambda": {"mu": 5.0 / 6.0, "lambda-star": 0.98, "strategy": strategy}}
        scenario = write(tmp_path, "s.json", scalar_scenario(task))
        assert main(["select-lambda", "--scenario", scenario]) == 3

    @pytest.mark.parametrize("k", [2.7, True, False, "2.5", float("inf")])
    def test_iteration_count_not_whole_exit_3(self, tmp_path, k):
        # a boolean or a fraction is rejected, never truncated into a count
        task = {"iterate": {"lambda": 0.8, "k": k, "seed": "X"}}
        assert main(["iterate", "--scenario", write(tmp_path, "s.json", scalar_scenario(task))]) == 3

    @pytest.mark.parametrize(
        "subcommand,task",
        [
            ("certify", {"certify": {"lambda": True}}),  # not certified at rate 1
            ("plan", {"plan-epsilon": {"lambda": 0.8, "epsilon": "0.1"}}),
            ("select-lambda", {"select-lambda": {"mu": "0.5", "lambda-star": 0.98}}),
            ("select-lambda", {"select-lambda": {"mu": 0.5, "lambda-star": "0.98"}}),
            ("iterate", {"iterate": {"lambda": 0.8, "k": "5", "seed": "X"}}),
        ],
    )
    def test_boolean_or_string_number_exit_3(self, tmp_path, subcommand, task):
        # a rate, an accuracy or a count is a JSON number, never cast from
        # a boolean or a string that the report would echo as given
        with pytest.raises(ValidationError):
            run_scenario_dict(scalar_scenario(task))
        assert main([subcommand, "--scenario", write(tmp_path, "s.json", scalar_scenario(task))]) == 3

    @pytest.mark.parametrize(
        "seed",
        [
            {"ellipsoid": {"K": [[-0.5]], "P": [[1.0]], "beta": True, "lambda": 0.6}},
            {"ellipsoid": {"K": [[-0.5]], "P": [[1.0]], "beta": 4.0, "lambda": "0.6"}},
            {"polytope": {"H": [[1.0], [-1.0]], "b": [2.0, 2.0]}, "lambda": "whatever"},
        ],
        ids=["ellipsoid-beta-boolean", "ellipsoid-lambda-string", "polytope-lambda-string"],
    )
    def test_seed_number_not_a_number_exit_3(self, tmp_path, seed):
        # a seed's rate and level are JSON numbers too, checked before any use
        scenario = scalar_scenario({"plan-epsilon": {"lambda": 0.6, "epsilon": 0.1}})
        scenario["seed"] = seed
        with pytest.raises(ValidationError):
            run_scenario_dict(scenario)
        assert main(["plan", "--scenario", write(tmp_path, "s.json", scenario)]) == 3

    def test_integer_accuracy_is_a_number(self):
        as_int = run_scenario_dict(scalar_scenario({"plan-epsilon": {"lambda": 0.8, "epsilon": 1}}))
        as_float = scalar_scenario({"plan-epsilon": {"lambda": 0.8, "epsilon": 1.0}})
        assert as_int.results == run_scenario_dict(as_float).results

    @pytest.mark.parametrize("k", [2, 2.0])
    def test_whole_iteration_count_runs(self, tmp_path, k):
        task = {"iterate": {"lambda": 0.8, "k": k, "seed": "X"}}
        scenario = write(tmp_path, "s.json", scalar_scenario(task))
        out = tmp_path / "report.json"
        assert main(["iterate", "--scenario", scenario, "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["iterations"] == 2 and len(results["per_iteration"]) == 3

    @pytest.mark.parametrize("block", ["system", "seed"])
    def test_block_not_an_object_exit_3(self, tmp_path, block):
        scenario = scalar_scenario({"plan-epsilon": {"lambda": 0.8, "epsilon": 0.1}})
        scenario[block] = 5
        assert main(["plan", "--scenario", write(tmp_path, "s.json", scenario)]) == 3

    def test_ellipsoid_seed_not_an_object_exit_3(self, tmp_path):
        scenario = scalar_scenario({"plan-epsilon": {"lambda": 0.8, "epsilon": 0.1}})
        scenario["seed"] = {"ellipsoid": 5}
        assert main(["plan", "--scenario", write(tmp_path, "s.json", scenario)]) == 3

    @pytest.mark.parametrize("tol", ["-1", "inf", "nan"])
    def test_bad_tolerance_exit_3(self, tmp_path, tol):
        from contracta.config import TOL

        scenario = write(tmp_path, "s.json", scalar_scenario({"certify": {"lambda": 0.8}}))
        before = (TOL.feas, TOL.opt)
        assert main(["certify", "--scenario", scenario, "--tol", tol]) == 3
        assert (TOL.feas, TOL.opt) == before

    def test_support_lp_fault_exit_4(self, tmp_path, monkeypatch, capsys):
        # a faulting support LP is a computation error wherever it is read;
        # the seed is a diamond in a 2-D box system, so its supports along the
        # boxes' axis normals are no facet's own and take LPs
        monkeypatch.setattr(
            polytope_module, "_solve_or_fault", lambda c, A, b: ComputationError("injected fault")
        )
        task = {"select-lambda": {"mu": 5.0 / 6.0, "lambda-star": 0.98}}
        square = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        diamond = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
        payload = scalar_scenario(task)
        payload["system"] = {
            "A": [[1.1, 0.0], [0.0, 1.1]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "X": {"H": square, "b": [10.0] * 4},
            "U": {"H": square, "b": [1.0] * 4},
        }
        payload["seed"]["polytope"] = {"H": diamond, "b": [2.0] * 4}
        scenario = write(tmp_path, "s.json", payload)
        assert main(["select-lambda", "--scenario", scenario]) == 4
        assert "computation error: injected fault" in capsys.readouterr().err

    def test_task_subcommand_mismatch_exit_3(self, tmp_path):
        scenario = write(tmp_path, "s.json", scalar_scenario({"certify": {"lambda": 0.8}}))
        assert main(["iterate", "--scenario", scenario]) == 3

    @pytest.mark.parametrize(
        "subcommand,strategy,message",
        [
            ("plan", "adaptive", "scenario declares a select-lambda task, not plan-epsilon"),
            ("select-lambda", "fastest", "strategy must be 'apriori' or 'adaptive'"),
        ],
        ids=["task-mismatch", "bad-strategy"],
    )
    def test_input_checked_before_projection_exit_3(
        self, tmp_path, monkeypatch, capsys, subcommand, strategy, message
    ):
        # a facet cap of 1 stops the first projection, which must not come
        # before the input's own validation error
        def no_projection(p, keep, cap):
            raise AssertionError("projected before the input was checked")

        monkeypatch.setenv("CONTRACTA_MAX_FACETS", "1")
        monkeypatch.setattr(onestep_module, "_project", no_projection)
        task = {"select-lambda": {"mu": 5.0 / 6.0, "lambda-star": 0.98, "strategy": strategy}}
        scenario = write(tmp_path, "s.json", scalar_scenario(task))
        assert main([subcommand, "--scenario", scenario]) == 3
        assert f"validation error: {message}" in capsys.readouterr().err

    def test_state_reset_scenario_runs(self, tmp_path):
        # the second state is reset every step: its lifted rows vanish, and
        # the iterates' x1 half-widths are 10, 6, 4, 3, 2.5
        out = tmp_path / "report.json"
        assert main(["iterate", "--scenario", str(SCRIPTS / "dead_state_scenario.json"),
                     "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert [r["facets"] for r in results["per_iteration"]] == [4] * 5
        final = validate_cset(HPolytope(results["final_set"]["H"], results["final_set"]["b"]))
        assert support(final, [1.0, 0.0]) == pytest.approx(2.5, abs=1e-12)

    def test_tolerance_override_round_trips(self, tmp_path):
        from contracta.config import TOL, set_feasibility_tolerance

        scenario = write(tmp_path, "s.json", scalar_scenario({"certify": {"lambda": 0.8}}))
        before = TOL.feas
        try:
            assert main(["certify", "--scenario", scenario, "--tol", "1e-7"]) == 0
            assert TOL.feas == 1e-7
        finally:
            set_feasibility_tolerance(before)

    def test_output_block_report_path(self, tmp_path):
        scenario = scalar_scenario({"certify": {"lambda": 0.8}})
        dest = tmp_path / "from_block.json"
        scenario["output"] = {"report": str(dest)}
        assert main(["certify", "--scenario", write(tmp_path, "s.json", scenario)]) == 0
        assert json.loads(dest.read_text())["task"] == "certify"

    def test_reproduce_csv(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["reproduce", "table1b", "--out", str(out), "--csv"]) == 0
        csv_text = (tmp_path / "t.csv").read_text()
        assert csv_text.splitlines()[0] == "lambda,eps=0.01,eps=0.05,eps=0.1"
        assert "1.0,47,30,23" in csv_text

    def test_iterate_csv_keeps_list_entries(self, tmp_path):
        # every scalar leaf of the results, a list entry keyed by its index
        task = {"iterate": {"lambda": 0.9, "k": 3, "seed": "X"}}
        scenario = write(tmp_path, "s.json", scalar_scenario(task))
        out = tmp_path / "r.json"
        assert main(["iterate", "--scenario", scenario, "--out", str(out), "--csv"]) == 0
        results = json.loads(out.read_text())["results"]
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[:4] == ["quantity,value", "lambda,0.9", "seed,X", "iterations,3"]
        assert "per_iteration.3.facets,2" in lines
        last = results["per_iteration"][3]["distance_to_previous"]
        assert f"per_iteration.3.distance_to_previous,{last}" in lines
        assert f"sets.3.b.1,{results['sets'][3]['b'][1]}" in lines
        # 3 scalars, 4 records of 3, a final set and 4 sets of 2 rows and 2 offsets
        assert len(lines) == 1 + 3 + 4 * 3 + 4 + 4 * 4

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_facet_cap_below_one_exit_3(self, tmp_path, monkeypatch, capsys, cap):
        # a cap that admits no facet is a bad setting, not a computation error
        monkeypatch.setenv("CONTRACTA_MAX_FACETS", cap)
        task = {"iterate": {"lambda": 0.9, "k": 2, "seed": "X"}}
        scenario = write(tmp_path, "s.json", scalar_scenario(task))
        assert main(["iterate", "--scenario", scenario]) == 3
        err = capsys.readouterr().err
        assert f"CONTRACTA_MAX_FACETS must be a positive integer, not {cap!r}" in err

    def test_iterate_svg(self, tmp_path):
        scenario = scalar_scenario({"iterate": {"lambda": 0.9, "k": 2, "seed": "X"}})
        scenario["system"] = {
            "A": [[0.0, 1.0], [-1.0, 0.0]],
            "B": [[0.0], [1.0]],
            "X": {"H": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [5, 5, 5, 5]},
            "U": {"H": [[1.0], [-1.0]], "b": [1.0, 1.0]},
        }
        del scenario["seed"]
        path = write(tmp_path, "s.json", scenario)
        out = tmp_path / "r.json"
        assert main(["iterate", "--scenario", path, "--out", str(out), "--svg"]) == 0
        svg = (tmp_path / "r.svg").read_text()
        assert svg.count("<polygon") == 3


class TestSvg:
    def test_deterministic_bytes(self, tmp_path):
        sets = [
            validate_cset(symmetric_box([3.0, 2.0])),
            validate_cset(symmetric_box([1.0, 1.0])),
        ]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_svg(sets, str(a))
        render_svg(sets, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_canvas_is_valid(self, tmp_path):
        path = tmp_path / "empty.svg"
        render_svg([], str(path))
        text = path.read_text()
        assert text.startswith("<?xml") and text.rstrip().endswith("</svg>")
        assert "<polygon" not in text

    def test_dimension_guard(self, tmp_path):
        from contracta.errors import DimensionError

        with pytest.raises(DimensionError):
            render_svg([validate_cset(symmetric_box([1.0]))], str(tmp_path / "x.svg"))
