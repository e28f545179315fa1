import numpy as np
import pytest

from contracta import (
    check_inclusion_equivalence,
    inclusion_factor,
    is_subset,
    radial,
    scale,
    iterate,
    set_distance,
    symmetric_box,
    validate_cset,
    vertices,
)
from contracta.errors import DimensionError, ValidationError
from contracta.benchmarks import scalar_seed, scalar_system
from contracta.scenario import resolve_seed, run_scenario_dict, validate_scenario
from conftest import nested_cset_pair, random_cset, random_controllable_system

LN5 = float(np.log(5.0))


def cbox(*halfwidths):
    return validate_cset(symmetric_box(list(halfwidths)))


class TestInclusionFactor:
    def test_interval_ratio(self):
        assert inclusion_factor(cbox(2.0), cbox(10.0)) == pytest.approx(5.0, abs=1e-9)

    def test_identical_sets(self):
        p = cbox(1.5, 2.5)
        assert inclusion_factor(p, p) == pytest.approx(1.0, abs=1e-9)

    def test_anisotropic_boxes(self):
        assert inclusion_factor(cbox(1.0, 1.0), cbox(2.0, 1.0)) == pytest.approx(2.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            inclusion_factor(cbox(1.0), cbox(1.0, 1.0))


class TestSetDistance:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nested_boxes(self, n):
        result = set_distance(cbox(*[2.0] * n), cbox(*[10.0] * n))
        assert result.distance == pytest.approx(LN5, abs=1e-9)
        assert result.mu_out == pytest.approx(5.0, abs=1e-9)
        assert result.mu_in == pytest.approx(1.0, abs=1e-9)

    def test_identical_sets_zero(self):
        p = cbox(3.0, 0.5)
        assert set_distance(p, p).distance == pytest.approx(0.0, abs=1e-12)

    def test_interval_pair(self):
        assert set_distance(cbox(1.0), cbox(2.0)).distance == pytest.approx(np.log(2.0), abs=1e-12)

    def test_symmetry_triangle_identity(self, rng):
        for _ in range(200):
            dim = int(rng.integers(1, 3))
            C = random_cset(rng, dim)
            D = random_cset(rng, dim)
            E = random_cset(rng, dim)
            dcd = set_distance(C, D).distance
            assert dcd == pytest.approx(set_distance(D, C).distance, abs=1e-9)
            assert dcd <= set_distance(C, E).distance + set_distance(D, E).distance + 1e-9
            assert set_distance(C, C).distance <= 1e-9
            if dcd <= 1e-9:
                assert is_subset(C, scale(D, 1.0 + 1e-8))
                assert is_subset(D, scale(C, 1.0 + 1e-8))

    def test_agrees_with_sampled_supremum(self, rng):
        for _ in range(10):
            C = random_cset(rng, 2)
            D = random_cset(rng, 2)
            computed = set_distance(C, D).distance
            angles = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
            dirs = [np.array([np.cos(t), np.sin(t)]) for t in angles]
            for p in (C, D):
                for v in vertices(p):
                    norm = np.linalg.norm(v)
                    if norm > 1e-12:
                        dirs.append(v / norm)
            sampled = max(
                abs(np.log(radial(C, d)) - np.log(radial(D, d))) for d in dirs
            )
            assert sampled <= computed + 1e-9
            assert computed <= sampled + 1e-3


class TestInclusionEquivalence:
    def test_threshold_boundary(self):
        C, D = cbox(2.0), cbox(10.0)
        assert check_inclusion_equivalence(C, D, LN5)
        assert not check_inclusion_equivalence(C, D, float(np.log(4.99)))
        assert check_inclusion_equivalence(C, C, 0.0)

    def test_requires_nesting(self):
        with pytest.raises(ValidationError):
            check_inclusion_equivalence(cbox(10.0), cbox(2.0), 1.0)

    def test_matches_distance_threshold(self, rng):
        for _ in range(25):
            C, D = nested_cset_pair(rng, 2)
            d = set_distance(C, D).distance
            for delta in (0.5 * d, d + 1e-6, 2.0 * d + 1e-6):
                expected = d <= delta + 1e-12
                assert check_inclusion_equivalence(C, D, delta) == expected


def polytope_block(p):
    return {"H": p.H.tolist(), "b": p.b.tolist()}


class TestIterateDistances:
    @pytest.mark.parametrize("seed_kind", ["X", "seed"])
    def test_distance_to_previous_is_set_distance(self, rng, seed_kind):
        # the report's distances meet the memos its inclusion tests warmed;
        # the entries of an unlabelled iterate are the same sets, solved cold
        if seed_kind == "X":
            sys, lam, k = random_controllable_system(rng, 3, 1), 0.9, 3
        else:
            sys, lam, k = scalar_system(2), 0.8, 4
        data = {
            "system": {
                "A": sys.A.tolist(),
                "B": sys.B.tolist(),
                "X": polytope_block(sys.X),
                "U": polytope_block(sys.U),
            },
            "task": {"iterate": {"lambda": lam, "k": k, "seed": seed_kind}},
        }
        if seed_kind == "seed":
            data["seed"] = {"polytope": polytope_block(scalar_seed(2)), "lambda": lam}
        results = run_scenario_dict(data).results
        scenario = validate_scenario(data)
        D = scenario.system.X if seed_kind == "X" else resolve_seed(scenario, lam)[0]
        entries = iterate(scenario.system, lam, D, k).entries
        assert len(results["sets"]) == k + 1
        for entry, returned in zip(entries, results["sets"]):
            assert np.array_equal(entry.H, returned["H"])
            assert np.array_equal(entry.b, returned["b"])
        expected = [0.0] + [
            set_distance(nxt, prev).distance for prev, nxt in zip(entries, entries[1:])
        ]
        assert [r["distance_to_previous"] for r in results["per_iteration"]] == expected
