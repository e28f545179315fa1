import numpy as np
import pytest

import contracta.polytope as polytope_module
from contracta import (
    CSetPolytope,
    DistanceResult,
    LinearProgram,
    check_inclusion_equivalence,
    inclusion_factor,
    is_subset,
    radial,
    scale,
    iterate,
    set_distance,
    set_distances,
    solve_lp,
    support_many,
    symmetric_box,
    validate_cset,
    vertices,
)
from contracta.errors import ComputationError, DimensionError, ValidationError
from contracta.benchmarks import (
    oscillator_system,
    scalar_seed,
    scalar_system,
    stabilizable_system,
)
from contracta.scenario import resolve_seed, run_scenario_dict, validate_scenario
from conftest import count_lps, nested_cset_pair, random_cset, random_controllable_system

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


def reference_distance(C, D) -> DistanceResult:
    """The distance as computed one side at a time: two ``support_many``
    calls, ``D`` along ``C``'s facets first."""
    out = max(0.0, float(np.max(support_many(D, C.H) / C.b)))
    inn = max(0.0, float(np.max(support_many(C, D.H) / D.b)))
    return DistanceResult(float(np.log(max(out, inn))), max(1.0, out), max(1.0, inn))


def lp_reference_distance(C, D):
    """The distance with each support read off its own LP, ``solve_lp`` on
    fresh copies of the rows, ``D`` along ``C``'s facets first; and whether
    every support is along an axis-aligned facet that the set it is read
    from certifies, where the memo holds the simplex's bits."""
    exact, factors = True, []
    for inner, outer in ((D, C), (C, D)):
        certified = polytope_module._facet_supports(inner.H, inner.b)
        values = []
        for d in outer.H:
            lp = LinearProgram(d.copy(), inner.H.copy(), inner.b.copy())
            values.append(solve_lp(lp).value)
            exact &= np.count_nonzero(d) == 1 and (d + 0.0).tobytes() in certified
        factors.append(max(0.0, float(np.max(np.array(values) / outer.b))))
    out, inn = factors
    return DistanceResult(float(np.log(max(out, inn))), max(1.0, out), max(1.0, inn)), exact


def _bits(result):
    return result.distance.hex(), result.mu_out.hex(), result.mu_in.hex()


def table_pairs(system, halfwidths, lam, k):
    """Pairs of the iterates of the boxes ``halfwidths``, as the distance
    tables of the reproduction targets pair them; new objects each call."""
    C, D = (validate_cset(symmetric_box(w)) for w in halfwidths)
    return list(zip(iterate(system, lam, C, k).entries, iterate(system, lam, D, k).entries))


def rotation_pairs(lam):
    return table_pairs(oscillator_system(), ([1.0, 1.0], [2.0, 1.0]), lam, 7)


def stabilizable_pairs(lam):
    return table_pairs(stabilizable_system(), ([1.0], [2.0]), lam, 4)


def unequal_pairs(seed):
    """Random C-set pairs whose facet counts differ, in 2-D for an even
    ``seed`` and in 3-D for an odd one."""
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 2
    return [
        (random_cset(rng, dim, extra_facets=extra), random_cset(rng, dim))
        for extra in (1, 9, 4, 12, 6)
    ]


class TestSetDistances:
    @pytest.mark.parametrize(
        "make, arg",
        [(rotation_pairs, lam) for lam in (0.5, 0.9, 1.0)]
        + [(stabilizable_pairs, lam) for lam in (0.5, 0.8)]
        + [(unequal_pairs, seed) for seed in range(4)],
    )
    def test_bit_identical_to_sides_one_at_a_time(self, make, arg):
        # against a support LP per direction: bit for bit where every
        # support is along an axis-aligned certified facet, and within
        # 1e-12 where a certified offset or a vertex maximum stands in
        # for the simplex's value
        pairs, cold = make(arg), make(arg)
        exact = 0
        for got, (C, D) in zip(set_distances(pairs), cold):
            ref, bits = lp_reference_distance(C, D)
            if bits:
                exact += 1
                assert _bits(got) == _bits(ref)
            else:
                assert (got.distance, got.mu_out, got.mu_in) == pytest.approx(
                    (ref.distance, ref.mu_out, ref.mu_in), abs=1e-12
                )
        assert exact > 0 if make is not unequal_pairs else exact == 0

    def test_set_distance_is_the_one_pair_table(self):
        # a table may mix dimensions
        pairs, cold = unequal_pairs(8) + unequal_pairs(9), unequal_pairs(8) + unequal_pairs(9)
        assert [_bits(set_distance(C, D)) for C, D in pairs] == [
            _bits(r) for r in set_distances(cold)
        ]

    @pytest.mark.parametrize("lam", [0.5, 0.9, 1.0])
    def test_rotation_table_solves_no_lp(self, monkeypatch, lam):
        # every support the table reads is along a certified facet normal of
        # its own polytope, in its memo from its making, so no LP runs (at
        # rate 1 four of them are normals whose zeros are -0 in one set and
        # +0 in the other, one memo key)
        pairs = rotation_pairs(lam)
        lps = count_lps(monkeypatch)
        set_distances(pairs)
        assert lps[0] == 0

    def test_empty_table(self, monkeypatch):
        lps = count_lps(monkeypatch)
        assert set_distances([]) == []
        assert lps[0] == 0


class TestSetDistancesErrors:
    def test_failed_check_raises_before_any_lp(self, monkeypatch, lp_supports):
        rng = np.random.default_rng(3)
        good = [(random_cset(rng, 2), random_cset(rng, 2)) for _ in range(3)]
        boundary = CSetPolytope(np.vstack([np.eye(2), -np.eye(2)]), [1.0, 1.0, 1.0, 0.0])
        plane, space = random_cset(rng, 2), random_cset(rng, 3)
        lps = count_lps(monkeypatch)
        with pytest.raises(DimensionError, match="distance across different dimensions"):
            set_distances(good + [(plane, space)])
        with pytest.raises(ValidationError, match="origin-interior"):
            set_distances(good + [(plane, boundary)])
        with pytest.raises(ValidationError, match="origin-interior"):
            set_distances(good + [(boundary, plane)])
        assert lps[0] == 0
        set_distances(good)
        assert lps[0] > 0

    @pytest.mark.parametrize(
        "faulty",
        [
            [(0, 0)],
            [(0, 1)],
            [(1, 1), (2, 0)],
            [(2, 0), (1, 1)],
            [(1, 0), (1, 1)],
            [(2, 1), (0, 1), (1, 0)],
        ],
    )
    def test_first_faulting_side_in_pair_order_raises(self, monkeypatch, lp_supports, faulty):
        # side 0 of pair i is D_i along C_i's facets, side 1 is C_i along
        # D_i's
        pairs = unequal_pairs(11)[:3]
        solve = polytope_module._solve_or_fault

        def injected(c, A, b):
            for i, side in faulty:
                inner, outer = pairs[i][::-1] if side == 0 else pairs[i]
                if np.array_equal(A, inner.H) and (outer.H == c).all(axis=1).any():
                    return ComputationError(f"fault {i} {side}")
            return solve(c, A, b)

        monkeypatch.setattr(polytope_module, "_solve_or_fault", injected)
        first = min(faulty)
        with pytest.raises(ComputationError, match=f"^fault {first[0]} {first[1]}$"):
            set_distances(pairs)
        with pytest.raises(ComputationError, match=f"^fault {first[0]} {first[1]}$"):
            for C, D in pairs:  # one side at a time, on the memos just filled
                reference_distance(C, D)
        monkeypatch.setattr(polytope_module, "_solve_or_fault", solve)
        with pytest.raises(ComputationError, match=f"^fault {first[0]} {first[1]}$"):
            set_distances(pairs)  # the memos hold the faults: a fault is deterministic
        fresh = unequal_pairs(11)[:3]  # the same rows, on new polytopes with cold memos
        expected = [reference_distance(C, D) for C, D in unequal_pairs(11)[:3]]
        assert [_bits(r) for r in set_distances(fresh)] == [_bits(r) for r in expected]
