import dataclasses
import hashlib
import inspect
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contracta import (
    CSetPolytope,
    HPolytope,
    LinearProgram,
    LpStatus,
    SeedLabel,
    SystemModel,
    is_lambda_contractive,
    is_subset,
    iterate,
    membership_certificate,
    one_step_set,
    project,
    radial,
    scale,
    set_distance,
    singular_extremes,
    solve_lp,
    support,
    symmetric_box,
    validate_cset,
    vertices,
)
from contracta import onestep
from contracta import polytope as polytope_module
from contracta.config import TOL, set_feasibility_tolerance
from contracta.benchmarks import (
    oscillator_step_box,
    oscillator_system,
    scalar_seed,
    scalar_seed_halfwidth,
    scalar_state_halfwidth,
    scalar_system,
    stabilizable_system,
)
from contracta.errors import (
    CSetValidationError,
    DimensionError,
    OriginNotInteriorError,
    ValidationError,
)
from conftest import (
    admits_input,
    count_lps,
    memo_bits,
    nested_cset_pair,
    random_cset,
    random_controllable_system,
)


def halfwidths(p):
    return tuple(support(p, e) for e in np.eye(p.dim))


def sparse_input_system(rng, dense_first=None):
    """n in 2-4 states and m in 2-3 inputs, each input acting on one state;
    input 0 acts on every state when ``dense_first`` (drawn when None)."""
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    A = rng.uniform(-1.2, 1.2, size=(n, n))
    B = np.zeros((n, m))
    for j in range(m):
        B[rng.integers(n), j] = rng.uniform(0.5, 1.0)
    if dense_first is None:
        dense_first = bool(rng.random() < 0.5)
    if dense_first:
        B[:, 0] = rng.uniform(-1.0, 1.0, size=n)
    X = validate_cset(symmetric_box(rng.uniform(2.0, 5.0, size=n)))
    U = validate_cset(symmetric_box(rng.uniform(0.5, 1.5, size=m)))
    return SystemModel(A, B, X, U)


def lifted_step(sysr, lam, D):
    """The (x, u) polytope whose shadow on x is ``one_step_set(sysr, lam, D)``."""
    H = np.block(
        [
            [sysr.X.H, np.zeros((sysr.X.nfacets, sysr.m))],
            [np.zeros((sysr.U.nfacets, sysr.n)), sysr.U.H],
            [D.H @ sysr.A, D.H @ sysr.B],
        ]
    )
    return HPolytope(H, np.concatenate([sysr.X.b, sysr.U.b, lam * D.b]))


def reset_state_system(A=((1.0, 0.0), (0.0, 0.0))):
    """Two states and one input, X = [-10, 10]^2, U = [-1, 1], B = e1; with
    the default A the second state is reset to 0 every step."""
    return SystemModel(
        np.array(A),
        np.array([[1.0], [0.0]]),
        validate_cset(symmetric_box([10.0, 10.0])),
        validate_cset(symmetric_box([1.0])),
    )


def always_reduced_shadow(p, keep):
    """Fourier-Motzkin with redundancy removal after every elimination: a
    projection that eliminates one coordinate always reduces its rows."""
    while p.dim > keep:
        p = project(p, p.dim - 1)
    return p


class TestOneStep:
    @pytest.mark.parametrize("lam", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("tau", [(1.0, 1.0), (2.0, 1.0), (5.0, 4.0), (3.5, 2.25)])
    def test_oscillator_box_closed_form(self, lam, tau):
        sysr = oscillator_system()
        T = validate_cset(symmetric_box(list(tau)))
        q = one_step_set(sysr, lam, T)
        expect = oscillator_step_box(lam, *tau)
        assert halfwidths(q) == pytest.approx(expect, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.6, 0.8, 1.0])
    @pytest.mark.parametrize("c", [0.5, 2.0, 8.0])
    def test_scalar_recursion(self, lam, c):
        sys1 = scalar_system(1)
        q = one_step_set(sys1, lam, validate_cset(symmetric_box([c])))
        expect = min(10.0, (lam * c + 1.0) / 1.1)
        assert support(q, [1.0]) == pytest.approx(expect, abs=1e-9)

    def test_dead_input_channel(self):
        sysr = stabilizable_system()
        for lam, tau in ((0.5, 1.0), (0.8, 4.0)):
            q = one_step_set(sysr, lam, validate_cset(symmetric_box([tau])))
            assert support(q, [1.0]) == pytest.approx(lam * tau / 0.8, abs=1e-12)

    def test_state_reset_every_step(self):
        # a target row on x2 makes the vanishing lifted row 0 <= lam * b,
        # which project drops like any row without a normal
        sysr = reset_state_system()
        q = one_step_set(sysr, 0.5, sysr.X)
        assert q.nfacets == 4
        values = [support(q, d) for d in np.vstack([np.eye(2), -np.eye(2)])]
        assert values == pytest.approx([6.0, 10.0, 6.0, 10.0], abs=1e-12)

    def test_lift_keeps_certified_rows(self, monkeypatch):
        # X's and U's rows and offsets enter the lift bit for bit; only the
        # rows the step makes are divided by their norms (dividing this X's
        # unit rows by their recomputed norms again would move bits of one)
        rng = np.random.default_rng(9)
        base = random_controllable_system(rng, 3, 2)
        sysr = SystemModel(base.A, base.B, random_cset(rng, 3), base.U)
        D = random_cset(rng, 3)
        lift_of, lifts = onestep._lift, []

        def recording_lift(*args):
            lifts.append(lift_of(*args))
            return lifts[-1]

        monkeypatch.setattr(onestep, "_lift", recording_lift)
        one_step_set(sysr, 0.7, D)
        (lift,) = lifts
        nx, top = sysr.X.nfacets, sysr.X.nfacets + sysr.U.nfacets
        assert lift.H[:nx, :3].tobytes() == sysr.X.H.tobytes()
        assert lift.H[nx:top, 3:].tobytes() == sysr.U.H.tobytes()
        assert lift.b[:top].tobytes() == np.concatenate([sysr.X.b, sysr.U.b]).tobytes()
        made = np.hstack([D.H @ sysr.A, D.H @ sysr.B])
        norms = polytope_module._row_norms(made)
        assert np.array_equal(lift.H[top:], made / norms[:, None])
        assert np.array_equal(lift.b[top:], 0.7 * D.b / norms)

    def test_overflowing_made_row_rejected(self):
        # the row norms of D.H @ [A B] overflow: divided, the rows would
        # vanish and Q would grow to [-10, 10] x [-5, 5], not the sliver
        # around x1 = -x2 that it is
        sysr = reset_state_system(A=((1e308, 1e308), (0.0, 1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="overflows"):
                one_step_set(sysr, 0.5, sysr.X)

    def test_unvalidated_state_set_offset_checked(self):
        # a C-set built by a caller is not validated, so every lifted offset
        # is checked, X's too
        X = CSetPolytope([[1.0], [-1.0]], [1.0, 0.0])
        sysr = SystemModel([[0.5]], [[1.0]], X, validate_cset(symmetric_box([1.0])))
        with pytest.raises(OriginNotInteriorError):
            one_step_set(sysr, 0.5, validate_cset(symmetric_box([1.0])))

    def test_rate_range_checked(self):
        sys1 = scalar_system(1)
        with pytest.raises(ValidationError):
            one_step_set(sys1, 0.0, scalar_seed(1))
        with pytest.raises(ValidationError):
            one_step_set(sys1, 1.5, scalar_seed(1))

    def test_result_is_cset(self, rng):
        for _ in range(10):
            sysr = random_controllable_system(rng)
            D = random_cset(rng, 2)
            q = one_step_set(sysr, float(rng.uniform(0.3, 1.0)), D)
            assert isinstance(q, CSetPolytope) and q.dim == 2
            validate_cset(q)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(
            [(2, 1, False), (2, 2, True), (3, 1, False), (3, 1, True), (3, 2, True),
             (4, 1, False), (4, 2, True)]
        ),
    )
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_output_is_certified_without_recertification(self, seed, shape):
        # the shadow is returned as a C-set with no LP; validate_cset accepts
        # it, and its bits are those of validate_cset(shadow), the shadow
        # that projects the lift with every pair, and its own
        rng = np.random.default_rng(seed)
        n, m, zero_column = shape
        sysr = random_controllable_system(rng, n, m)
        if zero_column:
            B = sysr.B.copy()
            B[:, m - 1] = 0.0
            sysr = SystemModel(sysr.A, B, sysr.X, sysr.U)
        for lam in (0.5, 1.0):
            step = one_step_set(sysr, lam, sysr.X)
            for D in (sysr.X, random_cset(rng, n), scale(step, 0.5), scale(step, 1.5)):
                # a fresh system, whose memo holds no one-step set of X yet
                fresh = SystemModel(sysr.A, sysr.B, sysr.X, sysr.U)
                q = one_step_set(fresh, lam, D)
                reference = validate_cset(project(onestep._lift(fresh, lam, D), n))
                assert isinstance(q, CSetPolytope)
                assert np.array_equal(q.H, reference.H) and np.array_equal(q.b, reference.b)
                again = validate_cset(q)  # accepted, rows untouched
                assert again.H.tobytes() == q.H.tobytes() and again.b.tobytes() == q.b.tobytes()
            for shift in (0.0, 0.5):
                bad = HPolytope(step.H, step.b - (1.0 + shift) * step.b[0])
                with pytest.raises(CSetValidationError):
                    one_step_set(sysr, lam, bad)


class TestDeferredReduction:
    def test_scalar_step_reduces_once_with_no_lp(self, monkeypatch):
        # B = I: each input row pair meets one target row pair, so the three
        # eliminations keep the row count and only the last one reduces
        reduce = mock.Mock(wraps=polytope_module.remove_redundancy)
        monkeypatch.setattr(polytope_module, "remove_redundancy", reduce)
        sysr, seed = scalar_system(3), scalar_seed(3)
        lps = count_lps(monkeypatch)
        q = one_step_set(sysr, 0.9, seed)
        assert reduce.call_count == 1
        assert lps == [0]
        assert halfwidths(q) == pytest.approx([(0.9 * 2.0 + 1.0) / 1.1] * 3, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_matches_always_reduced_shadows(self, seed):
        # skipping redundancy removal between eliminations that cannot add
        # rows leaves the shadow and its facet count as they were
        sysr = sparse_input_system(np.random.default_rng(seed))
        D = sysr.X
        for _ in range(2):
            q = one_step_set(sysr, 0.9, D)
            ref = always_reduced_shadow(lifted_step(sysr, 0.9, D), sysr.n)
            assert q.nfacets == ref.nfacets
            assert is_subset(q, ref) and is_subset(ref, q)
            D = q

    def test_faulting_redundancy_lp_keeps_its_row(self):
        # the third step from X of this system reduces rows with 1e-9 near-
        # parallel pairs, where a Clarkson test LP misses a row by 1.9e-7 and
        # solve_lp raises; that row is kept instead of aborting the projection
        sysr = sparse_input_system(np.random.default_rng(7), dense_first=True)
        assert (sysr.n, sysr.m) == (4, 3)
        lifted = lifted_step(sysr, 0.9, iterate(sysr, 0.9, sysr.X, 2).entries[-1])
        keep = sysr.n + sysr.m - 2  # states and input 0
        shadow = project(lifted, keep)
        assert shadow.nfacets == 264
        # points just inside the shadow have inputs 1 and 2 that complete
        # them in the lifted polytope; points just outside have none
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.normal(size=keep)
            d /= np.linalg.norm(d)
            r = radial(shadow, d)
            for mu, inside in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
                rhs = lifted.b - lifted.H[:, :keep] @ (mu * r * d)
                out = solve_lp(LinearProgram(np.zeros(2), lifted.H[:, keep:], rhs))
                assert (out.status is LpStatus.OPTIMAL) == inside


def formed_rows(monkeypatch) -> list:
    """From now on, record the count of rows each Fourier-Motzkin
    elimination forms, as the facet cap checks it."""
    check, counts = polytope_module._check_facets, []

    def counted(count, cap, what):
        counts.append(count)
        return check(count, cap, what)

    monkeypatch.setattr(polytope_module, "_check_facets", counted)
    return counts


def every_pair_rows(lifted, col):
    """The rows an elimination of ``col`` forms from ``lifted`` with every
    pair: those with a zero coefficient, and one per positive-negative pair."""
    coeff = lifted.H[:, col]
    pos = np.count_nonzero(coeff > polytope_module._ZERO_ROW)
    neg = np.count_nonzero(coeff < -polytope_module._ZERO_ROW)
    return len(coeff) - pos - neg + pos * neg


class TestAdjacentPairs:
    """A single-input step whose target carries a complete description's
    incidence combines only the target facets that may be adjacent."""

    @pytest.mark.parametrize("n,seeds", [(2, range(6)), (3, range(6)), (4, range(4)), (5, range(2))])
    def test_pruned_steps_match_every_pair(self, monkeypatch, n, seeds):
        # each step's bits are those of projecting its lift with every pair;
        # from step 2 on the target is a one-step set with its incidence,
        # and fewer rows are formed
        counts = formed_rows(monkeypatch)
        for seed in seeds:
            sysr = random_controllable_system(np.random.default_rng(seed), n, 1)
            D = sysr.X
            for step in range(1, 4):
                lifted = onestep._lift(sysr, 0.9, D)
                counts.clear()
                q = one_step_set(sysr, 0.9, D)
                if not counts:  # the step after a fixed point is a memo hit
                    assert q is D
                    break
                assert len(counts) == 1
                full = project(lifted, n)
                assert q.H.tobytes() == full.H.tobytes() and q.b.tobytes() == full.b.tobytes()
                if step == 1:
                    assert counts[0] == every_pair_rows(lifted, n)
                else:
                    assert D._incidence is not None
                    assert counts[0] < every_pair_rows(lifted, n)
                D = q

    def test_targets_without_a_description_combine_every_pair(self, monkeypatch):
        # the validated box X, a scaled set, a user set and a set whose
        # vertex rank test fails form every pair, the rows of project
        sysr = random_controllable_system(np.random.default_rng(1), 3, 1)
        q = one_step_set(sysr, 0.9, sysr.X)
        user = validate_cset(HPolytope(q.H, q.b))
        failing = one_step_set(SystemModel(sysr.A, sysr.B, sysr.X, sysr.U), 0.9, sysr.X)
        assert q._incidence is not None and failing._incidence is not None
        counts, formed = formed_rows(monkeypatch), []
        for D in (sysr.X, scale(q, 0.5), user, failing):
            fresh = SystemModel(sysr.A, sysr.B, sysr.X, sysr.U)
            lifted = onestep._lift(fresh, 0.9, D)
            full = project(lifted, 3)
            counts.clear()
            with pytest.MonkeyPatch.context() as patch:
                if D is failing:  # as TestVertices::test_incomplete_description_raises[rank]
                    patch.setattr(np.linalg, "det", lambda A: np.zeros(A.shape[:-2]))
                    patch.setattr(
                        np.linalg, "matrix_rank", lambda A: np.zeros(A.shape[:-2], dtype=int)
                    )
                step = one_step_set(fresh, 0.9, D)
            assert counts == [every_pair_rows(lifted, 3)]
            assert step.H.tobytes() == full.H.tobytes() and step.b.tobytes() == full.b.tobytes()
            formed += counts
        assert formed == [22, 55, 55, 55]
        assert failing._incidence is None and polytope_module._vertex_list(failing) is None
        # q, with its bits and its description, combines only its adjacent facets
        counts.clear()
        one_step_set(SystemModel(sysr.A, sysr.B, sysr.X, sysr.U), 0.9, q)
        assert counts[0] < 55 and polytope_module._vertex_list(q) is not None

    def test_incidence_stays_after_its_vertices_are_solved(self):
        sysr = random_controllable_system(np.random.default_rng(0), 3, 1)
        q = one_step_set(sysr, 0.9, sysr.X)
        incidence = q._incidence
        V = polytope_module._vertex_list(q)
        assert V is not None and q._incidence is incidence
        assert polytope_module._vertex_list(validate_cset(q)) is V


def inherited_steps(monkeypatch) -> list:
    """From now on, record each step that combines its target's adjacent
    facets: the target, the rows the last ``_eliminate`` formed and the
    set ``onestep._inherited`` read off its description (None when the
    step fell back)."""
    inherit, steps = onestep._inherited, []

    def recorded(sysr, lam, D, lifted, cap):
        rows, out = inherit(sysr, lam, D, lifted, cap)
        if rows is not None:
            steps.append((D, rows, out))
        return rows, out

    monkeypatch.setattr(onestep, "_inherited", recorded)
    return steps


def rows_of(incidence) -> set:
    """An incidence as a set of rows: its vertices' order aside."""
    return {tuple(row) for row in np.asarray(incidence).tolist()}


def same_bits(p, q) -> bool:
    return p.H.tobytes() == q.H.tobytes() and p.b.tobytes() == q.b.tobytes()


class TestInheritedDescription:
    """A single-input step whose target carries its incidence builds its
    set's description from the target's: the points of ``lam D (+) (-B U)``
    mapped by A's inverse, cut by X's rows, with no redundancy rounds."""

    @pytest.mark.parametrize("n,seeds,steps", [(2, range(8), 4), (3, range(8), 4),
                                               (4, range(6), 4), (5, range(3), 3)])
    def test_matches_redundancy_removal(self, monkeypatch, n, seeds, steps):
        # each inherited set has the bits of reducing the same rows, and the
        # same incidence as a set of rows
        record = inherited_steps(monkeypatch)
        for seed in seeds:
            sysr = random_controllable_system(np.random.default_rng(seed), n, 1)
            iterate(sysr, 0.9, sysr.X, steps)
        assert record
        for D, rows, out in record:
            assert out is not None
            ref = polytope_module.remove_redundancy(rows)
            assert same_bits(out, ref)
            assert ref._incidence is not None
            assert rows_of(out._incidence) == rows_of(ref._incidence)
            assert len(rows_of(out._incidence)) == len(out._incidence)
            assert not out._vertices.flags.writeable
            assert np.array_equal(
                out._vertices, polytope_module._vertex_points(out.H, out.b, out._incidence)
            )

    def test_target_without_incidence_projects(self, monkeypatch):
        # the box X and a user set with a one-step set's bits carry none
        record = inherited_steps(monkeypatch)
        sysr = random_controllable_system(np.random.default_rng(2), 3, 1)
        q = one_step_set(sysr, 0.9, sysr.X)
        user = validate_cset(HPolytope._computed(q.H, q.b))
        for D in (sysr.X, user):
            fresh = SystemModel(sysr.A, sysr.B, sysr.X, sysr.U)
            assert same_bits(one_step_set(fresh, 0.9, D), project(onestep._lift(fresh, 0.9, D), 3))
        assert record == []

    @pytest.mark.parametrize("case", ["singular", "flat", "vertex-check"])
    def test_fallbacks_reduce_the_same_rows(self, monkeypatch, case):
        # a singular A, a target facet parallel to B (h . B = 0) and a vertex
        # that breaks a row: the step reduces its rows as before
        rng = np.random.default_rng(4)
        sysr = random_controllable_system(rng, 3, 1)
        D = one_step_set(sysr, 0.9, sysr.X)
        if case == "singular":
            A = np.array(sysr.A)
            A[:, 2] = A[:, 0]
            sysr = SystemModel(A, sysr.B, sysr.X, sysr.U)
        elif case == "flat":  # B along the third axis, orthogonal to D's first facet normal
            h = D.H[0]
            B = np.cross(h, np.cross(h, [0.0, 0.0, 1.0]))[:, None]
            sysr = SystemModel(sysr.A, B, sysr.X, sysr.U)
            assert abs(D.H[0] @ B[:, 0]) <= 1e-15
        else:
            solve = onestep._vertex_points

            def outward(H, b, tight):
                return solve(H, b, tight) * (1.0 + 1e-6)

            monkeypatch.setattr(onestep, "_vertex_points", outward)
        assert D._incidence is not None and polytope_module._adjacent_facets(D) is not None
        record = inherited_steps(monkeypatch)
        q = one_step_set(sysr, 0.9, D)
        (_, rows, out), = record
        assert out is None
        assert same_bits(q, polytope_module.remove_redundancy(rows))
        full = project(onestep._lift(sysr, 0.9, D), 3)
        assert q.nfacets == full.nfacets and is_subset(q, full) and is_subset(full, q)

    def test_weakly_redundant_rows_go(self, monkeypatch):
        # (5, 1) seed 1, step 3: two rows are tight only along ridges whose
        # rounded vertices pass the rank rule; the face test drops them
        record = inherited_steps(monkeypatch)
        sysr = random_controllable_system(np.random.default_rng(1), 5, 1)
        seq = iterate(sysr, 0.9, sysr.X, 3)
        assert [p.nfacets for p in seq.entries] == [10, 38, 106, 240]
        assert [out.nfacets for _, _, out in record] == [106, 240]

    def test_dropped_rows_are_weakly_redundant(self, monkeypatch):
        # (5, 1) seed 0, step 4: redundancy removal falls back to all-rows
        # LPs and keeps 727 rows, the inherited description 714 of them. The
        # 714 rows bound the set that every Fourier-Motzkin row bounds: on
        # the vertices of a description built anew from them, no row is
        # broken, and each of the 13 rows dropped besides only touches it
        record = inherited_steps(monkeypatch)
        sysr = random_controllable_system(np.random.default_rng(0), 5, 1)
        seq = iterate(sysr, 0.9, sysr.X, 4)
        assert [p.nfacets for p in seq.entries] == [10, 38, 142, 378, 714]
        _, rows, out = record[-1]
        V = np.array(vertices(validate_cset(HPolytope._computed(out.H, out.b))))
        assert len(V) == len(out._vertices)
        assert ((rows.H @ V.T).max(axis=1) <= rows.b + 1e-12).all()
        ref = polytope_module.remove_redundancy(rows)
        kept = {(h.tobytes(), c.tobytes()) for h, c in zip(out.H, out.b)}
        extra = [(h.tobytes(), c.tobytes()) not in kept for h, c in zip(ref.H, ref.b)]
        assert ref.nfacets == 727 and sum(extra) == 13
        excess = (ref.H[extra] @ V.T).max(axis=1) - ref.b[extra]
        assert np.abs(excess).max() <= 1e-12

    def test_each_step_inserts_only_the_state_rows(self, monkeypatch):
        # the ladder's (3, 1, 4) seed-7 case: 2n inserts per inherited step
        inserts = mock.Mock(wraps=polytope_module._Description.insert)
        monkeypatch.setattr(polytope_module._Description, "insert",
                            lambda dd, a: inserts(dd, a))
        sysr = random_controllable_system(np.random.default_rng(7), 3, 1)
        one_step_set(sysr, 0.9, sysr.X)
        before = inserts.call_count
        iterate(sysr, 0.9, sysr.X, 4)
        assert inserts.call_count - before == 3 * 6


class TestChainedDescription:
    """With a box U of several columns, ``lam D (+) (-B U)`` is a chain of
    segment sums, one link per column: each link combines only the facets
    of the sum so far that may be adjacent and reads the next sum's vertices
    off its own, and the last is cut by X's rows, as with one input."""

    @pytest.mark.parametrize("n,m,seeds,steps", [(2, 2, range(6), 4), (3, 2, range(6), 3),
                                                 (3, 3, range(3), 3), (4, 2, range(1, 4), 3),
                                                 (4, 3, range(1, 3), 2), (5, 2, [1], 2)])
    def test_matches_projection(self, monkeypatch, n, m, seeds, steps):
        # every chained set has project's bits and, as a set of rows, the
        # incidence of project's last reduction
        record, chained = inherited_steps(monkeypatch), 0
        for seed in seeds:
            sysr = random_controllable_system(np.random.default_rng(seed), n, m)
            D = sysr.X
            for _ in range(steps):
                record.clear()
                q = one_step_set(sysr, 0.9, D)
                ref = project(onestep._lift(sysr, 0.9, D), n)
                assert same_bits(q, ref)
                if record and record[0][2] is not None:
                    chained += 1
                    assert rows_of(q._incidence) == rows_of(ref._incidence)
                    assert not q._vertices.flags.writeable
                if q is D:
                    break
                D = q
        assert chained

    @pytest.mark.parametrize("case", ["not-a-box", "flat", "no-incidence", "no-facets"])
    def test_fallbacks_project(self, monkeypatch, case):
        # a U that is no box, a target facet parallel to the first link's
        # column of B, a target without incidence and a description whose
        # facets cannot be read: the step projects its lift, bit for bit
        sysr = random_controllable_system(np.random.default_rng(3), 3, 2)
        D = one_step_set(sysr, 0.9, sysr.X)
        assert D._incidence is not None
        if case == "not-a-box":
            U = validate_cset(HPolytope(np.vstack((np.eye(2), -np.eye(2), [[1.0, 1.0]])),
                                        [1.0, 1.0, 1.0, 1.0, 1.5]))
            sysr = SystemModel(sysr.A, sysr.B, sysr.X, U)
        elif case == "flat":  # the last column of B orthogonal to D's first facet normal
            h, B = D.H[0], np.array(sysr.B)
            B[:, 1] = np.cross(h, np.cross(h, [0.0, 0.0, 1.0]))
            sysr = SystemModel(sysr.A, B, sysr.X, sysr.U)
        elif case == "no-incidence":
            D = validate_cset(HPolytope._computed(D.H, D.b))
        else:
            monkeypatch.setattr(polytope_module._Description, "facets", lambda dd: None)
        record = inherited_steps(monkeypatch)
        q = one_step_set(sysr, 0.9, D)
        assert same_bits(q, project(onestep._lift(sysr, 0.9, D), 3))
        outs = [out for _, _, out in record]
        assert outs == ([None] if case in ("flat", "no-facets") else [])

    def test_wall_run_finishes(self, monkeypatch):
        # (4, 2) seed 0 from X at 0.9: projecting step 3's lift forms 19,600
        # rows, past the default facet cap; the chain combines only adjacent
        # facets, and every step reads its facets off its target's description
        record = inherited_steps(monkeypatch)
        sysr = random_controllable_system(np.random.default_rng(0), 4, 2)
        seq = iterate(sysr, 0.9, sysr.X, 3, SeedLabel.FROM_STATE_SET)
        assert [p.nfacets for p in seq.entries] == [8, 46, 180, 392]
        assert [out.nfacets for _, _, out in record] == [180, 392]


def ladder_case(monkeypatch):
    """The ladder benchmark's (3, 1, 4) seed-7 case from X at rate 0.9, its
    sets' facet counts and row bits checked, and the LPs it solved
    (``count_lps``)."""
    lps = count_lps(monkeypatch)
    sysr = random_controllable_system(np.random.default_rng(7), 3, 1)
    seq = iterate(sysr, 0.9, sysr.X, 4, SeedLabel.FROM_STATE_SET)
    assert [p.nfacets for p in seq.entries] == [6, 16, 28, 44, 66]
    digest = hashlib.sha256(b"".join(p.H.tobytes() + p.b.tobytes() for p in seq.entries))
    assert digest.hexdigest() == (
        "276ec03176fb391695fd93bb4ed844f4db3e539b9c4b2d7c755e73337ad7d9c5"
    )
    return seq, lps


class TestIterate:
    def test_zero_steps(self):
        sys1 = scalar_system(1)
        seq = iterate(sys1, 0.8, scalar_seed(1), 0)
        assert len(seq.entries) == 1
        assert seq.entries[0] is scalar_seed(1) or is_subset(seq.entries[0], scalar_seed(1))

    @pytest.mark.parametrize("lam", [0.6, 0.8, 1.0])
    def test_scalar_closed_forms(self, lam):
        sys1 = scalar_system(1)
        seq_c = iterate(sys1, lam, scalar_seed(1), 12, SeedLabel.CONTRACTIVE)
        seq_x = iterate(sys1, lam, sys1.X, 12, SeedLabel.FROM_STATE_SET)
        for k in range(13):
            assert support(seq_c.entries[k], [1.0]) == pytest.approx(
                scalar_seed_halfwidth(k, lam), abs=1e-9
            )
            assert support(seq_x.entries[k], [1.0]) == pytest.approx(
                scalar_state_halfwidth(k, lam), abs=1e-9
            )

    def test_state_reset_every_step(self):
        # x1 half-widths w -> min(10, 0.5 w + 1); x2 stays in [-10, 10]
        sysr = reset_state_system()
        seq = iterate(sysr, 0.5, sysr.X, 4, SeedLabel.FROM_STATE_SET)
        for entry, w in zip(seq.entries, (10.0, 6.0, 4.0, 3.0, 2.5)):
            assert halfwidths(entry) == pytest.approx((w, 10.0), abs=1e-12)

    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize(
        "case",
        [
            # (system, rate, start, label, step whose one-step set is its target)
            (oscillator_system, 0.9, "X", SeedLabel.FROM_STATE_SET, 2),
            (stabilizable_system, 0.8, [1.0], SeedLabel.CONTRACTIVE, 2),
        ],
    )
    def test_stationary_sequence_is_carried(self, monkeypatch, case, labelled):
        # from the step that returns its target on, every entry is that
        # object, projected no more (a memo hit of the system's one-step
        # sets), with the bits a fresh projection gives
        make, lam, start, label, fixed = case
        sysr = make()
        D = sysr.X if start == "X" else validate_cset(symmetric_box(start))
        projected = count_projections(monkeypatch)
        seq = iterate(sysr, lam, D, 6, label if labelled else None)
        assert len(projected) == fixed
        entries = seq.entries
        assert all(e is not f for e, f in zip(entries[:fixed], entries[1:fixed]))
        assert all(e is entries[fixed - 1] for e in entries[fixed:])
        stationary = entries[fixed - 1]
        shadow = project(lifted_step(sysr, lam, stationary), sysr.n)
        fresh = CSetPolytope._computed(shadow.H, shadow.b)
        assert fresh is not stationary
        assert fresh.H.tobytes() == stationary.H.tobytes()
        assert fresh.b.tobytes() == stationary.b.tobytes()

    def test_nesting_from_state_set(self, rng):
        for _ in range(5):
            sysr = random_controllable_system(rng)
            seq = iterate(sysr, float(rng.uniform(0.4, 1.0)), sysr.X, 4, SeedLabel.FROM_STATE_SET)
            for j in range(4):
                assert is_subset(seq.entries[j + 1], seq.entries[j])

    def test_monotone_in_seed(self, rng):
        # nested seeds produce nested iterates
        for _ in range(8):
            sysr = random_controllable_system(rng)
            C, D = nested_cset_pair(rng, 2)
            lam = float(rng.uniform(0.4, 1.0))
            seq_c = iterate(sysr, lam, C, 4)
            seq_d = iterate(sysr, lam, D, 4)
            for j in range(5):
                assert is_subset(seq_c.entries[j], seq_d.entries[j])

    def test_nonexpansive_distance(self, rng):
        for _ in range(8):
            sysr = random_controllable_system(rng)
            C, D = nested_cset_pair(rng, 2)
            lam = float(rng.uniform(0.4, 1.0))
            base = set_distance(C, D).distance
            seq_c = iterate(sysr, lam, C, 4)
            seq_d = iterate(sysr, lam, D, 4)
            for j in range(1, 5):
                assert (
                    set_distance(seq_c.entries[j], seq_d.entries[j]).distance
                    <= base + 1e-8
                )

    def test_three_dimensional_facet_sequence(self):
        # five projections of up to ~650 FM rows each; facet counts only
        sysr = random_controllable_system(np.random.default_rng(7), 3, 1)
        seq = iterate(sysr, 0.9, sysr.X, 5)
        assert [p.nfacets for p in seq.entries] == [6, 16, 28, 44, 66, 90]

    def test_ladder_iterate_lp_counts_and_bits(self, monkeypatch):
        # the ladder benchmark's (3, 1, 4) seed-7 case: a change to the LP
        # kernel may change its speed, never which LPs run or what they return;
        # redundancy removal solves none of them, its rounds read vertices, and
        # the supports along a set's own certified facets are memo entries.
        # Each one-step set carries its vertices, which answer the nesting
        # tests with no LP
        seq, lps = ladder_case(monkeypatch)
        assert all(polytope_module._vertex_list(p) is not None for p in seq.entries[1:])
        # validating the boxes X and U included
        assert lps == [0]

    def test_ladder_iterate_lp_counts_without_vertex_lists(self, monkeypatch, lp_supports):
        # the same case with no support read off vertices: the nesting tests
        # reach the simplex, and the sets keep their bits
        _, lps = ladder_case(monkeypatch)
        assert lps == [84]

    @pytest.mark.parametrize("seed,facets", [(3, [10, 26, 50, 120]), (8, [10, 32, 68, 128])])
    def test_five_dimensional_facet_sequences(self, seed, facets):
        # (5, 1, 3) from X at 0.9: the double description decides every
        # step's rows, so a change to its inserts must keep these counts
        sysr = random_controllable_system(np.random.default_rng(seed), 5, 1)
        seq = iterate(sysr, 0.9, sysr.X, 3, SeedLabel.FROM_STATE_SET)
        assert [p.nfacets for p in seq.entries] == facets

    def test_five_dimensional_rows_after_lp_faults_go(self):
        # (5, 1) seed 4: a redundancy test by LP faults on one redundant row
        # of the step-3 set, which would keep it as a 155th facet; the
        # vertices of the facets found decide it with no LP
        sysr = random_controllable_system(np.random.default_rng(4), 5, 1)
        seq = iterate(sysr, 0.9, sysr.X, 3, SeedLabel.FROM_STATE_SET)
        assert [p.nfacets for p in seq.entries] == [10, 38, 84, 154]

    def test_unit_rate_iterates_dominate_scaled(self, rng):
        # the k-fold set at rate one, shrunk by lam^k, sits inside the rate-lam set
        for _ in range(10):
            sysr = random_controllable_system(rng)
            D = random_cset(rng, 2)
            lam = float(rng.uniform(0.3, 0.95))
            k = int(rng.integers(1, 5))
            seq_one = iterate(sysr, 1.0, D, k)
            seq_lam = iterate(sysr, lam, D, k)
            assert is_subset(scale(seq_one.entries[k], lam**k), seq_lam.entries[k])


class TestContractiveness:
    def test_scalar_seed_rates(self):
        sys1 = scalar_system(1)
        assert is_lambda_contractive(sys1, 0.6, scalar_seed(1))
        assert not is_lambda_contractive(sys1, 0.5, scalar_seed(1))
        assert is_lambda_contractive(sys1, 1.0, sys1.X)

    def test_two_dimensional_seed(self):
        sys2 = scalar_system(2)
        assert is_lambda_contractive(sys2, 0.6, scalar_seed(2))
        assert not is_lambda_contractive(sys2, 0.5, scalar_seed(2))

    def test_state_reset_every_step(self):
        # [-w, w] x [-10, 10] is 0.5-contractive iff w <= 0.5 w + 1
        sysr = reset_state_system()
        assert is_lambda_contractive(sysr, 0.5, validate_cset(symmetric_box([2.0, 10.0])))
        assert not is_lambda_contractive(sysr, 0.5, validate_cset(symmetric_box([2.1, 10.0])))

    def test_not_inside_state_set(self):
        sys1 = scalar_system(1)
        big = validate_cset(symmetric_box([20.0]))
        assert not is_lambda_contractive(sys1, 1.0, big)

    def test_iterates_of_contractive_seed_stay_contractive(self):
        sys1 = scalar_system(1)
        seq = iterate(sys1, 0.8, scalar_seed(1), 3, SeedLabel.CONTRACTIVE)
        for entry in seq.entries:
            assert is_lambda_contractive(sys1, 0.8, entry)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 1), (3, 1), (3, 2)]))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_matches_vertex_reference(self, seed, shape):
        rng = np.random.default_rng(seed)
        sysr = random_controllable_system(rng, *shape)
        for lam in (0.6, 0.8, 0.95, 1.0):
            step = one_step_set(sysr, lam, sysr.X)
            for mu in (0.3, 0.7, 1.0):
                C = scale(step, mu)
                assert is_lambda_contractive(sysr, lam, C) == vertexwise_contractive(sysr, lam, C)


def vertexwise_contractive(sys, lam, C) -> bool:
    """Reference test, exact by convexity for n <= 4: C lies in X and every
    vertex of C admits an input steering it into ``lam * C``."""
    return is_subset(C, sys.X) and all(admits_input(sys, lam, C, v) for v in vertices(C))


class TestMembership:
    def test_origin_always_inside(self):
        sys1 = scalar_system(1)
        cert = membership_certificate(sys1, 0.8, scalar_seed(1), [0.0], 2)
        assert cert is not None
        assert len(cert.inputs) == 3
        assert scalar_seed(1).contains(cert.gamma)

    def test_boundary_point_feasible(self):
        sys1 = scalar_system(1)
        boundary = scalar_seed_halfwidth(1, 0.8)
        cert = membership_certificate(sys1, 0.8, scalar_seed(1), [boundary], 0)
        assert cert is not None
        outside = membership_certificate(sys1, 0.8, scalar_seed(1), [boundary + 0.01], 0)
        assert outside is None

    def test_witness_replays_dynamics(self):
        sys1 = scalar_system(1)
        lam = 0.8
        C = scalar_seed(1)
        x = np.array([scalar_seed_halfwidth(2, lam) - 1e-6])
        cert = membership_certificate(sys1, lam, C, x, 1)
        assert cert is not None
        # terminal equality: A^2 x + sum A^(1-i) B lam^i u_i = lam^2 gamma
        lhs = sys1.A @ sys1.A @ x
        lhs = lhs + sys1.A @ sys1.B @ cert.inputs[0] + lam * (sys1.B @ cert.inputs[1])
        assert np.allclose(lhs, lam**2 * cert.gamma, atol=1e-7)
        assert C.contains(cert.gamma, tol=1e-7)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("lam", [0.7, 1.0])
    def test_deep_horizon_matches_closed_form(self, k, lam):
        sys1 = scalar_system(1)
        C = scalar_seed(1)
        edge = scalar_seed_halfwidth(k, lam)
        assert membership_certificate(sys1, lam, C, [edge - 1e-6], k - 1) is not None
        assert membership_certificate(sys1, lam, C, [edge + 1e-6], k - 1) is None

    def test_agrees_with_geometric_membership(self, rng):
        for _ in range(4):
            sysr = random_controllable_system(rng)
            C = random_cset(rng, 2)
            lam = float(rng.uniform(0.5, 1.0))
            k = int(rng.integers(1, 4))
            seq = iterate(sysr, lam, C, k)
            target = seq.entries[k]
            hits = 0
            for _ in range(25):
                x = rng.uniform(-4.0, 4.0, size=2)
                inside = target.contains(x, tol=-1e-6)
                outside = not target.contains(x, tol=1e-6)
                if not (inside or outside):
                    continue  # boundary band: both answers defensible
                cert = membership_certificate(sysr, lam, C, x, k - 1)
                assert (cert is not None) == inside
                hits += 1
            assert hits > 0


class TestSystemModel:
    def test_controllability_examples(self):
        assert oscillator_system().controllable
        assert not stabilizable_system().controllable
        assert scalar_system(2).controllable

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            SystemModel(
                A=np.eye(2),
                B=np.ones((2, 1)),
                X=validate_cset(symmetric_box([1.0])),
                U=validate_cset(symmetric_box([1.0])),
            )

    def test_arrays_are_read_only_copies(self):
        base = np.array([[1.1, 7.0]])
        A = base[:, :1]  # a view into the caller's array
        sysr = SystemModel(A, [[1.0]], symmetric_box([10.0]), symmetric_box([1.0]))
        assert A.flags.writeable and base.flags.writeable
        A[0, 0] = 2.0
        base[0, 0] = 3.0
        assert sysr.A[0, 0] == 1.1
        assert not (sysr.A.flags.writeable or sysr.B.flags.writeable)
        assert not sysr.reachability.flags.writeable

    def test_singular_values_of_A_are_kept(self):
        sysr = random_controllable_system(np.random.default_rng(0), 3, 2)
        assert sysr.a_extremes == singular_extremes(sysr.A)
        assert sysr.a_extremes is sysr.a_extremes

    def test_frozen(self):
        sysr = scalar_system(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sysr.X = validate_cset(symmetric_box([5.0]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sysr.A = np.eye(1)


def count_projections(monkeypatch) -> list:
    """From now on, record every lift ``one_step_set`` projects, one per
    step that is no memo hit, however many eliminations it takes."""
    lift, projected = onestep._lift, []

    def counted(*args):
        projected.append(lift(*args))
        return projected[-1]

    monkeypatch.setattr(onestep, "_lift", counted)
    return projected


def lift_anew(sysr, lam, D):
    """The one-step lift's rows and offsets built from X, U and D alone:
    X's and U's rows and offsets as they are, and D's rows ``H_D [A B]``
    and offsets ``lam * b_D`` divided by the norms above ``_ZERO_ROW``."""
    X, U, n = sysr.X, sysr.U, sysr.n
    top = X.nfacets + U.nfacets
    H = np.zeros((top + D.nfacets, n + sysr.m))
    H[: X.nfacets, :n] = X.H.copy()
    H[X.nfacets : top, n:] = U.H.copy()
    made = H[top:]
    made[:, :n] = D.H @ sysr.A
    made[:, n:] = D.H @ sysr.B
    b = np.concatenate((X.b.copy(), U.b.copy(), lam * D.b))
    norms = polytope_module._row_norms(made)
    unit = norms > polytope_module._ZERO_ROW
    made[unit] /= norms[unit, None]
    b[top:][unit] /= norms[unit]
    return H, b


class TestBornMemo:
    """A one-step set whose reduction ran no redundancy round carries the
    memo that its rays certified, and a step's lift copies the system's
    constant rows into the plan of its target's normals."""

    @pytest.mark.parametrize(
        "make, lam, steps_born",
        [(lambda n=n: scalar_system(n), 0.98, True) for n in (1, 2, 3)]
        + [(oscillator_system, 0.9, True)]
        + [(lambda n=n, s=s: random_controllable_system(np.random.default_rng(s), n, 1), 0.9,
            False) for n, s in ((3, 7), (4, 2))],
        ids=["scalar1", "scalar2", "scalar3", "oscillator", "ladder-3-1-seed7", "ladder-4-1-seed2"],
    )
    def test_step_memo_is_the_traced_one(self, make, lam, steps_born):
        # no label: no support is asked, so each memo is the one it was born
        # with. The ladder systems' first steps run the redundancy rounds
        # and their later steps inherit a description: only their validated
        # boxes are born with a memo
        sysr = make()
        start = validate_cset(symmetric_box(0.5 * np.array(halfwidths(make().X))))
        for D in (sysr.X, start):
            entries = iterate(sysr, lam, D, 3).entries
            assert D._memo and all(bool(q._memo) is steps_born for q in entries[1:])
            for q in entries:
                if q._memo:
                    (memo,) = q._memo.values()
                    traced = polytope_module._facet_supports(q.H, q.b)
                    assert memo_bits(memo) == memo_bits(traced)

    def test_one_ray_pass_per_projected_step(self, monkeypatch):
        # each step's reduction traces the rays along its rows' normals once,
        # and the verification's queries read the memo they made: step 1 in
        # the redundancy rounds, the steps with its normals by the plan of
        # its reduction
        sys3 = scalar_system(3)
        callers = []
        ray_hits = polytope_module._ray_hits

        def traced(*args):
            frame = inspect.currentframe().f_back
            if frame.f_code.co_name == "_first_hits":  # rays that are given, not planned
                frame = frame.f_back
            callers.append(frame.f_code.co_name)
            return ray_hits(*args)

        monkeypatch.setattr(polytope_module, "_ray_hits", traced)
        projected = count_projections(monkeypatch)
        iterate(sys3, 0.98, sys3.X, 5, SeedLabel.FROM_STATE_SET)
        assert len(projected) == 5
        assert callers == ["_clarkson_rounds"] + ["reduce"] * 4

    @pytest.mark.parametrize("case", ["reset", "random", "two-inputs"])
    def test_lift_copies_the_constant_rows(self, case):
        rng = np.random.default_rng(4)
        if case == "reset":  # rows of norm zero are left as made
            sysr, D = reset_state_system(), validate_cset(symmetric_box([3.0, 2.0]))
        else:
            base = random_controllable_system(rng, 3, 1 if case == "random" else 2)
            sysr, D = SystemModel(base.A, base.B, random_cset(rng, 3), base.U), random_cset(rng, 3)
        lifts = []
        for lam in (0.5, 0.9):
            lifts.append(onestep._lift(sysr, lam, D))
            H, b = lift_anew(sysr, lam, D)
            assert lifts[-1].H.tobytes() == H.tobytes() and lifts[-1].b.tobytes() == b.tobytes()
            for given in (sysr.X, sysr.U, D):
                assert not np.shares_memory(lifts[-1].H, given.H)
                assert not np.shares_memory(lifts[-1].b, given.b)
        # the second lift is the first's plan: the same rows, read-only
        assert lifts[1].H is lifts[0].H and not lifts[0].H.flags.writeable
        with pytest.raises(ValueError):
            lifts[0].H[0, 0] = 1.0


class TestOneStepMemo:
    def test_repeat_is_a_memo_hit(self, monkeypatch):
        # the same target, or another object with its bits, gets the same
        # object back with no projection
        sysr = oscillator_system()
        seed = validate_cset(symmetric_box([1.0, 1.0]))
        first = one_step_set(sysr, 0.9, seed)
        projected = count_projections(monkeypatch)
        assert one_step_set(sysr, 0.9, seed) is first
        assert one_step_set(sysr, 0.9, validate_cset(symmetric_box([1.0, 1.0]))) is first
        assert projected == []
        # another rate or another system projects
        assert one_step_set(sysr, 0.8, seed) is not first
        other = one_step_set(oscillator_system(), 0.9, seed)
        assert other is not first and other.H.tobytes() == first.H.tobytes()
        assert len(projected) == 2

    def test_tolerance_or_facet_cap_change_projects_again(self, monkeypatch):
        sysr = oscillator_system()
        first = one_step_set(sysr, 0.9, sysr.X)
        monkeypatch.setattr(TOL, "feas", TOL.feas)
        monkeypatch.setattr(TOL, "opt", TOL.opt)
        projected = count_projections(monkeypatch)
        set_feasibility_tolerance(1e-7)
        after_tol = one_step_set(sysr, 0.9, sysr.X)
        assert len(projected) == 1 and after_tol is not first
        assert one_step_set(sysr, 0.9, sysr.X) is after_tol
        monkeypatch.setenv("CONTRACTA_MAX_FACETS", "5000")
        assert one_step_set(sysr, 0.9, sysr.X) is not after_tol
        assert len(projected) == 2

    def test_rotation_pair_shares_entries_at_rate_one(self, monkeypatch):
        # at rate 1 the larger box [2, 1] is the one-step set of [1, 1]: from
        # its step 1 on, the second sequence's targets have the first's bits
        sysr = oscillator_system()
        C = validate_cset(symmetric_box([1.0, 1.0]))
        D = validate_cset(symmetric_box([2.0, 1.0]))
        seq_c = iterate(sysr, 1.0, C, 7)
        projected = count_projections(monkeypatch)
        seq_d = iterate(sysr, 1.0, D, 7)
        assert all(d is c for d, c in zip(seq_d.entries[2:], seq_c.entries[3:]))
        assert len(projected) == 2  # steps 1 and 7 of the second sequence
