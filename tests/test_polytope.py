import itertools
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contracta import (
    HPolytope,
    LinearProgram,
    LpStatus,
    SystemModel,
    TOL,
    box,
    inradius_origin,
    intersect,
    is_subset,
    iterate,
    noncontractive_point,
    outer_radius,
    project,
    radial,
    remove_redundancy,
    scale,
    set_distances,
    set_feasibility_tolerance,
    solve_lp,
    support,
    support_many,
    symmetric_box,
    validate_cset,
    vertices,
)
from unittest import mock

import contracta.polytope as polytope_module
from contracta.errors import (
    ComputationError,
    ContractaError,
    DimensionError,
    EmptySetError,
    FacetBudgetError,
    OriginNotInteriorError,
    UnboundedDirectionError,
    UnboundedSetError,
    ValidationError,
)
from contracta.benchmarks import scalar_system
from conftest import count_lps, memo_bits, random_controllable_system, random_cset, recorded_lp


def brute_force_kept_rows(p):
    """Rows of ``p`` in collapse order and the mask of rows each one-LP test
    keeps: row i is maximized over every row not yet removed, with its own
    offset relaxed by one, and removed when the optimum stays within feas.

    Collapse order sorts rows by normal, then offset, and keeps the first
    row of each normal."""
    order = np.lexsort(np.vstack([p.b[None, :], p.H.T[::-1]]))
    H, b = p.H[order], p.b[order]
    first = [0] + [i for i in range(1, H.shape[0]) if not np.array_equal(H[i], H[i - 1])]
    H, b = H[first], b[first]
    keep = np.ones(H.shape[0], dtype=bool)
    for i in range(H.shape[0]):
        rows = keep.copy()
        rows[i] = False
        trial_H = np.vstack([H[rows], H[i][None, :]])
        trial_b = np.concatenate([b[rows], [b[i] + 1.0]])
        out = solve_lp(LinearProgram(H[i], trial_H, trial_b))
        if out.status is LpStatus.OPTIMAL and out.value <= b[i] + TOL.feas:
            keep[i] = False
    return H, b, keep


def random_rows(rng, dim, kind):
    """Unreduced random cuts plus a box: a C-set, the same with ~1e-13
    perturbed copies of some rows, a translate with the origin outside, or
    30-80 cuts with offsets in [1, 1.3] (``many-cuts``), whose facets the
    normal rays mostly miss, so Clarkson's tests take several rounds;
    ``wide-cuts`` is ``many-cuts`` with 80 cuts, more than 64 rows with the box."""
    if kind == "wide-cuts":
        dirs = rng.normal(size=(80, dim))
        offsets = rng.uniform(1.0, 1.3, size=dirs.shape[0])
    elif kind == "many-cuts":
        dirs = rng.normal(size=(int(rng.integers(30, 81)), dim))
        offsets = rng.uniform(1.0, 1.3, size=dirs.shape[0])
    else:
        dirs = rng.normal(size=(int(rng.integers(3, 16)), dim))
        offsets = rng.uniform(0.5, 2.5, size=dirs.shape[0])
    H = np.vstack([dirs / np.linalg.norm(dirs, axis=1)[:, None], np.eye(dim), -np.eye(dim)])
    b = np.concatenate([offsets, 3.0 * np.ones(2 * dim)])
    if kind == "near-duplicate":
        copies = rng.integers(0, H.shape[0], size=3)
        H = np.vstack([H, H[copies] + 1e-13 * rng.normal(size=(3, dim))])
        b = np.concatenate([b, b[copies]])
    elif kind == "origin-outside":
        b = b - H @ ((b[0] + 0.5) * H[0])  # the translate puts the origin beyond row 0
        assert b[0] < 0.0
    return HPolytope(H, b)


class TestConstruction:
    def test_zero_row_rejected(self):
        with pytest.raises(ValidationError):
            HPolytope([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])

    def test_overflowing_norm_rejected(self):
        # the norm of the first row overflows: divided by it, the row would
        # read [0, 0] <= 0 in place of x1 + x2 <= 1e-200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="overflows"):
                HPolytope([[1e200, 1e200], [-1, 0], [0, 1], [0, -1], [1, 0]], [1, 1, 1, 1, 1])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            HPolytope([[1.0], [-1.0]], [1.0, 1.0, 1.0])

    def test_rows_normalized(self):
        p = HPolytope([[2.0, 0.0]], [4.0])
        assert np.allclose(p.H, [[1.0, 0.0]])
        assert np.allclose(p.b, [2.0])


class TestValidateCset:
    def test_box_is_cset(self):
        p = validate_cset(symmetric_box([10.0, 10.0]))
        assert p.dim == 2

    def test_halfspace_unbounded(self):
        with pytest.raises(UnboundedSetError):
            validate_cset(HPolytope([[1.0, 0.0]], [1.0]))

    def test_shifted_box_origin_outside(self):
        with pytest.raises(OriginNotInteriorError):
            validate_cset(box([1.0, -1.0], [2.0, 1.0]))

    def test_box_certified_by_its_form(self, monkeypatch):
        # a box with positive offsets is bounded with the origin inside: no
        # support is queried and the input's memo stays empty, and the C-set
        # has its bits, its vertices and the memo its rays would certify; a
        # box without the origin inside is probed and queried as before
        queried, support_lps = [], polytope_module._support_lps

        def recorded(p, directions):
            queried.append(len(directions))
            return support_lps(p, directions)

        monkeypatch.setattr(polytope_module, "_support_lps", recorded)
        for lower, upper in (([-1.0, -2.0, -3.0], [1.0, 2.0, 3.0]), ([-1.0, -2.0], [0.5, 4.0])):
            p = box(lower, upper)
            q = validate_cset(p)
            assert queried == [] and p._memo == {}
            assert q.H.tobytes() == p.H.tobytes() and q.b.tobytes() == p.b.tobytes()
            (memo,) = q._memo.values()
            assert memo_bits(memo) == memo_bits(polytope_module._facet_supports(q.H, q.b))
            assert sorted(map(tuple, q._vertices)) == sorted(itertools.product(*zip(lower, upper)))
        with pytest.raises(OriginNotInteriorError):
            validate_cset(box([1.0, -1.0], [2.0, 1.0]))
        assert queried == [1, 4]  # the origin probe, then the coordinate directions

    def test_keeps_rows_and_memo(self, monkeypatch):
        # the C-set has the input's bits and its memo: the input's supports
        # are read with no LP, and the coordinate LPs serve both
        rng = np.random.default_rng(3)
        H = np.vstack([rng.normal(size=(12, 3)), np.eye(3), -np.eye(3)])
        p = HPolytope(H, np.concatenate([rng.uniform(0.5, 1.5, size=12), np.full(6, 2.0)]))
        directions = rng.normal(size=(10, 3))
        values = support_many(p, directions)
        lps = count_lps(monkeypatch)
        q = validate_cset(p)
        assert lps[0] == 6  # the coordinate LPs
        assert q.H.tobytes() == p.H.tobytes() and q.b.tobytes() == p.b.tobytes()
        assert support_many(q, directions).tobytes() == values.tobytes()
        support_many(p, np.vstack([np.eye(3), -np.eye(3)]))
        assert lps[0] == 6


class TestSupportRadial:
    def test_box_support(self):
        p = symmetric_box([10.0, 10.0])
        assert support(p, [1.0, 0.0]) == pytest.approx(10.0, abs=1e-9)
        assert support(symmetric_box([1.0]), [-1.0]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_box_diagonal_support(self, n):
        p = symmetric_box([2.0] * n)
        a = np.ones(n) / np.sqrt(n)
        assert support(p, a) == pytest.approx(2.0 * np.sqrt(n), abs=1e-9)

    def test_radial_axis_and_corner(self):
        p = validate_cset(symmetric_box([10.0, 10.0]))
        assert radial(p, [1.0, 0.0]) == pytest.approx(10.0, abs=1e-12)
        corner = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert radial(p, corner) == pytest.approx(10.0 * np.sqrt(2.0), abs=1e-9)
        assert radial(validate_cset(symmetric_box([2.0])), [-1.0]) == pytest.approx(2.0)

    def test_radial_requires_unit_direction(self):
        p = validate_cset(symmetric_box([1.0, 1.0]))
        with pytest.raises(ValidationError):
            radial(p, [1.0, 1.0])

    @pytest.mark.parametrize("xi", [[np.nan, 0.0], [np.inf, 0.0], [1.0, -np.inf]])
    def test_radial_rejects_nonfinite_direction(self, xi):
        # a NaN norm passes a `> 1e-12` test; it must not reach the facets
        with pytest.raises(ValidationError, match="must be finite"):
            radial(symmetric_box([1.0, 2.0]), xi)

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_radial_scales_linearly(self, seed, mu):
        rng = np.random.default_rng(seed)
        p = random_cset(rng, 2)
        xi = rng.normal(size=2)
        xi /= np.linalg.norm(xi)
        assert radial(scale(p, mu), xi) == pytest.approx(mu * radial(p, xi), rel=1e-9)


class TestScaleIntersect:
    def test_scale_box(self):
        assert support(scale(symmetric_box([1.0, 1.0]), 2.0), [1.0, 0.0]) == pytest.approx(2.0)
        assert support(scale(symmetric_box([10.0]), 0.5), [1.0]) == pytest.approx(5.0)
        assert support(scale(symmetric_box([2.0]), 1.1), [1.0]) == pytest.approx(2.2)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            scale(symmetric_box([1.0]), 0.0)

    def test_scale_rejects_overflow(self):
        with pytest.raises(ValidationError, match="nonfinite"):
            scale(symmetric_box([10.0]), 1e308)

    def test_scale_and_intersect_keep_rows(self):
        # unit rows are not divided again, so their bits never move
        rng = np.random.default_rng(4)
        for _ in range(20):
            p, q = (HPolytope(rng.normal(size=(6, 3)), rng.uniform(0.5, 2.0, size=6)) for _ in "pq")
            for mu in (0.5, 1.1, 1.5):
                scaled = scale(p, mu)
                assert scaled.H.tobytes() == p.H.tobytes()
                assert scaled.b.tobytes() == (mu * p.b).tobytes()
            both = intersect(p, q)
            assert both.H.tobytes() == np.vstack([p.H, q.H]).tobytes()
            assert both.b.tobytes() == np.concatenate([p.b, q.b]).tobytes()

    def test_intersection_of_boxes(self):
        p = remove_redundancy(intersect(symmetric_box([10.0]), symmetric_box([5.0])))
        assert support(p, [1.0]) == pytest.approx(5.0)
        assert support(p, [-1.0]) == pytest.approx(5.0)

    def test_self_intersection_reduces_to_self(self):
        p = symmetric_box([1.0, 2.0])
        q = remove_redundancy(intersect(p, p))
        assert is_subset(p, q) and is_subset(q, p)
        assert q.nfacets == 4

    def test_shifted_intervals(self):
        p = remove_redundancy(intersect(box([0.0], [2.0]), box([1.0], [3.0])))
        assert support(p, [1.0]) == pytest.approx(2.0)
        assert -support(p, [-1.0]) == pytest.approx(1.0)


class TestSubset:
    def test_nested_boxes(self):
        small = validate_cset(symmetric_box([2.0, 2.0]))
        big = validate_cset(symmetric_box([10.0, 10.0]))
        assert is_subset(small, big)
        assert not is_subset(big, small)
        assert is_subset(small, small)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_subset_implies_radial_order(self, seed):
        rng = np.random.default_rng(seed)
        outer = random_cset(rng, 2)
        inner = validate_cset(scale(outer, 0.7))
        for _ in range(5):
            xi = rng.normal(size=2)
            xi /= np.linalg.norm(xi)
            assert radial(inner, xi) <= radial(outer, xi) + 1e-9


def _direct_support(p, direction):
    """Reference: :func:`support` by one ``solve_lp`` call, past the memo."""
    return polytope_module._support_value(solve_lp(LinearProgram(direction, p.H, p.b)))


def _loop_supports(p, directions):
    """Reference: one support LP per direction, in order."""
    return np.array([_direct_support(p, d) for d in directions])


def _loop_is_subset(inner, outer):
    """Reference: the row-by-row inclusion loop, stopping at the first
    exceeded facet."""
    for row, offset in zip(outer.H, outer.b):
        if _direct_support(inner, row) > offset + TOL.feas:
            return False
    return True


def _result_or_error(fn, *args):
    try:
        return fn(*args), None
    except ContractaError as exc:
        return None, type(exc)


def random_inner(rng, dim, kind):
    """A C-set, a translate with the origin outside, an unbounded set (cuts
    from one half-space, offsets positive), or an empty set."""
    if kind in ("c-set", "origin-outside"):
        return random_rows(rng, dim, "c-set" if kind == "c-set" else "origin-outside")
    dirs = rng.normal(size=(int(rng.integers(2, 10)), dim))
    if kind == "unbounded":
        dirs[:, 0] = -np.abs(dirs[:, 0]) - 0.1  # never caps +e_0
        return HPolytope(dirs, rng.uniform(0.2, 2.0, size=dirs.shape[0]))
    a = dirs[0]
    offsets = np.concatenate([np.ones(dirs.shape[0]), [-1.0, -1.0]])  # a.x <= -1 and a.x >= 1
    return HPolytope(np.vstack([dirs, a, -a]), offsets)


class TestSupportMany:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.sampled_from(["c-set", "origin-outside", "unbounded", "empty"]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_row_by_row_loop(self, seed, dim, kind):
        rng = np.random.default_rng(seed)
        inner = random_inner(rng, dim, kind)
        outer = random_rows(rng, dim, "c-set")  # 7-21 facets
        values, error = _result_or_error(support_many, inner, outer.H)
        ref_values, ref_error = _result_or_error(_loop_supports, inner, outer.H)
        assert error is ref_error
        if ref_error is None:
            assert np.array_equal(values, ref_values)
        assert _result_or_error(is_subset, inner, outer) == _result_or_error(
            _loop_is_subset, inner, outer
        )
        if kind == "c-set":
            assert is_subset(inner, inner)

    def test_exceeded_facet_before_unbounded_one(self, monkeypatch):
        # the inner set exceeds facet 0 and is unbounded along facet 1: the
        # row-by-row loop answers False before it reaches the unbounded LP
        inner = HPolytope([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0]], [1.0, 5.0, 1.0])
        diagonals = np.array([[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
        outer = HPolytope(np.vstack([np.eye(2), diagonals, -np.eye(2)]), 2.0 * np.ones(8))
        assert is_subset(inner, outer) is False
        with pytest.raises(UnboundedDirectionError):
            support_many(inner, outer.H)
        # a fault on facet 2 stays behind both, as in the row-by-row loop;
        # it is oblique, as -e_x and -e_y are inner's certified facets
        _inject_faults(monkeypatch, outer.H[2:3])
        inner = HPolytope(inner.H, inner.b)
        assert is_subset(inner, outer) is False
        for rows in (outer.H, outer.H[1:3]):  # [e_y, -(e_x + e_y)]: unbounded, then the fault
            with pytest.raises(UnboundedDirectionError):
                support_many(inner, rows)
        with pytest.raises(ComputationError, match="^injected fault$"):
            support_many(inner, outer.H[2:])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            support_many(symmetric_box([1.0, 1.0]), np.ones((3, 3)))
        with pytest.raises(DimensionError):
            is_subset(symmetric_box([1.0, 1.0]), symmetric_box([1.0]))


def memo_case(rng, dim, kind, extra):
    """An inner set and an outer polytope for the memo tests. The outer rows
    are a random C-set's, ``extra`` random rows and repeats of some of them;
    for ``exceeded-then-unbounded`` they start with a facet the inner set
    exceeds and one along which it is unbounded."""
    head = np.zeros((0, dim))
    head_b = np.zeros(0)
    if kind == "exceeded-then-unbounded":
        eye = np.eye(dim)
        inner = HPolytope(np.vstack([-eye[0], eye[0], -eye[1:]]), [1.0, 5.0] + [1.0] * (dim - 1))
        head, head_b = eye[:2], np.array([2.0, 2.0])
    else:
        inner = random_inner(rng, dim, kind)
    body = random_rows(rng, dim, "c-set")
    rows = np.vstack([head, body.H, rng.normal(size=(extra, dim))])
    offsets = np.concatenate([head_b, body.b, rng.uniform(0.5, 3.0, size=extra)])
    repeats = rng.integers(0, rows.shape[0], size=int(rng.integers(0, 4)))
    outer = HPolytope(np.vstack([rows, rows[repeats]]), np.concatenate([offsets, offsets[repeats]]))
    return inner, outer


def _bits(out):
    if out is None:
        return None
    return out.status, float(out.value).hex(), None if out.x is None else out.x.tobytes()


def support_lps(p, directions):
    return polytope_module._support_lps(p, directions)


def _memo_results(fn, p, outer):
    """``fn``'s answer on ``p`` against ``outer`` with every float as bits,
    or the error class it raised."""
    result, error = _result_or_error(fn, p, outer)
    if error is not None:
        return error
    if fn is support_lps:
        return [_bits(out) for out in result]
    if fn is polytope_module._first_exceeded:
        return _bits(result)
    return result.tobytes() if isinstance(result, np.ndarray) else result


class TestSupportMemo:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.sampled_from(
            ["c-set", "origin-outside", "unbounded", "empty", "exceeded-then-unbounded"]
        ),
        st.integers(0, 16),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_warm_memo_matches_cold_polytope(self, seed, dim, kind, extra, warm_share):
        rng = np.random.default_rng(seed)
        inner, outer = memo_case(rng, dim, kind, extra)
        warmed = outer.H[rng.random(outer.nfacets) < warm_share]
        calls = (
            (support_lps, outer.H),
            (support_many, outer.H),
            (polytope_module._first_exceeded, outer),
            (is_subset, outer),
        )
        for fn, arg in calls:
            # a warm memo meets the outer rows as a mix of hits and misses
            warm = HPolytope(inner.H, inner.b)
            support_lps(warm, warmed)
            cold = HPolytope(inner.H, inner.b)
            assert _memo_results(fn, warm, arg) == _memo_results(fn, cold, arg)
            assert _memo_results(fn, warm, arg) == _memo_results(fn, cold, arg)  # all hits
        direct = [_bits(solve_lp(LinearProgram(d, cold.H, cold.b))) for d in outer.H]
        assert _memo_results(support_lps, warm, outer.H) == direct
        if kind == "exceeded-then-unbounded":
            assert is_subset(inner, outer) is False

    def test_unbounded_lp_before_exceeded_facet_raises(self, monkeypatch, lp_supports):
        # the inner set is unbounded along facet 0 of the outer one and
        # exceeds facet 1
        inner = HPolytope([[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], [1.0, 1.0, 5.0])
        diagonals = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        outer = HPolytope(np.vstack([np.eye(2), -np.eye(2), diagonals]), 2.0 * np.ones(8))
        lps = count_lps(monkeypatch)
        outcomes = support_lps(inner, outer.H)
        # 8 LPs less those along inner's facets e_2, -e_1 and -e_2, certified
        # in its memo whatever their zeros' signs
        assert lps[0] == 5
        assert outcomes[0].status is LpStatus.UNBOUNDED
        with pytest.raises(UnboundedDirectionError):
            polytope_module._first_exceeded(inner, outer)
        with pytest.raises(UnboundedDirectionError):
            is_subset(inner, outer)
        assert lps[0] == 5  # both read the memo
        direct = [_bits(solve_lp(LinearProgram(d, inner.H, inner.b))) for d in outer.H]
        assert [_bits(out) for out in outcomes] == direct

    def test_faults_are_stored_and_raise_in_row_order(self, monkeypatch, lp_supports):
        # every outcome is stored, the faults too, and a reader raises the
        # first fault in row order
        rng = np.random.default_rng(9)
        p = random_cset(rng, 2)
        directions = rng.normal(size=(8, 2))
        faulty = {directions[1].tobytes(): "first fault", directions[6].tobytes(): "second fault"}
        solve = polytope_module._solve_or_fault

        def injected(c, A, b):  # a fault as _solve_or_fault catches it, with its traceback
            if c.tobytes() not in faulty:
                return solve(c, A, b)
            try:
                raise ComputationError(faulty[c.tobytes()])
            except ComputationError as exc:
                return exc

        monkeypatch.setattr(polytope_module, "_solve_or_fault", injected)
        outcomes = support_lps(p, directions)  # stores every outcome, raises none
        with pytest.raises(ComputationError, match="^first fault$"):
            polytope_module._support_values(outcomes)
        # the 8 directions, validate_cset's 4 coordinate LPs and the 3
        # certified facets the memo was made with
        memo = p._memo[(TOL.feas, TOL.opt, TOL.pivot)]
        assert len(memo) == 15 and memo[directions[6].tobytes()] is outcomes[6]
        assert outcomes[6].__traceback__ is None  # no frame of the solve stays alive

    def test_stationary_table_solves_no_direction_twice(self, monkeypatch, lp_supports):
        # a dead input and A = 0.8 I make the sequences stationary at rate
        # 0.8, so the distance table repeats one pair of objects; per rate the
        # table makes no more LPs than the sides of its pairs taken one at a
        # time. The seeds are a square and a diamond, so every direction
        # asked is a facet normal of the other set, not of the set asked
        def sequences():
            sysr = SystemModel(
                A=0.8 * np.eye(2),
                B=np.zeros((2, 1)),
                X=validate_cset(symmetric_box([5.0, 5.0])),
                U=validate_cset(symmetric_box([1.0])),
            )
            C = validate_cset(symmetric_box([1.0, 1.0]))
            D = validate_cset(HPolytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], [2.0] * 4))
            return [
                list(zip(iterate(sysr, lam, C, 4).entries, iterate(sysr, lam, D, 4).entries))
                for lam in (0.5, 0.8)
            ]

        tables, single = sequences(), sequences()
        assert tables[1][-1][0] is tables[1][1][0]  # stationary at rate 0.8
        lps = count_lps(monkeypatch)
        for table in single:
            for C, D in table:
                support_many(D, C.H)
                support_many(C, D.H)
        one_at_a_time, lps[0] = lps[0], 0
        for table in tables:
            set_distances(table)
        # rate 0.5: 4 for the seeds (the diamond's coordinate LPs from its
        # validation are memo hits) and 8 for each of 4 steps; rate 0.8: the
        # same seeds, then 8 for the one pair its steps repeat
        assert lps[0] <= one_at_a_time == 44

    def test_tolerance_change_solves_again(self, monkeypatch, lp_supports):
        p = random_cset(np.random.default_rng(3), 3)
        directions = np.random.default_rng(4).normal(size=(12, 3))
        lps = count_lps(monkeypatch)
        first = support_many(p, directions)
        assert lps[0] == 12
        assert np.array_equal(support_many(p, directions), first)
        assert lps[0] == 12
        feas, opt = TOL.feas, TOL.opt
        try:
            set_feasibility_tolerance(1e-7)
            support_many(p, directions)
            assert lps[0] == 24
        finally:
            TOL.feas, TOL.opt = feas, opt
        support_many(p, directions)
        assert lps[0] == 24

    def test_signed_zeros_share_a_memo_entry(self, monkeypatch, lp_supports):
        # a direction whose zeros are -0 (as -np.eye makes them) reads the
        # outcome of its +0 twin, alone or beside other rows
        p = random_cset(np.random.default_rng(2), 3)
        minus = np.array([[0.6, -0.0, -0.8], [-0.0, -0.0, -1.0]])
        plus = minus + 0.0
        lps = count_lps(monkeypatch)
        first = support_lps(p, minus)
        solved = lps[0]
        again = support_lps(p, np.vstack([np.ones((1, 3)), plus]))
        assert lps[0] == solved + 1  # only the row of ones
        assert all(a is b for a, b in zip(first, again[1:]))

    @pytest.mark.parametrize("count", [1, 12])  # one direction and many
    def test_memoized_points_are_read_only(self, count):
        p = validate_cset(symmetric_box([1.0, 2.0]))
        directions = np.random.default_rng(count).normal(size=(count, 2))
        for out in support_lps(p, directions):
            assert not out.x.flags.writeable
        sys1 = scalar_system(1)
        witness = noncontractive_point(sys1, 1.0, validate_cset(symmetric_box([20.0])))
        with pytest.raises(ValueError):
            witness[0] = 0.0

    def test_threads_share_a_polytope(self, monkeypatch):
        rng = np.random.default_rng(11)
        cases = [(random_cset(rng, 3), rng.normal(size=(20, 3))) for _ in range(6)]
        expected = [support_many(HPolytope(p.H, p.b), d).tobytes() for p, d in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for (p, directions), want in zip(cases, expected):
                    shared = HPolytope(p.H, p.b)  # a cold memo for the threads to race on
                    futures = [pool.submit(support_many, shared, directions) for _ in range(8)]
                    assert all(f.result(timeout=60).tobytes() == want for f in futures)
                # one faulting direction: every thread raises it, each its own copy
                p, directions = cases[0]
                _inject_faults(monkeypatch, directions[7:8])
                shared = HPolytope(p.H, p.b)
                futures = [pool.submit(support_many, shared, directions) for _ in range(8)]
                errors = [f.exception(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(type(e) is ComputationError and str(e) == "injected fault" for e in errors)
        assert len({id(e) for e in errors}) == len(errors)
        (memo,) = shared._memo.values()
        assert all(e is not memo[directions[7].tobytes()] for e in errors)


class TestCertifiedFacets:
    """A row whose own normal ray from the origin crosses it first, clearly,
    is a facet: its support is its offset, in the memo from its making."""

    def test_box_validates_and_reads_axis_supports_with_no_lp(self, monkeypatch):
        lps = count_lps(monkeypatch)
        parent = box([-1.0, -2.0, -0.5], [3.0, 2.0, 0.25])
        p = validate_cset(parent)
        eye = np.eye(3)
        directions = np.concatenate((eye, -eye))
        values = support_many(p, directions)
        outcomes = support_lps(p, directions)
        assert lps[0] == 0
        for d, value, out in zip(directions, values, outcomes):
            ref = solve_lp(LinearProgram(d, p.H, p.b))
            assert _bits(out) == _bits(ref) and value == ref.value
            assert np.array_equal(np.signbit(out.x), np.signbit(ref.x))  # +0, not -0
            assert not out.x.flags.writeable

    def test_redundant_row_keeps_its_lp_value(self, monkeypatch):
        # a box plus x1 <= 5, and an oblique redundant row: neither is
        # crossed first by its own normal ray; x1's support is the box's 1
        extra = HPolytope([[1.0, 0.0], [1.0, 1.0]], [5.0, 5.0])
        p = validate_cset(intersect(symmetric_box([1.0, 1.0]), extra))
        lps = count_lps(monkeypatch)
        values = [support(p, p.H[i]) for i in (4, 5)]
        assert lps[0] == 1  # the oblique row's; x1's is the box facet's
        for i, value in zip((4, 5), values):
            assert value == solve_lp(LinearProgram(p.H[i], p.H, p.b)).value
            assert value < p.b[i] - 1.0

    def test_unclear_self_hit_takes_the_lp(self, monkeypatch):
        # two rows 1e-13 apart tie on each other's normal ray: no certificate
        near = HPolytope([[1.0, 1e-13]], [1.0])
        lps = count_lps(monkeypatch)
        p = validate_cset(intersect(symmetric_box([1.0, 1.0]), near))
        assert lps[0] == 1  # the coordinate LP along e_1; -e_1 and +-e_2 are certified
        out = support_lps(p, p.H[4:])[0]
        assert lps[0] == 2
        assert _bits(out) == _bits(solve_lp(LinearProgram(p.H[4], p.H, p.b)))

    def test_tolerance_change_certifies_again(self, monkeypatch):
        # along e_1 the near row is crossed about 1e-7 after the box facet:
        # clear under feas 1e-9 (a 1e-8 margin), not under 1e-7 (1e-6), so
        # the new tolerances' memo takes e_1's LP
        near = HPolytope([[1.0, 1e-4]], [1.0 + 1e-7])
        p = validate_cset(intersect(symmetric_box([1.0, 1.0]), near))
        directions = np.concatenate((np.eye(2), -np.eye(2)))
        lps = count_lps(monkeypatch)
        first = support_many(p, directions)
        assert lps[0] == 0
        feas, opt = TOL.feas, TOL.opt
        try:
            set_feasibility_tolerance(1e-7)
            assert np.array_equal(support_many(p, directions), first)
            assert lps[0] == 1
        finally:
            TOL.feas, TOL.opt = feas, opt
        support_many(p, directions)
        assert lps[0] == 1

    def test_equal_bits_equal_outcomes_in_any_order(self):
        # a support along a facet normal reads the same bits whether it is
        # asked before validate_cset or after it, on a polytope built on a
        # reduced set's rows. The reduced set carries its vertices, which its
        # C-set shares: along a certified facet it reads the same bits, and
        # along the other rows the largest value over its vertices
        for seed in range(5):
            p = remove_redundancy(random_rows(np.random.default_rng(seed), 3, "c-set"))
            assert polytope_module._vertex_list(p) is not None
            asked_first = HPolytope._computed(p.H.copy(), p.b.copy())
            before = [_bits(out) for out in support_lps(asked_first, p.H)]
            validate_cset(asked_first)
            validated = validate_cset(HPolytope._computed(p.H.copy(), p.b.copy()))
            after = [_bits(out) for out in support_lps(validated, p.H)]
            assert before == after
            reduced = support_lps(p, p.H)
            assert all(a is b for a, b in zip(support_lps(validate_cset(p), p.H), reduced))
            certified = polytope_module._facet_supports(p.H, p.b)
            assert any((h + 0.0).tobytes() in certified for h in p.H)
            for h, out, bits in zip(p.H, reduced, before):
                if (h + 0.0).tobytes() in certified:
                    assert _bits(out) == bits
                else:
                    assert out.value == pytest.approx(float.fromhex(bits[1]), abs=1e-12)
                    assert (polytope_module._vertex_list(p) == out.x).all(axis=1).any()

    @pytest.mark.parametrize("kind", ["c-set", "many-cuts"])
    def test_certified_outcomes_match_the_simplex(self, kind):
        # every memo entry certified on a reduced set is the support
        # the simplex finds, at a point of the set on the facet
        for seed in range(10):
            p = remove_redundancy(random_rows(np.random.default_rng(seed), 3, kind))
            memo = polytope_module._memo(p)  # made with the certified facets
            assert memo
            for h, offset in zip(p.H, p.b):
                out = memo.get((h + 0.0).tobytes())  # keys hold +0 for -0
                if out is None:
                    continue
                ref = solve_lp(LinearProgram(h, p.H, p.b))
                assert out.value == offset == pytest.approx(ref.value, abs=1e-12)
                assert p.contains(out.x, tol=1e-12) and h @ out.x == pytest.approx(offset)

    def test_noncontractive_witness_on_a_shared_axis_facet(self, monkeypatch):
        # the box seed exceeds its one-step set along +-e_1, a normal of its
        # own: the witness is the certified point of the seed's memo (a
        # validated box's own, beside its vertices), and it lies in the seed
        sys1 = scalar_system(1)
        C = validate_cset(symmetric_box([2.0]))
        lps = count_lps(monkeypatch)
        point = noncontractive_point(sys1, 0.5, C)
        assert lps[0] == 0
        memo = C._memo[(TOL.feas, TOL.opt, TOL.pivot)]
        assert any(point is out.x for out in memo.values())
        assert C.contains(point) and abs(point[0]) == 2.0
        ref = solve_lp(LinearProgram(np.sign(point), C.H, C.b))
        assert ref.x.tobytes() == point.tobytes()


class TestBornMemo:
    """A reduced set whose normal rays find every row a facet, so that no
    redundancy round runs, and a validated box are born with the support
    memo that their first query would make: the rays are traced once."""

    @pytest.mark.parametrize("kind", ["c-set", "near-duplicate", "origin-outside", "many-cuts"])
    def test_reduction_memo_is_the_traced_one(self, kind):
        # random rows are reduced, then their facets again: every row of
        # the second reduction is a facet, and some sets' normal rays find
        # them all (the translates' offsets give the empty memo)
        born = 0
        for seed, dim in itertools.product(range(60), (2, 3)):
            once = remove_redundancy(random_rows(np.random.default_rng(seed), dim, kind))
            for out in (once, remove_redundancy(HPolytope._computed(once.H, once.b))):
                if not out._memo:  # the rounds ran: the memo is made on the first query
                    continue
                born += 1
                assert list(out._memo) == [(TOL.feas, TOL.opt, TOL.pivot)]
                traced = polytope_module._facet_supports(out.H, out.b)
                assert memo_bits(out._memo[(TOL.feas, TOL.opt, TOL.pivot)]) == memo_bits(traced)
        assert born == 0 if kind == "many-cuts" else born > 0

    def test_born_set_traces_no_ray(self, monkeypatch):
        # the memo is read, not made again, and the set's supports along
        # its rows need no LP
        sets = [validate_cset(box([-1.0, -2.0, -0.5], [3.0, 2.0, 0.25]))]
        for seed, dim in itertools.product(range(60), (2, 3)):
            once = remove_redundancy(random_rows(np.random.default_rng(seed), dim, "c-set"))
            sets.append(remove_redundancy(HPolytope._computed(once.H, once.b)))
        sets = [p for p in sets if p._memo]
        assert len(sets) > 4

        def fail(*args):
            raise AssertionError("traced the rays again")

        monkeypatch.setattr(polytope_module, "_first_hits", fail)
        lps = count_lps(monkeypatch)
        for p in sets:
            support_many(p, p.H)
        assert lps[0] == 0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_validated_box_memo_holds_every_row(self, monkeypatch, dim):
        # each row's own ray crosses it alone: all 2n rows are certified, as
        # tracing them finds; offsets at most feas give the empty memo
        rng = np.random.default_rng(dim)
        for lower, upper in ((-rng.uniform(0.5, 3.0, dim), rng.uniform(0.5, 3.0, dim)),
                             (-np.full(dim, 1e-10), np.full(dim, 2.0))):
            q = validate_cset(box(lower, upper))
            (memo,) = q._memo.values()
            assert memo_bits(memo) == memo_bits(polytope_module._facet_supports(q.H, q.b))
            assert len(memo) == (2 * dim if lower[0] < -TOL.feas else 0)
        # under other tolerances the rays are traced anew, once
        q = validate_cset(symmetric_box(np.ones(dim)))
        calls = []
        first_hits = polytope_module._first_hits

        def counted(*args):
            calls.append(args)
            return first_hits(*args)

        monkeypatch.setattr(polytope_module, "_first_hits", counted)
        feas, opt = TOL.feas, TOL.opt
        try:
            set_feasibility_tolerance(1e-7)
            support_many(q, q.H)
            support_many(q, q.H)
        finally:
            TOL.feas, TOL.opt = feas, opt
        assert len(calls) == 1 and len(q._memo) == 2


class TestVertexSupports:
    """A reduced set whose redundancy rounds end with its complete double
    description carries its vertices, each solved on its tight facets, and
    reads its supports off them with no LP."""

    KINDS = ["c-set", "near-duplicate", "origin-outside", "many-cuts", "wide-cuts"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_kept_vertices_satisfy_every_row(self, kind):
        # each kept vertex lies in its set to 1e-12 and on n of its facets,
        # and the list is the set's whole vertex list (vertices, built anew)
        kept = 0
        for dim in (2, 3, 4):
            for seed in range(8):
                p = remove_redundancy(random_rows(np.random.default_rng(seed), dim, kind))
                V = polytope_module._vertex_list(p)
                if V is None:
                    continue
                kept += 1
                assert not V.flags.writeable and polytope_module._vertex_list(p) is V
                slack = p.b - V @ p.H.T
                assert slack.min() >= -1e-12
                assert ((np.abs(slack) <= 1e-9).sum(axis=1) >= dim).all()
                public = np.array(vertices(validate_cset(HPolytope._computed(p.H, p.b))))
                assert len(public) == len(V)
                assert max(np.abs(V - v).max(axis=1).min() for v in public) <= 1e-9
        assert kept == 0 if kind == "origin-outside" else kept >= 20

    def test_one_step_vertices_satisfy_every_row(self):
        # the ladder's sets: a one-step set keeps its final reduction's list
        for seed in range(4):
            sysr = random_controllable_system(np.random.default_rng(seed), 3, 1)
            for q in iterate(sysr, 0.9, sysr.X, 3).entries[1:]:
                V = polytope_module._vertex_list(q)
                assert V is not None and (V @ q.H.T - q.b).max() <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_vertex_supports_match_the_simplex(self, monkeypatch, kind):
        # random directions, the set's own rows and the axes: within 1e-12 of
        # solve_lp, at a point of the set, and with no LP on a set with a list
        lps = count_lps(monkeypatch)
        for dim in (2, 3, 4):
            for seed in range(8):
                rng = np.random.default_rng(seed)
                p = remove_redundancy(random_rows(rng, dim, kind))
                eye = np.eye(dim)
                directions = np.vstack([rng.normal(size=(12, dim)), p.H, eye, -eye])
                before = lps[0]
                outcomes = support_lps(p, directions)
                assert lps[0] == before or polytope_module._vertex_list(p) is None
                for d, out in zip(directions, outcomes):
                    ref = solve_lp(LinearProgram(d, p.H, p.b))
                    assert out.value == pytest.approx(ref.value, abs=1e-12)
                    assert p.contains(out.x, tol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_adjacent_facets_share_n_minus_1_vertices(self, dim):
        # pairs sharing n - 1 vertices, counted per vertex, are those of the
        # incidence's own integer product
        described = 0
        for seed in range(6):
            p = random_rows(np.random.default_rng(seed), dim, "many-cuts")
            p = remove_redundancy(p)
            adjacent = polytope_module._adjacent_facets(p)
            if adjacent is None:
                continue
            described += 1
            Z = p._incidence.astype(np.int64)
            assert np.array_equal(adjacent, Z.T @ Z >= dim - 1)
        assert described >= 4

    def test_rank_deficient_rows_give_no_points(self):
        # a vertex marked tight on one row, on two parallel rows (a square
        # system) or on three rows along one line (least squares) is no vertex
        H = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [1.0, 0.0]])
        b = np.ones(5)

        def on(*rows):
            return np.isin(np.arange(5), rows)[None]

        assert polytope_module._vertex_points(H, b, on(2, 3)) is not None
        assert polytope_module._vertex_points(H, b, on(2)) is None
        assert polytope_module._vertex_points(H, b, np.vstack([on(2, 3), on(0, 1)])) is None
        assert polytope_module._vertex_points(H, b, on(0, 1, 4)) is None

    def test_recorded_sweep_lp_read_off_vertices(self):
        # the support LP on which the simplex faults in scripts/sweep_5d.py's
        # seed 10 (tests/data): the set's vertices give its optimum,
        # 1.7134244167570312 (HiGHS), with no LP
        c, A, b = recorded_lp("sweep5d_seed10_nesting_lp")
        p = remove_redundancy(HPolytope(A, b))
        assert p.nfacets == 122 and polytope_module._vertex_list(p) is not None
        assert support(p, c) == pytest.approx(1.7134244167570312, abs=1e-12)

    def test_recorded_deeper_sweep_lp_read_off_vertices(self):
        # the step-6 set of (5,1,6) seed 3 (tests/data) kept four redundant
        # rows whose all-rows LPs faulted; reduced again, its rows keep 330
        # facets and their vertices, which give the optimum
        # 1.6165297350325298 (HiGHS) with no LP
        c, A, b = recorded_lp("sweep5d_seed3_step6_nesting_lp")
        p = remove_redundancy(HPolytope._computed(A, b))
        assert p.nfacets == 330 and polytope_module._vertex_list(p) is not None
        assert support(p, c) == pytest.approx(1.6165297350325298, abs=1e-12)

    def test_incomplete_descriptions_keep_no_list(self, monkeypatch):
        p = random_rows(np.random.default_rng(3), 3, "many-cuts")

        def listed(q):
            return polytope_module._vertex_list(remove_redundancy(q)) is not None

        assert listed(p)
        failures = {
            # the final description is not bounded with every facet at n vertices
            "bounds": [(polytope_module._Description, "is_polytope", lambda dd: False)],
            # no vertex's tight facets span the space
            "rank": [
                (np.linalg, "det", lambda A: np.zeros(A.shape[:-2])),
                (np.linalg, "matrix_rank", lambda A: np.zeros(A.shape[:-2], dtype=int)),
            ],
        }
        for name, patches in failures.items():
            with monkeypatch.context() as patch:
                for owner, attr, failure in patches:
                    patch.setattr(owner, attr, failure)
                assert not listed(p), name
        # a tied row left unsettled sends rows to the all-rows test
        cross = crosspolytope_with_vertex_rows(4, 12)
        assert listed(cross)
        with monkeypatch.context() as patch:
            patch.setattr(polytope_module, "_settle", lambda dd, order, tied, *a: tied.copy())
            assert not listed(cross)
        # an offset within feas: the interior point is not the origin
        shifted = HPolytope(p.H, p.b - p.H @ ((p.b[0] - 1e-10) * p.H[0]))
        assert 0.0 < shifted.b.min() <= TOL.feas
        assert not listed(shifted)


class TestRedundancy:
    def test_dominated_row_removed(self):
        p = remove_redundancy(HPolytope([[1.0], [1.0], [-1.0]], [1.0, 2.0, 1.0]))
        assert p.nfacets == 2
        assert support(p, [1.0]) == pytest.approx(1.0)

    def test_duplicates_collapse(self):
        p = remove_redundancy(HPolytope([[1.0], [1.0], [-1.0]], [1.0, 1.0, 1.0]))
        assert p.nfacets == 2

    def test_irredundancy_certificates(self):
        rng = np.random.default_rng(5)
        p = random_cset(rng, 2, extra_facets=8)
        r = remove_redundancy(p)
        assert is_subset(p, r) and is_subset(r, p)
        for i in range(r.nfacets):
            rows = np.delete(r.H, i, axis=0)
            offs = np.delete(r.b, i)
            others = HPolytope(np.vstack([rows, r.H[i][None, :]]), np.concatenate([offs, [r.b[i] + 1.0]]))
            assert support(others, r.H[i]) > r.b[i] - 1e-9

    def test_empty_input_raises(self):
        with pytest.raises(EmptySetError):
            remove_redundancy(HPolytope([[1.0], [-1.0]], [-1.0, -2.0]))

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.sampled_from(["c-set", "near-duplicate", "origin-outside", "many-cuts"]),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_brute_force_rule(self, seed, dim, kind):
        p = random_rows(np.random.default_rng(seed), dim, kind)
        H, b, keep = brute_force_kept_rows(p)
        r = remove_redundancy(p)
        assert np.array_equal(r.H, H[keep]) and np.array_equal(r.b, b[keep])

    @pytest.mark.parametrize("kind", ["c-set", "near-duplicate", "origin-outside", "many-cuts"])
    def test_kept_rows_keep_their_bits(self, kind):
        # the kept rows are the input's, not divided again by their norms
        for seed in range(10):
            p = random_rows(np.random.default_rng(seed), 3, kind)
            keep = polytope_module._irredundant_rows(p)[0]
            r = remove_redundancy(p)
            assert r.H.tobytes() == p.H[keep].tobytes() and r.b.tobytes() == p.b[keep].tobytes()

    def test_many_cuts_take_several_rounds(self, monkeypatch):
        # the many-cuts family above exercises retests in later rounds; a
        # round reads its verdicts off the description, one maxima call each
        lps = count_lps(monkeypatch)
        rounds = []
        for seed in range(20):
            p = random_rows(np.random.default_rng(seed), 3, "many-cuts")
            read = polytope_module._Description.maxima
            with mock.patch.object(
                polytope_module._Description, "maxima", autospec=True, side_effect=read
            ) as maxima:
                remove_redundancy(p)
            rounds.append(maxima.call_count)
        assert sum(r >= 2 for r in rounds) >= 15, rounds
        assert lps[0] == 0  # no LP: the origin is inside and no row is undecidable

    def test_flat_segment_keeps_all_rows(self):
        # {1}: zero Chebyshev radius, so every row is tested against all others
        r = remove_redundancy(intersect(box([0.0], [1.0]), box([1.0], [2.0])))
        assert r.H.tolist() == [[-1.0], [1.0]]
        assert r.b.tolist() == [-1.0, 1.0]

    def test_faulting_clarkson_tests_keep_their_rows(self, monkeypatch):
        # rows the description cannot decide take the all-rows LP test, where
        # a test LP that trips solve_lp's checks keeps its row, which never
        # changes the set; the other rows are decided as without the fault
        p = random_rows(np.random.default_rng(3), 3, "many-cuts")
        H, b, keep = brute_force_kept_rows(p)
        victims = np.flatnonzero((np.count_nonzero(H, axis=1) == 1) & ~keep)  # box rows
        assert victims.size >= 2
        _inject_faults(monkeypatch, H[victims])
        r = remove_redundancy(p)  # the rounds decide every row, with no LP
        assert np.array_equal(r.H, HPolytope(H[keep], b[keep]).H)
        assert np.array_equal(r.b, HPolytope(H[keep], b[keep]).b)
        failures = {
            "maxima": lambda dd, rows: (np.full(len(rows), np.nan), np.zeros_like(rows)),
            "is_polytope": lambda dd: False,
        }
        keep[victims] = True
        for name, failure in failures.items():
            with monkeypatch.context() as patch:
                patch.setattr(polytope_module._Description, name, failure)
                r = remove_redundancy(p)
            assert np.array_equal(r.H, HPolytope(H[keep], b[keep]).H), name
            assert np.array_equal(r.b, HPolytope(H[keep], b[keep]).b), name

    @pytest.mark.parametrize("seed", [12, 13])
    def test_tied_hits_settled_without_lp(self, monkeypatch, seed):
        # rays through the degenerate vertices of a cross-polytope tie; each
        # tied row that beats the description is inserted and settled after
        # the rounds, with no all-rows LP
        p = crosspolytope_with_vertex_rows(4, seed)
        H, b, keep = brute_force_kept_rows(p)
        solved = []
        solve = polytope_module._solve_or_fault
        monkeypatch.setattr(
            polytope_module, "_solve_or_fault", lambda *lp: solved.append(lp) or solve(*lp)
        )
        tied = []
        settle = polytope_module._settle
        monkeypatch.setattr(polytope_module, "_settle", lambda *a: tied.append(a[2].sum()) or settle(*a))
        r = remove_redundancy(p)
        assert np.array_equal(r.H, H[keep]) and np.array_equal(r.b, b[keep])
        assert solved == [] and tied  # no all-rows LP, and the tie path ran

    def test_faulting_all_rows_test_keeps_its_row(self, monkeypatch):
        # the edge of test_flat_square_edge with the redundant cut x + y <= 3:
        # the all-rows test removes the cut, unless its LP faults
        p = intersect(
            intersect(box([0.0, 0.0], [1.0, 1.0]), box([1.0, 0.0], [2.0, 1.0])),
            HPolytope([[1.0, 1.0]], [3.0]),
        )
        assert remove_redundancy(p).nfacets == 4
        _inject_faults(monkeypatch, p.H[-1:])
        r = remove_redundancy(p)
        assert r.nfacets == 5 and (r.H == p.H[-1]).all(axis=1).any()

    def test_flat_square_edge(self):
        # the shared edge {1} x [0, 1] of two unit squares
        r = remove_redundancy(intersect(box([0.0, 0.0], [1.0, 1.0]), box([1.0, 0.0], [2.0, 1.0])))
        assert r.H.tolist() == [[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [1.0, 0.0]]
        assert r.b.tolist() == [-1.0, 0.0, 1.0, 1.0]


def crosspolytope_with_vertex_rows(n, seed):
    """|x|_1 <= 1 with up to 12 more rows of small integer normals, each
    through a vertex of it, so weakly redundant, and the origin moved by up
    to 0.3 along some axes; rows in a drawn order."""
    rng = np.random.default_rng(seed)
    signs = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
    normals = rng.integers(-2, 3, size=(12, n)).astype(float)
    normals = normals[np.abs(normals).sum(axis=1) > 0]
    vertices_ = np.vstack([np.eye(n), -np.eye(n)])
    H = np.vstack([signs, normals])
    b = np.concatenate([np.ones(len(signs)), (normals @ vertices_.T).max(axis=1)])
    b = b - H @ (rng.uniform(-0.3, 0.3, size=n) * (rng.random(n) < 0.5))
    order = rng.permutation(len(b))
    return HPolytope(H[order], b[order])


def _inject_faults(monkeypatch, rows):
    """Make every LP that maximizes one of ``rows`` fault in ``polytope``, a
    redundancy test or a support LP: it gives
    ``ComputationError("injected fault")`` in place of its outcome."""
    solve = polytope_module._solve_or_fault

    def faulty_solve(c, A, b):
        if c.size == rows.shape[1] and (rows == c).all(axis=1).any():
            return ComputationError("injected fault")
        return solve(c, A, b)

    monkeypatch.setattr(polytope_module, "_solve_or_fault", faulty_solve)


def brute_force_vertices(H, b):
    """Vertices of the bounded set ``{x | H x <= b}``, from every n-row
    subset with a nonsingular matrix, and each vertex's incidence on each row."""
    n = H.shape[1]
    idx = np.array(list(itertools.combinations(range(len(b)), n)))
    subs = H[idx]
    ok = np.abs(np.linalg.det(subs)) > 1e-10
    points = np.linalg.solve(subs[ok], b[idx[ok]][..., None])[..., 0]
    points = points[(points @ H.T <= b + 1e-9).all(axis=1)]
    found = []
    for v in points:
        if not any(np.abs(v - u).max() <= 1e-8 for u in found):
            found.append(v)
    V = np.array(found)
    return V, np.abs(V @ H.T - b) <= 1e-9


def describe(H, b):
    """The double description of ``{x | H x <= b}`` (every offset positive),
    its rows inserted in order."""
    dd = polytope_module._Description(H.shape[1])
    for h, offset in zip(H, b):
        dd.insert(np.append(h, -offset))
    return dd


def cube_with_corner_cut(n):
    """[-1, 1]^n (n >= 3) cut by the sum of the coordinates at most n - 2:
    every corner with one coordinate -1 lies on n + 1 rows."""
    eye = np.eye(n)
    return HPolytope(np.vstack([eye, -eye, np.ones(n)]), np.append(np.ones(2 * n), n - 2.0))


def cross_polytope(n):
    """|x|_1 <= 1: each vertex +-e_i lies on 2^(n - 1) rows."""
    signs = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
    return HPolytope(signs, np.ones(len(signs)))


def weakly_redundant_square():
    """[-1, 1]^2 and the row x + y <= 2, which touches the corner (1, 1)."""
    return HPolytope(np.vstack([np.eye(2), -np.eye(2), np.ones(2)]), [1.0, 1.0, 1.0, 1.0, 2.0])


class TestDescription:
    @pytest.mark.parametrize(
        "dim,kind",
        [(d, k) for d in (2, 3, 4) for k in ("c-set", "box", "cross")]
        + [(2, "many-cuts"), (3, "many-cuts"), (3, "corner-cut"), (4, "corner-cut")]
        + [(3, "wide-cuts")]  # 86 inserted rows: wider than a 64-bit word of incidence
        + [(5, "c-set"), (5, "box"), (5, "cross"), (2, "weakly-redundant")],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_vertices(self, dim, kind, seed):
        # the double description of the rows, and the public vertices of the set
        rng = np.random.default_rng(seed)
        if kind in ("c-set", "many-cuts", "wide-cuts"):
            p = random_rows(rng, dim, kind)  # unreduced: redundant rows are inserted too
        elif kind == "box":
            p = symmetric_box(rng.uniform(0.5, 3.0, size=dim))
        elif kind == "corner-cut":
            p = cube_with_corner_cut(dim)
        elif kind == "weakly-redundant":
            p = weakly_redundant_square()
        else:
            p = cross_polytope(dim)
        order = rng.permutation(p.nfacets)
        H, b = p.H[order], p.b[order]
        V, incidence = brute_force_vertices(H, b)
        dd = describe(H, b)
        assert len(dd.lines) == 0 and (dd.rays[:, -1] > 0.0).all()  # bounded
        got = dd.rays[:, :-1] / dd.rays[:, -1:]
        assert got.shape == V.shape
        match = [int(np.abs(got - v).max(axis=1).argmin()) for v in V]
        assert sorted(match) == list(range(len(V)))
        assert np.abs(got[match] - V).max() <= 1e-9
        assert np.array_equal(dd.tight[match, 1:] == 1.0, incidence)
        assert dd.is_polytope() == (incidence.sum(axis=0) >= dim).all()  # redundant rows fail
        if kind in ("corner-cut", "cross") and dim > 2 or kind == "weakly-redundant":
            assert (incidence.sum(axis=1) > dim).any()  # degenerate vertices
        public = np.array(vertices(p))  # the set's facets only, degenerate vertices by lstsq
        assert public.shape == V.shape
        match = [int(np.abs(public - v).max(axis=1).argmin()) for v in V]
        assert sorted(match) == list(range(len(V)))
        assert np.abs(public[match] - V).max() <= 1e-9

    def test_lineality_until_the_rows_span(self):
        # the walls of a square prism leave the z axis as lineality: a row
        # along it is unbounded, and the caps make the cube
        dd = describe(np.vstack([np.eye(3)[:2], -np.eye(3)[:2]]), np.ones(4))
        assert len(dd.lines) == 1 and not dd.is_polytope()
        values, directions = dd.maxima(np.array([[0.0, 0.0, 1.0], [0.6, 0.8, 0.0]]))
        assert values[0] == np.inf and directions[0] @ [0.0, 0.0, 1.0] > 0.0
        assert values[1] == pytest.approx(1.4, abs=1e-12)
        for h in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]):
            dd.insert(np.append(h, -1.0))
        assert len(dd.lines) == 0 and dd.is_polytope()
        corners = dd.rays[:, :-1] / dd.rays[:, -1:]
        assert sorted(map(tuple, np.round(corners, 12))) == sorted(
            itertools.product([-1.0, 1.0], repeat=3)
        )

    def test_rounds_with_rank_deficient_facets(self):
        # a tall prism with tilted caps: the normal rays of the caps leave
        # through the walls, so the first round's facets span only x and y
        caps = np.array([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [1, 1, 1]], float)
        caps = np.vstack([caps, caps * [1.0, 1.0, -1.0]])
        H = np.vstack([np.eye(3)[:2], -np.eye(3)[:2], caps])
        b = np.concatenate([np.ones(4), 5.0 * np.linalg.norm(caps, axis=1) + 0.1 * np.arange(10)])
        p = HPolytope(H, b)
        lines = []
        read = polytope_module._Description.maxima

        def spy(dd, rows):
            lines.append(len(dd.lines))
            return read(dd, rows)

        with mock.patch.object(polytope_module._Description, "maxima", spy):
            r = remove_redundancy(p)
        assert lines[0] == 1 and lines[-1] == 0
        H, b, keep = brute_force_kept_rows(p)
        assert np.array_equal(r.H, H[keep]) and np.array_equal(r.b, b[keep])


    def rows_case(self, kind, seed):
        """Rows in collapse order, each with a normal of its own: random
        cuts, a corner-cut cube or a cross-polytope with weakly redundant
        rows through its vertices, and which of them are facets."""
        if kind == "corner-cut":
            p = cube_with_corner_cut(3 + seed % 2)
        elif kind == "vertex-rows":
            p = crosspolytope_with_vertex_rows(3, seed)
        else:
            p = random_rows(np.random.default_rng(seed), 2 + seed % 3, kind)
        return brute_force_kept_rows(p)

    @pytest.mark.parametrize("kind", ["c-set", "many-cuts", "corner-cut", "vertex-rows"])
    def test_facets_are_the_kept_rows(self, kind):
        # a row is a facet when its vertices span a facet and lie in no
        # other row's larger vertex set: the rows redundancy removal keeps
        for seed in range(6):
            H, b, keep = self.rows_case(kind, seed)
            if (b <= 0.0).any():
                continue
            dd = describe(H, b)
            assert np.array_equal(dd.facets(), keep)

    def test_same_vertices_on_two_rows_give_no_facets(self):
        # two rows through the same facet, 1e-13 apart: which one stays is
        # not read off the description
        H = np.vstack([np.eye(2), -np.eye(2), [[1.0, 1e-13]]])
        dd = describe(H / np.linalg.norm(H, axis=1)[:, None], np.ones(5))
        assert dd.facets() is None

    @pytest.mark.parametrize("kind", ["cross", "corner-cut", "many-cuts"])
    def test_blocked_pairs_keep_their_bits(self, monkeypatch, kind):
        # pairing the cut rays one at a time gives the rays and incidence
        # of pairing them all at once
        if kind == "cross":
            p = cross_polytope(4)
        elif kind == "corner-cut":
            p = cube_with_corner_cut(4)
        else:
            p = random_rows(np.random.default_rng(3), 3, kind)
        whole = describe(p.H, p.b)
        monkeypatch.setattr(polytope_module, "_SHARED_CELLS", 1)
        blocked = describe(p.H, p.b)
        assert whole.rays.tobytes() == blocked.rays.tobytes()
        assert whole.tight.tobytes() == blocked.tight.tobytes()

    def test_growth_past_the_cell_budget_raises(self, monkeypatch):
        # the 4-cube ends with 16 rays by 9 incidence columns, its largest
        # size; the budget is the square of the facet cap
        cube = symmetric_box(np.ones(4))
        assert describe(cube.H, cube.b).tight.size == 16 * 9
        monkeypatch.setattr(polytope_module, "_MIN_CELLS", 0)
        monkeypatch.setenv("CONTRACTA_MAX_FACETS", "12")
        assert describe(cube.H, cube.b).tight.size == 144
        monkeypatch.setenv("CONTRACTA_MAX_FACETS", "11")
        with pytest.raises(FacetBudgetError, match="would hold 16 rays by 9 rows .cap 121"):
            describe(cube.H, cube.b)

    def test_invalid_flag_counts_again_in_float64(self, monkeypatch):
        # a single-precision product that raises the invalid-operation flag
        # is formed again in double precision, with the same pairs
        p = cube_with_corner_cut(4)
        whole = describe(p.H, p.b)
        pairs, flagged = polytope_module._Description._pairs, []

        def flagging(dd, Z, *args):
            if Z.dtype == np.float32:
                flagged.append(len(Z))
                np.float64(0.0) / np.float64(0.0)  # raises under errstate(invalid="raise")
            return pairs(dd, Z, *args)

        monkeypatch.setattr(polytope_module._Description, "_pairs", flagging)
        again = describe(p.H, p.b)
        assert flagged and whole.rays.tobytes() == again.rays.tobytes()
        assert np.array_equal(whole.tight, again.tight) and again.tight.dtype == np.float32


class TestProjection:
    def test_one_variable_elimination_by_hand(self):
        # {(x,u): x - u <= 0, u <= 1, -u <= 1, -x <= 2} projects to [-2, 1]
        p = HPolytope([[1.0, -1.0], [0.0, 1.0], [0.0, -1.0], [-1.0, 0.0]], [0.0, 1.0, 1.0, 2.0])
        shadow = project(p, 1)
        assert support(shadow, [1.0]) == pytest.approx(1.0, abs=1e-9)
        assert support(shadow, [-1.0]) == pytest.approx(2.0, abs=1e-9)

    def test_box_projection(self):
        shadow = project(symmetric_box([1.0, 1.0, 1.0]), 2)
        expect = symmetric_box([1.0, 1.0])
        assert is_subset(shadow, expect) and is_subset(expect, shadow)

    def test_lifted_step_system(self):
        # rotation-with-input lifted set at rate 1 and unit target box
        H = [
            [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
            [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [1.0, 0.0, -1.0],
        ]
        b = [5.0, 5.0, 5.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        shadow = project(HPolytope(H, b), 2)
        expect = box([-2.0, -1.0], [2.0, 1.0])
        assert is_subset(shadow, expect) and is_subset(expect, shadow)

    def test_cylinder_projection_identity(self):
        rng = np.random.default_rng(9)
        p = random_cset(rng, 2)
        lifted_H = np.block(
            [[p.H, np.zeros((p.nfacets, 1))], [np.zeros((2, 2)), np.array([[1.0], [-1.0]])]]
        )
        lifted_b = np.concatenate([p.b, [1.0, 1.0]])
        shadow = project(HPolytope(lifted_H, lifted_b), 2)
        assert is_subset(shadow, p) and is_subset(p, shadow)

    def test_shadow_matches_point_sampling(self):
        rng = np.random.default_rng(21)
        p = random_cset(rng, 3)
        shadow = project(p, 2)
        for _ in range(40):
            xy = rng.uniform(-3.0, 3.0, size=2)
            feasible = solve_lp(
                LinearProgram(np.zeros(1), p.H[:, 2:], p.b - p.H[:, :2] @ xy)
            ).status is LpStatus.OPTIMAL
            if feasible:
                assert shadow.contains(xy, tol=1e-7)
            else:
                assert not shadow.contains(xy, tol=-1e-7)

    def test_facet_cap(self, monkeypatch):
        monkeypatch.setenv("CONTRACTA_MAX_FACETS", "3")
        rng = np.random.default_rng(2)
        p = random_cset(rng, 3)
        from contracta.errors import FacetBudgetError

        with pytest.raises(FacetBudgetError):
            project(p, 2)

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_facet_cap_below_one_rejected(self, monkeypatch, cap):
        monkeypatch.setenv("CONTRACTA_MAX_FACETS", cap)
        with pytest.raises(ValidationError, match="must be a positive integer"):
            project(random_cset(np.random.default_rng(2), 3), 2)

    def test_facet_cap_after_a_reduced_elimination(self, monkeypatch):
        # 4-D to 2-D: the first elimination makes 31 rows, which would grow at
        # the next one, so they are reduced (to 22); the second makes 77
        p = random_cset(np.random.default_rng(0), 4, extra_facets=10)
        reduce = mock.Mock(wraps=polytope_module.remove_redundancy)
        monkeypatch.setattr(polytope_module, "remove_redundancy", reduce)
        monkeypatch.setenv("CONTRACTA_MAX_FACETS", "76")
        with pytest.raises(FacetBudgetError, match="create 77 facets"):
            project(p, 2)
        assert reduce.call_count == 1
        monkeypatch.setenv("CONTRACTA_MAX_FACETS", "77")
        project(p, 2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_shadow_support_matches_projected_vertices(self, seed):
        # independent oracle: the shadow's hull is the projection of the
        # lifted polytope's vertices, so support values must coincide
        rng = np.random.default_rng(seed)
        p = random_cset(rng, 3)
        shadow = project(p, 2)
        lifted_verts = vertices(p)
        for _ in range(6):
            a = rng.normal(size=2)
            a /= np.linalg.norm(a)
            oracle = max(float(a @ v[:2]) for v in lifted_verts)
            assert support(shadow, a) == pytest.approx(oracle, abs=1e-7)

    def test_unconstrained_shadow_raises(self):
        # -2 <= y <= -1 leaves x free: the only combination is the trivial 0 <= 1
        with pytest.raises(UnboundedSetError, match="projection shadow is unconstrained"):
            project(HPolytope([[0.0, 1.0], [0.0, -1.0]], [-1.0, 2.0]), 1)

    def test_empty_input_raises(self):
        # y >= 2 and y <= 1 combine to the trivial row 0 <= -1
        with pytest.raises(EmptySetError, match="projection input is empty"):
            project(HPolytope([[1.0, 1.0], [0.0, -1.0], [0.0, 1.0]], [1.0, -2.0, 1.0]), 1)

    def test_trivial_row_at_second_elimination(self):
        # eliminating z combines z <= 1 and x - z <= 1 into x <= 2, no
        # trivial row; eliminating y then combines y <= c and -y <= c into
        # 0 <= 2c, dropped when c = 1 and empty when c = -1
        H = [
            [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 0.0, 0.0]
        ]
        shadow = project(HPolytope(H, [1.0, 1.0, 1.0, 1.0, 1.0]), 1)
        assert shadow.H.tolist() == [[-1.0], [1.0]]
        assert shadow.b.tolist() == pytest.approx([1.0, 2.0], abs=1e-15)
        with pytest.raises(EmptySetError, match="projection input is empty"):
            project(HPolytope(H, [-1.0, -1.0, 1.0, 1.0, 1.0]), 1)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 3),
        st.sampled_from(["dense", "sparse"]),
        st.sampled_from(["c-set", "shifted"]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_bit_identical_to_reference_loop(self, seed, n, m, inputs, offsets):
        # the rows handed to each reduction, in order, and the shadow's bits
        # (or the error) equal those of the per-row elimination loop
        p = lifted_case(np.random.default_rng(seed), n, m, inputs, offsets)
        assert _traced_projection(project, p, n) == _traced_projection(_reference_project, p, n)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 3),
        st.sampled_from(["dense", "sparse"]),
        st.sampled_from(["c-set", "shifted"]),
        st.sampled_from(["c-set", "shifted"]),
        st.sampled_from([None, 4, 12, 40]),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_replayed_plans_give_the_cold_projection(self, seed, n, m, inputs, offsets, again,
                                                     cap):
        # a projection under plans made by a first projection of the same
        # normals with other offsets has the bits, or the error class and
        # message (cap, then empty, then unbounded), of one without plans
        rng = np.random.default_rng(seed)
        p = lifted_case(rng, n, m, inputs, offsets)
        if again == "c-set":
            b = np.abs(p.b) * rng.uniform(0.5, 1.5, size=p.nfacets) + 0.1
        else:
            b = p.b - rng.uniform(0.0, 1.5, size=p.nfacets)
        q = HPolytope._computed(p.H, b)
        cap = polytope_module._facet_cap() if cap is None else cap
        plans = {}
        first = _outcome(polytope_module._project, p, n, polytope_module._facet_cap(), plans)
        assert first == _outcome(polytope_module._project, p, n, polytope_module._facet_cap())
        assert (p.dim - 1, p.H.tobytes()) in plans or isinstance(first[0], type)
        warm = _outcome(polytope_module._project, q, n, cap, plans)
        assert warm == _outcome(polytope_module._project, q, n, cap)

    def test_replay_checks_the_cap_then_the_offsets(self, monkeypatch):
        # 7 rows with a positive and 11 with a negative coefficient on y
        # form 77 rows, 7 of them without a normal (a and -a cancel). Rows
        # planned under a cap of 77 and replayed under 76 raise before their
        # offsets are read, as without a plan; under 77, offsets of -1 make
        # those rows 0 <= -c, and the replay raises that the input is empty
        a = np.linspace(-1.0, 1.0, 18)
        p = HPolytope(np.column_stack([a, np.r_[np.ones(7), -np.ones(11)]]), np.ones(18))
        plans = {}
        monkeypatch.setenv("CONTRACTA_MAX_FACETS", "77")
        polytope_module._project(p, 1, polytope_module._facet_cap(), plans)
        made, eliminate = [], polytope_module._eliminate
        monkeypatch.setattr(polytope_module, "_eliminate",
                            lambda *args: made.append(args[2]) or eliminate(*args))
        empty = HPolytope._computed(p.H, np.full(18, -1.0))
        for cap, error, message in ((76, FacetBudgetError, "would create 77 facets"),
                                    (77, EmptySetError, "projection input is empty")):
            monkeypatch.setenv("CONTRACTA_MAX_FACETS", str(cap))
            with pytest.raises(error, match=message):
                polytope_module._project(empty, 1, polytope_module._facet_cap(), plans)
            with pytest.raises(error, match=message):
                project(empty, 1)
        assert made == [1, 1]  # only the projections without plans eliminated y


def _outcome(fn, *args):
    """``fn(*args)``'s bits, or its error class and message."""
    try:
        out = fn(*args)
    except ContractaError as exc:
        return type(exc), str(exc)
    return out.H.tobytes(), out.b.tobytes()


def lifted_case(rng, n, m, inputs, offsets):
    """A lifted (x, u) polytope like ``one_step_set``'s: box X and U, a
    target D with random cuts, dense or sparse B (one state per input, with
    zero coefficients), some rows duplicated, some with a looser offset.
    The box rows of U always combine into trivial rows. "shifted" offsets
    may leave the set empty or unbounded."""
    A = rng.uniform(-1.2, 1.2, size=(n, n))
    if inputs == "dense":
        B = rng.uniform(-1.0, 1.0, size=(n, m))
    else:
        B = np.zeros((n, m))
        B[rng.integers(n, size=m), np.arange(m)] = rng.uniform(0.5, 1.0, size=m)
    X = symmetric_box(rng.uniform(2.0, 5.0, size=n))
    U = symmetric_box(rng.uniform(0.5, 1.5, size=m))
    D = random_cset(rng, n, extra_facets=int(rng.integers(0, 4)))
    H = np.zeros((X.nfacets + U.nfacets + D.nfacets, n + m))
    H[: X.nfacets, :n] = X.H
    H[X.nfacets : X.nfacets + U.nfacets, n:] = U.H
    H[X.nfacets + U.nfacets :] = np.hstack([D.H @ A, D.H @ B])
    b = np.concatenate([X.b, U.b, rng.uniform(0.3, 1.0) * D.b])
    copies = rng.integers(H.shape[0], size=int(rng.integers(0, 4)))
    H = np.vstack([H, H[copies]])
    b = np.concatenate([b, b[copies] + rng.choice([0.0, 0.5], size=copies.size)])
    if offsets == "shifted":
        keep = rng.random(H.shape[0]) > 0.2
        H, b = H[keep], b[keep] - rng.uniform(0.0, 1.5, size=np.count_nonzero(keep))
    return HPolytope(H, b)


def _traced_projection(fn, p, keep):
    """``fn(p, keep)``'s shadow bits, or its error class and message, and
    the rows handed to each parallel-row collapse and reduction, in order."""
    seen = []
    collapse, reduce = polytope_module._collapse_parallel, polytope_module.remove_redundancy

    def traced_collapse(H, b):
        seen.append((H.tobytes(), b.tobytes()))
        return collapse(H, b)

    def traced_reduce(q):
        seen.append((q.H.tobytes(), q.b.tobytes()))
        return reduce(q)

    with mock.patch.object(polytope_module, "_collapse_parallel", traced_collapse), \
            mock.patch.object(polytope_module, "remove_redundancy", traced_reduce):
        try:
            shadow = fn(p, keep)
        except ContractaError as exc:
            return type(exc), str(exc), seen
    return shadow.H.tobytes(), shadow.b.tobytes(), seen


def _reference_project(p, keep):
    """The per-row Fourier-Motzkin loop that whole-array eliminations
    replaced, kept as the bit-identity reference (module names qualified,
    so that tracing patches reach it). Each elimination's rows are
    normalized where they are made, by the constructor, and nowhere else."""
    pm = polytope_module
    if not 1 <= keep < p.dim:
        raise ValidationError(f"keep must be in [1, {p.dim - 1}]")
    cap = pm._facet_cap()
    H, b = p.H, p.b
    for col in range(p.dim - 1, keep - 1, -1):
        coeff = H[:, col]
        pos = np.flatnonzero(coeff > pm._ZERO_ROW)
        neg = np.flatnonzero(coeff < -pm._ZERO_ROW)
        zero = np.flatnonzero(np.abs(coeff) <= pm._ZERO_ROW)
        n_new = zero.size + pos.size * neg.size
        if n_new > cap:
            raise FacetBudgetError(
                f"projection would create {n_new} facets (cap {cap}; set {pm._FACET_CAP_ENV})"
            )
        rows = [np.hstack([H[zero][:, :col], b[zero][:, None]])]
        for ip in pos:
            cp = coeff[ip]
            combo_H = (-coeff[neg])[:, None] * H[ip, :col][None, :] + cp * H[neg][:, :col]
            combo_b = (-coeff[neg]) * b[ip] + cp * b[neg]
            rows.append(np.hstack([combo_H, combo_b[:, None]]))
        stacked = np.vstack(rows) if rows else np.zeros((0, col + 1))
        H, b = stacked[:, :col], stacked[:, col]
        norms = np.sqrt(np.sum(H * H, axis=1))
        trivial = norms <= pm._ZERO_ROW
        if np.any(b[trivial] < -TOL.feas):
            raise EmptySetError("projection input is empty")
        H, b = H[~trivial], b[~trivial]
        if H.shape[0] == 0:
            raise UnboundedSetError("projection shadow is unconstrained")
        shadow = HPolytope(H, b)
        if col > keep:
            nxt = shadow.H[:, col - 1]
            pos = np.count_nonzero(nxt > pm._ZERO_ROW)
            neg = np.count_nonzero(nxt < -pm._ZERO_ROW)
            if pos * neg <= pos + neg:  # the next elimination cannot add rows
                kept = pm._collapse_parallel(shadow.H, shadow.b)
                H, b = shadow.H[kept], shadow.b[kept]
                continue
        shadow = pm.remove_redundancy(shadow)
        H, b = shadow.H, shadow.b
    return shadow


class TestVertices:
    def test_square(self):
        verts = vertices(validate_cset(symmetric_box([1.0, 1.0])))
        got = sorted(tuple(np.round(v, 9)) for v in verts)
        assert got == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]

    def test_rectangle(self):
        verts = vertices(validate_cset(symmetric_box([2.0, 1.0])))
        assert len(verts) == 4
        assert all(abs(v[0]) == pytest.approx(2.0) and abs(v[1]) == pytest.approx(1.0) for v in verts)

    def test_simplex(self):
        # the unit simplex translated by minus its centroid: a C-set
        p = HPolytope(np.vstack([-np.eye(3), np.ones((1, 3))]), np.full(4, 0.25))
        got = sorted(tuple(np.round(v, 12)) for v in vertices(p))
        assert got == sorted([(-0.25, -0.25, -0.25)] + [tuple(np.eye(3)[i] - 0.25) for i in range(3)])

    def test_five_dimensional_box(self):
        verts = vertices(validate_cset(symmetric_box([1.0, 2.0, 3.0, 4.0, 5.0])))
        got = sorted(tuple(v) for v in verts)  # box corners are exact
        assert got == sorted(itertools.product(*[(-w, w) for w in (1.0, 2.0, 3.0, 4.0, 5.0)]))

    def test_carried_list_is_read(self, monkeypatch):
        # a set that carries its vertices builds no description for them
        p = remove_redundancy(random_rows(np.random.default_rng(3), 3, "many-cuts"))
        V = polytope_module._vertex_list(p)
        assert V is not None

        def fail(*args):
            raise AssertionError("built a description")

        monkeypatch.setattr(polytope_module._Description, "insert", fail)
        monkeypatch.setattr(polytope_module, "_irredundant_rows", fail)
        got = vertices(validate_cset(p))
        assert np.array_equal(np.array(got), V) and got[0].flags.writeable
        with pytest.raises(AssertionError, match="built a description"):
            vertices(validate_cset(HPolytope._computed(p.H, p.b)))

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_validated_box_carries_its_vertices(self, dim):
        # a box, its rows in any order, gets its 2^n vertices in closed form
        # and no incidence: the bits of each vertex solved on its tight rows.
        # Its memo is its own: none of its input's LP outcomes is read
        rng = np.random.default_rng(dim)
        p = box(-rng.uniform(0.5, 3.0, dim), rng.uniform(0.5, 3.0, dim))
        order = rng.permutation(2 * dim)
        p = HPolytope._computed(p.H[order], p.b[order])
        q = validate_cset(p)
        V = polytope_module._vertex_list(q)
        assert V is not None and not V.flags.writeable and q._incidence is None
        assert q._memo is not p._memo and q.H is p.H
        described = vertices(polytope_module.CSetPolytope._computed(q.H, q.b))
        assert len(V) == len(described) == 2**dim
        assert {v.tobytes() for v in V} == {v.tobytes() for v in described}

    def test_other_sets_get_no_closed_form(self):
        # an extra row, an oblique square, and a box past _BOX_DIM dimensions
        square = symmetric_box([1.0, 2.0])
        turn = np.array([[0.6, -0.8], [0.8, 0.6]])
        big = polytope_module._BOX_DIM + 1
        for p in (HPolytope(np.vstack((square.H, [[1.0, 1.0]])), np.append(square.b, 2.5)),
                  HPolytope(square.H @ turn, square.b), symmetric_box(np.ones(big))):
            q = validate_cset(p)
            assert polytope_module._vertex_list(q) is None and q._memo is p._memo

    @pytest.mark.parametrize("read_vertices", [True, False])
    def test_box_supports(self, request, monkeypatch, read_vertices):
        # an oblique support of a validated box is read off its vertices, and
        # with the lp_supports fixture it reaches the simplex
        if not read_vertices:
            request.getfixturevalue("lp_supports")
        p = validate_cset(symmetric_box([1.0, 2.0, 3.0]))
        lps = count_lps(monkeypatch)
        assert support(p, [1.0, -1.0, 0.5]) == pytest.approx(4.5, abs=1e-12)
        assert lps[0] == (0 if read_vertices else 1)

    def test_unbounded_guard(self):
        with pytest.raises(UnboundedSetError):
            vertices(HPolytope([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("fault", ["is_polytope", "rank"])
    def test_incomplete_description_raises(self, monkeypatch, fault):
        # a description that may miss a vertex never yields a radius
        if fault == "is_polytope":
            monkeypatch.setattr(polytope_module._Description, "is_polytope", lambda dd: False)
        else:  # no determinant clears a square system, and matrix_rank finds rank 0
            monkeypatch.setattr(np.linalg, "det", lambda M: np.zeros(len(M)))
            monkeypatch.setattr(np.linalg, "matrix_rank", lambda M: np.zeros(len(M), dtype=int))
        box = validate_cset(symmetric_box([1.0, 2.0, 3.0]))
        p = polytope_module.CSetPolytope._computed(box.H, box.b)  # no vertex list: the description
        for fn in (vertices, outer_radius):
            with pytest.raises(ComputationError):
                fn(p)

    def test_each_irredundant_facet_touched(self, rng):
        for _ in range(10):
            p = remove_redundancy(random_cset(rng, 2, extra_facets=6))
            verts = vertices(p)
            for row, offset in zip(p.H, p.b):
                touching = sum(1 for v in verts if abs(float(row @ v) - offset) <= 1e-7)
                assert touching >= 2

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_hull_of_vertices_matches_support(self, seed):
        rng = np.random.default_rng(seed)
        p = random_cset(rng, 2)
        verts = vertices(p)
        for _ in range(8):
            a = rng.normal(size=2)
            a /= np.linalg.norm(a)
            hull_support = max(float(a @ v) for v in verts)
            assert hull_support == pytest.approx(support(p, a), abs=1e-8)


class TestRadii:
    def test_inradius_examples(self):
        assert inradius_origin(validate_cset(symmetric_box([10.0, 10.0]))) == pytest.approx(10.0)
        assert inradius_origin(validate_cset(symmetric_box([1.0]))) == pytest.approx(1.0)
        assert inradius_origin(validate_cset(symmetric_box([5.0, 5.0]))) == pytest.approx(5.0)

    @pytest.mark.parametrize("n,expected", [(1, 10.0), (2, 10.0 * np.sqrt(2.0)), (3, 10.0 * np.sqrt(3.0))])
    def test_outer_radius_boxes(self, n, expected):
        assert outer_radius(validate_cset(symmetric_box([10.0] * n))) == pytest.approx(expected, rel=1e-9)

    def test_outer_radius_5d_is_exact(self):
        # |x|_1 <= 5 has its vertices at 5 e_i; a bounding box gave sqrt(125)
        cross = validate_cset(scale(cross_polytope(5), 5.0))
        assert outer_radius(cross) == pytest.approx(5.0, abs=1e-12)
        p = random_cset(np.random.default_rng(5), 5, extra_facets=8)
        V, _ = brute_force_vertices(p.H, p.b)
        assert outer_radius(p) == pytest.approx(np.linalg.norm(V, axis=1).max(), abs=1e-12)
