import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contracta import LinearProgram, LpStatus, solve_lp, symmetric_box
from contracta import lp as lp_module
from contracta.config import TOL
from contracta.errors import ComputationError, DimensionError
from conftest import recorded_lp


def test_single_box_optimum():
    out = solve_lp(LinearProgram(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert out.x is not None


def test_empty_feasible_set():
    out = solve_lp(LinearProgram(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([-1.0, -2.0])))
    assert out.status is LpStatus.INFEASIBLE
    assert out.x is None


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_box_support_per_coordinate(n):
    # support of [-10, 10]^n along e_1, computed by hand per coordinate
    box = symmetric_box([10.0] * n)
    c = np.zeros(n)
    c[0] = 1.0
    out = solve_lp(LinearProgram(c, box.H, box.b))
    assert out.value == pytest.approx(10.0, abs=1e-9)


def test_unbounded_detection():
    out = solve_lp(LinearProgram(np.array([1.0, 0.0]), np.array([[-1.0, 0.0]]), np.array([0.0])))
    assert out.status is LpStatus.UNBOUNDED


def test_dimension_mismatch_is_structural():
    with pytest.raises(DimensionError):
        solve_lp(LinearProgram(np.array([1.0, 2.0]), np.array([[1.0]]), np.array([1.0])))
    with pytest.raises(DimensionError):
        solve_lp(LinearProgram(np.array([1.0]), np.array([[1.0]]), np.array([1.0, 2.0])))


def test_variable_bounds_fold_into_rows():
    out = solve_lp(
        LinearProgram(
            np.array([1.0, 1.0]),
            np.array([[1.0, 1.0]]),
            np.array([10.0]),
            lower=np.array([-1.0, -np.inf]),
            upper=np.array([2.0, 3.0]),
        )
    )
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(5.0, abs=1e-9)


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(12, 3))
    b = rng.uniform(0.5, 2.0, size=12)
    c = rng.normal(size=3)
    first = solve_lp(LinearProgram(c, A, b))
    second = solve_lp(LinearProgram(c, A, b))
    assert first.status is second.status
    assert first.value == second.value
    assert np.array_equal(first.x, second.x)


def _vertex_oracle(c, A, b):
    """Exhaustive vertex enumeration: the independent optimum reference."""
    n = A.shape[1]
    best = None
    for idx in itertools.combinations(range(A.shape[0]), n):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-8:
            continue
        v = np.linalg.solve(sub, b[list(idx)])
        if np.all(A @ v <= b + 1e-9):
            val = float(c @ v)
            best = val if best is None else max(best, val)
    return best


def test_gap_against_vertex_oracle():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        for _ in range(15):
            dirs = rng.normal(size=(3 * dim, dim))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            A = np.vstack([dirs, np.eye(dim), -np.eye(dim)])
            b = np.concatenate([rng.uniform(0.5, 2.0, size=3 * dim), 2.0 * np.ones(2 * dim)])
            c = rng.normal(size=dim)
            out = solve_lp(LinearProgram(c, A, b))
            assert out.status is LpStatus.OPTIMAL
            oracle = _vertex_oracle(c, A, b)
            assert oracle is not None
            assert out.value == pytest.approx(oracle, abs=1e-9, rel=1e-9)


def test_degenerate_rows_do_not_cycle():
    # many duplicate/parallel rows force degenerate pivots
    A = np.array([[1.0], [1.0], [1.0], [-1.0], [-1.0]])
    b = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    out = solve_lp(LinearProgram(np.array([1.0]), A, b))
    assert out.value == pytest.approx(1.0, abs=1e-9)


def test_cross_check_against_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(42)
    agree = 0
    for _ in range(150):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4 * n + 1))
        A = rng.normal(size=(k, n))
        b = rng.normal(size=k)
        c = rng.normal(size=n)
        mine = solve_lp(LinearProgram(c, A, b))
        ref = scipy_opt.linprog(-c, A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs")
        if mine.status is LpStatus.OPTIMAL:
            assert ref.status == 0
            assert mine.value == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)
            agree += 1
        elif mine.status is LpStatus.INFEASIBLE:
            assert ref.status == 2
        else:
            assert ref.status == 3
    assert agree >= 20  # the generator must hit plenty of bounded instances


# --- bit-identity against the reference kernel ------------------------------
# A copy of the earlier, unoptimized kernel: np.flatnonzero pricing and ratio
# tests, a reduced-cost pass over every basic row, and an np.outer rank-1
# update. solve_lp must reproduce its pivot sequence, so every outcome is
# bit-identical.

_REF_MAX_PIVOTS = 20000


def _ref_solve(prob):
    c = np.asarray(prob.objective, dtype=float).ravel()
    n = c.size
    A = np.atleast_2d(np.asarray(prob.A, dtype=float).reshape(-1, n))
    b = np.asarray(prob.b, dtype=float).ravel()
    rows = [A]
    rhs = [b]
    for bound, sign in ((prob.lower, -1.0), (prob.upper, 1.0)):
        if bound is None:
            continue
        bound = np.asarray(bound, dtype=float).ravel()
        for i in np.flatnonzero(np.isfinite(bound)):
            row = np.zeros(n)
            row[i] = sign
            rows.append(row[None, :])
            rhs.append(np.array([sign * bound[i]]))
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    status, x = _ref_two_phase(c, A, b)
    if status is LpStatus.INFEASIBLE:
        return status, -np.inf, None
    if status is LpStatus.UNBOUNDED:
        return status, np.inf, None
    return status, float(c @ x), x


def _ref_two_phase(c, A, b):
    n = c.size
    k = A.shape[0]
    if k == 0:
        if np.all(c == 0.0):
            return LpStatus.OPTIMAL, np.zeros(n)
        return LpStatus.UNBOUNDED, None

    ncols = 2 * n + k
    E = np.hstack([A, -A, np.eye(k)])
    h = b.astype(float).copy()
    neg = h < 0.0
    E[neg] *= -1.0
    h[neg] *= -1.0

    art_rows = np.flatnonzero(neg)
    nart = art_rows.size
    if nart:
        art_cols = np.zeros((k, nart))
        art_cols[art_rows, np.arange(nart)] = 1.0
        tab = np.hstack([E, art_cols, h[:, None]])
    else:
        tab = np.hstack([E, h[:, None]])

    basis = np.empty(k, dtype=int)
    basis[~neg] = 2 * n + np.flatnonzero(~neg)
    basis[neg] = ncols + np.arange(nart)

    if nart:
        cost1 = np.zeros(ncols + nart)
        cost1[ncols:] = -1.0
        status = _ref_iterate(tab, basis, cost1)
        assert status is LpStatus.OPTIMAL
        phase1 = float(tab[basis >= ncols, -1].sum())
        if phase1 > TOL.feas:
            return LpStatus.INFEASIBLE, None
        _ref_drive_out_artificials(tab, basis, ncols)
        keep = basis < ncols
        tab = np.hstack([tab[keep, :ncols], tab[keep, -1:]])
        basis = basis[keep]

    cost2 = np.concatenate([c, -c, np.zeros(tab.shape[1] - 1 - 2 * n)])
    status = _ref_iterate(tab, basis, cost2)
    if status is LpStatus.UNBOUNDED:
        return LpStatus.UNBOUNDED, None
    z = np.zeros(tab.shape[1] - 1)
    z[basis] = tab[:, -1]
    return LpStatus.OPTIMAL, z[:n] - z[n : 2 * n]


def _ref_iterate(tab, basis, cost):
    m = tab.shape[1] - 1
    red = cost.copy()
    for i, bi in enumerate(basis):
        if red[bi] != 0.0:
            red -= red[bi] * tab[i, :m]
    for _ in range(_REF_MAX_PIVOTS):
        candidates = np.flatnonzero(red > TOL.opt)
        if candidates.size == 0:
            return LpStatus.OPTIMAL
        enter = int(candidates[0])
        col = tab[:, enter]
        usable = np.flatnonzero(col > TOL.pivot)
        if usable.size == 0:
            return LpStatus.UNBOUNDED
        ratios = tab[usable, -1] / col[usable]
        best = float(np.min(ratios))
        near = usable[ratios <= best + 1e-12]
        leave = int(near[np.argmin(basis[near])])
        _ref_pivot(tab, red, leave, enter)
        basis[leave] = enter
    raise AssertionError("reference simplex exceeded the pivot budget")


def _ref_pivot(tab, red, row, col):
    m = tab.shape[1] - 1
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    red -= red[col] * tab[row, :m]
    red[col] = 0.0


def _ref_drive_out_artificials(tab, basis, ncols):
    dummy = np.zeros(tab.shape[1] - 1)
    for i in range(basis.size):
        if basis[i] < ncols:
            continue
        row = tab[i, :ncols]
        pivots = np.flatnonzero(np.abs(row) > TOL.pivot)
        if pivots.size == 0:
            continue
        col = int(pivots[0])
        _ref_pivot(tab, dummy, i, col)
        basis[i] = col


def _kernel_case(mode, n, k, seed):
    """Random LP of one family; returns the problem and, where the family
    fixes it, the expected status."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n)
    A = rng.normal(size=(k, n))
    b = rng.normal(size=k)  # mixed signs: phase 1 and drive-out
    lower = upper = None
    expected = None
    if mode == "degenerate":
        # about half the rows pass through one point, and some rows are
        # copies or power-of-two multiples of others: ratio ties
        p = rng.normal(size=n)
        b = A @ p + np.where(rng.random(k) < 0.5, 0.0, rng.uniform(0.0, 1.0, k))
        src = rng.integers(0, k, size=k // 3)
        scale = rng.choice([1.0, 2.0, 0.5], size=src.size)
        A[k - src.size :] = scale[:, None] * A[src]
        b[k - src.size :] = scale * b[src]
    elif mode == "equality":
        # equalities as row pairs, one of them implied by two others, leave
        # artificials basic at zero after phase 1
        E = rng.normal(size=(int(rng.integers(1, n + 1)), n))
        E = np.vstack([E, E[0] + E[-1]])
        beta = E @ rng.normal(size=n)
        A = np.vstack([E, -E, A])
        b = np.concatenate([beta, -beta, np.abs(b)])
    elif mode == "unbounded":
        # every row recedes along c and the origin is feasible
        A -= np.maximum(A @ c, 0.0)[:, None] * c / (c @ c)
        b = np.abs(b)
        expected = LpStatus.UNBOUNDED
    elif mode == "infeasible":
        a = rng.normal(size=n)
        A = np.vstack([A, a, -a])
        b = np.concatenate([b, [-0.5, -0.5]])
        expected = LpStatus.INFEASIBLE
    elif mode == "bounds":
        lower = np.where(rng.random(n) < 0.7, rng.uniform(-3.0, 0.0, n), -np.inf)
        upper = np.where(rng.random(n) < 0.7, rng.uniform(0.0, 3.0, n), np.inf)
    return LinearProgram(c, A, b, lower, upper), expected


@pytest.mark.parametrize(
    "mode", ["mixed", "degenerate", "equality", "unbounded", "infeasible", "bounds"]
)
@given(n=st.integers(1, 4), k=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_kernel_bit_identical_to_reference(mode, n, k, seed):
    prob, expected = _kernel_case(mode, n, k, seed)
    ref_status, ref_value, ref_x = _ref_solve(prob)
    out = solve_lp(prob)
    assert out.status is ref_status
    if expected is not None:
        assert out.status is expected
    assert out.value == ref_value
    if ref_x is None:
        assert out.x is None
    else:
        assert np.array_equal(out.x, ref_x)
        assert np.array_equal(np.signbit(out.x), np.signbit(ref_x))  # signed zeros too


# --- tall and budget-bound LPs against the reference kernel -----------------


def _clarkson_case(n, k, count, seed):
    """Redundancy tests of Clarkson's form, tall small LPs: LP ``l``
    maximizes row ``h_l`` over ``k - 1`` shared unit facet rows and ``h_l``
    itself, capped at its slack + 1. Some facets are near-parallel copies or
    power-of-two multiples of others, and some tested rows repeat a facet,
    so ratio tests tie."""
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(k - 1 + count, n))
    H /= np.linalg.norm(H, axis=1)[:, None]
    slack = rng.uniform(0.5, 2.0, size=H.shape[0])
    facets = k - 1
    near = rng.integers(0, facets, size=facets // 5)  # near-parallel copies
    gap = rng.choice([1e-9, 1e-6, 1e-3], size=(near.size, 1))
    H[facets - near.size : facets] = H[near] + gap * rng.normal(size=(near.size, n))
    slack[facets - near.size : facets] = slack[near]
    doubled = rng.integers(0, facets // 2, size=facets // 6)  # 2x, 1/2x, 4x rows
    factor = rng.choice([2.0, 0.5, 4.0], size=doubled.size)
    H[facets // 2 : facets // 2 + doubled.size] = factor[:, None] * H[doubled]
    slack[facets // 2 : facets // 2 + doubled.size] = factor * slack[doubled]
    repeat = rng.random(count) < 0.3  # tested rows that repeat a facet
    source = rng.integers(0, facets, size=count)
    H[facets:][repeat] = H[source[repeat]]
    slack[facets:][repeat] = slack[source[repeat]]
    tested = H[facets:]
    A = np.empty((count, k, n))
    A[:, :-1] = H[:facets]
    A[:, -1] = tested
    rhs = np.empty((count, k))
    rhs[:, :-1] = slack[:facets]
    rhs[:, -1] = slack[facets:] + 1.0
    return tested, A, rhs


def _assert_matches_reference(prob):
    """``solve_lp`` on ``prob`` gives the reference kernel's outcome, bit for
    bit, or raises where the reference's optimal point misses a row by more
    than the feasibility tolerance."""
    status, value, x = _ref_solve(prob)
    try:
        out = solve_lp(prob)
    except ComputationError as exc:
        assert status is LpStatus.OPTIMAL and "infeasible point" in str(exc)
        residual = (prob.A @ x - prob.b).max()
        assert residual > TOL.feas * max(1.0, np.abs(prob.b).max())
        return False
    assert out.status is status and out.value == value
    if x is None:
        assert out.x is None
    else:
        assert np.array_equal(out.x, x)
        assert np.array_equal(np.signbit(out.x), np.signbit(x))  # signed zeros too
    return True


@given(
    n=st.sampled_from([3, 4]),
    k=st.integers(40, 160),
    extra=st.integers(0, 24),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_clarkson_shaped_bit_identical_to_reference(n, k, extra, seed):
    # a 1e-9 near-parallel pair can make the simplex return a point that
    # misses a row by more than the feasibility tolerance; solve_lp raises then
    C, A, b = _clarkson_case(n, k, 9 + extra, seed)
    for c, a, r in zip(C, A, b):
        _assert_matches_reference(LinearProgram(c, a, r))


@pytest.mark.parametrize("budget", [4, 6])
def test_pivot_budget_matches_reference(monkeypatch, budget):
    # under a small pivot budget, the LPs that finish in time keep the
    # reference's outcomes and the others raise the budget error
    rng = np.random.default_rng(7)
    C = rng.normal(size=(24, 3))
    A = rng.normal(size=(24, 30, 3))
    b = np.abs(rng.normal(size=(24, 30)))
    monkeypatch.setattr(lp_module, "_MAX_PIVOTS", budget)
    monkeypatch.setitem(globals(), "_REF_MAX_PIVOTS", budget)
    faults = 0
    for c, a, r in zip(C, A, b):
        prob = LinearProgram(c, a, r)
        try:
            _ref_solve(prob)
        except AssertionError:  # the reference's budget
            faults += 1
            with pytest.raises(ComputationError, match="^simplex exceeded the pivot budget$"):
                solve_lp(prob)
        else:
            assert _assert_matches_reference(prob)
    assert 0 < faults < len(C)


def test_recorded_sweep_lp_still_faults():
    # scripts/sweep_5d.py's seed 10 ran this support LP until its one-step
    # sets carried their vertices; the simplex still ends it 3% below the
    # optimum at an infeasible point, the case a basis refactorization is to
    # mend
    c, A, b = recorded_lp("sweep5d_seed10_nesting_lp")
    with pytest.raises(ComputationError, match=r"infeasible point \(residual 1\.389e-01\)"):
        solve_lp(LinearProgram(c, A, b))


def test_recorded_deeper_sweep_lp_still_faults():
    # the nesting test of step 6 of the same sweep's seed 3, a run that
    # reaches step 6 since single-input steps combine only adjacent target
    # facets; the step-6 set carries no vertex list, so this support LP
    # reaches the simplex, which ends it at an infeasible point
    c, A, b = recorded_lp("sweep5d_seed3_step6_nesting_lp")
    with pytest.raises(ComputationError, match=r"infeasible point \(residual 8\.239e-03\)"):
        solve_lp(LinearProgram(c, A, b))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("origin", ["inside", "outside"])
def test_signed_zeros_of_an_objective_move_no_bit(seed, origin):
    # support memos key a direction on its bits with every zero made +0:
    # an objective whose zeros are -0 must give its +0 twin's outcome, bit
    # for bit, through phase 1 too (origin outside)
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    eye = np.eye(n)
    cuts = rng.normal(size=(int(rng.integers(3, 9)), n))
    A = np.vstack([cuts / np.linalg.norm(cuts, axis=1)[:, None], eye, -eye])
    b = np.concatenate([rng.uniform(0.5, 2.0, size=len(cuts)), np.full(2 * n, 3.0)])
    if origin == "outside":
        b = b - A @ (4.0 * eye[0])  # the box row x_0 <= 3 now reads x_0 <= -1
        assert (b < 0.0).any()
    sparse = rng.normal(size=(6, n)) * (rng.random((6, n)) < 0.5)
    objectives = np.vstack([eye, -eye, sparse])
    objectives = objectives[(objectives != 0.0).any(axis=1)]
    plus = objectives + 0.0
    minus = np.where(objectives == 0.0, -0.0, objectives)
    assert np.signbit(minus[minus == 0.0]).all() and not np.signbit(plus[plus == 0.0]).any()

    def bits(out):
        return out.status, float(out.value).hex(), None if out.x is None else out.x.tobytes()

    for c_plus, c_minus in zip(plus, minus):
        assert bits(solve_lp(LinearProgram(c_minus, A, b))) == bits(solve_lp(LinearProgram(c_plus, A, b)))
