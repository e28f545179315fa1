import json
import sys
from pathlib import Path

import numpy as np
import pytest

import contracta.lp as lp_module
import contracta.polytope as polytope_module
from contracta import (
    HPolytope,
    LinearProgram,
    LpStatus,
    SystemModel,
    intersect,
    reachability_matrix,
    remove_redundancy,
    singular_extremes,
    solve_lp,
    symmetric_box,
    validate_cset,
)


def random_cset(rng, dim, extra_facets=5, bound=3.0):
    """Bounded polytope with the origin strictly inside: random cuts plus a box."""
    dirs = rng.normal(size=(extra_facets, dim))
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 1e-6] / norms[norms > 1e-6, None]
    offsets = rng.uniform(0.5, 2.5, size=dirs.shape[0])
    eye = np.eye(dim)
    H = np.vstack([dirs, eye, -eye])
    b = np.concatenate([offsets, bound * np.ones(2 * dim)])
    return validate_cset(remove_redundancy(HPolytope(H, b)))


def recorded_lp(name):
    """The objective, rows and offsets of the LP recorded in
    ``tests/data/<name>.json``, bit for bit."""
    data = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
    return tuple(np.array(data[key], dtype=float) for key in ("objective", "A", "b"))


def nested_cset_pair(rng, dim):
    """C-sets with the first contained in the second (not homothetic)."""
    outer = random_cset(rng, dim)
    inner = validate_cset(remove_redundancy(intersect(outer, random_cset(rng, dim))))
    return inner, outer


def random_controllable_system(rng, n=2, m=1):
    while True:
        A = rng.uniform(-1.2, 1.2, size=(n, n))
        B = rng.uniform(-1.0, 1.0, size=(n, m))
        sigma_min, _ = singular_extremes(reachability_matrix(A, B, n))
        if sigma_min > 1e-2:
            break
    X = validate_cset(symmetric_box(rng.uniform(2.0, 5.0, size=n)))
    U = validate_cset(symmetric_box(rng.uniform(0.5, 1.5, size=m)))
    return SystemModel(A, B, X, U)


def admits_input(sys, lam, C, x) -> bool:
    """Whether some ``u`` in U puts ``A x + B u`` in ``lam * C`` (one LP)."""
    A_u = np.vstack([sys.U.H, C.H @ sys.B])
    b_u = np.concatenate([sys.U.b, lam * C.b - C.H @ (sys.A @ x)])
    out = solve_lp(LinearProgram(np.zeros(sys.m), A_u, b_u))
    return out.status is not LpStatus.INFEASIBLE


def memo_bits(memo) -> dict:
    """A support memo's entries as bits: key, status, value and point."""
    return {
        key: (out.status, float(out.value).hex(), out.x.tobytes()) for key, out in memo.items()
    }


def count_lps(monkeypatch) -> list:
    """From now on, count the ``solve_lp`` calls, each one LP, in the
    returned one-entry list."""
    counter = [0]
    solve = lp_module.solve_lp

    def counted(prob):
        counter[0] += 1
        return solve(prob)

    for name, module in list(sys.modules.items()):
        if name.startswith("contracta") and getattr(module, "solve_lp", None) is solve:
            monkeypatch.setattr(module, "solve_lp", counted)
    return counter


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def lp_supports(monkeypatch):
    """No set reads its supports off vertices, so every support off a
    certified facet reaches the simplex: for tests of LP traffic and LP
    faults."""
    monkeypatch.setattr(polytope_module, "_vertex_list", lambda p: None)
