"""The reproduction targets and iterates from X solve no LP: every support
they read is along a certified facet or off the vertices a set carries.
The LP kernel solves one LP per call, so this traffic is what it is sized
for."""

import numpy as np
import pytest

from contracta.reproduce import TARGETS
from contracta.scenario import run_scenario_dict
from conftest import count_lps, random_controllable_system


def iterate_scenario(n, m, seed, k):
    """``k`` steps of ``iterate`` from X at rate 0.9 on the test suite's
    random system."""
    sysr = random_controllable_system(np.random.default_rng(seed), n, m)

    def block(p):
        return {"H": p.H.tolist(), "b": p.b.tolist()}

    system = {"A": sysr.A.tolist(), "B": sysr.B.tolist(), "X": block(sysr.X), "U": block(sysr.U)}
    return {"system": system, "task": {"iterate": {"lambda": 0.9, "k": k, "seed": "X"}}}


@pytest.mark.parametrize("target", TARGETS)
def test_reproduction_target_solves_no_lp(monkeypatch, target):
    lps = count_lps(monkeypatch)
    run_scenario_dict({"task": {"reproduce": {"name": target}}})
    assert lps == [0]


@pytest.mark.parametrize("m,seed,facets", [(1, 7, [6, 16, 28, 44, 66]), (2, 8, [6, 14, 30, 54])])
def test_iterate_from_x_solves_no_lp(monkeypatch, m, seed, facets):
    # the distances between consecutive iterates included
    data = iterate_scenario(3, m, seed, len(facets) - 1)
    lps = count_lps(monkeypatch)
    results = run_scenario_dict(data).results
    assert lps == [0]
    assert [len(s["b"]) for s in results["sets"]] == facets
