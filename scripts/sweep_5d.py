#!/usr/bin/env python3
"""Sweep the 5-D iteration over random systems: which runs finish, and how.

For each system seed 0-11, draws a random controllable system with n = 5
states and m = 1 input exactly as ``perfbench/workloads.random_controllable_system``
draws it from ``numpy.random.default_rng(seed)``, with box X and U, and
iterates the one-step map 3 times from X at rate 0.9 with the label
``FROM_STATE_SET``. Prints one line per seed: the outcome, the facet counts
of the sets and the seconds taken. Whether a run finishes can hang on the
last bits of its rows, so a change that may move row bits or LP outcomes
should report this table.

Each seed's outcome is pinned in ``EXPECTED``: the facet counts of a run
that finishes, or ``ComputationError`` for a run that raises it (a
numerical fault). The exit code is 1 when a seed's outcome differs from
its pinned one; a change that moves an outcome on purpose restates it.

``--wall`` runs instead the runs pinned in ``WALL``, keyed by (n, m, seed,
steps), which stopped at the default facet cap (``FacetBudgetError``)
while each step combined every pair of its target's facets, or faulted
while each step rebuilt its description from nothing: deeper 5-D
single-input runs, and 4-D runs with two and three inputs.

The last line is the process's peak resident set size, which bounds what
the systems' memos of one-step sets and of their plans hold.

Usage: sweep_5d.py [first_seed] [last_seed]
       sweep_5d.py --wall
"""

import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import random_controllable_system  # noqa: E402

from contracta import SeedLabel, SystemModel, iterate, symmetric_box, validate_cset  # noqa: E402
from contracta.errors import ComputationError  # noqa: E402

N, M, STEPS, RATE = 5, 1, 3, 0.9

FAULT = "ComputationError"
EXPECTED = {
    0: (10, 38, 142, 378),
    1: (10, 38, 106, 240),
    2: (10, 38, 88, 150),
    3: (10, 26, 50, 120),
    4: (10, 38, 84, 154),
    5: (10, 38, 112, 222),
    6: (10, 36, 108, 242),
    7: (10, 40, 134, 240),
    8: (10, 32, 68, 128),
    9: (10, 36, 132, 372),
    10: (10, 32, 86, 122),  # its faulting nesting LP is read off vertices (tests/data)
    11: (10, 36, 94, 186),
}
# (n, m, seed, steps): facet counts. The (5,1) runs pass the 14,651 and
# 11,246 rows that step 4 of seed 1 and step 5 of seed 3 formed with every
# pair; six steps of seed 3 once faulted at step 6, where redundancy removal
# fell back to all-rows LPs. The multi-input runs stopped at the cap while
# their steps projected the lift with every pair, (4,2) seed 0 at step 3
# with 19,600 rows
WALL = {
    (5, 1, 1, 4): (10, 38, 106, 240, 476),
    (5, 1, 3, 5): (10, 26, 50, 120, 210, 254),
    (5, 1, 1, 6): (10, 38, 106, 240, 476, 672, 844),
    (5, 1, 3, 6): (10, 26, 50, 120, 210, 254, 330),
    (4, 2, 0, 3): (8, 46, 180, 392),
    (4, 2, 10, 3): (8, 40, 142, 294),
    (4, 2, 11, 3): (8, 40, 182, 450),
    (4, 3, 0, 2): (8, 76, 390),
}


def run(n: int, m: int, seed: int, steps: int, expected) -> tuple[str, bool]:
    """The report line of one run of ``steps`` steps on the (n, m) system
    of ``seed``, and whether its outcome is the pinned one, ``expected``."""
    A, B, x_half, u_half = random_controllable_system(np.random.default_rng(seed), n, m)
    sysr = SystemModel(A, B, validate_cset(symmetric_box(x_half)), validate_cset(symmetric_box(u_half)))
    start = time.perf_counter()
    try:
        seq = iterate(sysr, RATE, sysr.X, steps, SeedLabel.FROM_STATE_SET)
    except ComputationError as exc:
        outcome, text = FAULT, f"raised ComputationError: {exc}"
    except Exception as exc:  # reported, and never a pinned outcome
        outcome, text = None, f"raised {type(exc).__name__}: {exc}"
    else:
        outcome = tuple(p.nfacets for p in seq.entries)
        text = "finished " + "/".join(map(str, outcome)) + " facets"
    seconds = time.perf_counter() - start
    pinned = outcome == expected
    if not pinned:
        shown = expected if isinstance(expected, str) or expected is None else "/".join(map(str, expected))
        text += f"  MISMATCH: pinned {shown}"
    return f"({n},{m}) seed {seed:2d}  {seconds:7.2f} s  {text}", pinned


def main() -> int:
    if sys.argv[1:] == ["--wall"]:
        runs = [key + (facets,) for key, facets in WALL.items()]
        print(f"iterate from X at rate {RATE}, past the facet cap")
    else:
        first = int(sys.argv[1]) if len(sys.argv) > 1 else 0
        last = int(sys.argv[2]) if len(sys.argv) > 2 else 11
        runs = [(N, M, seed, STEPS, EXPECTED.get(seed)) for seed in range(first, last + 1)]
        print(f"({N},{M},{STEPS}) iterate from X at rate {RATE}")
    failed = False
    for n, m, seed, steps, expected in runs:
        line, pinned = run(n, m, seed, steps, expected)
        print(line, flush=True)
        failed |= not pinned
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")  # KiB on Linux
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
