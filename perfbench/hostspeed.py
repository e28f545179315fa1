"""Host-speed kernel for the contracta benchmark.

On a shared host the speed of the CPU changes by up to 1.9x in episodes of
seconds to minutes, and process CPU time follows wall time, so neither a
longer run nor the best or the median of many runs removes it: a whole run
can fall into a slow episode. The benchmark therefore times a fixed kernel
that does not touch the library next to every timed task and set-up step,
and scales each time to the host speed at which the kernel takes
``REFERENCE_KERNEL_S``. A change to the library does not change the kernel,
so it moves the scaled times as it moves the wall times.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_KERNEL_S = 3.5e-3


class SpeedKernel:
    """A fixed piece of work in roughly the library's mix: small LAPACK
    solves, interpreter arithmetic, small-array numpy calls of the kind a
    dense simplex makes, and a gather and a sum over a 4 MB array. Its wall
    time measures the host speed."""

    ROUNDS = 60

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = np.arange(36.0).reshape(6, 6) + 40.0 * np.eye(6)
        self._b = np.ones(6)
        self._array = rng.random(1 << 19)
        self._gather = rng.integers(0, self._array.size, 1 << 14)
        self.seconds()  # numpy's lazy set-up is not host speed

    def seconds(self) -> float:
        a, b = self._a, self._b
        start = time.perf_counter()
        acc = 0.0
        for _ in range(self.ROUNDS):
            acc += float(np.linalg.solve(a, b) @ b)
            acc += sum(j * 0.5 for j in range(30))
            for _ in range(2):
                row = np.zeros(6)
                row[2] = 1.0
                stacked = np.concatenate([row, b])
                acc += float(np.dot(stacked[:6], b)) + float(np.maximum(row, b).sum())
                acc += np.flatnonzero(row > 0).size
        acc += float(self._array[self._gather].sum()) + float(self._array.sum())
        return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two kernel runs to the
    reference host speed."""
    return REFERENCE_KERNEL_S / (0.5 * (before + after))
