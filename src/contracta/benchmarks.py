"""Built-in benchmark systems with closed-form iterate geometry.

These three families have hand-computable one-step sets, which makes them
the reference data for the reproduction targets and the test suite:

* scalar benchmark -- n decoupled copies of ``x+ = 1.1 x + u`` with state
  box 10, input box 1; every iterate is a centered box whose half width
  follows a one-dimensional affine recursion.
* oscillator benchmark -- a quarter-turn rotation driven through the second
  coordinate; one-step sets of centered boxes are centered boxes again, and
  distances between the two standard starting boxes repeat in pairs.
* stabilizable benchmark -- ``x+ = 0.8 x`` with a dead input channel: not
  controllable, and the distance between iterates never contracts.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .onestep import SystemModel
from .polytope import symmetric_box, validate_cset


def scalar_system(n: int = 1) -> SystemModel:
    """n decoupled unstable scalars: A = 1.1 I, B = I, |x_i| <= 10, |u_i| <= 1."""
    if n < 1:
        raise ValidationError("dimension must be positive")
    return SystemModel(
        A=1.1 * np.eye(n),
        B=np.eye(n),
        X=validate_cset(symmetric_box([10.0] * n)),
        U=validate_cset(symmetric_box([1.0] * n)),
    )


def scalar_seed(n: int = 1):
    """The box [-2, 2]^n, contractive for the scalar benchmark at any rate
    in [0.6, 1]."""
    return validate_cset(symmetric_box([2.0] * n))


def scalar_seed_halfwidth(k: int, lam: float) -> float:
    """Half width of the k-th iterate started from the box [-2, 2]^n."""
    q = (lam / 1.1) ** k
    return 2.0 * q + (1.0 - q) / (1.1 - lam)

def scalar_state_halfwidth(k: int, lam: float) -> float:
    """Half width of the k-th iterate started from the state box [-10, 10]^n."""
    q = (lam / 1.1) ** k
    return 10.0 * q + (1.0 - q) / (1.1 - lam)


def oscillator_system() -> SystemModel:
    """Quarter-turn rotation with input on the second state, |x_i| <= 5, |u| <= 1."""
    return SystemModel(
        A=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        B=np.array([[0.0], [1.0]]),
        X=validate_cset(symmetric_box([5.0, 5.0])),
        U=validate_cset(symmetric_box([1.0])),
    )


def oscillator_step_box(lam: float, tau1: float, tau2: float) -> tuple[float, float]:
    """One-step image of the centered box ``[-tau1, tau1] x [-tau2, tau2]``.

    Valid for ``tau1 <= 5`` and ``tau2 <= 4``, where the state constraints
    stay inactive: the image is ``[-(lam tau2 + 1), lam tau2 + 1] x
    [-lam tau1, lam tau1]``.
    """
    if not (0.0 < tau1 <= 5.0 and 0.0 < tau2 <= 4.0):
        raise ValidationError("closed form valid only for tau1 in (0,5], tau2 in (0,4]")
    return lam * tau2 + 1.0, lam * tau1


def oscillator_distance(lam: float, j: int) -> float:
    """Distance between the iterates (steps 2j and 2j+1) of the standard
    box pair, valid for j = 0..3: ``ln(lam^(2j) / sum_i lam^(2i) + 1)``."""
    if not 0 <= j <= 3:
        raise ValidationError("closed form valid only for j in 0..3")
    total = sum(lam ** (2 * i) for i in range(j + 1))
    return float(np.log(lam ** (2 * j) / total + 1.0))


def stabilizable_system() -> SystemModel:
    """Stabilizable but uncontrollable scalar: A = 0.8, dead input channel."""
    return SystemModel(
        A=np.array([[0.8]]),
        B=np.array([[0.0]]),
        X=validate_cset(symmetric_box([5.0])),
        U=validate_cset(symmetric_box([1.0])),
    )
