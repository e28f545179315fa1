"""Shared numeric tolerances.

A single mutable instance (``TOL``) is read by every module at call time so
the CLI ``--tol`` flag can override the feasibility family process-wide.
"""

import math
from dataclasses import dataclass

from .errors import ValidationError


@dataclass
class Tolerances:
    feas: float = 1e-9      # constraint-satisfaction slack
    opt: float = 1e-9       # optimality gap accepted by the simplex
    pivot: float = 1e-11    # smallest usable pivot magnitude
    ctrb: float = 1e-8      # sigma_min threshold for full-rank reachability


TOL = Tolerances()


def set_feasibility_tolerance(value: float) -> None:
    """Override the feasibility/optimality tolerance family."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValidationError("tolerance must be positive and finite")
    TOL.feas = value
    TOL.opt = value
