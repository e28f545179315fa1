"""A-priori contraction factor for the n-step backward map.

For a controllable system the n-fold one-step map contracts the log-radial
distance between nested compact sets by a factor ``eta`` in [0.5, 1) that
depends only on the system, the constraints, and the rate ``lam``:

    rho = lam^(n-1) / alpha * min( r_x_lo / (1 + s_max/s_min),
                                   r_u_lo * s_min )
    eta = 1 - rho / r_x_hi

where ``r_x_lo``/``r_x_hi`` are inscribed/circumscribed ball radii of X,
``r_u_lo`` the inscribed radius of U, ``alpha`` the largest spectral norm of
``A^j`` over j = 1..n (at least 1), and ``s_min``/``s_max`` the extreme
singular values of the n-step reachability matrix. Any conservative radii
(smaller inner, larger outer) keep the factor valid, merely larger.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import ComputationError, NotControllableError, ValidationError
from .onestep import SystemModel, _check_lambda


@dataclass
class ContractionCertificate:
    lam: float
    r_x_lo: float
    r_x_hi: float
    r_u_lo: float
    alpha: float
    sigma_min: float
    sigma_max: float
    rho_hat: float
    eta: float

    def as_dict(self) -> dict:
        fields = asdict(self)
        return {"lambda": fields.pop("lam"), **fields}


def compute_certificate(
    sys: SystemModel,
    lam: float,
    r_x_lo: float | None = None,
    r_x_hi: float | None = None,
    r_u_lo: float | None = None,
) -> ContractionCertificate:
    """Assemble the contraction certificate for ``sys`` at rate ``lam``.

    Radii are computed exactly from the constraint sets unless conservative
    overrides (smaller inner radii, larger outer radius) are supplied. The
    exact radii, ``alpha`` and the singular extremes are the system's own
    constants, computed once per system whatever the rate.
    """
    lam = _check_lambda(lam)
    if not sys.controllable:
        raise NotControllableError("certificate requires a controllable pair (A, B)")

    exact_x_lo, exact_x_hi, exact_u_lo = sys.radii
    r_x_lo = exact_x_lo if r_x_lo is None else float(r_x_lo)
    r_x_hi = exact_x_hi if r_x_hi is None else float(r_x_hi)
    r_u_lo = exact_u_lo if r_u_lo is None else float(r_u_lo)
    if not 0.0 < r_x_lo <= exact_x_lo * (1.0 + 1e-12):
        raise ValidationError("inner state radius must be positive and conservative")
    if r_x_hi < exact_x_hi * (1.0 - 1e-12):
        raise ValidationError("outer state radius must be circumscribing")
    if not 0.0 < r_u_lo <= exact_u_lo * (1.0 + 1e-12):
        raise ValidationError("inner input radius must be positive and conservative")
    if r_x_lo > r_x_hi:
        raise ValidationError("inner radius exceeds outer radius")

    n, alpha = sys.n, sys.alpha
    sigma_min, sigma_max = sys.sigma_extremes
    rho_hat = (lam ** (n - 1) / alpha) * min(
        r_x_lo / (1.0 + sigma_max / sigma_min), r_u_lo * sigma_min
    )
    eta = 1.0 - rho_hat / r_x_hi

    if not rho_hat > 0.0:
        raise ComputationError("contraction margin collapsed to zero")
    if rho_hat > 0.5 * r_x_lo * (1.0 + 1e-12) or not 0.5 - 1e-12 <= eta < 1.0:
        raise ComputationError("certificate invariants violated (numerical fault)")
    return ContractionCertificate(
        lam=lam,
        r_x_lo=r_x_lo,
        r_x_hi=r_x_hi,
        r_u_lo=r_u_lo,
        alpha=float(alpha),
        sigma_min=float(sigma_min),
        sigma_max=float(sigma_max),
        rho_hat=float(rho_hat),
        eta=float(eta),
    )
