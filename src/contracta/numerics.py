"""Small dense linear-algebra kernels.

Everything here targets matrices of dimension ~10 or less. Eigenvalues of
symmetric matrices come from LAPACK (``numpy.linalg.eigvalsh``), and so do
singular values (``numpy.linalg.svd``), which keeps small ones accurate to
about machine epsilon times the largest; the eigenvalues of the Gram matrix
would square the condition number and misread a singular value of 1e-10 by
orders of magnitude.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidationError


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.ndim != 2 or a.size == 0:
        raise DimensionError(f"{name} must be a nonempty 2-D array")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} has nonfinite entries")
    return a


def matrix_power(a, j: int) -> np.ndarray:
    """Repeated product ``a^j``; ``j = 0`` yields the identity."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("matrix power needs a square matrix")
    if j < 0:
        raise ValidationError("exponent must be nonnegative")
    out = np.eye(a.shape[0])
    for _ in range(j):
        out = out @ a
    return out


def symmetric_eigen_min(s) -> float:
    """Smallest eigenvalue of a symmetric matrix (symmetry checked to 1e-12)."""
    a = _as_matrix(s, "symmetric matrix")
    if a.shape[0] != a.shape[1]:
        raise DimensionError("symmetric_eigen_min needs a square matrix")
    if float(np.max(np.abs(a - a.T))) > 1e-12 * max(1.0, float(np.max(np.abs(a)))):
        raise ValidationError("matrix is not symmetric within 1e-12")
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])


def singular_extremes(m) -> tuple[float, float]:
    """Smallest and largest singular values (of the ``min(rows, cols)``)."""
    s = np.linalg.svd(_as_matrix(m), compute_uv=False)
    return float(s[-1]), float(s[0])


def spectral_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(_as_matrix(m), compute_uv=False)[0])


def reachability_matrix(a, b, horizon: int) -> np.ndarray:
    """Stacked input-to-state maps ``(a^{horizon-1} b, ..., a b, b)``."""
    a = _as_matrix(a, "A")
    b = _as_matrix(b, "B")
    if a.shape[0] != a.shape[1]:
        raise DimensionError("A must be square")
    if b.shape[0] != a.shape[0]:
        raise DimensionError("B row count must match A")
    if horizon < 1:
        raise ValidationError("horizon must be at least 1")
    blocks = [matrix_power(a, j) @ b for j in range(horizon - 1, -1, -1)]
    return np.hstack(blocks)


def schur_radius_bound(m, max_power: int = 64) -> float:
    """Upper bound on the spectral radius; exact for 1x1 and 2x2 matrices.

    Larger matrices use the norm bound ``min_k ||m^k||^(1/k)`` over doubling
    powers, which converges to the radius from above.
    """
    m = _as_matrix(m)
    n = m.shape[0]
    if n != m.shape[1]:
        raise DimensionError("spectral radius needs a square matrix")
    if n == 1:
        return float(abs(m[0, 0]))
    if n == 2:
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        disc = tr * tr / 4.0 - det
        if disc >= 0.0:
            root = np.sqrt(disc)
            return float(max(abs(tr / 2.0 + root), abs(tr / 2.0 - root)))
        return float(np.sqrt(det))
    best = spectral_norm(m)
    power = m.copy()
    k = 1
    while 2 * k <= max_power:
        power = power @ power
        k *= 2
        norm = spectral_norm(power)
        if norm == 0.0:
            return 0.0
        best = min(best, float(norm ** (1.0 / k)))
    return best
