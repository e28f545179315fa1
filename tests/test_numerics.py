import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contracta import (
    SystemModel,
    matrix_power,
    reachability_matrix,
    schur_radius_bound,
    singular_extremes,
    spectral_norm,
    symmetric_box,
    symmetric_eigen_min,
)
from contracta.errors import DimensionError, ValidationError

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestMatrixPower:
    def test_scaled_identity(self):
        assert np.allclose(matrix_power(1.1 * np.eye(2), 3), 1.331 * np.eye(2), atol=1e-12)

    def test_quarter_turn(self):
        assert np.allclose(matrix_power(ROTATION, 2), -np.eye(2), atol=1e-14)
        assert np.allclose(matrix_power(ROTATION, 4), np.eye(2), atol=1e-14)

    def test_zero_exponent_identity(self):
        assert np.array_equal(matrix_power(np.array([[3.0]]), 0), np.eye(1))

    def test_first_power_is_a_new_array(self):
        a = np.array([[3.0, 1.0], [0.0, 2.0]])
        first = matrix_power(a, 1)
        assert np.array_equal(first, a) and not np.shares_memory(first, a)

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError):
            matrix_power(np.ones((2, 3)), 2)

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_semigroup_law(self, i, j, seed):
        a = np.random.default_rng(seed).uniform(-0.8, 0.8, size=(3, 3))
        left = matrix_power(a, i + j)
        right = matrix_power(a, i) @ matrix_power(a, j)
        assert np.max(np.abs(left - right)) <= 1e-12


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        assert spectral_norm(np.diag([2.0, 0.5])) == pytest.approx(2.0, rel=1e-10)

    def test_squared_scaled_identity(self):
        assert spectral_norm(matrix_power(1.1 * np.eye(2), 2)) == pytest.approx(1.21, rel=1e-10)


class TestSingularExtremes:
    def test_rotation_reachability_is_identity(self):
        phi = reachability_matrix(ROTATION, np.array([[0.0], [1.0]]), 2)
        assert np.allclose(phi, np.eye(2))
        assert singular_extremes(phi) == pytest.approx((1.0, 1.0), abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_scaled_chain_closed_form(self, n):
        phi = reachability_matrix(1.1 * np.eye(n), np.eye(n), n)
        smin, smax = singular_extremes(phi)
        expected = np.sqrt((1.21**n - 1.0) / 0.21)
        assert smin == pytest.approx(expected, rel=1e-10)
        assert smax == pytest.approx(expected, rel=1e-10)

    def test_diagonal(self):
        assert singular_extremes(np.diag([3.0, 1.0])) == pytest.approx((1.0, 3.0), abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_2x2_closed_form(self, seed):
        m = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(2, 2))
        smin, smax = singular_extremes(m)
        t = float(np.sum(m * m))
        det = abs(float(np.linalg.det(m)))
        disc = max(t * t - 4.0 * det * det, 0.0)
        hi = np.sqrt((t + np.sqrt(disc)) / 2.0)
        lo = det / hi if hi > 0 else 0.0
        assert smax == pytest.approx(hi, abs=1e-9)
        assert smin == pytest.approx(lo, abs=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_consistent_with_gram_spectrum(self, seed):
        m = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(3, 3))
        smin, smax = singular_extremes(m)
        gram = m @ m.T
        w = np.linalg.eigvalsh(gram)
        assert symmetric_eigen_min(gram) == pytest.approx(w[0], abs=1e-12)
        assert smin == pytest.approx(np.sqrt(max(w[0], 0.0)), abs=1e-9)
        assert smax == pytest.approx(np.sqrt(w[-1]), abs=1e-9)


def _orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


class TestSmallSingularValues:
    """Known spectra U diag(2, 1, s) V^T; a Gram-matrix route squares the
    condition number and reads s = 1e-10 as zero."""

    @pytest.mark.parametrize("s", [1e-8, 1e-10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relative_accuracy(self, s, seed):
        rng = np.random.default_rng(seed)
        m = _orthogonal(rng, 3) @ np.diag([2.0, 1.0, s]) @ _orthogonal(rng, 3).T
        smin, smax = singular_extremes(m)
        assert smin == pytest.approx(s, rel=1e-5)
        assert smax == pytest.approx(2.0, rel=1e-5)
        assert spectral_norm(m) == pytest.approx(2.0, rel=1e-5)

    @pytest.mark.parametrize("s, expected", [(0.5e-8, False), (2e-8, True)])
    def test_controllability_threshold(self, s, expected):
        # Reachability [A B, B] = R diag(1, s) R'^T with A = (A B) B^T / |B|^2.
        rng = np.random.default_rng(5)
        phi = _orthogonal(rng, 2) @ np.diag([1.0, s]) @ _orthogonal(rng, 2).T
        B = phi[:, 1:]
        A = np.outer(phi[:, 0], B[:, 0]) / float(B[:, 0] @ B[:, 0])
        box = symmetric_box([1.0, 1.0])
        sysr = SystemModel(A, B, box, symmetric_box([1.0]))
        assert singular_extremes(sysr.reachability)[0] == pytest.approx(s, rel=1e-5)
        assert sysr.controllable is expected


class TestSymmetricEigenMin:
    def test_identity(self):
        assert symmetric_eigen_min(np.eye(2)) == pytest.approx(1.0, abs=1e-10)

    def test_indefinite_diagonal(self):
        assert symmetric_eigen_min(np.diag([-1.0, 5.0])) == pytest.approx(-1.0, abs=1e-10)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            symmetric_eigen_min(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_lyapunov_gap_is_psd(self):
        # closed loop 0.5 I with P from (M/lam)'P(M/lam) - P = -I at lam = 0.8
        from contracta import lyapunov_level_matrix

        M = 0.5 * np.eye(2)
        lam = 0.8
        P = lyapunov_level_matrix(M, lam)
        gap = lam**2 * P - M.T @ P @ M
        assert symmetric_eigen_min(gap) >= -1e-10

    def test_eigenvectors_reconstruct(self):
        # the decomposition the ellipsoid seed checks use (numpy.linalg.eigh)
        s = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
        w, v = np.linalg.eigh(s)
        assert np.max(np.abs(v @ np.diag(w) @ v.T - s)) < 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(3))) < 1e-12
        assert np.all(np.diff(w) >= 0.0)
        assert symmetric_eigen_min(s) == pytest.approx(w[0], abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_known_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        w = np.sort(rng.uniform(-2.0, 2.0, size=4))
        q = _orthogonal(rng, 4)
        s = q @ np.diag(w) @ q.T
        assert symmetric_eigen_min(s) == pytest.approx(w[0], abs=1e-12)


def test_schur_radius_closed_forms():
    assert schur_radius_bound(np.array([[0.3]])) == pytest.approx(0.3)
    assert schur_radius_bound(ROTATION) == pytest.approx(1.0, abs=1e-12)
    assert schur_radius_bound(np.array([[0.5, 1.0], [0.0, 0.2]])) == pytest.approx(0.5, abs=1e-12)
    # 3x3 path: strictly stable triangular matrix certified below one
    m = np.array([[0.5, 1.0, 0.0], [0.0, 0.4, 1.0], [0.0, 0.0, 0.3]])
    bound = schur_radius_bound(m)
    assert 0.5 <= bound < 1.0
