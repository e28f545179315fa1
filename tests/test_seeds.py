import numpy as np
import pytest

from contracta import (
    EllipsoidSeed,
    SystemModel,
    accept_user_seed,
    is_lambda_contractive,
    is_subset,
    lyapunov_level_matrix,
    polytopic_inner_seed,
    scale,
    support,
    symmetric_box,
    symmetric_eigen_min,
    validate_cset,
    validate_ellipsoid_seed,
    vertices,
)
from contracta.benchmarks import oscillator_system, scalar_seed, scalar_system
from contracta.errors import (
    FacetBudgetError,
    RateTooWeakError,
    SeedNotContractiveError,
    SeedValidationError,
)
from conftest import admits_input


def scalar_reference_seed(beta=4.0, lam=0.6):
    return EllipsoidSeed(K=[[-0.5]], P=[[1.0]], beta=beta, lam=lam)


def planar_system():
    # rotation with full input authority; K shifts the closed loop to 0.3 I
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    B = np.eye(2)
    X = validate_cset(symmetric_box([5.0, 5.0]))
    U = validate_cset(symmetric_box([2.0, 2.0]))
    return SystemModel(A, B, X, U), np.array([[0.3, -1.0], [1.0, 0.3]])


class TestEllipsoidValidation:
    def test_scalar_reference_seed_valid(self):
        sys1 = scalar_system(1)
        seed = validate_ellipsoid_seed(sys1, scalar_reference_seed())
        assert seed.beta == 4.0

    def test_level_exceeding_input_constraint(self):
        sys1 = scalar_system(1)
        with pytest.raises(SeedValidationError, match=r"check \(d\)"):
            validate_ellipsoid_seed(sys1, scalar_reference_seed(beta=5.0))

    def test_indefinite_shape_matrix(self):
        sys1 = scalar_system(1)
        with pytest.raises(SeedValidationError, match=r"check \(a\)"):
            validate_ellipsoid_seed(sys1, EllipsoidSeed(K=[[-0.5]], P=[[-1.0]], beta=4.0, lam=0.6))

    def test_rate_too_small_for_loop(self):
        sys1 = scalar_system(1)
        # closed loop 0.6 cannot certify rate 0.5
        with pytest.raises(SeedValidationError, match=r"check \(b\)"):
            validate_ellipsoid_seed(sys1, scalar_reference_seed(lam=0.5))

    def test_unstable_loop_rejected(self):
        sys1 = scalar_system(1)
        # K = 0 leaves the loop at 1.1; the rate inequality fails first unless lam = 1... and
        # even at lam = 1 the decrease check fails, so stability is reported through (b)
        with pytest.raises(SeedValidationError):
            validate_ellipsoid_seed(sys1, EllipsoidSeed(K=[[0.0]], P=[[1.0]], beta=4.0, lam=1.0))


class TestPolytopicInnerSeed:
    def test_scalar_identity(self):
        sys1 = scalar_system(1)
        C, lam_eff = polytopic_inner_seed(sys1, scalar_reference_seed())
        assert lam_eff == pytest.approx(0.6)
        assert support(C, [1.0]) == pytest.approx(2.0, abs=1e-9)
        assert support(C, [-1.0]) == pytest.approx(2.0, abs=1e-9)

    def test_planar_crosspolytope(self):
        sysp, K = planar_system()
        seed = EllipsoidSeed(K=K, P=np.eye(2), beta=1.0, lam=0.5)
        C, lam_eff = polytopic_inner_seed(sysp, seed)
        assert lam_eff == pytest.approx(0.5 * np.sqrt(2.0))
        got = sorted(tuple(np.round(np.abs(v), 6)) for v in vertices(C))
        r = round(1.0 / np.sqrt(2.0), 6)
        assert got == [(0.0, r), (0.0, r), (r, 0.0), (r, 0.0)]
        assert is_lambda_contractive(sysp, lam_eff, C)

    def test_inflated_rate_must_stay_below_one(self):
        sysp, K = planar_system()
        seed = EllipsoidSeed(K=K, P=np.eye(2), beta=1.0, lam=0.8)
        with pytest.raises(RateTooWeakError):
            polytopic_inner_seed(sysp, seed)

    def test_anisotropic_shape(self):
        sysp, K = planar_system()
        P = np.array([[2.0, 0.3], [0.3, 1.0]])
        seed = EllipsoidSeed(K=K, P=P, beta=0.5, lam=0.5)
        C, lam_eff = polytopic_inner_seed(sysp, seed)
        # every vertex sits on the level set boundary scaled by 1/sqrt(n)
        for v in vertices(C):
            assert float(v @ P @ v) == pytest.approx(0.25, abs=1e-9)
        assert is_lambda_contractive(sysp, lam_eff, C)

    def test_crosspolytope_facets_checked_against_cap(self, monkeypatch):
        # a 4-D seed bridges to 2^4 = 16 facets: past a cap of 15 the bridge
        # raises before it builds a row, not the projection after it
        monkeypatch.setenv("CONTRACTA_MAX_FACETS", "15")
        seed = EllipsoidSeed(K=-0.8 * np.eye(4), P=np.eye(4), beta=1.0, lam=0.4)
        with pytest.raises(FacetBudgetError, match="inscribed cross-polytope would create 16 facets"):
            polytopic_inner_seed(scalar_system(4), seed)
        monkeypatch.delenv("CONTRACTA_MAX_FACETS")
        C, lam_eff = polytopic_inner_seed(scalar_system(4), seed)
        assert C.nfacets == 16 and lam_eff == pytest.approx(0.8)


class TestUserSeeds:
    def test_reference_box_accepted(self):
        sys1 = scalar_system(1)
        for n, sysn in ((1, sys1), (2, scalar_system(2))):
            C = accept_user_seed(sysn, 0.6, scalar_seed(n))
            assert C.dim == n

    def test_rejection_carries_witness(self):
        sys1 = scalar_system(1)
        with pytest.raises(SeedNotContractiveError) as err:
            accept_user_seed(sys1, 0.5, scalar_seed(1))
        assert err.value.witness is not None
        assert abs(err.value.witness[0]) == pytest.approx(2.0)

    def test_seed_outside_state_set_rejected(self):
        sys1 = scalar_system(1)
        with pytest.raises(SeedNotContractiveError):
            accept_user_seed(sys1, 0.9, validate_cset(symmetric_box([11.0])))

    def test_rotation_unit_box_rejected_at_09(self):
        # points with |x2| = 1 map to first coordinate 1 > 0.9, beyond any input's reach
        sysr = oscillator_system()
        C = validate_cset(symmetric_box([1.0, 1.0]))
        with pytest.raises(SeedNotContractiveError, match="seed point") as err:
            accept_user_seed(sysr, 0.9, C)
        witness = err.value.witness
        assert witness is not None
        assert C.contains(witness, tol=1e-9)
        assert not admits_input(sysr, 0.9, C, witness)

    def test_five_dimensional_rejection_witness(self):
        # at rate 0.5 each coordinate needs 1.1 x + u in [-1, 1], so |x| <= 2 / 1.1 < 2
        sys5 = scalar_system(5)
        C = scalar_seed(5)
        with pytest.raises(SeedNotContractiveError) as err:
            accept_user_seed(sys5, 0.5, C)
        witness = err.value.witness
        assert witness is not None and witness.shape == (5,)
        assert C.contains(witness, tol=1e-9)
        assert not admits_input(sys5, 0.5, C, witness)
        assert accept_user_seed(sys5, 0.6, C) is C

    def test_scaling_closure(self, rng):
        sys1 = scalar_system(1)
        C = accept_user_seed(sys1, 0.7, scalar_seed(1))
        for _ in range(10):
            mu = float(rng.uniform(0.05, 1.0))
            accept_user_seed(sys1, 0.7, validate_cset(scale(C, mu)))


class TestLyapunovHelper:
    def test_solves_identity_residual(self):
        M = np.array([[0.4, 0.2], [-0.1, 0.5]])
        lam = 0.8
        P = lyapunov_level_matrix(M, lam)
        residual = (M / lam).T @ P @ (M / lam) - P + np.eye(2)
        assert np.max(np.abs(residual)) < 1e-10
        assert symmetric_eigen_min(P) > 0.0

    def test_feeds_ellipsoid_validation(self):
        sys1 = scalar_system(1)
        K = np.array([[-0.5]])
        P = lyapunov_level_matrix(sys1.A + sys1.B @ K, 0.8)
        seed = validate_ellipsoid_seed(
            sys1, EllipsoidSeed(K=K, P=P, beta=float(P[0, 0] * 4.0), lam=0.8)
        )
        C, lam_eff = polytopic_inner_seed(sys1, seed)
        assert lam_eff == pytest.approx(0.8)
        assert is_subset(C, sys1.X)
