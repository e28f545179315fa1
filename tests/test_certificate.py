import dataclasses

import numpy as np
import pytest

from contracta import SystemModel, compute_certificate, iterate, onestep, set_distance
from contracta.benchmarks import oscillator_system, scalar_system, stabilizable_system
from contracta.errors import NotControllableError, ValidationError
from conftest import nested_cset_pair, random_controllable_system


class TestScalarFamily:
    def test_one_dimensional_eta_is_rate_free(self):
        sys1 = scalar_system(1)
        for lam in (0.6, 0.8, 1.0):
            cert = compute_certificate(sys1, lam)
            assert cert.eta == pytest.approx(1.0 - 1.0 / 11.0, abs=1e-12)
            assert cert.r_x_lo == pytest.approx(10.0)
            assert cert.r_x_hi == pytest.approx(10.0)
            assert cert.r_u_lo == pytest.approx(1.0)
            assert cert.alpha == pytest.approx(1.1, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lam", [0.6, 1.0])
    def test_closed_form_any_dimension(self, n, lam):
        cert = compute_certificate(scalar_system(n), lam)
        sigma = np.sqrt((1.21**n - 1.0) / 0.21)
        rho = lam ** (n - 1) / 1.1**n * min(5.0, sigma)
        assert cert.sigma_min == pytest.approx(sigma, rel=1e-9)
        assert cert.sigma_max == pytest.approx(sigma, rel=1e-9)
        assert cert.rho_hat == pytest.approx(rho, rel=1e-9)
        assert cert.eta == pytest.approx(1.0 - rho / (10.0 * np.sqrt(n)), rel=1e-9)

    def test_two_dimensional_eta_decreases_with_rate(self):
        sys2 = scalar_system(2)
        assert compute_certificate(sys2, 1.0).eta < compute_certificate(sys2, 0.6).eta


class TestOscillator:
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.9, 1.0])
    def test_closed_form(self, lam):
        cert = compute_certificate(oscillator_system(), lam)
        assert cert.rho_hat == pytest.approx(lam, abs=1e-10)
        assert cert.eta == pytest.approx(1.0 - lam / np.sqrt(50.0), abs=1e-10)
        assert cert.alpha == pytest.approx(1.0, abs=1e-10)
        assert (cert.sigma_min, cert.sigma_max) == pytest.approx((1.0, 1.0), abs=1e-10)


class TestGuards:
    def test_uncontrollable_rejected(self):
        with pytest.raises(NotControllableError):
            compute_certificate(stabilizable_system(), 0.8)

    def test_rate_range(self):
        with pytest.raises(ValidationError):
            compute_certificate(scalar_system(1), 0.0)
        with pytest.raises(ValidationError):
            compute_certificate(scalar_system(1), 1.0001)

    def test_invariants_hold(self, rng):
        for _ in range(20):
            sysr = random_controllable_system(rng)
            cert = compute_certificate(sysr, float(rng.uniform(0.2, 1.0)))
            assert cert.rho_hat <= 0.5 * cert.r_x_lo + 1e-12
            assert 0.5 - 1e-12 <= cert.eta < 1.0
            assert cert.alpha >= 1.0
            assert cert.sigma_max >= cert.sigma_min > 0.0


class TestEtaMonotonicity:
    def test_nonincreasing_on_rate_grid(self, rng):
        for _ in range(10):
            sysr = random_controllable_system(rng)
            etas = [compute_certificate(sysr, lam).eta for lam in np.linspace(0.2, 1.0, 9)]
            assert all(a >= b - 1e-12 for a, b in zip(etas, etas[1:]))


class TestContractionBound:
    def test_n_step_distance_contracts_by_eta(self, rng):
        for _ in range(50):
            sysr = random_controllable_system(rng)
            lam = float(rng.uniform(0.3, 1.0))
            cert = compute_certificate(sysr, lam)
            C, D = nested_cset_pair(rng, 2)
            base = set_distance(C, D).distance
            qc = iterate(sysr, lam, C, 2).entries[2]
            qd = iterate(sysr, lam, D, 2).entries[2]
            after = set_distance(qc, qd).distance
            assert after <= cert.eta * base + 1e-8

    def test_conservative_radii_keep_bound_valid(self, rng):
        for _ in range(10):
            sysr = random_controllable_system(rng)
            lam = float(rng.uniform(0.3, 1.0))
            exact = compute_certificate(sysr, lam)
            loose = compute_certificate(
                sysr,
                lam,
                r_x_lo=0.7 * exact.r_x_lo,
                r_x_hi=1.6 * exact.r_x_hi,
                r_u_lo=0.5 * exact.r_u_lo,
            )
            assert loose.eta < 1.0
            assert loose.eta >= exact.eta  # looser radii never certify faster contraction
            C, D = nested_cset_pair(rng, 2)
            base = set_distance(C, D).distance
            qc = iterate(sysr, lam, C, 2).entries[2]
            qd = iterate(sysr, lam, D, 2).entries[2]
            assert set_distance(qc, qd).distance <= loose.eta * base + 1e-8


class TestSystemConstants:
    RATES = [0.6 + 0.05 * i for i in range(9)]  # the grid of scripts/rate_sweep.py

    @staticmethod
    def bits(cert) -> dict:
        return {f.name: float(getattr(cert, f.name)).hex() for f in dataclasses.fields(cert)}

    @pytest.mark.parametrize("make", [lambda: scalar_system(1), lambda: scalar_system(3)])
    def test_rate_grid_matches_fresh_systems(self, make):
        # one system's certificates over the grid equal, bit for bit, a fresh
        # system's certificate at each rate
        sysn = make()
        for lam in self.RATES:
            assert self.bits(compute_certificate(sysn, lam)) == self.bits(
                compute_certificate(make(), lam)
            )

    def test_random_systems_match_fresh_systems(self, rng):
        for _ in range(5):
            sysr = random_controllable_system(rng, 3, 1)
            for lam in self.RATES:
                fresh = SystemModel(sysr.A, sysr.B, sysr.X, sysr.U)
                assert self.bits(compute_certificate(sysr, lam)) == self.bits(
                    compute_certificate(fresh, lam)
                )

    def test_one_svd_per_system(self, monkeypatch):
        calls = []
        extremes = onestep.singular_extremes
        monkeypatch.setattr(
            onestep, "singular_extremes", lambda m: calls.append(m) or extremes(m)
        )
        sysn = scalar_system(2)
        assert sysn.controllable
        for lam in self.RATES:
            compute_certificate(sysn, lam)
        assert len(calls) == 1
