"""Field-solve round trips, determinant algebra, and failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasikin.grids import (
    TorusGrid,
    random_bandlimited_field,
    spectral_hessian,
)
from quasikin.monge_ampere import (
    EllipticityLostError,
    MassNotNormalizedError,
    NonPositiveDensityError,
    Potential,
    cofactor_divergence_residual,
    cofactor_norm,
    determinant_expansion_check,
    determinant_of_potential,
    solve_field,
)


def manufactured_density_2d(grid, phi_star, epsilon):
    """Forward determinant of a known potential, evaluated spectrally."""
    pot = Potential(grid, phi_star, epsilon)
    return determinant_of_potential(pot)


class TestManufacturedSolutions:
    def test_d1_closed_form_recovers_single_mode(self):
        grid = TorusGrid(1, 64)
        x = grid.axis_coords()
        eps = 0.1
        phi_star = 0.1 * np.cos(2 * np.pi * x)
        rho = 1.0 - eps**2 * 0.1 * (2 * np.pi) ** 2 * np.cos(2 * np.pi * x)
        pot, report = solve_field(grid, rho, eps, mode="monge_ampere")
        assert np.abs(pot.phi - phi_star).max() <= 1e-8
        assert report.mode == "monge_ampere"
        assert report.residual <= 1e-10

    def test_d2_newton_recovers_product_mode(self):
        grid = TorusGrid(2, 64)
        x, y = grid.coords()
        eps = 0.2
        phi_star = 0.05 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        rho = manufactured_density_2d(grid, phi_star, eps)
        pot, report = solve_field(grid, rho, eps, mode="monge_ampere")
        assert np.abs(pot.phi - phi_star).max() <= 1e-7
        assert report.iterations <= 8
        assert report.residual <= 1e-10 * max(1.0, rho.max())

    def test_newton_residual_history_monotone(self):
        grid = TorusGrid(2, 32)
        rng = np.random.default_rng(5)
        phi_star = 0.004 * random_bandlimited_field(grid, 3, rng)
        rho = manufactured_density_2d(grid, phi_star, 0.4)
        _, report = solve_field(grid, rho, 0.4)
        hist = report.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_poisson_mode_matches_linearization(self):
        grid = TorusGrid(1, 64)
        x = grid.axis_coords()
        eps = 0.3
        rho = 1.0 + 0.05 * np.cos(4 * np.pi * x)
        pot, report = solve_field(grid, rho, eps, mode="poisson")
        phi_expect = -0.05 * np.cos(4 * np.pi * x) / (eps**2 * (4 * np.pi) ** 2)
        assert np.abs(pot.phi - phi_expect).max() <= 1e-12
        assert report.mode == "poisson"

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_d2_round_trip_random_potential(self, seed):
        rng = np.random.default_rng(seed)
        grid = TorusGrid(2, 32)
        phi_star = 0.003 * random_bandlimited_field(grid, 3, rng)
        eps = 0.25
        rho = manufactured_density_2d(grid, phi_star, eps)
        pot, _ = solve_field(grid, rho, eps)
        assert np.abs(pot.phi - phi_star).max() <= 1e-8

    def test_poisson_vs_monge_ampere_gap_scales_like_eps_sq(self):
        # with rho - 1 = eps^2 g for fixed g, the poisson solution is
        # eps-independent and the Monge-Ampere correction is O(eps^2)
        grid = TorusGrid(2, 32)
        x, y = grid.coords()
        g = 0.5 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        ratios = []
        for eps in (0.2, 0.1, 0.05):
            rho = 1.0 + eps**2 * g
            pot_ma, _ = solve_field(grid, rho, eps, mode="monge_ampere")
            pot_p, _ = solve_field(grid, rho, eps, mode="poisson")
            gap = np.abs(pot_ma.phi - pot_p.phi).max()
            ratios.append(gap / eps**2)
        assert ratios[0] > 0
        # the normalized gap approaches a constant under eps-refinement
        assert abs(ratios[2] - ratios[1]) <= 0.25 * abs(ratios[1])


class TestAdmissibilityChecks:
    def test_rejects_nonpositive_density(self):
        grid = TorusGrid(1, 16)
        rho = np.ones(16)
        rho[3] = -0.5
        rho += (1.0 - rho.mean())
        with pytest.raises(NonPositiveDensityError):
            solve_field(grid, rho, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["poisson", "monge_ampere"])
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_rejects_non_finite_density(self, bad, mode, dimension):
        grid = TorusGrid(dimension, 8)
        rho = np.ones(grid.shape)
        rho.flat[3] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_field(grid, rho, 0.1, mode=mode)

    def test_rejects_unnormalized_mass(self):
        grid = TorusGrid(1, 16)
        with pytest.raises(MassNotNormalizedError):
            solve_field(grid, np.full(16, 1.01), 0.1)

    def test_ellipticity_guard_fires_for_extreme_density(self):
        # the solution's determinant equals rho, so a density pinned near
        # zero forces an eigenvalue of I + eps^2 D^2 phi below the guard
        grid = TorusGrid(2, 32)
        x, _ = grid.coords()
        rho = 1.0 + 0.97 * np.cos(2 * np.pi * x)
        rho /= rho.mean()
        with pytest.raises(EllipticityLostError):
            solve_field(grid, rho, 0.15)

    def test_rejects_bad_mode_and_epsilon(self):
        grid = TorusGrid(1, 16)
        rho = np.ones(16)
        with pytest.raises(ValueError):
            solve_field(grid, rho, 0.1, mode="spectral")
        with pytest.raises(ValueError):
            solve_field(grid, rho, -1.0)


class TestDeterminantAlgebra:
    def test_expansion_exact_for_product_mode(self):
        grid = TorusGrid(2, 64)
        x, y = grid.coords()
        eps = 0.3
        phi = np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        pot = Potential(grid, phi, eps)
        full, linear, remainder = determinant_expansion_check(pot)
        # remainder / eps^4 equals det D^2 phi = (2 pi)^4 (cc^2 - ss^2) exactly
        det_hess = (2 * np.pi) ** 4 * (
            (np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)) ** 2
            - (np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)) ** 2
        )
        direct = eps**4 * float(np.abs(det_hess).max())
        assert abs(remainder - direct) <= 1e-10 * max(1.0, direct)
        np.testing.assert_allclose(full - 1.0 - linear, eps**4 * det_hess, atol=1e-9)

    def test_expansion_trivial_for_flat_potential(self):
        grid = TorusGrid(2, 16)
        pot = Potential(grid, np.zeros(grid.shape), 0.5)
        full, linear, remainder = determinant_expansion_check(pot)
        np.testing.assert_array_equal(full, 1.0)
        np.testing.assert_array_equal(linear, 0.0)
        assert remainder == 0.0

    def test_cofactor_divergence_identity_single_mode(self):
        grid = TorusGrid(2, 64)
        x, y = grid.coords()
        pot = Potential(grid, np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y), 0.2)
        assert cofactor_divergence_residual(pot) <= 1e-8

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cofactor_divergence_identity_bandlimited(self, seed):
        # products of modes <= m stay below Nyquist once n >= 4m + 4
        rng = np.random.default_rng(seed)
        m = 3
        grid = TorusGrid(2, 4 * m + 4)
        pot = Potential(grid, random_bandlimited_field(grid, m, rng), 0.2)
        assert cofactor_divergence_residual(pot) <= 1e-8

    def test_cofactor_norm_single_x_mode(self):
        # phi = A cos(2 pi x): cof(D^2 phi) = diag(0, -A (2pi)^2 cos), so the
        # L^2 norm is (2 pi)^2 A / sqrt(2)
        grid = TorusGrid(2, 64)
        x, _ = grid.coords()
        a = 0.7
        pot = Potential(grid, a * np.cos(2 * np.pi * x), 0.2)
        expected = (2 * np.pi) ** 2 * a / np.sqrt(2.0)
        assert cofactor_norm(pot) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), eps=st.sampled_from([0.05, 0.1, 0.2, 0.4]))
    def test_mass_compatibility_of_determinant(self, seed, eps):
        # mean(det(I + eps^2 D^2 phi)) = 1 for any zero-mean periodic phi
        rng = np.random.default_rng(seed)
        grid = TorusGrid(2, 32)
        phi = random_bandlimited_field(grid, 7, rng)
        pot = Potential(grid, phi, eps)
        det = determinant_of_potential(pot)
        assert abs(det.mean() - 1.0) <= 1e-10

    def test_mass_compatibility_d1(self):
        rng = np.random.default_rng(123)
        grid = TorusGrid(1, 64)
        phi = random_bandlimited_field(grid, 20, rng)
        pot = Potential(grid, phi, 0.3)
        det = determinant_of_potential(pot)
        assert abs(det.mean() - 1.0) <= 1e-12


class TestPotentialCaching:
    def test_cached_derivatives_match_spectral_ops(self):
        rng = np.random.default_rng(9)
        grid = TorusGrid(2, 32)
        phi = random_bandlimited_field(grid, 5, rng)
        pot = Potential(grid, phi, 0.1)
        np.testing.assert_array_equal(pot.hess, spectral_hessian(grid, pot.phi))
        assert abs(pot.phi.mean()) <= 1e-15
