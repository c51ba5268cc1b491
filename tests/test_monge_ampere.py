"""Field-solve round trips, determinant algebra, and failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasikin import monge_ampere
from quasikin.grids import (
    TorusGrid,
    random_bandlimited_field,
    spectral_hessian,
)
from quasikin.monge_ampere import (
    EllipticityLostError,
    MassNotNormalizedError,
    NewtonStalledError,
    NonPositiveDensityError,
    Potential,
    cofactor_divergence_residual,
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

    def test_poisson_mode_matches_linearization(self):
        grid = TorusGrid(1, 64)
        x = grid.axis_coords()
        eps = 0.3
        rho = 1.0 + 0.05 * np.cos(4 * np.pi * x)
        pot, report = solve_field(grid, rho, eps, mode="poisson")
        phi_expect = -0.05 * np.cos(4 * np.pi * x) / (eps**2 * (4 * np.pi) ** 2)
        assert np.abs(pot.phi - phi_expect).max() <= 1e-12
        assert report.mode == "poisson"

    def test_d1_modes_share_one_solve(self):
        # In 1-d det(I + eps^2 phi'') = 1 + eps^2 phi'', so both modes give
        # the same potential and the same residual.
        grid = TorusGrid(1, 64)
        rho = 1.0 + 0.3 * random_bandlimited_field(grid, 10, np.random.default_rng(11))
        pot_ma, report_ma = solve_field(grid, rho, 0.1, mode="monge_ampere")
        pot_p, report_p = solve_field(grid, rho, 0.1, mode="poisson")
        np.testing.assert_array_equal(pot_ma.phi, pot_p.phi)
        assert report_ma.residual == report_p.residual
        assert (report_ma.mode, report_p.mode) == ("monge_ampere", "poisson")
        assert report_ma.iterations == report_p.iterations == 0

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

    @staticmethod
    def two_step_density():
        # Newton needs two steps to reach the tolerance on this density.
        grid = TorusGrid(2, 32)
        x, y = grid.coords()
        phi_star = 0.05 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        return grid, manufactured_density_2d(grid, phi_star, 0.2)

    def test_newton_stalls_after_an_accepted_step(self, monkeypatch):
        # From its second call on, PCG returns a zero step, so no damped
        # trial lowers the residual.
        grid, rho = self.two_step_density()
        pcg = monge_ampere._pcg
        calls = []

        def first_step_only(*args, **kwargs):
            calls.append(None)
            step = pcg(*args, **kwargs)
            return step if len(calls) == 1 else np.zeros_like(step)

        monkeypatch.setattr(monge_ampere, "_pcg", first_step_only)
        with pytest.raises(NewtonStalledError, match="after 1 accepted steps"):
            solve_field(grid, rho, 0.2)
        assert len(calls) == 2

    def test_newton_stops_at_the_iteration_cap(self, monkeypatch):
        grid, rho = self.two_step_density()
        assert solve_field(grid, rho, 0.2)[1].iterations == 2
        monkeypatch.setattr(monge_ampere, "MAX_NEWTON_ITERATIONS", 1)
        with pytest.raises(NewtonStalledError, match="no convergence in 1 Newton iterations"):
            solve_field(grid, rho, 0.2)

    def test_rejects_bad_mode_and_epsilon(self):
        grid = TorusGrid(1, 16)
        rho = np.ones(16)
        with pytest.raises(ValueError):
            solve_field(grid, rho, 0.1, mode="spectral")
        with pytest.raises(ValueError):
            solve_field(grid, rho, -1.0)


class TestDeterminantAlgebra:
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
