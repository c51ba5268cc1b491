"""Grid construction, spectral identities, moments, and snapshot round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasikin.euler import _band_limit_operator
from quasikin.grids import (
    GridMismatchError,
    MacroFields,
    PhaseField,
    TorusGrid,
    VelocityGrid,
    _spectral_operators,
    grid_integral,
    inverse_laplacian_zero_mean,
    l2_norm,
    maxwellian,
    moments,
    random_bandlimited_field,
    read_snapshot,
    real_fourier_basis,
    spectral_divergence,
    spectral_gradient,
    spectral_hessian,
    stress_moments,
    write_snapshot,
)


class TestTorusGrid:
    def test_coords_and_spacing(self):
        g = TorusGrid(1, 8)
        assert g.h_x == 0.125
        np.testing.assert_allclose(g.axis_coords(), np.arange(8) / 8)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            TorusGrid(1, 3)
        with pytest.raises(ValueError):
            TorusGrid(1, 6).n_x and TorusGrid(1, 5)
        with pytest.raises(ValueError):
            TorusGrid(3, 8)
        with pytest.raises(ValueError):
            TorusGrid(1, 7)

    def test_cell_volume(self):
        assert TorusGrid(2, 16).cell_volume == pytest.approx(1.0 / 256)

    def test_spectral_symbols_are_cached_read_only(self):
        # One set of operators per n_x, shared by equal grids of either
        # dimension (the Euler band limit's too), and none of them writable.
        for d in (1, 2):
            grid = TorusGrid(d, 8)
            pairs = (
                (real_fourier_basis(grid.n_x), real_fourier_basis(TorusGrid(d, 8).n_x)),
                (_spectral_operators(grid.n_x), _spectral_operators(TorusGrid(d, 8).n_x)),
            )
            for first, again in pairs:
                assert again is first
        assert _band_limit_operator(8) is _band_limit_operator(8)
        arrays = real_fourier_basis(8)
        arrays += tuple(_spectral_operators(8)) + (_band_limit_operator(8),)
        for array in arrays:
            assert array.shape[0] == 8
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert TorusGrid(1, 8).wavenumbers_int().tolist() == [0, 1, 2, 3, -4, -3, -2, -1]

    @pytest.mark.parametrize("n_x", [4, 8, 24, 64])
    def test_real_fourier_basis_is_orthonormal(self, n_x):
        q, modes = real_fourier_basis(n_x)
        np.testing.assert_allclose(q.T @ q, np.eye(n_x), atol=1e-14)
        assert sorted(modes.tolist()) == sorted(abs(k) for k in TorusGrid(1, n_x).wavenumbers_int())
        assert np.all(np.abs(q[:, -1]) * np.sqrt(n_x) == 1.0)


class TestVelocityGrid:
    def test_nodes_symmetric_under_negation(self):
        # mirrored nodes must be exact floating-point negations, even for
        # irrational v_max
        vg = VelocityGrid(1, 64, np.sqrt(2.0) * 3)
        nodes = vg.axis_nodes()
        assert np.all(nodes + nodes[::-1] == 0.0)
        assert nodes[0] == -vg.v_max + 0.5 * vg.h_v

    def test_weights_and_extent(self):
        vg = VelocityGrid(2, 16, 4.0)
        assert vg.h_v == 0.5
        assert vg.weight == 0.25
        assert vg.axis_nodes().max() == vg.v_max - 0.5 * vg.h_v

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            VelocityGrid(1, 2, 1.0)
        with pytest.raises(ValueError):
            VelocityGrid(1, 16, 0.0)


class TestMoments:
    def test_maxwellian_moments_match_analytic_d2(self):
        # rho (2 pi theta)^{-d/2} exp(-|xi-u|^2/2theta) has moments
        # (rho, rho u, rho(|u|^2 + d theta)/2); truncation at 10 sigma leaves
        # relative errors far below 1e-8.
        vg = VelocityGrid(2, 64, 6.0)
        rho, u, theta = 2.0, (-1.0, 0.5), 0.25
        prof = maxwellian(vg, rho, u, theta)
        xg = TorusGrid(2, 4)
        f = PhaseField(xg, vg, np.broadcast_to(prof, xg.shape + vg.shape).copy())
        m = moments(f)
        np.testing.assert_allclose(m.rho, rho, rtol=1e-8)
        np.testing.assert_allclose(m.current[0], rho * u[0], rtol=1e-8)
        np.testing.assert_allclose(m.current[1], rho * u[1], rtol=1e-8)
        e_expect = 0.5 * rho * (u[0] ** 2 + u[1] ** 2 + 2 * theta)
        np.testing.assert_allclose(m.e_kin, e_expect, rtol=1e-8)

    def test_maxwellian_moments_match_analytic_d1(self):
        vg = VelocityGrid(1, 64, 6.0)
        prof = maxwellian(vg, 1.0, (0.3,), 0.5)
        xg = TorusGrid(1, 4)
        f = PhaseField(xg, vg, np.broadcast_to(prof, (4, 64)).copy())
        m = moments(f)
        np.testing.assert_allclose(m.rho, 1.0, rtol=1e-8)
        np.testing.assert_allclose(m.current[0], 0.3, rtol=1e-8)
        np.testing.assert_allclose(m.e_kin, 0.5 * (0.09 + 0.5), rtol=1e-8)

    def test_current_vanishes_for_even_distribution(self):
        # odd summand on exactly symmetric nodes: cancellation down to roundoff
        vg = VelocityGrid(1, 128, 5.0)
        prof = maxwellian(vg, 1.0, (0.0,), 0.4)
        xg = TorusGrid(1, 4)
        f = PhaseField(xg, vg, np.broadcast_to(prof, (4, 128)).copy())
        m = moments(f)
        assert np.abs(m.current).max() <= 1e-15

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_moments_linear_in_f(self, seed, a, b):
        rng = np.random.default_rng(seed)
        xg, vg = TorusGrid(1, 8), VelocityGrid(1, 16, 3.0)
        f1 = rng.random((8, 16))
        f2 = rng.random((8, 16))
        ma = moments(PhaseField(xg, vg, a * f1 + b * f2))
        m1 = moments(PhaseField(xg, vg, f1))
        m2 = moments(PhaseField(xg, vg, f2))
        scale = max(1.0, np.abs(ma.rho).max())
        assert np.abs(ma.rho - (a * m1.rho + b * m2.rho)).max() <= 1e-12 * scale
        assert np.abs(ma.current - (a * m1.current + b * m2.current)).max() <= 1e-12 * 10
        assert np.abs(ma.e_kin - (a * m1.e_kin + b * m2.e_kin)).max() <= 1e-12 * 100

    def test_cauchy_schwarz_moment_bound(self):
        # |J|^2 <= 2 rho e_kin pointwise for any nonnegative f
        rng = np.random.default_rng(42)
        xg, vg = TorusGrid(1, 16, ), VelocityGrid(1, 32, 4.0)
        f = PhaseField(xg, vg, rng.random((16, 32)))
        m = moments(f)
        assert np.all(m.current[0] ** 2 <= 2 * m.rho * m.e_kin * (1 + 1e-13))

    def test_stress_moments_symmetric(self):
        rng = np.random.default_rng(3)
        xg, vg = TorusGrid(2, 4), VelocityGrid(2, 8, 3.0)
        f = PhaseField(xg, vg, rng.random(xg.shape + vg.shape))
        s = stress_moments(f)
        np.testing.assert_array_equal(s[0, 1], s[1, 0])
        # trace of stress equals twice the kinetic energy density
        m = moments(f)
        np.testing.assert_allclose(s[0, 0] + s[1, 1], 2 * m.e_kin, rtol=1e-12)

    def test_maxwellian_rejects_nonpositive_theta(self):
        vg = VelocityGrid(1, 16, 3.0)
        with pytest.raises(ValueError):
            maxwellian(vg, 1.0, (0.0,), 0.0)
        with pytest.raises(ValueError):
            maxwellian(vg, 1.0, (0.0,), -1.0)

    def test_truncation_error_decays_superalgebraically(self):
        theta = 0.25
        errs = []
        for radius in (3.0, 4.0, 5.0):
            vg = VelocityGrid(1, 256, radius * np.sqrt(theta))
            mass = maxwellian(vg, 1.0, (0.0,), theta).sum() * vg.weight
            errs.append(abs(mass - 1.0))
        # each extra sigma of box radius shrinks the tail by far more than
        # any fixed polynomial factor
        assert errs[1] < errs[0] / 10
        assert errs[2] < errs[1] / 10


class TestSpectralCalculus:
    def test_gradient_of_single_mode(self):
        g = TorusGrid(1, 64)
        x = g.axis_coords()
        grad = spectral_gradient(g, np.sin(2 * np.pi * x))
        np.testing.assert_allclose(grad[0], 2 * np.pi * np.cos(2 * np.pi * x), atol=1e-12)

    def test_laplacian_and_inverse_roundtrip_d2(self):
        g = TorusGrid(2, 32)
        x, y = g.coords()
        phi = np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        rhs = -8 * np.pi**2 * phi
        lap = np.trace(spectral_hessian(g, phi), axis1=0, axis2=1)
        np.testing.assert_allclose(lap, rhs, atol=1e-10)
        np.testing.assert_allclose(inverse_laplacian_zero_mean(g, rhs), phi, atol=1e-12)

    def test_inverse_laplacian_rejects_nonzero_mean(self):
        g = TorusGrid(1, 16)
        with pytest.raises(ValueError):
            inverse_laplacian_zero_mean(g, np.ones(16))

    def test_hessian_matches_analytic(self):
        g = TorusGrid(2, 32)
        x, y = g.coords()
        phi = np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y)
        h = spectral_hessian(g, phi)
        np.testing.assert_allclose(h[0, 0], -4 * np.pi**2 * phi, atol=1e-10)
        np.testing.assert_allclose(h[1, 1], -16 * np.pi**2 * phi, atol=1e-10)
        mixed = 2 * np.pi * np.sin(2 * np.pi * x) * 4 * np.pi * np.cos(4 * np.pi * y)
        np.testing.assert_allclose(h[0, 1], -mixed, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gradient_inverse_divergence_projection_identity(self, seed):
        # grad(invlap(div(grad psi))) reproduces grad psi for band-limited psi
        rng = np.random.default_rng(seed)
        g = TorusGrid(2, 32)
        psi = random_bandlimited_field(g, 6, rng)
        gp = spectral_gradient(g, psi)
        div = spectral_divergence(g, gp)
        back = spectral_gradient(g, inverse_laplacian_zero_mean(g, div - div.mean()))
        assert np.abs(back - gp).max() <= 1e-10 * max(1.0, np.abs(gp).max())

    def test_integral_and_l2(self):
        g = TorusGrid(1, 64)
        x = g.axis_coords()
        f = 2.0 + np.cos(2 * np.pi * x)
        assert grid_integral(g, f) == pytest.approx(2.0, abs=1e-13)
        assert l2_norm(g, f - 2.0) == pytest.approx(np.sqrt(0.5), abs=1e-13)


class TestSnapshotIO:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(11)
        xg, vg = TorusGrid(2, 8), VelocityGrid(2, 6, 2.5)
        f = PhaseField(xg, vg, rng.random(xg.shape + vg.shape), time=0.75)
        write_snapshot(f, tmp_path / "snap")
        f2 = read_snapshot(tmp_path / "snap")
        assert f2.time == 0.75
        assert f2.x_grid == xg and f2.v_grid == vg
        np.testing.assert_array_equal(f2.values, f.values)

    def test_manifest_keys(self, tmp_path):
        import json

        xg, vg = TorusGrid(1, 8), VelocityGrid(1, 8, 3.0)
        f = PhaseField(xg, vg, np.zeros((8, 8)), time=0.0)
        write_snapshot(f, tmp_path / "s")
        manifest = json.loads((tmp_path / "s.json").read_text())
        assert set(manifest) == {"dimension", "n_x", "n_v", "v_max", "time", "field_name"}
        assert manifest["field_name"] == "f"

    def test_shape_mismatch_rejected(self):
        xg, vg = TorusGrid(1, 8), VelocityGrid(1, 8, 3.0)
        with pytest.raises(GridMismatchError):
            PhaseField(xg, vg, np.zeros((8, 9)))
        with pytest.raises(GridMismatchError):
            PhaseField(TorusGrid(2, 8), vg, np.zeros((8, 8)))
