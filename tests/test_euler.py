"""Euler reference solver tests.

Stationarity oracles (constant, shear, Taylor-Green) follow from the
nonlinear term being identically zero or a pure gradient; the Helmholtz
split example is computed analytically; energy conservation and fourth-order
self-convergence pin down the discretization quality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasikin.euler import (
    CflViolationError,
    EulerReference,
    EulerState,
    euler_step,
    initial_velocity,
    kinetic_energy,
    leray_project,
    solve_euler,
)
from quasikin.grids import (
    TorusGrid,
    grid_integral,
    random_bandlimited_field,
    spectral_divergence,
    spectral_gradient,
)


def random_velocity(grid, seed, amplitude=0.5, max_mode=3):
    return initial_velocity(
        grid, "random_bandlimited", amplitude=amplitude, seed=seed, max_mode=max_mode
    )


class TestLerayProjection:
    def setup_method(self):
        self.grid = TorusGrid(2, 32)

    def test_annihilates_pure_gradient(self):
        x, y = self.grid.coords()
        psi = np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        v = spectral_gradient(self.grid, psi)
        assert np.abs(leray_project(self.grid, v)).max() <= 1e-10

    def test_fixes_divergence_free_field(self):
        u = initial_velocity(self.grid, "taylor_green")
        assert np.abs(leray_project(self.grid, u) - u).max() <= 1e-10

    def test_helmholtz_split(self):
        # (sin(2 pi y) + 2 pi cos(2 pi x), 0) minus its gradient part
        # grad(sin(2 pi x)) leaves exactly (sin(2 pi y), 0).
        x, y = self.grid.coords()
        v = np.stack(
            [np.sin(2 * np.pi * y) + 2 * np.pi * np.cos(2 * np.pi * x), 0.0 * x]
        )
        expected = np.stack([np.sin(2 * np.pi * y), 0.0 * x])
        assert np.abs(leray_project(self.grid, v) - expected).max() <= 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_and_divergence_free(self, seed):
        rng = np.random.default_rng(seed)
        v = np.stack(
            [random_bandlimited_field(self.grid, 9, rng) for _ in range(2)]
        )
        pv = leray_project(self.grid, v)
        assert np.abs(spectral_divergence(self.grid, pv)).max() <= 1e-10
        assert np.abs(leray_project(self.grid, pv) - pv).max() <= 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_self_adjoint(self, seed):
        rng = np.random.default_rng(seed)
        v = np.stack([random_bandlimited_field(self.grid, 7, rng) for _ in range(2)])
        w = np.stack([random_bandlimited_field(self.grid, 7, rng) for _ in range(2)])
        pv_dot_w = grid_integral(self.grid, (leray_project(self.grid, v) * w).sum(axis=0))
        v_dot_pw = grid_integral(self.grid, (v * leray_project(self.grid, w)).sum(axis=0))
        assert abs(pv_dot_w - v_dot_pw) <= 1e-10

    def test_preserves_mean(self):
        v = np.ones((2,) + self.grid.shape)
        v[0] *= 0.3
        v[1] *= -0.7
        pv = leray_project(self.grid, v)
        assert pv[0].mean() == pytest.approx(0.3, abs=1e-14)
        assert pv[1].mean() == pytest.approx(-0.7, abs=1e-14)


    def test_one_dimensional_projection_is_the_mean(self):
        grid = TorusGrid(1, 16)
        nyquist = (-1.0) ** np.arange(16)
        assert not leray_project(grid, 2.5 * nyquist[None, :]).any()
        v = np.random.default_rng(5).standard_normal((1, 16))
        assert np.abs(leray_project(grid, v) - v.mean()).max() <= 1e-15


class TestEulerState:
    def test_rejects_compressible_velocity(self):
        grid = TorusGrid(2, 16)
        x, _ = grid.coords()
        u = np.stack([np.sin(2 * np.pi * x), 0.0 * x])
        with pytest.raises(ValueError, match="divergence"):
            EulerState(grid, u)

    def test_ingest_projects_raw_field(self):
        grid = TorusGrid(2, 16)
        x, y = grid.coords()
        raw = np.stack([np.sin(2 * np.pi * x) + np.sin(2 * np.pi * y), 0.0 * x])
        state = EulerState.from_velocity(grid, raw)
        assert np.abs(spectral_divergence(grid, state.u)).max() <= 1e-10

    def test_random_bandlimited_requires_two_dimensions(self):
        with pytest.raises(ValueError, match="requires dimension 2"):
            initial_velocity(TorusGrid(1, 32), "random_bandlimited")


class TestEulerStep:
    def test_constant_flow_is_steady(self):
        grid = TorusGrid(2, 16)
        state = EulerState.from_velocity(grid, initial_velocity(grid, "constant", value=(0.4, -0.2)))
        stepped = euler_step(state, 0.01)
        assert np.abs(stepped.u - state.u).max() <= 1e-14

    def test_shear_flow_is_steady(self):
        grid = TorusGrid(2, 32)
        state = EulerState.from_velocity(grid, initial_velocity(grid, "shear"))
        stepped = euler_step(state, 0.01)
        assert np.abs(stepped.u - state.u).max() <= 1e-10

    def test_taylor_green_is_steady_over_unit_time(self):
        grid = TorusGrid(2, 64)
        u0 = initial_velocity(grid, "taylor_green")
        (final,) = solve_euler(grid, u0, dt=1e-3, sample_times=[1.0])
        assert np.abs(final.u - EulerState.from_velocity(grid, u0).u).max() <= 1e-6

    def test_mean_velocity_preserved(self):
        grid = TorusGrid(2, 32)
        u0 = random_velocity(grid, seed=3) + np.array([0.25, -0.1]).reshape(2, 1, 1)
        state = EulerState.from_velocity(grid, u0)
        for _ in range(5):
            state = euler_step(state, 2e-3)
        assert state.u[0].mean() == pytest.approx(0.25, abs=1e-13)
        assert state.u[1].mean() == pytest.approx(-0.1, abs=1e-13)

    def test_cfl_guard(self):
        grid = TorusGrid(2, 32)
        state = EulerState.from_velocity(grid, initial_velocity(grid, "constant", value=(2.0, 0.0)))
        limit = 0.5 * grid.h_x / 2.0
        with pytest.raises(CflViolationError):
            euler_step(state, 1.5 * limit)
        euler_step(state, 0.9 * limit)  # just inside the bound

    def test_one_dimensional_flow_is_constant(self):
        grid = TorusGrid(1, 16)
        state = EulerState.from_velocity(grid, 0.7 * np.ones((1, 16)))
        stepped = euler_step(state, 0.01)
        assert np.abs(stepped.u - 0.7).max() <= 1e-14
        assert np.array_equal(stepped.u, state.u) and stepped.u is not state.u
        assert stepped.time == 0.01

    def test_one_dimensional_step_keeps_its_checks(self):
        grid = TorusGrid(1, 16)
        state = EulerState.from_velocity(grid, 2.0 * np.ones((1, 16)))
        with pytest.raises(ValueError, match="positive"):
            euler_step(state, 0.0)
        with pytest.raises(CflViolationError):
            euler_step(state, 1.5 * 0.5 * grid.h_x / 2.0)


class TestSolveEuler:
    def test_zero_field_stays_zero(self):
        grid = TorusGrid(2, 16)
        states = solve_euler(grid, initial_velocity(grid, "zero"), 0.01, [0.0, 0.1])
        assert all(np.abs(s.u).max() == 0.0 for s in states)

    def test_energy_conserved_on_random_data(self):
        grid = TorusGrid(2, 64)
        u0 = random_velocity(grid, seed=11, amplitude=0.5, max_mode=4)
        states = solve_euler(grid, u0, dt=1e-3, sample_times=[0.0, 0.5, 1.0])
        e0 = kinetic_energy(states[0])
        for state in states[1:]:
            assert abs(kinetic_energy(state) - e0) <= 1e-8 * e0

    def test_lands_exactly_on_sample_times(self):
        grid = TorusGrid(2, 16)
        u0 = random_velocity(grid, seed=5, amplitude=0.2)
        times = [0.0, 0.0315, 0.1, 0.25]
        states = solve_euler(grid, u0, dt=7e-3, sample_times=times)
        assert [s.time for s in states] == times

    def test_rejects_unsorted_times(self):
        grid = TorusGrid(2, 16)
        with pytest.raises(ValueError, match="nondecreasing"):
            solve_euler(grid, initial_velocity(grid, "zero"), 0.01, [0.2, 0.1])

    def test_reference_refuses_to_rewind(self):
        grid = TorusGrid(2, 16)
        ref = EulerReference(grid, initial_velocity(grid, "zero"), 0.01)
        ref.advance_to(0.5)
        with pytest.raises(ValueError, match="backwards"):
            ref.advance_to(0.2)


class TestTimeAccuracy:
    def test_self_convergence_is_fourth_order(self):
        grid = TorusGrid(2, 32)
        u0 = random_velocity(grid, seed=7, amplitude=0.5, max_mode=3)
        t_end = 0.1
        (ref,) = solve_euler(grid, u0, dt=t_end / 800, sample_times=[t_end])
        errors = []
        for steps in (50, 100):
            (state,) = solve_euler(grid, u0, dt=t_end / steps, sample_times=[t_end])
            errors.append(np.abs(state.u - ref.u).max())
        order = np.log2(errors[0] / errors[1])
        assert order >= 3.9
