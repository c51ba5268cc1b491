"""Transport scheme tests.

Oracles: exact free-streaming solutions (streaming is solvable in closed
form), shifted Gaussians for the velocity kick, equilibrium fixed points,
and Richardson self-convergence for the splitting order.  Conservation
statements (mass exactly, energy/momentum to scheme accuracy) are measured
on short runs; the acceptance suite runs the full-length versions.
"""

import numpy as np
import pytest

from quasikin.collision import CollisionConfig
from quasikin.diagnostics import total_energy
from quasikin.euler import EulerState
from quasikin.grids import (
    PhaseField,
    TorusGrid,
    VelocityGrid,
    maxwellian,
    moments,
)
from quasikin.monge_ampere import solve_field
from quasikin.vlasov import (
    SimulationParams,
    WellPreparedIC,
    _stream_operators,
    _stream_transfer,
    advect_v,
    advect_x,
    make_initial_condition,
    observe,
    reference_flow,
    run,
)


def d1_params(**overrides):
    base = dict(
        dimension=1,
        n_x=64,
        n_v=128,
        v_max=2.5,
        epsilon=0.1,
        dt=5e-4,
        t_end=0.05,
        field_mode="poisson",
        collision=CollisionConfig(kind="bgk", tau=0.05),
        ic=WellPreparedIC(
            u0_kind="constant", u0_amplitude=0.3, delta=0.1, theta=0.1
        ),
        a_max_estimate=1.6,
    )
    base.update(overrides)
    return SimulationParams(**base)


class TestSimulationParams:
    def test_accepts_flagship_configuration(self):
        params = d1_params()
        assert params.n_steps == 100
        assert params.x_grid().n_x == 64 and params.v_grid().n_v == 128

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"field_mode": "gauss"}, "field mode"),
            ({"epsilon": 0.0}, "epsilon"),
            ({"dt": 1e-2}, "exceeds"),  # streaming bound h_x / v_max = 6.25e-3
            ({"t_end": 0.0503}, "integer number of steps"),
            ({"collision": CollisionConfig(kind="direct")}, "diagnostic"),
            ({"snapshot_stride": -1}, "snapshot_stride"),
            ({"v_max": 2.0}, "cannot contain the state"),
            ({"ic": WellPreparedIC(profile="cosine_xy", theta=0.1)}, "requires dimension 2"),
        ],
    )
    def test_rejects_bad_parameters(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            d1_params(**overrides)


class TestWellPreparedIC:
    def test_homogeneous_equilibrium_moments(self):
        ic = WellPreparedIC(theta=1.0)
        f = make_initial_condition(ic, TorusGrid(1, 32), VelocityGrid(1, 64, 6.5), 0.1)
        macro = moments(f)
        assert np.abs(macro.rho - 1.0).max() <= 1e-13
        assert np.abs(macro.current[0]).max() <= 1e-15
        assert f.mass() == pytest.approx(1.0, abs=1e-13)

    def test_modulated_energy_of_sheared_maxwellian(self):
        # rho = 1 so the field vanishes; centering on u0 leaves d*theta/2.
        from quasikin.diagnostics import modulated_energy
        from quasikin.euler import initial_velocity

        theta = 0.01
        ic = WellPreparedIC(u0_kind="taylor_green", u0_amplitude=1.0, theta=theta)
        x_grid = TorusGrid(2, 16)
        f = make_initial_condition(ic, x_grid, VelocityGrid(2, 48, 1.8), 0.1)
        u0 = initial_velocity(x_grid, "taylor_green", amplitude=1.0)
        assert modulated_energy(f, None, u0) == pytest.approx(theta, rel=1e-6)

    def test_density_perturbation_is_exact(self):
        ic = WellPreparedIC(delta=0.1, profile="cosine_x", theta=0.2)
        f = make_initial_condition(ic, TorusGrid(1, 64), VelocityGrid(1, 96, 3.0), 0.1)
        rho = moments(f).rho
        assert abs(rho.mean() - 1.0) <= 1e-12
        assert np.abs(rho - 1.0).max() == pytest.approx(0.1, abs=1e-12)

    def test_velocity_box_adequacy_enforced(self):
        ic = WellPreparedIC(u0_kind="constant", u0_amplitude=1.0, theta=1.0)
        with pytest.raises(ValueError, match="v_max"):
            make_initial_condition(ic, TorusGrid(1, 16), VelocityGrid(1, 32, 5.0), 0.1)

    def test_rejects_overwhelming_perturbation(self):
        with pytest.raises(ValueError, match="delta"):
            make_initial_condition(
                WellPreparedIC(delta=0.95),
                TorusGrid(1, 16),
                VelocityGrid(1, 32, 6.5),
                0.1,
            )


class TestAdvectX:
    def test_uniform_in_x_is_invariant(self):
        for d, n_x, n_v in [(1, 32, 48), (2, 16, 24)]:
            x_grid, v_grid = TorusGrid(d, n_x), VelocityGrid(d, n_v, 4.0)
            base = maxwellian(v_grid, 1.0, [0.2, -0.1][:d], 0.4)
            values = np.broadcast_to(base, x_grid.shape + v_grid.shape).copy()
            f = PhaseField(x_grid, v_grid, values, 0.0)
            g, clipped = advect_x(f, 0.017)
            assert np.abs(g.values - f.values).max() <= 1e-14 * f.values.max()
            assert clipped == 0.0

    def test_slice_mass_is_exact(self):
        rng = np.random.default_rng(4)
        for d, n_x in [(1, 32), (2, 16)]:
            x_grid, v_grid = TorusGrid(d, n_x), VelocityGrid(d, 16, 3.0)
            values = 0.5 + rng.random(x_grid.shape + v_grid.shape)  # positive, rough
            f = PhaseField(x_grid, v_grid, values, 0.0)
            g, clipped = advect_x(f, 0.013)
            assert clipped == 0.0
            xaxes = tuple(range(d))
            before = values.sum(axis=xaxes)
            after = g.values.sum(axis=xaxes)
            assert np.abs(after - before).max() <= 1e-12 * before.max()

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_rejected(self, d, dt):
        x_grid, v_grid = TorusGrid(d, 4), VelocityGrid(d, 8, 2.0)
        f = PhaseField(x_grid, v_grid, np.ones(x_grid.shape + v_grid.shape), 0.0)
        caches = (_stream_transfer, _stream_operators)
        before = [cache.cache_info() for cache in caches]
        with pytest.raises(ValueError, match="dt must be finite"):
            advect_x(f, dt)
        assert [cache.cache_info() for cache in caches] == before  # never looked up

    def test_free_streaming_matches_exact_solution_at_high_order(self):
        t_end, steps = 0.25, 10
        v_grid = VelocityGrid(1, 48, 6.5)
        nodes = v_grid.axis_nodes()
        base = maxwellian(v_grid, 1.0, [0.0], 1.0)
        errors = []
        for n_x in (16, 32, 64):
            x_grid = TorusGrid(1, n_x)
            x = x_grid.axis_coords()
            f = PhaseField(
                x_grid,
                v_grid,
                (1.0 + 0.1 * np.cos(2 * np.pi * x))[:, None] * base[None, :],
                0.0,
            )
            for _ in range(steps):
                f, _ = advect_x(f, t_end / steps)
            exact = (
                1.0 + 0.1 * np.cos(2 * np.pi * (x[:, None] - nodes[None, :] * t_end))
            ) * base[None, :]
            errors.append(np.abs(f.values - exact).max())
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert orders.min() >= 3.0


class TestAdvectV:
    def test_zero_acceleration_is_bitwise_identity(self):
        x_grid, v_grid = TorusGrid(1, 16), VelocityGrid(1, 32, 3.0)
        rng = np.random.default_rng(9)
        f = PhaseField(x_grid, v_grid, rng.random((16, 32)), 0.0)
        g, clipped = advect_v(f, np.zeros((1, 16)), 0.02)
        assert np.array_equal(g.values, f.values)
        assert clipped == 0.0

    def test_constant_kick_shifts_gaussian(self):
        x_grid = TorusGrid(1, 4)
        shift = 0.15
        errors = []
        for n_v in (32, 64):
            v_grid = VelocityGrid(1, n_v, 4.5)
            base = maxwellian(v_grid, 1.0, [0.0], 0.5)
            f = PhaseField(x_grid, v_grid, np.broadcast_to(base, (4, n_v)).copy(), 0.0)
            g, _ = advect_v(f, np.full((1, 4), 0.3), shift / 0.3)
            exact = maxwellian(v_grid, 1.0, [shift], 0.5)
            errors.append(np.abs(g.values[0] - exact).max())
        assert errors[0] <= 2e-4
        assert errors[0] / errors[1] >= 16.0  # at least fourth order

    def test_outflow_loses_mass_but_never_creates_negatives(self):
        x_grid, v_grid = TorusGrid(1, 4), VelocityGrid(1, 48, 3.0)
        base = maxwellian(v_grid, 1.0, [1.5], 0.3)
        f = PhaseField(x_grid, v_grid, np.broadcast_to(base, (4, 48)).copy(), 0.0)
        g, _ = advect_v(f, np.full((1, 4), 2.0), 1.0)  # push far right
        assert g.values.min() >= 0.0
        assert g.mass() < f.mass()

    def test_excessive_displacement_rejected(self):
        x_grid, v_grid = TorusGrid(1, 4), VelocityGrid(1, 16, 2.0)
        f = PhaseField(x_grid, v_grid, np.ones((4, 16)), 0.0)
        with pytest.raises(ValueError, match="displacement"):
            advect_v(f, np.full((1, 4), 50.0), 0.1)

    def test_non_finite_acceleration_rejected(self):
        x_grid, v_grid = TorusGrid(1, 4), VelocityGrid(1, 16, 2.0)
        f = PhaseField(x_grid, v_grid, np.ones((4, 16)), 0.0)
        with pytest.raises(ValueError, match="displacement nan"):
            advect_v(f, np.array([[0.1, np.nan, 0.0, 0.0]]), 0.1)

    def test_clipping_is_logged(self):
        x_grid, v_grid = TorusGrid(1, 4), VelocityGrid(1, 32, 2.0)
        values = np.zeros((4, 32))
        values[:, 16] = 1.0  # a spike guarantees spline overshoot
        f = PhaseField(x_grid, v_grid, values, 0.0)
        g, clipped = advect_v(f, np.full((1, 4), 0.5), v_grid.h_v / 0.5 / 2)
        assert clipped > 0.0
        assert g.values.min() >= 0.0


class TestStrangStep:
    def test_global_equilibrium_is_fixed_point(self):
        params = d1_params(
            field_mode="monge_ampere",
            v_max=6.5,
            ic=WellPreparedIC(theta=1.0),
            a_max_estimate=0.0,
            dt=2e-3,
            t_end=2e-3,
        )
        f = make_initial_condition(params.ic, params.x_grid(), params.v_grid(), 0.1)
        trajectory = run(params)
        g, record = trajectory.final, trajectory.records[-1]
        assert np.abs(g.values - f.values).max() <= 1e-10 * f.values.max()
        assert record.t == pytest.approx(params.dt)

    def test_mass_conserved_per_step(self):
        params = d1_params(t_end=5e-4)  # one step
        f = make_initial_condition(
            params.ic, params.x_grid(), params.v_grid(), params.epsilon
        )
        trajectory = run(params)
        g, record = trajectory.final, trajectory.records[-1]
        assert len(trajectory.records) == 2
        assert abs(g.mass() - f.mass()) <= 1e-8 * f.mass()
        assert record.clipped_mass <= 1e-8

    def test_self_convergence_is_second_order(self):
        # dt large enough that the O(dt^2) splitting error dominates the
        # fixed-grid interpolation floor across the whole Richardson triple.
        t_end = 0.2
        finals = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            params = SimulationParams(
                dimension=1,
                n_x=16,
                n_v=64,
                v_max=4.5,
                epsilon=0.2,
                dt=dt,
                t_end=t_end,
                field_mode="monge_ampere",
                ic=WellPreparedIC(delta=0.2, theta=0.5),
                a_max_estimate=1.5,
            )
            finals.append(run(params).final.values)
        e_coarse = np.abs(finals[0] - finals[1]).max()
        e_fine = np.abs(finals[1] - finals[2]).max()
        assert np.log2(e_coarse / e_fine) >= 1.9

    def test_flipped_acceleration_breaks_energy_conservation(self):
        # The same composition with the kick sign reversed turns the stable
        # oscillation into exponential growth; conservation collapses.
        params = d1_params(dt=1e-3, t_end=0.1, collision=CollisionConfig())

        def flipped_step(state):
            state, _ = advect_x(state, params.dt / 2)
            macro = moments(state)
            pot, _ = solve_field(
                state.x_grid, macro.rho, params.epsilon, mode=params.field_mode
            )
            state, _ = advect_v(state, -pot.grad, params.dt)
            state, _ = advect_x(state, params.dt / 2)
            return state

        f0 = make_initial_condition(
            params.ic, params.x_grid(), params.v_grid(), params.epsilon
        )
        correct = run(params)
        e0 = correct.records[0].e_total
        drift_correct = max(abs(r.e_total - e0) for r in correct.records)

        f = f0
        for _ in range(params.n_steps):
            f = flipped_step(f)
        e_flipped = observe(f, params).e_total
        drift_flipped = abs(e_flipped - e0)
        assert drift_flipped >= 100.0 * max(drift_correct, 1e-12)


class TestRun:
    def test_zero_horizon_returns_initial_record_only(self):
        params = d1_params(t_end=0.0)
        trajectory = run(params)
        assert len(trajectory.records) == 1
        assert trajectory.records[0].t == 0.0
        assert len(trajectory.snapshots) == 1

    def test_equilibrium_run_is_steady(self):
        params = d1_params(
            v_max=6.5,
            ic=WellPreparedIC(theta=1.0),
            a_max_estimate=0.0,
            dt=2e-3,
            t_end=0.04,
        )
        trajectory = run(params)
        first = trajectory.records[0]
        for record in trajectory.records[1:]:
            assert abs(record.e_total - first.e_total) <= 1e-8
            assert abs(record.mass - first.mass) <= 1e-10
            assert record.quasineutrality <= 1e-8

    def test_short_oscillation_run_conserves_invariants(self):
        params = d1_params(t_end=0.05)
        trajectory = run(params)
        e0 = trajectory.records[0].e_total
        p0 = trajectory.records[0].momentum[0]
        for record in trajectory.records:
            assert abs(record.e_total - e0) <= 1e-6 * abs(e0)
            assert abs(record.momentum[0] - p0) <= 1e-6 * abs(p0)
            assert abs(record.mass - 1.0) <= 1e-8
            assert record.clipped_mass <= 1e-6
        assert trajectory.final.values.min() >= 0.0

    def test_euler_reference_fills_current_errors(self):
        plain = run(d1_params(t_end=2e-3))
        coupled = run(d1_params(t_end=2e-3, euler_reference=True))
        assert all(r.current_error_divfree is None for r in plain.records)
        assert all(r.current_error_divfree is not None for r in coupled.records)
        # The reference is the initial bulk flow, so at t = 0 the filtered
        # current matches it to roundoff.
        assert coupled.records[0].current_error_divfree <= 1e-10

    def test_snapshot_cadence(self):
        params = d1_params(dt=5e-3, t_end=0.05, snapshot_stride=3)
        trajectory = run(params)
        assert trajectory.snapshot_steps == [0, 3, 6, 9, 10]
        assert trajectory.snapshots[-1].time == pytest.approx(0.05)

    def test_stride_zero_keeps_only_the_final_state(self):
        params = d1_params(dt=5e-3, t_end=0.02)
        trajectory = run(params)
        assert trajectory.snapshot_steps == [4]
        assert len(trajectory.snapshots) == 1
        assert trajectory.snapshots[0] is trajectory.final
        assert trajectory.snapshots[0].time == pytest.approx(0.02)

    def test_stride_zero_without_steps_keeps_the_initial_state(self):
        params = d1_params(t_end=0.0)
        trajectory = run(params)
        assert trajectory.snapshot_steps == [0]
        initial = make_initial_condition(
            params.ic, params.x_grid(), params.v_grid(), params.epsilon
        )
        assert trajectory.snapshots[0].values.tobytes() == initial.values.tobytes()

    def test_reruns_are_bit_identical(self):
        params = d1_params(t_end=0.02)
        first = run(params)
        second = run(params)
        assert np.array_equal(first.final.values, second.final.values)
        rows_a = [r.to_csv_row() for r in first.records]
        rows_b = [r.to_csv_row() for r in second.records]
        assert rows_a == rows_b

    def test_first_record_is_the_observed_initial_state(self):
        params = d1_params(dt=5e-3, t_end=0.03)
        assert not params.euler_reference
        f0 = make_initial_condition(
            params.ic, params.x_grid(), params.v_grid(), params.epsilon
        )
        trajectory = run(params)
        assert observe(f0, params).to_csv_row() == trajectory.records[0].to_csv_row()
        assert trajectory.stress.shape == (len(trajectory.records), 1, 1, 64)

    def test_first_record_with_an_euler_reference(self):
        params = d1_params(dt=5e-3, t_end=0.01, euler_reference=True)
        x_grid = params.x_grid()
        f0 = make_initial_condition(params.ic, x_grid, params.v_grid(), params.epsilon)
        u0 = EulerState.from_velocity(x_grid, reference_flow(params.ic, x_grid)).u
        first = run(params).records[0]
        assert first.to_csv_row() == observe(f0, params, u0).to_csv_row()
        assert first.to_csv_row() != observe(f0, params).to_csv_row()
