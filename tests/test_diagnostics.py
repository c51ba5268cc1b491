"""Diagnostics functional tests against closed-form oracles.

Oracles used below (all worked by hand from the discrete definitions):
  * field energy of phi = cos(2 pi x) at eps = 0.5:
      (eps^2/2) * (2 pi)^2 * integral(sin^2) = (1/8)(4 pi^2)(1/2) = pi^2/4.
  * e_kinetic of a unit Maxwellian at temperature theta in d dimensions:
      d * theta / 2.
  * H^{-1} norm of 1 + a cos(2 pi x): the single conjugate mode pair gives
      sqrt(2 (a/2)^2 / (2 pi)^2) = |a| / (2 sqrt(2) pi).
  * current mismatch for rho = 1, u = 0, J = (a, 0): a^2 / 2.
  * current-functional primal for rho = 1, J = u constant, z = 1 on [0, T]:
      T |u|^2 / 2, attained by the candidate b = u.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasikin.diagnostics import (
    CSV_COLUMNS,
    DegenerateDensityError,
    DiagnosticsRecord,
    _weighted_current_density,
    build_record,
    current_error,
    field_energy,
    h_functional,
    k_functional_check,
    modulated_energy,
    quasineutrality_norm,
    relative_energy_drift,
)
from quasikin.grids import (
    MacroFields,
    PhaseField,
    TorusGrid,
    VelocityGrid,
    l2_norm,
    maxwellian,
    moments,
    random_bandlimited_field,
    spectral_gradient,
)
from quasikin.checks import modulated_energy_defect
from quasikin.monge_ampere import Potential


def uniform_maxwellian_field(x_grid, v_grid, rho=1.0, u=None, theta=1.0):
    u = [0.0] * v_grid.dimension if u is None else u
    base = maxwellian(v_grid, rho, u, theta)
    shape = x_grid.shape + v_grid.shape
    return PhaseField(x_grid, v_grid, np.broadcast_to(base, shape).copy(), 0.0)


def energies(f, potential=None):
    """(e_kinetic, e_field, e_total) of the record a run writes for f."""
    record = build_record(f, moments(f), potential)
    return record.e_kinetic, record.e_field, record.e_total


class TestEnergies:
    def test_vacuum_state_has_zero_energy(self):
        f = PhaseField(TorusGrid(1, 8), VelocityGrid(1, 8, 1.0), np.zeros((8, 8)), 0.0)
        assert energies(f) == (0.0, 0.0, 0.0)

    def test_field_energy_single_mode(self):
        grid = TorusGrid(1, 64)
        x = grid.axis_coords()
        pot = Potential(grid, np.cos(2 * np.pi * x), 0.5)
        assert field_energy(pot) == pytest.approx(np.pi**2 / 4, rel=1e-12)

    def test_kinetic_energy_of_maxwellian(self):
        f = uniform_maxwellian_field(TorusGrid(2, 4), VelocityGrid(2, 48, 7.0))
        e_kin, e_fld, e_tot = energies(f)
        assert e_kin == pytest.approx(1.0, abs=1e-8)  # d * theta / 2
        assert e_fld == 0.0 and e_tot == e_kin

    def test_total_is_sum(self):
        grid = TorusGrid(1, 32)
        x = grid.axis_coords()
        pot = Potential(grid, 0.3 * np.sin(2 * np.pi * x), 0.2)
        f = uniform_maxwellian_field(grid, VelocityGrid(1, 64, 7.0), theta=0.8)
        e_kin, e_fld, e_tot = energies(f, pot)
        assert e_tot == e_kin + e_fld and e_fld > 0.0


class TestModulatedEnergy:
    def test_zero_reference_reduces_to_total_energy(self):
        grid = TorusGrid(1, 16)
        v_grid = VelocityGrid(1, 64, 7.0)
        f = uniform_maxwellian_field(grid, v_grid, theta=0.7)
        x = grid.axis_coords()
        pot = Potential(grid, 0.1 * np.cos(2 * np.pi * x), 0.3)
        u = np.zeros((1,) + grid.shape)
        _, _, e_tot = energies(f, pot)
        assert modulated_energy(f, pot, u) == pytest.approx(e_tot, rel=1e-12)

    def test_local_maxwellian_centered_on_reference(self):
        # f = Maxwellian(1, u(x), theta) node by node leaves only d*theta/2.
        grid = TorusGrid(1, 16)
        v_grid = VelocityGrid(1, 96, 8.0)
        theta = 0.6
        x = grid.axis_coords()
        u = 0.4 * np.sin(2 * np.pi * x)
        values = np.stack([maxwellian(v_grid, 1.0, [u_i], theta) for u_i in u])
        f = PhaseField(grid, v_grid, values, 0.0)
        h_mod = modulated_energy(f, None, u[None, :])
        assert h_mod == pytest.approx(theta / 2, abs=1e-8)

    def test_nonnegative_for_arbitrary_reference(self):
        grid = TorusGrid(2, 8)
        f = uniform_maxwellian_field(grid, VelocityGrid(2, 24, 5.0))
        rng = np.random.default_rng(2)
        u = np.stack([random_bandlimited_field(grid, 2, rng) for _ in range(2)])
        assert modulated_energy(f, None, u) >= 0.0

    @given(st.integers(0, 10_000), st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_moment_expansion_matches_direct_sum(self, seed, d):
        # The moment expansion must equal (1/2) sum |xi - u|^2 f to roundoff
        # on any state, including ones with zeros and a skewed reference.
        rng = np.random.default_rng(seed)
        x_grid = TorusGrid(d, 8 if d == 2 else 16)
        v_grid = VelocityGrid(d, 16 if d == 2 else 48, rng.uniform(1.0, 6.0))
        values = rng.random(x_grid.shape + v_grid.shape) * rng.uniform(0.0, 10.0)
        values[values < 0.1 * values.max()] = 0.0
        f = PhaseField(x_grid, v_grid, values, 0.0)
        u = rng.normal() + np.stack(
            [random_bandlimited_field(x_grid, 3, rng, amplitude=2.0) for _ in range(d)]
        )
        assert modulated_energy_defect(f, u) <= 1e-12


class TestHFunctional:
    def test_matched_current_gives_zero(self):
        grid = TorusGrid(2, 8)
        rng = np.random.default_rng(0)
        rho = 1.0 + 0.3 * random_bandlimited_field(grid, 2, rng)
        u = np.stack([random_bandlimited_field(grid, 2, rng) for _ in range(2)])
        macro = MacroFields(grid, rho, (rho * u[0], rho * u[1]), np.zeros(grid.shape))
        assert h_functional(macro, u) == 0.0

    def test_constant_current_oracle(self):
        grid = TorusGrid(2, 8)
        a = 0.37
        macro = MacroFields(
            grid,
            np.ones(grid.shape),
            (a * np.ones(grid.shape), np.zeros(grid.shape)),
            np.zeros(grid.shape),
        )
        u = np.zeros((2,) + grid.shape)
        assert h_functional(macro, u) == pytest.approx(a**2 / 2, rel=1e-12)

    def test_vacuum_with_current_raises(self):
        grid = TorusGrid(1, 8)
        rho = np.ones(grid.shape)
        rho[3] = 0.0
        current = (0.1 * np.ones(grid.shape),)
        macro = MacroFields(grid, rho, current, np.zeros(grid.shape))
        with pytest.raises(DegenerateDensityError, match="node"):
            h_functional(macro, np.zeros((1,) + grid.shape))

    def test_vacuum_path_agrees_with_the_path_for_nodes_with_mass(self):
        # With every node above the floor the density is one division; an
        # empty node sends it down the masked path, which must give the
        # same values elsewhere, 0 at the node, and refuse current there.
        rng = np.random.default_rng(3)
        rho, gap_sq = rng.uniform(0.5, 1.5, 16), rng.random(16)
        whole = _weighted_current_density(rho, gap_sq, "h")
        rho[5], gap_sq[5] = 0.0, 0.0
        masked = _weighted_current_density(rho, gap_sq, "h")
        assert masked[5] == 0.0
        assert np.array_equal(np.delete(masked, 5), np.delete(whole, 5))
        gap_sq[5] = 1.0
        with pytest.raises(DegenerateDensityError, match=r"^h: density 0 at node \(5,\) carries current$"):
            _weighted_current_density(rho, gap_sq, "h")

    def test_silent_vacuum_is_allowed(self):
        grid = TorusGrid(1, 8)
        rho = np.ones(grid.shape)
        rho[3] = 0.0
        current = (np.zeros(grid.shape),)
        macro = MacroFields(grid, rho, current, np.zeros(grid.shape))
        assert h_functional(macro, np.zeros((1,) + grid.shape)) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_never_exceeds_modulated_energy(self, seed):
        # Discrete Cauchy-Schwarz: holds for every nonnegative f and any u.
        rng = np.random.default_rng(seed)
        grid = TorusGrid(1, 16)
        v_grid = VelocityGrid(1, 32, 4.0)
        values = rng.random((16, 32)) * rng.random()
        f = PhaseField(grid, v_grid, values, 0.0)
        u = rng.normal(scale=0.5) * np.ones((1,) + grid.shape) + np.stack(
            [random_bandlimited_field(grid, 3, rng, amplitude=0.3)]
        )
        assert h_functional(moments(f), u) <= modulated_energy(f, None, u) + 1e-12


class TestQuasineutralityNorm:
    def test_uniform_density_is_neutral(self):
        grid = TorusGrid(2, 16)
        assert quasineutrality_norm(grid, np.ones(grid.shape)) == 0.0

    def test_single_mode_oracle(self):
        grid = TorusGrid(1, 64)
        a = 0.23
        rho = 1.0 + a * np.cos(2 * np.pi * grid.axis_coords())
        expected = a / (2.0 * np.sqrt(2.0) * np.pi)
        assert quasineutrality_norm(grid, rho) == pytest.approx(expected, rel=1e-12)

    @given(st.integers(0, 63))
    @settings(max_examples=20, deadline=None)
    def test_translation_invariant(self, shift):
        grid = TorusGrid(1, 64)
        rng = np.random.default_rng(7)
        rho = 1.0 + 0.4 * random_bandlimited_field(grid, 5, rng)
        rolled = np.roll(rho, shift)
        assert quasineutrality_norm(grid, rolled) == pytest.approx(
            quasineutrality_norm(grid, rho), rel=1e-12
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_dominated_by_l2_norm(self, seed):
        # The k = 1 modes are the slowest decaying: (2 pi ||rho-1||_{H^-1})^2
        # can never exceed ||rho-1||_{L2}^2.
        grid = TorusGrid(2, 16)
        rng = np.random.default_rng(seed)
        rho = 1.0 + 0.5 * random_bandlimited_field(grid, 5, rng)
        lhs = (2.0 * np.pi * quasineutrality_norm(grid, rho)) ** 2
        assert lhs <= l2_norm(grid, rho - 1.0) ** 2 + 1e-12


class TestKFunctional:
    def test_zero_current(self):
        grid = TorusGrid(1, 16)
        times = [0.0, 0.5, 1.0]
        rho = np.ones((3,) + grid.shape)
        current = np.zeros((3, 1) + grid.shape)
        rng = np.random.default_rng(1)
        bs = [rng.normal(size=(1,) + grid.shape) for _ in range(5)]
        primal, dual = k_functional_check(grid, times, rho, current, [1, 1, 1], bs)
        assert primal == 0.0
        assert dual <= 0.0
        primal, dual = k_functional_check(
            grid, times, rho, current, [1, 1, 1], bs + [np.zeros((1,) + grid.shape)]
        )
        assert dual == 0.0

    def test_constant_current_attains_bound(self):
        grid = TorusGrid(2, 8)
        t_final = 0.8
        times = np.linspace(0.0, t_final, 9)
        u = np.array([0.3, -0.5])
        rho = np.ones((9,) + grid.shape)
        current = np.ones((9, 2) + grid.shape) * u.reshape(1, 2, 1, 1)
        z = np.ones(9)
        optimal = np.ones((2,) + grid.shape) * u.reshape(2, 1, 1)
        primal, dual = k_functional_check(grid, times, rho, current, z, [optimal])
        expected = t_final * float((u**2).sum()) / 2.0
        assert primal == pytest.approx(expected, rel=1e-12)
        assert abs(primal - dual) <= 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_duality_gap_nonnegative_and_tight_at_optimum(self, seed):
        rng = np.random.default_rng(seed)
        grid = TorusGrid(1, 16)
        n_t = 4
        times = np.cumsum(0.1 + rng.random(n_t) * 0.2)
        rho = 1.0 + 0.3 * rng.random((n_t,) + grid.shape)
        current = rng.normal(scale=0.4, size=(n_t, 1) + grid.shape)
        z = rng.random(n_t)
        bs = [rng.normal(scale=0.5, size=(n_t, 1) + grid.shape) for _ in range(20)]
        primal, dual = k_functional_check(grid, times, rho, current, z, bs)
        assert dual <= primal + 1e-10
        optimal = current / rho[:, None]
        primal, dual = k_functional_check(
            grid, times, rho, current, z, bs + [optimal]
        )
        assert abs(primal - dual) <= 1e-10 * max(1.0, primal)

    def test_rejects_negative_weight(self):
        grid = TorusGrid(1, 8)
        with pytest.raises(ValueError, match="nonnegative"):
            k_functional_check(
                grid,
                [0.0, 1.0],
                np.ones((2,) + grid.shape),
                np.zeros((2, 1) + grid.shape),
                [1.0, -0.5],
                [],
            )


class TestCurrentError:
    def test_exact_match(self):
        grid = TorusGrid(2, 16)
        rng = np.random.default_rng(3)
        from quasikin.euler import leray_project

        u = leray_project(
            grid, np.stack([random_bandlimited_field(grid, 3, rng) for _ in range(2)])
        )
        j = (u[0], u[1])
        assert current_error(grid, j, u, "raw") == 0.0
        assert current_error(grid, j, u, "divfree") <= 1e-12

    def test_gradient_part_removed(self):
        # J = u + grad(psi), psi = cos(2 pi x) cos(2 pi y):
        # ||grad psi||_{L2} = sqrt(2) pi exactly.
        grid = TorusGrid(2, 32)
        x, y = grid.coords()
        from quasikin.euler import initial_velocity

        u = initial_velocity(grid, "taylor_green", amplitude=0.5)
        psi = np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        j = u + spectral_gradient(grid, psi)
        assert current_error(grid, j, u, "divfree") <= 1e-10
        assert current_error(grid, j, u, "raw") == pytest.approx(
            np.sqrt(2.0) * np.pi, rel=1e-12
        )

    def test_unknown_mode_rejected(self):
        grid = TorusGrid(1, 8)
        with pytest.raises(ValueError, match="mode"):
            current_error(
                grid, (np.zeros(8),), np.zeros((1, 8)), "projected"
            )


class TestDiagnosticsRecord:
    def make_record(self, **overrides):
        base = dict(
            t=0.25,
            mass=1.0,
            momentum=(0.125,),
            e_kinetic=0.5,
            e_field=0.25,
            e_total=0.75,
            modulated=0.3,
            mismatch=0.1,
            quasineutrality=0.01,
        )
        base.update(overrides)
        return DiagnosticsRecord(**base)

    def test_header_matches_schema(self):
        assert DiagnosticsRecord.csv_header() == (
            "t,mass,momentum_x,momentum_y,e_kinetic,e_field,e_total,H_eps,"
            "h_eps,rho_Hm1,J_err_raw,J_err_divfree,clipped_mass,newton_iters,"
            "field_residual"
        )
        assert len(CSV_COLUMNS) == 15

    def test_row_formatting_and_empty_cells(self):
        row = self.make_record().to_csv_row()
        cells = row.split(",")
        assert len(cells) == 15
        assert cells[0] == "0.25"
        assert cells[3] == ""  # no momentum_y in d = 1
        assert cells[10] == "" and cells[11] == ""  # no Euler reference
        assert cells[13] == "" and cells[14] == ""  # no field report

    def test_seventeen_digit_roundtrip(self):
        value = 1.0 / 3.0
        record = self.make_record(quasineutrality=value)
        cell = record.to_csv_row().split(",")[9]
        assert float(cell) == value

    def test_energy_identity_enforced(self):
        with pytest.raises(ValueError, match="e_total"):
            self.make_record(e_total=0.8)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mass", np.nan),
            ("e_kinetic", np.inf),
            ("momentum", (0.1, -np.inf)),
            ("quasineutrality", np.nan),
            ("current_error_divfree", np.nan),
            ("clipped_mass", -np.inf),
            ("field_residual", np.inf),
        ],
    )
    def test_non_finite_fields_rejected(self, field, value):
        overrides = {field: value}
        if field == "e_kinetic":
            overrides["e_total"] = np.inf
        with pytest.raises(ValueError, match=rf"non-finite {field} = .* at t = 0\.25"):
            self.make_record(**overrides)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mass", np.float64(np.nan)),
            ("field_residual", np.float64(-np.inf)),
            ("momentum", (np.float64(0.1), np.float64(np.nan))),
            ("momentum", (np.inf,)),
        ],
    )
    def test_numpy_scalars_and_momentum_components_checked(self, field, value):
        with pytest.raises(ValueError, match=rf"non-finite {field} = .* at t = 0\.25"):
            self.make_record(**{field: value})

    def test_finite_numpy_scalars_accepted(self):
        record = self.make_record(
            mass=np.float64(1.0), momentum=(np.float64(0.125), 0.0), newton_iters=3
        )
        assert record.momentum[1] == 0.0

    def test_first_non_finite_field_is_named(self):
        # Fields are searched in order once the cells' sum is non-finite.
        with pytest.raises(ValueError, match=r"non-finite mass = nan at t = 0\.25"):
            self.make_record(mass=np.nan, quasineutrality=np.inf, field_residual=-np.inf)
        # Finite cells whose sum overflows are accepted.
        assert self.make_record(clipped_mass=1e308, field_residual=1e308).clipped_mass == 1e308

    def test_nan_energies_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            self.make_record(mass=np.nan, e_kinetic=np.nan, e_total=np.nan)

    def test_mismatch_bound_enforced(self):
        with pytest.raises(ValueError, match="mismatch"):
            self.make_record(mismatch=0.5, modulated=0.3)

    def test_build_record_from_state(self):
        grid = TorusGrid(1, 32)
        v_grid = VelocityGrid(1, 64, 7.0)
        x = grid.axis_coords()
        rho_x = 1.0 + 0.1 * np.cos(2 * np.pi * x)
        values = rho_x[:, None] * maxwellian(v_grid, 1.0, [0.0], 0.5)[None, :]
        f = PhaseField(grid, v_grid, values, 0.125)
        pot = Potential(grid, 0.05 * np.sin(2 * np.pi * x), 0.4)
        u = np.full((1,) + grid.shape, 0.2)
        record = build_record(f, moments(f), pot, euler_velocity=u)
        assert record.t == 0.125
        assert record.mass == pytest.approx(1.0, abs=1e-10)
        assert record.e_total == record.e_kinetic + record.e_field
        assert record.mismatch <= record.modulated
        assert record.current_error_raw is not None
        row = record.to_csv_row()
        assert row.split(",")[13] == ""  # no solver report attached


def test_relative_energy_drift():
    base = TestDiagnosticsRecord().make_record
    records = [
        base(e_kinetic=0.5, e_total=0.75),
        base(e_kinetic=0.5 + 3e-4, e_total=0.75 + 3e-4),
        base(e_kinetic=0.5 - 6e-4, e_total=0.75 - 6e-4),
    ]
    assert relative_energy_drift(records) == pytest.approx(6e-4 / 0.75, rel=1e-9)
    assert relative_energy_drift(records[:1]) == 0.0
