"""Collision operator tests.

Conservation checks use analytically known invariants (mass, momentum,
kinetic energy are exact invariants of both operators by construction), the
entropy inequality follows from convexity plus the Gibbs property of the
matched Maxwellian, and the direct quadrature is compared against its own
refinement and against the BGK relaxation direction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from quasikin.collision import (
    CollisionConfig,
    CollisionMomentError,
    bgk_collide,
    boltzmann_collide_direct,
    match_discrete_maxwellian,
    post_collision_velocities,
)
from quasikin.grids import PhaseField, TorusGrid, VelocityGrid, maxwellian, moments

finite = {"allow_nan": False, "allow_infinity": False}


def entropy(f: PhaseField) -> float:
    """Discrete sum of f log f over phase space (0 log 0 = 0)."""
    return float(xlogy(f.values, f.values).sum()) * f.phase_volume


def _maxwellian(factors: np.ndarray) -> np.ndarray:
    """M from the match's per-axis factors (nodes, d, n_v): the one factor
    in 1-d, the outer product of the two in 2-d."""
    if factors.shape[1] == 1:
        return factors[:, 0]
    return factors[:, 0, :, None] * factors[:, 1, None, :]


def bimodal_field(x_grid: TorusGrid, v_grid: VelocityGrid) -> PhaseField:
    """Two counter-streaming beams with a gentle spatial density ripple."""
    x = x_grid.axis_coords()
    rho = 1.0 + 0.3 * np.cos(2.0 * np.pi * x)
    beams = 0.5 * (
        maxwellian(v_grid, 1.0, [0.8] + [0.0] * (v_grid.dimension - 1), 0.3)
        + maxwellian(v_grid, 1.0, [-0.8] + [0.0] * (v_grid.dimension - 1), 0.3)
    )
    spatial_shape = x_grid.shape + (1,) * v_grid.dimension
    if x_grid.dimension == 2:
        rho = rho[:, None] * np.ones(x_grid.shape)
    values = rho.reshape(spatial_shape) * beams
    return PhaseField(x_grid, v_grid, values, 0.0)


class TestPostCollisionVelocities:
    @given(
        st.lists(st.floats(-3, 3, **finite), min_size=4, max_size=4),
        st.floats(0, 2 * np.pi, **finite),
    )
    def test_conserves_momentum_and_energy(self, coords, angle):
        xi = np.array(coords[:2])
        xi1 = np.array(coords[2:])
        sigma = np.array([np.cos(angle), np.sin(angle)])
        xi_p, xi1_p = post_collision_velocities(xi, xi1, sigma)
        assert np.allclose(xi_p + xi1_p, xi + xi1, atol=1e-12, rtol=0)
        before = (xi**2).sum() + (xi1**2).sum()
        after = (xi_p**2).sum() + (xi1_p**2).sum()
        assert abs(after - before) <= 1e-12 * max(1.0, before)

    def test_one_dimensional_exchange(self):
        # sigma = +1 keeps the pair's ordering, sigma = -1 swaps it
        xi_p, xi1_p = post_collision_velocities([2.0], [-1.0], [1.0])
        assert xi_p[0] == pytest.approx(2.0) and xi1_p[0] == pytest.approx(-1.0)
        xi_p, xi1_p = post_collision_velocities([2.0], [-1.0], [-1.0])
        assert xi_p[0] == pytest.approx(-1.0) and xi1_p[0] == pytest.approx(2.0)

    def test_rejects_non_unit_sigma(self):
        with pytest.raises(ValueError, match="unit"):
            post_collision_velocities([1.0, 0.0], [0.0, 1.0], [0.5, 0.5])


class TestCollisionConfig:
    def test_defaults_are_valid(self):
        config = CollisionConfig()
        assert config.kind == "none"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "landau"},
            {"kind": "bgk", "tau": 0.0},
            {"kind": "bgk", "tau": -1.0},
            {"kind": "bgk", "tau": float("inf")},
            {"kind": "bgk", "tau": float("nan")},
            {"kind": "direct", "n_sigma": 7},
            {"kind": "direct", "n_sigma": 4},
            {"kind": "direct", "gamma": -0.5},
            {"kind": "direct", "gamma": float("nan")},
            {"kind": "direct", "gamma": float("inf")},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            CollisionConfig(**kwargs)


class TestDiscreteMaxwellianMatching:
    @given(
        st.floats(0.4, 2.5, **finite),
        st.floats(-0.5, 0.5, **finite),
        st.floats(0.3, 1.2, **finite),
    )
    @settings(max_examples=40, deadline=None)
    def test_reproduces_prescribed_moments(self, rho, u, theta):
        v_grid = VelocityGrid(1, 64, 7.0)
        current = np.array([[rho * u]])
        energy2 = np.array([rho * (theta + u * u)])
        vals = _maxwellian(match_discrete_maxwellian(v_grid, np.array([rho]), current, energy2))
        w = v_grid.weight
        nodes = v_grid.axis_nodes()
        assert vals.shape == (1, 64)
        assert float(vals.sum()) * w == pytest.approx(rho, rel=1e-11)
        assert float((nodes * vals[0]).sum()) * w == pytest.approx(rho * u, abs=1e-11 * rho)
        assert float((nodes**2 * vals[0]).sum()) * w == pytest.approx(energy2[0], rel=1e-11)

    def test_recovers_sampled_gaussian(self):
        # A grid-sampled Maxwellian is its own moment match.
        v_grid = VelocityGrid(2, 32, 5.0)
        f = maxwellian(v_grid, 1.3, [0.2, -0.1], 0.6)
        w = v_grid.weight
        mesh = v_grid.node_mesh()
        rho = np.array([f.sum() * w])
        cur = np.array([[(mesh[0] * f).sum() * w, (mesh[1] * f).sum() * w]])
        e2 = np.array([((mesh[0] ** 2 + mesh[1] ** 2) * f).sum() * w])
        matched = _maxwellian(match_discrete_maxwellian(v_grid, rho, cur, e2))[0]
        assert np.max(np.abs(matched - f)) <= 1e-10 * f.max()

    def test_rejects_delta_concentration(self):
        v_grid = VelocityGrid(1, 16, 2.0)
        vals = np.zeros((1, 16))
        vals[0, 3] = 1.0 / v_grid.weight  # all mass at one node: temperature 0
        with pytest.raises(CollisionMomentError, match="temperature"):
            match_discrete_maxwellian(
                v_grid,
                np.array([1.0]),
                np.array([[v_grid.axis_nodes()[3]]]),
                np.array([v_grid.axis_nodes()[3] ** 2]),
            )

    def test_rejects_negative_density(self):
        v_grid = VelocityGrid(1, 16, 2.0)
        with pytest.raises(CollisionMomentError, match="negative density"):
            match_discrete_maxwellian(
                v_grid, np.array([-0.2]), np.array([[0.0]]), np.array([0.1])
            )

    def test_empty_nodes_get_the_zero_function(self):
        # A node without mass sends the match down its general path, which
        # gathers the nodes with mass; they come out as without the empty one.
        v_grid = VelocityGrid(1, 32, 5.0)
        rho = np.array([1.2, 0.0, 0.7])
        current = np.array([[0.3], [0.0], [-0.1]])
        energy2 = np.array([0.9, 0.0, 0.5])
        vals = _maxwellian(match_discrete_maxwellian(v_grid, rho, current, energy2))
        assert not vals[1].any()
        alone = _maxwellian(
            match_discrete_maxwellian(v_grid, rho[[0, 2]], current[[0, 2]], energy2[[0, 2]])
        )
        assert np.array_equal(vals[[0, 2]], alone)

    def test_matches_a_state_colder_than_the_node_spacing(self):
        # theta ~ 1e-6 h_v^2: a Gaussian that narrow lands on one node, where
        # the Gram matrix is singular; the match is wider than theta.
        v_grid = VelocityGrid(1, 64, 5.0)
        vals = np.zeros((4, 64))
        vals[:, 40], vals[:, 41] = 1.0, 1e-6
        f = PhaseField(TorusGrid(1, 4), v_grid, vals)
        macro = moments(f)
        matched = _maxwellian(
            match_discrete_maxwellian(v_grid, macro.rho, macro.current.T, 2.0 * macro.e_kin)
        )
        again = moments(PhaseField(f.x_grid, v_grid, matched))
        assert np.allclose(again.rho, macro.rho, rtol=1e-12, atol=0.0)
        assert np.allclose(again.current, macro.current, rtol=1e-12, atol=0.0)
        assert np.allclose(again.e_kin, macro.e_kin, rtol=1e-12, atol=0.0)

    def test_rejects_a_non_finite_match(self):
        # A near-delta state so large that the Newton iterates overflow: the
        # residual turns NaN, and a NaN residual must fail the final test too.
        v_grid = VelocityGrid(1, 64, 5.0)
        vals = np.zeros((4, 64))
        vals[:, 40], vals[:, 41] = 1e307, 1e306
        f = PhaseField(TorusGrid(1, 4), v_grid, vals)
        macro = moments(f)
        with np.errstate(all="ignore"), pytest.raises(CollisionMomentError, match="stalled at node 0"):
            match_discrete_maxwellian(
                v_grid, macro.rho, macro.current.T, 2.0 * macro.e_kin
            )
        with np.errstate(all="ignore"), pytest.raises(CollisionMomentError, match="residual nan"):
            bgk_collide(f, tau=0.1, dt=0.05)


class TestBgkRelaxation:
    def setup_method(self):
        self.f = bimodal_field(TorusGrid(1, 16), VelocityGrid(1, 96, 6.0))

    def test_conserves_moments(self):
        before = moments(self.f)
        after = moments(bgk_collide(self.f, tau=0.1, dt=0.05))
        assert np.max(np.abs(after.rho - before.rho)) <= 1e-10 * before.rho.max()
        assert np.max(np.abs(after.current[0] - before.current[0])) <= 1e-10
        assert np.max(np.abs(after.e_kin - before.e_kin)) <= 1e-10 * before.e_kin.max()

    def test_preserves_positivity(self):
        g = bgk_collide(self.f, tau=0.02, dt=1.0)  # heavy relaxation
        assert g.values.min() >= 0.0

    def test_entropy_never_increases(self):
        s0 = entropy(self.f)
        f = self.f
        for _ in range(5):
            f = bgk_collide(f, tau=0.05, dt=0.04)
            s1 = entropy(f)
            assert s1 <= s0 + 1e-12 * abs(s0)
            s0 = s1

    def test_exponential_update_rate(self):
        # One step leaves exactly exp(-dt/tau) of the non-equilibrium part.
        macro = moments(self.f)
        m = self.f.x_grid.n_x
        maxw = _maxwellian(match_discrete_maxwellian(
            self.f.v_grid,
            macro.rho.reshape(m),
            macro.current[0].reshape(m, 1),
            2.0 * macro.e_kin.reshape(m),
        )).reshape(self.f.values.shape)
        dt, tau = 0.07, 0.2
        g = bgk_collide(self.f, tau=tau, dt=dt)
        expected = maxw + np.exp(-dt / tau) * (self.f.values - maxw)
        assert np.max(np.abs(g.values - expected)) <= 1e-11 * self.f.values.max()

    def test_maxwellian_is_fixed_point(self):
        v_grid = self.f.v_grid
        base = maxwellian(v_grid, 1.0, [0.3], 0.5)
        values = np.broadcast_to(base, self.f.values.shape).copy()
        f = PhaseField(self.f.x_grid, v_grid, values, 0.0)
        g = bgk_collide(f, tau=0.1, dt=0.3)
        assert np.max(np.abs(g.values - f.values)) <= 1e-10 * f.values.max()

    def test_rejects_bad_time_parameters(self):
        with pytest.raises(ValueError, match="tau"):
            bgk_collide(self.f, tau=0.0, dt=0.1)
        with pytest.raises(ValueError, match="dt"):
            bgk_collide(self.f, tau=0.1, dt=-0.1)

    @pytest.mark.parametrize(
        "tau, dt, name",
        [(0.1, np.nan, "dt"), (0.1, np.inf, "dt"), (np.nan, 0.1, "tau"), (np.inf, 0.1, "tau")],
    )
    def test_rejects_non_finite_time_parameters(self, tau, dt, name):
        # A NaN dt passes `dt < 0` and an infinite tau makes the update a
        # no-op that still pays for the match; both are rejected up front.
        with pytest.raises(ValueError, match=rf"{name} must be .* and finite"):
            bgk_collide(self.f, tau=tau, dt=dt)


class TestDirectQuadrature:
    def setup_method(self):
        self.config = CollisionConfig(kind="direct", n_sigma=12)
        self.x_grid = TorusGrid(2, 4)
        self.v_grid = VelocityGrid(2, 16, 3.6)
        self.f = bimodal_field(self.x_grid, self.v_grid)

    def collision_moments(self, q: np.ndarray) -> np.ndarray:
        mesh = self.v_grid.node_mesh()
        w = self.v_grid.weight
        node = q[0, 0]
        return np.array(
            [
                node.sum() * w,
                (mesh[0] * node).sum() * w,
                (mesh[1] * node).sum() * w,
                ((mesh[0] ** 2 + mesh[1] ** 2) * node).sum() * w,
            ]
        )

    def test_moments_vanish_after_projection(self):
        q = boltzmann_collide_direct(self.f, self.config)
        scale = float(np.abs(q).max()) * self.v_grid.n_v**2 * self.v_grid.weight
        assert np.max(np.abs(self.collision_moments(q))) <= 1e-12 * scale

    def test_maxwellian_is_near_equilibrium(self):
        base = maxwellian(self.v_grid, 1.0, [0.0, 0.0], 0.4)
        values = np.broadcast_to(base, self.f.values.shape).copy()
        f_eq = PhaseField(self.x_grid, self.v_grid, values, 0.0)
        q_eq = boltzmann_collide_direct(f_eq, self.config)
        q_ne = boltzmann_collide_direct(self.f, self.config)
        # The equilibrium residual is pure interpolation error at n_v = 16;
        # test_equilibrium_residual_refines shows it vanishes under refinement.
        assert np.abs(q_eq).max() <= 0.1 * np.abs(q_ne).max()

    def test_equilibrium_residual_refines(self):
        residuals = []
        for n_v in (12, 24):
            v_grid = VelocityGrid(2, n_v, 3.6)
            base = maxwellian(v_grid, 1.0, [0.0, 0.0], 0.4)
            shape = self.x_grid.shape + v_grid.shape
            f_eq = PhaseField(
                self.x_grid, v_grid, np.broadcast_to(base, shape).copy(), 0.0
            )
            q = boltzmann_collide_direct(f_eq, self.config)
            residuals.append(float(np.abs(q).max()))
        assert residuals[1] <= 0.5 * residuals[0]

    def test_entropy_production_sign(self):
        q = boltzmann_collide_direct(self.f, self.config)
        log_f = np.log(np.maximum(self.f.values, 1e-300))
        production = -(q * log_f)[0, 0].sum() * self.v_grid.weight
        scale = float(np.abs(q * log_f).max()) * self.v_grid.n_v**2 * self.v_grid.weight
        assert production >= -1e-10 * scale

    def test_points_toward_bgk_equilibrium(self):
        q = boltzmann_collide_direct(self.f, self.config)
        macro = moments(self.f)
        m = int(np.prod(self.x_grid.shape))
        cur = np.stack(
            [macro.current[a].reshape(m) for a in range(2)], axis=1
        )
        maxw = _maxwellian(match_discrete_maxwellian(
            self.v_grid, macro.rho.reshape(m), cur, 2.0 * macro.e_kin.reshape(m)
        )).reshape(self.f.values.shape)
        overlap = float(((maxw - self.f.values) * q).sum()) * self.f.phase_volume
        assert overlap > 0.0

    def test_rejects_one_dimensional_input(self):
        f = bimodal_field(TorusGrid(1, 8), VelocityGrid(1, 16, 3.0))
        with pytest.raises(ValueError, match="d = 2"):
            boltzmann_collide_direct(f, self.config)

    def test_rejects_oversized_velocity_grid(self):
        v_grid = VelocityGrid(2, 40, 3.6)
        shape = self.x_grid.shape + v_grid.shape
        f = PhaseField(self.x_grid, v_grid, np.ones(shape), 0.0)
        with pytest.raises(ValueError, match="n_v"):
            boltzmann_collide_direct(f, self.config)
