"""Self-contained invariant battery behind `quasikin check`.

Each check exercises one structural property the solvers are built on —
conservation, duality, ellipticity, determinism — on problem sizes small
enough that the fast suite stays interactive.  These are smoke tests for
an installed copy, not a replacement for the pytest suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .collision import (
    CollisionConfig,
    bgk_collide,
    boltzmann_collide_direct,
    match_discrete_maxwellian,
    post_collision_velocities,
)
from .diagnostics import (
    h_functional,
    k_functional_check,
    modulated_energy,
    relative_energy_drift,
)
from .euler import EulerState, euler_step, initial_velocity, kinetic_energy
from .grids import (
    PhaseField,
    TorusGrid,
    VelocityGrid,
    grid_integral,
    maxwellian,
    moments,
    random_bandlimited_field,
    spectral_gradient,
)
from .monge_ampere import (
    Potential,
    cofactor_divergence_residual,
    determinant_of_potential,
    solve_field,
)
from .vlasov import (
    SimulationParams,
    WellPreparedIC,
    advect_v,
    advect_x,
    make_initial_condition,
    run,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def _make_state(seed: int = 0) -> PhaseField:
    """Small positive d=1 phase-space state with structure in x and v."""
    rng = np.random.default_rng(seed)
    x_grid, v_grid = TorusGrid(1, 16), VelocityGrid(1, 48, 6.0)
    x = x_grid.axis_coords()
    base = maxwellian(v_grid, 1.0, [0.3], 0.8)
    values = (1.0 + 0.2 * np.cos(2 * np.pi * x))[:, None] * base[None, :]
    values *= 1.0 + 0.05 * rng.random(values.shape)
    return PhaseField(x_grid, v_grid, values, 0.0)


def check_maxwellian_matching() -> tuple[bool, str]:
    f = _make_state()
    macro = moments(f)
    vaxes = (1,)
    nodes = f.v_grid.axis_nodes()
    energy2 = (f.values * nodes[None, :] ** 2).sum(axis=vaxes) * f.v_grid.weight
    matched = match_discrete_maxwellian(
        f.v_grid, macro.rho, macro.current[0].reshape(-1, 1), energy2
    )[:, 0]  # in 1-d the one factor is M itself
    m_rho = matched.sum(axis=vaxes) * f.v_grid.weight
    m_cur = (matched * nodes[None, :]).sum(axis=vaxes) * f.v_grid.weight
    m_e2 = (matched * nodes[None, :] ** 2).sum(axis=vaxes) * f.v_grid.weight
    worst = max(
        np.abs(m_rho / macro.rho - 1.0).max(),
        np.abs((m_cur - macro.current[0]) / np.maximum(np.abs(macro.current[0]), 1e-30)).max(),
        np.abs(m_e2 / energy2 - 1.0).max(),
    )
    return worst <= 1e-10, f"worst relative moment defect {worst:.2e} (tol 1e-10)"


def check_collision_invariants() -> tuple[bool, str]:
    f = _make_state(3)
    g = bgk_collide(f, 0.05, 0.01)
    nodes = f.v_grid.axis_nodes()[None, :]
    defects = []
    for weight_fn in (np.ones_like(nodes), nodes, nodes**2):
        before = (f.values * weight_fn).sum() * f.v_grid.weight
        after = (g.values * weight_fn).sum() * f.v_grid.weight
        defects.append(abs(after - before) / max(abs(before), 1e-30))
    worst = max(defects)
    return worst <= 1e-10, f"worst BGK invariant drift {worst:.2e} (tol 1e-10)"


def check_direct_quadrature_projection() -> tuple[bool, str]:
    x_grid, v_grid = TorusGrid(2, 4), VelocityGrid(2, 16, 3.5)
    base = maxwellian(v_grid, 1.0, [0.4, 0.0], 0.5)
    bump = maxwellian(v_grid, 0.5, [-0.6, 0.3], 0.3)
    values = np.broadcast_to(base + bump, (4, 4) + v_grid.shape).copy()
    f = PhaseField(x_grid, v_grid, values, 0.0)
    q = boltzmann_collide_direct(f, CollisionConfig(kind="direct", n_sigma=8))
    mesh = v_grid.node_mesh()
    feats = [np.ones(v_grid.shape), mesh[0], mesh[1], mesh[0] ** 2 + mesh[1] ** 2]
    scale = np.abs(q).sum() * v_grid.weight + 1e-30
    worst = max(
        abs(float((q[0, 0] * feat).sum() * v_grid.weight)) / scale for feat in feats
    )
    return worst <= 1e-12, f"worst projected moment {worst:.2e} of |Q| (tol 1e-12)"


def check_binary_kick_conservation() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        xi, xi1 = rng.normal(size=2), rng.normal(size=2)
        angle = rng.uniform(0.0, 2 * np.pi)
        sigma = np.array([np.cos(angle), np.sin(angle)])
        xi_p, xi1_p = post_collision_velocities(xi, xi1, sigma)
        mom = np.abs((xi_p + xi1_p) - (xi + xi1)).max()
        energy = abs((xi_p**2).sum() + (xi1_p**2).sum() - (xi**2).sum() - (xi1**2).sum())
        worst = max(worst, mom, energy)
    return worst <= 1e-12, f"worst pairwise defect {worst:.2e} (tol 1e-12)"


def check_field_roundtrip_d1() -> tuple[bool, str]:
    grid = TorusGrid(1, 64)
    x = grid.axis_coords()
    eps = 0.3
    phi_true = 0.02 * np.cos(2 * np.pi * x) + 0.01 * np.sin(4 * np.pi * x)
    hess = spectral_gradient(grid, spectral_gradient(grid, phi_true)[0])[0]
    rho = 1.0 + eps**2 * hess
    pot, _ = solve_field(grid, rho, eps, mode="monge_ampere")
    err = np.abs(pot.phi - phi_true).max()
    return err <= 1e-8, f"recovery error {err:.2e} (tol 1e-8)"


def check_field_roundtrip_d2() -> tuple[bool, str]:
    from .monge_ampere import _det_i_plus
    from .grids import spectral_hessian

    grid = TorusGrid(2, 32)
    x, y = grid.coords()
    eps = 0.2
    phi_true = 0.05 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    rho = _det_i_plus(spectral_hessian(grid, phi_true), eps**2)
    pot, report = solve_field(grid, rho, eps, mode="monge_ampere")
    err = np.abs(pot.phi - phi_true).max()
    ok = err <= 1e-7 and report.iterations <= 8
    return ok, f"recovery error {err:.2e} in {report.iterations} Newton iters"


def check_cofactor_identity() -> tuple[bool, str]:
    # modes up to 5 on a 24-grid: quadratic products stay below Nyquist
    grid = TorusGrid(2, 24)
    rng = np.random.default_rng(7)
    phi = random_bandlimited_field(grid, 5, rng, amplitude=0.05)
    res = cofactor_divergence_residual(Potential(grid, phi, 0.25))
    return res <= 1e-8, f"divergence-form residual {res:.2e} (tol 1e-8)"


def check_mean_determinant() -> tuple[bool, str]:
    grid = TorusGrid(2, 24)
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(20):
        phi = random_bandlimited_field(grid, 6, rng, amplitude=0.1)
        det = determinant_of_potential(Potential(grid, phi, 0.3))
        worst = max(worst, abs(float(det.mean()) - 1.0))
    return worst <= 1e-10, f"max |mean det - 1| = {worst:.2e} over 20 fields"


def check_modulated_dominates_mismatch() -> tuple[bool, str]:
    f = _make_state(21)
    macro = moments(f)
    u = np.stack([np.full(f.x_grid.shape, 0.1)])
    big = modulated_energy(f, None, u)
    small = h_functional(macro, u)
    return small <= big + 1e-12, f"h = {small:.6g} <= H = {big:.6g}"


def modulated_energy_defect(f: PhaseField, u: np.ndarray) -> float:
    """|modulated_energy - direct sum| / max(1, |direct sum|), no field.

    The direct sum is (1/2) sum |xi - u(x)|^2 f over phase space; a defect
    beyond roundoff means the moments and the distribution disagree.
    """
    d = f.dimension
    mesh = f.v_grid.node_mesh()
    sq = sum(
        (mesh[a].reshape((1,) * d + f.v_grid.shape)
         - u[a].reshape(f.x_grid.shape + (1,) * d)) ** 2
        for a in range(d)
    )
    direct = 0.5 * float((sq * f.values).sum()) * f.phase_volume
    return abs(modulated_energy(f, None, u) - direct) / max(1.0, abs(direct))


def check_modulated_energy_identity() -> tuple[bool, str]:
    rng = np.random.default_rng(17)
    worst = 0.0
    for x_grid, v_grid in ((TorusGrid(1, 16), VelocityGrid(1, 48, 6.0)),
                           (TorusGrid(2, 8), VelocityGrid(2, 16, 4.0))):
        f = PhaseField(x_grid, v_grid, rng.random(x_grid.shape + v_grid.shape), 0.0)
        u = np.stack(
            [random_bandlimited_field(x_grid, 3, rng) for _ in range(x_grid.dimension)]
        )
        worst = max(worst, modulated_energy_defect(f, u))
    return worst <= 1e-12, f"direct vs moment sum: relative defect {worst:.2e} (tol 1e-12)"


def check_k_duality() -> tuple[bool, str]:
    grid = TorusGrid(1, 32)
    x = grid.axis_coords()
    rho = np.stack([1.0 + 0.2 * np.cos(2 * np.pi * x), 1.0 + 0.1 * np.sin(2 * np.pi * x)])
    current = np.stack([[0.3 * np.ones(32)], [0.2 + 0.05 * np.cos(2 * np.pi * x)]])
    times = np.array([0.0, 0.1])
    optimum = current / rho[:, None, :]
    primal, dual = k_functional_check(grid, times, rho, current, 1.0, [optimum])
    gap = primal - dual
    ok = dual <= primal + 1e-12 and abs(gap) <= 1e-10 * max(1.0, primal)
    return ok, f"primal {primal:.6g}, dual {dual:.6g}, gap {gap:.2e}"


def check_euler_taylor_green() -> tuple[bool, str]:
    grid = TorusGrid(2, 32)
    state = EulerState.from_velocity(grid, initial_velocity(grid, "taylor_green"))
    e0 = kinetic_energy(state)
    for _ in range(50):
        state = euler_step(state, 2e-3)
    drift = abs(kinetic_energy(state) - e0) / e0
    return drift <= 1e-10, f"relative energy drift {drift:.2e} over t=0.1 (tol 1e-10)"


def check_transport_identities() -> tuple[bool, str]:
    f = _make_state(5)
    g, _ = advect_v(f, np.zeros((1,) + f.x_grid.shape), 0.01)
    identity_ok = np.array_equal(g.values, f.values)
    h, _ = advect_x(f, 0.013)
    mass_defect = abs(h.mass() - f.mass()) / f.mass()
    ok = identity_ok and mass_defect <= 1e-12
    return ok, f"zero-kick identity {identity_ok}, streaming mass defect {mass_defect:.2e}"


def check_energy_drift_short() -> tuple[bool, str]:
    params = SimulationParams(
        dimension=1, n_x=64, n_v=128, v_max=6.5, epsilon=0.1, dt=1e-3,
        t_end=0.1, field_mode="poisson",
        ic=WellPreparedIC(delta=0.1, theta=1.0), a_max_estimate=3.5,
    )
    drift = relative_energy_drift(run(params).records)
    return drift <= 1e-6, f"relative drift {drift:.2e} over t=0.1 (tol 1e-6)"


def check_determinism() -> tuple[bool, str]:
    params = SimulationParams(
        dimension=1, n_x=32, n_v=64, v_max=4.0, epsilon=0.2, dt=2e-3,
        t_end=0.02, field_mode="monge_ampere",
        collision=CollisionConfig(kind="bgk", tau=0.1),
        ic=WellPreparedIC(delta=0.1, theta=0.3), a_max_estimate=1.0,
    )
    rows_a = [r.to_csv_row() for r in run(params).records]
    rows_b = [r.to_csv_row() for r in run(params).records]
    ok = rows_a == rows_b
    return ok, "rerun rows byte-identical" if ok else "rerun rows differ"


def check_equilibrium_fixed_point() -> tuple[bool, str]:
    params = SimulationParams(
        dimension=1, n_x=32, n_v=64, v_max=6.5, epsilon=0.2, dt=2e-3,
        t_end=0.02, field_mode="monge_ampere",
        collision=CollisionConfig(kind="bgk", tau=0.1),
        ic=WellPreparedIC(theta=1.0), a_max_estimate=0.1,
    )
    x_grid = params.x_grid()
    rho0 = moments(
        make_initial_condition(params.ic, x_grid, params.v_grid(), params.epsilon)
    ).rho
    rho = moments(run(params).final).rho
    drift = np.abs(rho - rho0).max() / grid_integral(x_grid, rho0)
    return drift <= 1e-10, f"density drift {drift:.2e} from equilibrium (tol 1e-10)"


FAST_CHECKS = [
    ("maxwellian_matching", check_maxwellian_matching),
    ("collision_invariants", check_collision_invariants),
    ("direct_quadrature_projection", check_direct_quadrature_projection),
    ("binary_kick_conservation", check_binary_kick_conservation),
    ("field_roundtrip_d1", check_field_roundtrip_d1),
    ("field_roundtrip_d2", check_field_roundtrip_d2),
    ("cofactor_identity", check_cofactor_identity),
    ("mean_determinant", check_mean_determinant),
    ("modulated_dominates_mismatch", check_modulated_dominates_mismatch),
    ("modulated_energy_identity", check_modulated_energy_identity),
    ("k_duality", check_k_duality),
    ("euler_taylor_green", check_euler_taylor_green),
    ("transport_identities", check_transport_identities),
]

FULL_CHECKS = FAST_CHECKS + [
    ("energy_drift_short", check_energy_drift_short),
    ("determinism", check_determinism),
    ("equilibrium_fixed_point", check_equilibrium_fixed_point),
]


def run_suite(suite: str = "fast") -> list[CheckResult]:
    if suite not in ("fast", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    battery = FAST_CHECKS if suite == "fast" else FULL_CHECKS
    results = []
    for name, fn in battery:
        started = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(
            CheckResult(name, bool(passed), detail, time.perf_counter() - started)
        )
    return results
