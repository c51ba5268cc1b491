"""Acceptance criteria, one test per criterion, printed as one line each.

The long-horizon criteria run the shipped scenario files, so passing here
certifies both the solvers and the configurations we distribute.  Shared
runs are module-scoped fixtures; the whole gate is a few minutes of wall
time at the desk scales (1-d: 64 x 128, 2-d: 32^2 x 32^2).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from quasikin.cli import main
from quasikin.collision import (
    CollisionConfig,
    bgk_collide,
    boltzmann_collide_direct,
    post_collision_velocities,
)
from quasikin.config import load_config
from quasikin.diagnostics import CSV_COLUMNS, k_functional_check, relative_energy_drift
from quasikin.euler import initial_velocity, kinetic_energy, solve_euler
from quasikin.grids import (
    PhaseField,
    TorusGrid,
    VelocityGrid,
    maxwellian,
    random_bandlimited_field,
    spectral_gradient,
    spectral_hessian,
)
from quasikin.monge_ampere import (
    Potential,
    _det_i_plus,
    cofactor_divergence_residual,
    determinant_of_potential,
    solve_field,
)
from quasikin.vlasov import (
    SimulationParams,
    WellPreparedIC,
    advect_x,
    make_initial_condition,
    run,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _verdict(number: int, passed: bool, detail: str) -> None:
    print(f"CRITERION {number:02d} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def d1_sweep():
    config = load_config(SCENARIOS / "sweep_quasineutral_d1.cfg")
    return [(eps, run(config.make_params(eps))) for eps in config.sweep_epsilons]


@pytest.fixture(scope="module")
def d2_spot():
    config = load_config(SCENARIOS / "quasineutral_d2.cfg")
    return [(eps, run(config.make_params(eps))) for eps in config.sweep_epsilons]


@pytest.fixture(scope="module")
def d2_mode_drift():
    config = load_config(SCENARIOS / "sweep_energy_d2.cfg")
    table = []
    for eps in config.sweep_epsilons:
        drifts = {
            mode: relative_energy_drift(run(config.make_params(eps, field_mode=mode)).records)
            for mode in ("poisson", "monge_ampere")
        }
        table.append((eps, drifts))
    return table


@pytest.fixture(scope="module")
def energy_d1_runs():
    config = load_config(SCENARIOS / "energy_d1.cfg")
    return {
        mode: run(config.make_params(field_mode=mode))
        for mode in ("poisson", "monge_ampere")
    }


@pytest.fixture(scope="module")
def flagship_csvs(tmp_path_factory):
    out_a = tmp_path_factory.mktemp("flagship_a")
    out_b = tmp_path_factory.mktemp("flagship_b")
    cfg = str(SCENARIOS / "quasineutral_d1.cfg")
    assert main(["simulate", "--config", cfg, "--output", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg, "--output", str(out_b)]) == 0
    return out_a / "diagnostics.csv", out_b / "diagnostics.csv"


def test_criterion_01_collision_invariants():
    # BGK leg: a structured, flowing 1-d state.
    x_grid, v_grid = TorusGrid(1, 32), VelocityGrid(1, 96, 7.0)
    f = make_initial_condition(
        WellPreparedIC(u0_kind="constant", u0_amplitude=0.3, delta=0.2, theta=0.6),
        x_grid, v_grid, 0.5,
    )
    g = bgk_collide(f, 0.05, 0.02)
    nodes = v_grid.axis_nodes()[None, :]
    worst = 0.0
    for w in (np.ones_like(nodes), nodes, nodes**2):
        before = (f.values * w).sum() * v_grid.weight
        after = (g.values * w).sum() * v_grid.weight
        worst = max(worst, abs(after - before) / abs(before))
    # Direct-quadrature leg: explicit Euler step with the projected operator.
    x2, v2 = TorusGrid(2, 4), VelocityGrid(2, 24, 4.2)
    base = maxwellian(v2, 1.0, [0.5, -0.2], 0.45) + maxwellian(v2, 0.6, [-0.4, 0.3], 0.3)
    f2 = PhaseField(x2, v2, np.broadcast_to(base, (4, 4) + v2.shape).copy(), 0.0)
    q = boltzmann_collide_direct(f2, CollisionConfig(kind="direct", n_sigma=12))
    stepped = f2.values + 0.1 * q
    mesh = v2.node_mesh()
    for w in (np.ones(v2.shape), mesh[0], mesh[1], mesh[0] ** 2 + mesh[1] ** 2):
        before = (f2.values * w).sum() * v2.weight
        after = (stepped * w).sum() * v2.weight
        worst = max(worst, abs(after - before) / max(abs(before), 1e-30))
    _verdict(1, worst <= 1e-10, f"worst relative invariant change {worst:.3e} (tol 1e-10)")


def test_criterion_02_random_binary_kicks():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(10_000):
        d = 1 if k % 2 == 0 else 2
        xi, xi1 = rng.normal(size=d), rng.normal(size=d)
        if d == 1:
            sigma = np.array([1.0 if rng.random() < 0.5 else -1.0])
        else:
            angle = rng.uniform(0.0, 2.0 * np.pi)
            sigma = np.array([np.cos(angle), np.sin(angle)])
        xi_p, xi1_p = post_collision_velocities(xi, xi1, sigma)
        mom = np.abs((xi_p + xi1_p) - (xi + xi1)).max()
        energy = abs(
            (xi_p**2).sum() + (xi1_p**2).sum() - (xi**2).sum() - (xi1**2).sum()
        )
        worst = max(worst, mom, energy)
    _verdict(2, worst <= 1e-12, f"worst defect over 10^4 kicks {worst:.3e} (tol 1e-12)")


def test_criterion_03_field_solver_roundtrip():
    # d=2 manufactured solution at the criterion's stated grid.
    grid = TorusGrid(2, 64)
    x, y = grid.coords()
    eps = 0.2
    phi_true = 0.05 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.02 * np.sin(
        2 * np.pi * x
    )
    rho = _det_i_plus(spectral_hessian(grid, phi_true), eps**2)
    pot, report = solve_field(grid, rho, eps, mode="monge_ampere")
    err2 = float(np.abs(pot.phi - phi_true).max())
    ok2 = err2 <= 1e-7 and report.iterations <= 8
    # d=1 closed form.
    grid1 = TorusGrid(1, 64)
    t = grid1.axis_coords()
    phi1 = 0.02 * np.cos(2 * np.pi * t) + 0.01 * np.sin(4 * np.pi * t)
    curv = spectral_gradient(grid1, spectral_gradient(grid1, phi1)[0])[0]
    pot1, _ = solve_field(grid1, 1.0 + 0.3**2 * curv, 0.3, mode="monge_ampere")
    err1 = float(np.abs(pot1.phi - phi1).max())
    _verdict(
        3,
        ok2 and err1 <= 1e-8,
        f"d=2 error {err2:.3e} in {report.iterations} iters (tol 1e-7, <=8); "
        f"d=1 error {err1:.3e} (tol 1e-8)",
    )


def test_criterion_04_cofactor_divergence_identity():
    grid = TorusGrid(2, 32)
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(10):
        phi = random_bandlimited_field(grid, 6, rng, amplitude=0.1)
        worst = max(worst, cofactor_divergence_residual(Potential(grid, phi, 0.3)))
    _verdict(4, worst <= 1e-8, f"max divergence-form residual {worst:.3e} (tol 1e-8)")


def test_criterion_05_determinant_mean():
    grid = TorusGrid(2, 32)
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        phi = random_bandlimited_field(grid, 6, rng, amplitude=0.2)
        det = determinant_of_potential(Potential(grid, phi, 0.4))
        worst = max(worst, abs(float(det.mean()) - 1.0))
    _verdict(5, worst <= 1e-10, f"max |mean det - 1| = {worst:.3e} over 100 fields")


def test_criterion_06_energy_conservation(energy_d1_runs, d2_mode_drift):
    drift_p = relative_energy_drift(energy_d1_runs["poisson"].records)
    drift_m = relative_energy_drift(energy_d1_runs["monge_ampere"].records)
    eps_list = np.array([eps for eps, _ in d2_mode_drift])
    excess = np.array(
        [abs(d["monge_ampere"] - d["poisson"]) for _, d in d2_mode_drift]
    )
    exponent = float(np.polyfit(np.log(eps_list), np.log(excess), 1)[0])
    ok = drift_p <= 1e-6 and drift_m <= 1e-4 and exponent >= 1.5
    _verdict(
        6,
        ok,
        f"poisson drift {drift_p:.3e} (tol 1e-6), nonlinear drift {drift_m:.3e} "
        f"(tol 1e-4), mode-excess exponent {exponent:.2f} (need >= 1.5)",
    )


def test_criterion_07_mismatch_below_modulated(d1_sweep, d2_spot, flagship_csvs):
    worst = -np.inf
    count = 0
    for _, trajectory in list(d1_sweep) + list(d2_spot):
        for r in trajectory.records:
            worst = max(worst, r.mismatch - r.modulated)
            count += 1
    header_seen = False
    for line in flagship_csvs[0].read_text().splitlines():
        if not header_seen:
            header_seen = True
            continue
        fields = line.split(",")
        worst = max(worst, float(fields[8]) - float(fields[7]))
        count += 1
    _verdict(
        7,
        worst <= 1e-12,
        f"max(h - H) = {worst:.3e} over {count} output times (tol 1e-12)",
    )


def test_criterion_08_current_functional_duality():
    grid = TorusGrid(1, 24)
    x = grid.axis_coords()
    rng = np.random.default_rng(808)
    worst_gap = 0.0
    dual_exceeded = False
    for _ in range(100):
        times = np.sort(rng.uniform(0.0, 1.0, size=4))
        while np.any(np.diff(times) <= 1e-6):
            times = np.sort(rng.uniform(0.0, 1.0, size=4))
        rho = 1.0 + rng.uniform(-0.4, 0.4) * np.cos(
            2 * np.pi * (x[None, :] + rng.random())
        ) * np.ones((4, 1))
        current = rng.normal(scale=0.5) + 0.3 * np.sin(
            2 * np.pi * (x[None, :] - times[:, None])
        )
        current = current[:, None, :]
        z = rng.uniform(0.1, 2.0, size=4)
        optimum = current / rho[:, None, :]
        others = [optimum * 0.7, optimum + 0.1, np.zeros_like(optimum)]
        primal, dual = k_functional_check(grid, times, rho, current, z, [optimum] + others)
        if dual > primal + 1e-12 * max(1.0, abs(primal)):
            dual_exceeded = True
        primal_opt, dual_opt = k_functional_check(
            grid, times, rho, current, z, [optimum]
        )
        worst_gap = max(
            worst_gap, abs(primal_opt - dual_opt) / max(1.0, abs(primal_opt))
        )
    ok = (not dual_exceeded) and worst_gap <= 1e-10
    _verdict(
        8,
        ok,
        f"dual <= primal over 100 cases: {not dual_exceeded}; "
        f"worst optimizer gap {worst_gap:.3e} (tol 1e-10)",
    )


def test_criterion_09_quasineutrality_rate(d1_sweep):
    eps_list = np.array([eps for eps, _ in d1_sweep])
    sup_q = np.array(
        [max(r.quasineutrality for r in t.records) for _, t in d1_sweep]
    )
    slope = float(np.polyfit(np.log(eps_list), np.log(sup_q), 1)[0])
    _verdict(
        9,
        slope >= 0.45,
        f"sup-t negative-norm density defect slope {slope:.3f} vs epsilon (need >= 0.45)",
    )


def test_criterion_10_limit_monotonicity(d1_sweep, d2_spot):
    sup_h = [max(r.modulated for r in t.records) for _, t in d1_sweep]
    h_decreasing = all(a > b for a, b in zip(sup_h, sup_h[1:]))
    quarter_pairs = [(0, 2), (1, 3)]  # (0.2, 0.05) and (0.1, 0.025)
    quarter_ok = all(sup_h[j] / sup_h[i] <= 0.5 for i, j in quarter_pairs)
    currents = [t.records[-1].current_error_divfree for _, t in d1_sweep]
    j_decreasing = all(a > b for a, b in zip(currents, currents[1:]))
    j_half = currents[-1] <= 0.5 * currents[0]
    spot_h = [max(r.modulated for r in t.records) for _, t in d2_spot]
    spot_j = [t.records[-1].current_error_divfree for _, t in d2_spot]
    spot_ok = spot_h[0] > spot_h[1] and spot_j[0] > spot_j[1]
    ok = h_decreasing and quarter_ok and j_decreasing and j_half and spot_ok
    _verdict(
        10,
        ok,
        "1-d: sup modulated "
        + ("strictly decreasing" if h_decreasing else "NOT decreasing")
        + f", quarter-epsilon ratios {[f'{sup_h[j]/sup_h[i]:.3f}' for i, j in quarter_pairs]}"
        f" (need <= 0.5); current errors decreasing: {j_decreasing}, "
        f"smallest/largest {currents[-1]/currents[0]:.3e} (need <= 0.5); "
        f"2-d spot monotone: {spot_ok}",
    )


def test_criterion_11_euler_reference():
    grid = TorusGrid(2, 64)
    u0 = initial_velocity(grid, "taylor_green")
    states = solve_euler(grid, u0, 1e-3, [0.0, 0.5, 1.0])
    u_drift = max(float(np.abs(s.u - u0).max()) for s in states)
    energies = [kinetic_energy(s) for s in states]
    e_drift = max(abs(e - energies[0]) for e in energies) / energies[0]
    # time order on a random band-limited field
    rng = np.random.default_rng(311)
    small = TorusGrid(2, 32)
    u_rand = initial_velocity(small, "random_bandlimited", amplitude=0.8, seed=7)
    t_end = 0.1
    ref = solve_euler(small, u_rand, t_end / 800, [t_end])[0].u
    errs = []
    for steps in (50, 100):
        approx = solve_euler(small, u_rand, t_end / steps, [t_end])[0].u
        errs.append(float(np.abs(approx - ref).max()))
    order = float(np.log2(errs[0] / errs[1]))
    ok = u_drift <= 1e-6 and e_drift <= 1e-8 and order >= 3.9
    _verdict(
        11,
        ok,
        f"stationary-vortex drift {u_drift:.3e} (tol 1e-6), energy drift "
        f"{e_drift:.3e} (tol 1e-8), time order {order:.2f} (need >= 3.9)",
    )


def test_criterion_12_transport_orders():
    # Strang self-convergence, collisionless 1-d with the nonlinear field.
    finals = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        params = SimulationParams(
            dimension=1, n_x=16, n_v=64, v_max=4.5, epsilon=0.2, dt=dt,
            t_end=0.2, field_mode="monge_ampere",
            ic=WellPreparedIC(delta=0.2, theta=0.5), a_max_estimate=1.5,
        )
        finals.append(run(params).final.values)
    e_coarse = float(np.abs(finals[0] - finals[1]).max())
    e_fine = float(np.abs(finals[1] - finals[2]).max())
    strang_order = float(np.log2(e_coarse / e_fine))
    # Free streaming against the exact shifted solution, refining in x.
    t_end, steps = 0.25, 10
    v_grid = VelocityGrid(1, 48, 6.5)
    nodes = v_grid.axis_nodes()
    base = maxwellian(v_grid, 1.0, [0.0], 1.0)
    errors = []
    for n_x in (16, 32, 64):
        x_grid = TorusGrid(1, n_x)
        x = x_grid.axis_coords()
        f = PhaseField(
            x_grid, v_grid,
            (1.0 + 0.1 * np.cos(2 * np.pi * x))[:, None] * base[None, :], 0.0,
        )
        for _ in range(steps):
            f, _ = advect_x(f, t_end / steps)
        exact = (
            1.0 + 0.1 * np.cos(2 * np.pi * (x[:, None] - nodes[None, :] * t_end))
        ) * base[None, :]
        errors.append(float(np.abs(f.values - exact).max()))
    stream_orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    ok = strang_order >= 1.9 and stream_orders.min() >= 3.0
    _verdict(
        12,
        ok,
        f"splitting order {strang_order:.2f} (need >= 1.9), streaming order "
        f"{stream_orders.min():.2f} (need >= 3)",
    )


def test_criterion_13_deterministic_reruns(flagship_csvs):
    bytes_a = flagship_csvs[0].read_bytes()
    bytes_b = flagship_csvs[1].read_bytes()
    rows = bytes_a.decode().count("\n") - 1
    _verdict(
        13,
        bytes_a == bytes_b,
        f"flagship scenario rerun produced byte-identical diagnostics "
        f"({rows} rows, {len(bytes_a)} bytes)",
    )


# |value - baseline| <= BASELINE_RTOL * |baseline| + BASELINE_ATOL[column]:
# the tolerances perfbench/workloads.py justifies for its reference rows,
# restated here.  t is a step count times dt and gets no floor.
BASELINE_RTOL = 1e-9
BASELINE_ATOL = {
    "t": 0.0,
    "mass": 1e-14,
    "e_total": 1e-15,
    "H_eps": 1e-15,
    "h_eps": 1e-17,
    "rho_Hm1": 1e-16,
    "J_err_divfree": 1e-9,
}


def test_behaviour_baseline(d1_sweep, d2_spot, energy_d1_runs, flagship_csvs):
    """The fixtures' trajectories match tests/behaviour_baseline.json.

    The baseline samples every 50th row plus the last one of each run and
    was written by tests/make_behaviour_baseline.py; no run is made here.
    """
    baseline = json.loads((Path(__file__).parent / "behaviour_baseline.json").read_text())
    runs = {f"sweep_quasineutral_d1/eps={eps:g}": t for eps, t in d1_sweep}
    runs.update({f"quasineutral_d2/eps={eps:g}": t for eps, t in d2_spot})
    runs.update({f"energy_d1/{mode}": t for mode, t in energy_d1_runs.items()})
    tables = {key: [r.to_csv_row() for r in t.records] for key, t in runs.items()}
    tables["quasineutral_d1"] = flagship_csvs[0].read_text().splitlines()[1:]
    assert sorted(tables) == sorted(baseline["trajectories"])
    columns = baseline["columns"]
    index = [CSV_COLUMNS.index(c) for c in columns]
    misses = []
    for key, sampled in baseline["trajectories"].items():
        rows = tables[key]
        assert len(rows) == sampled["steps"][-1] + 1, f"{key}: {len(rows)} rows"
        for step, want_row in zip(sampled["steps"], sampled["rows"]):
            cells = rows[step].split(",")
            for col, i, want in zip(columns, index, want_row):
                got = float(cells[i]) if cells[i] else None
                if want is None or got is None:
                    ok = got is want
                else:
                    ok = abs(got - want) <= BASELINE_RTOL * abs(want) + BASELINE_ATOL[col]
                if not ok:
                    misses.append(f"{key} step {step} {col}: {got!r} vs {want!r}")
    assert not misses, f"{len(misses)} baseline misses, first: {misses[:5]}"
