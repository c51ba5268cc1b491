"""Command line front end.

Verbs:
  simulate  one kinetic run from a scenario file -> diagnostics.csv + manifest
  sweep     epsilon sweep from a scenario file -> convergence.csv + slopes.json
  euler     reference incompressible solver run -> euler.csv
  check     invariant battery -> table (and optional JSON report)

Exit codes: 0 success, 1 check-suite failure, 2 configuration/usage error,
3 runtime failure, an output path the filesystem refuses included.  The
numerical thread pools default to one thread: no product on a shipped
scenario's run path is big enough for OpenBLAS to thread, so a larger pool
only costs start-up when numpy loads, and outputs do not depend on the
pool size.  A pool's own variable, set before the interpreter first loads
numpy, sizes that pool otherwise.  That start-up cost is OpenBLAS's idle
workers busy-waiting (about 2^28 cycles) before they sleep, so
OPENBLAS_THREAD_TIMEOUT defaults to 4, its minimum, and they sleep at
once.  Each of these variables keeps a value set in the environment.
Apart from those pools, the 2-d phase-space kernels run on every CPU the
process may use (grids.KERNEL_WORKERS), and their outputs are the same
bytes at any count.  ``check --json`` refuses a report path whose
directory is missing or not writable before the suite runs.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import argparse
import errno
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import SWEEPS, ConfigError, RunConfig, load_config
from .diagnostics import DiagnosticsRecord, format_cell, relative_energy_drift
from .euler import VELOCITY_KINDS, solve_euler
from .grids import TorusGrid, write_snapshot
from .vlasov import FIELD_MODES, SimulationParams, Trajectory, run

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
# What a run can fail with after its configuration passed: a solver or
# diagnostic error, or an output path the filesystem refuses.
RUNTIME_ERRORS = (OSError, ValueError, RuntimeError)


def _write_csv(path: Path, header: str, rows: list) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(row + "\n")


def _write_manifest(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_one(
    config: RunConfig, params: SimulationParams, out_dir: Path
) -> Trajectory:
    """Execute one run of ``params`` and write diagnostics.csv (+ snapshots)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    trajectory = run(params)
    elapsed = time.perf_counter() - started

    _write_csv(
        out_dir / "diagnostics.csv",
        DiagnosticsRecord.csv_header(),
        [record.to_csv_row() for record in trajectory.records],
    )
    if params.snapshot_stride > 0:
        snap_dir = out_dir / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        for step, snap in zip(trajectory.snapshot_steps, trajectory.snapshots):
            write_snapshot(snap, snap_dir / f"step_{step:06d}")
    _write_manifest(
        out_dir / "manifest.json",
        {
            "scenario": config.name,
            "config_sha256": config.source_sha256,
            "package_version": __version__,
            "numpy_version": np.__version__,
            "dimension": params.dimension,
            "n_x": params.n_x,
            "n_v": params.n_v,
            "v_max": params.v_max,
            "epsilon": params.epsilon,
            "dt": params.dt,
            "t_end": params.t_end,
            "field_mode": params.field_mode,
            "collision_kind": params.collision.kind,
            "steps": params.n_steps,
            "rows": len(trajectory.records),
            "euler_reference": params.euler_reference,
            "wall_time_s": elapsed,
        },
    )
    return trajectory


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    params = config.make_params(field_mode=args.field_mode)
    trajectory = _run_one(config, params, Path(args.output))
    last = trajectory.records[-1]
    print(
        f"{config.name}: {params.n_steps} steps to t={params.t_end:g}, "
        f"mass={last.mass:.12g}, e_total={last.e_total:.12g} "
        f"-> {args.output}/diagnostics.csv"
    )
    return EXIT_OK


def _sweep_member(config: RunConfig, eps: float, out_dir: Path) -> dict:
    """Run the sweep member at ``eps``; its metrics by convergence.csv column."""
    label = f"eps_{eps:g}"
    if config.sweep_kind == "mode_drift":
        drifts = []
        for mode in ("poisson", "monge_ampere"):
            params = config.make_params(eps, field_mode=mode)
            drifts.append(relative_energy_drift(_run_one(config, params, out_dir / f"{label}_{mode}").records))
        values = (*drifts, abs(drifts[1] - drifts[0]))
    else:
        records = _run_one(config, config.make_params(eps), out_dir / label).records
        values = (
            max(r.modulated for r in records),
            max(r.mismatch for r in records),
            max(r.quasineutrality for r in records),
            records[-1].current_error_divfree,
        )
    return dict(zip(SWEEPS[config.sweep_kind], values, strict=True))


def _fit_slope(epsilons: list, values: list) -> float | None:
    pairs = [(e, v) for e, v in zip(epsilons, values) if v is not None and v > 0.0]
    if len(pairs) < 2:
        return None
    logs_e = np.log([p[0] for p in pairs])
    logs_v = np.log([p[1] for p in pairs])
    return float(np.polyfit(logs_e, logs_v, 1)[0])


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    if not config.sweep_epsilons:
        raise ConfigError(f"scenario {config.name!r} has no [sweep] section")
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    columns = SWEEPS[config.sweep_kind]
    rows = []
    good = []  # (epsilon, metrics) of the members that finished
    for eps in config.sweep_epsilons:
        try:
            metrics = _sweep_member(config, eps, out_dir)
        except RUNTIME_ERRORS as exc:
            print(f"sweep eps_{eps:g} FAILED: {exc}", file=sys.stderr)
            rows.append(",".join([format_cell(eps)] + [""] * len(columns) + ["failed"]))
            continue
        good.append((eps, metrics))
        rows.append(",".join(map(format_cell, [eps, *metrics.values()])) + ",ok")
        print(f"sweep eps_{eps:g}: " + " ".join(f"{k}={format_cell(v)}" for k, v in metrics.items()))

    _write_csv(out_dir / "convergence.csv", ",".join(["epsilon", *columns, "status"]), rows)

    done = [e for e, _ in good]
    series = {k: [m[k] for _, m in good] for k in columns}
    slopes: dict = {"scenario": config.name, "sweep_kind": config.sweep_kind}
    if config.sweep_kind == "mode_drift":
        slopes["excess_drift_exponent"] = _fit_slope(done, series["excess_drift"])
    else:
        slopes["quasineutrality_slope"] = _fit_slope(done, series["sup_quasineutrality"])
        sup_h = series["sup_modulated"]
        slopes["modulated_strictly_decreasing"] = all(a > b for a, b in zip(sup_h, sup_h[1:]))
        currents = series["final_current_error_divfree"]
        if currents and None not in currents:
            slopes["current_error_strictly_decreasing"] = all(
                a > b for a, b in zip(currents, currents[1:])
            )
            slopes["current_error_smallest_over_largest"] = (
                currents[-1] / currents[0] if currents[0] else None
            )
    _write_manifest(out_dir / "slopes.json", slopes)

    n_failed = len(config.sweep_epsilons) - len(good)
    if n_failed:
        print(f"{n_failed} sweep point(s) failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_euler(args) -> int:
    from .euler import EulerState, cfl_bound, initial_velocity, kinetic_energy
    from .grids import spectral_divergence

    if not (0.0 < args.dt < np.inf and 0.0 <= args.t_end < np.inf
            and np.isfinite(args.amplitude)):
        raise ConfigError(
            f"need finite --dt > 0, --t-end >= 0 and --amplitude, "
            f"got {args.dt:g}, {args.t_end:g} and {args.amplitude:g}"
        )
    if args.sample_stride < 1:
        raise ConfigError(f"need --sample-stride >= 1, got {args.sample_stride}")
    kwargs = {"amplitude": args.amplitude, "seed": args.seed}
    if args.kind == "constant":
        kwargs = {"value": [args.amplitude] + [0.0] * (args.dimension - 1)}
    try:
        grid = TorusGrid(args.dimension, args.n)
        u0 = initial_velocity(grid, args.kind, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # A dt the first step would reject is a configuration error; a flow
    # that speeds up past the bound later is a runtime one.
    bound = cfl_bound(EulerState.from_velocity(grid, u0))
    if args.dt > bound:
        raise ConfigError(f"--dt {args.dt:g} exceeds the CFL bound {bound:g} of the initial flow")
    n_steps = round(args.t_end / args.dt)
    if abs(n_steps * args.dt - args.t_end) > 1e-8 * max(1.0, args.t_end):
        raise ConfigError("t_end must be an integer number of steps")
    sample_steps = list(range(0, n_steps + 1, args.sample_stride))
    if sample_steps[-1] != n_steps:
        sample_steps.append(n_steps)
    sample_times = [k * args.dt for k in sample_steps]

    started = time.perf_counter()
    states = solve_euler(grid, u0, args.dt, sample_times)
    elapsed = time.perf_counter() - started

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for state in states:
        div = float(np.abs(spectral_divergence(grid, state.u)).max())
        rows.append(",".join(map(format_cell, (state.time, kinetic_energy(state), div))))
    _write_csv(out_dir / "euler.csv", "t,kinetic_energy,max_divergence", rows)
    _write_manifest(
        out_dir / "manifest.json",
        {
            "solver": "euler",
            "package_version": __version__,
            "dimension": args.dimension,
            "n_x": args.n,
            "dt": args.dt,
            "t_end": args.t_end,
            "kind": args.kind,
            "amplitude": args.amplitude,
            "seed": args.seed,
            "rows": len(rows),
            "wall_time_s": elapsed,
        },
    )
    e_first = kinetic_energy(states[0])
    e_last = kinetic_energy(states[-1])
    print(
        f"euler {args.kind}: t={args.t_end:g}, energy {e_first:.12g} -> "
        f"{e_last:.12g} -> {args.output}/euler.csv"
    )
    return EXIT_OK


def _check_report_path(path: Path) -> None:
    """Refuse a report path whose directory is missing or not writable.

    Checked before the suite runs, so a bad path costs no suite run.
    """
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, "report path is a directory", str(path))
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "report directory does not exist", str(path))
    if not os.access(path.parent, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, "report directory is not writable", str(path))


def cmd_check(args) -> int:
    from .checks import run_suite

    if args.json:
        _check_report_path(Path(args.json))
    results = run_suite(args.suite)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.elapsed_s:7.3f}s  {r.detail}")
    n_failed = sum(not r.passed for r in results)
    print(f"{len(results) - n_failed}/{len(results)} checks passed ({args.suite} suite)")
    if args.json:
        payload = {
            "suite": args.suite,
            "package_version": __version__,
            "passed": n_failed == 0,
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                    "elapsed_s": r.elapsed_s,
                }
                for r in results
            ],
        }
        _write_manifest(Path(args.json), payload)
    return EXIT_OK if n_failed == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasikin",
        description="Kinetic simulator with a coupled elliptic field solve, "
        "plus an incompressible reference solver and an invariant battery.",
    )
    parser.add_argument("--version", action="version", version=f"quasikin {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario")
    p_sim.add_argument("--config", required=True, help="scenario .cfg file")
    p_sim.add_argument("--output", required=True, help="output directory")
    p_sim.add_argument(
        "--field-mode",
        choices=FIELD_MODES,
        default=None,
        help="override the scenario's field mode",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a scenario across its epsilon list")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--output", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_euler = sub.add_parser("euler", help="run the incompressible reference solver")
    p_euler.add_argument("--dimension", type=int, default=2)
    p_euler.add_argument("--n", type=int, default=64)
    p_euler.add_argument("--dt", type=float, default=1e-3)
    p_euler.add_argument("--t-end", type=float, default=1.0)
    p_euler.add_argument(
        "--kind",
        default="taylor_green",
        choices=VELOCITY_KINDS,
    )
    p_euler.add_argument("--amplitude", type=float, default=1.0)
    p_euler.add_argument("--seed", type=int, default=0)
    p_euler.add_argument("--sample-stride", type=int, default=10)
    p_euler.add_argument("--output", required=True)
    p_euler.set_defaults(func=cmd_euler)

    p_check = sub.add_parser("check", help="run the invariant battery")
    p_check.add_argument("--suite", choices=("fast", "full"), default="fast")
    p_check.add_argument("--json", default=None, help="write a JSON report here")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RUNTIME_ERRORS as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
