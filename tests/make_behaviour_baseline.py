#!/usr/bin/env python3
"""Write tests/behaviour_baseline.json: sampled diagnostics of the shipped runs.

Runs, through the ``quasikin`` command line, every trajectory that the
acceptance fixtures in tests/test_acceptance.py produce: the
sweep_quasineutral_d1 and quasineutral_d2 sweeps at each epsilon, energy_d1
under both field modes, and the quasineutral_d1 flagship.  Keeps every
STRIDE-th row plus the last row of each diagnostics.csv, restricted to the
columns the baseline test compares.  A later change to the solvers is held
to these numbers by ``test_behaviour_baseline``; regenerate only when a
change of behaviour is intended, and say so.

    PYTHONPATH=src python3 tests/make_behaviour_baseline.py [--output PATH]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from quasikin.cli import main as cli_main

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
OUTPUT = Path(__file__).resolve().parent / "behaviour_baseline.json"
STRIDE = 50
COLUMNS = ("t", "mass", "e_total", "H_eps", "h_eps", "rho_Hm1", "J_err_divfree")

# Sweep scenarios with the epsilons they run, as named in their output dirs.
SWEEPS = {
    "sweep_quasineutral_d1": ("0.2", "0.1", "0.05", "0.025"),
    "quasineutral_d2": ("0.2", "0.1"),
}
# Baseline key -> (scenario, extra `simulate` arguments).
SIMULATIONS = {
    "energy_d1/poisson": ("energy_d1", ["--field-mode", "poisson"]),
    "energy_d1/monge_ampere": ("energy_d1", ["--field-mode", "monge_ampere"]),
    "quasineutral_d1": ("quasineutral_d1", []),
}


def sample(csv_path: Path) -> dict:
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    steps = sorted(set(range(0, len(rows), STRIDE)) | {len(rows) - 1})
    picked = [header.index(c) for c in COLUMNS]
    return {
        "steps": steps,
        "rows": [
            [float(rows[k][i]) if rows[k][i] else None for i in picked] for k in steps
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(OUTPUT))
    args = parser.parse_args()
    trajectories = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name, epsilons in SWEEPS.items():
            cfg = str(SCENARIOS / f"{name}.cfg")
            if cli_main(["sweep", "--config", cfg, "--output", str(out / name)]) != 0:
                return 1
            for eps in epsilons:
                csv_path = out / name / f"eps_{eps}" / "diagnostics.csv"
                trajectories[f"{name}/eps={eps}"] = sample(csv_path)
        for key, (name, extra) in SIMULATIONS.items():
            cfg = str(SCENARIOS / f"{name}.cfg")
            argv = ["simulate", "--config", cfg, "--output", str(out / key)]
            if cli_main(argv + extra) != 0:
                return 1
            trajectories[key] = sample(out / key / "diagnostics.csv")
    payload = {"stride": STRIDE, "columns": list(COLUMNS), "trajectories": trajectories}
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {args.output}: {len(trajectories)} trajectories", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
