#!/usr/bin/env python3
"""Compare total-energy drift of the linear and nonlinear field solvers
on the same scenario.

Runs the scenario once per field mode, prints the kinetic/field energy
split at a few times and the worst relative drift for each mode.  With
--plot, writes energy.png (matplotlib optional).
"""

import argparse
from pathlib import Path

from quasikin.config import load_config
from quasikin.diagnostics import relative_energy_drift
from quasikin.vlasov import run

REPO = Path(__file__).resolve().parents[1]
MODES = ("poisson", "monge_ampere")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", default=str(REPO / "scenarios" / "energy_d1.cfg"))
    p.add_argument("--samples", type=int, default=6, help="rows to print per mode")
    p.add_argument("--plot", metavar="PNG", default=None)
    return p.parse_args()


def main() -> int:
    args = parse_args()
    config = load_config(args.config)
    trajectories = {mode: run(config.make_params(field_mode=mode)) for mode in MODES}

    for mode, trajectory in trajectories.items():
        records = trajectory.records
        stride = max(1, (len(records) - 1) // max(1, args.samples - 1))
        params = trajectory.params
        print(f"\n{mode}  (epsilon={params.epsilon}, dt={params.dt})")
        print(f"{'t':>8}  {'kinetic':>22}  {'field':>22}  {'total':>22}")
        for r in records[::stride]:
            print(f"{r.t:8.4f}  {r.e_kinetic:22.15e}  {r.e_field:22.15e}  {r.e_total:22.15e}")
        print(f"max relative total-energy drift: {relative_energy_drift(records):.3e}")

    if args.plot:
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed; skipping plot")
            return 0
        fig, ax = plt.subplots(figsize=(5, 4))
        for mode, trajectory in trajectories.items():
            t = [r.t for r in trajectory.records]
            e0 = trajectory.records[0].e_total
            ax.semilogy(
                t,
                [abs(r.e_total - e0) / abs(e0) + 1e-18 for r in trajectory.records],
                label=mode,
            )
        ax.set_xlabel("t")
        ax.set_ylabel("|E(t) - E(0)| / E(0)")
        ax.legend()
        ax.grid(True, alpha=0.3)
        fig.tight_layout()
        fig.savefig(args.plot, dpi=150)
        print(f"wrote {args.plot}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
