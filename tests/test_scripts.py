"""Smoke tests for the experiment scripts under scripts/.

Each script runs in a fresh interpreter on a tiny 1-d scenario, as a user
would run it, and must exit 0 and print its summary line.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

TINY = """\
[run]
name = tiny_scripts
dimension = 1
n_x = 16
n_v = 32
epsilon = 0.2
dt = 1e-2
t_end = 0.03
v_max = auto
a_max = 0.5
euler_reference = yes

[collision]
kind = bgk
tau = 0.1

[initial]
u0 = constant
u0_amplitude = 0.1
delta_coeff = 1.0
delta_exponent = 2
theta = 0.4

[sweep]
kind = quasineutral
epsilons = 0.4 0.2
"""


def _run_script(name, args, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), "--config", str(cfg), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def test_energy_budget(tmp_path):
    result = _run_script("energy_budget.py", [], tmp_path)
    assert result.returncode == 0, result.stderr
    drift_lines = [
        line for line in result.stdout.splitlines()
        if line.startswith("max relative total-energy drift: ")
    ]
    assert len(drift_lines) == 2  # one per field mode
    for line in drift_lines:
        assert float(line.rsplit(" ", 1)[1]) < 1e-3


def test_quasineutral_sweep(tmp_path):
    out = tmp_path / "sweep"
    result = _run_script("quasineutral_sweep.py", ["--output", str(out)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "quasineutrality_slope: " in result.stdout
    assert (out / "convergence.csv").is_file()


def test_cache_traffic(tmp_path):
    result = _run_script("cache_traffic.py", [], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "simulate tiny.cfg (exit 0)" in result.stdout
    assert "sweep tiny.cfg (exit 0)" in result.stdout
    # The simulate run: 3 steps of two streams each, from one transfer.
    assert "| `vlasov._stream_transfer` | 1 | 5 | 1 | 8 |" in result.stdout
