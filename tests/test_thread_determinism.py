"""Diagnostics do not depend on the size of the numerical thread pools.

The velocity kick applies its spline operator as a BLAS matrix product, the
velocity moments are matrix products against a feature matrix, and the BGK
match solves its batched Newton systems with LAPACK; a threaded BLAS may
split a product among threads.  A run with every pool at one thread and one
with every pool at two must still write byte-identical diagnostics, for a
2-d and a 1-d scenario with BGK.  The runs are separate processes because the
pools are sized when numpy is first loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCENARIO = """\
[run]
name = threads_d2
dimension = 2
n_x = 16
n_v = 32
epsilon = 0.1
dt = 5e-3
t_end = 2e-2
field_mode = monge_ampere
v_max = auto
a_max = 1.0
euler_reference = yes

[collision]
kind = bgk
tau = 0.05

[initial]
u0 = taylor_green
u0_amplitude = 0.25
delta = 0.01
theta = 0.1
profile = cosine_xy
"""

SCENARIO_D1 = """\
[run]
name = threads_d1
dimension = 1
n_x = 64
n_v = 128
epsilon = 0.1
dt = 1e-3
t_end = 1e-2
field_mode = monge_ampere
v_max = auto
a_max = 1.0
euler_reference = yes

[collision]
kind = bgk
tau = 0.05

[initial]
u0 = constant
u0_amplitude = 0.3
delta = 0.1
theta = 0.1
profile = cosine_x
"""

POOL_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _simulate(config: Path, out: Path, threads: int) -> bytes:
    env = {k: v for k, v in os.environ.items() if k not in POOL_VARIABLES}
    env.update(dict.fromkeys(POOL_VARIABLES, str(threads)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "quasikin.cli", "simulate",
         "--config", str(config), "--output", str(out)],
        env=env,
        check=True,
        timeout=120,
        capture_output=True,
    )
    return (out / "diagnostics.csv").read_bytes()


def _single_and_double(tmp_path, name: str, scenario: str) -> tuple[bytes, bytes]:
    config = tmp_path / f"{name}.cfg"
    config.write_text(scenario)
    return _simulate(config, tmp_path / "one", 1), _simulate(config, tmp_path / "two", 2)


def test_one_and_two_threads_write_identical_diagnostics(tmp_path):
    single, double = _single_and_double(tmp_path, "threads_d2", SCENARIO)
    assert len(single.splitlines()) == 6  # header, initial state, 4 steps
    assert single == double


def test_one_dimensional_bgk_run_is_thread_independent(tmp_path):
    single, double = _single_and_double(tmp_path, "threads_d1", SCENARIO_D1)
    assert len(single.splitlines()) == 12  # header, initial state, 10 steps
    assert single == double
