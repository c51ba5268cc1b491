"""How many Python-level calls a time step makes.

A 1-d step of the flagship's shape (BGK, Monge-Ampere field, Euler
reference, 64 x 128) costs about as much in calls as in arithmetic, so its
call count is held to a budget.  The benchmark's traced run counts the calls
of a fixed list of callables per step; those counts are stated once, in
``perfbench/workloads.py:ScenarioShape.predicted_calls``, and checked here
for a 1-d and a small 2-d run through ``quasikin simulate``.  Calls are
counted with ``sys.setprofile``: every Python and builtin call, and, for the
traced callables, the calls whose frame runs their code object.
"""

import importlib.util
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from quasikin.cli import main
from quasikin.config import load_config
from quasikin.vlasov import run

STEP_CALL_BUDGET = 450

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _perfbench_module("workloads")
tracer = _perfbench_module("tracer")

FLAGSHIP_STEPS = 12

SMALL_D2 = """\
[run]
name = small_d2
dimension = 2
n_x = 8
n_v = 24
epsilon = 0.3
dt = 5e-3
t_end = 1.5e-2
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
delta = 0.05
theta = 0.2
profile = cosine_xy
"""


def _flagship_text(steps: int) -> str:
    return workloads.WORKLOADS["flagship_d1"].scenario_text(seed=0, steps=steps)


def _traced_calls(scenario: Path, out_dir: Path) -> Counter:
    """Calls of each traced callable in one ``quasikin simulate`` run."""
    codes = {}
    for module, path, name in tracer.TRACED:
        obj = sys.modules.get(module) or importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part)
        codes[obj.__code__] = name
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        code = main(["simulate", "--config", str(scenario), "--output", str(out_dir)])
    finally:
        sys.setprofile(None)
    assert code == 0
    return calls


@pytest.mark.parametrize("text", [_flagship_text(FLAGSHIP_STEPS), SMALL_D2], ids=["d1", "d2"])
def test_traced_calls_match_the_benchmark_prediction(tmp_path, text):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(text)
    main(["simulate", "--config", str(scenario), "--output", str(tmp_path / "warm")])
    predicted = workloads.ScenarioShape.from_text(text).predicted_calls()
    calls = _traced_calls(scenario, tmp_path / "out")
    assert dict(calls) == {name: n for name, n in predicted.items() if n}


def _label(frame, event, arg) -> str:
    if event == "c_call":
        return "builtin " + getattr(arg, "__qualname__", getattr(arg, "__name__", repr(arg)))
    code = frame.f_code
    return f"{Path(code.co_filename).name}:{code.co_name}"


def _calls(params) -> Counter:
    calls = Counter()

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            calls[_label(frame, event, arg)] += 1

    sys.setprofile(profile)
    try:
        run(params)
    finally:
        sys.setprofile(None)
    return calls


def test_flagship_step_stays_within_the_call_budget(tmp_path):
    scenario = tmp_path / "flagship.cfg"
    scenario.write_text(_flagship_text(FLAGSHIP_STEPS))
    params = replace(load_config(scenario).make_params(), snapshot_stride=0)
    short, long = (replace(params, t_end=n * params.dt) for n in (4, 4 + FLAGSHIP_STEPS))
    run(long)  # build every cached operator first
    per_step = _calls(long)
    per_step.subtract(_calls(short))
    total = sum(per_step.values()) / FLAGSHIP_STEPS
    if total > STEP_CALL_BUDGET:
        rows = [
            f"{n / FLAGSHIP_STEPS:8.1f}  {label}" for label, n in per_step.most_common() if n
        ]
        pytest.fail(
            f"{total:.1f} calls per step, budget {STEP_CALL_BUDGET}:\n" + "\n".join(rows)
        )
