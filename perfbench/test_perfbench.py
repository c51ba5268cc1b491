"""Self-tests of the benchmark harness (about a minute).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import REQUIRED_SITES  # noqa: E402
from workloads import SMOKE_STEPS, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def flagship_ctx():
    ctx = run.make_context("flagship_d1", 0, SMOKE_STEPS, "selftest", run.load_references())
    yield ctx
    shutil.rmtree(ctx.work, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_every_check(name):
    ctx, _, metrics = run.measure(name, 0, 0.0, trace=True, steps=SMOKE_STEPS)
    try:
        assert [j.kind for j in ctx.jobs] == ["untraced", "traced", "single_thread"]
        assert all(j.ok for j in ctx.jobs), [j.cause for j in ctx.jobs]
        trace = ctx.jobs[1].result["trace"]
        # Self times partition the root span: nothing is counted twice.
        assert sum(trace["self_s"].values()) == pytest.approx(trace["total_s"]["cli.main"], rel=1e-9)
        assert REQUIRED_SITES <= set(trace["sites"])
        assert metrics["grids.moments.calls_per_step"][0] == (3 if name == "drift_d2" else 4)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def test_wrong_reference_value_fails_the_run_and_names_the_column(flagship_ctx):
    key = flagship_ctx.workload.reference_key(0, SMOKE_STEPS)
    flagship_ctx.references[key] = dict(flagship_ctx.references[key])
    flagship_ctx.references[key]["e_total"] *= 1.0 + 1e-7
    job = flagship_ctx.run_job("untraced", 1)
    assert not job.ok
    assert job.cause.startswith("e_total = ")
    summary = run.report(flagship_ctx, {}, run.end_to_end(flagship_ctx), trace=False)
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (False, 1, 1)


def test_solver_exception_fails_the_run_and_names_the_cause(flagship_ctx):
    good = flagship_ctx.run_job("untraced", 1)
    bad = flagship_ctx.run_job("untraced", 1, fault="solve_field")
    assert good.ok, good.cause
    assert not bad.ok
    assert "RuntimeError: injected fault in solve_field" in bad.cause
    summary = run.report(flagship_ctx, {}, run.end_to_end(flagship_ctx), trace=False)
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (False, 2, 1)


def test_tracer_flags_a_call_count_that_the_steps_do_not_predict(flagship_ctx):
    job = flagship_ctx.run_job("traced", 1, traced=True)
    assert job.ok, job.cause
    trace = dict(job.result["trace"])
    trace["calls"] = dict(trace["calls"], **{"grids.moments": trace["calls"]["grids.moments"] - 1})
    assert "grids.moments" in run.check_trace(trace, flagship_ctx.shape)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_one_command_prints_every_metric_with_its_unit(trace, group):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "flagship_d1", "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(ln.split()[:1] == [name] and unit in ln.split() for ln in lines[:-1]), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "flagship_d1", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "missing: src/quasikin/cli.py" in proc.stderr


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    pct, value = run.tail([float(i) for i in range(1000)])
    assert (pct, value) == (99.0, 989.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
