"""quasikin benchmark: closed-loop `quasikin simulate` jobs on generated scenarios.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke            # every workload, 2 steps, traced

Run from anywhere inside a source checkout; the package is imported from
``src/``.  Each job is one fresh process (``child.py``) running one
``quasikin simulate`` call; the next job starts when the previous one has
ended, until ``--seconds`` have passed (at least one job).  Thread pools are
pinned to ``nproc`` through the environment before numpy loads.

``--trace 0`` reports the end-to-end metrics as medians over the jobs.
``--trace 1`` runs one untraced job, traced jobs, and one single-threaded
job, and reports per-layer metrics from the traced jobs.  Every job's output
is checked (see workloads.py); a job that raises, exits non-zero or fails a
check counts as failed.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import SMOKE_STEPS, WORKLOADS, ScenarioShape, Workload, check_output, load_references

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# A run must end within 180 s; no job may run past this long after the
# run's context is made.
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "QUASIKIN_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Computed traffic of one advection call: read f once, write f once (float64).
BYTES_PER_CELL_PER_CALL = 16

# Metric names and units come from the benchmark definition.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


class ProgramMissing(RuntimeError):
    """The checkout does not contain the program the benchmark drives."""


@dataclass
class Job:
    kind: str
    threads: int
    out_dir: Path
    cause: str | None = None
    result: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.cause is None


@dataclass
class Context:
    workload: Workload
    seed: int
    shape: ScenarioShape
    scenario: Path
    work: Path
    references: dict
    started: float
    deadline: float
    jobs: list = field(default_factory=list)

    def run_job(self, kind: str, threads: int, traced: bool = False, fault: str | None = None) -> Job:
        index = len(self.jobs)
        out_dir = self.work / f"job{index:03d}-{kind}"
        result_path = self.work / f"job{index:03d}-{kind}.json"
        job = Job(kind, threads, out_dir)
        self.jobs.append(job)
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--src", str(ROOT / "src"),
            "--config", str(self.scenario),
            "--output", str(out_dir),
            "--result", str(result_path),
        ]
        if traced:
            cmd.append("--trace")
        if fault:
            cmd += ["--fault", fault]
        timeout = max(5.0, self.deadline - time.perf_counter())
        try:
            proc = subprocess.run(
                cmd, env=child_env(threads), cwd=self.work,
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            job.cause = f"timed out after {timeout:.0f} s"
            return job
        if proc.returncode != 0:
            lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
            job.cause = lines[-1] if lines else f"exit code {proc.returncode}"
            return job
        try:
            job.result = json.loads(result_path.read_text())
        except (OSError, ValueError) as exc:
            job.cause = f"no job result: {exc}"
            return job
        if "run_s" not in job.result:
            job.cause = "vlasov.run was never entered"
            return job
        job.cause = check_output(self.workload, self.seed, self.shape, out_dir, self.references)
        if job.ok and traced:
            job.cause = check_trace(job.result["trace"], self.shape)
        return job


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(threads)
    env["PYTHONHASHSEED"] = "0"
    return env


def check_trace(trace: dict, shape: ScenarioShape) -> str | None:
    """Traced call counts must equal the counts the step count predicts."""
    if trace["unpatched"]:
        return f"untraced references remain: {trace['unpatched']}"
    for name, want in shape.predicted_calls().items():
        got = trace["calls"].get(name, 0)
        if got != want:
            return f"traced {got} calls to {name}, the step count predicts {want}"
    return None


# ---------------------------------------------------------------------------
# Environment and metrics.
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(threads: int, shape: ScenarioShape) -> dict:
    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
         if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    l3_mib = float(l3[:-1]) / 1024 if l3.endswith("K") else None
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: str(threads) for var in THREAD_VARS},
        "python": platform.python_version(),
        **versions,
        "cpu_model": cpu,
        "l3_mib": l3_mib,
        "phase_space_mib": shape.cells * 8 / 2**20,
    }


def job_metrics(job: Job, shape: ScenarioShape) -> dict:
    r = job.result
    return {
        "wall_s": r["wall_s"],
        "setup_s": r["setup_s"],
        "ms_per_step": 1e3 * r["run_s"] / shape.steps,
        "cell_updates_per_s": shape.cells * shape.steps / r["run_s"],
        "peak_rss_mib": r["maxrss_kib"] / 1024,
    }


def median_of(samples: list[dict], key: str):
    values = [s[key] for s in samples if s.get(key) is not None]
    return statistics.median(values) if values else None


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With ten samples or fewer no percentile qualifies; the maximum is
    reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    pct = 100.0 * (n - 10) / n
    return pct, ordered[n - 11]


def traced_metrics(job: Job, shape: ScenarioShape) -> dict:
    t = job.result["trace"]
    self_s, calls = t["self_s"], t["calls"]
    n = shape.steps
    out = {}
    for name in (
        "vlasov.advect_v", "vlasov.advect_x", "vlasov.run", "vlasov.observe",
        "grids.moments", "grids.stress_moments", "grids.write_snapshot",
        "collision.bgk_collide", "collision.match_discrete_maxwellian",
        "euler.advance_to", "euler.euler_step", "monge_ampere.solve_field",
        "diagnostics.build_record", "diagnostics.modulated_energy",
    ):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("vlasov.advect_v", "vlasov.advect_x"):
        out[f"{name}.calls"] = calls.get(name, 0)
        busy = self_s.get(name, 0.0)
        traffic = calls.get(name, 0) * BYTES_PER_CELL_PER_CALL * shape.cells
        out[f"{name}.computed_gb_per_s"] = traffic / busy / 1e9 if busy else 0.0
    out["grids.moments.calls_per_step"] = (calls.get("grids.moments", 0) - 2) / n
    out["euler.euler_step.calls"] = calls.get("euler.euler_step", 0)
    out["monge_ampere.solve_field.calls"] = calls.get("monge_ampere.solve_field", 0)
    solves = t["solves"]
    out["monge_ampere.newton_iters_per_solve"] = (
        sum(s[0] for s in solves) / len(solves) if solves else 0.0
    )
    out["monge_ampere.damping_steps"] = sum(s[1] for s in solves)
    out["config.load_config.s"] = self_s.get("config.load_config", 0.0)
    out["cli.write_s"] = self_s.get("cli.main", 0.0)
    out["cli.bytes_written"] = sum(p.stat().st_size for p in job.out_dir.rglob("*") if p.is_file())
    out["ms_per_step"] = 1e3 * job.result["run_s"] / n
    return out


def end_to_end(ctx: Context) -> dict:
    """{name: (median over ok jobs, what the median is taken over)}."""
    samples = [job_metrics(j, ctx.shape) for j in ctx.jobs if j.ok]
    basis = f"median of {len(samples)} jobs"
    return {name: (median_of(samples, name), basis) for name in E2E_UNITS}


def per_layer(ctx: Context) -> dict:
    """{name: (value, basis)} from the traced, untraced and single-threaded jobs."""
    traced = [j for j in ctx.jobs if j.ok and j.kind == "traced"]
    base = [j for j in ctx.jobs if j.ok and j.kind == "untraced"]
    single = [j for j in ctx.jobs if j.ok and j.kind == "single_thread"]
    samples = [traced_metrics(j, ctx.shape) for j in traced]
    jobs_basis = f"median of {len(samples)} traced jobs"
    out = {name: (median_of(samples, name), jobs_basis) for name in samples[0]} if samples else {}
    steps_ms = [1e3 * s for j in traced for s in j.result["trace"]["step_s"]]
    if steps_ms:
        pct, value = tail(steps_ms)
        steps_basis = f"over {len(steps_ms)} traced steps"
        out["vlasov.step_ms_p50"] = (statistics.median(steps_ms), steps_basis)
        out["vlasov.step_ms_tail"] = (value, f"p{pct:.4g} {steps_basis}")
        out["vlasov.step_ms_tail_pct"] = (pct, steps_basis)
    if samples and base:
        untraced = job_metrics(base[0], ctx.shape)["ms_per_step"]
        out["trace.overhead_frac"] = (out["ms_per_step"][0] / untraced - 1.0,
                                      f"{jobs_basis} against 1 untraced job")
    if single:
        out["single_thread.ms_per_step"] = (job_metrics(single[0], ctx.shape)["ms_per_step"],
                                            "1 job at 1 thread")
    return {name: out.get(name, (None, "no ok job")) for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


def timed_run(ctx: Context, seconds: float, threads: int) -> None:
    while True:
        ctx.run_job("untraced", threads)
        if time.perf_counter() - ctx.started >= seconds:
            return


def trace_run(ctx: Context, seconds: float, threads: int) -> None:
    base = ctx.run_job("untraced", threads)
    traced = [ctx.run_job("traced", threads, traced=True)]
    ctx.run_job("single_thread", 1)
    while time.perf_counter() - ctx.started < seconds:
        traced.append(ctx.run_job("traced", threads, traced=True))
    if base.ok:
        expected = (base.out_dir / "diagnostics.csv").read_bytes()
        for job in traced:
            if job.ok and (job.out_dir / "diagnostics.csv").read_bytes() != expected:
                job.cause = "traced diagnostics.csv differs from the untraced one"


def check_program() -> None:
    needed = [ROOT / "src" / "quasikin" / "cli.py", HERE / "references.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise ProgramMissing(f"not a quasikin checkout, missing: {', '.join(missing)}")


def warm_up(threads: int) -> None:
    """Import the package once so bytecode and file caches are warm."""
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import quasikin.cli",
         str(ROOT / "src")],
        env=child_env(threads), check=True, capture_output=True, timeout=60,
    )


def make_context(name: str, seed: int, steps: int | None, tag: str, references: dict) -> Context:
    """Write the workload's scenario into a fresh work directory."""
    workload = WORKLOADS[name]
    steps = workload.steps if steps is None else steps
    work = WORK / f"{name}-seed{seed}-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / f"{name}.cfg"
    scenario.write_text(workload.scenario_text(seed, steps))
    shape = ScenarioShape.from_text(scenario.read_text())
    now = time.perf_counter()
    return Context(workload, seed, shape, scenario, work, references, now, now + RUN_LIMIT_S)


def measure(name: str, seed: int, seconds: float, trace: bool,
            steps: int | None = None) -> tuple[Context, dict, dict]:
    """One benchmark run; returns the context, the environment and the metrics."""
    ctx = make_context(name, seed, steps, f"trace{int(trace)}", load_references())
    threads = len(os.sched_getaffinity(0))
    env = environment(threads, ctx.shape)
    warm_up(threads)
    ctx.started = time.perf_counter()
    if trace:
        trace_run(ctx, seconds, threads)
    else:
        timed_run(ctx, seconds, threads)
    metrics = per_layer(ctx) if trace else end_to_end(ctx)
    return ctx, env, metrics


def report(ctx: Context, env: dict, metrics: dict, trace: bool) -> dict:
    units = PER_LAYER_UNITS if trace else E2E_UNITS
    failed = sum(not j.ok for j in ctx.jobs)
    attempted = len(ctx.jobs)
    print(f"workload {ctx.workload.name}: {ctx.workload.why}")
    print(f"seed {ctx.seed}, {ctx.shape.steps} steps, {ctx.shape.cells} phase-space cells")
    print("env " + json.dumps(env, sort_keys=True))
    for i, job in enumerate(ctx.jobs):
        status = "ok" if job.ok else f"FAILED: {job.cause}"
        timing = ""
        if "run_s" in job.result:
            m = job_metrics(job, ctx.shape)
            timing = f"wall {m['wall_s']:.3f} s, setup {m['setup_s']:.3f} s, {m['ms_per_step']:.2f} ms/step  "
        print(f"job {i:3d} {job.kind:<13} threads={job.threads}  {timing}{status}")
    print(f"fail_rate {failed}/{attempted} = {failed / attempted:.3f}")
    for name, (value, basis) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<44} {shown:>14} {units[name]:<8} ({basis})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }


def smoke() -> int:
    """Every workload for a couple of steps, traced; exit 1 on any failure."""
    bad = 0
    for name in WORKLOADS:
        ctx, _, _ = measure(name, 0, 0.0, trace=True, steps=SMOKE_STEPS)
        for job in ctx.jobs:
            print(f"smoke {name} {job.kind}: {'ok' if job.ok else job.cause}")
            bad += not job.ok
        shutil.rmtree(ctx.work, ignore_errors=True)
    print(f"smoke: {bad} failed job(s)")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"run {SMOKE_STEPS} steps; without --workload, every workload traced")
    args = parser.parse_args(argv)
    try:
        check_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.smoke and args.workload is None:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    steps = SMOKE_STEPS if args.smoke else None
    ctx, env, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace), steps)
    summary = report(ctx, env, metrics, bool(args.trace))
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "summary": summary,
        "jobs": [{"kind": j.kind, "threads": j.threads, "cause": j.cause,
                  **{k: v for k, v in j.result.items() if k != "trace"}} for j in ctx.jobs],
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n"
    )
    shutil.rmtree(ctx.work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
