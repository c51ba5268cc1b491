"""Scenario parsing and command-line behavior.

These run the CLI in-process through main(argv) so exit codes and outputs
can be asserted without subprocesses; only the import probe at the end
needs a fresh interpreter.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quasikin
import quasikin.cli
from quasikin.cli import main
from quasikin.collision import CollisionConfig
from quasikin.config import ConfigError, Schedule, load_config
from quasikin.grids import TorusGrid
from quasikin.diagnostics import DiagnosticsRecord
from quasikin.vlasov import SimulationParams

TINY = """\
[run]
name = tiny
dimension = 1
n_x = 16
n_v = 32
epsilon = 0.5
dt = 1e-2
t_end = 0.05
field_mode = monge_ampere
v_max = auto
a_max = 0.5
snapshot_stride = 2

[collision]
kind = bgk
tau = 0.1

[initial]
u0 = zero
delta = 0.2
theta = 0.4
"""

TINY_SWEEP = """\
[run]
name = tiny_sweep
dimension = 1
n_x = 16
n_v = 32
epsilon = 0.2
dt = 1e-2
t_end = 0.02
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

TINY_MODE_DRIFT = """\
[run]
name = tiny_drift
dimension = 2
n_x = 8
n_v = 24
epsilon = 0.2
dt = 1e-2
t_end = 0.02
v_max = 3.2
a_max = 0.5

[initial]
u0 = zero
delta_coeff = 1.0
delta_exponent = 2
theta = 0.18
profile = cosine_xy

[sweep]
kind = mode_drift
epsilons = 0.4 0.2
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


class TestConfig:
    def test_shipped_scenarios_load(self):
        root = Path(__file__).resolve().parents[1] / "scenarios"
        names = sorted(p.name for p in root.glob("*.cfg"))
        assert len(names) == 6
        for name in names:
            config = load_config(root / name)
            config.make_params()  # must validate cleanly

    def test_euler_reference_reaches_params(self, tiny_cfg, tmp_path):
        assert load_config(tiny_cfg).make_params().euler_reference is False
        path = tmp_path / "sweep.cfg"
        path.write_text(TINY_SWEEP)
        assert load_config(path).make_params(0.4).euler_reference is True

    def test_parsed_fields(self, tiny_cfg, tmp_path):
        config = load_config(tiny_cfg)
        assert config.name == "tiny"
        assert len(config.source_sha256) == 64
        params = config.make_params()
        assert params.collision.kind == "bgk"
        assert params.ic.delta == 0.2  # literal, epsilon-independent
        assert params.n_steps == 5
        assert params.v_max == pytest.approx(7.0 * np.sqrt(0.4) + 0.2)
        # Schedules and the automatic velocity box at a sweep epsilon.
        path = tmp_path / "sweep.cfg"
        path.write_text(TINY_SWEEP.replace("theta = 0.4", "theta_coeff = 1.0\ntheta_exponent = 1"))
        params = load_config(path).make_params(0.4)
        assert params.epsilon == 0.4
        assert params.ic.delta == pytest.approx(0.16)
        assert params.ic.theta == pytest.approx(0.4)
        assert params.v_max == pytest.approx(0.1 + 7.0 * np.sqrt(0.4) + 0.2)

    def test_omitted_keys_take_the_dataclass_defaults(self, tmp_path):
        required = "[run]\ndimension = 1\nn_x = 16\nn_v = 32\nepsilon = 0.5\ndt = 5e-3\nt_end = 0.05\n"
        path = tmp_path / "bare.cfg"
        path.write_text(required + "v_max = 6.5\n\n[sweep]\nepsilons = 0.5\n")
        config = load_config(path)
        assert config.name == "bare"
        assert config.sweep_kind == "quasineutral"
        assert config.make_params() == SimulationParams(
            dimension=1, n_x=16, n_v=32, v_max=6.5, epsilon=0.5, dt=5e-3, t_end=0.05
        )
        path.write_text(required + "\n[collision]\nkind = bgk\n")
        assert load_config(path).make_params().collision.tau == CollisionConfig().tau
        # A lone schedule coefficient or exponent takes 1 for the other.
        path.write_text(required + "\n[initial]\ndelta_exponent = 2\ntheta_coeff = 0.5\n")
        ic = load_config(path).make_params().ic
        assert (ic.delta, ic.theta) == (0.25, 0.25)

    def test_schedule_forms(self):
        assert Schedule(0.3)(0.1) == 0.3
        assert Schedule(2.0, 2.0)(0.1) == pytest.approx(0.02)

    @pytest.mark.parametrize(
        "mutation, match",
        [
            (("delta = 0.2", "delta = 0.2\ndelta_exponent = 1"), "not both"),
            (("[collision]", "[collisions]"), "unknown sections"),
            (("dt = 1e-2", "dt = 2.5e-2"), "exceeds"),
            (("n_x = 16", "nothing = 16"), "missing required key"),
            (("kind = bgk", "kind = elastic"), "collision kind"),
            (("tau = 0.1", "tau = 0.1\ntua = 9"), r"unknown keys in \[collision\]: tua"),
            (("u0 = zero", "u0_kind = zero"), r"unknown keys in \[initial\]: u0_kind"),
            (("theta = 0.4", "theta = 0.4\nprofile = cosine_q"), "unknown density profile"),
            (("theta = 0.4", "theta = 0.4\nprofile = cosine_xy"), "cosine_xy requires dimension 2"),
            (("u0 = zero", "u0 = taylor_green"), "taylor_green requires dimension 2"),
            (("u0 = zero", "u0 = vortex"), "choose from zero, constant"),
            (("v_max = auto", "v_max = 2.0"), "cannot contain the state"),
            (("delta = 0.2", "delta = 0.95"), r"delta must lie in \[0, 0.9\]"),
            (("theta = 0.4", "theta = 0.4\nprofile = random\nmax_mode = 0"), "max_mode must be >= 1"),
            (("theta = 0.4", "theta = 0.4\nprofile = random\nseed = -102"), "profile random needs seed >= -101"),
            (("u0 = zero", "u0 = random_bandlimited\nseed = -1"), "random_bandlimited needs seed >= 0"),
            (("epsilon = 0.5", "epsilon = inf"), "epsilon must be positive and finite"),
            (("theta = 0.4", "theta = inf"), "theta must be positive and finite"),
        ],
    )
    def test_rejections(self, tmp_path, mutation, match):
        old, new = mutation
        path = tmp_path / "bad.cfg"
        path.write_text(TINY.replace(old, new))
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    def test_mirrored_flow_gets_the_same_velocity_box(self, tmp_path):
        # v_max = auto sizes the box by the flow's speed, not its sign.
        shipped = Path(__file__).resolve().parents[1] / "scenarios" / "quasineutral_d1.cfg"
        text = shipped.read_text()
        assert "u0_amplitude = 0.3" in text and "t_end = 0.5" in text
        path = tmp_path / "mirrored.cfg"
        path.write_text(
            text.replace("u0_amplitude = 0.3", "u0_amplitude = -0.3").replace("t_end = 0.5", "t_end = 0.01")
        )
        params = load_config(path).make_params()
        assert params.ic.u0_amplitude == -0.3
        assert params.v_max == load_config(shipped).make_params().v_max
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "out")]) == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_benchmark_templates_load(self, tmp_path, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        for name, workload in workloads.WORKLOADS.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(workload.scenario_text(seed=0, steps=2))
            load_config(cfg)

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.cfg"
        path.write_text(example)
        params = load_config(path).make_params()
        assert params.ic.u0_kind == "constant"
        assert params.ic.theta == 0.1 and params.euler_reference is True


class TestSimulateVerb:
    def test_outputs(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tiny_cfg), "--output", str(out)]) == 0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == DiagnosticsRecord.csv_header()
        assert len(lines) == 1 + 6  # header + initial record + 5 steps
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == "tiny"
        assert manifest["rows"] == 6
        assert len(manifest["config_sha256"]) == 64
        snaps = sorted(p.name for p in (out / "snapshots").glob("*.bin"))
        assert snaps == ["step_000000.bin", "step_000002.bin",
                         "step_000004.bin", "step_000005.bin"]
        assert (out / "snapshots" / "step_000000.json").is_file()
        assert "tiny: 5 steps" in capsys.readouterr().out

    def test_manifest_names_only_the_imported_versions(self, tiny_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tiny_cfg), "--output", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        versions = {k: v for k, v in manifest.items() if k.endswith("_version")}
        assert versions == {"package_version": quasikin.__version__, "numpy_version": np.__version__}

    def test_rerun_is_byte_identical(self, tiny_cfg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(tiny_cfg), "--output", str(out_a)])
        main(["simulate", "--config", str(tiny_cfg), "--output", str(out_b)])
        assert (out_a / "diagnostics.csv").read_bytes() == (
            out_b / "diagnostics.csv"
        ).read_bytes()

    def test_field_mode_override(self, tiny_cfg, tmp_path):
        out = tmp_path / "none_mode"
        code = main(
            ["simulate", "--config", str(tiny_cfg), "--output", str(out),
             "--field-mode", "none"]
        )
        assert code == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            assert fields[13] == ""  # no field solve -> no newton_iters
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["field_mode"] == "none"

    def test_output_under_a_file_exits_3_and_names_the_path(self, tiny_cfg, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["simulate", "--config", str(tiny_cfg), "--output", str(blocker / "out")])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("runtime error: NotADirectoryError: ")
        assert str(blocker / "out") in err[0]

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "no.cfg"),
                     "--output", str(tmp_path / "o")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_key_exits_2_and_lists_allowed(self, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text(TINY.replace("tau = 0.1", "tua = 9"))
        code = main(["simulate", "--config", str(path),
                     "--output", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "tua" in err and "allowed: kind, tau" in err

    def test_infeasible_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "fast.cfg"
        path.write_text(TINY.replace("dt = 1e-2", "dt = 5e-2"))
        code = main(["simulate", "--config", str(path),
                     "--output", str(tmp_path / "o")])
        assert code == 2

    def test_bad_initial_state_exits_2(self, tmp_path, capsys):
        path = tmp_path / "profile.cfg"
        path.write_text(TINY.replace("theta = 0.4", "theta = 0.4\nprofile = cosine_q"))
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(path), "--output", str(out)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("theta = 0.4", "theta = 0.4\nprofile = random\nseed = -102"),
            ("u0 = zero", "u0 = random_bandlimited\nseed = -1"),
        ],
    )
    def test_unusable_seed_exits_2_and_names_the_key(self, tmp_path, capsys, old, new):
        path = tmp_path / "seed.cfg"
        path.write_text(TINY.replace(old, new))
        code = main(["simulate", "--config", str(path), "--output", str(tmp_path / "o")])
        assert code == 2
        assert "needs seed >= " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "replacements, message",
        [
            ([("t_end = 0.05", "t_end = inf")], "t_end must be finite"),
            ([("t_end = 0.05", "t_end = nan")], "t_end must be finite"),
            ([("u0 = zero", "u0 = constant\nu0_amplitude = nan"), ("v_max = auto", "v_max = 5.0")],
             "u0_amplitude must be finite"),
            ([("a_max = 0.5", "a_max = nan")], "a_max_estimate must be finite and >= 0"),
            ([("a_max = 0.5", "a_max = -1")], "a_max_estimate must be finite and >= 0"),
            ([("tau = 0.1", "tau = inf")], "tau must be positive and finite"),
            ([("tau = 0.1", "tau = 1e400")], "tau must be positive and finite"),
        ],
    )
    def test_non_finite_or_negative_value_exits_2_and_names_the_key(
        self, tmp_path, capsys, replacements, message
    ):
        text = TINY
        for old, new in replacements:
            text = text.replace(old, new)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert not out.exists()


class TestSweepVerb:
    def test_quasineutral_outputs(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(TINY_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--output", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == (
            "epsilon,sup_modulated,sup_mismatch,sup_quasineutrality,"
            "final_current_error_divfree,status"
        )
        assert len(lines) == 3 and all(l.endswith(",ok") for l in lines[1:])
        slopes = json.loads((out / "slopes.json").read_text())
        assert "quasineutrality_slope" in slopes
        assert (out / "eps_0.4" / "diagnostics.csv").is_file()
        assert (out / "eps_0.2" / "diagnostics.csv").is_file()

    def test_mode_drift_outputs(self, tmp_path):
        path = tmp_path / "drift.cfg"
        path.write_text(TINY_MODE_DRIFT)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--output", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "epsilon,drift_poisson,drift_monge_ampere,excess_drift,status"
        assert (out / "eps_0.4_poisson" / "diagnostics.csv").is_file()
        assert (out / "eps_0.4_monge_ampere" / "diagnostics.csv").is_file()
        slopes = json.loads((out / "slopes.json").read_text())
        assert slopes["sweep_kind"] == "mode_drift"

    def test_infeasible_later_member_exits_2_before_any_run(self, tmp_path, capsys):
        # theta = eps: the fixed box holds eps = 0.2 but not eps = 0.4.
        text = (
            TINY_SWEEP.replace("theta = 0.4", "theta_coeff = 1.0\ntheta_exponent = 1")
            .replace("v_max = auto", "v_max = 3.5")
            .replace("epsilons = 0.4 0.2", "epsilons = 0.2 0.4")
        )
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(path), "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "cannot contain the state" in err
        assert not out.exists()  # no member directory either

    def test_failed_member_is_marked_and_the_others_finish(self, tmp_path, monkeypatch, capsys):
        real_run = quasikin.cli.run

        def run_failing_at_0_4(params):
            if params.epsilon == 0.4:
                raise RuntimeError("solver diverged")
            return real_run(params)

        monkeypatch.setattr(quasikin.cli, "run", run_failing_at_0_4)
        path = tmp_path / "sweep.cfg"
        path.write_text(TINY_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--output", str(out)]) == 3
        lines = (out / "convergence.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1] == "0.40000000000000002,,,,,failed"  # %.17g, like every cell
        assert lines[2].startswith("0.20000000000000001,") and lines[2].endswith(",ok")
        err = capsys.readouterr().err
        assert "sweep eps_0.4 FAILED: solver diverged" in err
        assert "1 sweep point(s) failed" in err
        assert (out / "eps_0.2" / "diagnostics.csv").is_file()
        assert json.loads((out / "slopes.json").read_text())["quasineutrality_slope"] is None

    def test_member_directory_taken_by_a_file_is_marked_and_the_others_finish(
        self, tmp_path, capsys
    ):
        path = tmp_path / "sweep.cfg"
        path.write_text(TINY_SWEEP)
        out = tmp_path / "out"
        out.mkdir()
        (out / "eps_0.4").write_text("")
        assert main(["sweep", "--config", str(path), "--output", str(out)]) == 3
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[1] == "0.40000000000000002,,,,,failed"
        assert lines[2].startswith("0.20000000000000001,") and lines[2].endswith(",ok")
        err = capsys.readouterr().err
        assert f"sweep eps_0.4 FAILED: [Errno 17] File exists: '{out / 'eps_0.4'}'" in err
        assert (out / "eps_0.2" / "diagnostics.csv").is_file()
        assert (out / "slopes.json").is_file()

    def test_sweepless_scenario_exits_2(self, tiny_cfg, tmp_path, capsys):
        code = main(["sweep", "--config", str(tiny_cfg),
                     "--output", str(tmp_path / "o")])
        assert code == 2
        assert "no [sweep] section" in capsys.readouterr().err


class TestEulerVerb:
    def test_taylor_green_energy_flat(self, tmp_path):
        out = tmp_path / "eul"
        code = main(
            ["euler", "--dimension", "2", "--n", "32", "--dt", "2e-3",
             "--t-end", "0.05", "--sample-stride", "5", "--output", str(out)]
        )
        assert code == 0
        lines = (out / "euler.csv").read_text().splitlines()
        assert lines[0] == "t,kinetic_energy,max_divergence"
        energies = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(energies) == 6
        assert max(abs(e - energies[0]) for e in energies) <= 1e-12

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--n", "7"], "even"),
            (["--n", "0"], "even"),
            (["--dimension", "3"], "dimension"),
            (["--dt", "-1"], "--dt > 0"),
            (["--dt", "0"], "--dt > 0"),
            (["--dt", "nan"], "finite"),
            (["--t-end", "-0.5"], "--t-end >= 0"),
            (["--amplitude", "inf"], "finite"),
            (["--dimension", "1", "--kind", "random_bandlimited"], "requires dimension 2"),
            (["--dimension", "1", "--kind", "taylor_green"], "requires dimension 2"),
            (["--dt", "0.5"], "CFL bound"),
            (["--dimension", "1", "--kind", "constant", "--dt", "0.05"], "CFL bound"),
            (["--sample-stride", "0"], "--sample-stride >= 1"),
            (["--sample-stride", "-3"], "--sample-stride >= 1"),
        ],
    )
    def test_argument_errors_exit_2(self, tmp_path, capsys, extra, message):
        argv = ["euler", "--n", "16", "--t-end", "0.01", "--output", str(tmp_path / "e")]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert not (tmp_path / "e").exists()

    def test_dt_at_the_cfl_bound_runs(self, tmp_path):
        # constant flow of speed 1 on n = 16: the bound is 0.5 / 16
        argv = ["euler", "--dimension", "1", "--kind", "constant", "--n", "16",
                "--t-end", "0.0625", "--output", str(tmp_path / "e")]
        assert main(argv + ["--dt", "0.03125"]) == 0

    def test_cfl_violation_during_the_run_exits_3(self, tmp_path, capsys):
        # This flow speeds up: a dt exactly at its initial bound passes the
        # argument check and fails at the second step.
        from quasikin.euler import EulerState, cfl_bound, initial_velocity

        grid = TorusGrid(2, 16)
        u0 = initial_velocity(grid, "random_bandlimited", amplitude=1.0, seed=0)
        dt = cfl_bound(EulerState.from_velocity(grid, u0))
        argv = ["euler", "--n", "16", "--kind", "random_bandlimited", "--seed", "0",
                "--dt", repr(dt), "--t-end", repr(10 * dt), "--output", str(tmp_path / "e")]
        assert main(argv) == 3
        assert "CflViolationError" in capsys.readouterr().err


class TestCheckVerb:
    def test_fast_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["check", "--suite", "fast", "--json", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "checks passed (fast suite)" in out
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])

    def test_full_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["check", "--suite", "full", "--json", str(report)])
        assert code == 0
        assert "checks passed (full suite)" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert len(payload["checks"]) == 16
        assert all(c["passed"] for c in payload["checks"])
        assert "equilibrium_fixed_point" in [c["name"] for c in payload["checks"]]

    def _refuse_report(self, monkeypatch, capsys, report: Path, error: str) -> None:
        from quasikin import checks

        def refuse(suite):
            raise AssertionError("run_suite called")

        monkeypatch.setattr(checks, "run_suite", refuse)
        assert main(["check", "--json", str(report)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"runtime error: {error}: ")
        assert str(report) in err[0]

    def test_unwritable_report_exits_3_and_names_the_path(self, tmp_path, monkeypatch, capsys):
        # Before the suite runs: run_suite is never called.
        report = tmp_path / "nodir" / "x.json"
        self._refuse_report(monkeypatch, capsys, report, "FileNotFoundError")

    def test_report_under_a_file_or_at_a_directory_exits_3(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "file").write_text("")
        report = tmp_path / "file" / "x.json"
        self._refuse_report(monkeypatch, capsys, report, "FileNotFoundError")
        (tmp_path / "dir").mkdir()
        self._refuse_report(monkeypatch, capsys, tmp_path / "dir", "IsADirectoryError")

    def test_equilibrium_check_sees_a_moved_density(self, monkeypatch):
        from quasikin import checks
        from quasikin.vlasov import run

        def run_and_move_one_cell(params):
            trajectory = run(params)
            trajectory.final.values[0] *= 1.001
            return trajectory

        assert checks.check_equilibrium_fixed_point()[0]
        monkeypatch.setattr(checks, "run", run_and_move_one_cell)
        passed, detail = checks.check_equilibrium_fixed_point()
        assert not passed
        assert detail.startswith("density drift ") and detail.endswith("from equilibrium (tol 1e-10)")


def _fresh_interpreter(probe: str, *args: str) -> str:
    """stdout of ``probe`` run by a fresh interpreter that imports src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return result.stdout.strip()


def _loaded_after_cli_import(module: str) -> bool:
    return _fresh_interpreter(f"import sys, quasikin.cli; print({module!r} in sys.modules)") == "True"


def test_import_does_not_load_scipy_linalg():
    # scipy.linalg costs ~0.2 s and ~20 MiB per process; nothing on the
    # run path needs it.
    assert not _loaded_after_cli_import("scipy.linalg")


def test_import_does_not_load_scipy():
    # Only the tests use scipy.
    assert not _loaded_after_cli_import("scipy")


def test_run_imports_no_numpy_ma(tmp_path):
    # numpy.ma costs ~15 ms to import; np.unique without optional outputs
    # loads it (numpy 2.4), so a run must not reach for it.
    paths = []
    for name, text in (("tiny", TINY), ("tiny_drift", TINY_MODE_DRIFT)):  # 1-d BGK, 2-d
        paths.append(tmp_path / f"{name}.cfg")
        paths[-1].write_text(text)
    probe = (
        "import json, sys, quasikin.cli\n"
        "from quasikin.config import load_config\n"
        "from quasikin.vlasov import run\n"
        "params = [load_config(p).make_params() for p in sys.argv[1:]]\n"
        "before = set(sys.modules)\n"
        "for p in params:\n"
        "    run(p)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    imported = json.loads(_fresh_interpreter(probe, *map(str, paths)))
    assert not [m for m in imported if m == "numpy.ma" or m.startswith("numpy.ma.")], imported


POOL_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _pools_after_import(prelude: str = "", **env_overrides) -> dict:
    """The pool variables a fresh interpreter holds once quasikin.cli is
    loaded, after running the statements in ``prelude``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in POOL_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    probe = prelude + (
        "import json, os, quasikin.cli; "
        f"print(json.dumps({{v: os.environ.get(v) for v in {POOL_VARIABLES!r}}}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return json.loads(result.stdout)


def test_thread_pools_default_to_one_thread():
    assert _pools_after_import() == dict.fromkeys(POOL_VARIABLES, "1")


def test_import_needs_no_cpu_affinity_query():
    # os.sched_getaffinity exists on Linux only.
    pools = _pools_after_import("import os; os.__dict__.pop('sched_getaffinity', None); ")
    assert pools == dict.fromkeys(POOL_VARIABLES, "1")


def test_explicit_thread_settings_win():
    pools = _pools_after_import(OPENBLAS_NUM_THREADS="2")
    assert pools == {**dict.fromkeys(POOL_VARIABLES, "1"), "OPENBLAS_NUM_THREADS": "2"}
    pools = _pools_after_import(OMP_NUM_THREADS="3", MKL_NUM_THREADS="2")
    assert pools == {**dict.fromkeys(POOL_VARIABLES, "1"), "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "2"}


def _thread_timeout_when_numpy_loads(**env_overrides):
    """OPENBLAS_THREAD_TIMEOUT as a fresh interpreter holds it when
    ``import quasikin.cli`` first loads numpy (absent if numpy never loads)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    probe = (
        "import json, os, sys\n"
        "seen = {}\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen['value'] = os.environ.get('OPENBLAS_THREAD_TIMEOUT')\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import quasikin.cli\n"
        "print(json.dumps(seen))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return json.loads(result.stdout)


def test_openblas_idle_wait_defaults_to_its_minimum_before_numpy_loads():
    assert _thread_timeout_when_numpy_loads() == {"value": "4"}
    assert _thread_timeout_when_numpy_loads(OPENBLAS_THREAD_TIMEOUT="20") == {"value": "20"}
