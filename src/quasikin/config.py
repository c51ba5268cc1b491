"""Scenario files: INI-format run descriptions for the command line tools.

A scenario pins everything a run needs — grid sizes, epsilon, time step,
collision operator, initial state — so results are reproducible from the
file alone.  Perturbation size and temperature accept either a literal
value or a power-law schedule in epsilon (``delta_coeff``/``delta_exponent``),
which is what epsilon sweeps use to keep initial states well prepared as
epsilon shrinks.  ``v_max = auto`` sizes the velocity box from the bulk
flow and temperature so the Gaussian tails stay below quadrature accuracy.

KEYS below is the one statement of the format: each key, the field it sets
and its parser.  A key the file leaves out is not passed, so the defaults
live only on SimulationParams, CollisionConfig and WellPreparedIC; SWEEPS
names each sweep kind and its convergence.csv columns.  A RunConfig holds
only what a scenario adds to SimulationParams: the schedules, the automatic
velocity box and the sweep.  Every check of a run lives in SimulationParams,
which checks itself when built; load_config builds it at the scenario's
epsilon and at every sweep epsilon, so an infeasible sweep member fails
when the file is loaded, before any run.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .collision import CollisionConfig
from .vlasov import SimulationParams, WellPreparedIC

# Margin added on top of the bulk speed + 7 thermal widths when the
# velocity box is sized automatically.  Seven widths keep the *energy*
# integrand's tail (not just the mass) below ~1e-8 of the total.
AUTO_V_MARGIN = 0.2
AUTO_V_SIGMAS = 7.0


def _bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]


def _epsilon_list(raw: str) -> tuple:
    values = tuple(float(tok) for tok in raw.replace(",", " ").split())
    if not values:
        raise ValueError(raw)
    return values


# Section -> key -> (field it sets, parser, required).  Keys are read, and
# listed in messages, in this order.
KEYS = {
    "run": {
        "name": ("name", str, False),
        "dimension": ("dimension", int, True),
        "n_x": ("n_x", int, True),
        "n_v": ("n_v", int, True),
        "epsilon": ("epsilon", float, True),
        "dt": ("dt", float, True),
        "t_end": ("t_end", float, True),
        "field_mode": ("field_mode", str, False),
        "v_max": ("v_max", str, False),
        "a_max": ("a_max_estimate", float, False),
        "snapshot_stride": ("snapshot_stride", int, False),
        "euler_reference": ("euler_reference", _bool, False),
    },
    "collision": {"kind": ("kind", str, False), "tau": ("tau", float, False)},
    "initial": {
        "u0": ("u0_kind", str, False),
        "u0_amplitude": ("u0_amplitude", float, False),
        "profile": ("profile", str, False),
        "delta": ("delta", float, False),
        "delta_coeff": ("delta_coeff", float, False),
        "delta_exponent": ("delta_exponent", float, False),
        "theta": ("theta", float, False),
        "theta_coeff": ("theta_coeff", float, False),
        "theta_exponent": ("theta_exponent", float, False),
        "seed": ("seed", int, False),
        "max_mode": ("max_mode", int, False),
    },
    "sweep": {"kind": ("kind", str, False), "epsilons": ("epsilons", _epsilon_list, True)},
}

# Sweep kind -> the metric columns of its convergence.csv; the first kind is
# the default.
SWEEPS = {
    "quasineutral": (
        "sup_modulated", "sup_mismatch", "sup_quasineutrality", "final_current_error_divfree",
    ),
    "mode_drift": ("drift_poisson", "drift_monge_ampere", "excess_drift"),
}


class ConfigError(ValueError):
    """A scenario file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class Schedule:
    """value(epsilon) = coeff * epsilon ** exponent; exponent 0 is a literal."""

    coeff: float
    exponent: float = 0.0

    def __call__(self, epsilon: float) -> float:
        return self.coeff * epsilon**self.exponent


@dataclass(frozen=True)
class RunConfig:
    """Parsed scenario: SimulationParams at any epsilon through make_params."""

    name: str
    run_fields: dict  # SimulationParams keywords that do not depend on epsilon
    ic: WellPreparedIC  # delta and theta come from the schedules
    epsilon: float
    delta: Schedule
    theta: Schedule
    v_max: float | None  # None -> sized automatically
    sweep_epsilons: tuple
    sweep_kind: str
    source_sha256: str

    def make_params(self, epsilon: float | None = None, field_mode: str | None = None) -> SimulationParams:
        """The checked params at ``epsilon`` (default: the scenario's)."""
        eps = self.epsilon if epsilon is None else epsilon
        ic = replace(self.ic, delta=self.delta(eps), theta=self.theta(eps))
        v_max = self.v_max
        if v_max is None:  # a theta <= 0 is rejected by the params check
            v_max = abs(ic.u0_amplitude) + AUTO_V_SIGMAS * math.sqrt(max(ic.theta, 0.0)) + AUTO_V_MARGIN
        run_fields = self.run_fields
        if field_mode is not None:
            run_fields = {**run_fields, "field_mode": field_mode}
        try:
            return SimulationParams(v_max=v_max, epsilon=eps, ic=ic, **run_fields)
        except ValueError as exc:
            raise ConfigError(f"scenario {self.name!r}: {exc}") from exc


def _read(parser: configparser.ConfigParser, section: str) -> dict:
    """Field -> value for the keys ``section`` gives, in KEYS order."""
    fields = {}
    if not parser.has_section(section):
        return fields
    for key, (field, parse, required) in KEYS[section].items():
        if not parser.has_option(section, key):
            if required:
                raise ConfigError(f"missing required key [{section}] {key}")
            continue
        raw = parser.get(section, key)
        try:
            fields[field] = parse(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    return fields


def _schedule(initial: dict, key: str) -> Schedule:
    """Literal `key = x` or power law `key_coeff = c` + `key_exponent = p`.

    Takes the keys out of ``initial``.  A lone coeff or exponent takes 1 for
    the other; with no key the literal is WellPreparedIC's default.
    """
    literal = initial.pop(key, None)
    coeff = initial.pop(f"{key}_coeff", None)
    expo = initial.pop(f"{key}_exponent", None)
    if coeff is None and expo is None:
        return Schedule(getattr(WellPreparedIC, key) if literal is None else literal)
    if literal is not None:
        raise ConfigError(
            f"[initial] {key}: give either a literal value or a "
            f"{key}_coeff/{key}_exponent schedule, not both"
        )
    return Schedule(1.0 if coeff is None else coeff, 1.0 if expo is None else expo)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a scenario file; raises ConfigError on any defect."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"scenario file not found: {path}")
    data = path.read_bytes()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(data.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not parser.has_section("run"):
        raise ConfigError(f"{path}: missing [run] section")

    unknown = set(parser.sections()) - set(KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")

    try:
        collision = CollisionConfig(**_read(parser, "collision"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    initial = _read(parser, "initial")
    delta = _schedule(initial, "delta")
    theta = _schedule(initial, "theta")

    sweep = _read(parser, "sweep")
    sweep_kind = sweep.get("kind", next(iter(SWEEPS)))
    if sweep_kind not in SWEEPS:
        raise ConfigError(f"{path}: unknown sweep kind {sweep_kind!r}")
    sweep_epsilons = sweep.get("epsilons", ())
    if any(e <= 0 for e in sweep_epsilons):
        raise ConfigError(f"{path}: sweep epsilons must be positive")

    run = _read(parser, "run")
    v_max = run.pop("v_max", "auto")
    try:
        v_max = None if v_max.strip().lower() == "auto" else float(v_max)
    except ValueError as exc:
        raise ConfigError(f"{path}: bad v_max {v_max!r}") from exc
    name = run.pop("name", path.stem)
    epsilon = run.pop("epsilon")

    config = RunConfig(
        name=name,
        run_fields={**run, "collision": collision},
        ic=WellPreparedIC(**initial),
        epsilon=epsilon,
        delta=delta,
        theta=theta,
        v_max=v_max,
        sweep_epsilons=sweep_epsilons,
        sweep_kind=sweep_kind,
        source_sha256=hashlib.sha256(data).hexdigest(),
    )
    # Checked after the required keys, so a misspelt required key is
    # reported as missing.
    for section in parser.sections():
        allowed = KEYS[section]
        unknown = sorted(set(parser.options(section)) - set(allowed))
        if unknown:
            raise ConfigError(
                f"{path}: unknown keys in [{section}]: {', '.join(unknown)} "
                f"(allowed: {', '.join(allowed)})"
            )
    # Every run the file describes is checked here, before any of them starts.
    config.make_params()
    for eps in config.sweep_epsilons:
        config.make_params(eps)
    return config
