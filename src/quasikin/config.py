"""Scenario files: INI-format run descriptions for the command line tools.

A scenario pins everything a run needs — grid sizes, epsilon, time step,
collision operator, initial state — so results are reproducible from the
file alone.  Perturbation size and temperature accept either a literal
value or a power-law schedule in epsilon (``delta_coeff``/``delta_exponent``),
which is what epsilon sweeps use to keep initial states well prepared as
epsilon shrinks.  ``v_max = auto`` sizes the velocity box from the bulk
flow and temperature so the Gaussian tails stay below quadrature accuracy.

A RunConfig holds only what a scenario adds to SimulationParams: the
schedules, the automatic velocity box and the sweep.  Every check of a run
lives in SimulationParams, which checks itself when built; load_config
builds it at the scenario's epsilon and at every sweep epsilon, so an
infeasible sweep member fails when the file is loaded, before any run.
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

SWEEP_KINDS = ("quasineutral", "mode_drift")

# Every key the parser reads, per section; anything else is rejected.
SECTION_KEYS = {
    "run": (
        "name", "dimension", "n_x", "n_v", "epsilon", "dt", "t_end",
        "field_mode", "v_max", "a_max", "snapshot_stride", "euler_reference",
    ),
    "collision": ("kind", "tau"),
    "initial": (
        "u0", "u0_amplitude", "profile", "delta", "delta_coeff",
        "delta_exponent", "theta", "theta_coeff", "theta_exponent", "seed",
        "max_mode",
    ),
    "sweep": ("kind", "epsilons"),
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
    delta: Schedule = Schedule(0.0)
    theta: Schedule = Schedule(1.0)
    v_max: float | None = None  # None -> sized automatically
    sweep_epsilons: tuple = ()
    sweep_kind: str = "quasineutral"
    source_sha256: str = ""

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


def _get(parser: configparser.ConfigParser, section: str, key: str, cast, default=None, required: bool = False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "yes", "true", "on"):
        return True
    if lowered in ("0", "no", "false", "off"):
        return False
    raise ValueError(raw)


def _schedule(parser: configparser.ConfigParser, section: str, key: str, default: float) -> Schedule:
    """Literal `key = x` or power law `key_coeff = c` + `key_exponent = p`."""
    literal = parser.has_option(section, key)
    coeff = parser.has_option(section, f"{key}_coeff")
    expo = parser.has_option(section, f"{key}_exponent")
    if literal and (coeff or expo):
        raise ConfigError(
            f"[{section}] {key}: give either a literal value or a "
            f"{key}_coeff/{key}_exponent schedule, not both"
        )
    if literal:
        return Schedule(_get(parser, section, key, float))
    if coeff or expo:
        return Schedule(
            _get(parser, section, f"{key}_coeff", float, default=1.0),
            _get(parser, section, f"{key}_exponent", float, default=1.0),
        )
    return Schedule(default)


def _epsilon_list(raw: str) -> tuple:
    values = tuple(float(tok) for tok in raw.replace(",", " ").split())
    if not values:
        raise ValueError(raw)
    return values


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

    unknown = set(parser.sections()) - set(SECTION_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")

    collision = CollisionConfig()
    if parser.has_section("collision"):
        try:
            collision = CollisionConfig(
                kind=_get(parser, "collision", "kind", str, default="none"),
                tau=_get(parser, "collision", "tau", float, default=0.1),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    ic = WellPreparedIC()
    delta, theta = Schedule(0.0), Schedule(1.0)
    if parser.has_section("initial"):
        ic = WellPreparedIC(
            u0_kind=_get(parser, "initial", "u0", str, default="zero"),
            u0_amplitude=_get(parser, "initial", "u0_amplitude", float, default=0.0),
            profile=_get(parser, "initial", "profile", str, default="cosine_x"),
            seed=_get(parser, "initial", "seed", int, default=0),
            max_mode=_get(parser, "initial", "max_mode", int, default=3),
        )
        delta = _schedule(parser, "initial", "delta", 0.0)
        theta = _schedule(parser, "initial", "theta", 1.0)

    sweep_epsilons: tuple = ()
    sweep_kind = "quasineutral"
    if parser.has_section("sweep"):
        sweep_epsilons = _get(parser, "sweep", "epsilons", _epsilon_list, required=True)
        sweep_kind = _get(parser, "sweep", "kind", str, default="quasineutral")
        if sweep_kind not in SWEEP_KINDS:
            raise ConfigError(f"{path}: unknown sweep kind {sweep_kind!r}")
        if any(e <= 0 for e in sweep_epsilons):
            raise ConfigError(f"{path}: sweep epsilons must be positive")

    v_max_raw = _get(parser, "run", "v_max", str, default="auto")
    if v_max_raw.strip().lower() == "auto":
        v_max = None
    else:
        try:
            v_max = float(v_max_raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad v_max {v_max_raw!r}") from exc

    config = RunConfig(
        name=_get(parser, "run", "name", str, default=path.stem),
        run_fields=dict(
            dimension=_get(parser, "run", "dimension", int, required=True),
            n_x=_get(parser, "run", "n_x", int, required=True),
            n_v=_get(parser, "run", "n_v", int, required=True),
            dt=_get(parser, "run", "dt", float, required=True),
            t_end=_get(parser, "run", "t_end", float, required=True),
            field_mode=_get(parser, "run", "field_mode", str, default="monge_ampere"),
            collision=collision,
            a_max_estimate=_get(parser, "run", "a_max", float, default=1.0),
            snapshot_stride=_get(parser, "run", "snapshot_stride", int, default=0),
            euler_reference=_get(parser, "run", "euler_reference", _bool, default=False),
        ),
        ic=ic,
        epsilon=_get(parser, "run", "epsilon", float, required=True),
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
        allowed = SECTION_KEYS[section]
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
