"""Scenario files: INI-format run descriptions for the command line tools.

A scenario pins everything a run needs — grid sizes, epsilon, time step,
collision operator, initial state — so results are reproducible from the
file alone.  Perturbation size and temperature accept either a literal
value or a power-law schedule in epsilon (``delta_coeff``/``delta_exponent``),
which is what epsilon sweeps use to keep initial states well prepared as
epsilon shrinks.  ``v_max = auto`` sizes the velocity box from the bulk
flow and temperature so the Gaussian tails stay below quadrature accuracy.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from .collision import CollisionConfig
from .vlasov import SimulationParams, WellPreparedIC

# Margin added on top of the bulk speed + 7 thermal widths when the
# velocity box is sized automatically.  Seven widths keep the *energy*
# integrand's tail (not just the mass) below ~1e-8 of the total.
AUTO_V_MARGIN = 0.2
AUTO_V_SIGMAS = 7.0

U0_KINDS = ("zero", "constant", "taylor_green", "shear", "random_bandlimited")
SWEEP_KINDS = ("quasineutral", "mode_drift")

# Every key the parser reads, per section; anything else is rejected.
SECTION_KEYS = {
    "run": (
        "name", "dimension", "n_x", "n_v", "epsilon", "dt", "t_end",
        "field_mode", "v_max", "cfl", "a_max", "snapshot_stride",
        "euler_reference",
    ),
    "collision": ("kind", "tau", "gamma", "n_sigma"),
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
    """Parsed scenario: everything needed to build SimulationParams."""

    name: str
    dimension: int
    n_x: int
    n_v: int
    epsilon: float
    dt: float
    t_end: float
    field_mode: str = "monge_ampere"
    v_max: float | None = None  # None -> sized automatically
    cfl: float = 1.0
    a_max: float = 1.0
    snapshot_stride: int = 0
    collision: CollisionConfig = field(default_factory=CollisionConfig)
    u0_kind: str = "zero"
    u0_amplitude: float = 0.0
    profile: str = "cosine_x"
    delta: Schedule = Schedule(0.0)
    theta: Schedule = Schedule(1.0)
    ic_seed: int = 0
    ic_max_mode: int = 3
    euler_reference: bool = False
    sweep_epsilons: tuple = ()
    sweep_kind: str = "quasineutral"
    source_sha256: str = ""

    def resolved_v_max(self, epsilon: float) -> float:
        if self.v_max is not None:
            return self.v_max
        theta = self.theta(epsilon)
        if theta <= 0.0:
            raise ConfigError(f"theta schedule gives {theta:g} at epsilon={epsilon:g}")
        return self.u0_amplitude + AUTO_V_SIGMAS * math.sqrt(theta) + AUTO_V_MARGIN

    def initial_condition(self, epsilon: float) -> WellPreparedIC:
        return WellPreparedIC(
            u0_kind=self.u0_kind,
            u0_amplitude=self.u0_amplitude,
            delta=self.delta(epsilon),
            theta=self.theta(epsilon),
            profile=self.profile,
            seed=self.ic_seed,
            max_mode=self.ic_max_mode,
        )

    def make_params(self, epsilon: float | None = None, field_mode: str | None = None) -> SimulationParams:
        eps = self.epsilon if epsilon is None else epsilon
        try:
            return SimulationParams(
                dimension=self.dimension,
                n_x=self.n_x,
                n_v=self.n_v,
                v_max=self.resolved_v_max(eps),
                epsilon=eps,
                dt=self.dt,
                t_end=self.t_end,
                field_mode=self.field_mode if field_mode is None else field_mode,
                collision=self.collision,
                ic=self.initial_condition(eps),
                cfl=self.cfl,
                a_max_estimate=self.a_max,
                snapshot_stride=self.snapshot_stride,
                euler_reference=self.euler_reference,
            )
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
        kind = _get(parser, "collision", "kind", str, default="none")
        try:
            collision = CollisionConfig(
                kind=kind,
                tau=_get(parser, "collision", "tau", float, default=0.1),
                gamma=_get(parser, "collision", "gamma", float, default=1.0),
                n_sigma=_get(parser, "collision", "n_sigma", int, default=16),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    u0_kind = _get(parser, "initial", "u0", str, default="zero") if parser.has_section("initial") else "zero"
    if u0_kind not in U0_KINDS:
        raise ConfigError(f"{path}: unknown u0 kind {u0_kind!r} (choose from {U0_KINDS})")

    delta = Schedule(0.0)
    theta = Schedule(1.0)
    u0_amplitude = 0.0
    profile = "cosine_x"
    ic_seed, ic_max_mode = 0, 3
    if parser.has_section("initial"):
        delta = _schedule(parser, "initial", "delta", 0.0)
        theta = _schedule(parser, "initial", "theta", 1.0)
        u0_amplitude = _get(parser, "initial", "u0_amplitude", float, default=0.0)
        profile = _get(parser, "initial", "profile", str, default="cosine_x")
        ic_seed = _get(parser, "initial", "seed", int, default=0)
        ic_max_mode = _get(parser, "initial", "max_mode", int, default=3)

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
        dimension=_get(parser, "run", "dimension", int, required=True),
        n_x=_get(parser, "run", "n_x", int, required=True),
        n_v=_get(parser, "run", "n_v", int, required=True),
        epsilon=_get(parser, "run", "epsilon", float, required=True),
        dt=_get(parser, "run", "dt", float, required=True),
        t_end=_get(parser, "run", "t_end", float, required=True),
        field_mode=_get(parser, "run", "field_mode", str, default="monge_ampere"),
        v_max=v_max,
        cfl=_get(parser, "run", "cfl", float, default=1.0),
        a_max=_get(parser, "run", "a_max", float, default=1.0),
        snapshot_stride=_get(parser, "run", "snapshot_stride", int, default=0),
        collision=collision,
        u0_kind=u0_kind,
        u0_amplitude=u0_amplitude,
        profile=profile,
        delta=delta,
        theta=theta,
        ic_seed=ic_seed,
        ic_max_mode=ic_max_mode,
        euler_reference=_get(parser, "run", "euler_reference", _bool, default=False),
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
    # Fail fast on inconsistencies instead of at run time.
    config.make_params()
    for eps in config.sweep_epsilons:
        config.make_params(eps)
    return config
