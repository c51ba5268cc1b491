"""Functionals monitored along kinetic runs.

Everything here is a pure evaluator on simulation state: conserved totals
(mass, momentum, energy with the eps^2 field weighting), the velocity-
modulated energy against a reference flow, the density-weighted current
mismatch, the spectral H^{-1} departure from neutrality, a convex-duality
cross-check of the current functional, and L2 current errors against an
Euler state.

Records reject NaN and infinite values.  Two discrete inequalities are
enforced as record invariants because they hold exactly (up to roundoff)
whenever f >= 0 and the quadrature weights are positive: e_total =
e_kinetic + e_field, and the current mismatch never exceeds the modulated
energy (Cauchy-Schwarz applied node by node).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .euler import leray_project
from .grids import (
    GridMismatchError,
    MacroFields,
    PhaseField,
    TorusGrid,
    grid_integral,
    inverse_laplacian_zero_mean,
    l2_norm,
    moments,
)
from .monge_ampere import FieldSolveReport, Potential

__all__ = [
    "CSV_COLUMNS",
    "DegenerateDensityError",
    "DiagnosticsRecord",
    "format_cell",
    "relative_energy_drift",
    "field_energy",
    "modulated_energy",
    "h_functional",
    "quasineutrality_norm",
    "k_functional_check",
    "current_error",
    "build_record",
]

RHO_FLOOR = 1e-12
CURRENT_AT_VACUUM = 1e-10

CSV_COLUMNS = (
    "t",
    "mass",
    "momentum_x",
    "momentum_y",
    "e_kinetic",
    "e_field",
    "e_total",
    "H_eps",
    "h_eps",
    "rho_Hm1",
    "J_err_raw",
    "J_err_divfree",
    "clipped_mass",
    "newton_iters",
    "field_residual",
)


class DegenerateDensityError(ValueError):
    """A near-vacuum node carries current: the run is under-resolved."""


def format_cell(value) -> str:
    """One CSV cell: empty for None, integers as such, floats round-trip."""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One monitored instant; maps 1:1 onto a diagnostics.csv row."""

    t: float
    mass: float
    momentum: tuple
    e_kinetic: float
    e_field: float
    e_total: float
    modulated: float
    mismatch: float
    quasineutrality: float
    current_error_raw: float | None = None
    current_error_divfree: float | None = None
    clipped_mass: float = 0.0
    newton_iters: int | None = None
    field_residual: float | None = None

    def __post_init__(self) -> None:
        # A sum of finite cells is finite unless it overflows, so one pass
        # clears a finite record; only a non-finite sum searches the fields.
        total = sum([0.0 if cell is None else cell for cell in self._cells()])
        for item in () if math.isfinite(total) else fields(self):
            value = getattr(self, item.name)
            parts = () if value is None else value if item.name == "momentum" else (value,)
            if not all(map(math.isfinite, parts)):
                raise ValueError(f"non-finite {item.name} = {value!r} at t = {self.t!r}")
        scale = max(1.0, abs(self.e_total))
        if abs(self.e_total - (self.e_kinetic + self.e_field)) > 1e-12 * scale:
            raise ValueError("e_total must equal e_kinetic + e_field")
        if self.mismatch > self.modulated + 1e-12 * max(1.0, self.modulated):
            raise ValueError(
                f"current mismatch {self.mismatch:g} exceeds modulated energy "
                f"{self.modulated:g}; state is corrupted"
            )

    def _cells(self) -> tuple:  # the CSV row's values, in CSV_COLUMNS order
        momentum_y = self.momentum[1] if len(self.momentum) > 1 else None
        return (
            self.t,
            self.mass,
            self.momentum[0],
            momentum_y,
            self.e_kinetic,
            self.e_field,
            self.e_total,
            self.modulated,
            self.mismatch,
            self.quasineutrality,
            self.current_error_raw,
            self.current_error_divfree,
            self.clipped_mass,
            self.newton_iters,
            self.field_residual,
        )

    def to_csv_row(self) -> str:
        return ",".join(format_cell(c) for c in self._cells())

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)


def relative_energy_drift(records) -> float:
    """max_t |e_total(t) - e_total(0)| / |e_total(0)| over a run's records."""
    e0 = records[0].e_total
    return max(abs(r.e_total - e0) for r in records) / abs(e0)


# ---------------------------------------------------------------------------
# Energies.
# ---------------------------------------------------------------------------


def field_energy(potential: Potential | None) -> float:
    """(eps^2 / 2) integral of |grad phi|^2; zero for a missing field."""
    if potential is None:
        return 0.0
    g2 = np.add.reduce(potential.grad**2, axis=0)
    return 0.5 * potential.epsilon**2 * grid_integral(potential.grid, g2)


def modulated_energy(
    f: PhaseField, potential: Potential | None, reference_velocity
) -> float:
    """(1/2) sum |xi - u(x)|^2 f + field energy, u a reference flow.

    Evaluated from the moments of f as the expansion
    e_kin - sum J.u + (1/2) sum rho |u|^2 + e_field, which equals the
    phase-space sum up to roundoff; `quasikin check` and the test suite
    compare the two on random states.
    """
    d = f.x_grid.dimension
    u = np.asarray(reference_velocity, dtype=float)
    if u.shape != (d,) + f.x_grid.shape:
        raise GridMismatchError(
            f"reference velocity shape {u.shape} != {(d,) + f.x_grid.shape}"
        )
    macro = moments(f)
    cross = 0  # summed as sum() would, without a generator's calls
    for a in range(d):
        cross += grid_integral(f.x_grid, macro.current[a] * u[a])
    expanded = (
        grid_integral(f.x_grid, macro.e_kin)
        - cross
        + 0.5 * grid_integral(f.x_grid, macro.rho * np.add.reduce(u**2, axis=0))
    )
    return expanded + field_energy(potential)


# ---------------------------------------------------------------------------
# Current functionals.
# ---------------------------------------------------------------------------


def _weighted_current_density(rho, gap_sq, label: str):
    """|gap|^2 / (2 rho) with vacuum-node policy shared by h and K."""
    if np.minimum.reduce(rho, axis=None) > RHO_FLOOR:  # no vacuum node
        return gap_sq / (2.0 * rho)
    mask = rho > RHO_FLOOR
    bad = (~mask) & (gap_sq > CURRENT_AT_VACUUM**2)
    if np.any(bad):
        node = tuple(int(i) for i in np.unravel_index(int(np.argmax(gap_sq * ~mask)), rho.shape))
        raise DegenerateDensityError(
            f"{label}: density {rho[node]:g} at node {node} carries current"
        )
    out = np.zeros_like(rho)
    out[mask] = gap_sq[mask] / (2.0 * rho[mask])
    return out


def h_functional(macro: MacroFields, reference_velocity) -> float:
    """sum |J - rho u|^2 / (2 rho) over the torus."""
    grid = macro.grid
    d = grid.dimension
    u = np.asarray(reference_velocity, dtype=float)
    if u.shape != (d,) + grid.shape:
        raise GridMismatchError(
            f"reference velocity shape {u.shape} != {(d,) + grid.shape}"
        )
    gap_sq = (macro.current[0] - macro.rho * u[0]) ** 2
    for a in range(1, d):
        gap_sq += (macro.current[a] - macro.rho * u[a]) ** 2
    return grid_integral(grid, _weighted_current_density(macro.rho, gap_sq, "h"))


def quasineutrality_norm(grid: TorusGrid, rho: np.ndarray) -> float:
    """Spectral H^{-1} norm of rho - 1 (k = 0 mode excluded).

    sqrt(mean(r0 (-Lap^{-1} r0))) with r0 = rho - mean(rho), which by
    Parseval is sqrt(sum_{k != 0} |rho_k|^2 / |2 pi k|^2).
    """
    if rho.shape != grid.shape:
        raise GridMismatchError(f"density shape {rho.shape} != {grid.shape}")
    r0 = rho - float(np.add.reduce(rho, axis=None)) / rho.size
    power = -(float(np.add.reduce(r0 * inverse_laplacian_zero_mean(grid, r0), axis=None)) / r0.size)
    # -Lap^{-1} is positive semi-definite; the clamp only guards roundoff.
    return float(np.sqrt(power if power > 0.0 else 0.0))


def _time_quadrature(times: np.ndarray, samples: np.ndarray) -> float:
    return float(np.trapezoid(samples, times))


def k_functional_check(
    grid: TorusGrid, times, rho, current, z, b_samples
) -> tuple[float, float]:
    """Primal value and best dual lower bound of the current functional.

    primal = int_t z(t) int |J|^2/(2 rho) dx dt; the dual bracket for a
    candidate field b is int_t z(t) int (b.J - |b|^2 rho / 2) dx dt.  For
    every b, bracket <= primal (pointwise Young inequality with positive
    weights), with equality exactly at b = J / rho; the caller supplies the
    candidates, typically including that optimizer.
    """
    times = np.asarray(times, dtype=float)
    rho = np.asarray(rho, dtype=float)
    current = np.asarray(current, dtype=float)
    z = np.asarray(z, dtype=float)
    n_t = len(times)
    d = grid.dimension
    if n_t < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("need at least two strictly increasing times")
    if np.any(z < 0.0):
        raise ValueError("time weight z must be nonnegative")
    if rho.shape != (n_t,) + grid.shape or current.shape != (n_t, d) + grid.shape:
        raise GridMismatchError("trajectory arrays do not match the grid")

    gap_sq = (current**2).sum(axis=1)
    primal_t = np.array(
        [
            grid_integral(grid, _weighted_current_density(rho[i], gap_sq[i], "K"))
            for i in range(n_t)
        ]
    )
    primal = _time_quadrature(times, z * primal_t)

    best = -np.inf
    for b in b_samples:
        b = np.broadcast_to(np.asarray(b, dtype=float), (n_t, d) + grid.shape)
        bracket_t = np.array(
            [
                grid_integral(
                    grid,
                    (b[i] * current[i]).sum(axis=0) - 0.5 * (b[i] ** 2).sum(axis=0) * rho[i],
                )
                for i in range(n_t)
            ]
        )
        best = max(best, _time_quadrature(times, z * bracket_t))
    return primal, best


def current_error(grid: TorusGrid, current, euler_velocity, mode: str) -> float:
    """L2 distance between the current and a reference velocity field.

    mode "raw" compares J directly; mode "divfree" compares its Leray
    projection (the gradient part of J carries the fast oscillation and is
    not expected to converge pointwise).
    """
    d = grid.dimension
    j = np.asarray(current, dtype=float)
    u = np.asarray(euler_velocity, dtype=float)
    if j.shape != (d,) + grid.shape or u.shape != (d,) + grid.shape:
        raise GridMismatchError("current/velocity shapes do not match the grid")
    if mode == "raw":
        return l2_norm(grid, j - u)
    if mode == "divfree":
        return l2_norm(grid, leray_project(grid, j) - u)
    raise ValueError(f"unknown current_error mode {mode!r}")


# ---------------------------------------------------------------------------
# Record assembly.
# ---------------------------------------------------------------------------


def build_record(
    f: PhaseField,
    macro: MacroFields,
    potential: Potential | None,
    euler_velocity=None,
    clipped_mass: float = 0.0,
    report: FieldSolveReport | None = None,
) -> DiagnosticsRecord:
    """Evaluate every monitored functional for one snapshot.

    ``macro`` holds the moments of ``f``.  With no reference velocity the
    modulated energy is taken against u = 0 (it then equals the total
    energy) and the current-error cells stay empty.
    """
    grid = f.x_grid
    d = grid.dimension
    u = (
        np.zeros((d,) + grid.shape)
        if euler_velocity is None
        else np.asarray(euler_velocity, dtype=float)
    )
    e_kin = grid_integral(grid, macro.e_kin)
    e_fld = field_energy(potential)
    momentum = tuple([grid_integral(grid, c) for c in macro.current])
    record = DiagnosticsRecord(
        t=f.time,
        mass=grid_integral(grid, macro.rho),
        momentum=momentum,
        e_kinetic=e_kin,
        e_field=e_fld,
        e_total=e_kin + e_fld,
        modulated=modulated_energy(f, potential, u),
        mismatch=h_functional(macro, u),
        quasineutrality=quasineutrality_norm(grid, macro.rho),
        current_error_raw=(
            None
            if euler_velocity is None
            else current_error(grid, macro.current, u, "raw")
        ),
        current_error_divfree=(
            None
            if euler_velocity is None
            else current_error(grid, macro.current, u, "divfree")
        ),
        clipped_mass=clipped_mass,
        newton_iters=None if report is None else report.iterations,
        field_residual=None if report is None else report.residual,
    )
    return record
