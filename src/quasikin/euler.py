"""Incompressible Euler reference solver on the periodic torus.

Pseudo-spectral in space, classical RK4 in time, Leray projection enforcing
incompressibility.  Dealiasing keeps modes |k| <= (n-1)//3 per axis, the
strict form of the 2/3 rule: the product of two retained modes can never
alias back into the retained band, so with every field held in that band the
semi-discrete system conserves kinetic energy exactly and the measured drift
is pure RK4 time-integration error.

Velocity fields are arrays of shape (d,) + grid.shape.  In d = 1
incompressibility forces u to be constant in x, so the reference "flow" is
a constant — exactly the hydrodynamic limit there — and euler_step returns
it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    GridMismatchError,
    TorusGrid,
    cached_operator,
    grid_integral,
    inverse_laplacian_zero_mean,
    random_bandlimited_field,
    real_fourier_basis,
    spectral_divergence,
    spectral_gradient,
)

__all__ = [
    "CflViolationError",
    "EulerState",
    "band_limit",
    "leray_project",
    "initial_velocity",
    "cfl_bound",
    "euler_step",
    "solve_euler",
    "kinetic_energy",
    "EulerReference",
]

CFL_NUMBER = 0.5
DIVERGENCE_TOLERANCE = 1e-8
VELOCITY_KINDS = ("zero", "constant", "taylor_green", "shear", "random_bandlimited")


class CflViolationError(RuntimeError):
    """Requested time step exceeds the advective stability bound."""


def _check_velocity(grid: TorusGrid, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.dimension,) + grid.shape:
        raise GridMismatchError(
            f"velocity shape {u.shape} != {(grid.dimension,) + grid.shape}"
        )
    return u


@cached_operator
def _band_limit_operator(n_x: int) -> np.ndarray:
    """Orthogonal projector onto the modes |k| <= (n-1)//3."""
    basis, modes = real_fourier_basis(n_x)
    kept = basis[:, modes <= (n_x - 1) // 3]
    return kept @ kept.T


def band_limit(grid: TorusGrid, field_values: np.ndarray) -> np.ndarray:
    """Zero all Fourier modes with any |k| > (n-1)//3 (strict 2/3 rule).

    The mask is separable, so this is B f in 1-d and B f B^T in 2-d.  The
    first sample is taken out and put back, so constants pass exactly.
    """
    b = _band_limit_operator(grid.n_x)
    base = field_values.flat[0]
    out = b @ (field_values - base)
    if grid.dimension == 2:
        out = out @ b.T
    return out + base


def leray_project(grid: TorusGrid, v: np.ndarray) -> np.ndarray:
    """Remove the gradient part: P(v) = v - grad(invlap(div v)).

    Idempotent and self-adjoint in the discrete L2 inner product; preserves
    the mean of each component (in 1-d, where div misses the Nyquist mode, P(v) is that mean).
    """
    v = _check_velocity(grid, v)
    if grid.dimension == 1:
        return np.full(v.shape, np.add.reduce(v, axis=None) / v.size)
    div = spectral_divergence(grid, v)
    potential = inverse_laplacian_zero_mean(grid, div)
    return v - spectral_gradient(grid, potential)


def _advection(grid: TorusGrid, u: np.ndarray) -> np.ndarray:
    """The dealiased advection term (u . grad)u, band-limited per component."""
    d = grid.dimension
    grads = [spectral_gradient(grid, u[b]) for b in range(d)]
    adv = np.empty_like(u)
    for b in range(d):
        acc = u[0] * grads[b][0]
        for a in range(1, d):
            acc += u[a] * grads[b][a]
        adv[b] = band_limit(grid, acc)
    return adv


def _projected_nonlinearity(grid: TorusGrid, u: np.ndarray) -> np.ndarray:
    """P applied to the dealiased advection term (u . grad)u."""
    return leray_project(grid, _advection(grid, u))


@dataclass(eq=False)
class EulerState:
    """Divergence-free velocity at one time."""

    grid: TorusGrid
    u: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        self.u = _check_velocity(self.grid, self.u)
        div = spectral_divergence(self.grid, self.u)
        worst = float(np.maximum.reduce(np.abs(div), axis=None))
        if worst > DIVERGENCE_TOLERANCE:
            raise ValueError(f"velocity is not divergence-free: max |div u| = {worst:g}")

    @classmethod
    def from_velocity(cls, grid: TorusGrid, u, time: float = 0.0) -> "EulerState":
        """Ingest a raw velocity field: band-limit, then project."""
        u = _check_velocity(grid, np.asarray(u, dtype=float))
        u = np.stack([band_limit(grid, u[a]) for a in range(grid.dimension)])
        return cls(grid, leray_project(grid, u), time)

    def max_speed(self) -> float:
        return float(np.maximum.reduce(np.sqrt(np.add.reduce(self.u**2, axis=0)), axis=None))


def kinetic_energy(state: EulerState) -> float:
    """(1/2) integral of |u|^2 over the unit torus."""
    return 0.5 * grid_integral(state.grid, (state.u**2).sum(axis=0))


def cfl_bound(state: EulerState) -> float:
    """Largest dt euler_step accepts from this state (inf for a flow at rest)."""
    speed = state.max_speed()
    return CFL_NUMBER * state.grid.h_x / speed if speed > 0.0 else np.inf


def euler_step(state: EulerState, dt: float) -> EulerState:
    """One RK4 step of du/dt = -P((u . grad)u); enforces CFL 0.5.

    In d = 1 the checks run, then the same constant flow is returned.
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    bound = cfl_bound(state)
    if dt > bound:
        raise CflViolationError(
            f"dt = {dt:g} exceeds CFL bound {bound:g} "
            f"(h_x = {grid.h_x:g}, max speed = {state.max_speed():g})"
        )
    if grid.dimension == 1:
        return EulerState(grid, state.u.copy(), state.time + dt)
    u0 = state.u
    k1 = -_projected_nonlinearity(grid, u0)
    k2 = -_projected_nonlinearity(grid, u0 + 0.5 * dt * k1)
    k3 = -_projected_nonlinearity(grid, u0 + 0.5 * dt * k2)
    k4 = -_projected_nonlinearity(grid, u0 + dt * k3)
    u1 = u0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return EulerState(grid, u1, state.time + dt)


def initial_velocity(
    grid: TorusGrid,
    kind: str,
    amplitude: float = 1.0,
    value=None,
    seed: int = 0,
    max_mode: int = 4,
) -> np.ndarray:
    """Named initial velocity fields.

    kinds: "zero"; "constant" (value = length-d sequence); "taylor_green"
    (d = 2, amplitude * (sin(2 pi x) cos(2 pi y), -cos(2 pi x) sin(2 pi y)));
    "shear" (d = 2, (amplitude sin(2 pi y), 0)); "random_bandlimited"
    (seeded, modes <= max_mode per axis, divergence-free, sup norm scaled to
    amplitude).
    """
    d = grid.dimension
    shape = (d,) + grid.shape
    if kind == "zero":
        return np.zeros(shape)
    if kind == "constant":
        if value is None:
            raise ValueError("constant velocity needs value")
        vec = np.asarray(value, dtype=float).reshape(d)
        return np.broadcast_to(vec.reshape((d,) + (1,) * d), shape).copy()
    if kind == "taylor_green":
        if d != 2:
            raise ValueError("taylor_green requires dimension 2")
        x, y = grid.coords()
        sx, cx = np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)
        sy, cy = np.sin(2 * np.pi * y), np.cos(2 * np.pi * y)
        return amplitude * np.stack([sx * cy, -cx * sy])
    if kind == "shear":
        if d != 2:
            raise ValueError("shear requires dimension 2")
        _, y = grid.coords()
        u = np.zeros(shape)
        u[0] = amplitude * np.sin(2 * np.pi * y)
        return u
    if kind == "random_bandlimited":
        if d != 2:  # the projection would leave only roundoff to rescale
            raise ValueError("random_bandlimited requires dimension 2")
        rng = np.random.default_rng(seed)
        raw = np.stack(
            [random_bandlimited_field(grid, max_mode, rng) for _ in range(d)]
        )
        u = leray_project(grid, raw)
        peak = float(np.sqrt((u**2).sum(axis=0)).max())
        if peak > 0.0:
            u *= amplitude / peak
        return u
    raise ValueError(
        f"unknown initial velocity kind {kind!r} (choose from {', '.join(VELOCITY_KINDS)})"
    )


def solve_euler(
    grid: TorusGrid, u0: np.ndarray, dt: float, sample_times
) -> list[EulerState]:
    """Advance from t = 0 and return states at each requested sample time.

    Steps with the given dt, shortening the final substep before each sample
    time so states land exactly on it (no temporal interpolation).  Sample
    times must be nondecreasing and start at >= 0; a leading 0.0 returns the
    ingested initial state.
    """
    times = [float(t) for t in sample_times]
    if any(t < 0.0 for t in times) or any(
        b < a for a, b in zip(times, times[1:])
    ):
        raise ValueError("sample times must be nondecreasing and nonnegative")
    ref = EulerReference(grid, u0, dt)
    out = []
    for t in times:
        ref.advance_to(t)
        out.append(ref.state)
    return out


class EulerReference:
    """Co-advancing Euler solution for side-by-side kinetic comparisons."""

    def __init__(self, grid: TorusGrid, u0: np.ndarray, dt: float) -> None:
        if not (dt > 0.0):
            raise ValueError(f"dt must be positive, got {dt}")
        self.dt = float(dt)
        self.state = EulerState.from_velocity(grid, u0, time=0.0)

    def advance_to(self, t: float) -> EulerState:
        """Step forward to time t (within roundoff); t must not be in the past."""
        if t < self.state.time - 1e-12:
            raise ValueError(f"cannot advance backwards to t = {t:g}")
        guard = 1e-12 * max(1.0, abs(t))
        while self.state.time < t - guard:
            step = min(self.dt, t - self.state.time)
            self.state = euler_step(self.state, step)
        self.state.time = t
        return self.state
