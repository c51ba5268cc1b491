"""Periodic Monge-Ampere field solves and cofactor diagnostics.

The electric potential phi is the zero-mean periodic solution of

    det(I + eps^2 D^2 phi) = rho,        mean(rho) = 1,

whose small-eps linearization is the Poisson problem eps^2 Lap(phi) = rho - 1.
Both are exposed through a single entry point :func:`solve_field` with
``mode`` in {"monge_ampere", "poisson"}.  In one dimension the determinant is
affine in phi'' and the two modes coincide exactly (double spectral
integration); in two dimensions the nonlinear problem is solved by a damped
Newton iteration whose linearizations

    delta -> eps^2 tr(cof(I + eps^2 D^2 phi) D^2 delta)

are inverted by preconditioned conjugate gradients with the constant
coefficient operator eps^2 Lap as the preconditioner.  The line search halves
the step until the max-norm residual decreases *and* the matrix
I + eps^2 D^2 phi stays uniformly positive definite (ellipticity guard).

The module also checks the 2-d divergence form of the determinant,
det(D^2 phi) = (1/2) div(cof(D^2 phi) grad(phi)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import (
    TorusGrid,
    inverse_laplacian_zero_mean,
    spectral_divergence,
    spectral_gradient,
    spectral_hessian,
)

__all__ = [
    "NonPositiveDensityError",
    "MassNotNormalizedError",
    "NewtonStalledError",
    "EllipticityLostError",
    "Potential",
    "FieldSolveReport",
    "solve_field",
    "determinant_of_potential",
    "cofactor_divergence_residual",
]

MASS_TOLERANCE = 1e-8
ELLIPTICITY_FLOOR = 0.1
MAX_NEWTON_ITERATIONS = 50
MAX_DAMPINGS = 30


class NonPositiveDensityError(ValueError):
    """The density handed to the field solver is not strictly positive."""


class MassNotNormalizedError(ValueError):
    """The density mean deviates from 1 beyond the compatibility tolerance."""


class NewtonStalledError(RuntimeError):
    """Damped Newton could not reduce the residual any further."""


class EllipticityLostError(RuntimeError):
    """No admissible step keeps I + eps^2 D^2 phi uniformly positive definite."""


@dataclass(eq=False)
class Potential:
    """Zero-mean potential with its spectral derivatives.

    ``grad`` has shape (d,) + grid.shape and ``hess`` (d, d) + grid.shape;
    both are the spectral derivatives of ``phi`` (recomputing them must
    reproduce the stored arrays bit for bit).  Each is a few small matrix
    products with the cached operators of grids.py, so both are formed
    when the potential is made.
    """

    grid: TorusGrid
    phi: np.ndarray
    epsilon: float
    grad: np.ndarray = field(init=False)
    hess: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not (self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        self.phi = self.phi - np.add.reduce(self.phi, axis=None) / self.phi.size
        self.grad = spectral_gradient(self.grid, self.phi)
        self.hess = spectral_hessian(self.grid, self.phi)


@dataclass
class FieldSolveReport:
    """How a field solve went.

    ``mode`` is the mode the caller asked for; ``iterations`` counts the
    Newton steps (0 for the closed-form solves); ``residual`` is the final
    max-norm residual of the equation solved; ``damping_steps`` counts the
    line search's step halvings over the whole solve.
    """

    mode: str
    iterations: int
    residual: float
    damping_steps: int = 0


def _det_i_plus(hess: np.ndarray, eps2: float) -> np.ndarray:
    """det(I + eps^2 H) pointwise for a stacked Hessian field."""
    if hess.shape[0] == 1:
        return 1.0 + eps2 * hess[0, 0]
    a = 1.0 + eps2 * hess[0, 0]
    c = 1.0 + eps2 * hess[1, 1]
    b = eps2 * hess[0, 1]
    return a * c - b * b


def _cof_i_plus(hess: np.ndarray, eps2: float) -> np.ndarray:
    """cof(I + eps^2 H) for a symmetric 2x2 Hessian field."""
    a = 1.0 + eps2 * hess[0, 0]
    c = 1.0 + eps2 * hess[1, 1]
    b = eps2 * hess[0, 1]
    cof = np.empty_like(hess)
    cof[0, 0] = c
    cof[1, 1] = a
    cof[0, 1] = -b
    cof[1, 0] = -b
    return cof


def _min_eigenvalue(hess: np.ndarray, eps2: float) -> float:
    """Smallest eigenvalue of I + eps^2 H over the grid (2x2 symmetric)."""
    a = 1.0 + eps2 * hess[0, 0]
    c = 1.0 + eps2 * hess[1, 1]
    b = eps2 * hess[0, 1]
    half_trace = 0.5 * (a + c)
    radius = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
    return float((half_trace - radius).min())


def determinant_of_potential(pot: Potential) -> np.ndarray:
    """det(I + eps^2 D^2 phi) on the grid."""
    return _det_i_plus(pot.hess, pot.epsilon**2)


def _check_density(rho: np.ndarray) -> float:
    """Reject an inadmissible density; return its mean."""
    # A NaN fails the first test and +inf the second, so one branch holds every defect.
    low = float(np.minimum.reduce(rho, axis=None))
    mean = float(np.add.reduce(rho, axis=None)) / rho.size
    if not (low > 0.0 and mean < np.inf):
        if not np.isfinite(rho).all():
            raise ValueError(f"density must be finite; {np.count_nonzero(~np.isfinite(rho))} non-finite values")
        if not low > 0.0:
            raise NonPositiveDensityError(f"density must be strictly positive; min value {low:g}")
    if abs(mean - 1.0) > MASS_TOLERANCE:
        raise MassNotNormalizedError(
            f"density mean must equal 1 to within {MASS_TOLERANCE:g}; got {mean!r}"
        )
    return mean


def _poisson_solution(grid: TorusGrid, rho: np.ndarray, epsilon: float, mean: float) -> np.ndarray:
    # The (<= 1e-8) mean defect permitted by the mass check is a
    # discretization artifact with no solvable lift; strip it (``mean`` is
    # rho's) before inverting.
    g = (rho - mean) / epsilon**2
    return inverse_laplacian_zero_mean(grid, g)


def _pcg(apply_a, b: np.ndarray, apply_m, rtol: float = 1e-12, maxiter: int = 400) -> np.ndarray:
    """Preconditioned conjugate gradients on grid-shaped arrays."""
    x = np.zeros_like(b)
    r = b.copy()
    z = apply_m(r)
    p = z.copy()
    rz = float((r * z).sum())
    b_norm = float(np.linalg.norm(b.ravel())) or 1.0
    for _ in range(maxiter):
        if float(np.linalg.norm(r.ravel())) <= rtol * b_norm:
            break
        ap = apply_a(p)
        denom = float((p * ap).sum())
        if denom <= 0.0:
            break  # lost positive-definiteness numerically; Newton will damp
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        z = apply_m(r)
        rz_new = float((r * z).sum())
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


def _solve_newton_2d(
    grid: TorusGrid, rho: np.ndarray, epsilon: float
) -> tuple[np.ndarray, FieldSolveReport]:
    eps2 = epsilon**2
    tol = 1e-10 * max(1.0, float(np.abs(rho).max()))
    # The grid mean of det(I + eps^2 D^2 phi) is identically 1 for periodic
    # phi, so the equation is solvable only for exactly unit-mean data.
    # Densities arriving from a time stepper carry O(1e-10) mass drift
    # (admissible per _check_density); project it out or Newton stalls at
    # an unreachable residual floor equal to that offset.
    rho = rho / rho.mean()

    def residual_of(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hess = spectral_hessian(grid, phi)
        return _det_i_plus(hess, eps2) - rho, hess

    phi = _poisson_solution(grid, rho, epsilon, rho.mean())
    hess = spectral_hessian(grid, phi)
    if _min_eigenvalue(hess, eps2) < ELLIPTICITY_FLOOR:
        phi = np.zeros_like(rho)  # fall back to the flat guess, always elliptic
        hess = spectral_hessian(grid, phi)
    f_val = _det_i_plus(hess, eps2) - rho
    res = float(np.abs(f_val).max())
    dampings = 0

    def apply_m(r: np.ndarray) -> np.ndarray:
        return inverse_laplacian_zero_mean(grid, -(r - r.mean()) / eps2)

    for iteration in range(MAX_NEWTON_ITERATIONS):
        if res <= tol:
            return phi, FieldSolveReport("monge_ampere", iteration, res, dampings)
        cof = _cof_i_plus(hess, eps2)

        def apply_a(delta: np.ndarray) -> np.ndarray:
            dh = spectral_hessian(grid, delta)
            lin = eps2 * (cof[0, 0] * dh[0, 0] + 2.0 * cof[0, 1] * dh[0, 1] + cof[1, 1] * dh[1, 1])
            lin = -lin  # CG wants the positive operator
            return lin - lin.mean()

        rhs = f_val - f_val.mean()
        delta = _pcg(apply_a, rhs, apply_m)
        step = 1.0
        saw_elliptic_trial = False
        accepted = False
        for _ in range(MAX_DAMPINGS + 1):
            trial = phi + step * delta
            trial_res_field, trial_hess = residual_of(trial)
            if _min_eigenvalue(trial_hess, eps2) >= ELLIPTICITY_FLOOR:
                saw_elliptic_trial = True
                trial_res = float(np.abs(trial_res_field).max())
                if trial_res < res:
                    phi, hess, f_val, res = trial, trial_hess, trial_res_field, trial_res
                    accepted = True
                    break
            step *= 0.5
            dampings += 1
        if not accepted:
            if not saw_elliptic_trial:
                raise EllipticityLostError(
                    "no damped Newton step keeps I + eps^2 D^2 phi positive "
                    f"definite above {ELLIPTICITY_FLOOR}; residual {res:g}"
                )
            # Every earlier iteration accepted exactly one step.
            raise NewtonStalledError(
                f"residual stalled at {res:g} (tolerance {tol:g}) after "
                f"{iteration} accepted steps"
            )
    if res <= tol:
        return phi, FieldSolveReport("monge_ampere", MAX_NEWTON_ITERATIONS, res, dampings)
    raise NewtonStalledError(
        f"no convergence in {MAX_NEWTON_ITERATIONS} Newton iterations; residual {res:g}"
    )


def solve_field(
    grid: TorusGrid,
    rho: np.ndarray,
    epsilon: float,
    mode: str = "monge_ampere",
) -> tuple[Potential, FieldSolveReport]:
    """Solve the field equation for the zero-mean potential.

    Parameters
    ----------
    grid, rho : spatial grid and strictly positive density with mean 1
        (to within 1e-8).
    epsilon : coupling parameter, > 0.
    mode : "monge_ampere" for det(I + eps^2 D^2 phi) = rho,
        "poisson" for the linearization eps^2 Lap(phi) = rho - 1.  In 1-d
        the two are the same equation and share one closed-form solve.

    The 2-d Newton iteration stops at a max-norm residual of
    1e-10 * max(1, max(rho)).

    Returns (Potential, FieldSolveReport).  Raises ValueError on non-finite
    densities, NonPositiveDensityError / MassNotNormalizedError on
    inadmissible ones, NewtonStalledError or
    EllipticityLostError when the damped iteration cannot proceed.
    """
    if rho.shape != grid.shape:
        raise ValueError(f"density shape {rho.shape} != grid shape {grid.shape}")
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if mode not in ("monge_ampere", "poisson"):
        raise ValueError(f"unknown field mode {mode!r}")
    mean = _check_density(rho)

    if mode == "poisson" or grid.dimension == 1:
        # In 1-d det(I + eps^2 phi'') = 1 + eps^2 phi'' is affine, so both
        # modes are solved in closed form by double spectral integration.
        pot = Potential(grid, _poisson_solution(grid, rho, epsilon, mean), epsilon)
        lap = pot.hess.trace()  # its diagonal's sum, as np.trace gives it
        residual = float(np.maximum.reduce(np.abs(epsilon**2 * lap - (rho - 1.0)), axis=None))
        return pot, FieldSolveReport(mode, 0, residual)

    phi, report = _solve_newton_2d(grid, rho, epsilon)
    return Potential(grid, phi, epsilon), report


# ---------------------------------------------------------------------------
# Cofactor diagnostic (2-d only, where the algebra is nontrivial)
# ---------------------------------------------------------------------------


def _bare_cofactor(hess: np.ndarray) -> np.ndarray:
    """cof(D^2 phi) for a symmetric 2x2 Hessian field."""
    cof = np.empty_like(hess)
    cof[0, 0] = hess[1, 1]
    cof[1, 1] = hess[0, 0]
    cof[0, 1] = -hess[0, 1]
    cof[1, 0] = -hess[0, 1]
    return cof


def cofactor_divergence_residual(pot: Potential) -> float:
    """Max-norm defect of det(D^2 phi) = (1/2) div(cof(D^2 phi) grad phi).

    For band-limited phi the defect reflects only aliasing of pointwise
    products, so it collapses to roundoff once the grid oversamples the
    active modes enough to keep the products below the Nyquist mode.
    """
    if pot.grid.dimension != 2:
        raise ValueError("cofactor identity is a d=2 diagnostic")
    det_bare = pot.hess[0, 0] * pot.hess[1, 1] - pot.hess[0, 1] ** 2
    flux = np.einsum("ab...,b...->a...", _bare_cofactor(pot.hess), pot.grad)
    div = spectral_divergence(pot.grid, flux)
    return float(np.abs(det_bare - 0.5 * div).max())
