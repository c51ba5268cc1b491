"""Phase-space transport: Strang-split semi-Lagrangian integration of the
kinetic equation with its self-consistent field.

One step advances

    advect_x(dt/2) -> moments -> solve_field -> advect_v(dt)
        -> collide(dt) -> advect_x(dt/2),

so the acceleration is evaluated at the half step (time-centered, which is
what makes the composition second order).  Both advections are
semi-Lagrangian with cubic interpolation, hence unconditionally stable in
the advection CFL sense; the params-level dt bound exists to control
splitting error, not stability.

Spatial advection uses the periodic cubic-spline interpolant.  For each
velocity node the displacement is uniform in x, so the shift along one
x-axis is a circulant map: a multiplication by its transfer function in
Fourier space, or by a real n_x x n_x circulant matrix in x.  Both depend
only on the grid and the substep, so they are built once and cached.  A
1-d state is shifted with real-to-complex FFTs.  In 2-d each velocity node
(k1, k2) is updated as T_k1 f T_k2^T, computed as two passes of small
matrix products, one per x-axis, each a row or slab of the state at a
time through reused buffers.  The transfer is exactly 1 at k = 0, and
each matrix's columns sum to 1 to roundoff, so spatial advection
conserves the mass of every velocity slice to roundoff.

Velocity advection uses natural cubic splines.  Every row along a velocity
axis shares one tridiagonal system, so the spline's second derivatives come
from one cached dense operator; the shift is uniform along each row, so
evaluating the spline is a 2-point stencil with per-row weights.  In 1-d
the stencil is evaluated once for all rows, each keeping what its shift
puts in the box.  In 2-d the shift of one spatial node's velocity
slab along each axis is a fixed n x n matrix, so the kick is two small
matrix products per node.  Per kick and axis, each node's 5 coefficients
go into the columns of its whole-cell shift in one coefficient matrix, and
the bases of those shifts are stacked into one cached matrix, so a block
of nodes gets its operators from one product.  Both kicks work in
blocks that keep their scratch small.  The distribution is 0 beyond the
velocity box (outflow by truncation); negative interpolation overshoot is
clipped to keep f >= 0, and the mass added by clipping is reported with
each substep.

A 2-d state's stream, kick and clip split their rows, slabs or node
blocks over grids.KERNEL_WORKERS threads (grids.split_parts).  Each part
does the floating-point operations one thread would, so the output is the
same bytes at any thread count; a 1-d state stays on the calling thread.
Both advections and the BGK update write over one state: their input
with ``in_place=True``, so a run steps inside its initial state's array
(see run), and otherwise a new C-ordered copy of it.

Diagnostics are evaluated on the end-of-step state with a *fresh* field
solve at that time; mixing the half-step potential with end-step moments
would contaminate the measured energy drift at first order in dt.  A
trajectory keeps, per step, only the diagnostics record and the stress
moments of the state, plus the snapshots its stride asks for and the final
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collision import CollisionConfig, bgk_collide
from .diagnostics import DiagnosticsRecord, build_record
from .euler import EulerReference, initial_velocity
from .grids import (
    PhaseField,
    TorusGrid,
    VelocityGrid,
    cached_operator,
    kernel_workers,
    moments,
    spectral_divergence,
    stress_moments,
    random_bandlimited_field,
    split_parts,
    state_to_write,
)
from .monge_ampere import FieldSolveReport, solve_field

__all__ = [
    "SimulationParams",
    "WellPreparedIC",
    "check_initial_state",
    "make_initial_condition",
    "advect_x",
    "advect_v",
    "observe",
    "Trajectory",
    "run",
]

FIELD_MODES = ("monge_ampere", "poisson", "none")
VELOCITY_MARGIN_SIGMAS = 6.0  # v_max must cover u_max + 6 sqrt(theta)
# Bytes in one block of rows the 1-d kick takes; the 2-d kick's workers
# share it, one block each.
KICK_SCRATCH_BYTES = 1 << 19
# Multiply-adds in one 1-d kick block's product.  The OpenBLAS bundled with
# numpy keeps a GEMM of up to 10^6 on the calling thread and splits a larger
# one over its pool, whose handoff costs more than it saves at these sizes.
KICK_BLOCK_MULADDS = 10**6


@dataclass(frozen=True)
class WellPreparedIC:
    """Initial state f0 = rho0(x) * Gaussian(u0(x), theta) in velocity.

    ``u0_kind``/``u0_amplitude``/``seed``/``max_mode`` name a reference flow
    (see euler.initial_velocity; "constant" uses amplitude as the first
    component).  ``delta`` scales the density perturbation ``profile``
    ("cosine_x", "cosine_xy", or seeded "random"); rho0 is renormalized to
    unit mean exactly.  theta is the velocity variance per direction.
    """

    u0_kind: str = "zero"
    u0_amplitude: float = 0.0
    delta: float = 0.0
    profile: str = "cosine_x"
    theta: float = 1.0
    seed: int = 0
    max_mode: int = 3


@dataclass(frozen=True)
class SimulationParams:
    """Everything one run needs, checked when built.

    Construction rejects any infeasible combination: the field mode, the
    horizon and time step, the collision kind, the initial state against
    the grids (check_initial_state) and the splitting-error bound on dt.
    """

    dimension: int
    n_x: int
    n_v: int
    v_max: float
    epsilon: float
    dt: float
    t_end: float
    field_mode: str = "monge_ampere"
    collision: CollisionConfig = CollisionConfig()
    ic: WellPreparedIC = WellPreparedIC()
    a_max_estimate: float = 1.0
    snapshot_stride: int = 0
    euler_reference: bool = False

    def __post_init__(self) -> None:
        if self.field_mode not in FIELD_MODES:
            raise ValueError(f"unknown field mode {self.field_mode!r}")
        if not (0.0 < self.epsilon < np.inf):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (0.0 <= self.t_end < np.inf):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if not (0.0 <= self.a_max_estimate < np.inf):
            raise ValueError(
                f"a_max_estimate must be finite and >= 0, got {self.a_max_estimate}"
            )
        if self.collision.kind == "direct":
            raise ValueError(
                "direct collision quadrature is a diagnostic operator; "
                "time stepping supports kinds 'none' and 'bgk'"
            )
        if self.snapshot_stride < 0:
            raise ValueError("snapshot_stride must be >= 0")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-8 * max(1.0, steps):
            raise ValueError(
                f"t_end = {self.t_end:g} is not an integer number of steps "
                f"of dt = {self.dt:g}"
            )
        x_grid, v_grid = self.x_grid(), self.v_grid()
        check_initial_state(self.ic, x_grid, self.v_max)
        bound = x_grid.h_x / self.v_max
        if self.a_max_estimate > 0.0:
            bound = min(bound, v_grid.h_v / self.a_max_estimate)
        if self.dt > bound * (1.0 + 1e-12):
            raise ValueError(
                f"dt = {self.dt:g} exceeds the splitting-error bound {bound:g} "
                f"(v_max = {self.v_max:g}, a_max_estimate = {self.a_max_estimate:g})"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def x_grid(self) -> TorusGrid:
        return TorusGrid(self.dimension, self.n_x)

    def v_grid(self) -> VelocityGrid:
        return VelocityGrid(self.dimension, self.n_v, self.v_max)


# ---------------------------------------------------------------------------
# Initial data.
# ---------------------------------------------------------------------------


def check_initial_state(
    ic: WellPreparedIC, x_grid: TorusGrid, v_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """Reject an initial state the grids cannot carry; return (rho0, u0).

    The one check of a scenario's initial state: SimulationParams runs it
    when built and make_initial_condition before it samples f0.  rho0 has
    unit mean; the velocity box must hold the bulk flow plus six thermal
    widths.
    """
    if not (0.0 <= ic.delta <= 0.9):
        raise ValueError(f"delta must lie in [0, 0.9], got {ic.delta}")
    if not (0.0 < ic.theta < np.inf):
        raise ValueError(f"theta must be positive and finite, got {ic.theta}")
    if not np.isfinite(ic.u0_amplitude):
        raise ValueError(f"u0_amplitude must be finite, got {ic.u0_amplitude}")
    min_dimension = {"cosine_x": 1, "cosine_xy": 2, "random": 1}
    if ic.profile not in min_dimension:
        raise ValueError(
            f"unknown density profile {ic.profile!r} "
            f"(choose from {', '.join(min_dimension)})"
        )
    if x_grid.dimension < min_dimension[ic.profile]:
        raise ValueError(f"profile {ic.profile} requires dimension 2")
    # The seeded draws: the profile from seed + 101, the flow from seed.
    if ic.profile == "random" and ic.seed < -101:
        raise ValueError(f"profile random needs seed >= -101, got {ic.seed}")
    if ic.u0_kind == "random_bandlimited" and ic.seed < 0:
        raise ValueError(f"u0 random_bandlimited needs seed >= 0, got {ic.seed}")
    rho0 = 1.0 + ic.delta * _density_profile(ic, x_grid)  # checks max_mode
    rho0 = rho0 / rho0.mean()

    u0 = reference_flow(ic, x_grid)  # rejects an unknown kind or dimension
    worst_div = float(np.abs(spectral_divergence(x_grid, u0)).max())
    if worst_div > 1e-10:
        raise ValueError(f"u0 is not divergence-free: max |div| = {worst_div:g}")

    u_max = float(np.sqrt((u0**2).sum(axis=0)).max())
    required = u_max + VELOCITY_MARGIN_SIGMAS * np.sqrt(ic.theta)
    if v_max < required * (1.0 - 1e-12):
        raise ValueError(
            f"v_max = {v_max:g} cannot contain the state "
            f"(need >= u_max + 6 sqrt(theta) = {required:g})"
        )
    return rho0, u0


def _density_profile(ic: WellPreparedIC, grid: TorusGrid) -> np.ndarray:
    if ic.profile == "cosine_x":
        x = grid.coords()[0]
        return np.cos(2.0 * np.pi * x)
    if ic.profile == "cosine_xy":
        x, y = grid.coords()
        return np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
    rng = np.random.default_rng(ic.seed + 101)  # "random"
    return random_bandlimited_field(grid, ic.max_mode, rng)


def reference_flow(ic: WellPreparedIC, grid: TorusGrid) -> np.ndarray:
    if ic.u0_kind == "constant":
        value = [ic.u0_amplitude] + [0.0] * (grid.dimension - 1)
        return initial_velocity(grid, "constant", value=value)
    return initial_velocity(
        grid,
        ic.u0_kind,
        amplitude=ic.u0_amplitude,
        seed=ic.seed,
        max_mode=ic.max_mode,
    )


def make_initial_condition(
    ic: WellPreparedIC, x_grid: TorusGrid, v_grid: VelocityGrid, epsilon: float
) -> PhaseField:
    """Well-prepared product state rho0(x) * Gaussian(u0(x), theta).

    The Gaussian factors over the velocity axes: at each spatial node it is
    the product of one factor exp(-(xi - u0_a)^2 / 2 theta) per axis a, so
    the factors are built at shape (d, spatial nodes, n_v) and the phase
    space is written once.  The velocity factor at each node is normalized
    by its own discrete mass, the product of its factors' sums, so the
    discrete density equals rho0 and the total mass is 1, both to roundoff
    (in 1-d the state is the dense formula's, byte for byte).  Rejects what
    check_initial_state rejects.
    """
    d = x_grid.dimension
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    rho0, u0 = check_initial_state(ic, x_grid, v_grid.v_max)

    xi = v_grid.axis_nodes()
    q = (xi - u0.reshape(d, -1, 1)) ** 2
    factors = np.exp(-q / (2.0 * ic.theta))
    node_mass = np.prod(factors.sum(axis=-1), axis=0) * v_grid.weight
    values = factors[0] * (rho0.reshape(-1) / node_mass)[:, None]
    if d == 2:
        values = np.einsum("ni,nj->nij", values, factors[1])
    return PhaseField(x_grid, v_grid, values.reshape(x_grid.shape + v_grid.shape), 0.0)


# ---------------------------------------------------------------------------
# Semi-Lagrangian advections.
# ---------------------------------------------------------------------------


def _b3(t: np.ndarray) -> np.ndarray:
    """Cubic B-spline on [0, 1]: B3(t) = 2/3 - t^2 + t^3/2."""
    return 2.0 / 3.0 - t**2 + 0.5 * t**3


def _clip_negative(values: np.ndarray, phase_volume: float) -> float:
    """Set the negative entries of ``values`` to 0; return the mass that adds.

    A 2-d state in C order is clipped a row (first axis) at a time, split
    over worker threads, each with its own row-sized mask.  The rows'
    negatives are joined in row order into one array, the one a single
    pass gathers, so the returned mass is the same pairwise sum.
    """
    if values.ndim == 2 or not values.flags.c_contiguous:
        negative = values < 0.0
        clipped = values[negative]
        if not clipped.size:
            return 0.0
        values[negative] = 0.0
        return -float(np.add.reduce(clipped)) * phase_volume
    rows = values.reshape(len(values), -1)
    masks = np.empty((kernel_workers(len(rows)), rows.shape[1]), dtype=bool)
    negatives = [None] * len(rows)

    def clip(worker: int, i: int) -> None:
        row = rows[i]
        at = np.flatnonzero(np.less(row, 0.0, out=masks[worker]))
        negatives[i] = row[at]
        row[at] = 0.0

    split_parts(clip, len(rows))
    clipped = np.concatenate(negatives)
    if not clipped.size:
        return 0.0
    return -float(np.add.reduce(clipped)) * phase_volume


@cached_operator
def _stream_transfer(x_grid: TorusGrid, v_grid: VelocityGrid, dt: float) -> np.ndarray:
    """Fourier transfer of the periodic cubic-spline shift by ``xi dt``.

    Shape (n_x, n_v) in FFT wavenumber layout, one column per velocity node.
    It is Hermitian in k and real at k = 0 and at Nyquist, so its first
    n_x/2 + 1 rows serve the 1-d stream's real-to-complex transforms, and
    the inverse DFT of each column is the real kernel of the 2-d stream's
    circulant matrices (_stream_operators).
    """
    kappa = 2.0 * np.pi * x_grid.wavenumbers_int() / x_grid.n_x
    beta = (2.0 + np.cos(kappa)) / 3.0
    sigma = v_grid.axis_nodes() * (dt / x_grid.h_x)
    p = np.floor(sigma)
    t = sigma - p
    weights = (
        (t**3 / 6.0)[None, :] * np.exp(-2j * kappa)[:, None]
        + _b3(1.0 - t)[None, :] * np.exp(-1j * kappa)[:, None]
        + _b3(t)[None, :]
        + ((1.0 - t) ** 3 / 6.0)[None, :] * np.exp(1j * kappa)[:, None]
    )
    return np.exp(-1j * np.outer(kappa, p)) * weights / beta[:, None]


@cached_operator
def _stream_operators(x_grid: TorusGrid, v_grid: VelocityGrid, dt: float) -> np.ndarray:
    """The stream's shift along one x-axis as real circulant matrices.

    Shape (n_v, n_x, n_x): T_k maps a line along an x-axis to its shift by
    ``xi_k dt``, T_k[i, j] = c_k[(i - j) mod n_x], with c_k the inverse DFT
    of column k of _stream_transfer.
    """
    kernel = np.fft.ifft(_stream_transfer(x_grid, v_grid, dt), axis=0).real
    i = np.arange(x_grid.n_x)
    return np.ascontiguousarray(kernel[(i[:, None] - i) % x_grid.n_x].transpose(2, 0, 1))


def _stream_2d(values: np.ndarray, ops: np.ndarray) -> None:
    """Stream a 2-d state (x1, x2, v1, v2) over itself: each node (k1, k2)
    gets T_k1 f T_k2^T.

    Pass 1 shifts along x2, one x1 row at a time, with the operator of each
    v2 node.  The row is copied with only its velocity axes swapped, to
    (x2, v2, v1); in (v2, x2, v1) order that copy is a stack of x2 x v1
    blocks with unit stride along v1, which the GEMMs read as they are and
    write to a second buffer of the same layout, swapped back into the row;
    the row is read whole before it is written.  Pass 2 shifts
    along x1, one x2 slab at a time, with the operator of each v1 node.
    The slab is copied to (v1, x1, v2) order, and the GEMMs write the slab
    itself through its (v1, x1, v2) view.  Each pass is split over
    worker threads by rows or slabs, pass 2 after pass 1 has ended; each
    worker has its own two row-sized buffers, allocated once per call, so
    every product is a plain stack of n_x x n_x GEMMs.
    """
    n1, n2, nv1, nv2 = values.shape
    scratch = np.empty((kernel_workers(n1), 2, n2, nv2, nv1))

    def row(worker: int, i: int) -> None:
        swapped, product = scratch[worker]
        swapped[...] = values[i].transpose(0, 2, 1)
        np.matmul(ops, swapped.transpose(1, 0, 2), out=product.transpose(1, 0, 2))
        values[i] = product.transpose(0, 2, 1)

    def slab(worker: int, j: int) -> None:
        lines = scratch[worker, 0].reshape(nv1, n1, nv2)
        lines[...] = values[:, j].transpose(1, 0, 2)
        np.matmul(ops, lines, out=values[:, j].transpose(1, 0, 2))

    split_parts(row, n1)
    split_parts(slab, n2)


def advect_x(f: PhaseField, dt: float, *, in_place: bool = False) -> tuple[PhaseField, float]:
    """Exact-in-time streaming update f(x, xi) <- f(x - xi dt, xi).

    Per x-axis, each velocity slice is shifted by a uniform displacement
    with periodic cubic-spline interpolation, whose operators are built
    once per (grids, dt) and cached.  A 1-d state is multiplied by the
    Fourier transfer (_stream_transfer) between a real-to-complex FFT and
    its inverse.  A 2-d state is multiplied by the equivalent real
    circulant matrices (_stream_operators) in two passes of small GEMMs,
    one per x-axis (_stream_2d).  Each slice keeps its mass to roundoff;
    the returned float is the (tiny) mass added by clipping overshoot.
    A non-finite dt is rejected.  The stream writes over ``f`` with
    ``in_place``, else over a copy (see grids.state_to_write), and returns
    the state it wrote.
    """
    if not np.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    f = state_to_write(f, in_place)
    if f.x_grid.dimension == 1:
        n_x = f.x_grid.n_x
        transfer = _stream_transfer(f.x_grid, f.v_grid, dt)
        spectrum = np.fft.rfft(f.values, axis=0)
        spectrum *= transfer[: n_x // 2 + 1]
        np.fft.irfft(spectrum, n=n_x, axis=0, out=f.values)
    else:
        _stream_2d(f.values, _stream_operators(f.x_grid, f.v_grid, dt))
    return f, _clip_negative(f.values, f.x_grid.cell_volume * f.v_grid.weight)


@cached_operator
def _spline_curvature_operator(n: int, h: float) -> np.ndarray:
    """Dense K with M = K f: second derivatives of the natural cubic spline.

    The natural spline through n samples at spacing h has M_0 = M_{n-1} = 0
    and M_{i-1} + 4 M_i + M_{i+1} = 6 (f_{i-1} - 2 f_i + f_{i+1}) / h^2
    inside, so K = 6/h^2 A^{-1} D_2 is the same for every row of a velocity
    axis.  A^{-1} D_2 comes from the tridiagonal (Thomas) recurrence on the
    interior (1, 4, 1) rows, applied to all n columns of D_2 at once:
    forward elimination r_i = (D_2[i] - r_{i-1}) / p_i with pivots
    p_i = 4 - c_{i-1} and c_i = 1 / p_i (c_0 = 0, r_0 = 0), then back
    substitution r_i -= c_i r_{i+1}.  Rows 0 and n - 1 stay 0.
    """
    k = np.zeros((n, n))
    i = np.arange(1, n - 1)
    k[i, i - 1] = k[i, i + 1] = 1.0
    k[i, i] = -2.0
    c = np.zeros(n)
    for row in range(1, n - 1):
        pivot = 4.0 - c[row - 1]
        c[row] = 1.0 / pivot
        k[row] -= k[row - 1]
        k[row] /= pivot
    for row in range(n - 3, 0, -1):
        k[row] -= c[row] * k[row + 1]
    # Fortran order, so the K.T that the 1-d kick multiplies by is C-ordered.
    return np.asfortranarray(k * (6.0 / h**2))


def _shift_weights(
    sigma: np.ndarray, n: int, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole-cell shifts, stencil weights and edge flags for shifts ``sigma``.

    Output node j samples a row's natural spline at g = j - sigma, which
    lies in [j - c, j - c + 1] at offset t = c - sigma, with c = ceil(sigma):
    out[j] = w0 f[j-c] + w1 f[j-c+1] + w2 M[j-c] + w3 M[j-c+1], with M the
    spline's second derivatives.  Returns c, the weights (4, sigma.size) and
    the edge flags.  A zero shift has weights exactly (1, 0, 0, 0).
    """
    c = np.ceil(sigma)
    t = c - sigma
    linear = np.array([1.0 - t, t])
    weights = np.concatenate([linear, (h * h / 6.0) * (linear**3 - linear)])
    # Node n - 1 + c samples g = n - 1 + t, on the box edge when t = 0 and
    # rounded onto it when t is below half an ulp of n - 1: either way it
    # takes f[n - 1], as evaluating at the rounded g would.
    on_edge = (n - 1 + c) - sigma <= n - 1
    return c, weights, on_edge


def _shift_basis(n: int, h: float, c: int, transposed: bool) -> np.ndarray:
    """The natural-spline shift by whole-cell part c, as 5 flat n x n matrices.

    The shift operator S with out = S f is w0 B0 + w1 B1 + w2 B2 + w3 B3 +
    edge B4 (see _shift_weights): B0 and B1 pick f[j - c] and f[j - c + 1]
    for every output node j inside the box, B2 and B3 the matching rows of
    K, and B4 is the edge node's f[n - 1].  With ``transposed`` each B is
    transposed, so the same weights give S^T.
    """
    k = _spline_curvature_operator(n, h)
    basis = np.zeros((5, n, n))
    j = np.arange(max(c, 0), min(n - 1 + c, n))  # output nodes inside the box
    basis[0, j, j - c] = 1.0
    basis[1, j, j - c + 1] = 1.0
    basis[2, j] = k[j - c]
    basis[3, j] = k[j - c + 1]
    if 0 <= n - 1 + c < n:
        basis[4, n - 1 + c, n - 1] = 1.0
    if transposed:
        basis = basis.transpose(0, 2, 1)
    return basis.reshape(5, n * n)  # a C-ordered copy when transposed


@cached_operator
def _stacked_shift_basis(n: int, h: float, lo: int, hi: int, transposed: bool) -> np.ndarray:
    """The _shift_basis of every whole-cell shift lo..hi, stacked.

    Shape (5 (hi - lo + 1), n * n): rows 5 (c - lo) to 5 (c - lo) + 4 are
    the basis of shift c.
    """
    return np.concatenate([_shift_basis(n, h, c, transposed) for c in range(lo, hi + 1)])


def _shift_coefficients(
    sigma: np.ndarray, n: int, h: float, transposed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Every node's shift operator S (or S^T) as coef @ basis; returns both.

    ``basis`` is _stacked_shift_basis from the least to the greatest
    whole-cell shift in ``sigma``.  Row i of coef holds node i's 5
    coefficients, the stencil's 4 weights and the edge flag (see
    _shift_weights), in the 5 columns of its own shift and 0 elsewhere, so
    row i of coef @ basis is node i's flat n x n operator.
    """
    c, weights, on_edge = _shift_weights(sigma, n, h)
    lo, hi = int(c.min()), int(c.max())
    coef = np.zeros((c.size, hi - lo + 1, 5))
    coef[np.arange(c.size), (c - lo).astype(np.intp)] = np.vstack([weights, on_edge]).T
    return coef.reshape(c.size, -1), _stacked_shift_basis(n, h, lo, hi, transposed)


def _kick_axis(values: np.ndarray, sigma: np.ndarray, h: float) -> None:
    """Shift the velocity row of every node of a 1-d state by its own sigma,
    over the state itself.

    ``values`` is (spatial node, velocity node) and ``sigma`` holds one
    displacement in cells per spatial node.  The row's natural spline is a
    2-point stencil in f and in its second derivatives M (_shift_weights).
    Positions outside [0, n - 1] give 0 (outflow).  A zero shift reproduces
    the row bitwise.

    M is one matrix product per block of consecutive rows, each block of at
    most KICK_SCRATCH_BYTES and KICK_BLOCK_MULADDS.  The stencil is then
    evaluated once for every row and every offset k = j - c < n - 1, and
    the rows of each distinct c copy the offsets that land in the box to
    their output nodes.  Every other node stays 0, except the edge node.
    Every read of ``values`` comes before the first write.
    """
    n = values.shape[-1]
    curvature_t = _spline_curvature_operator(n, h).T
    c, weights, on_edge = _shift_weights(sigma, n, h)
    fit = KICK_SCRATCH_BYTES // (n * values.itemsize)
    block = max(1, min(fit, KICK_BLOCK_MULADDS // (n * n)))
    blocks = -(-len(values) // block)  # the fewest that fit
    step = -(-len(values) // blocks)  # rows in each, evened out
    m = np.empty(values.shape)
    for r0 in range(0, len(values), step):
        np.matmul(values[r0 : r0 + step], curvature_t, out=m[r0 : r0 + step])
    w = weights[:, :, None]
    term = w[0] * values[:, :-1]
    term += w[1] * values[:, 1:]
    term += w[2] * m[:, :-1]
    term += w[3] * m[:, 1:]
    last = values[:, n - 1].copy()  # the edge node's source, read before the fill
    values.fill(0.0)
    for s in range(int(np.minimum.reduce(c)), int(np.maximum.reduce(c)) + 1):
        rows = (c == s).nonzero()[0]
        lo, hi = max(s, 0), min(n - 1 + s, n)  # output nodes inside the box
        if lo < hi:
            values[rows, lo:hi] = term[rows, lo - s : hi - s]
        edge = n - 1 + s
        if 0 <= edge < n:
            rows = rows[on_edge[rows]]
            values[rows, edge] = last[rows]


def _kick_2d(values: np.ndarray, sigma: np.ndarray, h: float) -> None:
    """Shift the velocity slab of every node of a 2-d state by its own sigma,
    over the state itself.

    ``values`` is (x1, x2, v1, v2), C-ordered, and ``sigma`` (2, x1, x2) in
    cells.  Each node's kick is S1 f S2^T with S_b its shift operator along
    v_b, v1 first, computed a block of nodes at a time.  Per
    axis, the nodes' coefficients and the stacked basis of their
    whole-cell shifts are built once per kick (_shift_coefficients), so a
    block's operators are one matrix product: its rows of coef times the
    basis.  The blocks are split over worker threads, and the workers'
    blocks together hold at most KICK_SCRATCH_BYTES: the fewest blocks
    that fit, evened out, so none holds more nodes than the state.  Each
    worker has two block buffers, one for a block's operators and one for
    its half-kicked slabs.  A block's first product reads its slabs into
    the half-kicked buffer before the second writes over them.
    """
    n = values.shape[-1]
    slabs = values.reshape(-1, n, n)
    coef1, basis1 = _shift_coefficients(sigma[0].reshape(-1), n, h, transposed=False)
    coef2, basis2_t = _shift_coefficients(sigma[1].reshape(-1), n, h, transposed=True)
    block = max(1, KICK_SCRATCH_BYTES // (kernel_workers(len(slabs)) * n * n * values.itemsize))
    blocks = -(-len(slabs) // block)  # the fewest that fit
    block = -(-len(slabs) // blocks)  # nodes in each, evened out
    scratch = np.empty((kernel_workers(blocks), 2, block, n, n))

    def kick(worker: int, b: int) -> None:
        r = slice(b * block, (b + 1) * block)
        k = len(coef1[r])
        ops, kicked = scratch[worker, :, :k]
        flat = ops.reshape(k, n * n)
        np.matmul(coef1[r], basis1, out=flat)
        np.matmul(ops, slabs[r], out=kicked)
        np.matmul(coef2[r], basis2_t, out=flat)
        np.matmul(kicked, ops, out=slabs[r])

    split_parts(kick, blocks)


def advect_v(
    f: PhaseField, acceleration: np.ndarray, dt: float, *, in_place: bool = False
) -> tuple[PhaseField, float]:
    """Kick update f(x, xi) <- f(x, xi - a(x) dt), zero outside the box.

    Natural cubic splines along each velocity axis; the shift is uniform
    along each row, so the interpolant is a 2-point stencil in f and in the
    spline's second derivatives, which one cached dense operator gives.  A
    1-d state evaluates that stencil once for all rows, and the rows of each
    whole-cell shift copy what lands in the box (_kick_axis).  In 2-d each
    node's velocity slab is kicked as two small matrix products with its
    shift operators (_kick_2d).  The kick writes over ``f`` with
    ``in_place``, else over a copy (see grids.state_to_write), so a 2-d kick
    in place allocates only its scratch, a few times KICK_SCRATCH_BYTES; a
    1-d kick also takes a state-sized curvature and stencil.  Any shift is
    handled; only displacements larger than the whole velocity extent are
    rejected (that is a configuration error, not a numerical one).  Returns
    the state it wrote and the mass added by clipping overshoot.
    """
    d = f.x_grid.dimension
    acceleration = np.asarray(acceleration, dtype=float)
    if acceleration.shape != (d,) + f.x_grid.shape:
        raise ValueError(
            f"acceleration shape {acceleration.shape} != {(d,) + f.x_grid.shape}"
        )
    span = 2.0 * f.v_grid.v_max
    worst = float(np.maximum.reduce(np.abs(acceleration), axis=None)) * abs(dt)
    if not worst <= span:  # also rejects a non-finite field
        raise ValueError(
            f"velocity displacement {worst:g} exceeds the grid extent {span:g}; "
            "the field or dt is misconfigured"
        )
    h_v = f.v_grid.h_v
    sigma = acceleration * (dt / h_v)
    f = state_to_write(f, in_place)
    if d == 1:
        _kick_axis(f.values, sigma[0], h_v)
    else:
        _kick_2d(f.values, sigma, h_v)
    return f, _clip_negative(f.values, f.x_grid.cell_volume * f.v_grid.weight)


# ---------------------------------------------------------------------------
# One full step and observation.
# ---------------------------------------------------------------------------


def observe(
    f: PhaseField,
    params: SimulationParams,
    euler_velocity=None,
    clipped_mass: float = 0.0,
    report: FieldSolveReport | None = None,
) -> DiagnosticsRecord:
    """Evaluate diagnostics on f with a fresh field solve at f.time."""
    macro = moments(f)
    potential = None
    if params.field_mode != "none":
        potential, fresh = solve_field(
            f.x_grid, macro.rho, params.epsilon, mode=params.field_mode
        )
        if report is None:
            report = fresh
    return build_record(
        f,
        macro,
        potential,
        euler_velocity=euler_velocity,
        clipped_mass=clipped_mass,
        report=report,
    )


def _advance(f: PhaseField, params: SimulationParams) -> tuple[float, FieldSolveReport | None]:
    """One step, written over ``f``: the stream, the kick and the BGK
    update each run in place.  Returns the mass added by clipping and the
    half-step field report.
    """
    dt = params.dt
    _, clipped = advect_x(f, 0.5 * dt, in_place=True)
    report = None
    if params.field_mode != "none":
        macro = moments(f)
        potential, report = solve_field(
            f.x_grid, macro.rho, params.epsilon, mode=params.field_mode
        )
        _, c = advect_v(f, potential.grad, dt, in_place=True)
        clipped += c
    if params.collision.kind == "bgk":
        bgk_collide(f, params.collision.tau, dt, in_place=True)
    _, c = advect_x(f, 0.5 * dt, in_place=True)
    clipped += c
    return clipped, report


# ---------------------------------------------------------------------------
# Full trajectory orchestration.
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Per-step diagnostics records, per-step stress moments and snapshots.

    ``records`` holds one DiagnosticsRecord per step, step 0 included, and
    ``stress`` the matching (d, d) second moments of f.  With
    ``snapshot_stride > 0``, ``snapshots`` holds copies of the state at
    step 0, at every multiple of the stride and at the last step.  With a
    stride of 0 it holds only the final state (the ``final`` object itself,
    the initial state for a zero-step run).  ``snapshot_steps`` gives the
    step of each snapshot.  The run overwrote its state array every step,
    and ``final.values`` is that array, not a copy.
    """

    params: SimulationParams
    records: list[DiagnosticsRecord]
    stress: np.ndarray
    snapshots: list[PhaseField]
    snapshot_steps: list[int]
    final: PhaseField


def run(params: SimulationParams) -> Trajectory:
    """March from t = 0 to t_end, observing every step.

    The one path from a scenario to a trajectory: the per-step records and
    stress moments, the snapshots and the final state.  With
    ``params.euler_reference`` an Euler reference starts from the initial
    flow, steps with ``params.dt`` and is co-advanced to each record time;
    the records then include the current-error columns and the modulated
    energy is taken against the reference flow.  Snapshots follow
    ``params.snapshot_stride`` (see Trajectory); a stride of 0 copies no
    state.  Deterministic: identical params give bit-identical trajectories.

    The run writes each step over its initial state (see _advance), so it
    holds one phase-space state through each step, BGK or not, and no step
    allocates a state.  ``final`` is that state.
    """
    x_grid = params.x_grid()
    v_grid = params.v_grid()
    f = make_initial_condition(params.ic, x_grid, v_grid, params.epsilon)
    euler_reference = None
    if params.euler_reference:
        euler_reference = EulerReference(
            x_grid, reference_flow(params.ic, x_grid), params.dt
        )

    records: list[DiagnosticsRecord] = []
    stress: list[np.ndarray] = []
    snapshots: list[PhaseField] = []
    snapshot_steps: list[int] = []

    def observe_and_store(state: PhaseField, clipped: float, report) -> None:
        u = None
        if euler_reference is not None:
            u = euler_reference.advance_to(state.time).u
        records.append(observe(state, params, u, clipped, report))
        # Kept per step: the benchmark's traced run counts these calls.
        stress.append(stress_moments(state))

    stride = params.snapshot_stride
    observe_and_store(f, 0.0, None)
    if stride > 0:
        snapshots.append(f.copy())
        snapshot_steps.append(0)

    n = params.n_steps
    for k in range(1, n + 1):
        clipped, report = _advance(f, params)
        f.time = k * params.dt
        observe_and_store(f, clipped, report)
        if stride > 0 and (k == n or k % stride == 0):
            snapshots.append(f.copy())
            snapshot_steps.append(k)
    if stride == 0:
        snapshots.append(f)
        snapshot_steps.append(n)

    return Trajectory(
        params=params,
        records=records,
        stress=np.stack(stress),
        snapshots=snapshots,
        snapshot_steps=snapshot_steps,
        final=f,
    )
