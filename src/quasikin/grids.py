"""Uniform grids, spectral calculus, velocity moments, and snapshot IO.

Spatial fields live on the unit torus [0,1)^d (d in {1,2}) sampled at
``x_j = j/n_x``; velocity space is the symmetric box [-v_max, v_max]^d with
cell-centered nodes and uniform midpoint weights ``h_v^d``.  Differential
operators are spectral: exact for band-limited data, with the Nyquist mode
zeroed on odd derivatives.  They are applied as cached, read-only real
n_x x n_x matrices along each axis (``op f`` in 1-d, ``op f op^T`` in 2-d),
built in closed form from the real orthonormal Fourier basis Q: the first
derivative D1, the second derivative D2, the mixed derivative D1 f D1^T, and
the inverse Laplacian, one matrix in 1-d and Q((Q^T f Q) * S)Q^T in 2-d.  At
these sizes (64 points, 32^2) a small matrix product costs a fraction of
an FFT round trip's call overhead.

Velocity moments are BLAS matrix products against a cached feature matrix
(stacked over the first spatial axis in 2-d), and so are the spectral
operators above; the velocity kick applies its spline operator and the BGK
match its small Newton systems through BLAS and LAPACK as well.  Other
reductions go through numpy, whose pairwise summation has a fixed order.
What is promised: runs are bit-reproducible for the same build, input and
pool size.  What is checked beyond that: tests/test_thread_determinism.py
shows byte-identical diagnostics at 1 and 2 pool threads on a 2-d and a 1-d
BGK scenario with OpenBLAS 0.3.31.  Other BLAS builds may split their sums
differently across threads.

The 2-d phase-space kernels (the stream, the kick, the clip and the BGK
product and blend) split their rows or node blocks over KERNEL_WORKERS
threads of their own, one per CPU the process may run on, with
``split_parts``.  Each part does the operations one thread would, so their
bytes do not depend on that count (tests/test_kernel_threads.py).  The
stream, the kick and the BGK update write over the state that
``state_to_write`` gives them: with ``in_place`` their input itself, so a
run advances its state inside the one array it starts with, else a
C-ordered copy of it.

Every cached operator follows one rule, ``cached_operator``: an LRU cache
of OPERATOR_CACHE_SIZE entries per builder, whose results are read-only,
so one array serves every call with the same key and no caller can change
it.  The bound comes from measured traffic (scripts/cache_traffic.py).
Over each shipped scenario, and each sweep with its members in one
process, no builder held more than 4 entries: the four members of
sweep_quasineutral_d1 each have their own velocity grid.  Within one run
no builder needs more than 2, the 2-d kick's stacked shift bases, plain
and transposed.  8 holds all of that, with room for a kick whose shifts
cross more whole cells.
"""

from __future__ import annotations

import _thread
import itertools
import json
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "GridMismatchError",
    "TorusGrid",
    "VelocityGrid",
    "PhaseField",
    "MacroFields",
    "moments",
    "stress_moments",
    "maxwellian",
    "spectral_gradient",
    "spectral_divergence",
    "spectral_hessian",
    "inverse_laplacian_zero_mean",
    "real_fourier_basis",
    "grid_integral",
    "l2_norm",
    "random_bandlimited_field",
    "write_snapshot",
    "read_snapshot",
    "split_parts",
]

TWO_PI = 2.0 * np.pi
OPERATOR_CACHE_SIZE = 8  # entries per cached builder; see the module docstring


def _usable_cpus() -> int:
    """CPUs this process may run on; all of the host's where the OS cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


KERNEL_WORKERS = _usable_cpus()  # threads a 2-d phase-space kernel may run on


class GridMismatchError(ValueError):
    """Fields defined on incompatible grids were combined."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on the unit torus [0,1)^d.

    Parameters
    ----------
    dimension : int
        Spatial dimension, 1 or 2.
    n_x : int
        Points per axis; must be even and at least 4 so the spectral
        derivative convention (zeroed Nyquist mode on odd derivatives) is
        well defined.
    """

    dimension: int
    n_x: int

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.n_x < 4 or self.n_x % 2 != 0:
            raise ValueError(f"n_x must be even and >= 4, got {self.n_x}")

    # Cached on the instance, so after the first read they cost no call.
    @cached_property
    def h_x(self) -> float:
        return 1.0 / self.n_x

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.n_x,) * self.dimension

    @cached_property
    def cell_volume(self) -> float:
        return self.h_x**self.dimension

    def axis_coords(self) -> np.ndarray:
        """Grid coordinates along one axis: j * h_x."""
        return np.arange(self.n_x) * self.h_x

    def coords(self) -> tuple[np.ndarray, ...]:
        """Meshgrid coordinates, 'ij' indexing, one array per axis."""
        axes = (self.axis_coords(),) * self.dimension
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def wavenumbers_int(self) -> np.ndarray:
        """Integer wavenumbers in FFT layout (0, 1, ..., -n/2, ..., -1)."""
        return _wavenumbers_int(self.n_x)


def _read_only(result):
    """Mark an array, or each array of a tuple or NamedTuple, read-only."""
    for array in result if isinstance(result, tuple) else (result,):
        array.flags.writeable = False
    return result


def cached_operator(build):
    """The caching rule: ``build`` under an LRU cache of OPERATOR_CACHE_SIZE
    entries, its results read-only.

    A hit is one call of the C-level cache object, with no Python frame in
    front; only a miss runs ``build`` and marks its result read-only.
    """

    @wraps(build)
    def build_read_only(*args, **kwargs):
        return _read_only(build(*args, **kwargs))

    return lru_cache(maxsize=OPERATOR_CACHE_SIZE)(build_read_only)


def kernel_workers(parts: int) -> int:
    """Threads that split_parts runs ``parts`` parts on: KERNEL_WORKERS, at most one per part."""
    return max(1, min(KERNEL_WORKERS, parts))


def split_parts(work, parts: int) -> None:
    """Call ``work(worker, part)`` for every part in 0..parts-1, on
    kernel_workers(parts) threads.

    Worker 0 is the calling thread and starts with part 0; the others are
    started for this call, and each worker takes the next part nobody has
    taken, so the split balances itself.  The parts must be independent:
    the caller builds every cached operator and allocates the scratch
    buffers (one per worker) before the split, and each part writes only
    its own slice of the output, so the result does not depend on which
    worker ran which part.  Returns once every worker is done; a worker's
    exception is raised here.
    """
    count = kernel_workers(parts) - 1
    if not count:
        for part in range(parts):
            work(0, part)
        return
    taken = itertools.count(1).__next__
    failures = []

    def drain(worker: int, done=None) -> None:
        try:
            part = 0 if worker == 0 else taken()
            while part < parts:
                work(worker, part)
                part = taken()
        except BaseException as exc:
            failures.append(exc)
        finally:
            if done is not None:
                done.release()

    # Bare threads: the caller need not wait for each to start, as
    # threading.Thread.start does (about 0.2 ms on a 2-core host).
    done = []
    for worker in range(1, count + 1):
        done.append(_thread.allocate_lock())
        done[-1].acquire()
        _thread.start_new_thread(drain, (worker, done[-1]))
    drain(0)
    for lock in done:
        lock.acquire()
    if failures:
        raise failures[0]


def _wavenumbers_int(n_x: int) -> np.ndarray:
    return np.rint(np.fft.fftfreq(n_x) * n_x)


@dataclass(frozen=True)
class VelocityGrid:
    """Cell-centered uniform grid on [-v_max, v_max]^d.

    Nodes are ``xi_k = (k - (n_v - 1)/2) * h_v`` with ``h_v = 2 v_max/n_v``;
    the node set is exactly symmetric under ``xi -> -xi`` (pairs are exact
    floating-point negations) and carries midpoint weights ``h_v^d``.
    """

    dimension: int
    n_v: int
    v_max: float

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.n_v < 4:
            raise ValueError(f"n_v must be >= 4, got {self.n_v}")
        if not (self.v_max > 0.0):
            raise ValueError(f"v_max must be positive, got {self.v_max}")

    @cached_property
    def h_v(self) -> float:
        return 2.0 * self.v_max / self.n_v

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.n_v,) * self.dimension

    @cached_property
    def weight(self) -> float:
        """Quadrature weight per node (midpoint rule)."""
        return self.h_v**self.dimension

    def axis_nodes(self) -> np.ndarray:
        # (k - (n-1)/2) is exact in floating point, so mirrored nodes are
        # exact negations of each other for any h_v.
        return (np.arange(self.n_v) - 0.5 * (self.n_v - 1)) * self.h_v

    def node_mesh(self) -> tuple[np.ndarray, ...]:
        axes = (self.axis_nodes(),) * self.dimension
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def speed_squared(self) -> np.ndarray:
        """|xi|^2 on the velocity mesh."""
        mesh = self.node_mesh()
        out = mesh[0] ** 2
        for m in mesh[1:]:
            out = out + m**2
        return out


@dataclass(eq=False)
class PhaseField:
    """Distribution function f(x, xi) sampled on a phase-space grid.

    ``values`` has shape ``x_grid.shape + v_grid.shape`` (spatial axes first).
    """

    x_grid: TorusGrid
    v_grid: VelocityGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.x_grid.dimension != self.v_grid.dimension:
            raise GridMismatchError(
                f"spatial dimension {self.x_grid.dimension} != velocity "
                f"dimension {self.v_grid.dimension}"
            )
        expected = self.x_grid.shape + self.v_grid.shape
        if self.values.shape != expected:
            raise GridMismatchError(
                f"values shape {self.values.shape} does not match grid shape {expected}"
            )

    @property
    def dimension(self) -> int:
        return self.x_grid.dimension

    @property
    def phase_volume(self) -> float:
        return self.x_grid.cell_volume * self.v_grid.weight

    def mass(self) -> float:
        return float(self.values.sum()) * self.phase_volume

    def copy(self) -> "PhaseField":
        return PhaseField(self.x_grid, self.v_grid, self.values.copy(), self.time)


def state_to_write(f: PhaseField, in_place: bool) -> PhaseField:
    """The state a step kernel writes over: ``f`` itself if ``in_place``,
    else a new state holding a C-ordered float64 copy of ``f.values``.

    The kernels write through reshaped views of the values, and reshaping
    any other layout gives a copy that the result would silently land in.
    So ``in_place`` on values that are not a writeable, C-contiguous
    float64 array raises ValueError naming their dtype, layout and
    writeable flag, before anything is written.
    """
    values = f.values
    if not in_place:
        return PhaseField(f.x_grid, f.v_grid, np.array(values, np.float64, order="C"), f.time)
    if not (values.dtype == np.float64 and values.flags.c_contiguous and values.flags.writeable):
        raise ValueError(
            "in_place needs f.values to be a writeable, C-contiguous float64 array; "
            f"got dtype {values.dtype}, C-contiguous {values.flags.c_contiguous}, "
            f"writeable {values.flags.writeable}"
        )
    return f


@dataclass(eq=False)
class MacroFields:
    """Velocity moments on the spatial grid.

    ``rho`` is the number density, ``current`` the momentum density with
    shape ``(d,) + grid.shape``, and ``e_kin`` the kinetic energy density
    ``(1/2) sum |xi|^2 f h_v^d``.
    """

    grid: TorusGrid
    rho: np.ndarray
    current: np.ndarray
    e_kin: np.ndarray


@cached_operator
def _feature_matrix(v_grid: VelocityGrid) -> np.ndarray:
    """Velocity features times h_v^d, shape (n_v^d, K).

    Columns: 1, xi_a (a < d), |xi|^2/2, then xi_a xi_b for a <= b, so the
    first d + 2 columns give (rho, J, e_kin) and the rest the stress.
    """
    mesh = [m.ravel() for m in v_grid.node_mesh()]
    d = v_grid.dimension
    columns = [np.ones_like(mesh[0])] + mesh + [0.5 * v_grid.speed_squared().ravel()]
    columns += [mesh[a] * mesh[b] for a in range(d) for b in range(a, d)]
    return np.stack(columns, axis=1) * v_grid.weight


def _feature_moments(f: PhaseField, columns: slice) -> np.ndarray:
    """Moments of f against a column slice of the feature matrix.

    Returns shape (n_columns,) + spatial.  In 2-d the product is stacked
    over the first spatial axis: each BLAS call is then small enough to run
    on one thread.
    """
    feats = _feature_matrix(f.v_grid)[:, columns]
    d = f.x_grid.dimension
    lead = f.x_grid.n_x if d == 2 else 1
    out = f.values.reshape(lead, -1, feats.shape[0]) @ feats
    return out.reshape(f.x_grid.shape + (feats.shape[1],)).transpose(d, *range(d))


def moments(f: PhaseField) -> MacroFields:
    """Discrete velocity moments (rho, J, e_kin) with midpoint weights.

    rho[j]  = sum_k f[j,k] h_v^d
    J[j]    = sum_k xi_k f[j,k] h_v^d
    e_kin[j]= (1/2) sum_k |xi_k|^2 f[j,k] h_v^d
    """
    d = f.x_grid.dimension
    m = _feature_moments(f, slice(0, d + 2))
    return MacroFields(f.x_grid, m[0], m[1 : 1 + d], m[d + 1])


def stress_moments(f: PhaseField) -> np.ndarray:
    """Second moments S_ab = sum_k xi_a xi_b f h_v^d, shape (d, d) + spatial."""
    d = f.x_grid.dimension
    pairs = _feature_moments(f, slice(d + 2, None))
    if d == 1:
        return pairs[None]
    return pairs[[[0, 1], [1, 2]]]  # (xx, xy, yy) into [[xx, xy], [xy, yy]]


def maxwellian(v_grid: VelocityGrid, rho: float, u, theta: float) -> np.ndarray:
    """Sampled Maxwellian rho (2 pi theta)^(-d/2) exp(-|xi-u|^2 / (2 theta)).

    ``u`` is a length-d sequence.  Rejects theta <= 0.
    """
    if not (theta > 0.0):
        raise ValueError(f"temperature must be positive, got {theta}")
    u = np.asarray(u, dtype=float).reshape(v_grid.dimension)
    mesh = v_grid.node_mesh()
    q = np.zeros(v_grid.shape)
    for a in range(v_grid.dimension):
        q += (mesh[a] - u[a]) ** 2
    norm = rho * (TWO_PI * theta) ** (-0.5 * v_grid.dimension)
    return norm * np.exp(-q / (2.0 * theta))


# ---------------------------------------------------------------------------
# Spectral calculus on the torus.
# ---------------------------------------------------------------------------


def _check_spatial(grid: TorusGrid, field: np.ndarray) -> None:
    if field.shape != grid.shape:
        raise GridMismatchError(f"field shape {field.shape} != grid shape {grid.shape}")


class _SpectralOperators(NamedTuple):
    """Real n_x x n_x operators of the spectral calculus on one axis."""

    basis: np.ndarray  # Q: real orthonormal Fourier basis, one mode per column
    d1: np.ndarray  # first derivative, Nyquist mode zeroed
    d2: np.ndarray  # second derivative, full -(2 pi k)^2 symbol
    inverse_laplacian: np.ndarray  # 1-d inverse of d2 on zero-mean fields
    inverse_symbol: np.ndarray  # 2-d: -1/|2 pi k|^2 in Q coordinates, 0 at k = 0


@cached_operator
def real_fourier_basis(n_x: int) -> tuple[np.ndarray, np.ndarray]:
    """Real orthonormal Fourier basis Q on n_x points and each column's |k|.

    Columns: the constant, cos(2 pi k x_j) and sin(2 pi k x_j) for
    k = 1 .. n_x/2 - 1, then the Nyquist mode (-1)^j, scaled so that
    Q^T Q = I.  A real symbol s(|k|) acts along an axis as Q diag(s) Q^T.
    Built in closed form.
    """
    half = n_x // 2
    k = np.arange(1, half)
    # j k is reduced mod n_x first, so every angle lies in [0, 2 pi).
    angle = (TWO_PI / n_x) * (np.outer(np.arange(n_x), k) % n_x)
    q = np.empty((n_x, n_x))
    q[:, 0] = 1.0 / np.sqrt(n_x)
    q[:, 1:half] = np.sqrt(2.0 / n_x) * np.cos(angle)
    q[:, half:-1] = np.sqrt(2.0 / n_x) * np.sin(angle)
    q[:, -1] = q[:, 0] * (1 - 2 * (np.arange(n_x) % 2))
    modes = np.concatenate(([0], k, k, [half]))
    return q, modes


@cached_operator
def _spectral_operators(n_x: int) -> _SpectralOperators:
    """The operators for n_x points per axis."""
    q, modes = real_fourier_basis(n_x)
    half = n_x // 2
    w = TWO_PI * modes
    # d/dx cos = -w sin and d/dx sin = w cos, so D1 = A - A^T with
    # A = sum_k w cos_k sin_k^T; the Nyquist column has no partner.
    a = (q[:, 1:half] * w[1:half]) @ q[:, half:-1].T
    k2 = w[:, None] ** 2 + w[None, :] ** 2
    k2[0, 0] = 1.0
    symbol = -1.0 / k2
    symbol[0, 0] = 0.0
    return _SpectralOperators(
        basis=q,
        d1=a - a.T,
        d2=(q * -(w**2)) @ q.T,
        inverse_laplacian=(q * symbol[0]) @ q.T,
        inverse_symbol=symbol,
    )


def _along_axis(op: np.ndarray, field: np.ndarray, axis: int) -> np.ndarray:
    """``op`` applied along one axis of a 1-d or 2-d field.

    One sample along that axis is subtracted first.  Every operator here
    maps constants to zero, so this changes nothing but roundoff, and a
    field constant along the axis maps to exactly zero, as it did under
    the FFT (a plain product leaves a row-sum residue of ~1e-14).
    """
    if axis == 0:
        return op @ (field - field[:1])
    return (field - field[:, :1]) @ op.T


def spectral_gradient(grid: TorusGrid, field: np.ndarray) -> np.ndarray:
    """Gradient of a periodic field, shape (d,) + grid.shape."""
    _check_spatial(grid, field)
    d1 = _spectral_operators(grid.n_x).d1
    out = np.empty((grid.dimension,) + grid.shape)
    for a in range(grid.dimension):
        out[a] = _along_axis(d1, field, a)
    return out


def spectral_divergence(grid: TorusGrid, vec: np.ndarray) -> np.ndarray:
    """Divergence of a vector field with shape (d,) + grid.shape."""
    if vec.shape != (grid.dimension,) + grid.shape:
        raise GridMismatchError(
            f"vector shape {vec.shape} != {(grid.dimension,) + grid.shape}"
        )
    d1 = _spectral_operators(grid.n_x).d1
    out = _along_axis(d1, vec[0], 0)
    for a in range(1, grid.dimension):
        out += _along_axis(d1, vec[a], a)
    return out


def spectral_hessian(grid: TorusGrid, field: np.ndarray) -> np.ndarray:
    """Hessian D^2 field, shape (d, d) + grid.shape.

    Diagonal entries use the full -(2 pi k)^2 symbol; mixed entries compose
    two first derivatives (Nyquist zeroed on each axis), D1 f D1^T.
    """
    _check_spatial(grid, field)
    ops = _spectral_operators(grid.n_x)
    d = grid.dimension
    out = np.empty((d, d) + grid.shape)
    for a in range(d):
        out[a, a] = _along_axis(ops.d2, field, a)
    if d == 2:
        mixed = _along_axis(ops.d1, _along_axis(ops.d1, field, 0), 1)
        out[0, 1] = mixed
        out[1, 0] = mixed
    return out


def inverse_laplacian_zero_mean(grid: TorusGrid, field: np.ndarray) -> np.ndarray:
    """Solve Laplace(phi) = field with zero-mean phi.

    Rejects input whose mean exceeds 1e-10 in magnitude (no solution exists
    on the torus); callers must remove the mean themselves if they consider
    it a discretization artifact.  In 1-d one cached matrix; in 2-d
    Q ((Q^T f Q) * S) Q^T with S = -1/|2 pi k|^2 (0 at k = 0).
    """
    _check_spatial(grid, field)
    mean = float(np.add.reduce(field, axis=None)) / field.size
    if abs(mean) > 1e-10:
        raise ValueError(f"inverse Laplacian needs zero-mean input, got mean {mean:g}")
    ops = _spectral_operators(grid.n_x)
    if grid.dimension == 1:
        return _along_axis(ops.inverse_laplacian, field, 0)
    q = ops.basis
    coeff = q.T @ (field - field[0, 0]) @ q
    return q @ (coeff * ops.inverse_symbol) @ q.T


def grid_integral(grid: TorusGrid, field: np.ndarray) -> float:
    _check_spatial(grid, field)
    return float(np.add.reduce(field, axis=None)) * grid.cell_volume


def l2_norm(grid: TorusGrid, field: np.ndarray) -> float:
    """Discrete L^2(torus) norm; accepts component-stacked fields too."""
    if field.shape != grid.shape and field.shape[1:] != grid.shape:
        raise GridMismatchError(f"unexpected field shape {field.shape}")
    return float(np.sqrt(np.add.reduce(field**2, axis=None) * grid.cell_volume))


def random_bandlimited_field(
    grid: TorusGrid, max_mode: int, rng: np.random.Generator, amplitude: float = 1.0
) -> np.ndarray:
    """Random real zero-mean field with integer modes |k_a| <= max_mode.

    Normalized so max|field| = amplitude.  Useful for property tests and
    randomized initial data; fully determined by the supplied generator.
    """
    if max_mode < 1:
        raise ValueError("max_mode must be >= 1")
    if max_mode >= grid.n_x // 2:
        raise ValueError("max_mode must stay below the Nyquist mode")
    spec = np.zeros(grid.shape, dtype=complex)
    k = grid.wavenumbers_int()
    if grid.dimension == 1:
        mask = np.abs(k) <= max_mode
    else:
        mask = (np.abs(k)[:, None] <= max_mode) & (np.abs(k)[None, :] <= max_mode)
    mask[(0,) * grid.dimension] = False
    n_active = int(mask.sum())
    spec[mask] = rng.standard_normal(n_active) + 1j * rng.standard_normal(n_active)
    field = np.fft.ifftn(spec).real
    field -= field.mean()
    peak = float(np.abs(field).max())
    if peak == 0.0:
        return field
    return field * (amplitude / peak)


# ---------------------------------------------------------------------------
# Snapshot IO: raw little-endian float64 (row-major) plus a JSON sidecar.
# ---------------------------------------------------------------------------


def write_snapshot(f: PhaseField, path_base) -> None:
    """Write ``<path_base>.bin`` (raw <f8, row-major) and ``<path_base>.json``."""
    base = Path(path_base)
    base.parent.mkdir(parents=True, exist_ok=True)
    base.with_suffix(".bin").write_bytes(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    manifest = {
        "dimension": f.dimension,
        "n_x": f.x_grid.n_x,
        "n_v": f.v_grid.n_v,
        "v_max": f.v_grid.v_max,
        "time": f.time,
        "field_name": "f",
    }
    base.with_suffix(".json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_snapshot(path_base) -> PhaseField:
    """Round-trip counterpart of :func:`write_snapshot`."""
    base = Path(path_base)
    manifest = json.loads(base.with_suffix(".json").read_text())
    d = int(manifest["dimension"])
    x_grid = TorusGrid(d, int(manifest["n_x"]))
    v_grid = VelocityGrid(d, int(manifest["n_v"]), float(manifest["v_max"]))
    raw = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<f8")
    values = raw.reshape(x_grid.shape + v_grid.shape).copy()
    return PhaseField(x_grid, v_grid, values, time=float(manifest["time"]))
