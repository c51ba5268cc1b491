"""The phase-space kernels against the implementations they replaced.

The velocity kick used to solve the natural-spline system row by row with a
banded solver and to gather its stencil with take_along_axis; the x-stream
rebuilt its spline transfer on every call and transformed with complex
FFTs.  The velocity moments were numpy sums of f times each feature over
the velocity axes, and the BGK match ran its Newton iteration on the full
(nodes, velocity grid) Gaussian.  The spectral calculus on the torus (the
derivatives, the inverse Laplacian, the Euler band limit and Leray
projection, the H^-1 norm of rho - 1) was FFT round trips, and the initial
state was built as one Gaussian over the whole phase space.  Those
implementations are kept below unchanged as oracles.  The rewritten kernels change only the order of
floating-point operations, so they must agree to 1e-13 of the largest
value (about 450 ulps), report the same clipped mass to the same relative
accuracy, still reproduce a state bitwise under a zero shift, and fail on
the same nodes with the same messages.  The BGK match is the exception: it
now runs Newton on the natural parameters, so its path differs from the
oracle's.  It must agree with the oracle run to a tighter residual wherever
the oracle converges, fail the same way where both fail, return the target
moments where only the oracle's path fails, and give the same messages on
fixed failure cases.  The initial state is now a product of per-axis
factors: the 1-d state is byte for byte the dense formula's, and the 2-d
state agrees to 1e-15 of its maximum.  The direct Boltzmann quadrature
rebuilt the pair geometry and two bilinear gathers, at xi' and at xi1', for
every spatial node; it now builds one stencil per angle for a block of
nodes and reads xi1' as the pair transpose of xi'.  Only the grouping of
the work changed, not one floating-point operation, so it must be bitwise
equal to the oracle.  The velocity spline's curvature operator K was a dense
solve of the natural-spline system; it is now the tridiagonal recurrence,
which must agree with the dense solve to 1e-14 of max|K|.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_banded

from quasikin import collision, grids
from quasikin.collision import (
    DIRECT_MAX_NV,
    CollisionConfig,
    CollisionMomentError,
    _project_out_invariants,
    boltzmann_collide_direct,
    match_discrete_maxwellian,
)
from quasikin.diagnostics import quasineutrality_norm
from quasikin.euler import _check_velocity, band_limit, leray_project
from quasikin.grids import (
    TWO_PI,
    GridMismatchError,
    PhaseField,
    TorusGrid,
    VelocityGrid,
    _check_spatial,
    _feature_matrix,
    cached_operator,
    inverse_laplacian_zero_mean,
    moments,
    spectral_divergence,
    spectral_gradient,
    spectral_hessian,
    stress_moments,
)
from quasikin import vlasov
from quasikin.vlasov import (
    WellPreparedIC,
    _b3,
    _clip_negative,
    _stream_operators,
    _stream_transfer,
    advect_v,
    advect_x,
    check_initial_state,
    make_initial_condition,
)

RTOL = 1e-13


# ---------------------------------------------------------------------------
# Oracles: the kernels as they were before the rewrite.
# ---------------------------------------------------------------------------


def _natural_spline_second_derivatives(rows: np.ndarray, h: float) -> np.ndarray:
    """Second derivatives of the natural cubic spline, batched over rows."""
    m, n = rows.shape
    rhs = np.zeros((m, n))
    rhs[:, 1:-1] = 6.0 * (rows[:, :-2] - 2.0 * rows[:, 1:-1] + rows[:, 2:]) / h**2
    ab = np.zeros((3, n))
    ab[0, 2:] = 1.0
    ab[1, :] = 4.0
    ab[1, 0] = ab[1, -1] = 1.0
    ab[2, :-2] = 1.0
    return solve_banded((1, 1), ab, rhs.T).T


def _shift_rows(rows: np.ndarray, sigma: np.ndarray, h: float) -> np.ndarray:
    """Evaluate each row's natural spline at nodes displaced by sigma * h."""
    m, n = rows.shape
    deriv = _natural_spline_second_derivatives(rows, h)
    g = np.arange(n)[None, :] - sigma[:, None]
    inside = (g >= 0.0) & (g <= n - 1.0)
    i = np.clip(np.floor(g), 0, n - 2).astype(np.int64)
    t = g - i
    f_lo = np.take_along_axis(rows, i, axis=1)
    f_hi = np.take_along_axis(rows, i + 1, axis=1)
    m_lo = np.take_along_axis(deriv, i, axis=1)
    m_hi = np.take_along_axis(deriv, i + 1, axis=1)
    one_t = 1.0 - t
    values = (
        one_t * f_lo
        + t * f_hi
        + (h**2 / 6.0) * ((one_t**3 - one_t) * m_lo + (t**3 - t) * m_hi)
    )
    return np.where(inside, values, 0.0)


def oracle_advect_v(f: PhaseField, acceleration: np.ndarray, dt: float):
    d = f.dimension
    n_v = f.v_grid.n_v
    h_v = f.v_grid.h_v
    values = f.values
    for b in range(d):
        moved = np.moveaxis(values, d + b, -1)
        lead_shape = moved.shape[:-1]
        sigma = np.broadcast_to(
            (acceleration[b] * (dt / h_v)).reshape(f.x_grid.shape + (1,) * (d - 1)),
            lead_shape,
        ).reshape(-1)
        shifted = _shift_rows(moved.reshape(-1, n_v), sigma, h_v)
        values = np.moveaxis(shifted.reshape(lead_shape + (n_v,)), -1, d + b)
    values = np.ascontiguousarray(values)
    clipped = _clip_negative(values, f.phase_volume)
    return values, clipped


def oracle_advect_x(f: PhaseField, dt: float):
    d = f.dimension
    n_x = f.x_grid.n_x
    h_x = f.x_grid.h_x
    kappa = 2.0 * np.pi * f.x_grid.wavenumbers_int() / n_x
    beta = (2.0 + np.cos(kappa)) / 3.0
    nodes = f.v_grid.axis_nodes()

    sigma = nodes * (dt / h_x)
    p = np.floor(sigma)
    t = sigma - p
    weights = (
        (t**3 / 6.0)[None, :] * np.exp(-2j * kappa)[:, None]
        + _b3(1.0 - t)[None, :] * np.exp(-1j * kappa)[:, None]
        + _b3(t)[None, :]
        + ((1.0 - t) ** 3 / 6.0)[None, :] * np.exp(1j * kappa)[:, None]
    )
    transfer = np.exp(-1j * np.outer(kappa, p)) * weights / beta[:, None]

    values = f.values
    for a in range(d):
        shape = [1] * (2 * d)
        shape[a] = n_x
        shape[d + a] = f.v_grid.n_v
        spectrum = np.fft.fft(values, axis=a) * transfer.reshape(shape)
        values = np.fft.ifft(spectrum, axis=a).real
    values = values.copy() if values is f.values else values
    clipped = _clip_negative(values, f.phase_volume)
    return values, clipped


def oracle_moments(f: PhaseField):
    """(rho, J, e_kin) as numpy sums over the velocity axes."""
    d = f.dimension
    w = f.v_grid.weight
    vaxes = tuple(range(d, 2 * d))
    rho = f.values.sum(axis=vaxes) * w
    mesh = f.v_grid.node_mesh()
    current = np.empty((d,) + f.x_grid.shape)
    for a in range(d):
        current[a] = (f.values * mesh[a]).sum(axis=vaxes) * w
    e_kin = 0.5 * (f.values * f.v_grid.speed_squared()).sum(axis=vaxes) * w
    return rho, current, e_kin


def oracle_stress_moments(f: PhaseField) -> np.ndarray:
    d = f.dimension
    w = f.v_grid.weight
    vaxes = tuple(range(d, 2 * d))
    mesh = f.v_grid.node_mesh()
    out = np.empty((d, d) + f.x_grid.shape)
    for a in range(d):
        for b in range(a, d):
            s = (f.values * (mesh[a] * mesh[b])).sum(axis=vaxes) * w
            out[a, b] = s
            out[b, a] = s
    return out


def _invariant_table(v_grid: VelocityGrid) -> tuple[np.ndarray, np.ndarray]:
    """Flattened node coordinates (K, d) and collision invariants
    (1, xi, |xi|^2), shape (K, d+2)."""
    nodes = np.stack([m.ravel() for m in v_grid.node_mesh()], axis=1)
    feats = np.empty((nodes.shape[0], v_grid.dimension + 2))
    feats[:, 0] = 1.0
    feats[:, 1 : 1 + v_grid.dimension] = nodes
    feats[:, -1] = (nodes**2).sum(axis=1)
    return nodes, feats


def oracle_match_discrete_maxwellian(
    v_grid: VelocityGrid,
    rho: np.ndarray,
    current: np.ndarray,
    energy2: np.ndarray,
    rtol: float = 1e-13,
    max_iter: int = 60,
) -> np.ndarray:
    """Newton on (log amplitude, u, theta) over the full Gaussian per node."""
    d = v_grid.dimension
    rho = np.asarray(rho, dtype=float)
    current = np.asarray(current, dtype=float).reshape(len(rho), d)
    energy2 = np.asarray(energy2, dtype=float)
    m = len(rho)
    out = np.zeros((m,) + v_grid.shape)

    active = rho > 0.0
    if np.any(rho < 0.0):
        node = int(np.argmin(rho))
        raise CollisionMomentError(f"negative density at node {node}: {rho[node]:g}")
    if not np.any(active):
        return out
    idx = np.nonzero(active)[0]
    r = rho[idx]
    j = current[idx]
    e2 = energy2[idx]

    u = j / r[:, None]
    theta = (e2 / r - (u**2).sum(axis=1)) / d
    if np.any(theta <= 0.0):
        bad = idx[int(np.argmin(theta))]
        raise CollisionMomentError(
            f"non-realizable moments at node {bad}: inferred temperature <= 0"
        )

    nodes, feats = _invariant_table(v_grid)  # (K, d), (K, d+2)
    w = v_grid.weight
    targets = np.concatenate([r[:, None], j, e2[:, None]], axis=1)  # (m', d+2)
    scale = np.maximum(np.abs(targets), r[:, None] * np.maximum(1.0, theta)[:, None])

    log_a = np.log(r) - 0.5 * d * np.log(2.0 * np.pi * theta)

    for _ in range(max_iter):
        diff = nodes[None, :, :] - u[:, None, :]  # (m', K, d)
        q = (diff**2).sum(axis=2)
        vals = np.exp(log_a[:, None] - q / (2.0 * theta[:, None]))  # (m', K)
        mom = (vals @ feats) * w  # (m', d+2)
        resid = mom - targets
        if float(np.abs(resid / scale).max()) <= rtol:
            out[idx] = vals.reshape((len(idx),) + v_grid.shape)
            return out
        # Jacobian of the moment map wrt (log_a, u, theta)
        dlog = np.empty(vals.shape + (d + 2,))
        dlog[..., 0] = 1.0
        dlog[..., 1 : 1 + d] = diff / theta[:, None, None]
        dlog[..., -1] = q / (2.0 * theta[:, None] ** 2)
        jac = np.einsum("ki,mk,mkj->mij", feats, vals, dlog) * w
        try:
            step = np.linalg.solve(jac, -resid[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise CollisionMomentError(f"singular moment Jacobian: {exc}") from exc
        # keep theta positive: per-node damping
        d_theta = step[:, -1]
        lam = np.ones(len(r))
        shrink = d_theta < -0.5 * theta
        lam[shrink] = 0.5 * theta[shrink] / (-d_theta[shrink])
        log_a += lam * step[:, 0]
        u += lam[:, None] * step[:, 1 : 1 + d]
        theta += lam * d_theta
    worst = idx[int(np.argmax(np.abs(resid / scale).max(axis=1)))]
    raise CollisionMomentError(
        f"moment matching stalled at node {worst}; "
        f"relative residual {float(np.abs(resid / scale).max()):g}"
    )


def _bilinear_gather(fv: np.ndarray, pts: np.ndarray, v_grid: VelocityGrid) -> np.ndarray:
    """Bilinear interpolation of fv (n_v, n_v) at pts (..., 2); 0 outside."""
    n = v_grid.n_v
    h = v_grid.h_v
    x0 = v_grid.axis_nodes()[0]
    g = (pts - x0) / h  # fractional node index per component
    i0 = np.floor(g).astype(np.int64)
    t = g - i0
    vals = np.zeros(pts.shape[:-1])
    for da in (0, 1):
        for db in (0, 1):
            ia = i0[..., 0] + da
            ib = i0[..., 1] + db
            inside = (ia >= 0) & (ia < n) & (ib >= 0) & (ib < n)
            wgt = (t[..., 0] if da else 1.0 - t[..., 0]) * (
                t[..., 1] if db else 1.0 - t[..., 1]
            )
            contrib = np.where(inside, fv[np.clip(ia, 0, n - 1), np.clip(ib, 0, n - 1)], 0.0)
            vals += wgt * contrib
    return vals


def oracle_boltzmann_collide_direct(f: PhaseField, config: CollisionConfig) -> np.ndarray:
    """Collision term Q(f, f) on the phase grid, invariant-projected.

    Restricted to d = 2 and n_v <= 32 (cost grows like n_v^4 n_sigma per
    spatial node); intended as an independent check of the BGK surrogate,
    not as a time-stepping model.
    """
    if f.dimension != 2:
        raise ValueError("direct collision quadrature is implemented for d = 2 only")
    vg = f.v_grid
    if vg.n_v > DIRECT_MAX_NV:
        raise ValueError(f"direct quadrature capped at n_v <= {DIRECT_MAX_NV}")

    nodes, _ = _invariant_table(vg)  # (K, 2)
    k = nodes.shape[0]
    rel = nodes[:, None, :] - nodes[None, :, :]  # (K, K, 2)
    r = np.sqrt((rel**2).sum(axis=2))
    with np.errstate(invalid="ignore", divide="ignore"):
        e_hat = np.where(r[..., None] > 0.0, rel / np.maximum(r, 1e-300)[..., None], 0.0)
    perp = np.stack([-e_hat[..., 1], e_hat[..., 0]], axis=-1)
    center = 0.5 * (nodes[:, None, :] + nodes[None, :, :])

    n_sigma = config.n_sigma
    alphas = (np.arange(n_sigma) + 0.5) * np.pi / n_sigma - 0.5 * np.pi
    # kernel b = r^gamma / measure(S+^1) integrated with weight pi/n_sigma
    kernel = (r**config.gamma) * (vg.weight / n_sigma)  # (K, K)
    np.fill_diagonal(kernel, 0.0)

    out = np.empty(f.x_grid.shape + vg.shape)
    fv_all = f.values.reshape(f.x_grid.shape + (vg.n_v, vg.n_v))
    for index in np.ndindex(*f.x_grid.shape):
        fv = fv_all[index]
        f_flat = fv.ravel()
        loss_pairs = f_flat[:, None] * f_flat[None, :]  # f(xi) f(xi1)
        gain = np.zeros((k, k))
        for a in range(n_sigma):
            sigma = np.cos(alphas[a]) * e_hat + np.sin(alphas[a]) * perp  # (K,K,2)
            xi_p = center + 0.5 * r[..., None] * sigma
            xi1_p = center - 0.5 * r[..., None] * sigma
            gain += _bilinear_gather(fv, xi_p, vg) * _bilinear_gather(fv, xi1_p, vg)
        # sum over xi1 of (sigma-summed gain - n_sigma * loss) * per-sigma weight
        q_xi = ((gain - loss_pairs * n_sigma) * kernel).sum(axis=1)
        out[index] = _project_out_invariants(vg, q_xi).reshape(vg.shape)
    return out


@cached_operator
def _ik_factor(grid: TorusGrid, axis: int) -> np.ndarray:
    """i * 2 pi k along ``axis`` with the Nyquist mode zeroed, broadcastable."""
    k = grid.wavenumbers_int()
    ik = 1j * TWO_PI * k
    ik[grid.n_x // 2] = 0.0  # Nyquist has no well-defined sign for odd derivatives
    shape = [1] * grid.dimension
    shape[axis] = grid.n_x
    return ik.reshape(shape)


@cached_operator
def _k2_factor(grid: TorusGrid) -> np.ndarray:
    """|2 pi k|^2 on the full FFT mesh (Nyquist included)."""
    k = TWO_PI * grid.wavenumbers_int()
    if grid.dimension == 1:
        return k**2
    return (k**2)[:, None] + (k**2)[None, :]


def oracle_spectral_gradient(grid: TorusGrid, field: np.ndarray) -> np.ndarray:
    """Gradient of a periodic field, shape (d,) + grid.shape."""
    _check_spatial(grid, field)
    fhat = np.fft.fftn(field)
    out = np.empty((grid.dimension,) + grid.shape)
    for a in range(grid.dimension):
        out[a] = np.fft.ifftn(fhat * _ik_factor(grid, a)).real
    return out


def oracle_spectral_divergence(grid: TorusGrid, vec: np.ndarray) -> np.ndarray:
    """Divergence of a vector field with shape (d,) + grid.shape."""
    if vec.shape != (grid.dimension,) + grid.shape:
        raise GridMismatchError(
            f"vector shape {vec.shape} != {(grid.dimension,) + grid.shape}"
        )
    out = np.zeros(grid.shape, dtype=complex)
    for a in range(grid.dimension):
        out += np.fft.fftn(vec[a]) * _ik_factor(grid, a)
    return np.fft.ifftn(out).real


def oracle_spectral_hessian(grid: TorusGrid, field: np.ndarray) -> np.ndarray:
    """Hessian D^2 field, shape (d, d) + grid.shape.

    Diagonal entries use the full -(2 pi k)^2 symbol; mixed entries compose
    two first derivatives (Nyquist zeroed on each axis).
    """
    _check_spatial(grid, field)
    fhat = np.fft.fftn(field)
    d = grid.dimension
    out = np.empty((d, d) + grid.shape)
    k = TWO_PI * grid.wavenumbers_int()
    for a in range(d):
        shape = [1] * d
        shape[a] = grid.n_x
        out[a, a] = np.fft.ifftn(fhat * (-(k**2)).reshape(shape)).real
    if d == 2:
        mixed = np.fft.ifftn(fhat * _ik_factor(grid, 0) * _ik_factor(grid, 1)).real
        out[0, 1] = mixed
        out[1, 0] = mixed
    return out


def oracle_inverse_laplacian_zero_mean(grid: TorusGrid, field: np.ndarray) -> np.ndarray:
    """Solve Laplace(phi) = field with zero-mean phi.

    Rejects input whose mean exceeds 1e-10 in magnitude (no solution exists
    on the torus); callers must remove the mean themselves if they consider
    it a discretization artifact.
    """
    _check_spatial(grid, field)
    mean = float(field.mean())
    if abs(mean) > 1e-10:
        raise ValueError(f"inverse Laplacian needs zero-mean input, got mean {mean:g}")
    fhat = np.fft.fftn(field)
    k2 = _k2_factor(grid).copy()
    flat_zero = (0,) * grid.dimension
    k2[flat_zero] = 1.0
    phihat = fhat / (-k2)
    phihat[flat_zero] = 0.0
    return np.fft.ifftn(phihat).real


def oracle_band_limit(grid: TorusGrid, field_values: np.ndarray) -> np.ndarray:
    """Zero all Fourier modes with any |k| > (n-1)//3 (strict 2/3 rule)."""
    k_max = (grid.n_x - 1) // 3
    k = grid.wavenumbers_int()
    keep = np.abs(k) <= k_max
    if grid.dimension == 1:
        mask = keep
    else:
        mask = keep[:, None] & keep[None, :]
    return np.fft.ifftn(np.fft.fftn(field_values) * mask).real


def oracle_leray_project(grid: TorusGrid, v: np.ndarray) -> np.ndarray:
    """Remove the gradient part: P(v) = v - grad(invlap(div v)).

    Idempotent and self-adjoint in the discrete L2 inner product; preserves
    the mean of each component (the k = 0 mode is untouched).
    """
    v = _check_velocity(grid, v)
    div = oracle_spectral_divergence(grid, v)
    potential = oracle_inverse_laplacian_zero_mean(grid, div)
    return v - oracle_spectral_gradient(grid, potential)


def oracle_quasineutrality_norm(grid: TorusGrid, rho: np.ndarray) -> float:
    """Spectral H^{-1} norm of rho - 1 (k = 0 mode excluded)."""
    if rho.shape != grid.shape:
        raise GridMismatchError(f"density shape {rho.shape} != {grid.shape}")
    coeff = np.fft.fftn(rho - 1.0) / rho.size
    k = 2.0 * np.pi * grid.wavenumbers_int()
    if grid.dimension == 1:
        k_sq = k**2
    else:
        k_sq = k[:, None] ** 2 + k[None, :] ** 2
    power = np.abs(coeff) ** 2
    flat_k = k_sq.ravel()
    flat_p = power.ravel()
    nonzero = flat_k > 0.0
    return float(np.sqrt((flat_p[nonzero] / flat_k[nonzero]).sum()))


def oracle_initial_values(ic: WellPreparedIC, x_grid: TorusGrid, v_grid: VelocityGrid) -> np.ndarray:
    d = x_grid.dimension
    rho0, u0 = check_initial_state(ic, x_grid, v_grid.v_max)
    mesh = v_grid.node_mesh()
    q = np.zeros(x_grid.shape + v_grid.shape)
    for a in range(d):
        xi = mesh[a].reshape((1,) * d + v_grid.shape)
        q += (xi - u0[a].reshape(x_grid.shape + (1,) * d)) ** 2
    values = np.exp(-q / (2.0 * ic.theta))
    vaxes = tuple(range(d, 2 * d))
    node_mass = values.sum(axis=vaxes) * v_grid.weight
    values *= (rho0 / node_mass).reshape(x_grid.shape + (1,) * d)
    return values


def oracle_spline_curvature_operator(n: int, h: float) -> np.ndarray:
    a = np.eye(n)
    d2 = np.zeros((n, n))
    i = np.arange(1, n - 1)
    a[i, i] = 4.0
    a[i, i - 1] = a[i, i + 1] = 1.0
    d2[i, i - 1] = d2[i, i + 1] = 1.0
    d2[i, i] = -2.0
    # Fortran order, so the K.T that the 1-d kick multiplies by is C-ordered.
    k = np.asfortranarray(np.linalg.solve(a, d2) * (6.0 / h**2))
    k.flags.writeable = False
    return k


# ---------------------------------------------------------------------------
# Properties.
# ---------------------------------------------------------------------------


def _state(dimension: int, n_x: int, n_v: int, seed: int, v_max: float = 2.0) -> PhaseField:
    """Random nonnegative state: rough, with zero patches and spikes."""
    rng = np.random.default_rng(seed)
    x_grid = TorusGrid(dimension, n_x)
    v_grid = VelocityGrid(dimension, n_v, v_max)
    shape = x_grid.shape + v_grid.shape
    values = rng.random(shape) * (rng.random(shape) < rng.uniform(0.3, 1.0))
    values[rng.random(shape) < 0.05] *= 50.0
    return PhaseField(x_grid, v_grid, values, 0.0)


SHIFTS = st.one_of(
    st.floats(-3.5, 3.5, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0]),
)


@st.composite
def kick_cases(draw):
    dimension = draw(st.sampled_from([1, 2]))
    n_x = 4 if dimension == 2 else draw(st.sampled_from([4, 6]))
    n_v = draw(st.sampled_from([4, 7, 16, 32]))
    f = _state(dimension, n_x, n_v, draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # the kernels must not assume a memory layout
        f.values = np.asfortranarray(f.values)
    sigma = draw(hnp.arrays(np.float64, (dimension,) + f.x_grid.shape, elements=SHIFTS))
    # In 2-d also kick along one velocity axis alone.
    zeroed = draw(st.sampled_from([None, 0, 1])) if dimension == 2 else None
    if zeroed is not None:
        sigma[zeroed] = 0.0
    return f, sigma


def _agree(new: PhaseField, new_clipped: float, old: np.ndarray, old_clipped: float, f: PhaseField):
    scale = float(np.abs(f.values).max())
    assert np.abs(new.values - old).max() <= RTOL * scale
    box = f.values.size * f.phase_volume
    assert abs(new_clipped - old_clipped) <= RTOL * scale * box


class TestKickMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=kick_cases())
    def test_matches_banded_gather_kernel(self, case):
        f, sigma = case
        # dt = h_v makes the kernels' sigma = acceleration * (dt / h_v)
        # exactly the drawn value, integers and signed zeros included.
        dt = f.v_grid.h_v
        new, new_clipped = advect_v(f, sigma, dt)
        old, old_clipped = oracle_advect_v(f, sigma, dt)
        _agree(new, new_clipped, old, old_clipped, f)
        # Spatial nodes with no shift in any direction keep their values bitwise.
        still = np.all(sigma == 0.0, axis=0)
        assert new.values[still].tobytes() == f.values[still].tobytes()

    @settings(max_examples=20, deadline=None)
    @given(
        dimension=st.sampled_from([1, 2]),
        n_v=st.sampled_from([4, 7, 32]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zero_shift_is_bitwise_identity(self, dimension, n_v, seed):
        f = _state(dimension, 4, n_v, seed)
        g, clipped = advect_v(f, np.zeros((dimension,) + f.x_grid.shape), 0.1)
        assert g.values.tobytes() == f.values.tobytes()
        assert clipped == 0.0


def _kick_agrees(f: PhaseField, sigma: np.ndarray) -> None:
    """advect_v with shifts ``sigma`` (in cells) against the oracle."""
    dt = f.v_grid.h_v  # sigma = acceleration * (dt / h_v) exactly
    new, new_clipped = advect_v(f, sigma, dt)
    old, old_clipped = oracle_advect_v(f, sigma, dt)
    _agree(new, new_clipped, old, old_clipped, f)
    still = np.all(sigma == 0.0, axis=0)
    assert new.values[still].tobytes() == f.values[still].tobytes()


class _Products(np.ndarray):
    """A view that records the shape of the other operand of each matmul."""

    shapes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        assert ufunc is np.matmul and method == "__call__" and inputs[1] is self
        _Products.shapes.append(inputs[0].shape)
        return ufunc(inputs[0], inputs[1].view(np.ndarray), **kwargs)


class TestKickBlocks:
    """The 1-d kick gathers each shift group's rows, and the 2-d kick takes
    spatial nodes, in blocks of at most KICK_SCRATCH_BYTES; a kick that
    spans many blocks must not notice."""

    @settings(max_examples=60, deadline=None)
    @given(case=kick_cases())
    def test_one_row_blocks_match_oracle(self, case):
        # Every block holds one row, so each group spans as many blocks as
        # it has rows, and the groups' rows interleave.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vlasov, "KICK_SCRATCH_BYTES", 1)
            _kick_agrees(*case)

    def test_groups_span_blocks_at_the_shipped_size(self):
        # A 2-d state whose nodes fill several blocks at the shipped block
        # size, with several whole-cell shifts on each axis in every block.
        f = _state(2, 16, 32, seed=6)
        sigma = np.random.default_rng(6).uniform(-1.5, 1.5, (2, 16, 16))
        sigma[:, ::5, ::3] = 0.0
        block = vlasov.KICK_SCRATCH_BYTES // f.values[0, 0].nbytes
        nodes = f.x_grid.shape[0] * f.x_grid.shape[1]
        assert nodes >= 3 * block
        for shifts in sigma:
            c = np.ceil(shifts).reshape(-1)
            for r0 in range(0, nodes, block):
                assert np.unique(c[r0 : r0 + block]).size >= 2
        _kick_agrees(f, sigma)

    def test_allocation_peak(self):
        # The output and a few blocks of nodes: the per-group kernel peaked
        # at 17.2 MiB on this state, the one before it at 25.4 MiB.
        f = _state(2, 32, 32, seed=0, v_max=6.0)
        sigma = np.random.default_rng(0).uniform(-1.2e-3, 1.2e-3, (2, 32, 32))
        advect_v(f, sigma, f.v_grid.h_v)  # build the cached spline bases
        tracemalloc.start()
        try:
            advect_v(f, sigma, f.v_grid.h_v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= f.values.nbytes + 5 * vlasov.KICK_SCRATCH_BYTES
        assert peak < 12 * 2**20
        assert peak < 25.4 * 2**20

    def test_scratch_is_no_larger_than_the_state(self):
        # On 8^2 x 24^2 at one worker, one block of KICK_SCRATCH_BYTES holds
        # 113 nodes; a kick over its input must size its two block buffers
        # to the state's 64 nodes (2 states), not to 2 x 113 (3.5 states).
        # Beside them it allocates the per-node coefficients, 0.05 of a state.
        f = _state(2, 8, 24, seed=1)
        sigma = np.random.default_rng(1).uniform(-1.5, 1.5, (2, 8, 8))
        assert vlasov.KICK_SCRATCH_BYTES // f.values[0, 0].nbytes == 113
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grids, "KERNEL_WORKERS", 1)
            advect_v(f, sigma, f.v_grid.h_v, in_place=True)  # build the cached spline bases
            tracemalloc.start()
            try:
                advect_v(f, sigma, f.v_grid.h_v, in_place=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2.25 * f.values.nbytes

    # A group larger than one block goes in blocks of even size whose
    # products stay within KICK_BLOCK_MULADDS, so OpenBLAS keeps each on the
    # calling thread.  A zero field, as in every kick of equilibrium_d1, is
    # one group too.
    @pytest.mark.parametrize("n_x, rows", [(64, [32, 32]), (200, [50, 50, 50, 50])])
    @pytest.mark.parametrize("shifts", [(0.0, 0.0), (0.05, 0.95), (-0.95, -0.05)])
    def test_one_group_matches_oracle_in_even_blocks(self, n_x, rows, shifts):
        f = _state(1, n_x, 128, seed=n_x)
        sigma = np.random.default_rng(n_x).uniform(*shifts, (1, n_x))
        assert np.unique(np.ceil(sigma)).size == 1
        curvature = vlasov._spline_curvature_operator
        _Products.shapes = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                vlasov, "_spline_curvature_operator", lambda n, h: curvature(n, h).view(_Products)
            )
            _kick_agrees(f, sigma)
        assert [shape[0] for shape in _Products.shapes] == rows
        assert all(m * 128 * 128 <= vlasov.KICK_BLOCK_MULADDS for m in rows)


class TestSplineCurvatureOperator:
    """K = 6/h^2 A^-1 D_2 from the tridiagonal recurrence against the dense
    solve it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from([4, 5, 7, 16, 32, 64, 128]), h=st.floats(1e-3, 1.0))
    def test_matches_dense_solve(self, n, h):
        k = vlasov._spline_curvature_operator.__wrapped__(n, h)
        old = oracle_spline_curvature_operator(n, h)
        assert np.abs(k - old).max() <= 1e-14 * np.abs(old).max()
        assert not k[0].any() and not k[-1].any()

    def test_cached_read_only_and_fortran_ordered(self):
        k = vlasov._spline_curvature_operator(32, 0.25)
        assert k is vlasov._spline_curvature_operator(32, 0.25)
        assert not k.flags.writeable
        assert k.flags.f_contiguous and k.T.flags.c_contiguous

    def test_needs_no_dense_solve(self):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "solve", refuse)
            k = vlasov._spline_curvature_operator.__wrapped__(128, 0.1)
        assert k.shape == (128, 128)


def _below_half_ulp(c: int, k: int) -> float:
    """A shift just below the integer c: t = c - sigma is about k * 1e-16."""
    return float(c) - k * 1e-16


ROW_SHIFTS = st.one_of(
    st.floats(-3.5, 3.5, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0]),
    st.floats(1.0, 6.0).flatmap(lambda s: st.sampled_from([s, -s])),  # |c| >= 2
    st.builds(_below_half_ulp, st.integers(-3, 3), st.integers(1, 8)),
)


class TestShiftOperators:
    """The 2-d kick's n x n shift operators against the 1-d stencil."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.sampled_from([4, 7, 16, 32]),
        sigma=hnp.arrays(np.float64, st.integers(1, 6), elements=ROW_SHIFTS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_operator_matches_stencil(self, n, sigma, seed):
        rng = np.random.default_rng(seed)
        rows = rng.random((sigma.size, n)) * (rng.random((sigma.size, n)) < 0.7)
        rows[rng.random(rows.shape) < 0.05] *= 50.0
        h = 0.3
        stencil = rows.copy()
        vlasov._kick_axis(stencil, sigma, h)
        ops, ops_t = (
            np.matmul(*vlasov._shift_coefficients(sigma, n, h, transposed)).reshape(-1, n, n)
            for transposed in (False, True)
        )
        bound = RTOL * float(np.abs(rows).max())
        assert np.abs((ops @ rows[:, :, None])[..., 0] - stencil).max() <= bound
        assert np.abs((rows[:, None, :] @ ops_t)[:, 0] - stencil).max() <= bound

    def test_basis_is_cached_and_read_only(self):
        f = _state(2, 4, 8, 0)
        sigma = np.random.default_rng(0).uniform(-1.5, 1.5, (2, 4, 4))
        first, _ = advect_v(f, sigma, f.v_grid.h_v)
        second, _ = advect_v(f, sigma, f.v_grid.h_v)
        assert first.values.tobytes() == second.values.tobytes()
        for transposed in (False, True):
            basis = vlasov._shift_basis(8, f.v_grid.h_v, 1, transposed)
            assert basis.shape == (5, 64)
            stacked = vlasov._stacked_shift_basis(8, f.v_grid.h_v, -1, 1, transposed)
            assert stacked is vlasov._stacked_shift_basis(8, f.v_grid.h_v, -1, 1, transposed)
            assert not stacked.flags.writeable
            assert stacked[10:].tobytes() == basis.tobytes()


class TestInitialStateMatchesOracle:
    """The initial state from per-axis factors against the dense Gaussian."""

    @settings(max_examples=40, deadline=None)
    @given(
        u0_kind=st.sampled_from(["zero", "constant"]),
        profile=st.sampled_from(["cosine_x", "random"]),
        amplitude=st.floats(-1.5, 1.5),
        delta=st.floats(0.0, 0.9),
        theta=st.floats(0.01, 2.0),
        seed=st.integers(0, 1000),
        n_v=st.sampled_from([8, 33, 128]),
    )
    def test_1d_state_is_byte_identical(self, u0_kind, profile, amplitude, delta, theta, seed, n_v):
        ic = WellPreparedIC(u0_kind, amplitude, delta, profile, theta, seed)
        x_grid = TorusGrid(1, 16)
        v_grid = VelocityGrid(1, n_v, abs(amplitude) + 6.5 * np.sqrt(theta))
        f = make_initial_condition(ic, x_grid, v_grid, 0.1)
        assert f.values.tobytes() == oracle_initial_values(ic, x_grid, v_grid).tobytes()
        rho0, _ = check_initial_state(ic, x_grid, v_grid.v_max)
        assert np.abs(moments(f).rho - rho0).max() <= 1e-13

    @pytest.mark.parametrize("seed", [0, 11, 12])
    @pytest.mark.parametrize(
        "u0_kind, profile, theta",
        [
            ("taylor_green", "cosine_xy", 0.1),  # quasineutral_d2
            ("zero", "random", 0.5),  # drift_d2
            ("taylor_green", "random", 0.3),
            ("shear", "cosine_x", 0.05),
            ("shear", "random", 1.0),
            ("random_bandlimited", "cosine_xy", 0.2),
            ("random_bandlimited", "random", 0.02),
        ],
    )
    def test_2d_state_agrees_and_keeps_the_density(self, u0_kind, profile, theta, seed):
        ic = WellPreparedIC(u0_kind, 0.25 + 0.1 * seed, 0.01 * seed, profile, theta, seed)
        x_grid = TorusGrid(2, 16)
        v_grid = VelocityGrid(2, 32, 0.3 + 0.1 * seed + 6.5 * np.sqrt(theta))
        f = make_initial_condition(ic, x_grid, v_grid, 0.1)
        old = oracle_initial_values(ic, x_grid, v_grid)
        assert np.abs(f.values - old).max() <= 1e-15 * old.max()
        rho0, _ = check_initial_state(ic, x_grid, v_grid.v_max)
        assert np.abs(moments(f).rho - rho0).max() <= 1e-13


class TestStreamMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        dimension=st.sampled_from([1, 2]),
        n_x=st.sampled_from([4, 6, 16]),
        n_v=st.sampled_from([4, 7, 16]),
        dt=st.floats(-0.5, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_complex_fft_kernel(self, dimension, n_x, n_v, dt, seed):
        f = _state(dimension, n_x, n_v, seed)
        new, new_clipped = advect_x(f, dt)
        old, old_clipped = oracle_advect_x(f, dt)
        _agree(new, new_clipped, old, old_clipped, f)

    @pytest.mark.parametrize("dt", [1.25e-3, 0.03])
    def test_shipped_size(self, dt):
        # The 2-d scenarios' grids and stream substep, and a substep whose
        # fastest velocity nodes move up to 5.8 cells.
        f = _state(2, 32, 32, seed=3, v_max=6.0)
        new, new_clipped = advect_x(f, dt)
        old, old_clipped = oracle_advect_x(f, dt)
        _agree(new, new_clipped, old, old_clipped, f)

    def test_non_square_2d_at_a_realistic_size(self):
        # n_x != n_v, with each row-sized buffer of the 2-d stream
        # (16 x 48 x 48 doubles, 288 KiB) above 64 KiB.
        f = _state(2, 16, 48, seed=11, v_max=4.0)
        new, new_clipped = advect_x(f, 0.01)
        old, old_clipped = oracle_advect_x(f, 0.01)
        _agree(new, new_clipped, old, old_clipped, f)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("layout", ["fortran", "transposed"])
    def test_any_memory_layout(self, dimension, layout):
        f = _state(dimension, 6, 7, seed=5)
        expected, expected_clipped = advect_x(f, 0.3)
        axes = tuple(reversed(range(2 * dimension)))
        if layout == "fortran":
            values = np.asfortranarray(f.values)
        else:
            values = np.ascontiguousarray(f.values.transpose(axes)).transpose(axes)
        assert not values.flags.c_contiguous
        g = PhaseField(f.x_grid, f.v_grid, values, 0.0)
        new, new_clipped = advect_x(g, 0.3)
        old, old_clipped = oracle_advect_x(g, 0.3)
        _agree(new, new_clipped, old, old_clipped, g)
        assert new.values.tobytes() == expected.values.tobytes()
        assert new_clipped == expected_clipped

    def test_transfer_is_cached_and_read_only(self):
        f = _state(2, 8, 8, 0)
        first, _ = advect_x(f, 0.01)
        second, _ = advect_x(f, 0.01)
        assert first.values.tobytes() == second.values.tobytes()
        transfer = _stream_transfer(f.x_grid, f.v_grid, 0.01)
        assert transfer is _stream_transfer(f.x_grid, f.v_grid, 0.01)
        assert not transfer.flags.writeable
        ops = _stream_operators(f.x_grid, f.v_grid, 0.01)
        assert ops is _stream_operators(f.x_grid, f.v_grid, 0.01)
        assert not ops.flags.writeable
        assert ops.shape == (8, 8, 8)

    def test_allocation_peak(self):
        # The output, one row's scratch and the clip's mask: the four
        # strided FFTs this kernel replaced peaked at 19.2 MiB on this state.
        f = _state(2, 32, 32, seed=0, v_max=6.0)
        advect_x(f, 1.25e-3)  # build the cached operators
        tracemalloc.start()
        try:
            advect_x(f, 1.25e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


def _close(new: np.ndarray, old: np.ndarray) -> None:
    assert new.shape == old.shape
    assert np.abs(new - old).max() <= RTOL * np.abs(old).max()


@st.composite
def torus_fields(draw):
    """A random field on a torus grid, with a pure Nyquist mode added.

    Roughness comes from white noise over every mode, and the Nyquist mode
    (along one axis or both in 2-d) is where the odd derivatives differ
    from the even ones; a constant offset checks that nothing leaks from
    k = 0.
    """
    dimension = draw(st.sampled_from([1, 2]))
    grid = TorusGrid(dimension, draw(st.sampled_from([8, 16, 24, 32, 64])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = np.indices(grid.shape)
    axes = draw(st.sampled_from([(0,), (1,), (0, 1)])) if dimension == 2 else (0,)
    nyquist = (-1.0) ** sum(coords[a] for a in axes)
    field = (
        rng.standard_normal(grid.shape)
        + draw(st.floats(-4.0, 4.0)) * nyquist
        + draw(st.sampled_from([0.0, 1.0, -3.7]))
    )
    return grid, field, rng


class TestSpectralCalculusMatchesOracle:
    """The cached real operators against the FFT round trips they replaced."""

    @settings(max_examples=120, deadline=None)
    @given(case=torus_fields())
    def test_derivatives(self, case):
        grid, field, rng = case
        _close(spectral_gradient(grid, field), oracle_spectral_gradient(grid, field))
        _close(spectral_hessian(grid, field), oracle_spectral_hessian(grid, field))
        vec = np.stack([field] + [rng.standard_normal(grid.shape)] * (grid.dimension - 1))
        _close(spectral_divergence(grid, vec), oracle_spectral_divergence(grid, vec))

    @settings(max_examples=120, deadline=None)
    @given(case=torus_fields())
    def test_inverse_laplacian(self, case):
        grid, field, _ = case
        zero_mean = field - field.mean()
        _close(
            inverse_laplacian_zero_mean(grid, zero_mean),
            oracle_inverse_laplacian_zero_mean(grid, zero_mean),
        )

    @settings(max_examples=120, deadline=None)
    @given(case=torus_fields())
    def test_euler_projections(self, case):
        grid, field, rng = case
        _close(band_limit(grid, field), oracle_band_limit(grid, field))
        v = np.stack([field] + [rng.standard_normal(grid.shape)] * (grid.dimension - 1))
        new = leray_project(grid, v)
        if grid.dimension == 1:
            # The oracle keeps v's Nyquist mode, which D1 cannot see; the
            # 1-d projection onto the divergence-free (constant) fields is
            # the mean.
            assert np.abs(new - v.mean()).max() <= RTOL * np.abs(v).max()
            return
        # P v = v - (gradient part of v) cancels, so the error scales with v.
        old = oracle_leray_project(grid, v)
        assert np.abs(new - old).max() <= RTOL * max(np.abs(old).max(), np.abs(v).max())

    @settings(max_examples=120, deadline=None)
    @given(case=torus_fields(), scale=st.floats(1e-6, 1.0))
    def test_quasineutrality_norm(self, case, scale):
        grid, field, _ = case
        rho = 1.0 + scale * (field - field.mean())
        old = oracle_quasineutrality_norm(grid, rho)
        assert abs(quasineutrality_norm(grid, rho) - old) <= RTOL * old

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_constants_map_to_exact_zero(self, dimension):
        # A plain product would leave each operator's row-sum residue.
        grid = TorusGrid(dimension, 64 if dimension == 1 else 32)
        for value in (1.0, -0.37, 2.0**40 / 3.0):
            const = np.full(grid.shape, value)
            assert not spectral_gradient(grid, const).any()
            assert not spectral_hessian(grid, const).any()
            vec = np.stack([const] * dimension)
            assert not spectral_divergence(grid, vec).any()
            assert (band_limit(grid, const) == value).all()
        small = np.full(grid.shape, 3e-11)  # within the zero-mean tolerance
        assert not inverse_laplacian_zero_mean(grid, small).any()


@st.composite
def moment_states(draw):
    """Random nonnegative states, some spatial nodes empty."""
    dimension = draw(st.sampled_from([1, 2]))
    n_x = draw(st.sampled_from([4, 6])) if dimension == 2 else draw(st.sampled_from([4, 6, 16]))
    n_v = draw(st.sampled_from([4, 7, 16, 32]))
    f = _state(dimension, n_x, n_v, draw(st.integers(0, 2**32 - 1)))
    empty = draw(hnp.arrays(np.bool_, f.x_grid.shape))
    f.values[empty] = 0.0
    if draw(st.booleans()):
        f.values = np.asfortranarray(f.values)
    return f


class TestMomentsMatchOracle:
    @settings(max_examples=80, deadline=None)
    @given(f=moment_states())
    def test_matches_numpy_sums(self, f):
        macro = moments(f)
        rho, current, e_kin = oracle_moments(f)
        _close(macro.rho, rho)
        _close(macro.current, current)
        _close(macro.e_kin, e_kin)
        _close(stress_moments(f), oracle_stress_moments(f))

    def test_feature_matrix_is_cached_and_read_only(self):
        v_grid = VelocityGrid(2, 8, 3.0)
        feats = _feature_matrix(v_grid)
        assert feats is _feature_matrix(VelocityGrid(2, 8, 3.0))
        assert not feats.flags.writeable
        assert feats.shape == (64, 7)


def _targets(f: PhaseField):
    """Per-node (rho, J, sum |xi|^2 f h_v^d) of a state, flattened over x."""
    rho, current, e_kin = oracle_moments(f)
    m = rho.size
    return rho.reshape(m), current.reshape(f.dimension, m).T.copy(), 2.0 * e_kin.reshape(m)


@st.composite
def maxwellian_targets(draw, n_v=(16, 32), temperatures=(0.3, 1.0), max_drift=1.0):
    """Moments of random nonnegative states under a Gaussian envelope.

    The envelope (temperature in ``temperatures``, each drift component
    within ``max_drift``) keeps the states well inside the velocity box,
    where a discrete Maxwellian with the same moments exists; some nodes are
    empty.
    """
    dimension = draw(st.sampled_from([1, 2]))
    n_x = draw(st.sampled_from([4, 6])) if dimension == 2 else draw(st.sampled_from([4, 6, 16]))
    x_grid = TorusGrid(dimension, n_x)
    v_grid = VelocityGrid(dimension, draw(st.sampled_from(n_v)), 5.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = x_grid.shape + v_grid.shape
    values = rng.random(shape) * (rng.random(shape) < rng.uniform(0.5, 1.0))
    theta = draw(st.floats(*temperatures))
    drift = draw(hnp.arrays(np.float64, dimension, elements=st.floats(-max_drift, max_drift)))
    envelope = sum((m - c) ** 2 for m, c in zip(v_grid.node_mesh(), drift))
    values *= np.exp(-envelope / (2.0 * theta))
    values[draw(hnp.arrays(np.bool_, x_grid.shape))] = 0.0
    return PhaseField(x_grid, v_grid, values, 0.0)


def _failure(call):
    """The CollisionMomentError message a call raises, or None."""
    try:
        call()
    except CollisionMomentError as exc:
        return str(exc)
    return None


def _maxwellian(factors: np.ndarray) -> np.ndarray:
    """M from the match's per-axis factors (nodes, d, n_v): the one factor
    in 1-d, the outer product of the two in 2-d."""
    if factors.shape[1] == 1:
        return factors[:, 0]
    return factors[:, 0, :, None] * factors[:, 1, None, :]


def _check_target_moments(f: PhaseField, targets, new: np.ndarray) -> None:
    # Empty nodes get the zero function exactly.
    empty = targets[0] == 0.0
    assert not new[empty].any()
    # The returned Maxwellian carries the target moments.
    field = PhaseField(f.x_grid, f.v_grid, new.reshape(f.values.shape))
    macro = moments(field)
    rho, current, energy2 = targets
    m = rho.size
    assert np.all(np.abs(macro.rho.reshape(m) - rho) <= 1e-12 * rho)
    assert np.all(np.abs(2.0 * macro.e_kin.reshape(m) - energy2) <= 1e-12 * energy2)
    bound = np.sqrt(rho * energy2)  # |J| <= sqrt(rho E2) by Cauchy-Schwarz
    assert np.all(np.abs(macro.current.reshape(f.dimension, m).T - current) <= 1e-12 * bound[:, None])


# The oracle returns its first iterate whose relative moment residual is
# below its rtol; at the default 1e-13 that iterate lies up to 1.5e-13 of
# max|M| from the exact discrete Maxwellian (seen against a long-double
# Newton solve), so it is compared after running on to 1e-14.  The match
# under test runs at its default rtol and returns an iterate at rounding
# level: it lies within 3e-15 of that exact Maxwellian on these states.
REFERENCE_RTOL = 1e-14


class TestMaxwellianMatchMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(f=maxwellian_targets())
    def test_matches_full_gaussian_newton(self, f):
        targets = _targets(f)
        failed = _failure(lambda: oracle_match_discrete_maxwellian(f.v_grid, *targets))
        again = _failure(lambda: match_discrete_maxwellian(f.v_grid, *targets))
        if failed is not None and again is not None:
            # A state a coarse grid cannot match fails the same way, at the
            # same node (the stall residual may differ in its last digits).
            assert again.split(";")[0] == failed.split(";")[0]
            return
        assert again is None, again
        new = _maxwellian(match_discrete_maxwellian(f.v_grid, *targets))
        if failed is None:
            old = oracle_match_discrete_maxwellian(f.v_grid, *targets, rtol=REFERENCE_RTOL)
            _close(new, old)
        # Otherwise the oracle's path left a state that has a discrete
        # Maxwellian (seen: a singular Jacobian once its Gaussian collapsed
        # onto too few grid nodes); the moment checks show the match found it.
        _check_target_moments(f, targets, new)

    @settings(max_examples=40, deadline=None)
    @given(f=maxwellian_targets(n_v=(64,), temperatures=(0.05, 0.3), max_drift=3.5))
    def test_fast_cold_flows_carry_the_target_moments(self, f):
        # Drifts up to 3.5 and temperatures down to 0.05 on v_max = 5.  Not
        # compared with the oracle: a residual at rounding level moves M by
        # about |u|^2 / theta of its maximum, so two correct solves differ by
        # up to 1e-12 of max|M| here.
        targets = _targets(f)
        new = _maxwellian(match_discrete_maxwellian(f.v_grid, *targets))
        _check_target_moments(f, targets, new)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_same_failures_on_the_same_nodes(self, dimension):
        v_grid = VelocityGrid(dimension, 16, 3.0)
        m = 5
        rho = np.linspace(0.5, 1.5, m)
        current = np.zeros((m, dimension))
        current[:, 0] = 0.2 * rho
        energy2 = rho * (0.04 + 0.5 * dimension)
        cases = {}
        # a negative density
        bad_rho = rho.copy()
        bad_rho[3] = -0.1
        cases["negative density at node 3"] = (bad_rho, current, energy2, {})
        # a temperature <= 0
        cold = energy2.copy()
        cold[2] = rho[2] * 0.04
        cases["non-realizable moments at node 2"] = (rho, current, cold, {})
        # a flow far outside the box: the Gaussian underflows to zero
        far = current.copy()
        far[1, 0] = 100.0 * rho[1]
        hot = energy2.copy()
        hot[1] = rho[1] * (100.0**2 + 0.01 * dimension)
        cases["singular moment Jacobian"] = (rho, far, hot, {})
        # one Newton step from the continuous Maxwellian is not enough
        wide = energy2 * np.linspace(1.0, 3.0, m)
        cases["moment matching stalled at node 4"] = (rho, current, wide, {"max_iter": 1})
        for message, (r, j, e2, kwargs) in cases.items():
            old = _failure(lambda: oracle_match_discrete_maxwellian(v_grid, r, j, e2, **kwargs))
            new = _failure(lambda: match_discrete_maxwellian(v_grid, r, j, e2, **kwargs))
            assert old is not None and old.startswith(message), (message, old)
            assert new is not None and new.startswith(message), (message, new)
            if "residual" in old:
                # same node, same residual to the shown digits
                assert new == old


def direct_state(n_v: int, seed: int) -> PhaseField:
    """16 spatial nodes that all differ: random positive velocity profiles
    times random positive per-node factors, one node whose mass sits on the
    velocity-box edge, next to the stencil corners that fall outside the
    grid, and one all-zero node."""
    rng = np.random.default_rng(seed)
    x_grid, v_grid = TorusGrid(2, 4), VelocityGrid(2, n_v, 3.0)
    values = rng.random(x_grid.shape + v_grid.shape)
    values *= rng.uniform(0.1, 10.0, x_grid.shape + (1, 1))
    values[1, 2, 1:-1, 1:-1] = 0.0
    values[3, 0] = 0.0
    return PhaseField(x_grid, v_grid, values, 0.0)


class TestDirectQuadratureMatchesOracle:
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("n_sigma", [8, 10])
    @pytest.mark.parametrize("n_v", [8, 12])
    def test_bitwise_equal(self, n_v, n_sigma, gamma):
        f = direct_state(n_v, seed=n_v + n_sigma + int(gamma))
        config = CollisionConfig(kind="direct", n_sigma=n_sigma, gamma=gamma)
        old = oracle_boltzmann_collide_direct(f, config)
        assert np.abs(old).max() > 0.0 and not old[3, 0].any()
        assert np.array_equal(boltzmann_collide_direct(f, config), old)
        # Blocks of 3 nodes, the last one partial: every block builds its
        # own stencils and writes its own nodes.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(collision, "DIRECT_SCRATCH_BYTES", 3 * old[0, 0].size ** 2 * 8)
            assert np.array_equal(boltzmann_collide_direct(f, config), old)
