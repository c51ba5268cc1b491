"""The phase-space kernels against the implementations they replaced.

The velocity kick used to solve the natural-spline system row by row with a
banded solver and to gather its stencil with take_along_axis; the x-stream
rebuilt its spline transfer on every call and transformed with complex
FFTs.  Those implementations are kept below unchanged as oracles.  The
rewritten kernels change only the order of floating-point operations, so
they must agree to 1e-13 of max|f| (about 450 ulps), report the same
clipped mass to the same relative accuracy, and still reproduce a state
bitwise under a zero shift.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_banded

from quasikin.grids import PhaseField, TorusGrid, VelocityGrid
from quasikin.vlasov import _b3, _clip_negative, _stream_transfer, advect_v, advect_x

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

    def test_transfer_is_cached_and_read_only(self):
        f = _state(2, 8, 8, 0)
        first, _ = advect_x(f, 0.01)
        second, _ = advect_x(f, 0.01)
        assert first.values.tobytes() == second.values.tobytes()
        transfer = _stream_transfer(f.x_grid, f.v_grid, 0.01)
        assert transfer is _stream_transfer(f.x_grid, f.v_grid, 0.01)
        assert not transfer.flags.writeable
