"""The 2-d phase-space kernels give the same bytes on any number of threads.

The stream, the kick, the clip and the BGK product and blend split their
rows, slabs or node blocks over grids.KERNEL_WORKERS threads through
grids.split_parts.  Each kernel runs here at 1, 2 and 3 workers on a 32^2 x
32^2 state: 3 workers split its 32 rows and the kick's 16 blocks (at one
worker) unevenly.  Inputs come in C, Fortran and transposed layouts, and
every output must equal the one-worker, C-layout output byte for byte,
and the allocating call must leave its input as it was.  So must the
output written in place: the stream, the kick and the BGK update over
their input's own array, and a whole run over the one array it owns.  The
BGK update over its input is checked on states whose node counts are not
whole numbers of its n_v-node blocks, against the blend formula itself.
In place, a float32, non-C-ordered or read-only state is refused and
left unchanged.  An allocating BGK update copies a state of any layout
once.  split_parts itself must run every part once, worker 0 on the calling
thread, raise a worker's exception in the caller and leave no thread
running.
"""

import _thread
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from quasikin import grids, vlasov
from quasikin.collision import CollisionConfig, bgk_collide, match_discrete_maxwellian
from quasikin.grids import PhaseField, TorusGrid, VelocityGrid, moments, split_parts
from quasikin.monge_ampere import solve_field
from quasikin.vlasov import (
    SimulationParams,
    WellPreparedIC,
    advect_v,
    advect_x,
    make_initial_condition,
    run,
)

WORKERS = (1, 2, 3)
LAYOUTS = ("c", "fortran", "transposed")


def _layout(values: np.ndarray, layout: str) -> np.ndarray:
    """The same values in C order, Fortran order, or with the axes of each
    pair (x1, x2) and (v1, v2) swapped in memory."""
    if layout == "c":
        return values.copy()
    if layout == "fortran":
        return np.asfortranarray(values)
    swap = (1, 0, 3, 2)
    return np.ascontiguousarray(values.transpose(swap)).transpose(swap)


@pytest.fixture(scope="module")
def state() -> PhaseField:
    """A matchable 2-d state with multiplicative noise (so the stream and
    kick overshoot below 0) and planted negatives for the clip."""
    x_grid, v_grid = TorusGrid(2, 32), VelocityGrid(2, 32, 4.0)
    ic = WellPreparedIC(u0_kind="taylor_green", u0_amplitude=0.4, delta=0.2,
                        profile="random", theta=0.3, seed=3)
    values = make_initial_condition(ic, x_grid, v_grid, 0.1).values
    rng = np.random.default_rng(21)
    values *= 1.0 + 0.5 * rng.standard_normal(values.shape) ** 2
    return PhaseField(x_grid, v_grid, values, 0.0)


def _stream(f: PhaseField):
    new, clipped = advect_x(f, 2.5e-3)
    return new.values, clipped


def _acceleration(f: PhaseField) -> np.ndarray:
    return np.random.default_rng(5).uniform(-40.0, 40.0, (2,) + f.x_grid.shape)


def _kick(f: PhaseField):
    new, clipped = advect_v(f, _acceleration(f), 2.5e-3)
    return new.values, clipped


def _clip(f: PhaseField):
    values = f.values.copy(order="K")  # in the input's layout
    values -= 0.05 * values.max()  # most cells negative
    mass = vlasov._clip_negative(values, f.phase_volume)
    return values, mass


def _bgk(f: PhaseField):
    return bgk_collide(f, 0.05, 2.5e-3).values, None


MATCHED_NODES = 1000  # not a whole number of n_v-node blocks


def _match_targets(f: PhaseField) -> tuple:
    macro = moments(f)
    m = macro.rho.size
    targets = (macro.rho.reshape(m), macro.current.reshape(2, m).T, 2.0 * macro.e_kin.reshape(m))
    return tuple(t[:MATCHED_NODES] for t in targets)


def _outer(factors: np.ndarray) -> np.ndarray:
    """M from the match's per-axis factors (nodes, d, n_v): the one factor
    in 1-d, the outer product of the two in 2-d."""
    if factors.shape[1] == 1:
        return factors[:, 0]
    return factors[:, 0, :, None] * factors[:, 1, None, :]


def _maxwellian(f: PhaseField):
    return _outer(match_discrete_maxwellian(f.v_grid, *_match_targets(f))), None


KERNELS = {"stream": _stream, "kick": _kick, "clip": _clip, "bgk": _bgk,
           "maxwellian": _maxwellian}


@pytest.fixture(scope="module")
def expected(state):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grids, "KERNEL_WORKERS", 1)
        return {name: kernel(state) for name, kernel in KERNELS.items()}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_bytes_do_not_depend_on_the_worker_count(state, expected, name, workers, layout,
                                                 monkeypatch):
    monkeypatch.setattr(grids, "KERNEL_WORKERS", workers)
    f = PhaseField(state.x_grid, state.v_grid, _layout(state.values, layout), 0.0)
    values, mass = KERNELS[name](f)
    assert f.values.tobytes() == state.values.tobytes()  # the input is left as it was
    want_values, want_mass = expected[name]
    assert np.ascontiguousarray(values).tobytes() == want_values.tobytes()
    assert mass == want_mass
    if mass is not None:
        assert mass > 0.0


def _in_place(kernel, f: PhaseField, *args):
    """``kernel`` in place on a C-ordered copy of f's values."""
    values = np.ascontiguousarray(f.values).copy()
    new, clipped = kernel(PhaseField(f.x_grid, f.v_grid, values, 0.0), *args, in_place=True)
    assert new.values is values
    return values, clipped


def _stream_in_place(f: PhaseField):
    return _in_place(advect_x, f, 2.5e-3)


def _kick_in_place(f: PhaseField):
    return _in_place(advect_v, f, _acceleration(f), 2.5e-3)


def _bgk_in_place(f: PhaseField):
    values = np.ascontiguousarray(f.values).copy()
    new = bgk_collide(PhaseField(f.x_grid, f.v_grid, values, 0.0), 0.05, 2.5e-3, in_place=True)
    assert new.values is values
    return values, None


INTO = {"stream": _stream_in_place, "kick": _kick_in_place, "bgk": _bgk_in_place}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(INTO))
def test_writing_into_a_given_array_gives_the_allocating_bytes(state, expected, name, workers,
                                                                monkeypatch):
    monkeypatch.setattr(grids, "KERNEL_WORKERS", workers)
    values, mass = INTO[name](state)
    want_values, want_mass = expected[name]
    assert values.tobytes() == want_values.tobytes()
    assert mass == want_mass


def _allocating_run(params: SimulationParams) -> np.ndarray:
    """The final state of ``params`` stepped by kernels that each return a new state."""
    f = make_initial_condition(params.ic, params.x_grid(), params.v_grid(), params.epsilon)
    dt = params.dt
    for _ in range(params.n_steps):
        f, _ = advect_x(f, 0.5 * dt)
        potential, _ = solve_field(f.x_grid, moments(f).rho, params.epsilon)
        f, _ = advect_v(f, potential.grad, dt)
        f = bgk_collide(f, params.collision.tau, dt)
        f, _ = advect_x(f, 0.5 * dt)
    return f.values


@pytest.mark.parametrize("workers", WORKERS)
def test_a_run_in_its_own_buffers_gives_the_allocating_bytes(workers, monkeypatch):
    monkeypatch.setattr(grids, "KERNEL_WORKERS", workers)
    params = SimulationParams(
        dimension=2, n_x=8, n_v=24, v_max=3.7, epsilon=0.3, dt=5e-3, t_end=2e-2,
        collision=CollisionConfig("bgk", tau=0.05),
        ic=WellPreparedIC(u0_kind="taylor_green", u0_amplitude=0.25, delta=0.05,
                          profile="cosine_xy", theta=0.2),
    )
    assert params.n_steps == 4  # each step overwrites the last one's state
    final = run(params).final.values
    assert final.tobytes() == _allocating_run(params).tobytes()


def test_1d_kernels_write_into_a_given_array_too():
    x_grid, v_grid = TorusGrid(1, 64), VelocityGrid(1, 128, 6.0)
    ic = WellPreparedIC(u0_kind="constant", u0_amplitude=0.5, delta=0.3, theta=0.8)
    f = make_initial_condition(ic, x_grid, v_grid, 0.1)
    acceleration = np.sin(2.0 * np.pi * x_grid.axis_coords())[None]
    calls = [
        lambda g, **kw: advect_x(g, 2.5e-3, **kw)[0],
        lambda g, **kw: advect_v(g, acceleration, 2.5e-3, **kw)[0],
        lambda g, **kw: bgk_collide(g, 0.05, 2.5e-3, **kw),
    ]
    for call in calls:
        want = call(f).values
        values = f.values.copy()
        assert call(PhaseField(x_grid, v_grid, values, 0.0), in_place=True).values is values
        assert values.tobytes() == want.tobytes()


def _unwritable(values: np.ndarray, fault: str) -> np.ndarray:
    """The values as a state no kernel may write over in place."""
    if fault == "float32":
        return values.astype(np.float32)
    if fault in ("fortran", "transposed"):
        return _layout(values, fault)
    values = values.copy()
    values.flags.writeable = False
    return values


IN_PLACE_CALLS = {
    "stream": lambda f: advect_x(f, 2.5e-3, in_place=True),
    "kick": lambda f: advect_v(f, np.zeros((2,) + f.x_grid.shape), 2.5e-3, in_place=True),
    "bgk": lambda f: bgk_collide(f, 0.05, 2.5e-3, in_place=True),
}


@pytest.mark.parametrize("fault", ["float32", "fortran", "transposed", "read-only"])
@pytest.mark.parametrize("name", sorted(IN_PLACE_CALLS))
def test_in_place_refuses_a_state_it_cannot_write_over(state, name, fault):
    values = _unwritable(state.values, fault)
    before = values.tobytes()
    flags = (f"dtype {values.dtype}, C-contiguous {values.flags.c_contiguous}, "
             f"writeable {values.flags.writeable}")
    with pytest.raises(ValueError, match=flags):
        IN_PLACE_CALLS[name](PhaseField(state.x_grid, state.v_grid, values, 0.0))
    assert values.tobytes() == before


@pytest.mark.parametrize("layout", LAYOUTS)
def test_an_allocating_bgk_copies_its_input_once(state, layout, monkeypatch):
    # The copy it writes over is the only state it allocates; beside it the
    # match's Newton arrays and one block's Maxwellian take 0.22 of a state
    # (measured: 1.22 states in every layout).  A BGK update that also
    # reshaped a non-C input to take its moments and to blend peaked at
    # 2.11 states in Fortran order.
    monkeypatch.setattr(grids, "KERNEL_WORKERS", 1)
    f = PhaseField(state.x_grid, state.v_grid, _layout(state.values, layout), 0.0)
    bgk_collide(f, 0.05, 2.5e-3)  # build the cached operators
    tracemalloc.start()
    try:
        bgk_collide(f, 0.05, 2.5e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * f.values.nbytes, f"{peak / f.values.nbytes:.2f} states"


@pytest.fixture(scope="module", params=[1, 2], ids=["1d", "2d"])
def uneven_state(request) -> PhaseField:
    """A matchable state whose node count is not a whole number of n_v-node
    blocks: 40 nodes with n_v = 64 in 1-d (one block), 12^2 = 144 nodes
    with n_v = 32 in 2-d (4.5 blocks)."""
    d = request.param
    x_grid = TorusGrid(d, 40 if d == 1 else 12)
    v_grid = VelocityGrid(d, 64 if d == 1 else 32, 4.0)
    ic = WellPreparedIC(u0_kind="taylor_green" if d == 2 else "constant", u0_amplitude=0.4,
                        delta=0.2, profile="random", theta=0.3, seed=7)
    values = make_initial_condition(ic, x_grid, v_grid, 0.1).values
    values *= 1.0 + 0.5 * np.random.default_rng(23).standard_normal(values.shape) ** 2
    return PhaseField(x_grid, v_grid, values, 0.0)


def _blend_formula(f: PhaseField) -> np.ndarray:
    """(1 - decay) M + decay f over the whole state at once, with the
    roundings of the blocked update: M, then each product, then the sum."""
    macro = moments(f)
    m = macro.rho.size
    d = f.dimension
    factors = match_discrete_maxwellian(
        f.v_grid, macro.rho.reshape(m), macro.current.reshape(d, m).T, 2.0 * macro.e_kin.reshape(m)
    )
    decay = float(np.exp(-2.5e-3 / 0.05))
    maxw = _outer(factors).reshape(f.values.shape)
    return maxw * (1.0 - decay) + f.values * decay


@pytest.mark.parametrize("workers", WORKERS)
def test_bgk_over_its_input_gives_the_allocating_bytes(uneven_state, workers, monkeypatch):
    monkeypatch.setattr(grids, "KERNEL_WORKERS", workers)
    f = uneven_state
    assert f.dimension == 1 or (f.x_grid.n_x**2) % f.v_grid.n_v
    want = _blend_formula(f)
    assert bgk_collide(f, 0.05, 2.5e-3).values.tobytes() == want.tobytes()
    assert _bgk_in_place(f)[0].tobytes() == want.tobytes()


def test_the_kernels_split_unevenly(state):
    # The kick's blocks at one worker, and 3 workers' share of 32 rows.
    node_bytes = state.values[0, 0].nbytes
    assert -(-32 * 32 * node_bytes // vlasov.KICK_SCRATCH_BYTES) == 16
    assert len(state.values) == 32 and 32 % 3


def _runs(workers: int, parts: int) -> list:
    """(part, worker, thread ident) of every call split_parts makes."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grids, "KERNEL_WORKERS", workers)
        split_parts(lambda w, part: seen.append((part, w, threading.get_ident())), parts)
    return sorted(seen)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("parts", [1, 2, 7, 32])
def test_every_part_runs_once_and_worker_0_is_the_caller(workers, parts):
    seen = _runs(workers, parts)
    assert [part for part, *_ in seen] == list(range(parts))
    assert seen[0][1] == 0  # part 0 on the calling thread
    caller = threading.get_ident()
    assert all((w == 0) == (ident == caller) for _, w, ident in seen)
    assert {w for _, w, _ in seen} <= set(range(min(workers, parts)))


def test_parts_are_taken_once_under_contention(monkeypatch):
    # More workers than cores, and a thread switch after almost every
    # bytecode: a part taken twice or never shows in the tally.
    monkeypatch.setattr(grids, "KERNEL_WORKERS", 8)
    tally = np.zeros(5000, dtype=np.intp)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split_parts(lambda worker, part: tally.__setitem__(part, tally[part] + 1), len(tally))
    finally:
        sys.setswitchinterval(interval)
    assert (tally == 1).all()


def _fail_in(failing: int):
    """Work for 3 parts on 3 workers: each waits for the others, then
    worker ``failing`` raises."""
    barrier = threading.Barrier(3, timeout=10)
    finished = []

    def work(worker, part):
        barrier.wait()
        if worker == failing:
            raise KeyError(f"worker {worker}")
        finished.append(worker)

    return work, finished


def _threads_end(before: int) -> bool:
    """Whether the count of running threads falls back to ``before``: a
    worker may still be returning from its last frame just after the split
    it served."""
    deadline = time.monotonic() + 10.0
    while _thread._count() > before:
        if time.monotonic() > deadline:
            return False
        time.sleep(1e-3)
    return True


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_a_workers_exception_reaches_the_caller_and_no_thread_is_left(failing, monkeypatch):
    monkeypatch.setattr(grids, "KERNEL_WORKERS", 3)
    before = _thread._count()
    work, finished = _fail_in(failing)
    with pytest.raises(KeyError, match=f"worker {failing}"):
        split_parts(work, 3)
    assert sorted(finished) == sorted({0, 1, 2} - {failing})
    assert _threads_end(before)


def test_a_kernel_error_in_a_worker_reaches_the_caller(state, monkeypatch):
    monkeypatch.setattr(grids, "KERNEL_WORKERS", 2)
    before = _thread._count()
    caller = threading.get_ident()
    matmul = np.matmul

    def fail_off_the_caller(*args, **kwargs):
        if threading.get_ident() != caller:
            raise MemoryError("matmul in a worker")
        time.sleep(1e-3)  # leave the worker rows to take
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", fail_off_the_caller)
    with pytest.raises(MemoryError, match="matmul in a worker"):
        advect_x(state, 2.5e-3)
    assert _threads_end(before)


def test_a_run_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(grids, "KERNEL_WORKERS", 3)
    before = _thread._count()
    params = SimulationParams(
        dimension=2, n_x=8, n_v=16, v_max=4.0, epsilon=0.5, dt=0.01, t_end=0.03,
        field_mode="none", collision=CollisionConfig("bgk", tau=0.05),
        ic=WellPreparedIC(theta=0.2, delta=0.1, profile="cosine_xy"),
    )
    run(params)
    assert _threads_end(before)


def test_worker_count_is_the_usable_cpu_count():
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None:
        pytest.skip("the OS does not report CPU affinity")
    assert grids.KERNEL_WORKERS == len(affinity(0))
