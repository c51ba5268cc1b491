"""The 2-d phase-space kernels give the same bytes on any number of threads.

The stream, the kick, the clip and the BGK product and blend split their
rows, slabs or node blocks over grids.KERNEL_WORKERS threads through
grids.split_parts.  Each kernel runs here at 1, 2 and 3 workers on a 32^2 x
32^2 state: 3 workers split its 32 rows and the kick's 16 blocks (at one
worker) unevenly.  Inputs come in C, Fortran and transposed layouts, and
every output must equal the one-worker, C-layout output byte for byte.
So must the output written into a given array: the stream and the kick
into their input's own array, the BGK update into a spare full of NaN,
and a whole run into the one array it owns.  The BGK update over its
input is checked on states whose node counts are not whole numbers of
its n_v-node blocks, against the blend formula itself.  An
``out`` of the wrong shape, dtype or layout, or read-only, is refused.
split_parts itself must run every part once, worker 0 on the calling
thread, raise a worker's exception in the caller and leave no thread
running.
"""

import _thread
import os
import re
import sys
import threading
import time

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
    want_values, want_mass = expected[name]
    assert np.ascontiguousarray(values).tobytes() == want_values.tobytes()
    assert mass == want_mass
    if mass is not None:
        assert mass > 0.0


def _in_place(kernel, f: PhaseField, *args):
    """``kernel`` on a C-ordered copy of f's values, writing into that copy."""
    values = np.ascontiguousarray(f.values).copy()
    new, clipped = kernel(PhaseField(f.x_grid, f.v_grid, values, 0.0), *args, out=values)
    assert new.values is values
    return values, clipped


def _stream_in_place(f: PhaseField):
    return _in_place(advect_x, f, 2.5e-3)


def _kick_in_place(f: PhaseField):
    return _in_place(advect_v, f, _acceleration(f), 2.5e-3)


def _bgk_into_spare(f: PhaseField):
    spare = np.full(f.values.shape, np.nan)
    assert bgk_collide(f, 0.05, 2.5e-3, out=spare).values is spare
    return spare, None


def _bgk_in_place(f: PhaseField) -> np.ndarray:
    values = np.ascontiguousarray(f.values).copy()
    new = bgk_collide(PhaseField(f.x_grid, f.v_grid, values, 0.0), 0.05, 2.5e-3, out=values)
    assert new.values is values
    return values


INTO = {"stream": _stream_in_place, "kick": _kick_in_place, "bgk": _bgk_into_spare}


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
        (lambda g, out: advect_x(g, 2.5e-3, out=out)[0].values, True),
        (lambda g, out: advect_v(g, acceleration, 2.5e-3, out=out)[0].values, True),
        (lambda g, out: bgk_collide(g, 0.05, 2.5e-3, out=out).values, False),
    ]
    for call, in_place in calls:
        want = call(f, None)
        values = f.values.copy()
        out = values if in_place else np.full(values.shape, np.nan)
        assert call(PhaseField(x_grid, v_grid, values, 0.0), out) is out
        assert out.tobytes() == want.tobytes()


def _bad_outs(shape: tuple) -> dict:
    return {
        "shape": np.empty(shape[:-1] + (shape[-1] + 1,)),
        "dtype": np.empty(shape, dtype=np.float32),
        "layout": np.empty(shape[::-1]).T,
        "read-only": np.lib.stride_tricks.as_strided(np.empty(shape), writeable=False),
    }


def _calls(f: PhaseField) -> dict:
    acceleration = np.zeros((2,) + f.x_grid.shape)
    return {
        "stream": (lambda out: advect_x(f, 2.5e-3, out=out), f.values.shape),
        "kick": (lambda out: advect_v(f, acceleration, 2.5e-3, out=out), f.values.shape),
        "bgk": (lambda out: bgk_collide(f, 0.05, 2.5e-3, out=out), f.values.shape),
    }


@pytest.mark.parametrize("fault", ["shape", "dtype", "layout", "read-only"])
@pytest.mark.parametrize("name", ["stream", "kick", "bgk"])
def test_a_bad_out_is_refused_naming_the_shape(state, name, fault):
    call, shape = _calls(state)[name]
    out = _bad_outs(shape)[fault]
    before = out.copy()
    with pytest.raises(ValueError, match=f"of shape {re.escape(str(shape))}"):
        call(out)
    assert out.tobytes() == before.tobytes()


def test_bgk_refuses_an_out_that_shares_its_input(state):
    # An array that overlaps half of the input is refused; the input itself
    # is allowed, and gets the allocating call's bytes.
    size = state.values.size
    memory = np.empty(2 * size)
    values = memory[:size].reshape(state.values.shape)
    values[...] = state.values
    f = PhaseField(state.x_grid, state.v_grid, values, 0.0)
    with pytest.raises(ValueError, match="share no memory"):
        bgk_collide(f, 0.05, 2.5e-3, out=memory[size // 2 : size // 2 + size].reshape(values.shape))
    assert values.tobytes() == np.ascontiguousarray(state.values).tobytes()
    want = bgk_collide(f, 0.05, 2.5e-3).values
    assert bgk_collide(f, 0.05, 2.5e-3, out=values).values is values
    assert values.tobytes() == want.tobytes()


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
    assert _bgk_in_place(f).tobytes() == want.tobytes()


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
