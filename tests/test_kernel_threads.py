"""The 2-d phase-space kernels give the same bytes on any number of threads.

The stream, the kick, the clip and the BGK product and blend split their
rows, slabs or node blocks over grids.KERNEL_WORKERS threads through
grids.split_parts.  Each kernel runs here at 1, 2 and 3 workers on a 32^2 x
32^2 state: 3 workers split its 32 rows and the kick's 16 blocks (at one
worker) unevenly.  Inputs come in C, Fortran and transposed layouts, and
every output must equal the one-worker, C-layout output byte for byte.
split_parts itself must run every part once, worker 0 on the calling
thread, raise a worker's exception in the caller and leave no thread
running.
"""

import _thread
import os
import sys
import threading
import time

import numpy as np
import pytest

from quasikin import grids, vlasov
from quasikin.collision import CollisionConfig, bgk_collide
from quasikin.grids import PhaseField, TorusGrid, VelocityGrid, split_parts
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


def _kick(f: PhaseField):
    acceleration = np.random.default_rng(5).uniform(-40.0, 40.0, (2,) + f.x_grid.shape)
    new, clipped = advect_v(f, acceleration, 2.5e-3)
    return new.values, clipped


def _clip(f: PhaseField):
    values = f.values.copy(order="K")  # in the input's layout
    values -= 0.05 * values.max()  # most cells negative
    mass = vlasov._clip_negative(values, f.phase_volume)
    return values, mass


def _bgk(f: PhaseField):
    return bgk_collide(f, 0.05, 2.5e-3).values, None


KERNELS = {"stream": _stream, "kick": _kick, "clip": _clip, "bgk": _bgk}


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
    if name != "bgk":
        assert mass > 0.0


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
