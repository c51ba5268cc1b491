"""How many phase-space states a 2-d run keeps live while it steps.

``vlasov.run`` advances its initial state's array in place: the stream,
the kick and the BGK update each write into the state's own array.  So
through steps 2..N a run holds one state, BGK or not, plus the kernels'
scratch.  tracemalloc sees every numpy allocation, so the peak of
traced memory over those steps, less what the run still holds when it
returns apart from its final state (the operator caches and the per-step
records), counts the states live at the peak.
"""

import tracemalloc

import pytest

from quasikin import grids, vlasov
from quasikin.collision import CollisionConfig
from quasikin.vlasov import SimulationParams, WellPreparedIC, run

N_X, N_V = 16, 32


def _params(collision: str) -> SimulationParams:
    return SimulationParams(
        dimension=2, n_x=N_X, n_v=N_V, v_max=3.7, epsilon=0.3, dt=5e-3, t_end=3e-2,
        collision=CollisionConfig(collision, tau=0.05),
        ic=WellPreparedIC(u0_kind="taylor_green", u0_amplitude=0.25, delta=0.05,
                          profile="cosine_xy", theta=0.2),
    )


def _live_states_at_peak(params: SimulationParams, monkeypatch) -> float:
    state_bytes = N_X**2 * N_V**2 * 8
    advance = vlasov._advance
    steps = []

    def counted(*args):
        steps.append(len(steps) + 1)
        if steps[-1] == 2:  # step 1 builds the cached operators
            tracemalloc.reset_peak()
        return advance(*args)

    monkeypatch.setattr(vlasov, "_advance", counted)
    tracemalloc.start()
    try:
        trajectory = run(params)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(steps) == params.n_steps == 6
    assert trajectory.final.values.nbytes == state_bytes
    return (peak - (kept - state_bytes)) / state_bytes


@pytest.mark.parametrize("collision", ["none", "bgk"])
def test_a_2d_run_keeps_one_state_live(collision, monkeypatch):
    # One worker, and kick blocks of 1/32 of the nodes, so the scratch is in
    # proportion to what the kernels take on the shipped 32^2 x 32^2 grid.
    # The slack covers the scratch live beside the state, at most 0.27 of a
    # state here (measured): with BGK, the match's Newton arrays, a few
    # (nodes, 2, N_V) arrays of 2 / N_V of a state each, and the blend's
    # Maxwellian for one block of N_V nodes, N_V / N_X^2 = 1/8; or the
    # stream's two x1-row buffers, 2 / N_X; the kick's two blocks, 1/16;
    # and the moments, the field solve and the records added after step 2,
    # under 0.07.  A run whose kernels each return a new state holds 3.1-3.3
    # states here, collisionless or not, and one whose BGK update writes
    # into a second state 2.3.
    monkeypatch.setattr(grids, "KERNEL_WORKERS", 1)
    monkeypatch.setattr(vlasov, "KICK_SCRATCH_BYTES", N_X**2 * N_V**2 * 8 // 32)
    slack = 0.5
    live = _live_states_at_peak(_params(collision), monkeypatch)
    assert live <= 1 + slack, f"{live:.2f} states live at the peak"
