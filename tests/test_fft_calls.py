"""Which numpy.fft calls a time step makes.

The spectral calculus (derivatives, the inverse Laplacian, the Euler band
limit and Leray projection, the H^-1 norm) runs on cached real operators,
and the 2-d stream on cached circulant operators.  So the only transforms
left in a step are the 1-d stream's: one rfft and one irfft per half-step
stream, two half-steps per step.  A warm-up run of the same parameters
builds every cache first, so the counted run shows per-step calls only.
"""

from collections import Counter

import numpy as np
import pytest

from quasikin.collision import CollisionConfig
from quasikin.vlasov import SimulationParams, WellPreparedIC, run

TRANSFORMS = [
    name
    for name in dir(np.fft)
    if "fft" in name and not name.endswith(("freq", "shift")) and not name.startswith("_")
]

D1_BGK_EULER = SimulationParams(
    dimension=1,
    n_x=64,
    n_v=64,
    v_max=2.5,
    epsilon=0.1,
    dt=5e-4,
    t_end=2e-3,
    field_mode="monge_ampere",
    collision=CollisionConfig(kind="bgk", tau=0.05),
    ic=WellPreparedIC(u0_kind="constant", u0_amplitude=0.3, delta=0.1, theta=0.1),
    a_max_estimate=1.6,
    euler_reference=True,
)

D2_MONGE_AMPERE_EULER = SimulationParams(
    dimension=2,
    n_x=16,
    n_v=24,
    v_max=2.4,
    epsilon=0.3,
    dt=5e-3,
    t_end=1.5e-2,
    field_mode="monge_ampere",
    ic=WellPreparedIC(
        u0_kind="taylor_green", u0_amplitude=0.25, delta=0.05, theta=0.1,
        profile="cosine_xy",
    ),
    euler_reference=True,
)


def _counted_run(params: SimulationParams) -> Counter:
    run(params)  # build every cached operator
    calls = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for name in TRANSFORMS:
            def counted(*args, _name=name, _inner=getattr(np.fft, name), **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            patch.setattr(np.fft, name, counted)
        run(params)
    return calls


def test_transforms_are_wrapped():
    assert {"fft", "ifft", "fftn", "ifftn", "rfft", "irfft"} <= set(TRANSFORMS)


def test_one_dimensional_step_calls_only_the_stream_transforms():
    calls = _counted_run(D1_BGK_EULER)
    steps = D1_BGK_EULER.n_steps
    assert steps == 4
    assert calls == Counter({"rfft": 2 * steps, "irfft": 2 * steps})


def test_two_dimensional_step_calls_no_transform():
    calls = _counted_run(D2_MONGE_AMPERE_EULER)
    assert D2_MONGE_AMPERE_EULER.n_steps == 3
    assert calls == Counter()
