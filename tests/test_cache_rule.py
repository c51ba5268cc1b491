"""The one caching rule for the solver's operators, checked on every builder.

A cached builder is any attribute of a quasikin module that has
``cache_info``, found as scripts/cache_traffic.py finds them.  Each must
come from ``grids.cached_operator``: the same object on a repeated call,
every array in it read-only, and the one cache bound.  A builder added with
a plain ``lru_cache`` fails here, and so does one with no sample arguments
below.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from quasikin.grids import OPERATOR_CACHE_SIZE, TorusGrid, VelocityGrid

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cache_traffic.py"
_spec = importlib.util.spec_from_file_location("cache_traffic", SCRIPT)
cache_traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cache_traffic)

BUILDERS = cache_traffic.cached_builders()

SAMPLE_ARGUMENTS = {
    "grids._feature_matrix": (VelocityGrid(2, 8, 3.0),),
    "grids.real_fourier_basis": (8,),
    "grids._spectral_operators": (8,),
    "vlasov._stream_transfer": (TorusGrid(1, 8), VelocityGrid(1, 8, 3.0), 0.01),
    "vlasov._stream_operators": (TorusGrid(2, 8), VelocityGrid(2, 8, 3.0), 0.01),
    "vlasov._spline_curvature_operator": (8, 0.5),
    "vlasov._stacked_shift_basis": (8, 0.5, -1, 1, True),
    "collision._axis_powers": (VelocityGrid(1, 8, 3.0),),
    "collision._gram_map": (2,),
    "euler._band_limit_operator": (8,),
}


def test_every_builder_has_sample_arguments():
    assert sorted(BUILDERS) == sorted(SAMPLE_ARGUMENTS)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_follows_the_cache_rule(name):
    builder = BUILDERS[name]
    args = SAMPLE_ARGUMENTS[name]
    assert builder.cache_info().maxsize == OPERATOR_CACHE_SIZE
    result = builder(*args)
    assert builder(*args) is result
    arrays = result if isinstance(result, tuple) else (result,)
    assert arrays and all(isinstance(array, np.ndarray) for array in arrays)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0
