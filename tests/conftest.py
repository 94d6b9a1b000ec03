import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from groupform import LatticeState, TorusShape, verify

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

# the 14-cell mixed-size worked example, stated once in ``verify``
FIG_EXAMPLE = verify.WORKED_EXAMPLES["mixed example"][0]


@st.composite
def torus_shapes(draw, max_side_1d=16, max_side_2d=8):
    if draw(st.integers(1, 2)) == 1:
        dims = (draw(st.integers(3, max_side_1d)),)
    else:
        dims = (draw(st.integers(3, max_side_2d)), draw(st.integers(3, max_side_2d)))
    return TorusShape(dims)


@st.composite
def lattice_states(draw, max_value=3, **shape_kwargs):
    shape = draw(torus_shapes(**shape_kwargs))
    values = draw(
        st.lists(
            st.integers(0, max_value),
            min_size=shape.total_cells,
            max_size=shape.total_cells,
        )
    )
    return LatticeState(shape, np.asarray(values, dtype=np.int64).reshape(shape.dims))


@st.composite
def offsets_for(draw, shape, span=25):
    return tuple(draw(st.integers(-span, span)) for _ in shape.dims)


@pytest.fixture
def recording_pool(monkeypatch):
    """Swap ``montecarlo.Pool`` for a real pool that records each pool's
    process count and each ``map``'s task count; returns the two lists
    ``(built, maps)``."""
    import groupform.montecarlo as mc

    real_pool = mc.Pool
    built, maps = [], []

    class RecordingPool:
        def __init__(self, processes, **kwargs):
            self._pool = real_pool(processes, **kwargs)
            built.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self._pool.__exit__(*exc)

        def map(self, fn, iterable):
            tasks = list(iterable)
            maps.append(len(tasks))
            return self._pool.map(fn, tasks)

    monkeypatch.setattr(mc, "Pool", RecordingPool)
    return built, maps
