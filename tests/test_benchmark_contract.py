"""The names the benchmark's tracer patches still exist and still carry the
samples.

``perfbench/tracing.py`` replaces module attributes of groupform (for
example ``steady.step`` and ``montecarlo.sample_grid_point``) with timing
wrappers. Renaming or deleting one of them, or calling it in a way the
wrapper no longer sees, breaks the benchmark; this test makes that a test
failure here. The tracer is imported from the benchmark as is.
"""

import sys
from pathlib import Path

from groupform import TorusShape, montecarlo
from groupform.montecarlo import SweepConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import Tracer  # noqa: E402


def _originals(tracer):
    return [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracer._patches]


def test_tracer_sees_every_sample_and_restores_every_name():
    tracer = Tracer()
    originals = _originals(tracer)
    config = SweepConfig(TorusShape((24,)), p_max=0.8, p_steps=2, samples_per_p=4, master_seed=2024)
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not real for owner, attr, real in originals)
        montecarlo.run_sample(TorusShape((30,)), 0.8, 7)
        montecarlo.run_sweep(config, workers=1)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is real for owner, attr, real in originals)
    samples = 1 + len(config.p_values()) * config.samples_per_p
    assert tracer.calls("montecarlo.run_sample") == samples
    assert tracer.calls("steady.evolve") == samples
    assert tracer.calls("montecarlo.run_sweep") == 1


def test_traced_pool_runs_a_pooled_sweep():
    # The tracer's pool implements only map, __enter__ and __exit__, and
    # must be looked up as ``montecarlo.Pool`` when the sweep runs.
    config = SweepConfig(TorusShape((24,)), p_max=0.8, p_steps=2, samples_per_p=12, master_seed=2024)
    serial = montecarlo.run_sweep(config, workers=1)
    tracer = Tracer()
    originals = _originals(tracer)
    tracer.install()
    try:
        pooled = montecarlo.run_sweep(config, workers=2)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is real for owner, attr, real in originals)
    points = len(config.p_values())
    assert tracer.calls("montecarlo.pool.map") == points == 3
    assert tracer.counts["montecarlo.pool.tasks"] == points * len(montecarlo._blocks(config.samples_per_p, 2))
    assert pooled.points == serial.points
