"""The names the benchmark patches and reads still exist and still carry the
samples.

``perfbench/tracing.py`` replaces module attributes of groupform (for
example ``steady.step`` and ``montecarlo.sample_grid_point``) with timing
wrappers, and ``perfbench/bench.py`` checks every sample and grid point it
times by reading fields of ``SampleResult``, ``TrajectoryOutcome`` and
``GridPointStats``. Renaming or deleting one of them, or calling it in a way
the wrapper no longer sees, breaks the benchmark; these tests make that a
test failure here. The tracer and the checks are imported from the
benchmark as they are.
"""

import sys
from pathlib import Path

from groupform import OutcomeKind, TorusShape, default_max_steps, mix_seed, montecarlo
from groupform.montecarlo import SweepConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import bench  # noqa: E402
from tracing import Tracer  # noqa: E402


def _originals(tracer):
    return [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracer._patches]


def test_tracer_sees_every_sample_and_restores_every_name():
    tracer = Tracer()
    originals = _originals(tracer)
    config = SweepConfig(TorusShape((24,)), p_max=0.8, p_steps=2, samples=4, master_seed=2024)
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not real for owner, attr, real in originals)
        montecarlo.run_sample(TorusShape((30,)), 0.8, 7)
        sweep = montecarlo.run_sweep(config, workers=1)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is real for owner, attr, real in originals)
    assert tracer.calls("montecarlo.run_sample") == 1
    assert tracer.calls("steady.evolve") == 1
    assert tracer.calls("montecarlo.run_sweep") == 1
    # a sweep's blocks run on raw arrays, not through run_sample; what the
    # benchmark checks is that its points equal its own run_sample fold
    max_steps = config.resolved_max_steps()
    for i, p in enumerate(config.p_values()):
        folded = montecarlo.GridPointStats(p=p, grid_index=i, total_cells=config.shape.total_cells)
        for j in range(config.samples):
            folded.add_sample(montecarlo.run_sample(config.shape, p, mix_seed(config.master_seed, i, j), max_steps))
        assert sweep.points[i] == folded


def test_traced_pool_runs_a_pooled_sweep():
    # The tracer's pool implements only map, __enter__ and __exit__, and
    # must be looked up as ``montecarlo.Pool`` when the sweep runs.
    config = SweepConfig(TorusShape((24,)), p_max=0.8, p_steps=2, samples=12, master_seed=2024)
    serial = montecarlo.run_sweep(config, workers=1)
    tracer = Tracer()
    originals = _originals(tracer)
    tracer.install()
    try:
        pooled = montecarlo.run_sweep(config, workers=2)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is real for owner, attr, real in originals)
    # one map streams every block of the sweep
    assert tracer.calls("montecarlo.pool.map") == 1
    assert tracer.counts["montecarlo.pool.tasks"] == len(config.p_values()) * len(montecarlo._blocks(config.samples, 2))
    assert pooled.points == serial.points


def test_benchmark_checks_pass_on_library_output():
    config = SweepConfig(TorusShape((16, 16)), p_max=0.8, p_steps=2, samples=12, master_seed=1)
    shape, p, max_steps = config.shape, config.p_max, config.resolved_max_steps()
    assert max_steps == default_max_steps(shape)
    kinds = set()
    for j in range(40):
        seed = mix_seed(1, 0, j)
        result = montecarlo.run_sample(shape, p, seed, max_steps)
        kinds.add(result.outcome.kind)
        assert bench.check_sample(shape, p, seed, max_steps, result, full=True) is None
    # the periodic branch reads the entry time and period as well
    assert kinds == {OutcomeKind.FIXED, OutcomeKind.PERIODIC}
    points = montecarlo.run_sweep(config, workers=2).points
    assert len(points) == 3
    for stats in points:
        assert bench.check_point(stats, config.samples) is None
        assert bench.aggregate(stats)["samples"] == config.samples


def test_grid_pool_builds_its_config_positionally():
    # bench.py passes SweepConfig's fields by position, so a reordered
    # field would silently change the benchmark's workload
    config = bench.WORKLOADS["grid_pool"].config(1, 0)
    assert config.samples == 16
    assert config.p_steps == 24
    assert config.p_max == 0.96
