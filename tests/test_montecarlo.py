import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupform import (
    GridPointStats,
    LatticeState,
    OutcomeKind,
    SweepConfig,
    TorusShape,
    bernoulli_state,
    default_max_steps,
    measure,
    mix_seed,
    run_sample,
    run_sweep,
    sample_grid_point,
)

from conftest import lattice_states


class TestBernoulliState:
    def test_degenerate_probabilities(self):
        shape = TorusShape((40,))
        assert bernoulli_state(shape, 0.0, seed=1) == LatticeState(shape, np.zeros(40, dtype=np.int64))
        assert bernoulli_state(shape, 1.0, seed=1) == LatticeState(shape, [1] * 40)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_state(TorusShape((5,)), 1.2, seed=0)

    def test_deterministic(self):
        shape = TorusShape((6, 8))
        assert bernoulli_state(shape, 0.37, seed=99) == bernoulli_state(shape, 0.37, seed=99)

    def test_2d_shape(self):
        state = bernoulli_state(TorusShape((6, 8)), 0.5, seed=5)
        assert state.values.shape == (6, 8)
        assert set(np.unique(state.values)) <= {0, 1}

    def test_realized_density_concentrates(self):
        shape = TorusShape((3000,))
        for seed in range(20):
            density = bernoulli_state(shape, 0.8, seed).total_mass() / 3000
            assert abs(density - 0.8) < 0.02


class TestMeasure:
    def test_settled_example(self):
        hist = measure(LatticeState(TorusShape((7,)), [1, 0, 2, 0, 1, 0, 0]))
        assert hist.counts == {1: 2, 2: 1}
        assert hist.density(1) == pytest.approx(2 / 7)
        assert hist.density(2) == pytest.approx(1 / 7)

    def test_empty(self):
        assert measure(LatticeState(TorusShape((9,)), np.zeros(9, dtype=np.int64))).counts == {}

    def test_all_ones(self):
        hist = measure(LatticeState(TorusShape((5,)), [1] * 5))
        assert hist.counts == {1: 5}
        assert hist.density(1) == 1.0

    @given(lattice_states(max_value=6))
    def test_histogram_identities(self, state):
        hist = measure(state)
        assert sum(r * c for r, c in hist.counts.items()) == state.total_mass()
        assert sum(hist.counts.values()) <= state.shape.total_cells
        assert all(c >= 1 for c in hist.counts.values())

    def test_tail_count(self):
        hist = measure(LatticeState(TorusShape((6,)), [5, 7, 1, 0, 5, 0]))
        assert hist.tail_count() == 3


class TestMixSeed:
    def test_deterministic(self):
        assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)

    def test_no_collisions_on_grid(self):
        seeds = {mix_seed(1234, i, j) for i in range(100) for j in range(100)}
        assert len(seeds) == 10_000

    def test_master_seed_changes_streams(self):
        assert mix_seed(1, 0, 0) != mix_seed(2, 0, 0)

    def test_in_64_bit_range(self):
        for args in [(0, 0, 0), (2**64 - 1, 96, 9999), (17, 0, 1)]:
            assert 0 <= mix_seed(*args) < 2**64


class TestRunSample:
    def test_empty_initial_state(self):
        result = run_sample(TorusShape((50,)), 0.0, sample_seed=4, max_steps=10)
        assert result.outcome.kind is OutcomeKind.FIXED
        assert result.outcome.n_st == 0
        assert result.histogram.counts == {}
        assert result.initial_mass == 0

    def test_full_initial_state(self):
        result = run_sample(TorusShape((50,)), 1.0, sample_seed=4, max_steps=10)
        assert result.outcome.kind is OutcomeKind.FIXED
        assert result.outcome.n_st == 0
        assert result.histogram.counts == {1: 50}

    @given(st.integers(0, 2**32), st.floats(0.1, 0.9))
    @settings(max_examples=30)
    def test_mass_identity_when_settled(self, seed, p):
        result = run_sample(TorusShape((40,)), p, seed, max_steps=4000)
        if result.outcome.kind is OutcomeKind.FIXED:
            assert sum(r * c for r, c in result.histogram.counts.items()) == result.initial_mass

    def test_deterministic(self):
        a = run_sample(TorusShape((64,)), 0.7, sample_seed=11, max_steps=6400)
        b = run_sample(TorusShape((64,)), 0.7, sample_seed=11, max_steps=6400)
        assert a.outcome.steady_state == b.outcome.steady_state
        assert a.initial_mass == b.initial_mass


class TestGridPointStats:
    def _sample(self, seed):
        return run_sample(TorusShape((32,)), 0.6, seed, max_steps=3200)

    def test_merge_equals_sequential(self):
        whole = GridPointStats(p=0.6, grid_index=0, total_cells=32)
        left = GridPointStats(p=0.6, grid_index=0, total_cells=32)
        right = GridPointStats(p=0.6, grid_index=0, total_cells=32)
        for j in range(30):
            sample = self._sample(mix_seed(5, 0, j))
            whole.add_sample(sample)
            (left if j < 13 else right).add_sample(sample)
        left.merge(right)
        assert left == whole

    def test_merge_rejects_mismatched_points(self):
        a = GridPointStats(p=0.5, grid_index=0, total_cells=32)
        b = GridPointStats(p=0.6, grid_index=0, total_cells=32)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_mean_and_stderr_formulas(self):
        stats = GridPointStats(p=0.5, grid_index=0, total_cells=10)
        for count in (1, 3):
            hist_counts = {1: count}
            stats.samples += 1
            stats.fixed_count += 1
            stats.count_sums[1] = stats.count_sums.get(1, 0) + count
            stats.count_sq_sums[1] = stats.count_sq_sums.get(1, 0) + count * count
        assert stats.mean_q(1) == pytest.approx(0.2)
        # per-sample Q values are 0.1 and 0.3: sd = sqrt(0.02), se = sd/sqrt(2) = 0.1
        assert stats.stderr_q(1) == pytest.approx(0.1)
        assert stats.mean_q(3) == 0.0
        assert stats.stderr_q(3) == 0.0

    def test_no_settled_samples(self):
        stats = GridPointStats(p=0.5, grid_index=0, total_cells=10)
        assert np.isnan(stats.mean_q(1))
        assert np.isnan(stats.mean_n_st())


class TestSampleGridPoint:
    def test_worker_count_does_not_change_result(self):
        shape = TorusShape((48,))
        serial = sample_grid_point(shape, 0.7, 40, master_seed=77, workers=1)
        parallel = sample_grid_point(shape, 0.7, 40, master_seed=77, workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("workers", [0, -1])
    def test_no_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="worker count"):
            sample_grid_point(TorusShape((30,)), 0.5, 10, master_seed=3, workers=workers)

    def test_counts_partition_samples(self):
        stats = sample_grid_point(TorusShape((30,)), 0.9, 25, master_seed=3)
        assert stats.fixed_count + stats.periodic_count + stats.unresolved_count == 25
        assert stats.samples == 25

    def test_aggregate_mass_identity(self):
        stats = sample_grid_point(TorusShape((30,)), 0.8, 50, master_seed=9)
        recovered = sum(r * c for r, c in stats.count_sums.items())
        assert recovered == stats.fixed_initial_mass_sum


class TestSweepConfig:
    def _config(self, **overrides):
        fields = dict(
            shape=TorusShape((24,)),
            p_max=0.5,
            p_steps=2,
            samples_per_p=4,
            master_seed=123,
            max_steps=None,
        )
        fields.update(overrides)
        return SweepConfig(**fields)

    def test_grid_from_integer_index(self):
        assert self._config().p_values() == [0.0, 0.25, 0.5]
        assert self._config(p_max=0.96, p_steps=96).p_values()[7] == 7 * 0.96 / 96

    def test_single_point_grid(self):
        assert self._config(p_max=0.0, p_steps=0).p_values() == [0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            self._config(p_max=1.5)
        with pytest.raises(ValueError):
            self._config(p_steps=-1)
        with pytest.raises(ValueError):
            self._config(p_steps=0, p_max=0.5)
        with pytest.raises(ValueError):
            self._config(samples_per_p=0)
        with pytest.raises(ValueError):
            self._config(max_steps=0)

    def test_json_roundtrip(self):
        config = self._config(max_steps=500)
        assert SweepConfig.from_json_dict(config.to_json_dict()) == config

    def test_from_json_missing_field(self):
        with pytest.raises(ValueError, match="master_seed"):
            SweepConfig.from_json_dict(
                {"dims": [24], "p_max": 0.5, "p_steps": 2, "samples": 4}
            )

    def test_from_json_unknown_field(self):
        data = self._config().to_json_dict()
        data["typo"] = 1
        with pytest.raises(ValueError, match="typo"):
            SweepConfig.from_json_dict(data)

    def test_from_json_bad_dims(self):
        with pytest.raises(ValueError, match="dims"):
            SweepConfig.from_json_dict(
                {"dims": [2], "p_max": 0.5, "p_steps": 2, "samples": 4, "master_seed": 0}
            )


class TestRunSweep:
    def _config(self):
        return SweepConfig(
            shape=TorusShape((24,)),
            p_max=0.8,
            p_steps=2,
            samples_per_p=12,
            master_seed=2024,
        )

    def test_reproducible(self):
        first = run_sweep(self._config())
        second = run_sweep(self._config())
        assert first.points == second.points

    def test_point_structure(self):
        result = run_sweep(self._config())
        assert [round(pt.p, 6) for pt in result.points] == [0.0, 0.4, 0.8]
        for pt in result.points:
            assert pt.samples == 12
            assert pt.fixed_count + pt.periodic_count + pt.unresolved_count == 12
        assert result.points[0].fixed_count == 12  # empty states settle instantly
        assert result.points[0].mean_q(1) == 0.0

    def test_progress_callback(self):
        seen = []
        run_sweep(self._config(), progress=lambda i, p, stats: seen.append((i, p)))
        assert seen == [(0, 0.0), (1, 0.4), (2, 0.8)]

    def test_overflow_diagnostic_names_sample(self, monkeypatch):
        import groupform.montecarlo as mc

        real = mc.run_sample

        def poisoned(shape, p, sample_seed, max_steps=None):
            if sample_seed == mix_seed(2024, 1, 3):
                raise OverflowError("synthetic")
            return real(shape, p, sample_seed, max_steps)

        monkeypatch.setattr(mc, "run_sample", poisoned)
        with pytest.raises(OverflowError, match=r"grid_index=1.*sample_index=3"):
            run_sweep(self._config())


class TestBenchmarkHooks:
    """The benchmark tracer swaps in its own ``montecarlo.Pool`` and reads
    ``SweepConfig.resolved_max_steps``; the library itself needs neither
    hook, so these tests keep them working."""

    def test_sweep_pool_looked_up_at_call_time(self, monkeypatch):
        import groupform.montecarlo as mc

        real_pool = mc.Pool
        built, maps = [], []

        class RecordingPool:
            def __init__(self, *args, **kwargs):
                self._pool = real_pool(*args, **kwargs)
                built.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._pool.__exit__(*exc)

            def map(self, fn, iterable):
                maps.append(fn)
                return self._pool.map(fn, iterable)

        config = SweepConfig(TorusShape((24,)), p_max=0.8, p_steps=2, samples_per_p=12, master_seed=2024)
        serial = run_sweep(config, workers=1)
        assert built == [] and maps == []
        monkeypatch.setattr(mc, "Pool", RecordingPool)
        pooled = run_sweep(config, workers=2)
        assert len(built) == 1
        assert len(maps) == len(config.p_values()) == 3
        assert pooled.points == serial.points

    def test_resolved_max_steps(self):
        shape = TorusShape((7, 5))
        assert SweepConfig(shape, 0.5, 2, 4, 0).resolved_max_steps() == default_max_steps(shape)
        assert SweepConfig(shape, 0.5, 2, 4, 0, max_steps=9).resolved_max_steps() == 9


class TestDensityCurveShape:
    def test_qualitative_shape(self):
        # singles dominate sparse systems, their density rises to an interior
        # peak and then falls, and every density vanishes as p -> 0
        shape = TorusShape((300,))
        grid = (0.05, 0.1, 0.35, 0.8)
        stats = {
            p: sample_grid_point(shape, p, 500, master_seed=5150, grid_index=i, workers=1)
            for i, p in enumerate(grid)
        }
        for p in (0.1, 0.35):
            q1 = stats[p].mean_q(1)
            assert all(q1 > stats[p].mean_q(r) for r in (2, 3, 4))
        assert stats[0.35].mean_q(1) > stats[0.1].mean_q(1)
        assert stats[0.35].mean_q(1) > stats[0.8].mean_q(1)
        sparse = stats[0.05]
        assert sparse.mean_q(1) < 0.07
        assert all(sparse.mean_q(r) < 0.01 for r in (2, 3, 4))
        empty = sample_grid_point(shape, 0.0, 20, master_seed=5150, grid_index=9)
        assert all(empty.mean_q(r) == 0.0 for r in (1, 2, 3, 4))
