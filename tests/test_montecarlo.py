import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupform import (
    GridPointStats,
    Job,
    LatticeState,
    OutcomeKind,
    SweepConfig,
    TorusShape,
    bernoulli_state,
    default_max_steps,
    measure,
    mix_seed,
    montecarlo,
    run_sample,
    sample_points,
)
from groupform.montecarlo import curve, p_grid

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

    def test_pcg64_raw_stream_known_answer(self):
        # the draw reads these words, so a numpy whose PCG64 stream changed
        # fails here by name, not only in the golden outputs
        assert np.random.PCG64(0).random_raw(3).tolist() == [
            11749869230777074271, 4976686463289251617, 755828109848996024,
        ]
        assert np.random.PCG64(2**64 - 1).random_raw(3).tolist() == [
            12544278110101001871, 15593249672699323225, 136562751618339402,
        ]

    def test_raw_stream_draw_equals_generator_draw(self):
        # the integer threshold ceil(p * 2**53) on the top 53 bits is the
        # float compare Generator.random(n) < p, so seeds keep their states
        for seed in (0, 1, 2**64 - 1, 12345678901234567890):
            for n in (1, 7, 3000, 40000):
                for p in (0.0, 0.2, 0.5, 0.8, 0.96, 1.0, 0.1 + 0.2):
                    expected = np.random.default_rng(seed).random(n) < p
                    assert np.array_equal(montecarlo._bernoulli_cells(n, p, seed), expected), (seed, n, p)


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

    @pytest.mark.parametrize(
        "args, name",
        [((-1, 0, 0), "master_seed"), ((2**64, 0, 0), "master_seed"), ((0, -1, 0), "grid_index")],
        ids=["master_seed=-1", "master_seed=2**64", "grid_index=-1"],
    )
    def test_inputs_outside_64_bits_rejected(self, args, name):
        # masking them would alias -1 with 2**64-1 and 2**64 with 0
        with pytest.raises(ValueError, match=name):
            mix_seed(*args)


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
    @pytest.mark.parametrize(
        "dims, p, max_steps, master_seed, grid_index, n",
        [
            ((32,), 0.6, 3200, 5, 0, 30),
            # grid point 4 of the capped golden config: 10 fixed, 1 periodic
            # and 9 unresolved samples, tail sum 44, so every field is summed
            ((8, 8), 0.8, 12, 2112, 4, 20),
        ],
        ids=["fixed-1d", "capped-8x8"],
    )
    def test_merge_equals_sequential(self, dims, p, max_steps, master_seed, grid_index, n):
        shape = TorusShape(dims)
        whole, left, right, merged = (
            GridPointStats(p=p, grid_index=grid_index, total_cells=shape.total_cells) for _ in range(4)
        )
        for j in range(n):
            sample = run_sample(shape, p, mix_seed(master_seed, grid_index, j), max_steps)
            whole.add_sample(sample)
            (left if j < 13 else right).add_sample(sample)
        # into an empty accumulator and then a filled one, so a field
        # dropped from either part shows
        merged.merge(left)
        merged.merge(right)
        assert merged == whole

    def test_merge_rejects_mismatched_points(self):
        a = GridPointStats(p=0.5, grid_index=0, total_cells=32)
        b = GridPointStats(p=0.6, grid_index=0, total_cells=32)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_mean_and_stderr_formulas(self):
        stats = GridPointStats(p=0.5, grid_index=0, total_cells=10)
        for count, tail in ((1, 2), (3, 6)):
            stats.samples += 1
            stats.fixed_count += 1
            stats.count_sums[1] = stats.count_sums.get(1, 0) + count
            stats.count_sq_sums[1] = stats.count_sq_sums.get(1, 0) + count * count
            stats.tail_sum += tail
            stats.tail_sq_sum += tail * tail
        assert stats.mean_q(1) == pytest.approx(0.2)
        # per-sample Q values are 0.1 and 0.3: sd = sqrt(0.02), se = sd/sqrt(2) = 0.1
        assert stats.stderr_q(1) == pytest.approx(0.1)
        assert stats.mean_q(3) == 0.0
        assert stats.stderr_q(3) == 0.0
        # per-sample tail Q values are 0.2 and 0.6: sd = sqrt(0.08), se = 0.2
        assert stats.mean_q("tail") == pytest.approx(0.4)
        assert stats.stderr_q("tail") == pytest.approx(0.2)

    def test_no_settled_samples(self):
        stats = GridPointStats(p=0.5, grid_index=0, total_cells=10)
        assert np.isnan(stats.mean_q(1))
        assert np.isnan(stats.mean_n_st())


class TestSamplePoints:
    # mixed 1D/2D points with repeated grid indices, shaped like the
    # statistical checks' jobs (a 2D and a 1D point at one p, two sizes
    # sharing grid index 0)
    POINTS = [
        ((12, 12), 0.9, 0),
        ((60,), 0.9, 1),
        ((30,), 0.6, 0),
        ((60,), 0.6, 0),
    ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_per_point_results(self, workers):
        expected = [sample_points(Job([point], 10, 41), workers)[0] for point in self.POINTS]
        assert sample_points(Job(self.POINTS, 10, 41), workers) == expected

    def test_worker_count_does_not_change_result(self):
        job = Job([((48,), 0.7, 0)], 40, 77)
        assert sample_points(job, workers=2) == sample_points(job, workers=1)

    def test_progress_once_per_point_in_order(self):
        seen = []
        results = sample_points(Job(self.POINTS, 4, 41), progress=lambda k, p, stats: seen.append((k, p, stats)))
        assert [(k, p) for k, p, _ in seen] == [(0, 0.9), (1, 0.9), (2, 0.6), (3, 0.6)]
        assert all(stats is result for (_, _, stats), result in zip(seen, results))

    def test_one_pool_and_one_map_per_job(self, recording_pool):
        built, maps = recording_pool
        sample_points(Job(self.POINTS, 4, 41), workers=1)
        assert built == [] and maps == []
        sample_points(Job(self.POINTS, 4, 41), workers=2)
        assert built == [2]
        assert maps == [len(self.POINTS) * len(montecarlo._blocks(4, 2))]

    def test_no_more_processes_than_tasks(self, recording_pool):
        built, maps = recording_pool
        job = Job([((30,), 0.7, 0)], 2, 41)
        assert len(montecarlo._blocks(2, 8)) == 2
        assert sample_points(job, workers=8) == sample_points(job, workers=1)
        assert built == [2] and maps == [2]

    def test_progress_that_raises_ends_the_pool(self):
        def stop(k, p, stats):
            raise KeyError(f"stopped at point {k}")

        with pytest.raises(KeyError, match="stopped at point 0"):
            sample_points(Job(self.POINTS, 8, 41), workers=2, progress=stop)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_no_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="worker count"):
            sample_points(Job(self.POINTS, 4, 41), workers)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            sample_points(Job(self.POINTS, samples, 41))

    @pytest.mark.parametrize(
        "bad_point, master_seed, max_steps, error",
        [
            (((30,), 0.7, 0), -1, None, "master_seed"),
            (((30,), 0.7, -1), 5, None, "grid_index"),
            (((30,), 1.5, 0), 5, None, r"^p must be in \[0, 1\], got 1.5$"),
            (((30,), float("nan"), 0), 5, None, r"^p must be in \[0, 1\], got nan$"),
            (((2,), 0.7, 0), 5, None, "dimension must be >= 3"),
            (((30,), 0.7, 0), 5, 0, "max_steps must be >= 1"),
        ],
        ids=["master_seed", "grid_index", "p-1.5", "p-nan", "dims-2", "max_steps-0"],
    )
    def test_bad_input_rejected_before_the_pool(self, recording_pool, bad_point, master_seed, max_steps, error):
        built, _ = recording_pool
        # the bad point comes last, so every point is checked before any runs
        job = Job([((30,), 0.7, 0), bad_point], 4, master_seed, max_steps)
        for workers in (1, 2):
            with pytest.raises(ValueError, match=error):
                sample_points(job, workers)
        assert built == []  # the job is checked before the pool starts

    def test_counts_partition_samples(self):
        (stats,) = sample_points(Job([((30,), 0.9, 0)], 25, 3))
        assert stats.fixed_count + stats.periodic_count + stats.unresolved_count == 25
        assert stats.samples == 25

    def test_aggregate_mass_identity(self):
        (stats,) = sample_points(Job([((30,), 0.8, 0)], 50, 9))
        recovered = sum(r * c for r, c in stats.count_sums.items())
        assert recovered == stats.fixed_initial_mass_sum

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflow_diagnostic_names_sample(self, monkeypatch, workers):
        real = montecarlo._bernoulli_cells
        seed = mix_seed(41, 1, 3)
        for error in (OverflowError, ValueError):

            def poisoned(n, p, sample_seed, error=error):
                if sample_seed == seed:
                    raise error("synthetic")
                return real(n, p, sample_seed)

            # the pool's workers are forked, so they run the patched module too
            monkeypatch.setattr(montecarlo, "_bernoulli_cells", poisoned)
            with pytest.raises(error, match=rf"grid_index=1.*sample_index=3.*seed={seed}\): synthetic$"):
                sample_points(Job(self.POINTS, 4, 41), workers)


def _folded(job):
    """The job's stats through the one-sample API: each sample's
    ``run_sample`` result folded in by ``add_sample``."""
    folded = []
    for dims, p, grid_index in job.points:
        shape = TorusShape(dims)
        stats = GridPointStats(p=p, grid_index=grid_index, total_cells=shape.total_cells)
        for j in range(job.samples):
            stats.add_sample(run_sample(shape, p, mix_seed(job.seed, grid_index, j), job.max_steps))
        folded.append(stats)
    return folded


class TestSweepPath:
    """``sample_points``' blocks draw, settle and count samples on raw arrays;
    they must give exactly the sums of ``run_sample`` and ``add_sample``."""

    CASES = {
        # caps 2 and 3 on Z5: fixed points and cycles that close exactly at
        # the cap, and unresolved samples at cap 2
        "z5-cap-2": Job(curve((5,), (0.5, 0.7, 0.9)), 40, 20260810, 2),
        "z5-cap-3": Job(curve((5,), (0.5, 0.7, 0.9)), 40, 20260810, 3),
        "z12-cap-5": Job(curve((12,), (0.3, 0.7, 0.9)), 40, 20260810, 5),
        # periodic and unresolved samples, and fixed ones with groups in the tail
        "4x4-cap-5": Job(curve((4, 4), (0.3, 0.7, 0.9)), 40, 20260810, 5),
        "p-0-and-1": Job([((30,), 0.0, 0), ((6, 8), 1.0, 1)], 10, 20260810),
        "m3000": Job([((3000,), 0.8, 0)], 12, 20260810),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", CASES)
    def test_equals_run_sample_fold(self, case, workers):
        job = self.CASES[case]
        assert sample_points(job, workers) == _folded(job)

    def test_cases_cover_every_outcome(self):
        stats = [s for job in self.CASES.values() for s in _folded(job)]
        assert all(sum(getattr(s, name) for s in stats) > 0 for name in (
            "fixed_count", "periodic_count", "unresolved_count", "tail_sum",
        ))

    def test_tick_losing_mass_is_an_overflow_naming_the_sample(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "tick_kernel", lambda shape: np.zeros_like)
        seed = mix_seed(41, 2, 0)
        with pytest.raises(OverflowError, match=rf"grid_index=2, sample_index=0, seed={seed}\): .*mass not conserved"):
            sample_points(Job([((30,), 0.7, 2)], 4, 41))

    def test_exception_not_built_from_a_message_is_named_in_a_note(self, monkeypatch):
        # such as numpy's MemoryError, which takes a shape and a dtype
        class ShapeError(Exception):
            def __init__(self, shape, dtype):
                super().__init__(f"cannot allocate {shape} of {dtype}")

        def failing(n, p, seed):
            raise ShapeError((n,), "uint64")

        monkeypatch.setattr(montecarlo, "_bernoulli_cells", failing)
        with pytest.raises(ShapeError) as raised:
            sample_points(Job([((30,), 0.7, 2)], 4, 41))
        assert raised.value.__notes__ == [f"sample (grid_index=2, sample_index=0, seed={mix_seed(41, 2, 0)})"]


def _sleep_then_return(args):
    seconds, value = args
    time.sleep(seconds)
    return value


class TestPool:
    def test_results_in_task_order_when_later_tasks_finish_first(self):
        with montecarlo.Pool(processes=2) as pool:
            assert list(pool.map(_sleep_then_return, [(0.5, "a"), (0, "b"), (0, "c"), (0, "d")])) == ["a", "b", "c", "d"]

    def test_first_result_yielded_while_a_later_task_runs(self):
        with montecarlo.Pool(processes=2) as pool:
            results = pool.map(_sleep_then_return, [(0, "a"), (2.0, "b")])
            start = time.perf_counter()
            assert next(results) == "a"
            assert time.perf_counter() - start < 1.0
            # leaving the pool ends "b" unfinished; the order test checks later results

    def test_task_error_is_raised_with_the_worker_traceback(self):
        with pytest.raises(ValueError, match="invalid literal") as raised:
            with montecarlo.Pool(processes=2) as pool:
                list(pool.map(int, ["1", "x"]))
        cause = raised.value.__cause__
        assert isinstance(cause, montecarlo.WorkerTraceback)
        assert str(cause).startswith("Traceback (most recent call last):")

    def test_worker_exit_mid_map_names_its_exit_code(self):
        # in a child process, so that a pool that hangs fails here by the timeout
        script = (
            "import os\n"
            "from groupform.montecarlo import Pool\n"
            "with Pool(processes=2) as pool:\n"
            "    list(pool.map(os._exit, [7]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(montecarlo.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert re.fullmatch(r"RuntimeError: pool worker \d+ exited with code 7", done.stderr.splitlines()[-1])

    def test_worker_killed_between_maps_names_its_exit_code(self):
        with montecarlo.Pool(processes=2) as pool:
            assert list(pool.map(abs, [-1, -2])) == [1, 2]
            worker = multiprocessing.active_children()[0]
            worker.kill()
            worker.join(timeout=10)
            assert not worker.is_alive()
            with pytest.raises(RuntimeError, match=rf"pool worker {worker.pid} exited with code -9"):
                list(pool.map(abs, [-1, -2]))


class TestSweepConfig:
    def _config(self, **overrides):
        fields = dict(
            shape=TorusShape((24,)),
            p_max=0.5,
            p_steps=2,
            samples=4,
            master_seed=123,
            max_steps=None,
        )
        fields.update(overrides)
        return SweepConfig(**fields)

    def test_grid_from_integer_index(self):
        config = self._config()
        assert config.p_values() == [0.0, 0.25, 0.5]
        assert config.job() == Job(curve((24,), config.p_values()), 4, 123, None)
        assert self._config(p_max=0.96, p_steps=96).p_values()[7] == 7 * 0.96 / 96
        assert p_grid(0.96, 96) == self._config(p_max=0.96, p_steps=96).p_values()

    def test_validation(self):
        with pytest.raises(ValueError):
            self._config(p_max=1.5)
        with pytest.raises(ValueError):
            self._config(p_steps=-1)
        for p_max in (0.0, 0.5):
            with pytest.raises(ValueError, match="p_steps"):
                self._config(p_steps=0, p_max=p_max)
        with pytest.raises(ValueError):
            self._config(samples=0)
        with pytest.raises(ValueError):
            self._config(max_steps=0)
        # a float count would fail later, in p_values() or in sample_points
        for field, value in (("p_steps", 2.5), ("max_steps", 2.5)):
            with pytest.raises(ValueError, match=field):
                self._config(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_master_seed_outside_64_bits_rejected(self, seed):
        # mix_seed reads 64 bits, so these would alias 2**64-1, 0 and 5
        with pytest.raises(ValueError, match="master_seed"):
            self._config(master_seed=seed)

    def test_master_seed_range_ends_accepted(self):
        assert self._config(master_seed=0).master_seed == 0
        assert self._config(master_seed=2**64 - 1).master_seed == 2**64 - 1

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


class TestBenchmarkHooks:
    """The benchmark runs ``montecarlo.run_sweep``, wraps
    ``montecarlo.sample_grid_point``, swaps in its own ``montecarlo.Pool``
    and reads ``SweepConfig.resolved_max_steps``; the library itself needs
    none of these hooks, so these tests keep them working."""

    def test_sweep_pool_looked_up_at_call_time(self, recording_pool):
        built, maps = recording_pool
        config = SweepConfig(TorusShape((24,)), p_max=0.8, p_steps=2, samples=12, master_seed=2024)
        serial = montecarlo.run_sweep(config, workers=1)
        assert built == [] and maps == []
        pooled = montecarlo.run_sweep(config, workers=2)
        assert built == [2]
        assert maps == [len(config.p_values()) * len(montecarlo._blocks(config.samples, 2))]
        assert pooled.points == serial.points

    def test_resolved_max_steps(self):
        shape = TorusShape((7, 5))
        assert SweepConfig(shape, 0.5, 2, 4, 0).resolved_max_steps() == default_max_steps(shape)
        assert SweepConfig(shape, 0.5, 2, 4, 0, max_steps=9).resolved_max_steps() == 9

    def test_sample_grid_point_is_a_one_point_run(self):
        shape = TorusShape((30,))
        hook = montecarlo.sample_grid_point(shape, 0.7, 10, master_seed=41, grid_index=2, workers=2)
        assert hook == sample_points(Job([((30,), 0.7, 2)], 10, 41))[0]


class TestDensityCurveShape:
    def test_qualitative_shape(self):
        # singles dominate sparse systems, their density rises to an interior
        # peak and then falls, and every density vanishes as p -> 0
        grid = (0.05, 0.1, 0.35, 0.8)
        stats = dict(zip(grid, sample_points(Job(curve((300,), grid), 500, 5150))))
        for p in (0.1, 0.35):
            q1 = stats[p].mean_q(1)
            assert all(q1 > stats[p].mean_q(r) for r in (2, 3, 4))
        assert stats[0.35].mean_q(1) > stats[0.1].mean_q(1)
        assert stats[0.35].mean_q(1) > stats[0.8].mean_q(1)
        sparse = stats[0.05]
        assert sparse.mean_q(1) < 0.07
        assert all(sparse.mean_q(r) < 0.01 for r in (2, 3, 4))
        (empty,) = sample_points(Job([((300,), 0.0, 9)], 20, 5150))
        assert all(empty.mean_q(r) == 0.0 for r in (1, 2, 3, 4))
