#!/usr/bin/env python3
"""Self-tests of the benchmark: smoke sizes, and that broken outputs count as failed.

    python3 perfbench/selftest.py
"""

import dataclasses
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from groupform import montecarlo, steady  # noqa: E402
from groupform.lattice import LatticeState, TorusShape  # noqa: E402
from groupform.steady import OutcomeKind, default_max_steps  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 5


def smoke(workload):
    """The workload at a size that runs in well under a second."""
    dims = tuple(min(d, 40 if len(workload.dims) == 1 else 10) for d in workload.dims)
    if isinstance(workload, bench.SweepWorkload):
        return dataclasses.replace(workload, dims=dims, p_steps=3, samples_per_p=4)
    return dataclasses.replace(workload, dims=dims, golden_samples=8)


def periodic_sample():
    """A sample of the small_cycles shape that ends periodic."""
    shape = TorusShape((16, 16))
    for seed in range(1000):
        result = montecarlo.run_sample(shape, 0.8, seed)
        if result.outcome.kind is OutcomeKind.PERIODIC:
            return shape, seed, result
    raise AssertionError("no periodic sample among 1000 seeds")


class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_clean(self):
        for name, workload in bench.WORKLOADS.items():
            with self.subTest(name):
                w = smoke(workload).measure(SEED, 0.05)
                self.assertEqual(w.failed_ids, set(), w.problems)
                self.assertGreaterEqual(w.timed_samples, 1)
                self.assertTrue(w.latencies_ms)
                self.assertGreater(w.samples_per_s, 0)

    def test_times_are_scaled_by_host_speed(self):
        class HalfSpeed:
            def measure(self, seconds):
                return 0.5

        w = bench.Window()
        w.record(4, 2.0, [500.0] * 4)
        w.scale_block(HalfSpeed())
        self.assertEqual((w.samples_per_s, w.raw_samples_per_s, w.latencies_ms), (4.0, 2.0, [250.0] * 4))

    def test_matching_golden_passes(self):
        for name, workload in bench.WORKLOADS.items():
            with self.subTest(name):
                small = smoke(workload)
                golden = small.measure(SEED, 0.0).reference
                self.assertEqual(small.measure(SEED, 0.0, golden=golden).failed_ids, set())

    def test_traced_run_accounts_for_every_step(self):
        small = smoke(bench.WORKLOADS["small_cycles"])
        original = montecarlo.run_sample
        tracer = Tracer()
        tracer.install()
        try:
            w = small.measure(SEED, 0.05, tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(w.failed_ids, set(), w.problems)
        self.assertIs(montecarlo.run_sample, original)
        self.assertEqual(tracer.calls("steady.evolve"), w.attempted)
        self.assertGreaterEqual(tracer.calls("dynamics.step"), tracer.counts["steady.ticks"])
        ids = {span[0] for span in tracer.spans}
        self.assertTrue(all(span[4] is None or span[4] in ids for span in tracer.spans))
        self.assertGreaterEqual(tracer.self_time("steady.evolve"), 0.0)

    def test_traced_counts_depend_only_on_the_seed(self):
        small = smoke(bench.WORKLOADS["small_cycles"])
        counts = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                w = small.measure(SEED, 0.0, tracer, samples=30)
            finally:
                tracer.uninstall()
            self.assertEqual(w.timed_samples, 30)
            counts.append((dict(tracer.counts), {k: v[0] for k, v in tracer.layers.items()}))
        self.assertEqual(counts[0], counts[1])


class ContractTest(unittest.TestCase):
    def test_reported_metrics_are_the_declared_ones(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        small = smoke(bench.WORKLOADS["grid_pool"])
        untraced = small.measure(SEED, 0.05)
        tracer = Tracer()
        tracer.install()
        try:
            traced = small.measure(SEED, 0.05, tracer)
        finally:
            tracer.uninstall()
        rows = {
            "end_to_end": run.end_to_end(untraced, [(0.1, 1.0)]),
            "per_layer": run.per_layer(bench, small, untraced, traced, tracer),
        }
        for kind, metrics in rows.items():
            self.assertEqual([m["name"] for m in declared[kind]], list(metrics))
            self.assertEqual([m["unit"] for m in declared[kind]], [row[1] for row in metrics.values()])
        self.assertEqual([w["name"] for w in declared["workloads"]], list(bench.WORKLOADS))


class FailureCountingTest(unittest.TestCase):
    def test_perturbed_golden_fails_every_sample_it_covers(self):
        for name, workload in bench.WORKLOADS.items():
            with self.subTest(name):
                small = smoke(workload)
                golden = small.measure(SEED, 0.0).reference
                first = golden[0] if isinstance(golden, list) else golden
                first["n_st_sum"] += 1
                w = small.measure(SEED, 0.0, golden=golden)
                self.assertTrue(w.failed_ids)
                self.assertLessEqual(len(w.failed_ids), w.attempted)

    def test_broken_outcomes_are_caught(self):
        shape, seed, result = periodic_sample()
        cap = default_max_steps(shape)
        out = result.outcome
        for full in (False, True):
            self.assertIsNone(bench.check_sample(shape, 0.8, seed, cap, result, full))
        broken = [
            dataclasses.replace(result, initial_mass=result.initial_mass + 1),
            dataclasses.replace(result, outcome=dataclasses.replace(out, period=out.period + 1)),
            dataclasses.replace(result, outcome=dataclasses.replace(out, entry_time=out.entry_time + 1)),
            dataclasses.replace(result, outcome=dataclasses.replace(out, kind=OutcomeKind.FIXED, n_st=0)),
            dataclasses.replace(result, outcome=dataclasses.replace(out, kind=OutcomeKind.UNRESOLVED)),
            dataclasses.replace(result, outcome=dataclasses.replace(out, kind=OutcomeKind.FIXED, steps_taken=cap)),
        ]
        for bad in broken:
            for full in (False, True):
                self.assertIsNotNone(bench.check_sample(shape, 0.8, seed, cap, bad, full))
        # claims the cycle is entered one step later than it is; only the
        # re-derived trajectory shows it
        late = dataclasses.replace(
            out, entry_time=out.entry_time + 1, steps_taken=out.steps_taken + 1,
            steady_state=steady.step(out.steady_state),
        )
        self.assertIsNotNone(bench.check_sample(shape, 0.8, seed, cap, dataclasses.replace(result, outcome=late), True))
        self.assertIsNotNone(bench.check_sample(shape, 0.8, seed, out.entry_time + out.period - 1, result, False))

    def test_wrong_kernel_fails_at_a_seed_without_golden(self):
        """A mass-conserving kernel with wrong targets fails the checks, not only the golden."""
        kernels = {
            # the right targets, then everything shifted one cell
            "shifted": lambda v: np.roll(bench.reference_step(v), 1, axis=0),
            # each group moves towards its larger neighbour instead of away
            "reversed": lambda v: -bench.reference_step(-v),
        }
        for name, kernel in kernels.items():
            for workload in ("onedim_m3000", "small_cycles"):
                with self.subTest(kernel=name, workload=workload):
                    small = smoke(bench.WORKLOADS[workload])
                    wrong = lambda state: LatticeState(state.shape, kernel(state.values))  # noqa: E731
                    with mock.patch.object(steady, "step", wrong):
                        w = small.measure(SEED, 0.0, samples=8)
                    self.assertTrue(w.failed_ids, f"{name} kernel passed on {workload}")

    def test_broken_samples_count_in_failed(self):
        real = montecarlo.run_sample

        def off_by_one(shape, p, sample_seed, max_steps=None):
            result = real(shape, p, sample_seed, max_steps)
            return dataclasses.replace(result, initial_mass=result.initial_mass + 1)

        small = smoke(bench.WORKLOADS["onedim_m3000"])
        with mock.patch.object(montecarlo, "run_sample", off_by_one):
            w = small.measure(SEED, 0.05)
        self.assertEqual(len(w.failed_ids), w.attempted)

    def test_raising_sample_counts_in_failed(self):
        small = smoke(bench.WORKLOADS["twodim_200"])
        with mock.patch.object(montecarlo, "run_sample", side_effect=OverflowError("boom")):
            w = small.measure(SEED, 0.05)
        self.assertEqual(len(w.failed_ids), w.attempted)

    def test_pool_sweep_differing_from_serial_fails(self):
        real = montecarlo.run_sweep

        def skewed(config, workers=1, progress=None):
            result = real(config, workers, progress)
            if workers > 1:
                result.points[0].n_st_sum += 1
            return result

        small = smoke(bench.WORKLOADS["grid_pool"])
        with mock.patch.object(montecarlo, "run_sweep", skewed):
            w = small.measure(SEED, 0.05)
        self.assertGreaterEqual(len(w.failed_ids), small.samples_per_sweep)

    def test_inconsistent_grid_point_fails(self):
        small = smoke(bench.WORKLOADS["grid_pool"])
        point = montecarlo.run_sweep(small.config(SEED, 0)).points[-1]
        self.assertIsNone(bench.check_point(point, small.samples_per_p))
        point.fixed_initial_mass_sum += 1
        self.assertIsNotNone(bench.check_point(point, small.samples_per_p))


if __name__ == "__main__":
    unittest.main()
