#!/usr/bin/env python3
"""Sample-throughput benchmark of groupform, run from the repository root.

    python3 perfbench/run.py --workload onedim_m3000 --seed 1 --trace 0
    python3 perfbench/run.py                      # every workload in turn

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json. With
``--trace 0`` it prints the end-to-end metrics (sample throughput,
per-sample latency, set-up time, peak RSS) and the failed ratio, measured
over ``--seconds`` of timed calls. With ``--trace 1`` it runs the same fixed
set of samples (``trace_rate`` x ``--seconds`` of them, so every count
depends only on the seed) untraced and then traced, and prints the
per-layer split. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Results and
spans are also written to ``perfbench/out/``. Exit status 2 means the
groupform sources under ``src/`` could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
DECLARED = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1  # the seed whose aggregates are stored in golden.json

# Each run times this many fresh-process imports (after one untimed warm-up
# that fills the file and bytecode caches) and reports their median. Process
# start-up and imports drift with the host by up to half, and not in step
# with compute speed, so each set-up is followed by a fresh process that
# imports numpy alone, and the set-up time is scaled by NUMPY_IMPORT_S (its
# time on the reference host) over the time that import took.
SETUP_RUNS = 11
NUMPY_IMPORT_S = 0.1
CALIBRATION_CODE = """\
import time
start = time.perf_counter()
import numpy
print(time.perf_counter() - start)
"""
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import numpy, groupform
workers = int(sys.argv[1])
if workers:
    import multiprocessing
    with multiprocessing.Pool(workers) as pool:
        pool.map(abs, range(workers))
print(time.perf_counter() - start, groupform.__file__)
"""


def measure_setup(workers: int) -> list[tuple[float, float]]:
    """(seconds, host speed) of each timed fresh-process set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def child(*args) -> list[str]:
        done = subprocess.run(
            [sys.executable, "-c", *args], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        return done.stdout.split()

    times = []
    for _ in range(SETUP_RUNS + 1):
        seconds, module = child(SETUP_CODE, str(workers))
        if not Path(module).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported groupform from {module}, not from {SRC}")
        (numpy_s,) = child(CALIBRATION_CODE)
        times.append((float(seconds), NUMPY_IMPORT_S / float(numpy_s)))
    return times[1:]


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(window, setup: list[tuple[float, float]]) -> dict:
    """Times on the reference host; the notes give the unscaled numbers."""
    n = f"n={len(window.latencies_ms)}"
    return {
        "samples_per_s": (window.samples_per_s, "1/s",
                          f"{window.timed_samples} samples in {window.busy_s:.2f} s, unscaled "
                          f"{window.raw_samples_per_s:.4g}/s, host speed median "
                          f"{statistics.median(window.speeds):.3f} of {len(window.speeds)} blocks"),
        "sample_ms_p50": (window.sample_ms_p50, "ms", n),
        "sample_ms_p90": (window.sample_ms_p90, "ms", n),
        "setup_s": (statistics.median(s * speed for s, speed in setup), "s",
                    f"median of {len(setup)} fresh processes, unscaled {statistics.median(s for s, _ in setup):.4f} s"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "max of this process and its children"),
    }


def pool_workers(bench, workload) -> int:
    return workload.workers if isinstance(workload, bench.SweepWorkload) else 0


def per_layer(bench, workload, untraced, traced, tracer) -> dict:
    t = tracer
    c = t.counts
    step_calls = t.calls("dynamics.step")
    ticks = c["steady.ticks"]
    instrument = t.busy("trace.counters")
    if pool_workers(bench, workload):
        serial_sps = workload.samples_per_sweep / untraced.serial_s
        efficiency = untraced.raw_samples_per_s / (workload.workers * serial_sps)
    else:
        efficiency = 0.0
    untraced_sps, traced_sps = untraced.samples_per_s, traced.samples_per_s
    return {
        "dynamics.step.calls": (step_calls, "count"),
        "dynamics.step.busy_s": (t.busy("dynamics.step"), "s"),
        "dynamics.step.self_s": (t.self_time("dynamics.step"), "s"),
        "dynamics.step.us_per_call": (t.busy("dynamics.step") / max(step_calls, 1) * 1e6, "us"),
        "dynamics.step.cells_scanned": (c["dynamics.step.cells"], "count"),
        "dynamics.step.occupied_cells": (c["dynamics.step.occupied"], "count"),
        "dynamics.step.moving_cells": (c["dynamics.step.moving"], "count"),
        "dynamics.step.moving_ratio": (c["dynamics.step.moving"] / max(c["dynamics.step.occupied"], 1), "ratio"),
        "steady.evolve.calls": (t.calls("steady.evolve"), "count"),
        "steady.evolve.busy_s": (t.busy("steady.evolve"), "s"),
        "steady.evolve.self_s": (t.self_time("steady.evolve"), "s"),
        "steady.ticks": (ticks, "count"),
        "steady.replay_steps": (step_calls - ticks, "count"),
        "steady.useful_tick_ratio": (ticks / max(step_calls, 1), "ratio"),
        "steady.fixed": (c["steady.fixed"], "count"),
        "steady.periodic": (c["steady.periodic"], "count"),
        "steady.unresolved": (c["steady.unresolved"], "count"),
        "lattice.LatticeState.constructions": (t.calls("lattice.LatticeState"), "count"),
        "lattice.LatticeState.busy_s": (t.busy("lattice.LatticeState"), "s"),
        "montecarlo.run_sample.self_s": (t.self_time("montecarlo.run_sample"), "s"),
        "montecarlo.bernoulli_state.busy_s": (t.busy("montecarlo.bernoulli_state"), "s"),
        "montecarlo.measure.busy_s": (t.busy("montecarlo.measure"), "s"),
        "montecarlo.aggregate.busy_s": (t.busy("montecarlo.aggregate"), "s"),
        "montecarlo.sample_grid_point.self_s": (t.self_time("montecarlo.sample_grid_point"), "s"),
        "montecarlo.pool.map_calls": (t.calls("montecarlo.pool.map"), "count"),
        "montecarlo.pool.tasks": (c["montecarlo.pool.tasks"], "count"),
        "montecarlo.pool.map_s": (t.busy("montecarlo.pool.map"), "s"),
        "montecarlo.pool.efficiency": (efficiency, "ratio"),
        "trace.wall_s": (t.wall_s, "s"),
        "trace.instrument_s": (instrument, "s"),
        # share of per-sample time, tracing's own counting excluded
        "trace.step_evolve_share": (
            (t.busy("dynamics.step") + t.self_time("steady.evolve"))
            / (t.busy("montecarlo.run_sample") - instrument), "ratio"),
        "trace.samples_per_s_untraced": (untraced_sps, "1/s"),
        "trace.samples_per_s_traced": (traced_sps, "1/s"),
        "trace.overhead": (1.0 - traced_sps / untraced_sps, "ratio"),
        "trace.spans": (len(t.spans) + t.dropped, "count"),
    }


def run_one(bench, name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer

    workload = bench.WORKLOADS[name]
    golden_file = json.loads(GOLDEN.read_text())
    golden = golden_file["workloads"][name] if seed == golden_file["seed"] else None
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        samples = max(1, round(seconds * workload.trace_rate))
        untraced = workload.measure(seed, seconds, golden=golden, samples=samples)
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.measure(seed, seconds, tracer, golden, samples)
        finally:
            tracer.uninstall()
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))
        windows = [untraced, traced]
        rows = {k: (v, unit, "") for k, (v, unit) in per_layer(bench, workload, untraced, traced, tracer).items()}
    else:
        setup = measure_setup(pool_workers(bench, workload))
        windows = [workload.measure(seed, seconds, golden=golden)]
        rows = end_to_end(windows[0], setup)
    attempted = sum(w.attempted for w in windows)
    failed = sum(len(w.failed_ids) for w in windows)
    for w in windows:
        bench.report_problems(w)
    env = bench.environment(workload)
    print(f"# {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"# environment {json.dumps(env)}")
    for metric, (value, unit, note) in rows.items():
        print(f"{metric:<38} {value:>16.6g} {unit:<6} {note}")
    print(f"{'failed_ratio':<38} {failed / attempted:>16.6g} {'ratio':<6} {failed} of {attempted} samples")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in rows.items()},
    }
    notes = {k: note for k, (_, _, note) in rows.items() if note}
    stem.with_suffix(".json").write_text(json.dumps({"environment": env, "result": result, "notes": notes}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    if not (SRC / "groupform" / "__init__.py").is_file():
        print(f"perfbench: no groupform sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import bench
    except ImportError as exc:
        print(f"perfbench: cannot import groupform from {SRC}: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*bench.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=json.loads(DECLARED.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        status = 0
        for name in bench.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd).returncode)
        return status
    result = run_one(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
