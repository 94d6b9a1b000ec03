#!/usr/bin/env python3
"""Generate the full experiment datasets (steady-state density curves,
relaxation-time scaling, one-step model validation, 2D sweeps).

Writes plot-ready CSVs into --out. The full scale (10000 samples per grid
point) reproduces the published curves but takes hours on a laptop; the
default demo scale keeps every dataset under a few minutes and is enough
to see every qualitative feature. Each grid point's rows are written as
soon as it is complete, so a stopped run keeps every finished point.

Usage:
    python scripts/run_figure_sweeps.py --out results [--scale demo|full]
        [--experiment all|onestep|density1d|relaxation|density2d|dense2d]
        [--threads N]
"""

import argparse
import os
import sys
import time

from groupform import SweepConfig, TorusShape
from groupform.cli import (DEFAULT_WORKERS, EXIT_INTERRUPTED, SWEEP_COLUMNS, at_least, output, sweep_rows,
                           write_points, write_primitive_csv)

MASTER_SEED = 20260810

# samples per grid point, shared by every Monte Carlo dataset of a scale
DEMO = {"samples": 300, "relax_sizes": (300, 1000, 3000, 10000)}
FULL = {"samples": 10_000, "relax_sizes": (300, 500, 1000, 2000, 3000, 4000, 6000, 8000, 10_000)}


def log(message):
    print(message, file=sys.stderr, flush=True)


def density(dims, samples):
    """Q_r(p) curves: the `groupform sweep` grid p = 0..0.96 in 96 steps."""
    config = SweepConfig(TorusShape(dims), p_max=0.96, p_steps=96, samples=samples, master_seed=MASTER_SEED)
    return SWEEP_COLUMNS, sweep_rows, config.points()


def relaxation(sizes):
    """Mean n_st against torus size; every point keeps grid index 0."""
    columns = ("p", "m", "mean_n_st", "settled", "samples")
    points = [(TorusShape((m,)), p, 0) for p in (0.35, 0.6, 0.85) for m in sizes]
    return columns, lambda s: [[s.p, s.total_cells, s.mean_n_st(), s.fixed_count, s.samples]], points


def dense_2d():
    """Per-size density tables for very dense 2D initial states."""
    points = [(TorusShape((200, 200)), p, i) for i, p in enumerate((0.9, 0.99))]
    return ("p", "r", "mean_Q"), lambda s: [[s.p, r, s.mean_q(r)] for r in sorted(s.count_sums)], points


def datasets(scale):
    """The Monte Carlo datasets of a scale, in run order: (experiment, file name, job)."""
    samples = scale["samples"]
    return [
        ("density1d", "density_1d_m3000.csv", density((3000,), samples)),
        ("density1d", "density_1d_m4000.csv", density((4000,), samples)),
        ("relaxation", "relaxation_times.csv", relaxation(scale["relax_sizes"])),
        ("density2d", "density_2d_100x150.csv", density((100, 150), samples)),
        ("density2d", "density_2d_200x200.csv", density((200, 200), samples)),
        ("dense2d", "dense_2d_histograms.csv", dense_2d()),
    ]


def write_dataset(path, job, samples, threads):
    """Write ``job``, a ``(columns, rows, points)`` triple for ``write_points``, to ``path``
    and, once it is complete, its manifest: the points, the samples per point and the seed."""
    columns, rows, points = job
    name, started = os.path.basename(path), time.time()

    def progress(k, p, stats):
        log(f"  {name} [{k + 1}/{len(points)}] p={p:.4f} cells={stats.total_cells} fixed={stats.fixed_count}")

    parameters = {"points": [[list(shape.dims), p, i] for shape, p, i in points], "samples": samples}
    with output(path, "run_figure_sweeps", parameters, MASTER_SEED) as out:
        write_points(out, columns, rows, points, samples, MASTER_SEED,
                     max_steps=None, workers=threads, progress=progress)
    log(f"wrote {path} in {time.time() - started:.0f}s")


def onestep_table(out_path, seeds):
    """The file and manifest that `groupform primitive --m 10000 --seeds SEEDS --seed MASTER_SEED` writes."""
    write_primitive_csv(out_path, 10_000, 1.0, 100, seeds, MASTER_SEED)
    log(f"wrote {out_path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--scale", choices=("demo", "full"), default="demo")
    experiments = ("all", "onestep", *dict.fromkeys(experiment for experiment, _, _ in datasets(DEMO)))
    parser.add_argument("--experiment", choices=experiments, default="all")
    parser.add_argument("--threads", type=at_least(1), default=DEFAULT_WORKERS)
    args = parser.parse_args()

    scale = FULL if args.scale == "full" else DEMO
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.experiment in ("all", "onestep"):
            onestep_table(os.path.join(args.out, "onestep_densities.csv"), seeds=100)
        for experiment, file_name, job in datasets(scale):
            if args.experiment in ("all", experiment):
                write_dataset(os.path.join(args.out, file_name), job, scale["samples"], args.threads)
    except KeyboardInterrupt:
        log("error: interrupted")
        return EXIT_INTERRUPTED
    return 0


if __name__ == "__main__":
    sys.exit(main())
