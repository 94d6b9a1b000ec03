#!/usr/bin/env python3
"""Generate the full experiment datasets (steady-state density curves,
relaxation-time scaling, one-step model validation, 2D sweeps).

Writes plot-ready CSVs into --out. The full scale (10000 samples per grid
point) reproduces the published curves but takes hours on a laptop; the
default demo scale keeps every dataset under a few minutes and is enough
to see every qualitative feature.

Usage:
    python scripts/run_figure_sweeps.py --out results [--scale demo|full]
        [--experiment all|density1d|relaxation|onestep|density2d|dense2d]
        [--threads N]
"""

import argparse
import csv
import json
import os
import sys
import time

from groupform import SweepConfig, TorusShape, run_sweep, sample_grid_point
from groupform.cli import fmt, write_primitive_csv, write_sweep_csv

MASTER_SEED = 20260810

DEMO = {"sweep_samples": 300, "relax_samples": 300, "relax_sizes": (300, 1000, 3000, 10000)}
FULL = {
    "sweep_samples": 10_000,
    "relax_samples": 10_000,
    "relax_sizes": (300, 500, 1000, 2000, 3000, 4000, 6000, 8000, 10_000),
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def density_sweep(dims, out_path, samples, threads):
    config = SweepConfig(
        shape=TorusShape(dims),
        p_max=0.96,
        p_steps=96,
        samples_per_p=samples,
        master_seed=MASTER_SEED,
    )
    started = time.time()
    result = run_sweep(
        config,
        workers=threads,
        progress=lambda i, p, st: log(f"  {os.path.basename(out_path)} p={p:.2f} ({i + 1}/97)"),
    )
    write_sweep_csv(result, out_path)
    log(f"wrote {out_path} in {time.time() - started:.0f}s")


def relaxation_curves(out_path, sizes, samples, threads):
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p", "m", "mean_n_st", "settled", "samples"])
        for p in (0.35, 0.6, 0.85):
            for m in sizes:
                stats = sample_grid_point(
                    TorusShape((m,)), p, samples, MASTER_SEED, workers=threads
                )
                writer.writerow(
                    [fmt(p), m, fmt(stats.mean_n_st()), stats.fixed_count, stats.samples]
                )
                log(f"  relaxation p={p} M={m}: mean n_st={stats.mean_n_st():.1f}")
    log(f"wrote {out_path}")


def onestep_table(out_path, seeds):
    with open(out_path, "w", newline="") as fh:
        write_primitive_csv(fh, 10_000, 1.0, 100, seeds, MASTER_SEED)
    log(f"wrote {out_path}")


def dense_2d_histograms(out_path, samples, threads):
    """Per-size density tables for very dense 2D initial states."""
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p", "r", "mean_Q"])
        for grid_index, p in enumerate((0.9, 0.99)):
            stats = sample_grid_point(
                TorusShape((200, 200)), p, samples, MASTER_SEED,
                grid_index=grid_index, workers=threads,
            )
            for r in sorted(stats.count_sums):
                writer.writerow([fmt(p), r, fmt(stats.mean_q(r))])
            log(f"  dense 2D p={p}: sizes up to {max(stats.count_sums, default=0)}")
    log(f"wrote {out_path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--scale", choices=("demo", "full"), default="demo")
    parser.add_argument(
        "--experiment",
        choices=("all", "density1d", "relaxation", "onestep", "density2d", "dense2d"),
        default="all",
    )
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")

    scale = FULL if args.scale == "full" else DEMO
    os.makedirs(args.out, exist_ok=True)
    wanted = lambda name: args.experiment in ("all", name)

    if wanted("density1d"):
        for m in (3000, 4000):
            density_sweep((m,), os.path.join(args.out, f"density_1d_m{m}.csv"),
                          scale["sweep_samples"], args.threads)
    if wanted("relaxation"):
        relaxation_curves(os.path.join(args.out, "relaxation_times.csv"),
                          scale["relax_sizes"], scale["relax_samples"], args.threads)
    if wanted("onestep"):
        onestep_table(os.path.join(args.out, "onestep_densities.csv"), seeds=100)
    if wanted("density2d"):
        for dims in ((100, 150), (200, 200)):
            name = f"density_2d_{dims[0]}x{dims[1]}.csv"
            density_sweep(dims, os.path.join(args.out, name),
                          scale["sweep_samples"], args.threads)
    if wanted("dense2d"):
        dense_2d_histograms(os.path.join(args.out, "dense_2d_histograms.csv"),
                            scale["relax_samples"], args.threads)

    with open(os.path.join(args.out, "run_info.json"), "w") as fh:
        json.dump({"scale": args.scale, "experiment": args.experiment,
                   "master_seed": MASTER_SEED}, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
