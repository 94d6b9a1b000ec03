"""Command-line interface: simulate | sweep | primitive | verify | figures.

Data goes to files or standard output; progress goes to standard error,
so outputs are pipeline-safe. Exit codes: 0 success, 1 verification or
property failure, 2 usage/config error, 130 interrupted (Ctrl-C), each
error a single ``error:`` line. Every flag value is checked by its
argparse type at parse time, so a bad one is a one-line usage error
before any output exists. ``csv`` writes each float as its shortest
round-trip decimal, so outputs are byte-stable.

Every output file of every command, each figure dataset included, is
opened through ``output``, which writes a manifest JSON next to it with
everything needed to reproduce the file exactly. An earlier manifest is
removed first and the new one is written last, so a manifest marks a
complete output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from contextlib import contextmanager
from functools import partial

from . import __version__
from .dynamics import step
from .lattice import UINT64_MAX, TorusShape, load_state, read_json
from .montecarlo import TAIL_MIN_SIZE, SweepConfig, bernoulli_state, p_grid
from .primitive import analytic_densities, replica_densities
from .steady import OutcomeKind, default_max_steps, evolve
from .verify import Job, curve, full_checks, quick_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C
DEFAULT_WORKERS = os.cpu_count() or 1  # --threads of every command with a process pool


def at_least(low: int, high: int | None = None):
    """argparse type: an integer no smaller than ``low`` and, if given, no larger than ``high``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return integer


def probability(text: str) -> float:
    """argparse type: a float in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def even_size(text: str) -> int:
    """argparse type: an even integer of at least 4 (a primitive-model torus)."""
    value = int(text)
    if value % 2 != 0 or value < 4:
        raise argparse.ArgumentTypeError(f"must be even and >= 4, got {value}")
    return value


def torus_shape(text: str) -> TorusShape:
    """argparse type: comma-separated torus dims such as 3000 or 200,200."""
    dims = tuple(int(part) for part in text.split(","))
    try:
        return TorusShape(dims)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@contextmanager
def output(path: str, command: str, parameters: dict, master_seed: int | None, manifest: str | None = None,
           **extras):
    """Open ``path`` for a command's output, or yield stdout for ``-``. A file gets a
    manifest (default ``path + ".manifest.json"``) with everything needed to regenerate it
    bit-for-bit: an earlier one is removed before ``path`` is opened, and the new one is
    written only once the body has returned, so a manifest marks a complete output."""
    if path == "-":
        yield sys.stdout
        return
    manifest = manifest or path + ".manifest.json"
    if os.path.exists(manifest):
        os.remove(manifest)
    start = time.perf_counter()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh
    record = {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "master_seed": master_seed,
        "duration_seconds": time.perf_counter() - start,
        "outputs": [path],
        **extras,
    }
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# simulate


def _json_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


def _outcome_record(outcome) -> dict:
    return {
        "kind": outcome.kind.value,
        "steps_taken": outcome.steps_taken,
        "n_st": outcome.n_st,
        "entry_time": outcome.entry_time,
        "period": outcome.period,
        "mass": outcome.steady_state.total_mass(),
        "steady_state": outcome.steady_state.to_json_dict(),
    }


def cmd_simulate(args) -> int:
    if args.state is not None:
        if args.dims is not None or args.p is not None or args.seed is not None:
            raise ValueError("give either --state or --dims/--p/--seed, not both")
        initial = load_state(args.state)
        parameters = {"state_file": args.state}
    elif args.dims is not None:
        if args.p is None:
            raise ValueError("--dims requires --p (and optionally --seed)")
        seed = 0 if args.seed is None else args.seed
        initial = bernoulli_state(args.dims, args.p, seed)
        parameters = {"dims": list(args.dims.dims), "p": args.p, "seed": seed}
    else:
        raise ValueError("give an initial state: --state FILE or --dims DIMS --p P")

    max_steps = args.max_steps if args.max_steps is not None else default_max_steps(initial.shape)
    outcome = evolve(initial, max_steps)
    # a periodic outcome's steps_taken is entry_time + period
    dump_until = outcome.n_st if outcome.kind is OutcomeKind.FIXED else outcome.steps_taken

    # T(0) .. T(dump_until) are written as they are stepped, one state held at a time
    with output(args.out, "simulate", {**parameters, "max_steps": max_steps}, parameters.get("seed"),
                initial_state=initial.to_json_dict(), outcome_kind=outcome.kind.value) as out:
        state = initial
        out.write(_json_line(state.to_json_dict()))
        for _ in range(dump_until):
            state = step(state)
            out.write(_json_line(state.to_json_dict()))
        out.write(_json_line(_outcome_record(outcome)))

    if outcome.kind is OutcomeKind.UNRESOLVED:
        print(f"warning: no steady state or cycle within {max_steps} steps", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

SWEEP_COLUMNS = (
    "p",
    "r",
    "mean_Q",
    "stderr_Q",
    "mean_N_st",
    "fixed_count",
    "periodic_count",
    "unresolved_count",
    "samples",
)


def sweep_rows(stats) -> list[list]:
    """One grid point's ``sweep.csv`` rows: the ``r=0`` sentinel, ``r=1..4``, then ``tail``."""
    p = stats.p
    counts = [stats.fixed_count, stats.periodic_count, stats.unresolved_count, stats.samples]
    return [[p, 0, "", "", stats.mean_n_st(), *counts]] + [
        [p, r, stats.mean_q(r), stats.stderr_q(r), "", "", "", "", ""] for r in (*range(1, TAIL_MIN_SIZE), "tail")
    ]


def write_points(out, columns, rows, job: Job, workers, label="") -> None:
    """Run ``job`` into the open CSV file ``out``: ``columns``, then each point's ``rows(stats)``,
    flushed as soon as the point is complete and before its progress line, ``label`` first,
    goes to stderr. A stopped run leaves the rows of every complete point, a prefix of the full file."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)

    def write(k, p, stats):
        writer.writerows(rows(stats))
        out.flush()
        print(f"{label}[{k + 1}/{len(job.points)}] p={p:.4f} cells={stats.total_cells} fixed={stats.fixed_count} "
              f"periodic={stats.periodic_count} unresolved={stats.unresolved_count}", file=sys.stderr, flush=True)

    job.run(workers, write)


def cmd_sweep(args) -> int:
    config = SweepConfig.from_json_dict(read_json(args.config))
    os.makedirs(args.out, exist_ok=True)
    job = Job(curve(config.shape.dims, config.p_values()), config.samples, config.master_seed, config.max_steps)
    with output(os.path.join(args.out, "sweep.csv"), "sweep", config.to_json_dict(), config.master_seed,
                manifest=os.path.join(args.out, "manifest.json")) as out:
        write_points(out, SWEEP_COLUMNS, sweep_rows, job, args.threads)
    return EXIT_OK


# ---------------------------------------------------------------------------
# primitive

PRIMITIVE_COLUMNS = (
    "p",
    "q1_analytic",
    "q2_analytic",
    "q3_analytic",
    "q1_mc",
    "q2_mc",
    "q3_mc",
    "q1_stderr",
    "q2_stderr",
    "q3_stderr",
)


def write_primitive_csv(path: str, m: int, p_max: float, p_steps: int, seeds: int, master_seed: int) -> None:
    """Closed-form and Monte Carlo Q_1..Q_3 at each point of ``p_grid(p_max, p_steps)``, to ``path``."""
    parameters = {"m": m, "p_max": p_max, "p_steps": p_steps, "seeds": seeds}
    with output(path, "primitive", parameters, master_seed) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(PRIMITIVE_COLUMNS)
        for i, p in enumerate(p_grid(p_max, p_steps)):
            means, errors = replica_densities(m, p, i, seeds, master_seed)
            writer.writerow([p, *analytic_densities(p), *means, *errors])


def cmd_primitive(args) -> int:
    write_primitive_csv(args.out, args.m, args.p_max, args.p_steps, args.seeds, args.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    checks = full_checks(workers=args.threads) if args.scale == "full" else quick_checks()
    failed = [c for c in checks if not c.passed]
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail} ({check.seconds:.1f}s)")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed ({args.scale} scale)")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# figures

MASTER_SEED = 20260810


def density(dims, samples):
    """Q_r(p) curves: the `groupform sweep` grid p = 0..0.96 in 96 steps."""
    size = "x".join(map(str, dims)) if len(dims) > 1 else f"m{dims[0]}"
    job = Job(curve(dims, p_grid(0.96, 96)), samples, MASTER_SEED)
    return f"density{len(dims)}d", f"density_{len(dims)}d_{size}.csv", SWEEP_COLUMNS, sweep_rows, job


def relaxation(sizes, samples):
    """Mean n_st against torus size; every point keeps grid index 0."""
    job = Job([((m,), p, 0) for p in (0.35, 0.6, 0.85) for m in sizes], samples, MASTER_SEED)
    return ("relaxation", "relaxation_times.csv", ("p", "m", "mean_n_st", "settled", "samples"),
            lambda s: [[s.p, s.total_cells, s.mean_n_st(), s.fixed_count, s.samples]], job)


def dense_2d(samples):
    """Per-size density tables for very dense 2D initial states."""
    job = Job(curve((200, 200), (0.9, 0.99)), samples, MASTER_SEED)
    return ("dense2d", "dense_2d_histograms.csv", ("p", "r", "mean_Q"),
            lambda s: [[s.p, r, s.mean_q(r)] for r in sorted(s.count_sums)], job)


def datasets(scale):
    """The Monte Carlo datasets of ``scale``, demo or full, in run order, each a row (experiment, file name,
    columns, rows, job): ``write_dataset`` writes the columns, then each point's ``rows(stats)``."""
    samples = 10_000 if scale == "full" else 300
    sizes = (300, 500, 1000, 2000, 3000, 4000, 6000, 8000, 10_000) if scale == "full" else (300, 1000, 3000, 10_000)
    return [
        density((3000,), samples),
        density((4000,), samples),
        relaxation(sizes, samples),
        density((100, 150), samples),
        density((200, 200), samples),
        dense_2d(samples),
    ]


def write_dataset(path, dataset, threads):
    """Write ``dataset`` to ``path``, then its manifest: its job's points, samples per point and seed."""
    *_, columns, rows, job = dataset
    started = time.time()
    with output(path, "figures", {"points": job.points, "samples": job.samples}, job.seed) as out:
        write_points(out, columns, rows, job, threads, f"  {os.path.basename(path)} ")
    print(f"wrote {path} in {time.time() - started:.0f}s", file=sys.stderr, flush=True)


def cmd_figures(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.experiment in ("all", "onestep"):
        # the file and manifest that `groupform primitive --seeds 100 --seed MASTER_SEED` writes
        path = os.path.join(args.out, "onestep_densities.csv")
        write_primitive_csv(path, 10_000, 1.0, 100, 100, MASTER_SEED)
        print(f"wrote {path}", file=sys.stderr, flush=True)
    for dataset in datasets(args.scale):
        experiment, file_name, *_ = dataset
        if args.experiment in ("all", experiment):
            write_dataset(os.path.join(args.out, file_name), dataset, args.threads)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupform",
        description="Group-formation dynamics on discrete tori: evolve states, "
        "sweep densities, validate the one-step model, verify invariants, write the figure datasets.",
        exit_on_error=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    add_command = partial(sub.add_parser, exit_on_error=False)
    workers = {"type": at_least(1), "default": DEFAULT_WORKERS}

    sim = add_command("simulate", help="evolve one initial state and dump the trajectory")
    sim.add_argument("--state", help="JSON state file: {\"dims\": [...], \"values\": [...]}")
    sim.add_argument("--dims", type=torus_shape, help="torus dims for a random state, e.g. 3000 or 200,200")
    sim.add_argument("--p", type=probability, help="one-element-group density for a random state")
    sim.add_argument("--seed", type=at_least(0), help="seed for the random state (default 0)")
    sim.add_argument("--max-steps", type=at_least(1), help="iteration cap (default 100 * max dim)")
    sim.add_argument("--out", default="-", help="output JSONL path, or - for stdout (default)")
    sim.set_defaults(func=cmd_simulate)

    swe = add_command("sweep", help="Monte Carlo p-grid sweep from a JSON config")
    swe.add_argument("config", help="JSON config: dims, p_max, p_steps, samples, master_seed[, max_steps]")
    swe.add_argument("--out", required=True, help="output directory for sweep.csv and manifest.json")
    swe.add_argument("--threads", **workers, help="worker processes")
    swe.set_defaults(func=cmd_sweep)

    pri = add_command("primitive", help="one-step model: closed forms vs Monte Carlo")
    pri.add_argument("--m", type=even_size, default=10_000, help="even torus size (default 10000)")
    pri.add_argument("--p-max", type=probability, default=1.0, help="top of the p grid (default 1.0)")
    pri.add_argument("--p-steps", type=at_least(1), default=100, help="number of grid steps (default 100)")
    pri.add_argument(
        "--seeds", type=at_least(1), default=100, help="Monte Carlo replicas per p (default 100)"
    )
    pri.add_argument("--seed", type=at_least(0, UINT64_MAX), default=0, help="master seed, 0..2**64-1 (default 0)")
    pri.add_argument("--out", default="-", help="output CSV path, or - for stdout (default)")
    pri.set_defaults(func=cmd_primitive)

    ver = add_command("verify", help="run the named invariant and reproduction checks")
    ver.add_argument("--scale", choices=("quick", "full"), default="quick")
    ver.add_argument("--threads", **workers, help="worker processes for the full-scale checks")
    ver.set_defaults(func=cmd_verify)

    fig = add_command("figures", help="write the figure datasets, one CSV and manifest each")
    fig.add_argument("--out", default="results", help="output directory (default results)")
    samples = {s: "/".join(map(str, sorted({job.samples for *_, job in datasets(s)}))) for s in ("demo", "full")}
    fig.add_argument("--scale", choices=("demo", "full"), default="demo",
                     help=f"samples per grid point: demo {samples['demo']} (default), full {samples['full']}")
    experiments = ("all", "onestep", *dict.fromkeys(experiment for experiment, *_ in datasets("demo")))
    fig.add_argument("--experiment", choices=experiments, default="all", help="datasets to write (default all)")
    fig.add_argument("--threads", **workers, help="worker processes")
    fig.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
