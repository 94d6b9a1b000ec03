"""Command-line interface: simulate | sweep | primitive | verify.

Data goes to files or standard output; progress goes to standard error,
so outputs are pipeline-safe. Exit codes: 0 success, 1 verification or
property failure, 2 usage/config error. CSV numbers use the shortest
round-trip decimal representation, so outputs are byte-stable.

Every file-producing command writes a manifest JSON next to its output
with everything needed to reproduce the file exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from contextlib import nullcontext

from . import __version__
from .lattice import TorusShape, load_state
from .montecarlo import TAIL_MIN_SIZE, SweepConfig, bernoulli_state, run_sweep
from .primitive import analytic_densities, replica_densities
from .steady import OutcomeKind, default_max_steps, evolve, trajectory
from .verify import full_checks, quick_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_manifest(
    path: str,
    command: str,
    parameters: dict,
    master_seed: int | None,
    outputs: list[str],
    duration_seconds: float,
    **extras,
) -> None:
    """Write everything needed to regenerate an output file bit-for-bit."""
    record = {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "master_seed": master_seed,
        "duration_seconds": duration_seconds,
        "outputs": outputs,
        **extras,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def _parse_dims(text: str) -> TorusShape:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--dims must be comma-separated integers, got '{text}'") from exc
    return TorusShape(dims)


def _open_out(path: str):
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# simulate


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
        if args.dims or args.p is not None:
            raise ValueError("give either --state or --dims/--p/--seed, not both")
        initial = load_state(args.state)
        parameters = {"state_file": args.state}
    elif args.dims:
        if args.p is None:
            raise ValueError("--dims requires --p (and optionally --seed)")
        shape = _parse_dims(args.dims)
        initial = bernoulli_state(shape, args.p, args.seed)
        parameters = {"dims": list(shape.dims), "p": args.p, "seed": args.seed}
    else:
        raise ValueError("give an initial state: --state FILE or --dims DIMS --p P")

    max_steps = args.max_steps if args.max_steps is not None else default_max_steps(initial.shape)
    start = time.perf_counter()
    outcome = evolve(initial, max_steps)
    if outcome.kind is OutcomeKind.FIXED:
        dump_until = outcome.n_st
    elif outcome.kind is OutcomeKind.PERIODIC:
        dump_until = outcome.entry_time + outcome.period
    else:
        dump_until = outcome.steps_taken
    states = trajectory(initial, dump_until)

    with _open_out(args.out) as out:
        for state in states:
            out.write(json.dumps(state.to_json_dict(), separators=(",", ":")) + "\n")
        out.write(json.dumps(_outcome_record(outcome), separators=(",", ":")) + "\n")
    duration = time.perf_counter() - start

    if outcome.kind is OutcomeKind.UNRESOLVED:
        print(f"warning: no steady state or cycle within {max_steps} steps", file=sys.stderr)
    if args.out != "-":
        parameters["max_steps"] = max_steps
        write_manifest(
            args.out + ".manifest.json",
            "simulate",
            parameters,
            args.seed if args.state is None else None,
            [args.out],
            duration,
            initial_state=initial.to_json_dict(),
            outcome_kind=outcome.kind.value,
        )
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


def write_sweep_csv(result, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for stats in result.points:
            p = fmt(stats.p)
            writer.writerow(
                [
                    p,
                    0,
                    "",
                    "",
                    fmt(stats.mean_n_st()),
                    stats.fixed_count,
                    stats.periodic_count,
                    stats.unresolved_count,
                    stats.samples,
                ]
            )
            for r in range(1, TAIL_MIN_SIZE):
                writer.writerow([p, r, fmt(stats.mean_q(r)), fmt(stats.stderr_q(r)), "", "", "", "", ""])
            writer.writerow(
                [p, "tail", fmt(stats.mean_tail_q()), fmt(stats.stderr_tail_q()), "", "", "", "", ""]
            )


def cmd_sweep(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: not valid JSON ({exc})") from exc
    config = SweepConfig.from_json_dict(data)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "sweep.csv")
    manifest_path = os.path.join(args.out, "manifest.json")

    total = len(config.p_values())

    def progress(i, p, stats):
        print(
            f"[{i + 1}/{total}] p={p:.4f} fixed={stats.fixed_count} "
            f"periodic={stats.periodic_count} unresolved={stats.unresolved_count}",
            file=sys.stderr,
            flush=True,
        )

    start = time.perf_counter()
    result = run_sweep(config, workers=args.threads, progress=progress)
    duration = time.perf_counter() - start
    write_sweep_csv(result, csv_path)
    write_manifest(manifest_path, "sweep", config.to_json_dict(), config.master_seed, [csv_path], duration)
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


def write_primitive_csv(out, m: int, p_max: float, p_steps: int, seeds: int, master_seed: int) -> None:
    """Closed-form and Monte Carlo Q_1..Q_3 at p_i = i * p_max / p_steps."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PRIMITIVE_COLUMNS)
    for i in range(p_steps + 1):
        p = i * p_max / p_steps
        means, errors = replica_densities(m, p, i, seeds, master_seed)
        writer.writerow([fmt(x) for x in (p, *analytic_densities(p).as_tuple(), *means, *errors)])


def cmd_primitive(args) -> int:
    if args.m % 2 != 0:
        raise ValueError(f"--m must be even, got {args.m}")
    if args.p_steps < 1:
        raise ValueError("--p-steps must be >= 1")
    if not 0.0 <= args.p_max <= 1.0:
        raise ValueError(f"--p-max must be in [0, 1], got {args.p_max}")
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")

    start = time.perf_counter()
    with _open_out(args.out) as out:
        write_primitive_csv(out, args.m, args.p_max, args.p_steps, args.seeds, args.seed)
    duration = time.perf_counter() - start

    if args.out != "-":
        write_manifest(
            args.out + ".manifest.json",
            "primitive",
            {"m": args.m, "p_max": args.p_max, "p_steps": args.p_steps, "seeds": args.seeds},
            args.seed,
            [args.out],
            duration,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    checks = full_checks(workers=args.threads) if args.scale == "full" else quick_checks()
    failed = [c for c in checks if not c.passed]
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail} ({check.seconds:.1f}s)")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed ({args.scale} scale)")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupform",
        description="Group-formation dynamics on discrete tori: evolve states, "
        "sweep densities, validate the one-step model, verify invariants.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    sim = sub.add_parser("simulate", help="evolve one initial state and dump the trajectory")
    sim.add_argument("--state", help="JSON state file: {\"dims\": [...], \"values\": [...]}")
    sim.add_argument("--dims", help="torus dims for a random state, e.g. 3000 or 200,200")
    sim.add_argument("--p", type=float, help="one-element-group density for a random state")
    sim.add_argument("--seed", type=int, default=0, help="seed for the random state (default 0)")
    sim.add_argument("--max-steps", type=int, help="iteration cap (default 100 * max dim)")
    sim.add_argument("--out", default="-", help="output JSONL path, or - for stdout (default)")
    sim.set_defaults(func=cmd_simulate)

    swe = sub.add_parser("sweep", help="Monte Carlo p-grid sweep from a JSON config")
    swe.add_argument("config", help="JSON config: dims, p_max, p_steps, samples, master_seed[, max_steps]")
    swe.add_argument("--out", required=True, help="output directory for sweep.csv and manifest.json")
    swe.add_argument("--threads", type=int, default=os.cpu_count() or 1, help="worker processes")
    swe.set_defaults(func=cmd_sweep)

    pri = sub.add_parser("primitive", help="one-step model: closed forms vs Monte Carlo")
    pri.add_argument("--m", type=int, default=10_000, help="even torus size (default 10000)")
    pri.add_argument("--p-max", type=float, default=1.0, help="top of the p grid (default 1.0)")
    pri.add_argument("--p-steps", type=int, default=100, help="number of grid steps (default 100)")
    pri.add_argument("--seeds", type=int, default=100, help="Monte Carlo replicas per p (default 100)")
    pri.add_argument("--seed", type=int, default=0, help="master seed for the replicas (default 0)")
    pri.add_argument("--out", default="-", help="output CSV path, or - for stdout (default)")
    pri.set_defaults(func=cmd_primitive)

    ver = sub.add_parser("verify", help="run the named invariant and reproduction checks")
    ver.add_argument("--scale", choices=("quick", "full"), default="quick")
    ver.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1, help="worker processes for the full-scale checks"
    )
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
