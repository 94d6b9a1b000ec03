#!/usr/bin/env python3
"""Record reference numbers: ten seeds per workload plus one traced run each.

    python3 perfbench/baseline.py perfbench/baseline.json

For every workload and end-to-end metric it stores the ten values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median; for the traced run, every
per-layer metric. Takes about 21 minutes with ``run_seconds`` = 16.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(101, 111)
TRACE_SEED = 7


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} samples failed")
    return result


def main(out: str) -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    record = {"run_seconds": seconds, "seeds": list(SEEDS), "trace_seed": TRACE_SEED, "workloads": {}}
    for workload in (w["name"] for w in declared["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        end_to_end = {}
        for metric in declared["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": values,
            }
            print(f"{workload:14} {metric['name']:14} median {median:10.4g} {metric['unit']:5} spread {(q3 - q1) / median:.3f}")
        traced = run(workload, TRACE_SEED, seconds, 1)["metrics"]
        environment = json.loads((HERE / "out" / f"{workload}-seed{TRACE_SEED}-trace1.json").read_text())["environment"]
        record["workloads"][workload] = {"end_to_end": end_to_end, "per_layer": traced, "environment": environment}
        Path(out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
