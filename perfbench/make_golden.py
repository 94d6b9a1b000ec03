#!/usr/bin/env python3
"""Regenerate perfbench/golden.json: each workload's integer aggregate at the default seed.

    python3 perfbench/make_golden.py

Run it only when the program's results are meant to change; the benchmark
counts every sample of a workload whose aggregate differs from its golden
as failed.
"""

import json
import sys

from run import DEFAULT_SEED, GOLDEN, SRC

sys.path.insert(0, str(SRC))

import bench  # noqa: E402


def main() -> int:
    goldens = {}
    for name, workload in bench.WORKLOADS.items():
        window = workload.measure(DEFAULT_SEED, seconds=0.0)
        if window.failed_ids:
            bench.report_problems(window)
            return 1
        goldens[name] = window.reference
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": goldens}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
