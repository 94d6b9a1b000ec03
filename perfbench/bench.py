"""Workloads, timed windows and output checks of the groupform benchmark.

Every workload drives the public library API (``run_sample`` in a serial
loop, or ``run_sweep`` over a p-grid with a process pool) for a fixed
measuring time. Per-sample seeds come from ``mix_seed(seed, grid_index,
sample_index)``, so the same ``--seed`` gives the same inputs. Output
checks run outside the timed region and feed the failed-sample count; they
use a reference step kept here, not the library's kernel, so a wrong kernel
fails them at every seed.

Every time is scaled by the speed of the host, measured next to it. The
same code on the same host runs up to a third faster or slower from one
half-minute to the next, with no steal time and with CPU time following
wall time, so the host, not this process, sets the pace. Timed work is
therefore split into blocks of about ``BLOCK_S`` seconds; after each block
``HostSpeed`` runs a frozen calibration kernel for ``CALIBRATION_SHARE`` of
the block's time, and the block's time and latencies are multiplied by the
speed found, giving seconds on the reference host.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import re
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from groupform import montecarlo
from groupform.lattice import TorusShape
from groupform.montecarlo import TAIL_MIN_SIZE, GridPointStats, SweepConfig, mix_seed
from groupform.steady import OutcomeKind, default_max_steps


@dataclass
class Window:
    """What one measuring window did: timings, sample counts and failures."""

    busy_s: float = 0.0  # timed library calls only; checks and calibration excluded
    scaled_s: float = 0.0  # busy_s with each block scaled by its host speed
    timed_samples: int = 0
    latencies_ms: list[float] = field(default_factory=list)  # scaled
    speeds: list[float] = field(default_factory=list)  # host speed of each block
    block_s: float = 0.0  # busy time and raw latencies not yet scaled
    block_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed_ids: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    reference: object = None  # aggregate compared with the golden
    serial_s: float = 0.0  # sweep workloads: serial run of the reference grid

    def fail(self, ids, why: str) -> None:
        self.failed_ids.update(ids)
        self.problems.append(why)

    def record(self, samples: int, busy_s: float, latencies_ms: list[float]) -> None:
        self.timed_samples += samples
        self.busy_s += busy_s
        self.block_s += busy_s
        self.block_ms += latencies_ms

    def scale_block(self, host: "HostSpeed") -> None:
        """Measure the host speed and scale the pending block by it."""
        if not self.block_ms:
            return
        speed = host.measure(self.block_s * CALIBRATION_SHARE)
        self.speeds.append(speed)
        self.scaled_s += self.block_s * speed
        self.latencies_ms += [ms * speed for ms in self.block_ms]
        self.block_s, self.block_ms = 0.0, []

    @property
    def samples_per_s(self) -> float:
        return self.timed_samples / self.scaled_s

    @property
    def raw_samples_per_s(self) -> float:
        return self.timed_samples / self.busy_s

    @property
    def sample_ms_p50(self) -> float:
        return statistics.median(self.latencies_ms)

    @property
    def sample_ms_p90(self) -> float:
        lat = self.latencies_ms
        return statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]


def aggregate(stats: GridPointStats) -> dict:
    """The integer fields of an accumulator, in JSON-comparable form."""
    return {
        "grid_index": stats.grid_index,
        "samples": stats.samples,
        "fixed": stats.fixed_count,
        "periodic": stats.periodic_count,
        "unresolved": stats.unresolved_count,
        "n_st_sum": stats.n_st_sum,
        "fixed_initial_mass_sum": stats.fixed_initial_mass_sum,
        "count_sums": {str(r): c for r, c in sorted(stats.count_sums.items())},
        "count_sq_sums": {str(r): c for r, c in sorted(stats.count_sq_sums.items())},
        "tail_sum": stats.tail_sum,
        "tail_sq_sum": stats.tail_sq_sum,
    }


# Timed work between two calibrations, and the calibration time as a share
# of it. Shorter blocks follow the host more closely; a larger share
# measures its speed more precisely. Both lengthen a run.
BLOCK_S = 0.4
CALIBRATION_SHARE = 0.25

# Every sample's final state is checked; every FULL_CHECK_EVERY-th sample
# (by sample index) also has its whole trajectory re-derived, which costs
# about as much as the sample itself.
FULL_CHECK_EVERY = 4


def reference_step(values: np.ndarray) -> np.ndarray:
    """One tick of the rule, independent of the library's kernel.

    Each occupied cell ``k`` moves to ``k - (v[k+1] - v[k-1])`` per axis,
    wrapping around the torus, and groups landing on one cell merge.
    """
    occupied = np.nonzero(values)
    targets = tuple(
        (src - (np.roll(values, -1, axis) - np.roll(values, 1, axis))[occupied] % d) % d
        for axis, (src, d) in enumerate(zip(occupied, values.shape))
    )
    out = np.zeros(values.shape, dtype=np.int64)
    np.add.at(out.reshape(-1), np.ravel_multi_index(targets, values.shape), values[occupied])
    return out


class HostSpeed:
    """Speed of the host relative to the reference host.

    The calibration kernel is ``reference_step`` on one fixed state of the
    workload's shape; being part of the benchmark, it does not change with
    the library. ``reference_rate`` is its steps per second on the
    reference host, so a speed of 0.8 means that the host now runs 20%
    slower than that, and times are multiplied by 0.8.
    """

    def __init__(self, dims: tuple[int, ...], p: float, reference_rate: float):
        self.state = (np.random.default_rng(0).random(dims) < p).astype(np.int64)
        self.reference_rate = reference_rate

    def measure(self, seconds: float) -> float:
        n, start = 0, perf_counter()
        while True:
            reference_step(self.state)
            n += 1
            elapsed = perf_counter() - start
            if elapsed >= seconds:
                return n / elapsed / self.reference_rate


def reference_outcome(initial: np.ndarray, max_steps: int) -> tuple:
    """``(entry, period, state)`` of the reference trajectory from ``initial``.

    ``entry`` is the first time of the first state to recur and ``period``
    the steps until it does; a fixed point has period 1. Both are None when
    no state recurs within ``max_steps`` steps, and ``state`` is then the
    state after ``max_steps``.
    """
    seen = {hashlib.blake2b(initial.tobytes(), digest_size=16).digest(): 0}
    cur = initial
    for now in range(1, max_steps + 1):
        cur = reference_step(cur)
        first = seen.setdefault(hashlib.blake2b(cur.tobytes(), digest_size=16).digest(), now)
        if first != now:
            return first, now - first, cur
    return None, None, cur


def check_sample(shape: TorusShape, p: float, sample_seed: int, max_steps: int, result, full: bool) -> str | None:
    """Why a sample's output is wrong, or None when every check holds.

    With ``full`` the outcome is compared with one re-derived from the
    initial state by ``reference_outcome``; otherwise only the final state is
    checked: its mass, and that it is a fixed point or a cycle of exactly
    the stated period.
    """
    initial = montecarlo.bernoulli_state(shape, p, sample_seed).values
    out = result.outcome
    final = out.steady_state.values
    mass = int(initial.sum())
    if result.initial_mass != mass or int(final.sum()) != mass or final.min() < 0:
        return "mass not conserved"
    if out.kind is OutcomeKind.UNRESOLVED:
        entry, period = None, None
        if out.steps_taken != max_steps:
            return f"unresolved outcome after {out.steps_taken} of {max_steps} steps"
    else:
        fixed = out.kind is OutcomeKind.FIXED
        entry, period = (out.n_st, 1) if fixed else (out.entry_time, out.period)
        if (entry is None or period is None or entry < 0 or period < (1 if fixed else 2)
                or out.steps_taken != entry + period or entry + period > max_steps):
            return f"{out.kind.value} outcome entry={entry} period={period} steps_taken={out.steps_taken} cap={max_steps}"
    if out.kind is OutcomeKind.FIXED:
        sizes = result.histogram.counts
        if sum(r * c for r, c in sizes.items()) != mass or sum(sizes.values()) != np.count_nonzero(final):
            return "histogram does not match the steady state"
    if full:
        expected = reference_outcome(initial, max_steps)
        if (entry, period) != expected[:2] or not np.array_equal(final, expected[2]):
            return f"outcome entry={entry} period={period}, reference entry={expected[0]} period={expected[1]}"
    elif period is not None:
        cur = final
        for k in range(1, period + 1):
            cur = reference_step(cur)
            back = np.array_equal(cur, final)
            if back != (k == period):
                return f"steady state {'recurs' if back else 'does not recur'} after {k} steps, period {period}"
    return None


def check_point(stats: GridPointStats, samples: int) -> str | None:
    """Why a grid point's aggregate is inconsistent, or None."""
    if stats.samples != samples:
        return f"{stats.samples} samples, expected {samples}"
    if stats.fixed_count + stats.periodic_count + stats.unresolved_count != samples:
        return "outcome counts do not add up to the samples"
    if sum(r * c for r, c in stats.count_sums.items()) != stats.fixed_initial_mass_sum:
        return "steady-state mass differs from initial mass"
    if sum(c for r, c in stats.count_sums.items() if r >= TAIL_MIN_SIZE) != stats.tail_sum:
        return "tail sum differs from the large-group counts"
    return None


def run_checked(w: Window, stats: GridPointStats, shape, p, sample_seed, max_steps, sample_id, full, checking):
    """Run one sample into ``stats``, then check its output outside the timing.

    ``full`` selects the full check of ``check_sample``. Returns the seconds
    of the ``run_sample`` call and of the call plus ``add_sample``.
    """
    result = None
    start = perf_counter()
    try:
        result = montecarlo.run_sample(shape, p, sample_seed, max_steps)
        done = perf_counter()
        stats.add_sample(result)
    except Exception:
        done = perf_counter()
        w.fail([sample_id], f"sample {sample_id} raised:\n{traceback.format_exc()}")
    end = perf_counter()
    w.attempted += 1
    if result is not None:
        with checking():
            try:
                problem = check_sample(shape, p, sample_seed, max_steps, result, full)
            except Exception:
                problem = f"output check raised:\n{traceback.format_exc()}"
        if problem:
            w.fail([sample_id], f"sample {sample_id} (seed {sample_seed}): {problem}")
    return done - start, end - start


def _checking(tracer):
    return tracer.paused if tracer is not None else contextlib.nullcontext


def _more(w: Window, seconds: float, samples: int | None) -> bool:
    return w.busy_s < seconds if samples is None else w.timed_samples < samples


@dataclass(frozen=True)
class SerialWorkload:
    """``run_sample`` calls in one process, sample index 0, 1, 2, ..."""

    name: str
    dims: tuple[int, ...]
    p: float
    golden_samples: int  # the aggregate of this prefix is compared with the golden
    trace_rate: float  # traced-run samples per second of --seconds
    calibration_rate: float  # HostSpeed reference_rate

    def host(self) -> HostSpeed:
        return HostSpeed(self.dims, self.p, self.calibration_rate)

    def measure(self, seed: int, seconds: float, tracer=None, golden=None, samples=None) -> Window:
        """Time samples until ``seconds`` of timed calls, or exactly ``samples`` samples."""
        host = self.host()
        shape = TorusShape(self.dims)
        max_steps = default_max_steps(shape)
        stats = GridPointStats(p=self.p, grid_index=0, total_cells=shape.total_cells)
        w = Window()
        j = 0
        while _more(w, seconds, samples) or j < self.golden_samples:
            timed = _more(w, seconds, samples)
            call_s, busy_s = run_checked(
                w, stats, shape, self.p, mix_seed(seed, 0, j), max_steps, j,
                j % FULL_CHECK_EVERY == 0, _checking(tracer),
            )
            if timed:
                w.record(1, busy_s, [call_s * 1e3])
                if w.block_s >= BLOCK_S:
                    w.scale_block(host)
            j += 1
            if j == self.golden_samples:
                w.reference = aggregate(stats)
        w.scale_block(host)
        if golden is not None and w.reference != golden:
            w.fail(range(self.golden_samples), f"aggregate of samples 0..{self.golden_samples - 1} differs from the golden")
        return w


@dataclass(frozen=True)
class SweepWorkload:
    """Repeated ``run_sweep`` calls over a p-grid with a process pool.

    Sweep ``rep`` uses master seed ``mix_seed(seed, 0, rep)``. Sweep 0 is
    also computed serially, sample by sample with output checks, and the
    pool's aggregate must equal it bit for bit. With ``samples`` given, whole
    sweeps run until at least that many samples are timed. Each sweep is one
    block of the host-speed scaling. A sample's latency is its grid point's
    wall time divided by the samples per point, because individual samples
    run inside the workers.
    """

    name: str
    dims: tuple[int, ...]
    p_max: float
    p_steps: int
    samples_per_p: int
    workers: int
    trace_rate: float  # traced-run samples per second of --seconds
    calibration_rate: float  # HostSpeed reference_rate

    def host(self) -> HostSpeed:
        return HostSpeed(self.dims, self.p_max, self.calibration_rate)

    def config(self, seed: int, rep: int) -> SweepConfig:
        return SweepConfig(TorusShape(self.dims), self.p_max, self.p_steps, self.samples_per_p, mix_seed(seed, 0, rep))

    @property
    def samples_per_sweep(self) -> int:
        return (self.p_steps + 1) * self.samples_per_p

    def sample_ids(self, sweep) -> list[tuple]:
        return [(sweep, i, j) for i in range(self.p_steps + 1) for j in range(self.samples_per_p)]

    def measure(self, seed: int, seconds: float, tracer=None, golden=None, samples=None) -> Window:
        host = self.host()
        w = Window()
        config = self.config(seed, 0)
        max_steps = config.resolved_max_steps()
        w.reference = []
        for i, p in enumerate(config.p_values()):
            stats = GridPointStats(p=p, grid_index=i, total_cells=config.shape.total_cells)
            for j in range(self.samples_per_p):
                sample_seed = mix_seed(config.master_seed, i, j)
                w.serial_s += run_checked(
                    w, stats, config.shape, p, sample_seed, max_steps, ("serial", i, j),
                    j % FULL_CHECK_EVERY == 0, _checking(tracer),
                )[1]
            w.reference.append(aggregate(stats))
        if golden is not None and w.reference != golden:
            w.fail(self.sample_ids("serial"), "serial sweep differs from the golden")
        rep = 0
        while _more(w, seconds, samples):
            marks = []
            start = perf_counter()
            try:
                result = montecarlo.run_sweep(
                    self.config(seed, rep), workers=self.workers, progress=lambda *_: marks.append(perf_counter())
                )
            except Exception:
                result = None
                w.fail(self.sample_ids(rep), f"sweep {rep} raised:\n{traceback.format_exc()}")
            w.record(
                self.samples_per_sweep, perf_counter() - start,
                [(b - a) * 1e3 / self.samples_per_p for a, b in zip([start] + marks, marks)],
            )
            w.scale_block(host)
            w.attempted += self.samples_per_sweep
            if result is not None:
                for stats in result.points:
                    problem = check_point(stats, self.samples_per_p)
                    if problem:
                        w.fail([(rep, stats.grid_index, j) for j in range(self.samples_per_p)],
                               f"sweep {rep} grid point {stats.grid_index}: {problem}")
                if rep == 0 and [aggregate(s) for s in result.points] != w.reference:
                    w.fail(self.sample_ids(rep), f"{self.workers}-worker sweep differs from the serial sweep")
            rep += 1
        return w


WORKLOADS = {
    w.name: w
    for w in (
        SerialWorkload("onedim_m3000", (3000,), 0.8, golden_samples=100, trace_rate=35, calibration_rate=10_000),
        SerialWorkload("twodim_200", (200, 200), 0.9, golden_samples=10, trace_rate=3, calibration_rate=250),
        SerialWorkload("small_cycles", (16, 16), 0.8, golden_samples=1000, trace_rate=120, calibration_rate=14_000),
        SweepWorkload("grid_pool", (3000,), p_max=0.96, p_steps=24, samples_per_p=16, workers=2, trace_rate=50, calibration_rate=9_000),
    )
}


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _bytes(size: str) -> int | None:
    match = re.fullmatch(r"(\d+)([KMG]?)", size)
    if match is None:
        return None
    return int(match[1]) * 1024 ** " KMG".index(match[2] or " ")


def environment(workload) -> dict:
    """Machine and toolchain facts recorded beside every result."""
    caches = _cache_sizes()
    state_bytes = int(np.prod(workload.dims)) * 8
    l2 = _bytes(caches.get("L2", ""))
    fits = l2 is not None and state_bytes <= l2
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "state_bytes": state_bytes,
        # one state array is the working set of a tick; while it fits in L2
        # the kernels are not bandwidth-bound, so no bandwidth metric is given
        "state_fits_l2": fits,
    }


def report_problems(window: Window, limit: int = 5) -> None:
    for why in window.problems[:limit]:
        print(f"perfbench: {why}", file=sys.stderr)
    if len(window.problems) > limit:
        print(f"perfbench: ... {len(window.problems) - limit} more problems", file=sys.stderr)
