"""Random initial states, p-grid sweeps, and order-independent aggregation.

A sweep evolves many Bernoulli(p) initial states per grid point and
averages the steady-state group-size densities Q_r, the relaxation time
n_st, and the periodic/unresolved fractions. All aggregation is exact
integer accumulation (counts and squared counts); division happens once
at reporting time, so results are bit-identical for a given config no
matter how the samples are scheduled across workers.

Per-sample seeds come from a fixed avalanche-quality 64-bit mix of
(master_seed, grid_index, sample_index), so any sample can be re-run in
isolation.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Callable, Mapping

import numpy as np

from .lattice import LatticeState, TorusShape
from .steady import OutcomeKind, TrajectoryOutcome, default_max_steps, evolve

# Group sizes 1..4 are reported individually; everything larger lands in
# the tail bucket (large groups only appear in large models).
TAIL_MIN_SIZE = 5

_MASK64 = 2**64 - 1


def splitmix64(x: int) -> int:
    """One round of the splitmix64 avalanche (Steele, Lea & Flood constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(master_seed: int, grid_index: int, sample_index: int) -> int:
    """Derive the per-sample 64-bit seed; fixed for the life of the format."""
    h = splitmix64(master_seed & _MASK64)
    h = splitmix64(h ^ splitmix64(grid_index & _MASK64))
    h = splitmix64(h ^ splitmix64(sample_index & _MASK64))
    return h


def bernoulli_state(shape: TorusShape, p: float, seed: int) -> LatticeState:
    """Each cell independently holds a one-element group with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    values = (rng.random(shape.total_cells) < p).astype(np.int64)
    return LatticeState(shape, values.reshape(shape.dims))


@dataclass(frozen=True)
class GroupHistogram:
    """How many cells hold an r-element group, for each size r present."""

    counts: Mapping[int, int]
    total_cells: int

    def density(self, r: int) -> float:
        """Q_r: fraction of all cells occupied by an r-element group."""
        return self.counts.get(r, 0) / self.total_cells

    def tail_count(self) -> int:
        return sum(c for r, c in self.counts.items() if r >= TAIL_MIN_SIZE)


def measure(state: LatticeState) -> GroupHistogram:
    """Histogram the group sizes of a state."""
    v = state.values
    sizes, counts = np.unique(v[v > 0], return_counts=True)
    return GroupHistogram(
        {int(r): int(c) for r, c in zip(sizes, counts)}, state.shape.total_cells
    )


@dataclass(frozen=True)
class SampleResult:
    """One unit of sweep work: outcome, histogram (fixed outcomes only), mass."""

    outcome: TrajectoryOutcome
    histogram: GroupHistogram | None
    initial_mass: int


def run_sample(
    shape: TorusShape, p: float, sample_seed: int, max_steps: int | None = None
) -> SampleResult:
    initial = bernoulli_state(shape, p, sample_seed)
    outcome = evolve(initial, max_steps)
    histogram = measure(outcome.steady_state) if outcome.kind is OutcomeKind.FIXED else None
    return SampleResult(outcome, histogram, initial.total_mass())


@dataclass
class GridPointStats:
    """Integer accumulator for one p-grid point; merging is commutative."""

    p: float
    grid_index: int
    total_cells: int
    samples: int = 0
    fixed_count: int = 0
    periodic_count: int = 0
    unresolved_count: int = 0
    n_st_sum: int = 0
    fixed_initial_mass_sum: int = 0
    count_sums: dict[int, int] = field(default_factory=dict)
    count_sq_sums: dict[int, int] = field(default_factory=dict)
    tail_sum: int = 0
    tail_sq_sum: int = 0

    def add_sample(self, result: SampleResult) -> None:
        self.samples += 1
        kind = result.outcome.kind
        if kind is OutcomeKind.FIXED:
            self.fixed_count += 1
            self.n_st_sum += result.outcome.n_st
            self.fixed_initial_mass_sum += result.initial_mass
            for r, c in result.histogram.counts.items():
                self.count_sums[r] = self.count_sums.get(r, 0) + c
                self.count_sq_sums[r] = self.count_sq_sums.get(r, 0) + c * c
            tail = result.histogram.tail_count()
            self.tail_sum += tail
            self.tail_sq_sum += tail * tail
        elif kind is OutcomeKind.PERIODIC:
            self.periodic_count += 1
        else:
            self.unresolved_count += 1

    def merge(self, other: "GridPointStats") -> None:
        if (other.p, other.grid_index, other.total_cells) != (self.p, self.grid_index, self.total_cells):
            raise ValueError("cannot merge stats for different grid points")
        self.samples += other.samples
        self.fixed_count += other.fixed_count
        self.periodic_count += other.periodic_count
        self.unresolved_count += other.unresolved_count
        self.n_st_sum += other.n_st_sum
        self.fixed_initial_mass_sum += other.fixed_initial_mass_sum
        for r, c in other.count_sums.items():
            self.count_sums[r] = self.count_sums.get(r, 0) + c
        for r, c in other.count_sq_sums.items():
            self.count_sq_sums[r] = self.count_sq_sums.get(r, 0) + c
        self.tail_sum += other.tail_sum
        self.tail_sq_sum += other.tail_sq_sum

    # -- reporting (floating point enters only here) --

    def _mean_stderr(self, total: int, total_sq: int) -> tuple[float, float]:
        n = self.fixed_count
        if n == 0:
            return float("nan"), 0.0
        mean = total / n / self.total_cells
        if n < 2:
            return mean, 0.0
        var_counts = (total_sq - total * total / n) / (n - 1)
        stderr = (max(var_counts, 0.0) ** 0.5) / self.total_cells / n**0.5
        return mean, stderr

    def mean_q(self, r: int) -> float:
        return self._mean_stderr(self.count_sums.get(r, 0), self.count_sq_sums.get(r, 0))[0]

    def stderr_q(self, r: int) -> float:
        return self._mean_stderr(self.count_sums.get(r, 0), self.count_sq_sums.get(r, 0))[1]

    def mean_tail_q(self) -> float:
        return self._mean_stderr(self.tail_sum, self.tail_sq_sum)[0]

    def stderr_tail_q(self) -> float:
        return self._mean_stderr(self.tail_sum, self.tail_sq_sum)[1]

    def mean_n_st(self) -> float:
        return self.n_st_sum / self.fixed_count if self.fixed_count else float("nan")


@dataclass(frozen=True)
class SweepConfig:
    """A p-grid Monte Carlo sweep: p_i = i * p_max / p_steps for i = 0..p_steps.

    Grid points are always computed from the integer index, never by
    accumulating a float increment. ``p_steps == 0`` collapses the grid
    to the single point p = 0 and requires ``p_max == 0``.
    """

    shape: TorusShape
    p_max: float
    p_steps: int
    samples_per_p: int
    master_seed: int
    max_steps: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.p_max <= 1.0:
            raise ValueError(f"p_max must be in [0, 1], got {self.p_max}")
        if self.p_steps < 0:
            raise ValueError(f"p_steps must be >= 0, got {self.p_steps}")
        if self.p_steps == 0 and self.p_max != 0.0:
            raise ValueError("p_steps == 0 requires p_max == 0")
        if self.samples_per_p < 1:
            raise ValueError(f"samples_per_p must be >= 1, got {self.samples_per_p}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")

    def p_values(self) -> list[float]:
        if self.p_steps == 0:
            return [0.0]
        return [i * self.p_max / self.p_steps for i in range(self.p_steps + 1)]

    def resolved_max_steps(self) -> int:
        return self.max_steps if self.max_steps is not None else default_max_steps(self.shape)

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.shape.dims),
            "p_max": self.p_max,
            "p_steps": self.p_steps,
            "samples": self.samples_per_p,
            "master_seed": self.master_seed,
            "max_steps": self.max_steps,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise ValueError("sweep config must be a JSON object")
        required = ("dims", "p_max", "p_steps", "samples", "master_seed")
        for key in required:
            if key not in data:
                raise ValueError(f"sweep config missing required field '{key}'")
        unknown = set(data) - set(required) - {"max_steps"}
        if unknown:
            raise ValueError(f"sweep config has unknown fields: {sorted(unknown)}")
        try:
            shape = TorusShape(tuple(data["dims"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"sweep config field 'dims' invalid: {exc}") from exc
        for key, kind in (("p_max", (int, float)), ("p_steps", int), ("samples", int), ("master_seed", int)):
            if not isinstance(data[key], kind) or isinstance(data[key], bool):
                raise ValueError(f"sweep config field '{key}' must be a number of type {kind}")
        max_steps = data.get("max_steps")
        if max_steps is not None and (not isinstance(max_steps, int) or isinstance(max_steps, bool)):
            raise ValueError("sweep config field 'max_steps' must be an integer or null")
        return cls(
            shape=shape,
            p_max=float(data["p_max"]),
            p_steps=data["p_steps"],
            samples_per_p=data["samples"],
            master_seed=data["master_seed"],
            max_steps=max_steps,
        )


@dataclass(frozen=True)
class SweepResult:
    points: list[GridPointStats]


def _sample_block(args) -> GridPointStats:
    dims, p, grid_index, j_start, j_end, master_seed, max_steps = args
    shape = TorusShape(dims)
    stats = GridPointStats(p=p, grid_index=grid_index, total_cells=shape.total_cells)
    for j in range(j_start, j_end):
        try:
            stats.add_sample(run_sample(shape, p, mix_seed(master_seed, grid_index, j), max_steps))
        except OverflowError as exc:
            raise OverflowError(f"sample (grid_index={grid_index}, sample_index={j}): {exc}") from exc
    return stats


def _blocks(n_samples: int, workers: int) -> list[tuple[int, int]]:
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    # a few blocks per worker keeps the pool busy without tiny tasks
    block = max(1, -(-n_samples // (workers * 4)))
    return [(j, min(j + block, n_samples)) for j in range(0, n_samples, block)]


def sample_grid_point(
    shape: TorusShape,
    p: float,
    samples: int,
    master_seed: int,
    grid_index: int = 0,
    max_steps: int | None = None,
    workers: int = 1,
    pool=None,
) -> GridPointStats:
    """Aggregate ``samples`` independent trajectories at one p value.

    The samples run in blocks, on ``pool`` if given, else on a pool of
    ``workers`` processes that lives for this call, else in this process.
    The result is identical for any ``workers`` count: the blocks' integer
    accumulators are merged, and merging commutes.
    """
    args = [
        (shape.dims, p, grid_index, j0, j1, master_seed, max_steps)
        for j0, j1 in _blocks(samples, workers)
    ]
    if pool is not None:
        parts = pool.map(_sample_block, args)
    elif workers <= 1:
        parts = [_sample_block(a) for a in args]
    else:
        with Pool(processes=workers) as owned:
            parts = owned.map(_sample_block, args)
    stats = GridPointStats(p=p, grid_index=grid_index, total_cells=shape.total_cells)
    for part in parts:
        stats.merge(part)
    return stats


def run_sweep(
    config: SweepConfig,
    workers: int = 1,
    progress: Callable[[int, float, GridPointStats], None] | None = None,
) -> SweepResult:
    """Run the whole p-grid; deterministic given the config, at any parallelism."""
    points: list[GridPointStats] = []
    with Pool(processes=workers) if workers > 1 else nullcontext() as pool:
        for i, p in enumerate(config.p_values()):
            stats = sample_grid_point(
                config.shape,
                p,
                config.samples_per_p,
                config.master_seed,
                grid_index=i,
                max_steps=config.max_steps,
                workers=workers,
                pool=pool,
            )
            points.append(stats)
            if progress is not None:
                progress(i, p, stats)
    return SweepResult(points=points)
