"""Random initial states, p-grid sweeps, and order-independent aggregation.

A sweep evolves many Bernoulli(p) initial states per grid point and
averages the steady-state group-size densities Q_r, the relaxation time
n_st, and the periodic/unresolved fractions. All aggregation is exact
integer accumulation (counts and squared counts); division happens once
at reporting time, so results are bit-identical for a given config no
matter how the samples are scheduled across workers.

Every aggregate (a p-grid sweep, a statistical check, a figure dataset) is
a ``Job``: ``(dims, p, grid_index)`` points, samples per point, a master
seed and a cap, run by ``sample_points``, the one runner, which checks
every point and the cap before any sample runs. Its sample blocks work on
raw int64 arrays: draw, settle (``steady._settle``), mass check and size
count, summed straight into a ``GridPointStats``. ``run_sample`` (with
``bernoulli_state``, ``evolve`` and ``measure``) is the one-sample API,
for the CLI and callers that want a sample's states; folding its results
through ``add_sample`` gives the same sums. ``sample_points`` owns the
only process pool, ``Pool``: one pipe per worker process, fed from the
calling thread with no helper thread, and a worker that dies is an error,
not a hang. A job is one stream of sample blocks through the pool's
``map``, which yields each block's sums in order as they arrive. The pool
machinery (``multiprocessing``) loads at the first ``workers`` > 1 call,
so a serial run and ``import groupform`` never pay for it. The block of
benchmark hooks at the end of the module wraps it for ``perfbench/`` only.

Per-sample seeds come from a fixed avalanche-quality 64-bit mix of
(master_seed, grid_index, sample_index), so any sample can be re-run in
isolation. A seed's initial state is read off the raw PCG64 stream
(``_bernoulli_cells``), not through numpy's ``Generator``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, field, fields
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dynamics import MASS_NOT_CONSERVED, tick_kernel
from .lattice import UINT64_MAX, LatticeState, TorusShape
from .steady import OutcomeKind, TrajectoryOutcome, _resolve_cap, _settle, default_max_steps, evolve

# Group sizes 1..4 are reported individually; everything larger lands in
# the tail bucket (large groups only appear in large models).
TAIL_MIN_SIZE = 5


def splitmix64(x: int) -> int:
    """One round of the splitmix64 avalanche (Steele, Lea & Flood constants)."""
    x = (x + 0x9E3779B97F4A7C15) & UINT64_MAX
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & UINT64_MAX
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & UINT64_MAX
    return x ^ (x >> 31)


def mix_seed(master_seed: int, grid_index: int, sample_index: int) -> int:
    """Derive the per-sample 64-bit seed; fixed for the life of the format.
    Each input must lie in 0..2**64-1, so no two triples alias."""
    for name, value in (("master_seed", master_seed), ("grid_index", grid_index), ("sample_index", sample_index)):
        if not 0 <= value <= UINT64_MAX:
            raise ValueError(f"{name} must be in 0..2**64-1, got {value}")
    h = splitmix64(master_seed)
    h = splitmix64(h ^ splitmix64(grid_index))
    h = splitmix64(h ^ splitmix64(sample_index))
    return h


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:  # NaN fails it too
        raise ValueError(f"p must be in [0, 1], got {p}")


def _bernoulli_cells(n: int, p: float, seed: int) -> np.ndarray:
    """``n`` booleans, each True with probability p: the top 53 bits of each
    of ``PCG64(seed)``'s first ``n`` raw words, compared with ceil(p * 2**53).

    This equals ``np.random.default_rng(seed).random(n) < p`` exactly, since
    ``Generator.random`` is those 53 bits times 2**-53, a scaling that is
    exact. It is written on the raw stream, which numpy keeps fixed across
    releases more strictly than ``Generator``'s methods (NEP 19), so the
    seed-to-state map, and with it every pinned output, rests on PCG64 alone.
    """
    _check_p(p)
    words = np.random.PCG64(seed).random_raw(n)
    words >>= 11  # in place: a second array of this size costs more than the shift
    return words < math.ceil(p * 2**53)


def bernoulli_state(shape: TorusShape, p: float, seed: int) -> LatticeState:
    """Each cell independently holds a one-element group with probability p."""
    return LatticeState(shape, _bernoulli_cells(shape.total_cells, p, seed))


@dataclass(frozen=True)
class GroupHistogram:
    """How many cells hold an r-element group, for each size r present."""

    counts: Mapping[int, int]
    total_cells: int

    def density(self, r: int) -> float:
        """Q_r: fraction of all cells occupied by an r-element group."""
        return self.counts.get(r, 0) / self.total_cells


def measure(state: LatticeState) -> GroupHistogram:
    """Histogram the group sizes of a state."""
    v = state.values
    sizes, counts = np.unique(v[v > 0], return_counts=True)
    return GroupHistogram(
        {int(r): int(c) for r, c in zip(sizes, counts)}, state.shape.total_cells
    )


@dataclass(frozen=True)
class SampleResult:
    """One sample through the one-sample API: outcome, histogram (fixed outcomes only), mass."""

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
    """Integer accumulator for one p-grid point; merging is commutative.

    ``mean_q(r)``/``stderr_q(r)`` take a size r or ``"tail"``, sizes >= TAIL_MIN_SIZE pooled."""

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
        outcome = result.outcome
        sizes = result.histogram.counts.items() if result.histogram is not None else ()
        self._add(outcome.kind, outcome.n_st, result.initial_mass, sizes)

    def _add(self, kind: OutcomeKind, n_st: int | None, initial_mass: int, sizes: Iterable[tuple[int, int]]) -> None:
        """Count one sample: its outcome and, for a fixed one, its ``n_st``,
        initial mass and ``(r, count)`` pairs, one per group size present."""
        self.samples += 1
        if kind is OutcomeKind.FIXED:
            self.fixed_count += 1
            self.n_st_sum += n_st
            self.fixed_initial_mass_sum += initial_mass
            tail = 0
            for r, c in sizes:
                self.count_sums[r] = self.count_sums.get(r, 0) + c
                self.count_sq_sums[r] = self.count_sq_sums.get(r, 0) + c * c
                if r >= TAIL_MIN_SIZE:
                    tail += c
            self.tail_sum += tail
            self.tail_sq_sum += tail * tail
        elif kind is OutcomeKind.PERIODIC:
            self.periodic_count += 1
        else:
            self.unresolved_count += 1

    def merge(self, other: "GridPointStats") -> None:
        """Add ``other``'s sums into these: every field but the grid point's
        three is an integer or a per-size dict of integers."""
        point = ("p", "grid_index", "total_cells")
        if any(getattr(other, name) != getattr(self, name) for name in point):
            raise ValueError("cannot merge stats for different grid points")
        for name in [f.name for f in fields(self) if f.name not in point]:
            mine, theirs = getattr(self, name), getattr(other, name)
            if isinstance(mine, dict):
                for r, c in theirs.items():
                    mine[r] = mine.get(r, 0) + c
            else:
                setattr(self, name, mine + theirs)

    # -- reporting (floating point enters only here) --

    def _mean_stderr(self, r: int | str) -> tuple[float, float]:
        if r == "tail":
            total, total_sq = self.tail_sum, self.tail_sq_sum
        else:
            total, total_sq = self.count_sums.get(r, 0), self.count_sq_sums.get(r, 0)
        n = self.fixed_count
        if n == 0:
            return float("nan"), 0.0
        mean = total / n / self.total_cells
        if n < 2:
            return mean, 0.0
        var_counts = (total_sq - total * total / n) / (n - 1)
        stderr = (max(var_counts, 0.0) ** 0.5) / self.total_cells / n**0.5
        return mean, stderr

    def mean_q(self, r: int | str) -> float:
        return self._mean_stderr(r)[0]

    def stderr_q(self, r: int | str) -> float:
        return self._mean_stderr(r)[1]

    def mean_n_st(self) -> float:
        return self.n_st_sum / self.fixed_count if self.fixed_count else float("nan")


def p_grid(p_max: float, p_steps: int) -> list[float]:
    """The sweep grid p_i = i * p_max / p_steps for i = 0..p_steps, each point
    computed from its integer index, never by accumulating a float increment."""
    return [i * p_max / p_steps for i in range(p_steps + 1)]


@dataclass(frozen=True)
class Job:
    """``samples`` trajectories from master ``seed`` at each ``(torus dims, p,
    grid_index)`` point, capped at ``max_steps`` (None: the default)."""

    points: list[tuple[tuple[int, ...], float, int]]
    samples: int
    seed: int
    max_steps: int | None = None


def curve(dims: tuple[int, ...], p_values) -> list[tuple[tuple[int, ...], float, int]]:
    """Points at each of ``p_values`` on one torus, with grid indices 0, 1, ..."""
    return [(dims, p, grid_index) for grid_index, p in enumerate(p_values)]


@dataclass(frozen=True)
class SweepConfig:
    """A Monte Carlo sweep over ``p_grid(p_max, p_steps)``.

    Its JSON form is ``dims`` (the torus dims of ``shape``) followed by every
    other field under its own name; only ``max_steps`` may be left out.
    Construction checks every field: ``p_max`` is a real in [0, 1], stored as
    a float; the rest are integers (not bools), ``master_seed`` one
    ``mix_seed`` accepts and the others >= 1 (or None for ``max_steps``)."""

    shape: TorusShape
    p_max: float
    p_steps: int
    samples: int
    master_seed: int
    max_steps: int | None = None

    def __post_init__(self):
        if isinstance(self.p_max, bool) or not isinstance(self.p_max, (int, float)) or not 0 <= self.p_max <= 1:
            raise ValueError(f"p_max must be a real number in [0, 1], got {self.p_max!r}")
        object.__setattr__(self, "p_max", float(self.p_max))
        for name in ("p_steps", "samples", "max_steps", "master_seed"):
            value = getattr(self, name)
            if value is None and name == "max_steps":
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1 and name != "master_seed":
                raise ValueError(f"{name} must be >= 1, got {value}")
        mix_seed(self.master_seed, 0, 0)  # the seed range lives in mix_seed

    def p_values(self) -> list[float]:
        return p_grid(self.p_max, self.p_steps)

    def job(self) -> Job:
        """The sweep as a run: a ``curve`` over the grid, with its samples, seed and cap."""
        return Job(curve(self.shape.dims, self.p_values()), self.samples, self.master_seed, self.max_steps)

    def resolved_max_steps(self) -> int:  # a benchmark hook, see the module's end
        return self.max_steps if self.max_steps is not None else default_max_steps(self.shape)

    def to_json_dict(self) -> dict:
        return {"dims": list(self.shape.dims), **{f.name: getattr(self, f.name) for f in fields(self)[1:]}}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise ValueError("sweep config must be a JSON object")
        rest = fields(cls)[1:]
        for key in ["dims"] + [f.name for f in rest if f.default is MISSING]:
            if key not in data:
                raise ValueError(f"sweep config missing required field '{key}'")
        unknown = set(data) - {"dims"} - {f.name for f in rest}
        if unknown:
            raise ValueError(f"sweep config has unknown fields: {sorted(unknown)}")
        try:
            shape = TorusShape(tuple(data["dims"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"sweep config field 'dims' invalid: {exc}") from exc
        return cls(shape, **{key: value for key, value in data.items() if key != "dims"})


def _sample_block(args) -> GridPointStats:
    """Samples ``j_start`` to ``j_end - 1`` of one point, in one accumulator.

    The sweep path works on raw int64 arrays, with the tick kernel resolved
    once per block (``sample_points`` resolves the cap). Each sample is drawn
    by ``_bernoulli_cells``, settled by ``steady._settle``, checked for mass
    and, if fixed, counted by size with ``np.bincount``; no
    ``LatticeState``, ``TrajectoryOutcome``, ``GroupHistogram`` or
    ``SampleResult`` is built. The sums are those of ``run_sample``, the
    one-sample API, folded through ``add_sample``. An exception raised by a
    sample keeps its type and names the sample's grid index, sample index
    and seed, which ``groupform simulate --seed`` replays.
    """
    shape, p, grid_index, j_start, j_end, master_seed, max_steps = args
    tick = tick_kernel(shape)
    n = shape.total_cells
    stats = GridPointStats(p=p, grid_index=grid_index, total_cells=n)
    for j in range(j_start, j_end):
        seed = mix_seed(master_seed, grid_index, j)
        try:
            start = _bernoulli_cells(n, p, seed).astype(np.int64)
            mass = int(start.sum())
            kind, final, _, n_st, _, _ = _settle(tick, start, max_steps)
            if int(final.sum()) != mass:
                raise OverflowError(MASS_NOT_CONSERVED)
            sizes = ()
            if kind is OutcomeKind.FIXED:
                # T(0) holds only 0s and 1s, so every group is at most n, and so is bincount's length
                counts = np.bincount(final)
                counts[0] = 0
                present = np.flatnonzero(counts)
                sizes = zip(present.tolist(), counts[present].tolist())
            stats._add(kind, n_st, mass, sizes)
        except Exception as exc:
            where = f"sample (grid_index={grid_index}, sample_index={j}, seed={seed})"
            try:
                named = type(exc)(f"{where}: {exc}")
            except TypeError:  # a type built from more than a message, such as numpy's MemoryError
                named = None
            if named is None:
                exc.add_note(where)
                raise
            raise named from exc
    return stats


def _blocks(n_samples: int, workers: int) -> list[tuple[int, int]]:
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    if n_samples < 1:
        raise ValueError(f"samples must be >= 1, got {n_samples}")
    # a few blocks per worker keeps the pool busy without tiny tasks
    block = max(1, -(-n_samples // (workers * 4)))
    return [(j, min(j + block, n_samples)) for j in range(0, n_samples, block)]


class WorkerTraceback(Exception):
    """The formatted traceback of a task that raised in a pool worker."""


def _serve(conn, initializer) -> None:
    """A pool worker: run each ``(fn, task)`` received, send back its result."""
    if initializer is not None:
        initializer()
    while True:
        try:
            fn, task = conn.recv()
        except EOFError:  # the pool is gone
            return
        try:
            reply = (True, fn(task))
        except Exception as exc:
            import traceback

            reply = (False, (exc, traceback.format_exc()))
        conn.send(reply)


class Pool:
    """``processes`` worker processes, each fed one task at a time over its
    own pipe by ``map`` in the calling thread; no helper thread runs.

    ``map`` is a generator: it feeds the workers only while the caller is
    iterating it, and yields results in task order as they stream in.
    ``multiprocessing`` is imported here, at the first ``workers`` > 1
    run, so a serial run never loads it. A task that raises is re-raised
    by ``map`` with the worker's traceback as its ``__cause__``, and a
    worker that has exited is a ``RuntimeError`` naming its exit code;
    either ends the pool.
    """

    def __init__(self, processes: int, initializer: Callable[[], None] | None = None):
        import multiprocessing
        from multiprocessing.connection import wait

        self._wait = wait
        self._workers = []  # (process, the parent's end of its pipe)
        for _ in range(processes):
            conn, child_conn = multiprocessing.Pipe()
            process = multiprocessing.Process(target=_serve, args=(child_conn, initializer), daemon=True)
            process.start()
            child_conn.close()  # so the worker's exit is an EOF here
            self._workers.append((process, conn))

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, *exc) -> None:
        for process, _ in self._workers:
            process.terminate()
        for process, conn in self._workers:
            process.join()
            conn.close()

    def _lost(self, process) -> RuntimeError:
        process.join()
        self.__exit__()
        return RuntimeError(f"pool worker {process.pid} exited with code {process.exitcode}")

    def map(self, fn: Callable, tasks: Sequence) -> Iterator:
        """``fn(task)`` for each task, computed by the workers and yielded in
        task order, each as soon as it and every earlier one have arrived.

        Idle workers get their next tasks before a result is yielded, so they
        keep running while the caller consumes it. A pool runs one ``map``
        at a time: consume it to the end, or leave the pool, before the next.
        """
        todo = iter(enumerate(tasks))
        arrived = {}  # task index -> result, until every earlier one is yielded
        next_i = 0
        idle = list(self._workers)
        busy = {}  # the parent's end of a busy worker's pipe -> (process, task index)
        while True:
            for (process, conn), (i, task) in zip(idle, todo):
                try:
                    conn.send((fn, task))
                except BrokenPipeError:
                    raise self._lost(process) from None
                busy[conn] = (process, i)
            idle = []
            while next_i in arrived:
                yield arrived.pop(next_i)
                next_i += 1
            if not busy:
                return
            for conn in self._wait(list(busy)):
                process, i = busy.pop(conn)
                try:
                    ok, value = conn.recv()
                except EOFError:
                    raise self._lost(process) from None
                if not ok:
                    self.__exit__()
                    exc, trace = value
                    raise exc from WorkerTraceback(trace)
                arrived[i] = value
                idle.append((process, conn))


def _ignore_sigint() -> None:
    """Pool worker initializer: a Ctrl-C stops only the parent, which ends the pool."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)


def sample_points(
    job: Job,
    workers: int = 1,
    progress: Callable[[int, float, GridPointStats], None] | None = None,
) -> list[GridPointStats]:
    """Aggregate ``job.samples`` trajectories at each of ``job``'s points, in
    order; ``progress(k, p, stats)`` follows each point's merge.

    This is the one runner. It checks every point's torus, p and seeds, and
    the cap, before any worker starts. Each point's samples then run in
    blocks of ``_sample_block``, on raw arrays rather than through
    ``run_sample``, either in this process or, for ``workers`` > 1, on one
    ``Pool`` that lives for this call, of that many processes but no more
    than there are blocks. Every block of the job is a task of one ``map``,
    so a worker that finishes point k's last block goes straight on to a
    later point's: no worker waits at a per-point barrier. Each point's
    blocks are merged as they stream in, in grid order. This thread feeds
    each worker one block at a time over the worker's own pipe; a block
    that raises re-raises here, naming the failing sample's grid index,
    sample index and seed, and a worker that dies is a ``RuntimeError``.
    The result is identical for any ``workers`` count: the blocks' integer
    accumulators are merged, and merging commutes.
    """
    blocks = _blocks(job.samples, workers)
    points = []
    for dims, p, grid_index in job.points:
        shape = TorusShape(dims)
        _check_p(p)
        mix_seed(job.seed, grid_index, 0)
        points.append((shape, p, grid_index, _resolve_cap(shape, job.max_steps)))
    tasks = [
        (shape, p, grid_index, j0, j1, job.seed, max_steps)
        for shape, p, grid_index, max_steps in points
        for j0, j1 in blocks
    ]
    results: list[GridPointStats] = []
    with Pool(processes=min(workers, len(tasks)), initializer=_ignore_sigint) if workers > 1 else nullcontext() as pool:
        parts = (map if pool is None else pool.map)(_sample_block, tasks)
        for k, (shape, p, grid_index, _) in enumerate(points):
            stats = GridPointStats(p=p, grid_index=grid_index, total_cells=shape.total_cells)
            for part in islice(parts, len(blocks)):
                stats.merge(part)
            results.append(stats)
            if progress is not None:
                progress(k, p, stats)
    return results


# -- benchmark hooks --
# ``perfbench/`` calls or patches these as ``montecarlo.<name>``, and reads
# ``SweepConfig.resolved_max_steps``; the library does not use them. The two
# runners are one ``sample_points(Job(...))`` call each, and go once the
# benchmark makes that call itself (ROADMAP: "Delete what only the benchmark keeps").


@dataclass(frozen=True)
class SweepResult:
    points: list[GridPointStats]


def sample_grid_point(
    shape: TorusShape,
    p: float,
    samples: int,
    master_seed: int,
    grid_index: int = 0,
    workers: int = 1,
) -> GridPointStats:
    """Aggregate ``samples`` trajectories at one p value: a one-point ``sample_points`` run."""
    return sample_points(Job([(shape.dims, p, grid_index)], samples, master_seed), workers)[0]


def run_sweep(
    config: SweepConfig,
    workers: int = 1,
    progress: Callable[[int, float, GridPointStats], None] | None = None,
) -> SweepResult:
    """Run the whole p-grid; deterministic given the config, at any parallelism."""
    return SweepResult(sample_points(config.job(), workers, progress))
