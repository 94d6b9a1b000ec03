"""In-memory span tracing of groupform's public calls, for the traced run.

``Tracer.install`` replaces module attributes of groupform (the names the
library itself looks up at call time) with timing wrappers, so the library
sources stay untouched. Each wrapped call records a span ``(id, name, start,
end, parent id, sample id)``; per-layer calls, busy time and self time (busy
minus the time covered by child spans) are accumulated for every call, while
raw spans are kept only up to ``MAX_SPANS``. ``uninstall`` restores the
original attributes; pool workers run it on start, so they execute untraced
code and the parent's spans cover dispatch and waiting only.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter
from time import perf_counter

import numpy as np

from groupform import lattice, montecarlo, steady

MAX_SPANS = 100_000

# Benchmark-side bookkeeping; a child span so that it counts as tracing
# overhead rather than as self time of the layer that encloses it.
COUNTERS_SPAN = "trace.counters"


class Tracer:
    """Spans and per-layer totals of one traced window."""

    def __init__(self):
        self.layers: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.wall_s = 0.0  # summed duration of top-level spans
        self.sample = None  # per-sample seed of the enclosing run_sample call
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._patches = self._build_patches()

    def timed(self, name: str, fn):
        """Wrap ``fn`` so that every call records a span named ``name``."""
        layer = self.layers.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                layer[0] += 1
                layer[1] += duration
                layer[2] += duration - frame[1]
                if parent is None:
                    self.wall_s += duration
                else:
                    parent[1] += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (span_id, name, start, end, parent and parent[0], self.sample)
                    )
                else:
                    self.dropped += 1

        return traced

    def _count_activity(self, values: np.ndarray) -> None:
        occupied = values != 0
        pushed = np.zeros(values.shape, dtype=bool)
        for axis in range(values.ndim):
            pushed |= np.roll(values, -1, axis=axis) != np.roll(values, 1, axis=axis)
        self.counts["dynamics.step.cells"] += values.size
        self.counts["dynamics.step.occupied"] += int(np.count_nonzero(occupied))
        self.counts["dynamics.step.moving"] += int(np.count_nonzero(occupied & pushed))

    def _build_patches(self) -> list[tuple]:
        counts = self.counts
        count_activity = self.timed(COUNTERS_SPAN, self._count_activity)
        traced_step = self.timed("dynamics.step", steady.step)
        traced_evolve = self.timed("steady.evolve", montecarlo.evolve)
        traced_sample = self.timed("montecarlo.run_sample", montecarlo.run_sample)
        real_pool = montecarlo.Pool
        stats = montecarlo.GridPointStats

        def step(state):
            count_activity(state.values)
            return traced_step(state)

        def evolve(initial, max_steps=None):
            outcome = traced_evolve(initial, max_steps)
            counts["steady.ticks"] += outcome.steps_taken
            counts["steady." + outcome.kind.value] += 1
            return outcome

        def run_sample(shape, p, sample_seed, max_steps=None):
            self.sample = sample_seed
            try:
                return traced_sample(shape, p, sample_seed, max_steps)
            finally:
                self.sample = None

        tracer = self

        class TracedPool:
            """A pool whose workers run untraced code and whose map is a span."""

            def __init__(self, *args, **kwargs):
                kwargs["initializer"] = tracer.uninstall
                self._pool = real_pool(*args, **kwargs)
                self._map = tracer.timed("montecarlo.pool.map", self._pool.map)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._pool.__exit__(*exc)

            def map(self, fn, iterable):
                tasks = list(iterable)
                counts["montecarlo.pool.tasks"] += len(tasks)
                return self._map(fn, tasks)

        return [
            (steady, "step", step),
            (montecarlo, "evolve", evolve),
            (montecarlo, "run_sample", run_sample),
            (montecarlo, "bernoulli_state", self.timed("montecarlo.bernoulli_state", montecarlo.bernoulli_state)),
            (montecarlo, "measure", self.timed("montecarlo.measure", montecarlo.measure)),
            (montecarlo, "sample_grid_point", self.timed("montecarlo.sample_grid_point", montecarlo.sample_grid_point)),
            (montecarlo, "run_sweep", self.timed("montecarlo.run_sweep", montecarlo.run_sweep)),
            (montecarlo, "Pool", TracedPool),
            (stats, "add_sample", self.timed("montecarlo.aggregate", stats.add_sample)),
            (stats, "merge", self.timed("montecarlo.aggregate", stats.merge)),
            (lattice.LatticeState, "__init__", self.timed("lattice.LatticeState", lattice.LatticeState.__init__)),
        ]

    def install(self) -> None:
        self._originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
        for owner, attr, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own output checks on untraced code."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def busy(self, name: str) -> float:
        return self.layers.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.layers.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.layers.get(name, (0, 0.0, 0.0))[0]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

