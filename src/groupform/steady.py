"""Evolve a state until it settles, cycles, or hits an iteration cap.

Trajectories end in one of three ways: a fixed point (the usual case,
reported with the relaxation time ``n_st``), a periodic orbit with
period >= 2, or unresolved at the configured cap. The loop runs the raw
int64 tick from ``dynamics.tick_kernel``, one call into the compiled C
kernel per tick with no per-shape tables, and wraps states in
``LatticeState`` (with the mass-conservation check) only on the way out.

Each new state is compared with its predecessor, which finds a fixed
point at the exact relaxation time. Longer cycles are found with Brent's
method (R. P. Brent, "An improved Monte Carlo factorization algorithm",
BIT 20 (1980) 176-184): one saved state is compared with every new one,
and moves to the newest state whenever the distance to it reaches the
next power of two. The distance at the first match is the minimal period
lambda. The entry time mu is then found, for periodic outcomes only, by
replaying two pointers lambda ticks apart from the initial state.

A trajectory resolves only if T(mu + lambda) = T(mu) with
mu + lambda <= max_steps (a fixed point is lambda = 1, mu = n_st). At
tick ``max_steps`` the saved state is pinned to T(max_steps): every cycle
that closes within the cap passes through it and returns to it within
``max_steps`` more ticks. Unresolved trajectories therefore cost up to
2 * max_steps ticks, and periodic ones a further mu + lambda + mu ticks of
replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# ``step`` is re-exported: callers, and the benchmark's tracer, find it here.
from .dynamics import Tick, conserved_state, step, tick_kernel  # noqa: F401
from .lattice import LatticeState, TorusShape

DEFAULT_STEP_CAP_FACTOR = 100


class OutcomeKind(str, Enum):
    FIXED = "fixed"
    PERIODIC = "periodic"
    UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class TrajectoryOutcome:
    """Terminal report of one trajectory.

    ``steady_state`` is the fixed point, the state at cycle entry, or the
    state at the cap, T(max_steps), depending on ``kind``. ``n_st`` is the
    smallest n with T(n+1) = T(n) and is set for fixed outcomes only;
    ``entry_time`` and ``period`` are set for periodic outcomes only.
    """

    kind: OutcomeKind
    steady_state: LatticeState
    steps_taken: int
    n_st: int | None = None
    entry_time: int | None = None
    period: int | None = None


def default_max_steps(shape: TorusShape) -> int:
    """Generous default cap: relaxation times grow slowly with torus size."""
    return DEFAULT_STEP_CAP_FACTOR * max(shape.dims)


def _cycle_entry(tick: Tick, start: np.ndarray, period: int) -> tuple[int, np.ndarray]:
    """Entry time mu and entry state T(mu) of a cycle of known minimal period."""
    lead = start
    for _ in range(period):
        lead = tick(lead)
    trail, entry = start, 0
    while not np.array_equal(trail, lead):
        trail, lead = tick(trail), tick(lead)
        entry += 1
    return entry, trail


def evolve(initial: LatticeState, max_steps: int | None = None) -> TrajectoryOutcome:
    """Iterate the dynamics until a fixed point, a cycle, or the cap.

    Outcomes are exactly those of checking every state against all of its
    predecessors for the first ``max_steps`` ticks: a repeat of the
    immediately preceding state is a fixed point, any other repeat is a
    cycle with the minimal period and the earliest entry time.
    """
    if max_steps is None:
        max_steps = default_max_steps(initial.shape)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    tick = tick_kernel(initial.shape)
    start = initial.values.reshape(-1)
    cur = saved = start
    saved_time, power = 0, 1
    for now in range(2 * max_steps):
        nxt = tick(cur)
        if np.array_equal(nxt, cur):
            if now < max_steps:
                return TrajectoryOutcome(
                    OutcomeKind.FIXED,
                    steady_state=conserved_state(initial, cur),
                    steps_taken=now + 1,
                    n_st=now,
                )
            break
        if np.array_equal(nxt, saved):
            period = now + 1 - saved_time
            entry, entry_state = _cycle_entry(tick, start, period)
            if entry + period <= max_steps:
                return TrajectoryOutcome(
                    OutcomeKind.PERIODIC,
                    steady_state=conserved_state(initial, entry_state),
                    steps_taken=entry + period,
                    entry_time=entry,
                    period=period,
                )
            break
        cur = nxt
        if now < max_steps and (now + 1 - saved_time == power or now + 1 == max_steps):
            saved, saved_time, power = cur, now + 1, 2 * power
    # the loop only ends after tick max_steps, so ``saved`` is T(max_steps)
    return TrajectoryOutcome(
        OutcomeKind.UNRESOLVED,
        steady_state=conserved_state(initial, saved),
        steps_taken=max_steps,
    )
