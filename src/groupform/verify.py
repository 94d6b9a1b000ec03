"""Named correctness and reproduction checks.

Two tiers: quick checks (exact worked examples, oracle equivalence,
conservation and symmetry properties on tens of thousands of random
states, closed-form validation of the one-step model) complete in well
under a minute; full checks add the statistical reproductions of the
published steady-state measurements (relaxation times, two-element
dominance, size insensitivity, periodic-state rarity, 1D-vs-2D density
spread), about 30-40 s in all at two workers on a 2-core host.

Each check is defined once, here, and the CLI and the acceptance gate
call it as is: a property check is a ``PROPERTIES`` row run by
``check_property``, a statistical check a ``STATISTICS`` row ``(job,
verdict)``, the verdict holding its tolerance and expected values, run by
``check_statistic``. A job is a ``montecarlo.Job``, run by one
``sample_points`` call, bit-exact at any worker count, as ``groupform
sweep`` and each ``figures`` dataset are. Only ``workers`` and the sizes
tests shrink (``n_states``, the primitive check's ``m``/``n_seeds``) are
parameters; a test shrinks a statistical check by swapping in a row with
a smaller job.

Every check is deterministic: random inputs come from fixed seeds. The
property checks run in this process on one seeded stream per dimension,
so the states they draw, and the first failure they report, depend only
on the seed and ``n_states``. A step that changes a state's mass raises
``OverflowError`` (from ``conserved_state``); each property check reports
that as its FAIL on the state it was stepping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import step, step_oracle
from .lattice import LatticeState, TorusShape
from .montecarlo import GridPointStats, Job, curve, mix_seed, p_grid, sample_points
from .primitive import analytic_densities, replica_densities
from .steady import evolve

# Arbitrary fixed seed (the property checks' 1001-1005 are in
# ``PROPERTIES``, the statistical checks' 1007-1011 in ``STATISTICS``);
# changing any seed changes which random states the suite exercises, never
# what the checks demand.
_SEED_PRIMITIVE = 1006

# Exact hand-checkable trajectories (verified against the literal rule):
# name -> (T(0), T(1) or None, (kind, n_st, entry_time, period), the fixed
# point or the state at cycle entry).
WORKED_EXAMPLES = {
    "two adjacent groups": (
        [1, 1, 0, 0, 0], None, ("fixed", 1, None, None), [0, 0, 1, 0, 1]
    ),
    "three adjacent groups": (
        [1, 1, 1, 0, 0], [0, 1, 0, 1, 1], ("periodic", None, 0, 2), [1, 1, 1, 0, 0]
    ),
    "merge example": (
        [1, 1, 0, 1, 1, 0, 0],
        [0, 0, 2, 0, 0, 1, 1],
        ("fixed", 2, None, None),
        [1, 0, 2, 0, 1, 0, 0],
    ),
    "mixed example": (
        [0, 0, 1, 1, 2, 0, 0, 2, 1, 2, 0, 1, 1, 0],
        None,
        ("fixed", 3, None, None),
        [0, 1, 0, 3, 0, 0, 0, 0, 3, 0, 3, 0, 1, 0],
    ),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(name: str, fn: Callable[[], tuple[bool, str]]) -> CheckResult:
    start = time.perf_counter()
    passed, detail = fn()
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def _random_state(rng: np.random.Generator, ndim: int) -> LatticeState:
    if ndim == 1:
        dims = (int(rng.integers(3, 17)),)
    else:
        dims = (int(rng.integers(3, 9)), int(rng.integers(3, 9)))
    values = rng.integers(0, 4, size=dims)
    return LatticeState(TorusShape(dims), values)


# ---------------------------------------------------------------------------
# quick checks


def check_worked_examples() -> CheckResult:
    def run():
        for name, (values, after, expected, steady) in WORKED_EXAMPLES.items():
            initial = LatticeState(TorusShape((len(values),)), values)
            first = step(initial)
            if first != step_oracle(initial) or (after is not None and first.values.tolist() != after):
                return False, f"{name}: wrong first step, got {first.values.tolist()}"
            outcome = evolve(initial)
            got = (outcome.kind.value, outcome.n_st, outcome.entry_time, outcome.period)
            if got != expected:
                return False, f"{name}: expected (kind, n_st, entry, period) {expected}, got {got}"
            if outcome.steady_state.values.tolist() != steady:
                return False, f"{name}: expected {steady}, got {outcome.steady_state.values.tolist()}"
        return True, f"{len(WORKED_EXAMPLES)} worked trajectories reproduce exactly"

    return _timed("worked-examples", run)


def _oracle_failure(state: LatticeState, rng: np.random.Generator) -> str:
    if step(state) != step_oracle(state):
        return f"first mismatch on {state.values.tolist()} (dims {state.shape.dims})"
    return ""


def _mass_failure(state: LatticeState, rng: np.random.Generator) -> str:
    if step(state).total_mass() != state.total_mass():
        return f"mass changed for {state.values.tolist()}"
    return ""


def _translation_failure(state: LatticeState, rng: np.random.Generator) -> str:
    offset = [int(rng.integers(-20, 21)) for _ in state.shape.dims]
    if step(state.shift(offset)) != step(state).shift(offset):
        return f"shift by {offset} not equivariant for {state.values.tolist()}"
    return ""


def _reflection_failure(state: LatticeState, rng: np.random.Generator) -> str:
    if step(state.reflect()) != step(state).reflect():
        return f"reflection not equivariant for {state.values.tolist()}"
    return ""


# check name -> (failure predicate, dimensions drawn, seed, pass detail).
# A predicate returns "" where the property holds on a state.
_HOLDS = "holds on {} random states (1D and 2D)"
PROPERTIES = {
    "oracle-equivalence-1d": (
        _oracle_failure, (1,), 1001, "step == naive reference on {} random 1D states"
    ),
    "oracle-equivalence-2d": (
        _oracle_failure, (2,), 1002, "step == naive reference on {} random 2D states"
    ),
    "mass-conservation": (_mass_failure, (1, 2), 1003, _HOLDS),
    "translation-equivariance": (_translation_failure, (1, 2), 1004, _HOLDS),
    "reflection-equivariance": (_reflection_failure, (1, 2), 1005, _HOLDS),
}


def check_property(name: str, n_states: int = 10_000) -> CheckResult:
    """Run the ``PROPERTIES`` check ``name`` on ``n_states`` random states of
    each dimension it draws; report the first failure, or its pass detail
    with the state count."""
    failure, ndims, seed, holds = PROPERTIES[name]

    def run():
        for ndim in ndims:
            rng = np.random.default_rng(mix_seed(seed, ndim, 0))
            for _ in range(n_states):
                state = _random_state(rng, ndim)
                try:
                    detail = failure(state, rng)
                except OverflowError as exc:  # a step that changed the mass
                    detail = f"{exc} on {state.values.tolist()}"
                if detail:
                    return False, detail
        return True, holds.format(n_states * len(ndims))

    return _timed(name, run)


def check_primitive_mass_identity() -> CheckResult:
    grid_points = 100

    def run():
        worst = 0.0
        for p in p_grid(1.0, grid_points):
            q1, q2, q3 = analytic_densities(p)
            worst = max(worst, abs(q1 + 2.0 * q2 + 3.0 * q3 - p))
        return worst <= 1e-15, f"max |q1 + 2 q2 + 3 q3 - p| = {worst:.3e} over {grid_points + 1} points"

    return _timed("primitive-mass-identity", run)


def check_primitive_convergence(m: int = 10_000, n_seeds: int = 100) -> CheckResult:
    tolerance = 0.005

    def run():
        worst = 0.0
        worst_at = ""
        for grid_index, p in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
            means, _ = replica_densities(m, p, grid_index, n_seeds, _SEED_PRIMITIVE)
            for r, (mean, expected) in enumerate(zip(means, analytic_densities(p)), 1):
                delta = abs(mean - expected)
                if delta > worst:
                    worst, worst_at = delta, f"r={r} p={p}"
        return worst <= tolerance, (
            f"max |empirical - closed form| = {worst:.5f} at {worst_at} "
            f"(m={m}, {n_seeds} seeds, tolerance {tolerance})"
        )

    return _timed("primitive-mc-convergence", run)


# ---------------------------------------------------------------------------
# full checks: statistical reproductions, each a sampled job and its verdict


# Published mean settling time n_st at p=0.8, by 1D torus size M; n_st is
# the smallest n with T(n+1) = T(n). The relaxation rows' 2000 samples (the
# floor is 500) give 48.62 +/- 0.244 at M=3000 and 51.00 +/- 0.241 at
# M=4000: -5.6 and -6.2 standard errors off, but inside the +/- 2.0 tolerance.
RELAXATION_TIMES = {3000: 50.0, 4000: 52.5}


def _relaxation(stats: list[GridPointStats]) -> tuple[bool, str]:
    (point,) = stats
    expected, tolerance = RELAXATION_TIMES[point.total_cells], 2.0
    mean = point.mean_n_st()
    return abs(mean - expected) <= tolerance, (
        f"mean n_st = {mean:.2f} over {point.fixed_count} settled samples "
        f"(expected {expected} +/- {tolerance})"
    )


def _q2_dominance(stats: list[GridPointStats]) -> tuple[bool, str]:
    for point in stats:
        if point.fixed_count == 0:  # no Q_r to compare
            return False, f"at p={point.p}: 0 of {point.samples} samples settled"
        q2 = point.mean_q(2)
        rivals = {r: point.mean_q(r) for r in (1, 3, 4)}
        loser = next((r for r, q in rivals.items() if q2 <= q), None)
        if loser is not None:
            return False, f"at p={point.p}: Q_2={q2:.4f} not above Q_{loser}={rivals[loser]:.4f}"
    p_values = [point.p for point in stats]
    return True, f"Q_2 strictly largest of Q_1..Q_4 at p in {p_values} ({stats[0].samples} samples each)"


def _m_insensitivity(stats: list[GridPointStats]) -> tuple[bool, str]:
    small, large = stats
    deltas = {r: abs(small.mean_q(r) - large.mean_q(r)) for r in (1, 2)}
    return max(deltas.values()) < 0.01, (
        f"|Q_r(M={small.total_cells}) - Q_r(M={large.total_cells})| at p={small.p}: "
        + ", ".join(f"r={r}: {d:.4f}" for r, d in deltas.items())
    )


def _steady_prevalence(stats: list[GridPointStats]) -> tuple[bool, str]:
    fractions = [(point.periodic_count + point.unresolved_count) / point.samples for point in stats]
    worst = stats[fractions.index(max(fractions))]  # the first point of the largest fraction
    return max(fractions) < 0.01, (
        f"worst non-settling fraction {max(fractions):.4f} at p={worst.p} "
        f"({worst.samples} samples per p, M={worst.total_cells})"
    )


def _spread_2d(stats: list[GridPointStats]) -> tuple[bool, str]:
    qs = [[point.mean_q(r) for r in (1, 2, 3, 4)] for point in stats]
    spread_2d, spread_1d = (max(q) - min(q) for q in qs)
    return spread_2d < spread_1d, (
        f"Q_1..Q_4 spread at p={stats[0].p}: 2D {spread_2d:.4f} vs 1D {spread_1d:.4f}"
    )


# check name -> (job, verdict on the job's stats in order -> (passed, detail))
STATISTICS = {
    "relaxation-time-m3000": (Job([((3000,), 0.8, 0)], 2000, 1007), _relaxation),
    "relaxation-time-m4000": (Job([((4000,), 0.8, 0)], 2000, 1007), _relaxation),
    "q2-dominance": (Job(curve((3000,), (0.70, 0.75, 0.80, 0.85, 0.90, 0.95)), 1000, 1008), _q2_dominance),
    "m-insensitivity": (Job([((300,), 0.6, 0), ((3000,), 0.6, 0)], 2000, 1009), _m_insensitivity),
    "steady-prevalence": (Job(curve((3000,), (0.5, 0.8, 0.9, 0.95)), 2000, 1010), _steady_prevalence),
    "2d-density-spread": (Job([((200, 200), 0.9, 0), ((3000,), 0.9, 1)], 500, 1011), _spread_2d),
}


def check_statistic(name: str, workers: int = 1) -> CheckResult:
    """Run the ``STATISTICS`` check ``name``'s job and apply its verdict to the stats."""
    job, verdict = STATISTICS[name]
    return _timed(name, lambda: verdict(sample_points(job, workers)))


# ---------------------------------------------------------------------------
# suites


def quick_checks() -> list[CheckResult]:
    return [
        check_worked_examples(),
        *(check_property(name) for name in PROPERTIES),
        check_primitive_mass_identity(),
        check_primitive_convergence(),
    ]


def full_checks(workers: int = 1) -> list[CheckResult]:
    return [
        *quick_checks(),
        *(check_statistic(name, workers) for name in STATISTICS),
    ]
