"""Named correctness and reproduction checks.

Two tiers: quick checks (exact worked examples, oracle equivalence,
conservation and symmetry properties on tens of thousands of random
states, closed-form validation of the one-step model) complete in well
under a minute; full checks add the statistical reproductions of the
published steady-state measurements (relaxation times, two-element
dominance, size insensitivity, periodic-state rarity, 1D-vs-2D density
spread), which take minutes.

Every check is deterministic: random inputs come from fixed seeds, and
sweep aggregation is bit-exact at any worker count. The property checks
(oracle equivalence, conservation, symmetry) run in this process on one
seeded stream per dimension, so the states they draw, and the first
failure they report, depend only on the seed and ``n_states``. A step
that changes a state's mass raises ``OverflowError`` (from
``conserved_state``); each property check reports that as its FAIL on
the state it was stepping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import step, step_oracle
from .lattice import LatticeState, TorusShape
from .montecarlo import mix_seed, sample_grid_point
from .primitive import analytic_densities, replica_densities
from .steady import evolve

# Arbitrary fixed seeds; changing any of them changes which random states
# the suite exercises, never what the checks demand.
_SEED_ORACLE_1D = 1001
_SEED_ORACLE_2D = 1002
_SEED_MASS = 1003
_SEED_TRANSLATION = 1004
_SEED_REFLECTION = 1005
_SEED_PRIMITIVE = 1006
_SEED_RELAXATION = 1007
_SEED_DOMINANCE = 1008
_SEED_SIZES = 1009
_SEED_PREVALENCE = 1010
_SEED_SPREAD = 1011

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


def _property_check(
    name: str,
    failure: Callable[[LatticeState, np.random.Generator], str],
    ndims: tuple[int, ...],
    seed: int,
    n_states: int,
    holds: str = "holds on {} random states (1D and 2D)",
) -> CheckResult:
    """Run ``failure`` on ``n_states`` random states of each dimension in
    ``ndims``; report the first failure, or ``holds`` with the state count."""

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


def check_oracle_equivalence_1d(n_states: int = 10_000) -> CheckResult:
    return _property_check(
        "oracle-equivalence-1d", _oracle_failure, (1,), _SEED_ORACLE_1D, n_states,
        "step == naive reference on {} random 1D states",
    )


def check_oracle_equivalence_2d(n_states: int = 10_000) -> CheckResult:
    return _property_check(
        "oracle-equivalence-2d", _oracle_failure, (2,), _SEED_ORACLE_2D, n_states,
        "step == naive reference on {} random 2D states",
    )


def check_mass_conservation(n_states: int = 10_000) -> CheckResult:
    return _property_check("mass-conservation", _mass_failure, (1, 2), _SEED_MASS, n_states)


def check_translation_equivariance(n_states: int = 10_000) -> CheckResult:
    return _property_check(
        "translation-equivariance", _translation_failure, (1, 2), _SEED_TRANSLATION, n_states
    )


def check_reflection_equivariance(n_states: int = 10_000) -> CheckResult:
    return _property_check(
        "reflection-equivariance", _reflection_failure, (1, 2), _SEED_REFLECTION, n_states
    )


def check_primitive_mass_identity(grid_points: int = 100) -> CheckResult:
    def run():
        worst = 0.0
        for i in range(grid_points + 1):
            p = i / grid_points
            q1, q2, q3 = analytic_densities(p)
            worst = max(worst, abs(q1 + 2.0 * q2 + 3.0 * q3 - p))
        return worst <= 1e-15, f"max |q1 + 2 q2 + 3 q3 - p| = {worst:.3e} over {grid_points + 1} points"

    return _timed("primitive-mass-identity", run)


def check_primitive_convergence(
    m: int = 10_000,
    n_seeds: int = 100,
    p_values: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
    tolerance: float = 0.005,
) -> CheckResult:
    def run():
        worst = 0.0
        worst_at = ""
        for grid_index, p in enumerate(p_values):
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
# full (statistical reproduction) checks


def check_relaxation_time(
    m: int, expected: float, tolerance: float = 2.0, samples: int = 2000, workers: int = 1
) -> CheckResult:
    # the acceptance floor is 500 samples; 2000 keeps the standard error of
    # the mean (~0.24 steps) well clear of the tolerance edge
    def run():
        stats = sample_grid_point(
            TorusShape((m,)), 0.8, samples, _SEED_RELAXATION, workers=workers
        )
        mean = stats.mean_n_st()
        return abs(mean - expected) <= tolerance, (
            f"mean n_st = {mean:.2f} over {stats.fixed_count} settled samples "
            f"(expected {expected} +/- {tolerance})"
        )

    return _timed(f"relaxation-time-m{m}", run)


def check_q2_dominance(
    m: int = 3000,
    samples: int = 1000,
    p_values: tuple[float, ...] = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95),
    workers: int = 1,
) -> CheckResult:
    def run():
        for grid_index, p in enumerate(p_values):
            stats = sample_grid_point(
                TorusShape((m,)), p, samples, _SEED_DOMINANCE, grid_index=grid_index, workers=workers
            )
            q2 = stats.mean_q(2)
            rivals = {r: stats.mean_q(r) for r in (1, 3, 4)}
            loser = next((r for r, q in rivals.items() if q2 <= q), None)
            if loser is not None:
                return False, f"at p={p}: Q_2={q2:.4f} not above Q_{loser}={rivals[loser]:.4f}"
        return True, f"Q_2 strictly largest of Q_1..Q_4 at p in {list(p_values)} ({samples} samples each)"

    return _timed("q2-dominance", run)


def check_m_insensitivity(
    p: float = 0.6, samples: int = 2000, tolerance: float = 0.01, workers: int = 1
) -> CheckResult:
    def run():
        small = sample_grid_point(TorusShape((300,)), p, samples, _SEED_SIZES, workers=workers)
        large = sample_grid_point(TorusShape((3000,)), p, samples, _SEED_SIZES, workers=workers)
        deltas = {r: abs(small.mean_q(r) - large.mean_q(r)) for r in (1, 2)}
        worst = max(deltas.values())
        return worst < tolerance, (
            f"|Q_r(M=300) - Q_r(M=3000)| at p={p}: "
            + ", ".join(f"r={r}: {d:.4f}" for r, d in deltas.items())
        )

    return _timed("m-insensitivity", run)


def check_steady_prevalence(
    m: int = 3000,
    samples: int = 2000,
    workers: int = 1,
) -> CheckResult:
    def run():
        p_values = (0.5, 0.8, 0.9, 0.95)
        worst = 0.0
        worst_p = p_values[0]
        for grid_index, p in enumerate(p_values):
            stats = sample_grid_point(
                TorusShape((m,)), p, samples, _SEED_PREVALENCE, grid_index=grid_index, workers=workers
            )
            fraction = (stats.periodic_count + stats.unresolved_count) / stats.samples
            if fraction > worst:
                worst, worst_p = fraction, p
        return worst < 0.01, (
            f"worst non-settling fraction {worst:.4f} at p={worst_p} "
            f"({samples} samples per p, M={m})"
        )

    return _timed("steady-prevalence", run)


def _density_spread(stats) -> float:
    qs = [stats.mean_q(r) for r in (1, 2, 3, 4)]
    return max(qs) - min(qs)


def check_2d_spread(samples: int = 500, workers: int = 1) -> CheckResult:
    def run():
        flat = sample_grid_point(
            TorusShape((200, 200)), 0.9, samples, _SEED_SPREAD, workers=workers
        )
        line = sample_grid_point(
            TorusShape((3000,)), 0.9, samples, _SEED_SPREAD, grid_index=1, workers=workers
        )
        spread_2d = _density_spread(flat)
        spread_1d = _density_spread(line)
        return spread_2d < spread_1d, (
            f"Q_1..Q_4 spread at p=0.9: 2D {spread_2d:.4f} vs 1D {spread_1d:.4f}"
        )

    return _timed("2d-density-spread", run)


# ---------------------------------------------------------------------------
# suites


def quick_checks() -> list[CheckResult]:
    return [
        check_worked_examples(),
        check_oracle_equivalence_1d(),
        check_oracle_equivalence_2d(),
        check_mass_conservation(),
        check_translation_equivariance(),
        check_reflection_equivariance(),
        check_primitive_mass_identity(),
        check_primitive_convergence(),
    ]


def full_checks(workers: int = 1) -> list[CheckResult]:
    results = quick_checks()
    results.extend(
        [
            check_relaxation_time(3000, expected=50.0, workers=workers),
            check_relaxation_time(4000, expected=52.5, workers=workers),
            check_q2_dominance(workers=workers),
            check_m_insensitivity(workers=workers),
            check_steady_prevalence(workers=workers),
            check_2d_spread(workers=workers),
        ]
    )
    return results
