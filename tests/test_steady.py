import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupform import (
    LatticeState,
    OutcomeKind,
    TorusShape,
    TrajectoryOutcome,
    default_max_steps,
    evolve,
    step,
    step_oracle,
)

from conftest import lattice_states

FIG_EXAMPLE = [0, 0, 1, 1, 2, 0, 0, 2, 1, 2, 0, 1, 1, 0]
FIG_EXAMPLE_SETTLED = [0, 1, 0, 3, 0, 0, 0, 0, 3, 0, 3, 0, 1, 0]


class TestEvolveExamples:
    def test_fixed_after_one_step(self):
        z5 = TorusShape((5,))
        outcome = evolve(LatticeState(z5, [1, 1, 0, 0, 0]))
        assert outcome.kind is OutcomeKind.FIXED
        assert outcome.n_st == 1
        assert outcome.steady_state == LatticeState(z5, [0, 0, 1, 0, 1])
        assert outcome.steps_taken == 2

    def test_period_two_cycle(self):
        z5 = TorusShape((5,))
        outcome = evolve(LatticeState(z5, [1, 1, 1, 0, 0]))
        assert outcome.kind is OutcomeKind.PERIODIC
        assert outcome.entry_time == 0
        assert outcome.period == 2
        assert outcome.steady_state == LatticeState(z5, [1, 1, 1, 0, 0])
        assert outcome.n_st is None

    def test_merge_then_settle(self):
        z7 = TorusShape((7,))
        outcome = evolve(LatticeState(z7, [1, 1, 0, 1, 1, 0, 0]))
        assert outcome.kind is OutcomeKind.FIXED
        assert outcome.n_st == 2
        assert outcome.steady_state == LatticeState(z7, [1, 0, 2, 0, 1, 0, 0])

    def test_mixed_sizes_settle(self):
        z14 = TorusShape((14,))
        outcome = evolve(LatticeState(z14, FIG_EXAMPLE))
        assert outcome.kind is OutcomeKind.FIXED
        assert outcome.n_st == 3
        assert outcome.steady_state == LatticeState(z14, FIG_EXAMPLE_SETTLED)
        assert outcome.steady_state.total_mass() == 11

    def test_already_fixed(self):
        all_ones = LatticeState(TorusShape((6,)), [1] * 6)
        outcome = evolve(all_ones)
        assert outcome.kind is OutcomeKind.FIXED
        assert outcome.n_st == 0
        assert outcome.steps_taken == 1
        assert outcome.steady_state == all_ones

    def test_unresolved_at_cap(self):
        outcome = evolve(LatticeState(TorusShape((5,)), [1, 1, 1, 0, 0]), max_steps=1)
        assert outcome.kind is OutcomeKind.UNRESOLVED
        assert outcome.steps_taken == 1
        assert outcome.steady_state == LatticeState(TorusShape((5,)), [0, 1, 0, 1, 1])

    @pytest.mark.parametrize("max_steps", [5, 6])
    def test_cycle_closing_at_the_cap_is_periodic(self, max_steps):
        # mu = 0, lambda = 5: the cycle closes exactly at tick 5
        z5 = TorusShape((5,))
        outcome = evolve(LatticeState(z5, [0, 0, 1, 2, 2]), max_steps=max_steps)
        assert outcome.kind is OutcomeKind.PERIODIC
        assert (outcome.entry_time, outcome.period, outcome.steps_taken) == (0, 5, 5)
        assert outcome.steady_state == LatticeState(z5, [0, 0, 1, 2, 2])

    def test_cycle_closing_past_the_cap_is_unresolved(self):
        z5 = TorusShape((5,))
        outcome = evolve(LatticeState(z5, [0, 0, 1, 2, 2]), max_steps=4)
        assert outcome.kind is OutcomeKind.UNRESOLVED
        assert outcome.steps_taken == 4
        assert outcome.steady_state == LatticeState(z5, [2, 2, 0, 0, 1])

    def test_max_steps_validation(self):
        with pytest.raises(ValueError):
            evolve(LatticeState(TorusShape((5,)), np.zeros(5, dtype=np.int64)), max_steps=0)

    def test_default_cap(self):
        assert default_max_steps(TorusShape((3000,))) == 300_000
        assert default_max_steps(TorusShape((100, 150))) == 15_000


class TestTrajectory:
    def test_cycle_trajectory(self):
        z5 = TorusShape((5,))
        start = LatticeState(z5, [1, 1, 1, 0, 0])
        assert step(start) == LatticeState(z5, [0, 1, 0, 1, 1])
        assert step(step(start)) == start

    def test_empty_state(self):
        empty = LatticeState(TorusShape((4, 4)), np.zeros((4, 4), dtype=np.int64))
        state = empty
        for _ in range(3):
            state = step(state)
            assert state == empty

    @given(lattice_states())
    def test_mass_constant_along_trajectory(self, state):
        visited = state
        for _ in range(8):
            visited = step(visited)
            assert visited.total_mass() == state.total_mass()


class TestOutcomeInvariants:
    @settings(max_examples=80)
    @given(lattice_states(max_value=2))
    def test_outcome_self_consistent(self, state):
        outcome = evolve(state, max_steps=200)
        if outcome.kind is OutcomeKind.FIXED:
            # confirmed by direct re-application, independent of detection
            assert step(outcome.steady_state) == outcome.steady_state
            assert outcome.n_st is not None
            assert outcome.steps_taken == outcome.n_st + 1
            previous, replay = None, state
            for _ in range(outcome.n_st):
                previous, replay = replay, step(replay)
            if outcome.n_st > 0:
                assert replay != previous
            assert replay == outcome.steady_state
        elif outcome.kind is OutcomeKind.PERIODIC:
            period = outcome.period
            assert period >= 2
            visited = outcome.steady_state
            # minimality: no proper divisor of the period closes the loop
            for d in range(1, period):
                visited = step(visited)
                if period % d == 0:
                    assert visited != outcome.steady_state
            assert step(visited) == outcome.steady_state
            assert outcome.steps_taken == outcome.entry_time + period
        else:
            assert outcome.steps_taken == 200

    @given(lattice_states(max_value=2))
    def test_deterministic(self, state):
        first = evolve(state, max_steps=64)
        second = evolve(state, max_steps=64)
        assert first.kind == second.kind
        assert first.steady_state == second.steady_state
        assert (first.n_st, first.entry_time, first.period, first.steps_taken) == (
            second.n_st,
            second.entry_time,
            second.period,
            second.steps_taken,
        )


def reference_evolve(initial, max_steps):
    """Exact reference: remember every visited state, step with the oracle."""
    seen = {initial.values.tobytes(): 0}
    cur = initial
    for now in range(max_steps):
        nxt = step_oracle(cur)
        if nxt == cur:
            return TrajectoryOutcome(OutcomeKind.FIXED, cur, now + 1, n_st=now)
        first = seen.setdefault(nxt.values.tobytes(), now + 1)
        if first <= now:
            return TrajectoryOutcome(
                OutcomeKind.PERIODIC, nxt, now + 1, entry_time=first, period=now + 1 - first
            )
        cur = nxt
    return TrajectoryOutcome(OutcomeKind.UNRESOLVED, cur, max_steps)


class TestReferenceEvolve:
    @settings(max_examples=300)
    @given(
        lattice_states(max_value=3, max_side_2d=6),
        st.one_of(st.just(1), st.integers(2, 2**55)),
        st.integers(1, 40),
    )
    def test_matches_reference(self, state, scale, max_steps):
        # scaled states push groups by large multiples of the torus size
        scaled = LatticeState(state.shape, state.values * scale)
        assert evolve(scaled, max_steps) == reference_evolve(scaled, max_steps)
