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
    verify,
)

from conftest import lattice_states


def evolve_worked_example(name):
    """Evolve one `verify.WORKED_EXAMPLES` row and check its outcome and final state."""
    values, _, expected, steady = verify.WORKED_EXAMPLES[name]
    shape = TorusShape((len(values),))
    outcome = evolve(LatticeState(shape, values))
    assert (outcome.kind.value, outcome.n_st, outcome.entry_time, outcome.period) == expected
    assert outcome.steady_state == LatticeState(shape, steady)
    return outcome


class TestEvolveExamples:
    def test_worked_examples(self):
        result = verify.check_worked_examples()
        assert result.passed, result.detail

    def test_fixed_after_one_step(self):
        outcome = evolve_worked_example("two adjacent groups")
        assert outcome.kind is OutcomeKind.FIXED
        assert outcome.steps_taken == 2

    def test_period_two_cycle(self):
        outcome = evolve_worked_example("three adjacent groups")
        assert outcome.kind is OutcomeKind.PERIODIC
        assert outcome.n_st is None

    def test_merge_then_settle(self):
        outcome = evolve_worked_example("merge example")
        assert outcome.kind is OutcomeKind.FIXED

    def test_mixed_sizes_settle(self):
        outcome = evolve_worked_example("mixed example")
        assert outcome.kind is OutcomeKind.FIXED
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
