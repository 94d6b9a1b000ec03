import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupform import LatticeState, TorusShape, step, step_oracle
from groupform.dynamics import conserved_state, tick_kernel

from conftest import lattice_states, offsets_for, torus_shapes

FIG_EXAMPLE = [0, 0, 1, 1, 2, 0, 0, 2, 1, 2, 0, 1, 1, 0]


class TestStepExamples:
    def test_two_groups_separate(self):
        z5 = TorusShape((5,))
        assert step(LatticeState(z5, [1, 1, 0, 0, 0])) == LatticeState(z5, [0, 0, 1, 0, 1])

    def test_merge(self):
        z7 = TorusShape((7,))
        before = LatticeState(z7, [1, 1, 0, 1, 1, 0, 0])
        after = LatticeState(z7, [0, 0, 2, 0, 0, 1, 1])
        assert step(before) == after
        assert step_oracle(before) == after

    def test_empty_is_fixed(self):
        empty = LatticeState(TorusShape((6,)), np.zeros(6, dtype=np.int64))
        assert step(empty) == empty
        empty2d = LatticeState(TorusShape((3, 5)), np.zeros((3, 5), dtype=np.int64))
        assert step(empty2d) == empty2d

    def test_displacement_larger_than_torus_wraps(self):
        # both groups land on cell 3: 0 - 2 = -2 = 3 (mod 5), 1 + 7 = 8 = 3 (mod 5)
        z5 = TorusShape((5,))
        assert step(LatticeState(z5, [7, 2, 0, 0, 0])) == LatticeState(z5, [0, 0, 0, 9, 0])
        assert step_oracle(LatticeState(z5, [7, 2, 0, 0, 0])) == LatticeState(z5, [0, 0, 0, 9, 0])

    def test_huge_values_merge_exactly(self):
        # x = 2 mod 5 makes cells 0 and 1 collide; their sum stays in range
        x = 2**62 - 2
        z5 = TorusShape((5,))
        result = step(LatticeState(z5, [x, x, 0, 0, 0]))
        assert result == LatticeState(z5, [0, 0, 0, 2 * x, 0])

    def test_near_max_displacement_is_exact(self):
        # the size-1 group is pushed by a neighbor of size 2**63 - 2; its
        # target index must be reduced without 64-bit wraparound
        x = 2**63 - 2
        z5 = TorusShape((5,))
        state = LatticeState(z5, [0, 0, x, 1, 0])
        expected = LatticeState(z5, [0, x, 0, 0, 1])
        assert step_oracle(state) == expected
        assert step(state) == expected

    def test_mass_change_is_an_overflow(self):
        state = LatticeState(TorusShape((5,)), [1, 1, 0, 0, 0])
        with pytest.raises(OverflowError):
            conserved_state(state, np.array([0, 0, 1, 0, 0]))


@st.composite
def near_max_states(draw):
    """One group of size 2**63 - 2 - slack and at most 1 + slack unit groups,
    so the mass fits int64 and neighbours see gradients up to +-(2**63 - 2)."""
    shape = draw(torus_shapes(max_side_1d=12, max_side_2d=6))
    slack = draw(st.integers(0, 3))
    cells = draw(st.permutations(range(shape.total_cells)))
    values = np.zeros(shape.total_cells, dtype=np.int64)
    values[cells[0]] = 2**63 - 2 - slack
    for k in cells[1 : 2 + slack]:
        values[k] = draw(st.integers(0, 1))
    return LatticeState(shape, values.reshape(shape.dims))


class TestTickKernel:
    @settings(max_examples=150)
    @given(st.one_of(lattice_states(max_value=4, max_side_1d=12, max_side_2d=6), near_max_states()))
    def test_raw_tick_matches_oracle(self, state):
        out = tick_kernel(state.shape)(state.values.reshape(-1))
        assert out.dtype == np.int64 and out.shape == (state.shape.total_cells,)
        assert out.tolist() == step_oracle(state).values.ravel().tolist()

    def test_tick_does_not_write_its_argument(self):
        values = np.array([1, 1, 0, 1, 1, 0, 0], dtype=np.int64)
        tick_kernel(TorusShape((7,)))(values)
        assert values.tolist() == [1, 1, 0, 1, 1, 0, 0]

    def test_merge_above_int64_is_an_overflow(self):
        # x = 2 mod 5 sends cells 0 and 1 both to cell 3, and 2x > 2**63 - 1;
        # LatticeState rejects this mass, so the raw tick is called directly
        x = 2**62 + 3
        with pytest.raises(OverflowError):
            tick_kernel(TorusShape((5,)))(np.array([x, x, 0, 0, 0], dtype=np.int64))

    @pytest.mark.parametrize(
        "values",
        [
            np.arange(10, dtype=np.int64)[::2],  # strided view
            np.arange(15, dtype=np.int64).reshape(5, 3).T,  # Fortran order
            np.arange(5, dtype=np.int32),
            np.arange(5, dtype=np.uint64),
            np.arange(5, dtype=np.float64),
            np.arange(4, dtype=np.int64),
            np.arange(6, dtype=np.int64),
        ],
        ids=["strided", "fortran", "int32", "uint64", "float64", "short", "long"],
    )
    def test_other_arrays_are_rejected(self, values):
        shape = TorusShape((3, 5)) if values.size == 15 else TorusShape((5,))
        with pytest.raises(ValueError, match="C-contiguous int64"):
            tick_kernel(shape)(values)


class TestStepProperties:
    @given(lattice_states())
    def test_mass_conserved(self, state):
        assert step(state).total_mass() == state.total_mass()

    @given(lattice_states(), st.data())
    def test_translation_equivariance(self, state, data):
        offset = data.draw(offsets_for(state.shape))
        assert step(state.shift(offset)) == step(state).shift(offset)

    @given(lattice_states())
    def test_reflection_equivariance(self, state):
        assert step(state.reflect()) == step(state).reflect()

    @settings(max_examples=60)
    @given(lattice_states(max_value=4))
    def test_matches_oracle(self, state):
        assert step(state) == step_oracle(state)

    @given(st.lists(st.tuples(st.integers(2, 4), st.integers(1, 5)), min_size=1, max_size=6))
    def test_isolated_groups_are_fixed_1d(self, gap_and_size):
        # groups separated by >= 2 empty cells see empty neighbors: zero
        # gradient everywhere, so the state is a fixed point
        values = []
        for gap, size in gap_and_size:
            values.extend([0] * gap)
            values.append(size)
        values.extend([0, 0])
        state = LatticeState(TorusShape((len(values),)), values)
        assert step(state) == state

    @given(st.integers(2, 4), st.integers(2, 4), st.data())
    def test_isolated_groups_are_fixed_2d(self, rows, cols, data):
        values = np.zeros((2 * rows, 2 * cols), dtype=np.int64)
        for i in range(rows):
            for j in range(cols):
                values[2 * i, 2 * j] = data.draw(st.integers(0, 5))
        state = LatticeState(TorusShape(values.shape), values)
        assert step(state) == state


class TestOracle2D:
    def test_direct_substitution(self):
        # the group at (1,1) is pushed by its axis-0 successor of size 2:
        # displacement (2, 0), target (1-2, 1) = (2, 1) on a 3x3 torus
        values = np.zeros((3, 3), dtype=np.int64)
        values[1, 1] = 1
        values[2, 1] = 2
        state = LatticeState(TorusShape((3, 3)), values)
        fast, naive = step(state), step_oracle(state)
        assert fast == naive
        # the size-1 group moved away from the size-2 one, which itself
        # was pushed by the size-1 group on its other side
        assert fast.values[2, 1] == 1

    @settings(max_examples=60)
    @given(lattice_states(max_value=4, max_side_1d=10, max_side_2d=6))
    def test_matches_step(self, state):
        assert step_oracle(state) == step(state)
