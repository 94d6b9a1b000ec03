import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from groupform import LatticeState, TorusShape, load_state, save_state, wrap

from conftest import lattice_states, offsets_for, torus_shapes

FIG_EXAMPLE = [0, 0, 1, 1, 2, 0, 0, 2, 1, 2, 0, 1, 1, 0]


class TestTorusShape:
    def test_basic(self):
        shape = TorusShape((5, 7))
        assert shape.ndim == 2
        assert shape.total_cells == 35

    @pytest.mark.parametrize(
        "dims", [(), (3, 3, 3), (2,), (1,), (4, 2), (0, 5), (30.7,), (5.0,), ("30",)]
    )
    def test_invalid_dims_rejected(self, dims):
        with pytest.raises(ValueError):
            TorusShape(dims)


class TestWrap:
    def test_examples(self):
        assert wrap(TorusShape((14,)), [-1]) == (13,)
        assert wrap(TorusShape((14,)), [5]) == (5,)
        assert wrap(TorusShape((5, 7)), [6, -2]) == (1, 5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wrap(TorusShape((5,)), [1, 2])
        with pytest.raises(ValueError):
            wrap(TorusShape((5, 7)), [1])

    @given(torus_shapes(), st.data())
    def test_idempotent_and_periodic(self, shape, data):
        idx = tuple(data.draw(st.integers(-100, 100)) for _ in shape.dims)
        wrapped = wrap(shape, idx)
        assert wrap(shape, wrapped) == wrapped
        assert all(0 <= w < d for w, d in zip(wrapped, shape.dims))
        plus_period = tuple(i + d for i, d in zip(idx, shape.dims))
        assert wrap(shape, plus_period) == wrapped


class TestLatticeState:
    def test_total_mass_examples(self):
        assert LatticeState.zeros(TorusShape((4,))).total_mass() == 0
        assert LatticeState(TorusShape((14,)), FIG_EXAMPLE).total_mass() == 11
        assert LatticeState(TorusShape((3,)), [3, 0, 0]).total_mass() == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatticeState(TorusShape((3,)), [1, -1, 0])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            LatticeState(TorusShape((3,)), np.array([0.5, 1.0, 0.0]))

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            LatticeState(TorusShape((4,)), [1, 2, 3])

    def test_mass_overflow_rejected(self):
        with pytest.raises(OverflowError):
            LatticeState(TorusShape((3,)), [2**62, 2**62, 0])

    def test_huge_uint_rejected(self):
        with pytest.raises(OverflowError):
            LatticeState(TorusShape((3,)), np.array([2**63, 0, 0], dtype=np.uint64))

    def test_values_frozen(self):
        state = LatticeState(TorusShape((3,)), [1, 0, 0])
        with pytest.raises(ValueError):
            state.values[0] = 5

    def test_input_not_aliased(self):
        source = np.array([1, 0, 0], dtype=np.int64)
        state = LatticeState(TorusShape((3,)), source)
        source[0] = 7
        assert state.values[0] == 1

    def test_equality(self):
        a = LatticeState(TorusShape((3,)), [1, 2, 0])
        b = LatticeState(TorusShape((3,)), [1, 2, 0])
        c = LatticeState(TorusShape((3,)), [1, 0, 2])
        assert a == b
        assert a != c
        assert a != "not a state"


class TestShift:
    def test_examples(self):
        z3 = TorusShape((3,))
        assert LatticeState(z3, [1, 0, 0]).shift([1]) == LatticeState(z3, [0, 1, 0])
        z4 = TorusShape((4,))
        assert LatticeState(z4, [1, 2, 0, 0]).shift([-1]) == LatticeState(z4, [2, 0, 0, 1])
        state = LatticeState(z4, [3, 1, 4, 1])
        assert state.shift([0]) == state

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LatticeState(TorusShape((3,)), [1, 0, 0]).shift([1, 1])

    @given(lattice_states(), st.data())
    def test_composition_and_invariants(self, state, data):
        a = data.draw(offsets_for(state.shape))
        b = data.draw(offsets_for(state.shape))
        ab = tuple(x + y for x, y in zip(a, b))
        assert state.shift(a).shift(b) == state.shift(ab)
        shifted = state.shift(a)
        assert shifted.total_mass() == state.total_mass()
        assert sorted(shifted.values.ravel()) == sorted(state.values.ravel())

    @given(lattice_states())
    def test_definition(self, state):
        offset = tuple(1 for _ in state.shape.dims)
        shifted = state.shift(offset)
        for m in np.ndindex(*state.shape.dims):
            target = wrap(state.shape, tuple(i + o for i, o in zip(m, offset)))
            assert shifted.values[target] == state.values[m]


class TestReflect:
    def test_examples(self):
        z3 = TorusShape((3,))
        assert LatticeState(z3, [0, 1, 2]).reflect() == LatticeState(z3, [0, 2, 1])
        z4 = TorusShape((4,))
        assert LatticeState(z4, [1, 1, 0, 0]).reflect() == LatticeState(z4, [1, 0, 0, 1])
        z6 = TorusShape((6,))
        symmetric = LatticeState(z6, [1, 0, 0, 0, 1, 0])
        assert symmetric.reflect().reflect() == symmetric

    @given(lattice_states())
    def test_involution(self, state):
        assert state.reflect().reflect() == state

    @given(lattice_states())
    def test_definition(self, state):
        reflected = state.reflect()
        for m in np.ndindex(*state.shape.dims):
            source = wrap(state.shape, tuple(-i for i in m))
            assert reflected.values[m] == state.values[source]


class TestSerialization:
    @given(lattice_states(max_value=5))
    def test_json_roundtrip(self, state):
        assert LatticeState.from_json_dict(state.to_json_dict()) == state

    def test_file_roundtrip(self, tmp_path):
        state = LatticeState(TorusShape((14,)), FIG_EXAMPLE)
        path = tmp_path / "state.json"
        save_state(state, path)
        assert load_state(path) == state

    def test_2d_row_major(self):
        state = LatticeState(TorusShape((3, 4)), list(range(12)))
        assert state.values[1, 2] == 6
        assert state.to_json_dict()["values"] == list(range(12))

    def test_reader_validates_length(self):
        with pytest.raises(ValueError):
            LatticeState.from_json_dict({"dims": [4], "values": [1, 0, 0]})

    def test_reader_validates_negativity(self):
        with pytest.raises(ValueError):
            LatticeState.from_json_dict({"dims": [3], "values": [1, -2, 0]})

    def test_reader_validates_types(self):
        with pytest.raises(ValueError):
            LatticeState.from_json_dict({"dims": [3], "values": [1, 0.5, 0]})
        with pytest.raises(ValueError):
            LatticeState.from_json_dict({"values": [1, 0, 0]})
        with pytest.raises(ValueError):
            LatticeState.from_json_dict([1, 0, 0])
        for bad in (
            {"dims": 5, "values": [1, 0, 0, 0, 0]},
            {"dims": [5.9], "values": [1, 0, 0, 0, 0]},
            {"dims": [3], "values": [True, 0, 0]},
            {"dims": [3], "values": [2**64, 0, 0]},
            {"dims": [3], "values": [2**63 - 1, 1, 0]},
        ):
            with pytest.raises(ValueError):
                LatticeState.from_json_dict(bad)

    def test_reader_rejects_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_state(path)

    def test_save_appends_newline(self, tmp_path):
        path = tmp_path / "state.json"
        save_state(LatticeState(TorusShape((3,)), [1, 0, 0]), path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"dims": [3], "values": [1, 0, 0]}
