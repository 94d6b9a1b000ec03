"""Pinned outputs of the property checks in ``groupform.verify``.

The digests and detail strings below were recorded when the property
checks moved to one seeded stream per dimension; any change to which
random states a check draws, in what order, or how it reports them
changes these.
"""

import hashlib

import numpy as np
import pytest

from groupform import LatticeState, verify
from groupform.dynamics import conserved_state

N_STATES = 101

# check name -> (states drawn, sha256 of their dims and values in drawing
# order, pass detail)
DRAWN = {
    "check_oracle_equivalence_1d": (
        101,
        "9e7f961184ebef03bde50014f74f6dc52e5488d82503886ba0ed6af0fc780fbc",
        "step == naive reference on 101 random 1D states",
    ),
    "check_oracle_equivalence_2d": (
        101,
        "f805555eb826e622cb22f17bcbe97e98cf76a7e53ac7ac9131a6ab35cf1214ee",
        "step == naive reference on 101 random 2D states",
    ),
    "check_mass_conservation": (
        202,
        "a1aed032a4f08fcfdd93571b8d756123176c466756406d83fe3f7cc72c9231b6",
        "holds on 202 random states (1D and 2D)",
    ),
    "check_translation_equivariance": (
        202,
        "a40f93891ca7a75040b001dc2fc6a9bcc8cc4e17d877c80c8d35d9ba7cda0586",
        "holds on 202 random states (1D and 2D)",
    ),
    "check_reflection_equivariance": (
        202,
        "4b1f0e1040a79918dfa1d5c2bda199d73dcd225ce55db76794e1d73e558c8a36",
        "holds on 202 random states (1D and 2D)",
    ),
}

# (check name, ndim) -> (passed, detail) under ``_rolled_at_15_in(ndim)``.
# Each dimension has its own seeded stream, so the first violation on
# ndim-D states does not depend on whether the other dimension is broken.
UNDER_ROLLED_STEP = {
    ("check_oracle_equivalence_1d", 1): (
        False,
        "first mismatch on [3, 0, 2, 2, 2, 1, 2, 1, 0, 2, 2, 3, 0, 2, 3] (dims (15,))",
    ),
    ("check_oracle_equivalence_1d", 2): (
        True,
        "step == naive reference on 101 random 1D states",
    ),
    ("check_oracle_equivalence_2d", 1): (
        True,
        "step == naive reference on 101 random 2D states",
    ),
    ("check_oracle_equivalence_2d", 2): (
        False,
        "first mismatch on [[3, 2, 0], [1, 2, 0], [2, 0, 3], [0, 2, 0], [0, 0, 0]] (dims (5, 3))",
    ),
    ("check_mass_conservation", 1): (True, "holds on 202 random states (1D and 2D)"),
    ("check_mass_conservation", 2): (True, "holds on 202 random states (1D and 2D)"),
    ("check_translation_equivariance", 1): (
        False,
        "shift by [-2] not equivariant for [2, 1, 0, 0, 2, 3, 2, 0, 0, 2, 2, 3, 2, 2, 2]",
    ),
    ("check_translation_equivariance", 2): (
        False,
        "shift by [17, -3] not equivariant for"
        " [[0, 0, 0], [1, 1, 0], [2, 1, 1], [2, 0, 3], [1, 1, 2]]",
    ),
    ("check_reflection_equivariance", 1): (
        False,
        "reflection not equivariant for [3, 1, 0, 1, 3, 2, 3, 2, 3, 0, 2, 3, 2, 1, 0]",
    ),
    ("check_reflection_equivariance", 2): (
        False,
        "reflection not equivariant for [[2, 0, 0], [1, 0, 2], [1, 0, 0], [1, 0, 0], [0, 2, 3]]",
    ),
}

# check name -> detail under ``_dropping_at_15``: the mass fault surfaces
# as an OverflowError from ``conserved_state`` on the first 15-cell state.
_LOST = "accumulation overflow: mass not conserved by step on "
UNDER_DROPPING_STEP = {
    "check_oracle_equivalence_1d": _LOST + "[3, 0, 2, 2, 2, 1, 2, 1, 0, 2, 2, 3, 0, 2, 3]",
    "check_oracle_equivalence_2d": _LOST + "[[3, 2, 0], [1, 2, 0], [2, 0, 3], [0, 2, 0], [0, 0, 0]]",
    "check_mass_conservation": _LOST + "[1, 1, 1, 0, 2, 0, 1, 3, 0, 3, 2, 2, 0, 3, 2]",
    "check_translation_equivariance": _LOST + "[1, 3, 2, 0, 3, 1, 2, 0, 3, 0, 2, 3, 1, 1, 2]",
    "check_reflection_equivariance": _LOST + "[3, 1, 0, 1, 3, 2, 3, 2, 3, 0, 2, 3, 2, 1, 0]",
}

_real_step = verify.step


def _rolled_at_15_in(ndim):
    """A wrong but mass-conserving step: on ndim-D states of 15 cells whose
    first cell holds more than one element, the true result is rolled by
    one cell."""

    def rolled(state):
        out = _real_step(state)
        values = state.values
        if values.ndim == ndim and values.size == 15 and values.flat[0] > 1:
            return LatticeState(state.shape, np.roll(out.values, 1))
        return out

    return rolled


def _dropping_at_15(state):
    """A mass-losing step: on states of 15 cells, one element is taken from
    the first occupied cell of the true result, which ``conserved_state``
    turns into an ``OverflowError``."""
    out = _real_step(state)
    if state.values.size != 15:
        return out
    values = out.values.copy()
    values.flat[np.flatnonzero(values)[0]] -= 1
    return conserved_state(state, values)


@pytest.mark.parametrize("name", sorted(DRAWN))
def test_states_drawn_and_pass_detail(monkeypatch, name):
    count, digest, detail = DRAWN[name]
    real_random_state = verify._random_state
    drawn = hashlib.sha256()
    seen = []

    def recording(rng, ndim):
        state = real_random_state(rng, ndim)
        drawn.update(f"{state.shape.dims}{state.values.tolist()}\n".encode())
        seen.append(state)
        return state

    monkeypatch.setattr(verify, "_random_state", recording)
    result = getattr(verify, name)(n_states=N_STATES)
    assert (len(seen), drawn.hexdigest()) == (count, digest)
    assert (result.passed, result.detail) == (True, detail)


@pytest.mark.parametrize("ndim", [1, 2])
def test_first_violation_detail(monkeypatch, ndim):
    monkeypatch.setattr(verify, "step", _rolled_at_15_in(ndim))
    for name in DRAWN:
        result = getattr(verify, name)(n_states=N_STATES)
        assert (result.passed, result.detail) == UNDER_ROLLED_STEP[name, ndim], name


def test_primitive_convergence_detail():
    result = verify.check_primitive_convergence(m=100, n_seeds=5)
    assert not result.passed
    assert result.detail == (
        "max |empirical - closed form| = 0.02113 at r=2 p=0.9 (m=100, 5 seeds, tolerance 0.005)"
    )


def test_mass_fault_is_a_failure(monkeypatch):
    monkeypatch.setattr(verify, "step", _dropping_at_15)
    for name in DRAWN:
        result = getattr(verify, name)(n_states=N_STATES)
        assert (result.passed, result.detail) == (False, UNDER_DROPPING_STEP[name]), name


def test_wrong_first_step_fails_worked_examples(monkeypatch):
    def rolled_at_5(state):
        out = _real_step(state)
        if out.values.size == 5:
            return LatticeState(state.shape, np.roll(out.values, 1))
        return out

    monkeypatch.setattr(verify, "step", rolled_at_5)
    result = verify.check_worked_examples()
    assert not result.passed
    assert result.detail.startswith("two adjacent groups: wrong first step")
