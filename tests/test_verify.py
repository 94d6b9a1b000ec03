"""Pinned outputs of the property checks in ``groupform.verify``.

The digests and detail strings below were recorded before the property
checks were folded into one runner; any change to which random states a
check draws, in what order, or how it reports them changes these.
"""

import hashlib

import numpy as np
import pytest

from groupform import LatticeState, verify

N_STATES = 101

# check name -> (states drawn at workers=1, sha256 of their dims and values
# in drawing order, pass detail)
DRAWN = {
    "check_oracle_equivalence_1d": (
        101,
        "eb291e70e8e1c628b5f203e3f7c37c02a9147a4cf55661263b2af49ec5ffa64b",
        "step == naive reference on 101 random 1D states",
    ),
    "check_oracle_equivalence_2d": (
        101,
        "a82158822285c98125f539a75a7f0301d5504e984661c5080a9f2811f6a9d2eb",
        "step == naive reference on 101 random 2D states",
    ),
    "check_mass_conservation": (
        202,
        "6f8968513bf00423ea12d739ced53c084af8502049558fa7287858306dc15150",
        "holds on 202 random states (1D and 2D)",
    ),
    "check_translation_equivariance": (
        202,
        "c878ed5678bcbe7c866399e275c40e85bfabfdbc9a1204defbea9ef1cb702901",
        "holds on 202 random states (1D and 2D)",
    ),
    "check_reflection_equivariance": (
        202,
        "6d324660c33567114901e521a098a5ab8debd059b49254f2dfb9b6b0320f14b2",
        "holds on 202 random states (1D and 2D)",
    ),
}

# (check name, workers) -> (passed, detail) under ``_rolled_at_15``. The
# translation check's first violation differs between worker counts,
# because the blocks, and so the states drawn past block 0, differ.
UNDER_ROLLED_STEP = {
    ("check_oracle_equivalence_1d", 1): (
        False,
        "first mismatch on [2, 1, 2, 0, 0, 2, 0, 1, 3, 2, 3, 2, 0, 1, 3] (dims (15,))",
    ),
    ("check_oracle_equivalence_1d", 2): (
        False,
        "first mismatch on [2, 1, 2, 0, 0, 2, 0, 1, 3, 2, 3, 2, 0, 1, 3] (dims (15,))",
    ),
    ("check_oracle_equivalence_2d", 1): (
        False,
        "first mismatch on [[3, 2, 0], [1, 2, 0], [2, 0, 3], [0, 2, 0], [0, 0, 0]] (dims (5, 3))",
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
        "shift by [-5] not equivariant for [0, 2, 0, 1, 3, 2, 2, 0, 3, 2, 3, 0, 3, 3, 0]",
    ),
    ("check_reflection_equivariance", 1): (
        False,
        "reflection not equivariant for [3, 1, 0, 1, 3, 2, 3, 2, 3, 0, 2, 3, 2, 1, 0]",
    ),
    ("check_reflection_equivariance", 2): (
        False,
        "reflection not equivariant for [3, 1, 0, 1, 3, 2, 3, 2, 3, 0, 2, 3, 2, 1, 0]",
    ),
}

_real_step = verify.step


def _rolled_at_15(state):
    """A wrong but mass-conserving step: on 15-cell states whose first cell
    holds more than one element, the true result is rolled by one cell."""
    out = _real_step(state)
    if state.values.size == 15 and state.values.flat[0] > 1:
        return LatticeState(state.shape, np.roll(out.values, 1))
    return out


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
    result = getattr(verify, name)(n_states=N_STATES, workers=1)
    assert (len(seen), drawn.hexdigest()) == (count, digest)
    assert (result.passed, result.detail) == (True, detail)


def test_pass_detail_with_two_workers():
    for name, (_, _, detail) in DRAWN.items():
        result = getattr(verify, name)(n_states=N_STATES, workers=2)
        assert (result.passed, result.detail) == (True, detail), name


@pytest.mark.parametrize("workers", [1, 2])
def test_first_violation_detail(monkeypatch, workers):
    # worker processes are forked, so they inherit the patched step
    monkeypatch.setattr(verify, "step", _rolled_at_15)
    for name in DRAWN:
        result = getattr(verify, name)(n_states=N_STATES, workers=workers)
        assert (result.passed, result.detail) == UNDER_ROLLED_STEP[name, workers], name


def test_primitive_convergence_detail():
    result = verify.check_primitive_convergence(m=100, n_seeds=5)
    assert not result.passed
    assert result.detail == (
        "max |empirical - closed form| = 0.02113 at r=2 p=0.9 (m=100, 5 seeds, tolerance 0.005)"
    )
