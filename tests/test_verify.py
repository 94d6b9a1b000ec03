"""Pinned inputs and outputs of the checks in ``groupform.verify``.

The digests and detail strings of the property checks were recorded when
they moved to one seeded stream per dimension; any change to which random
states a check draws, in what order, or how it reports them changes
these. The statistical checks' jobs (points, sample counts and seeds) and
the figure datasets' jobs at both scales are pinned as literals, so that
none of them shrinks unnoticed.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from groupform import LatticeState, cli, verify
from groupform.dynamics import conserved_state
from groupform.montecarlo import GridPointStats

N_STATES = 101

# check name -> (states drawn, sha256 of their dims and values in drawing
# order, pass detail)
DRAWN = {
    "oracle-equivalence-1d": (
        101,
        "9e7f961184ebef03bde50014f74f6dc52e5488d82503886ba0ed6af0fc780fbc",
        "step == naive reference on 101 random 1D states",
    ),
    "oracle-equivalence-2d": (
        101,
        "f805555eb826e622cb22f17bcbe97e98cf76a7e53ac7ac9131a6ab35cf1214ee",
        "step == naive reference on 101 random 2D states",
    ),
    "mass-conservation": (
        202,
        "a1aed032a4f08fcfdd93571b8d756123176c466756406d83fe3f7cc72c9231b6",
        "holds on 202 random states (1D and 2D)",
    ),
    "translation-equivariance": (
        202,
        "a40f93891ca7a75040b001dc2fc6a9bcc8cc4e17d877c80c8d35d9ba7cda0586",
        "holds on 202 random states (1D and 2D)",
    ),
    "reflection-equivariance": (
        202,
        "4b1f0e1040a79918dfa1d5c2bda199d73dcd225ce55db76794e1d73e558c8a36",
        "holds on 202 random states (1D and 2D)",
    ),
}

# (check name, ndim) -> (passed, detail) under ``_rolled_at_15_in(ndim)``.
# Each dimension has its own seeded stream, so the first violation on
# ndim-D states does not depend on whether the other dimension is broken.
UNDER_ROLLED_STEP = {
    ("oracle-equivalence-1d", 1): (
        False,
        "first mismatch on [3, 0, 2, 2, 2, 1, 2, 1, 0, 2, 2, 3, 0, 2, 3] (dims (15,))",
    ),
    ("oracle-equivalence-1d", 2): (
        True,
        "step == naive reference on 101 random 1D states",
    ),
    ("oracle-equivalence-2d", 1): (
        True,
        "step == naive reference on 101 random 2D states",
    ),
    ("oracle-equivalence-2d", 2): (
        False,
        "first mismatch on [[3, 2, 0], [1, 2, 0], [2, 0, 3], [0, 2, 0], [0, 0, 0]] (dims (5, 3))",
    ),
    ("mass-conservation", 1): (True, "holds on 202 random states (1D and 2D)"),
    ("mass-conservation", 2): (True, "holds on 202 random states (1D and 2D)"),
    ("translation-equivariance", 1): (
        False,
        "shift by [-2] not equivariant for [2, 1, 0, 0, 2, 3, 2, 0, 0, 2, 2, 3, 2, 2, 2]",
    ),
    ("translation-equivariance", 2): (
        False,
        "shift by [17, -3] not equivariant for"
        " [[0, 0, 0], [1, 1, 0], [2, 1, 1], [2, 0, 3], [1, 1, 2]]",
    ),
    ("reflection-equivariance", 1): (
        False,
        "reflection not equivariant for [3, 1, 0, 1, 3, 2, 3, 2, 3, 0, 2, 3, 2, 1, 0]",
    ),
    ("reflection-equivariance", 2): (
        False,
        "reflection not equivariant for [[2, 0, 0], [1, 0, 2], [1, 0, 0], [1, 0, 0], [0, 2, 3]]",
    ),
}

# check name -> detail under ``_dropping_at_15``: the mass fault surfaces
# as an OverflowError from ``conserved_state`` on the first 15-cell state.
_LOST = "accumulation overflow: mass not conserved by step on "
UNDER_DROPPING_STEP = {
    "oracle-equivalence-1d": _LOST + "[3, 0, 2, 2, 2, 1, 2, 1, 0, 2, 2, 3, 0, 2, 3]",
    "oracle-equivalence-2d": _LOST + "[[3, 2, 0], [1, 2, 0], [2, 0, 3], [0, 2, 0], [0, 0, 0]]",
    "mass-conservation": _LOST + "[1, 1, 1, 0, 2, 0, 1, 3, 0, 3, 2, 2, 0, 3, 2]",
    "translation-equivariance": _LOST + "[1, 3, 2, 0, 3, 1, 2, 0, 3, 0, 2, 3, 1, 1, 2]",
    "reflection-equivariance": _LOST + "[3, 1, 0, 1, 3, 2, 3, 2, 3, 0, 2, 3, 2, 1, 0]",
}

# check name -> its job's (points as (torus dims, p, grid index), samples per
# point, seed), in the order ``full_checks`` runs them
SAMPLED = {
    "relaxation-time-m3000": ([((3000,), 0.8, 0)], 2000, 1007),
    "relaxation-time-m4000": ([((4000,), 0.8, 0)], 2000, 1007),
    "q2-dominance": (
        [((3000,), 0.7, 0), ((3000,), 0.75, 1), ((3000,), 0.8, 2),
         ((3000,), 0.85, 3), ((3000,), 0.9, 4), ((3000,), 0.95, 5)],
        1000,
        1008,
    ),
    "m-insensitivity": ([((300,), 0.6, 0), ((3000,), 0.6, 0)], 2000, 1009),
    "steady-prevalence": (
        [((3000,), 0.5, 0), ((3000,), 0.8, 1), ((3000,), 0.9, 2), ((3000,), 0.95, 3)],
        2000,
        1010,
    ),
    "2d-density-spread": ([((200, 200), 0.9, 0), ((3000,), 0.9, 1)], 500, 1011),
}

# scale -> each figure dataset's (experiment, file name, point count, first
# point, last point, samples per point, seed), in the order ``figures`` runs them
DATASETS = {
    "demo": [
        ("density1d", "density_1d_m3000.csv", 97, ((3000,), 0.0, 0), ((3000,), 0.96, 96), 300, 20260810),
        ("density1d", "density_1d_m4000.csv", 97, ((4000,), 0.0, 0), ((4000,), 0.96, 96), 300, 20260810),
        ("relaxation", "relaxation_times.csv", 12, ((300,), 0.35, 0), ((10000,), 0.85, 0), 300, 20260810),
        ("density2d", "density_2d_100x150.csv", 97, ((100, 150), 0.0, 0), ((100, 150), 0.96, 96), 300, 20260810),
        ("density2d", "density_2d_200x200.csv", 97, ((200, 200), 0.0, 0), ((200, 200), 0.96, 96), 300, 20260810),
        ("dense2d", "dense_2d_histograms.csv", 2, ((200, 200), 0.9, 0), ((200, 200), 0.99, 1), 300, 20260810),
    ],
    "full": [
        ("density1d", "density_1d_m3000.csv", 97, ((3000,), 0.0, 0), ((3000,), 0.96, 96), 10000, 20260810),
        ("density1d", "density_1d_m4000.csv", 97, ((4000,), 0.0, 0), ((4000,), 0.96, 96), 10000, 20260810),
        ("relaxation", "relaxation_times.csv", 27, ((300,), 0.35, 0), ((10000,), 0.85, 0), 10000, 20260810),
        ("density2d", "density_2d_100x150.csv", 97, ((100, 150), 0.0, 0), ((100, 150), 0.96, 96), 10000, 20260810),
        ("density2d", "density_2d_200x200.csv", 97, ((200, 200), 0.0, 0), ((200, 200), 0.96, 96), 10000, 20260810),
        ("dense2d", "dense_2d_histograms.csv", 2, ((200, 200), 0.9, 0), ((200, 200), 0.99, 1), 10000, 20260810),
    ],
}


def _point(p, total_cells, samples, **sums):
    """Hand-built stats for one grid point; ``fixed_count`` defaults to ``samples``."""
    sums.setdefault("fixed_count", samples)
    return GridPointStats(p=p, grid_index=0, total_cells=total_cells, samples=samples, **sums)


# check name -> (hand-built stats, the verdict's (passed, detail))
FAILING = {
    "relaxation-time-m3000": (
        [_point(0.8, 3000, 10, n_st_sum=450)],
        "mean n_st = 45.00 over 10 settled samples (expected 50.0 +/- 2.0)",
    ),
    "relaxation-time-m4000": (
        [_point(0.8, 4000, 10, fixed_count=8, periodic_count=2, n_st_sum=400)],
        "mean n_st = 50.00 over 8 settled samples (expected 52.5 +/- 2.0)",
    ),
    "q2-dominance": (
        [_point(0.8, 30, 5, fixed_count=0, unresolved_count=5)],
        "at p=0.8: 0 of 5 samples settled",
    ),
    "m-insensitivity": (
        [_point(0.6, 300, 4, count_sums={1: 120, 2: 60}),
         _point(0.6, 3000, 4, count_sums={1: 1200, 2: 840})],
        "|Q_r(M=300) - Q_r(M=3000)| at p=0.6: r=1: 0.0000, r=2: 0.0200",
    ),
    "steady-prevalence": (
        [_point(0.5, 3000, 100),
         _point(0.8, 3000, 100, fixed_count=98, periodic_count=2),
         _point(0.9, 3000, 100, fixed_count=97, periodic_count=1, unresolved_count=2),
         _point(0.95, 3000, 100, fixed_count=97, periodic_count=3)],
        "worst non-settling fraction 0.0300 at p=0.9 (100 samples per p, M=3000)",
    ),
    "2d-density-spread": (
        [_point(0.9, 40_000, 1, count_sums={1: 4000, 2: 8000}),
         _point(0.9, 3000, 1, count_sums={1: 300, 2: 300, 3: 150, 4: 150})],
        "Q_1..Q_4 spread at p=0.9: 2D 0.2000 vs 1D 0.0500",
    ),
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


def test_every_property_is_pinned():
    assert sorted(DRAWN) == sorted(verify.PROPERTIES)


def test_every_statistic_is_pinned():
    jobs = [(name, job) for name, (job, _) in verify.STATISTICS.items()]
    assert jobs == [(name, verify.Job(*row)) for name, row in SAMPLED.items()]


@pytest.mark.parametrize("scale", sorted(DATASETS))
def test_every_dataset_is_pinned(scale):
    rows = [
        (experiment, file_name, len(job.points), job.points[0], job.points[-1], job.samples, job.seed)
        for experiment, file_name, _, _, job in cli.datasets(scale)
    ]
    assert rows == DATASETS[scale]


@pytest.mark.parametrize("name", sorted(FAILING))
def test_statistic_fail_detail(name):
    stats, detail = FAILING[name]
    *_, verdict = verify.STATISTICS[name]
    assert verdict(stats) == (False, detail)


# the ids are the names these cases ran under while each property check
# was a function of its own
@pytest.mark.parametrize("name", sorted(DRAWN), ids=lambda name: "check_" + name.replace("-", "_"))
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
    result = verify.check_property(name, n_states=N_STATES)
    assert (len(seen), drawn.hexdigest()) == (count, digest)
    assert (result.passed, result.detail) == (True, detail)


@pytest.mark.parametrize("ndim", [1, 2])
def test_first_violation_detail(monkeypatch, ndim):
    monkeypatch.setattr(verify, "step", _rolled_at_15_in(ndim))
    for name in DRAWN:
        result = verify.check_property(name, n_states=N_STATES)
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
        result = verify.check_property(name, n_states=N_STATES)
        assert (result.passed, result.detail) == (False, UNDER_DROPPING_STEP[name]), name


def test_q2_dominance_detail_and_one_pool(monkeypatch, recording_pool):
    # recorded while each grid point still built a pool of its own
    built, maps = recording_pool
    job, verdict = verify.STATISTICS["q2-dominance"]
    small = dataclasses.replace(job, points=[((30,), p, grid_index) for _, p, grid_index in job.points], samples=8)
    monkeypatch.setitem(verify.STATISTICS, "q2-dominance", (small, verdict))
    result = verify.check_statistic("q2-dominance", workers=2)
    assert (result.passed, result.detail) == (False, "at p=0.95: Q_2=0.0000 not above Q_1=1.0000")
    assert len(built) == 1
    assert len(maps) == 6


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
