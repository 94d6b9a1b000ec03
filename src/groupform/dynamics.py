"""The evolution step: gradient repulsion plus merge-on-collision.

Each neighbor pushes an occupied cell away from itself at a distance
equal to the neighbor's size, so the net move is minus the central
difference of the surrounding occupancies: the group at ``k`` jumps to
``k - (T(k+1) - T(k-1))`` on a 1D torus, componentwise on a 2D torus.
Groups landing in the same cell merge by summing. Displacements of any
magnitude are legal and wrap around the torus.

``tick_kernel`` builds the one production kernel: a function on raw
flat int64 arrays, built from precomputed neighbour-index tables and
cached per torus shape for the life of the process, so that a tick
costs a handful of numpy calls over the occupied cells and no
``LatticeState`` rebuild. ``step`` applies it once and wraps the result
at the API boundary. ``step_oracle`` is a deliberately naive reference that tests
every (target, source) pair against the defining condition, kept around
purely for equivalence testing.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .lattice import LatticeState, TorusShape

# One tick on flat row-major int64 occupancies: T(n) -> T(n+1).
Tick = Callable[[np.ndarray], np.ndarray]


@lru_cache(maxsize=64)
def tick_kernel(shape: TorusShape) -> Tick:
    """The production tick for ``shape``, on flat row-major int64 arrays.

    The returned function maps the occupancies T(n) to a new array holding
    T(n+1) and never writes to its argument. Neighbour, coordinate and
    wrap tables are built on the first call for each shape and never
    written to afterwards, and the returned tick is pure, so one tick per
    shape is cached and shared by every ``step``, ``evolve`` and
    ``trajectory`` call in the process. A tick touches only the occupied
    cells: it gathers their two neighbours per axis, reduces each
    displacement modulo the axis length before forming the target (so
    occupancies near 2**63 never wrap), and merges colliding groups with
    one exact int64 ``np.add.at``. It does not check mass;
    callers wrap its output with ``conserved_state``.
    """
    dims = shape.dims
    n = shape.total_cells
    cells = np.arange(n).reshape(dims)
    coords = np.indices(dims)
    axes = []
    stride = n
    for axis, d in enumerate(dims):
        stride //= d
        axes.append(
            (
                d,
                np.roll(cells, -1, axis=axis).ravel(),  # successor along the axis
                np.roll(cells, 1, axis=axis).ravel(),  # predecessor
                coords[axis].ravel() + d,  # coordinate + d: c - (g % d) lies in [1, 2d)
                (np.arange(2 * d) % d) * stride,  # that index -> flat offset of the target
            )
        )

    def tick(values: np.ndarray) -> np.ndarray:
        sources = (values != 0).nonzero()[0]
        targets = 0
        for d, succ, pred, coord, wrap_offset in axes:
            push = (values[succ[sources]] - values[pred[sources]]) % d
            targets = targets + wrap_offset[coord[sources] - push]
        out = np.zeros(n, dtype=np.int64)
        np.add.at(out, targets, values[sources])
        return out

    return tick


def conserved_state(reference: LatticeState, values: np.ndarray) -> LatticeState:
    """Wrap kernel output as a state on ``reference``'s torus, checking its mass.

    The initial-mass bound in ``LatticeState`` rules out accumulation
    overflow, so this check runs once per call at the API boundary, not
    once per tick.
    """
    state = LatticeState(reference.shape, values)
    if state.total_mass() != reference.total_mass():
        raise OverflowError("accumulation overflow: mass not conserved by step")
    return state


def step(state: LatticeState) -> LatticeState:
    """Advance the state one tick; total mass is conserved exactly.

    Only occupied cells are visited: each scatters its value onto its own
    cell minus the central difference of its neighbours, wrapped onto the
    torus, and deposits on a common target accumulate.
    """
    return conserved_state(state, tick_kernel(state.shape)(state.values.reshape(-1)))


def step_oracle(state: LatticeState) -> LatticeState:
    """Literal reference step: double loop over all (target, source) pairs.

    For every cell pair the defining condition "source minus target equals
    the central difference at the source, modulo the torus" is evaluated
    directly, with no skipping of empty cells and no precomputation.
    """
    dims = state.shape.dims
    if len(dims) == 1:
        (m1,) = dims
        t = state.values.tolist()
        out = [0] * m1
        for m in range(m1):
            acc = 0
            for k in range(m1):
                g = t[(k + 1) % m1] - t[(k - 1) % m1]
                if (k - m - g) % m1 == 0:
                    acc += t[k]
            out[m] = acc
    else:
        m1, m2 = dims
        t = state.values.tolist()
        out = [[0] * m2 for _ in range(m1)]
        for a in range(m1):
            for b in range(m2):
                acc = 0
                for x in range(m1):
                    row = t[x]
                    up = t[(x + 1) % m1]
                    dn = t[(x - 1) % m1]
                    for y in range(m2):
                        g1 = up[y] - dn[y]
                        g2 = row[(y + 1) % m2] - row[(y - 1) % m2]
                        if (x - a - g1) % m1 == 0 and (y - b - g2) % m2 == 0:
                            acc += row[y]
                out[a][b] = acc
    return LatticeState(state.shape, np.asarray(out, dtype=np.int64))
