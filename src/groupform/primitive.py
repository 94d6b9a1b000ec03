"""One-step solvable variant with closed-form group-size densities.

Start from i.i.d. Bernoulli(p) one-element groups on an even torus. The
content of every even cell hops to a uniformly random odd neighbor
(left or right, probability 1/2 each) and merges there; after this
single step no group has occupied neighbors, so the system is steady.
An odd cell then holds the sum of one, two, or three of the original
Bernoulli variables with probabilities 1/4, 1/2, 1/4, which gives the
closed forms

    Q_1(p) = (8p - 10p^2 + 3p^3) / 8
    Q_2(p) = (5p^2 - 3p^3) / 8
    Q_3(p) = p^3 / 8

normalized per cell over the whole torus; ``analytic_densities(p)``
returns them as the tuple (Q_1, Q_2, Q_3). Q_1 + 2 Q_2 + 3 Q_3 = p holds
identically (mass conservation in expectation).
"""

from __future__ import annotations

from math import comb

import numpy as np

from .lattice import LatticeState, TorusShape
from .montecarlo import GroupHistogram, measure, mix_seed


# Chance that an odd cell ends up holding 1, 2 or 3 of the variables: the
# cell always keeps its own, and each of its two even neighbors arrives
# independently with probability 1/2.
RECEIVE_WEIGHTS = (0.25, 0.5, 0.25)


def binomial_mixture_density(r: int, p: float) -> float:
    """Density of r-element groups via the binomial mixture (no closed form).

    Half the cells are odd; an odd cell holding n variables contains an
    r-group with binomial probability C(n, r) p^r (1-p)^(n-r).
    """
    total = 0.0
    for n, s in zip((1, 2, 3), RECEIVE_WEIGHTS):
        if r <= n:
            total += s * comb(n, r) * p**r * (1.0 - p) ** (n - r)
    return total / 2.0


def analytic_densities(p: float) -> tuple[float, float, float]:
    """The closed-form densities (Q_1, Q_2, Q_3) at p; p must lie in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    q1 = p * (8.0 + p * (-10.0 + 3.0 * p)) / 8.0
    q2 = p * p * (5.0 - 3.0 * p) / 8.0
    q3 = p**3 / 8.0
    return q1, q2, q3


def simulate_primitive(m: int, p: float, seed: int) -> GroupHistogram:
    """One stochastic realization of the one-step model on an even torus.

    Draws the Bernoulli field, hops every even cell's content to a random
    odd neighbor, merges, and histograms the resulting group sizes over
    all m cells. Even cells always end empty and no group exceeds size 3.
    """
    if m % 2 != 0 or m < 4:
        raise ValueError(f"torus size must be even and >= 4, got {m}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    occupancy = (rng.random(m) < p).astype(np.int64)
    # one direction per even cell, -1 or +1 with probability 1/2 each;
    # empty even cells hop vacuously
    hops = rng.integers(0, 2, size=m // 2) * 2 - 1
    final = np.zeros(m, dtype=np.int64)
    final[1::2] = occupancy[1::2]
    targets = (np.arange(0, m, 2) + hops) % m
    np.add.at(final, targets, occupancy[0::2])
    return measure(LatticeState(TorusShape((m,)), final))


def replica_densities(
    m: int, p: float, grid_index: int, n_seeds: int, master_seed: int
) -> tuple[list[float], list[float]]:
    """Means and standard errors of Q_1, Q_2, Q_3 over ``n_seeds`` replicas
    of the one-step model; replica j is seeded by
    ``mix_seed(master_seed, grid_index, j)``."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    per_seed = [[], [], []]
    for j in range(n_seeds):
        hist = simulate_primitive(m, p, mix_seed(master_seed, grid_index, j))
        for r in (1, 2, 3):
            per_seed[r - 1].append(hist.density(r))
    means, stderrs = [], []
    for series in per_seed:
        mean = sum(series) / n_seeds
        if n_seeds < 2:
            stderr = 0.0
        else:
            var = sum((x - mean) ** 2 for x in series) / (n_seeds - 1)
            stderr = (var / n_seeds) ** 0.5
        means.append(mean)
        stderrs.append(stderr)
    return means, stderrs
