from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from groupform import analytic_densities, mix_seed, simulate_primitive
from groupform.primitive import replica_densities

# Chance that an odd cell ends up holding 1, 2 or 3 of the variables: the
# cell always keeps its own, and each of its two even neighbors arrives
# independently with probability 1/2.
RECEIVE_WEIGHTS = (0.25, 0.5, 0.25)


def binomial_mixture_density(r, p):
    """Density of r-element groups via the binomial mixture (no closed form).

    Half the cells are odd; an odd cell holding n variables contains an
    r-group with binomial probability C(n, r) p^r (1-p)^(n-r).
    """
    total = 0.0
    for n, s in zip((1, 2, 3), RECEIVE_WEIGHTS):
        if r <= n:
            total += s * comb(n, r) * p**r * (1.0 - p) ** (n - r)
    return total / 2.0


class TestAnalyticDensities:
    def test_empty_system(self):
        assert analytic_densities(0.0) == (0.0, 0.0, 0.0)

    def test_full_system(self):
        assert analytic_densities(1.0) == (1 / 8, 2 / 8, 1 / 8)

    def test_half_density(self):
        assert analytic_densities(0.5) == (0.234375, 0.109375, 0.015625)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
    def test_out_of_range_rejected(self, p):
        with pytest.raises(ValueError):
            analytic_densities(p)

    def test_mass_identity_on_grid(self):
        worst = 0.0
        for i in range(101):
            q1, q2, q3 = analytic_densities(i / 100)
            worst = max(worst, abs(q1 + 2.0 * q2 + 3.0 * q3 - i / 100))
        assert worst <= 1e-15

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_densities_non_negative(self, p):
        q1, q2, q3 = analytic_densities(p)
        assert all(q >= 0.0 for q in (q1, q2, q3))
        assert abs(q1 + 2.0 * q2 + 3.0 * q3 - p) <= 1e-14

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_matches_binomial_mixture(self, p):
        # independent derivation: weight the binomial occupancy laws by the
        # receive probabilities instead of using the expanded polynomials
        for r, q in zip((1, 2, 3), analytic_densities(p)):
            assert abs(binomial_mixture_density(r, p) - q) <= 1e-12


class TestReceiveProbabilities:
    def test_oversized_groups_impossible(self):
        assert binomial_mixture_density(4, 0.9) == 0.0


class TestSimulatePrimitive:
    def test_no_mass(self):
        hist = simulate_primitive(100, 0.0, seed=7)
        assert hist.counts == {}
        assert sum(r * c for r, c in hist.counts.items()) == 0

    def test_full_density_smallest_torus(self):
        hist = simulate_primitive(4, 1.0, seed=7)
        assert sum(r * c for r, c in hist.counts.items()) == 4
        assert set(hist.counts) <= {1, 2, 3}

    @pytest.mark.parametrize("m", [5, 3, 99])
    def test_odd_size_rejected(self, m):
        with pytest.raises(ValueError):
            simulate_primitive(m, 0.5, seed=0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            simulate_primitive(2, 0.5, seed=0)

    def test_p_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            simulate_primitive(10, 1.5, seed=0)

    def test_deterministic(self):
        assert simulate_primitive(500, 0.4, seed=42).counts == simulate_primitive(
            500, 0.4, seed=42
        ).counts

    @given(st.integers(0, 2**63 - 1), st.floats(0.0, 1.0, allow_nan=False))
    def test_mass_conserved_and_sizes_bounded(self, seed, p):
        m = 64
        hist = simulate_primitive(m, p, seed)
        # the Bernoulli field is the first consumption of the seeded stream
        drawn = int((np.random.default_rng(seed).random(m) < p).sum())
        assert sum(r * c for r, c in hist.counts.items()) == drawn
        assert all(1 <= r <= 3 for r in hist.counts)
        assert hist.total_cells == m

    def test_converges_to_closed_forms(self):
        # empirical means stay within 4 standard errors of the closed forms
        m, n_seeds = 10_000, 100
        for grid_index, p in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
            samples = {1: [], 2: [], 3: []}
            for j in range(n_seeds):
                hist = simulate_primitive(m, p, mix_seed(815, grid_index, j))
                for r in samples:
                    samples[r].append(hist.density(r))
            expected = analytic_densities(p)
            for r, series in samples.items():
                mean = np.mean(series)
                stderr = np.std(series, ddof=1) / np.sqrt(n_seeds)
                assert abs(mean - expected[r - 1]) <= 4 * stderr, (
                    f"r={r} p={p}: {mean} vs {expected[r - 1]} (se {stderr})"
                )


class TestReplicaDensities:
    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_no_replicas_rejected(self, n_seeds):
        with pytest.raises(ValueError, match="n_seeds"):
            replica_densities(10, 0.5, 0, n_seeds, master_seed=0)

    def test_master_seed_outside_64_bits_rejected(self):
        with pytest.raises(ValueError, match="master_seed"):
            replica_densities(10, 0.5, 0, 3, -1)
