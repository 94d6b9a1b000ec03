"""Acceptance gate: every shipped claim at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to stream them).
The statistical reproductions take a few minutes in total.
"""

import os

import pytest

from groupform import verify

pytestmark = pytest.mark.acceptance

WORKERS = min(2, os.cpu_count() or 1)


def report(number, result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[acceptance {number}] {status} {result.name}: {result.detail} ({result.seconds:.1f}s)")
    assert result.passed, f"{result.name}: {result.detail}"


class TestAcceptance:
    def test_1_primitive_closed_forms(self):
        report(1, verify.check_primitive_mass_identity(grid_points=100))
        report(
            1,
            verify.check_primitive_convergence(
                m=10_000, n_seeds=100, p_values=(0.1, 0.3, 0.5, 0.7, 0.9), tolerance=0.005
            ),
        )

    def test_2_relaxation_times(self):
        # criterion floor is >= 500 samples; 2000 keeps estimator noise small
        report(2, verify.check_relaxation_time(3000, expected=50.0, tolerance=2.0, samples=2000, workers=WORKERS))
        report(2, verify.check_relaxation_time(4000, expected=52.5, tolerance=2.0, samples=2000, workers=WORKERS))

    def test_3_q2_dominance(self):
        report(
            3,
            verify.check_q2_dominance(
                m=3000,
                samples=1000,
                p_values=(0.70, 0.75, 0.80, 0.85, 0.90, 0.95),
                workers=WORKERS,
            ),
        )

    def test_4_m_insensitivity(self):
        report(4, verify.check_m_insensitivity(p=0.6, samples=2000, tolerance=0.01, workers=WORKERS))

    def test_5_steady_state_prevalence(self):
        report(5, verify.check_steady_prevalence(m=3000, samples=2000, workers=WORKERS))

    def test_6_oracle_equivalence(self):
        report(6, verify.check_oracle_equivalence_1d(n_states=10_000))
        report(6, verify.check_oracle_equivalence_2d(n_states=10_000))

    def test_7_property_suite(self):
        report(7, verify.check_mass_conservation(n_states=10_000))
        report(7, verify.check_translation_equivariance(n_states=10_000))
        report(7, verify.check_reflection_equivariance(n_states=10_000))
        report(7, verify.check_worked_examples())

    def test_8_2d_density_spread(self):
        report(8, verify.check_2d_spread(samples=500, workers=WORKERS))
