"""Acceptance gate: every shipped claim at its stated tolerance.

Each check's samples, p values, tolerances and expected values live in
``groupform.verify``; the gate runs the checks exactly as ``groupform
verify --scale full`` does. Each test prints one PASS/FAIL line (run
pytest with -s to stream them). The statistical reproductions take a few
minutes in total.
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
        report(1, verify.check_primitive_mass_identity())
        report(1, verify.check_primitive_convergence())

    def test_2_relaxation_times(self):
        for m in verify.RELAXATION_TIMES:
            report(2, verify.check_relaxation_time(m, WORKERS))

    def test_3_q2_dominance(self):
        report(3, verify.check_q2_dominance(workers=WORKERS))

    def test_4_m_insensitivity(self):
        report(4, verify.check_m_insensitivity(WORKERS))

    def test_5_steady_state_prevalence(self):
        report(5, verify.check_steady_prevalence(WORKERS))

    def test_6_oracle_equivalence(self):
        report(6, verify.check_property("oracle-equivalence-1d"))
        report(6, verify.check_property("oracle-equivalence-2d"))

    def test_7_property_suite(self):
        for name in ("mass-conservation", "translation-equivariance", "reflection-equivariance"):
            report(7, verify.check_property(name))
        report(7, verify.check_worked_examples())

    def test_8_2d_density_spread(self):
        report(8, verify.check_2d_spread(WORKERS))
