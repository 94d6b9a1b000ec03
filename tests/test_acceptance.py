"""Acceptance gate: every shipped claim at its stated tolerance.

Each check's samples, p values, tolerances and expected values live in
``groupform.verify``; the gate runs the checks exactly as ``groupform
verify --scale full`` does, and ``test_statistic`` runs every row of
``verify.STATISTICS``, so a new statistical check is gated without an edit
here. Each test prints one PASS/FAIL line (run pytest with -s to stream
them). The statistical reproductions take about 35 s in total at two
workers on a 2-core host.
"""

import os

import pytest

from groupform import verify

pytestmark = pytest.mark.acceptance

WORKERS = min(2, os.cpu_count() or 1)


def report(label, result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[acceptance {label}] {status} {result.name}: {result.detail} ({result.seconds:.1f}s)")
    assert result.passed, f"{result.name}: {result.detail}"


class TestAcceptance:
    def test_1_primitive_closed_forms(self):
        report(1, verify.check_primitive_mass_identity())
        report(1, verify.check_primitive_convergence())

    @pytest.mark.parametrize("name", list(verify.STATISTICS))
    def test_statistic(self, name):
        report("statistic", verify.check_statistic(name, WORKERS))

    def test_6_oracle_equivalence(self):
        report(6, verify.check_property("oracle-equivalence-1d"))
        report(6, verify.check_property("oracle-equivalence-2d"))

    def test_7_property_suite(self):
        for name in ("mass-conservation", "translation-equivariance", "reflection-equivariance"):
            report(7, verify.check_property(name))
        report(7, verify.check_worked_examples())
