"""Acceptance gate: one test, and one printed PASS/FAIL line, per criterion.

The eight criteria below are the package's definition of done.  Each test
delegates to the corresponding check in :mod:`shpulse.verify` (the same
code ``shpulse verify`` runs), prints its single result line, and fails
with that line as the message.  The three reference pulses are solved and
transported fresh at module scope so the timing criterion measures the
real end-to-end pipeline, not warm caches.

Pinned tolerances
-----------------

counts            exact integers, < 120 s per pulse
eigenvalues       |Δλ| < 5e-3 against 0.1209 / {0.0058, 0.1179}
locations         |Δx*| < 5e-2 against 1.2400 / {−0.6310, 17.5887}
simplicity        simplicity_norm > 1e-3, no two-dimensional crossings
fixtures          1e-8 (Q1 = −4, slope −4/5, Q3 = −2, branch −t³/3,
                  Maslov −1 twice, and −2, −2, 0, −2 for the k = 2
                  crossings of tᵏ·diag(1, 2), k = 3, 5, 6, 7, each at
                  order k with signature −2; −2 for t·diag(1, 2) on 1000
                  points, one crossing at order 1 with signature −2;
                  +1 and −1 for t²·diag(1, 2) on [−1, 0] and [0, 1],
                  501 points each, adding up to its index 0 on [−1, 1])
invariants        drift 1e-8, Plücker 1e-12, Jacobian-FD 1e-6,
                  convolution 1e-13, form invariance 1e-7 (also under a
                  complement rescaled by 1e11), pulse Q1 = a² 1e-9
oracle            subspace angle 1e-8 over a window of 20
robustness        counts equal, location drift < 1e-4
"""

from __future__ import annotations

import pytest

from shpulse import verify


@pytest.fixture(scope="module")
def bundles():
    return verify.build_bundles()


def _gate(result: verify.CheckResult) -> None:
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_table_counts(bundles):
    _gate(verify.check_counts(bundles))


def test_criterion_2_eigenvalue_values(bundles):
    _gate(verify.check_eigenvalues(bundles))


def test_criterion_3_conjugate_point_locations(bundles):
    _gate(verify.check_conjugate_locations(bundles))


def test_criterion_4_simplicity(bundles):
    _gate(verify.check_simplicity(bundles))


def test_criterion_5_worked_examples():
    _gate(verify.check_fixtures())


def test_criterion_6_invariant_suite(bundles):
    _gate(verify.check_invariants(bundles))


def test_criterion_7_constant_coefficient_oracle():
    _gate(verify.check_constant_coefficient_oracle())


def test_criterion_8_robustness(bundles):
    _gate(verify.check_robustness(bundles))
