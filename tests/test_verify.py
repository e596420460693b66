"""The FAIL lines of the acceptance checks, on bundles with a changed count."""

from dataclasses import replace

import pytest

from shpulse import verify
from shpulse.conjugate import stability_report


@pytest.fixture(scope="module")
def phi0_bundles(pulse_phi0, traj_phi0):
    """The phi0 bundle alone: every check below fails on it first."""
    report = stability_report(pulse_phi0, trajectory=traj_phi0)
    return {"phi0": verify.PulseBundle(name="phi0", pulse=pulse_phi0, trajectory=traj_phi0,
                                       report=report, elapsed=0.0)}


def test_published_values_fail_on_a_count_mismatch(phi0_bundles):
    b = phi0_bundles["phi0"]
    report = replace(b.report, unstable_eigenvalues=(), conjugate_points=())
    bundles = {"phi0": replace(b, report=report)}
    assert verify.check_eigenvalues(bundles).line() == (
        "FAIL  eigenvalues: phi0: expected 1 unstable, got 0")
    assert verify.check_conjugate_locations(bundles).line() == (
        "FAIL  conjugate-locations: phi0: expected [1.24], got []")


def test_robustness_fails_on_an_index_change(phi0_bundles, monkeypatch):
    monkeypatch.setattr(verify, "conjugate_points", lambda traj, horizon: (3, []))
    assert verify.check_robustness(phi0_bundles).line() == (
        "FAIL  robustness: phi0 dx=0.025: index 1 -> 3, crossings 1 -> 0")
