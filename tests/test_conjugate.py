"""Tests for conjugate-point detection, classification and the count report."""

import numpy as np
import pytest

from shpulse.conjugate import (
    conjugate_points,
    format_report,
    stability_report,
    trust_horizon,
)
from shpulse.lagrangian import (
    fixture_paths,
    locate_zeros,
    pairing,
    polynomial_family,
    sandwich_plane,
)
from shpulse.model import J4, Params, asymptotic_frames
from shpulse.pulse import newton_solve, seed_from_normal_form
from shpulse.shooting import ShootingSettings, integrate_frame
from shpulse.verify import REFERENCE_PULSES


def _rows14(F):
    """Rows-(1,4) determinant of a frame or of each frame of a stack: the
    unnormalized Plücker coordinate P14, which vanishes exactly where the
    plane meets the sandwich plane span{e2, e3}."""
    F = np.asarray(F)
    return F[..., 0, 0] * F[..., 3, 1] - F[..., 0, 1] * F[..., 3, 0]


class _StubTrajectory:
    """The parts of a trajectory the pulse route reads, for a polynomial family."""

    def __init__(self, jet, num):
        self.jet = jet
        self.xs = np.linspace(-1.0, 1.0, num)
        self.frames = jet(self.xs, 0)[:, 0]


def _points(traj):
    return conjugate_points(traj, trust_horizon(traj.pulse))


def test_scan_finds_the_single_crossing(traj_phi0):
    index, records = _points(traj_phi0)
    assert index == 1
    assert len(records) == 1
    assert records[0].x_star == pytest.approx(1.2400, abs=5e-2)
    assert trust_horizon(traj_phi0.pulse) > traj_phi0.xs[-1]


def test_scan_finds_both_crossings(traj_phipi):
    index, records = _points(traj_phipi)
    assert index == 2
    assert len(records) == 2
    assert records[0].x_star == pytest.approx(-0.6310, abs=5e-2)
    assert records[1].x_star == pytest.approx(17.5887, abs=5e-2)


def test_scan_of_the_stable_pulse_is_empty(traj_snaking):
    assert _points(traj_snaking) == (0, ())
    # double precision cannot hold the translation-mode direction out to 60
    horizon = trust_horizon(traj_snaking.pulse)
    assert 40.0 < horizon < 55.0 < traj_snaking.xs[-1]


def test_refined_zero_is_a_sign_change(traj_phi0):
    (record,) = _points(traj_phi0)[1]
    x_star = record.x_star
    left = _rows14(traj_phi0.frame_at(x_star - 1e-3))
    right = _rows14(traj_phi0.frame_at(x_star + 1e-3))
    assert left * right < 0
    assert abs(_rows14(traj_phi0.frame_at(x_star))) < 1e-6


def test_classification_of_the_phi0_crossing(traj_phi0):
    (rec,) = _points(traj_phi0)[1]
    assert (rec.order, rec.kernel_dim, rec.signature) == (1, 1, 1)
    assert rec.case == "I"
    assert rec.Q1 == rec.value > 1e-6
    assert rec.Q3 is None
    assert rec.simplicity_norm > 1e-3


def test_classification_of_both_phipi_crossings(traj_phipi):
    for rec in _points(traj_phipi)[1]:
        assert (rec.order, rec.kernel_dim, rec.signature) == (1, 1, 1)
        assert rec.case == "I"
        assert rec.simplicity_norm > 1e-3
        assert rec.Q1 > 0


def test_crossing_value_matches_generic_form(traj_phi0):
    """The engine's Q1 agrees with the closed form p2^2 on the unit
    intersection vector p, read off the frame's rows-(1,4) kernel."""
    (rec,) = _points(traj_phi0)[1]
    M = traj_phi0.frame_at(rec.x_star)
    _, s, vt = np.linalg.svd(M[[0, 3], :])
    p = M @ vt[1]
    p /= np.linalg.norm(p)
    assert abs(p[0]) < 1e-7 and abs(p[3]) < 1e-7
    assert rec.simplicity_norm == pytest.approx(s[0], rel=1e-12)
    assert rec.Q1 == pytest.approx(p[1] ** 2, rel=1e-6)


def test_simplicity_is_the_two_norm_of_the_pairing(traj_phi0, traj_phipi):
    """The printed simplicity is the largest sine the crossing form's kernel
    SVD gives, and that is the 2-norm of the frame's pairing with the
    sandwich plane at the crossing."""
    for traj in (traj_phi0, traj_phipi):
        report = stability_report(traj.pulse, traj)
        assert report.conjugate_points
        for rec in report.conjugate_points:
            norm = np.linalg.norm(pairing(traj.frame_at(rec.x_star), sandwich_plane()), 2)
            assert rec.simplicity_norm == pytest.approx(norm, rel=1e-12)


@pytest.mark.parametrize("name", ["phi0", "phipi"])
def test_each_crossing_costs_at_most_ten_frames(monkeypatch, request, name):
    # the zero search starts from the two samples around a crossing and the
    # crossing form reads one jet there; bisection to 1e-10 would take 29
    # partial transports per crossing, the ITP search takes a handful
    pulse = request.getfixturevalue(f"pulse_{name}")
    traj = request.getfixturevalue(f"traj_{name}")
    calls = []
    frame_at = type(traj).frame_at

    def spy(self, x):
        calls.append(x)
        return frame_at(self, x)

    monkeypatch.setattr(type(traj), "frame_at", spy)
    _, records = conjugate_points(traj, trust_horizon(pulse))
    assert len(records) == {"phi0": 1, "phipi": 2}[name]
    assert len(calls) <= 10 * len(records)


def test_pulse_route_labels_a_third_order_crossing_case_two():
    """A crossing whose first two forms vanish is printed as case II with
    its third-order value."""
    _, ell2 = fixture_paths()
    index, (rec,) = conjugate_points(_StubTrajectory(ell2, 1001), np.inf)
    assert index == -1
    assert (rec.case, rec.order, rec.kernel_dim) == ("II", 3, 1)
    assert rec.Q1 == 0.0
    assert rec.Q3 == pytest.approx(-2.0, abs=1e-8)


@pytest.mark.parametrize("num", [1000, 1001])
def test_pulse_route_counts_a_two_dimensional_crossing(num):
    """The fully degenerate k = 2 crossing of the graph of t^3 diag(1, 2)
    over the sandwich plane counts its signature, -2, on the pulse route.

    The rows-(1,4) determinant is 2 t^6 there and never changes sign; on
    1000 samples the crossing lies between two samples and is found only by
    the sign change of the detector's slope across the dip.
    """
    sand = sandwich_plane()
    coeffs = np.zeros((4, 4, 2))
    coeffs[0] = sand
    coeffs[3] = (J4 @ sand) @ np.diag([1.0, 2.0])
    stub = _StubTrajectory(polynomial_family(coeffs), num)
    index, (rec,) = conjugate_points(stub, np.inf)
    assert index == -2
    assert (rec.order, rec.kernel_dim, rec.signature) == (3, 2, -2)
    assert rec.case == "III"
    assert abs(rec.x_star) < 1e-6
    assert rec.simplicity_norm < 1e-12


def test_horizon_before_the_second_sample_is_an_error():
    _, ell2 = fixture_paths()
    with pytest.raises(ValueError, match="trust horizon x = -0.95 leaves fewer"):
        conjugate_points(_StubTrajectory(ell2, 11), -0.95)


def test_asymptotic_plane_misses_the_sandwich_plane():
    for p in (Params(1.6, 0.05), Params(1.6, 0.20)):
        dets = [_rows14(asymptotic_frames(lam, p).unstable_frame)
                for lam in np.linspace(0.0, 1.2, 101)]
        assert min(dets) > 1e-6


def test_asymptotic_obstruction_identity():
    # the determinant can only vanish if cos(t)sin(t/2) = sin(t)cos(t/2),
    # i.e. sin(t/2 - t) = 0 — impossible for t strictly inside (pi/2, pi)
    t = np.linspace(np.pi / 2 + 1e-6, np.pi - 1e-6, 1001)
    obstruction = np.cos(t) * np.sin(t / 2) - np.sin(t) * np.cos(t / 2)
    assert np.all(np.abs(obstruction) > np.sin(np.pi / 4) - 1e-9)
    # so the closed-form frame has rows-(1,4) determinant (P14 before the
    # normalization that detA adds) sin(theta/2) / r^(3/2) > 0 for every
    # mu > 0 and lam >= 0, and the report needs no grid to say so
    for mu in np.geomspace(1e-6, 10.0, 25):
        for lam in np.r_[0.0, np.geomspace(1e-6, 50.0, 41)]:
            data = asymptotic_frames(lam, Params(1.6, mu))
            det = _rows14(data.unstable_frame)
            closed = np.sin(data.theta / 2) / data.r ** 1.5
            assert det > 0
            assert abs(det - closed) <= 1e-15 * closed


def test_report_counts_one_one(pulse_phi0, traj_phi0):
    rep = stability_report(pulse_phi0, trajectory=traj_phi0)
    assert rep.counts == (1, 1)
    assert rep.counts_match
    assert rep.hypothesis_degeneracy_ok
    assert rep.lambda_infinity > 1.0


def test_report_counts_two_two(pulse_phipi, traj_phipi):
    rep = stability_report(pulse_phipi, trajectory=traj_phipi)
    assert rep.counts == (2, 2)
    assert rep.counts_match
    assert all(r.Q1 > 0 or (r.Q3 or 0) > 0 for r in rep.conjugate_points)


def test_report_counts_zero_zero(pulse_snaking, traj_snaking):
    rep = stability_report(pulse_snaking, trajectory=traj_snaking)
    assert rep.counts == (0, 0)
    assert rep.counts_match
    assert rep.conjugate_points == ()
    assert any("trust horizon" in w for w in rep.warnings)


def test_report_warns_of_crossings_below_the_simplicity_threshold(
        pulse_phipi, traj_phipi, monkeypatch):
    """Each crossing whose simplicity is at most the threshold is named in
    one warning; at the published threshold there is none."""
    rep = stability_report(pulse_phipi, trajectory=traj_phipi)
    assert not any("simplicity" in w for w in rep.warnings)
    norms = [r.simplicity_norm for r in rep.conjugate_points]
    threshold = (min(norms) + max(norms)) / 2
    monkeypatch.setattr("shpulse.conjugate.SIMPLICITY_THRESHOLD", threshold)
    rep = stability_report(pulse_phipi, trajectory=traj_phipi)
    weak = [r.x_star for r in rep.conjugate_points if r.simplicity_norm <= threshold]
    assert len(weak) == 1
    assert (f"crossing(s) below the simplicity threshold {threshold:g} at {weak[0]:.4f}"
            in rep.warnings)


def test_every_accepted_crossing_is_positive(pulse_phi0, traj_phi0,
                                             pulse_phipi, traj_phipi):
    for pulse, traj in ((pulse_phi0, traj_phi0), (pulse_phipi, traj_phipi)):
        rep = stability_report(pulse, trajectory=traj)
        for r in rep.conjugate_points:
            lowest = r.Q1 if r.case == "I" else r.Q3
            assert lowest > 0


def test_report_rejects_offaxis_trajectory(pulse_phi0):
    traj = integrate_frame(pulse_phi0, lam=0.5,
                           settings=ShootingSettings(window=(-5.0, 5.0)))
    with pytest.raises(ValueError):
        stability_report(pulse_phi0, trajectory=traj)


def test_report_rejects_trajectory_of_another_pulse(pulse_phi0, traj_snaking):
    with pytest.raises(ValueError, match="another pulse"):
        stability_report(pulse_phi0, trajectory=traj_snaking)


def test_report_window_independence(pulse_phipi):
    wide = integrate_frame(pulse_phipi, lam=0.0,
                           settings=ShootingSettings(window=(-80.0, 80.0)))
    rep = stability_report(pulse_phipi, trajectory=wide)
    assert rep.counts == (2, 2)
    locs = [r.x_star for r in rep.conjugate_points]
    assert locs[0] == pytest.approx(-0.6310, abs=5e-2)
    assert locs[1] == pytest.approx(17.5887, abs=5e-2)


@pytest.mark.parametrize("name, index", [("phi0", 1), ("phipi", 2), ("snaking", 0)])
def test_maslov_index_of_the_clipped_trajectory_is_the_count(request, name, index):
    """The report's count is the Maslov index, and its crossings lie where a
    plain sign-change search of the rows-(1,4) determinant puts them."""
    pulse = request.getfixturevalue(f"pulse_{name}")
    traj = request.getfixturevalue(f"traj_{name}")
    report = stability_report(pulse, traj)
    assert report.counts == (index, index)
    keep = traj.xs <= trust_horizon(pulse)
    zeros, _ = locate_zeros(traj.xs[keep], _rows14(traj.frames[keep]),
                            lambda x: _rows14(traj.frame_at(x)), 1e-10, 0.0)
    assert len(report.conjugate_points) == len(zeros) == index
    for record, x in zip(report.conjugate_points, zeros):
        assert abs(record.x_star - x) < 1e-7


def test_coarse_tail_is_clipped_not_reported():
    """A pulse solved with too few modes must not yield phantom crossings.

    At N = 128 the stable pulse's Fourier tail bottoms out near 3e-6; the
    transported plane detaches from its true orbit around x = 37 and its
    determinant crosses zero there.  The horizon (about x = 20 for that
    floor) has to exclude the artifact.
    """
    pulse = newton_solve(
        seed_from_normal_form(Params(1.6, 0.20), 0.0, scale=3.0, N=128))
    traj = integrate_frame(pulse, lam=0.0)
    detA = traj.plucker[:, 2]
    raw = np.where(np.sign(detA[:-1]) * np.sign(detA[1:]) < 0)[0]
    assert raw.size > 0  # the artifact is really present in the samples
    report = stability_report(pulse, traj)
    assert report.clipped
    assert report.horizon < traj.xs[raw[0]]
    assert report.counts == (0, 0)
    assert report.conjugate_points == ()


def test_horizon_scales_with_tail_floor(pulse_phi0, pulse_snaking):
    assert trust_horizon(pulse_phi0) > 80.0
    assert 40.0 < trust_horizon(pulse_snaking) < 55.0


def test_format_report_mentions_everything(pulse_phi0, traj_phi0):
    rep = stability_report(pulse_phi0, trajectory=traj_phi0)
    text = format_report(rep)
    assert "verdict: 1 unstable eigenvalue(s) vs 1 conjugate point(s) -> MATCH" in text
    assert "0.120898" in text
    assert f"{rep.conjugate_points[0].x_star:.6f}" in text
    assert "case" in text and "simplicity" in text


GOLDEN_REPORTS = {
    "phi0": """\
pulse: phi=0 nu=1.6 mu=0.05 (L_f=100, N=192)

unstable eigenvalues (spectral route):
  +0.120898093

conjugate points (geometric route):
            x*  case            Q1            Q3  simplicity
      1.239897     I      0.939251             -      0.8193

lambda_infinity bound: 1.638558
asymptotic plane off the sandwich plane: yes
potential tail at the window edge: 1.545e-03

verdict: 1 unstable eigenvalue(s) vs 1 conjugate point(s) -> MATCH""",
    "phipi": """\
pulse: phi=3.14159 nu=1.6 mu=0.05 (L_f=100, N=192)

unstable eigenvalues (spectral route):
  +0.005832115
  +0.117893285

conjugate points (geometric route):
            x*  case            Q1            Q3  simplicity
     -0.631220     I      0.333801             -      0.7464
     17.588697     I      0.806582             -      0.8816

lambda_infinity bound: 1.595827
asymptotic plane off the sandwich plane: yes
potential tail at the window edge: 1.586e-03

verdict: 2 unstable eigenvalue(s) vs 2 conjugate point(s) -> MATCH""",
    "snaking": """\
pulse: phi=0 nu=1.6 mu=0.2 (L_f=100, N=256)

unstable eigenvalues (spectral route):
  none

conjugate points (geometric route):
  none

lambda_infinity bound: 1.653322
asymptotic plane off the sandwich plane: yes
potential tail at the window edge: 5.006e-05
warning: scan clipped at the trust horizon x = 46.56 (window extends to 60); \
raise the mode count to push the horizon out

verdict: 0 unstable eigenvalue(s) vs 0 conjugate point(s) -> MATCH""",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_text_is_pinned(name):
    """The text `shpulse conjugate` prints for each reference pulse, byte for byte."""
    ref = REFERENCE_PULSES[name]
    pulse = newton_solve(seed_from_normal_form(
        ref["params"], ref["phi"], scale=ref["scale"], N=ref["N"]))
    report = stability_report(pulse, integrate_frame(pulse))
    assert format_report(report) == GOLDEN_REPORTS[name]
