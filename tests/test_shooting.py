"""Tests for the unstable-plane transport."""

import csv
import io
import math

import numpy as np
import pytest
from scipy.linalg import expm, subspace_angles

from shpulse.conjugate import conjugate_points, trust_horizon
from shpulse.lagrangian import plucker
from shpulse.model import Params, asymptotic_frames, coefficient_matrix
from shpulse.pulse import FourierPulse
from shpulse.shooting import (
    TRANSPORT_NOISE,
    FrameTrajectory,
    ShootingSettings,
    TransportError,
    _step_maps,
    initial_frame,
    integrate_frame,
    sandwich_determinant,
    write_trajectory,
)

P05 = Params(nu=1.6, mu=0.05)


def zero_pulse(p: Params) -> FourierPulse:
    return FourierPulse(params=p, phi=0.0, L_f=100.0, N=8,
                        a=np.zeros(9), residual_norm=0.0)


def test_settings_validation():
    with pytest.raises(ValueError):
        ShootingSettings(window=(3.0, -3.0))
    with pytest.raises(ValueError):
        ShootingSettings(window=(0.0, np.inf))
    with pytest.raises(ValueError):
        ShootingSettings(dx=0.0)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_initial_frame_orthonormal_and_same_plane(lam):
    q = initial_frame(P05, lam)
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-14)
    raw = asymptotic_frames(lam, P05).unstable_frame
    assert subspace_angles(q, raw).max() < 1e-12
    # closed-form basis has positive rows-(1,4) determinant; QR keeps it
    assert sandwich_determinant(q) > 0


def test_sandwich_determinant_examples():
    e = np.eye(4)
    assert sandwich_determinant(e[:, [1, 2]]) == 0.0
    assert sandwich_determinant(e[:, [0, 3]]) == 1.0
    G = np.array([[2.0, 1.0], [0.5, 3.0]])
    F = np.arange(8.0).reshape(4, 2)
    assert sandwich_determinant(F @ G) == pytest.approx(
        sandwich_determinant(F) * np.linalg.det(G), rel=1e-12)
    with pytest.raises(ValueError):
        sandwich_determinant(np.eye(3))


def test_window_validation():
    pulse = zero_pulse(P05)
    with pytest.raises(ValueError):
        integrate_frame(pulse, settings=ShootingSettings(window=(-150.0, 150.0)))
    with pytest.raises(ValueError):
        integrate_frame(pulse, settings=ShootingSettings(window=(0.0, 1.03), dx=0.05))


def test_constant_coefficients_match_matrix_exponential():
    """With no pulse the transport has a closed-form answer."""
    pulse = zero_pulse(P05)
    traj = integrate_frame(pulse, settings=ShootingSettings(window=(-10.0, 10.0)))
    B = coefficient_matrix(-P05.mu, 0.0)
    F0 = initial_frame(P05)
    for s in traj.samples[::20]:
        exact = expm(B * (s.x + 10.0)) @ F0
        assert subspace_angles(s.frame, exact).max() < 1e-8


def test_constant_coefficients_plane_is_invariant():
    """The asymptotic unstable plane is invariant: detA never moves."""
    pulse = zero_pulse(Params(nu=1.6, mu=0.2))
    traj = integrate_frame(pulse, settings=ShootingSettings(window=(-10.0, 10.0)))
    assert np.max(np.abs(traj.deta - traj.deta[0])) < 1e-10


def test_omega_drift_stays_small(traj_phi0, traj_phipi, traj_snaking):
    for traj in (traj_phi0, traj_phipi, traj_snaking):
        drift = max(s.omega_drift for s in traj.samples)
        assert drift < 1e-8


def test_plucker_norm_and_quadric_along_trajectory(traj_phi0):
    for s in traj_phi0.samples[::10]:
        p = s.plucker
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)
        quadric = p[0] * p[5] - p[1] * p[4] + p[2] * p[3]
        assert abs(quadric) < 1e-12


def test_deta_is_the_p14_coordinate(traj_phipi):
    p14 = np.array([s.plucker[2] for s in traj_phipi.samples])
    assert np.allclose(traj_phipi.deta, p14, atol=1e-12)


def test_step_size_is_transparent(pulse_phi0):
    """Finer steps and coarser sampling give the same plane and crossing."""
    runs = {dx: integrate_frame(pulse_phi0,
                                settings=ShootingSettings(window=(-20.0, 20.0), dx=dx))
            for dx in (0.025, 0.05, 0.1)}
    base = runs[0.1]
    for dx, traj in runs.items():
        stride = int(round(0.1 / dx))
        assert np.array_equal(traj.xs[::stride], base.xs)
        assert np.max(np.abs(traj.deta[::stride] - base.deta)) < 1e-7
    points = [conjugate_points(traj, trust_horizon(pulse_phi0)) for traj in runs.values()]
    assert all(index == 1 and len(records) == 1 for index, records in points)
    crossings = [records[0].x_star for _, records in points]
    assert max(crossings) - min(crossings) < 1e-6


def test_step_halving_accuracy(pulse_phi0, traj_phi0):
    """The default step agrees with half the step to 1e-10 up to the core.

    This is the transport's noise level behind ``TRANSPORT_NOISE`` and the
    trust horizon.
    """
    fine = integrate_frame(pulse_phi0, settings=ShootingSettings(dx=0.025))
    upstream = traj_phi0.xs <= 0.0
    err = np.abs(fine.plucker[::2] - traj_phi0.plucker)[upstream]
    assert err.max() < TRANSPORT_NOISE


def test_coarse_sampling_takes_sub_steps(pulse_phi0, traj_phi0):
    """A sample spacing above the step cap is covered by equal sub-steps:
    dx = 0.1 is the default transport sampled at every other step."""
    coarse = integrate_frame(pulse_phi0, settings=ShootingSettings(dx=0.1))
    assert len(coarse.samples) == 1201
    assert np.array_equal(coarse.frames, traj_phi0.frames[::2])


def _gram_schmidt(M):
    a, b = M[:, 0], M[:, 1]
    a = a / math.sqrt(a @ a)
    b = b - (a @ b) * a
    return np.column_stack((a, b / math.sqrt(b @ b)))


@pytest.mark.parametrize("dx, every", [(0.05, 1), (0.1, 2)])
def test_frames_are_the_plain_step_loop_bitwise(pulse_phi0, dx, every):
    """The in-place frame loop stores the bits of a textbook loop: one
    ``Phi @ F`` and a fresh Gram-Schmidt per step, every ``every``-th frame
    kept (dx = 0.1 takes two sub-steps per sample)."""
    settings = ShootingSettings(dx=dx)
    a, b = settings.window
    h = dx / every
    nsteps = int(round((b - a) / dx)) * every
    F = _gram_schmidt(initial_frame(pulse_phi0.params))
    kept = [F]
    for k, Phi in enumerate(_step_maps(pulse_phi0, 0.0, a + h * np.arange(nsteps), h),
                            start=1):
        F = _gram_schmidt(Phi @ F)
        if k % every == 0:
            kept.append(F)
    assert np.array_equal(integrate_frame(pulse_phi0, settings=settings).frames,
                          np.stack(kept))


@pytest.mark.parametrize("coefficient, what", [(1e200, "potential"),
                                               (1e20, "frame")])
def test_overflow_raises_transport_error(coefficient, what):
    """An overflowing potential, or a finite one whose step maps overflow,
    stops the transport instead of yielding a NaN trajectory."""
    a = np.zeros(9)
    a[3] = coefficient
    pulse = FourierPulse(params=P05, phi=0.0, L_f=100.0, N=8, a=a, residual_norm=0.0)
    with pytest.raises(TransportError, match=f"{what}.* is not finite"):
        integrate_frame(pulse, settings=ShootingSettings(window=(-5.0, 5.0)))


def test_frame_at_anchor_and_midpoint(traj_phi0):
    s = traj_phi0.samples[100]
    assert np.array_equal(traj_phi0.frame_at(s.x), s.frame)
    mid = s.x + 0.025
    F = traj_phi0.frame_at(mid)
    # consistency with an independent integration straddling the midpoint
    G = traj_phi0.frame_at(traj_phi0.samples[101].x)
    assert np.array_equal(G, traj_phi0.samples[101].frame)
    assert subspace_angles(F, _advance(traj_phi0, s, 0.025)).max() < 1e-9


def _advance(traj, sample, h):
    from scipy.integrate import solve_ivp

    from shpulse.pulse import potential

    def rhs(x, y):
        B = coefficient_matrix(potential(traj.pulse, x), traj.lam)
        return (B @ y.reshape(4, 2)).ravel()

    sol = solve_ivp(rhs, (sample.x, sample.x + h), sample.frame.ravel(),
                    rtol=1e-12, atol=1e-12)
    return sol.y[:, -1].reshape(4, 2)


def test_frame_at_rejects_points_outside_window(traj_phi0):
    with pytest.raises(ValueError):
        traj_phi0.frame_at(61.0)
    with pytest.raises(ValueError):
        traj_phi0.frame_at(-75.0)


def test_tail_oscillation_has_the_predicted_period(traj_phi0):
    """Far from the pulse the detA samples oscillate with period pi/Im(gamma)."""
    xs, d = traj_phi0.xs, traj_phi0.deta
    m = (xs >= 25.0) & (xs <= 55.0)
    sig = d[m] - d[m].mean()
    ac = np.correlate(sig, sig, mode="full")[sig.size - 1:]
    # tail solutions spiral at rate Im gamma1; a plane returns after a half turn
    T = np.pi / asymptotic_frames(0.0, P05).gamma1.imag
    assert T == pytest.approx(3.1223749720795805, abs=1e-12)
    dx = traj_phi0.settings.dx
    lags = np.arange(ac.size) * dx
    search = (lags > 0.5 * T) & (lags < 1.5 * T)
    peak = lags[search][np.argmax(ac[search])]
    assert abs(peak - T) / T < 0.02


def test_batched_plane_quantities_match_per_frame_calls(traj_phi0):
    frames = traj_phi0.frames
    P = plucker(frames)
    d = sandwich_determinant(frames)
    assert P.shape == (len(frames), 6) and d.shape == (len(frames),)
    assert np.array_equal(P, np.array([plucker(F) for F in frames]))
    assert np.array_equal(d, np.array([sandwich_determinant(F) for F in frames]))
    assert np.array_equal(P, traj_phi0.plucker)
    assert np.array_equal(d, traj_phi0.deta)
    bad = frames[:5].copy()
    bad[3, :, 1] = 2.0 * bad[3, :, 0]
    with pytest.raises(ValueError, match="rank-deficient"):
        plucker(bad)


def test_sandwich_determinant_is_the_rows_14_formula_bitwise(traj_phi0, traj_phipi,
                                                           traj_snaking):
    # the pairing with the sandwich plane selects and negates rows exactly,
    # so the detector keeps the bits of the rows-(1,4) determinant
    for traj in (traj_phi0, traj_phipi, traj_snaking):
        M = traj.frames
        rows14 = M[..., 0, 0] * M[..., 3, 1] - M[..., 0, 1] * M[..., 3, 0]
        assert sandwich_determinant(M).tobytes() == rows14.tobytes()
        assert traj.deta.tobytes() == rows14.tobytes()


def test_anchor_frames_are_read_only(traj_phi0):
    F = traj_phi0.frame_at(traj_phi0.xs[100])
    assert type(F) is np.ndarray and F.shape == (4, 2)
    assert not F.flags.writeable
    with pytest.raises(ValueError):
        F[0, 0] = 1.0


def test_write_trajectory_roundtrip(tmp_path, traj_phi0):
    out = tmp_path / "traj.csv"
    write_trajectory(traj_phi0, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,detA,P12,P13,P14,P23,P24,P34,omega_drift"
    assert len(lines) == len(traj_phi0.samples) + 1
    first = lines[1].split(",")
    assert float(first[0]) == traj_phi0.samples[0].x
    assert float(first[1]) == traj_phi0.samples[0].deta

    buf = io.StringIO()
    write_trajectory(traj_phi0, buf)
    assert buf.getvalue().splitlines()[0] == lines[0]


def test_write_trajectory_is_the_csv_module_bytewise(tmp_path, traj_phi0):
    """The one-join writer gives the bytes of ``csv.writer`` with one
    ``repr`` per value, to a text stream and to a file."""
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["x", "detA", "P12", "P13", "P14", "P23", "P24", "P34",
                     "omega_drift"])
    rows = np.column_stack([traj_phi0.xs, traj_phi0.deta, traj_phi0.plucker,
                            traj_phi0.omega_drift])
    writer.writerows([repr(v) for v in row] for row in rows.tolist())
    buf = io.StringIO()
    write_trajectory(traj_phi0, buf)
    assert buf.getvalue() == expected.getvalue()
    out = tmp_path / "traj.csv"
    write_trajectory(traj_phi0, out)
    assert out.read_bytes() == expected.getvalue().encode()


def test_integrate_is_deterministic(pulse_phi0):
    st = ShootingSettings(window=(-5.0, 5.0))
    a = integrate_frame(pulse_phi0, settings=st)
    b = integrate_frame(pulse_phi0, settings=st)
    assert np.array_equal(a.deta, b.deta)
