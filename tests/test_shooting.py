"""Tests for the unstable-plane transport."""

import csv
import io
import math

import numpy as np
import pytest
from scipy.linalg import expm, subspace_angles

from shpulse.conjugate import conjugate_points, trust_horizon
from shpulse.lagrangian import plucker, sandwich_plane
from shpulse.model import J4, Params, asymptotic_frames, coefficient_matrix
from shpulse.pulse import FourierPulse
from shpulse.shooting import (
    TRANSPORT_NOISE,
    FrameTrajectory,
    ShootingSettings,
    TransportError,
    _expm,
    _generators,
    _step_maps,
    initial_frame,
    integrate_frame,
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
    # the closed-form basis has positive P12 and P14; Gram-Schmidt with
    # positive diagonal keeps its orientation
    P = plucker(q)
    assert np.allclose(P, plucker(raw), rtol=0, atol=1e-14)
    assert P[0] > 0 and P[2] > 0


def test_p14_detector_examples():
    # against the sandwich plane the Maslov engine's Plücker detector
    # vector is exactly e_P14, so its detector is P14 to the bit
    assert np.array_equal(plucker(J4.T @ sandwich_plane()), [0, 0, 1, 0, 0, 0])
    e = np.eye(4)
    assert plucker(e[:, [1, 2]])[2] == 0.0
    assert plucker(e[:, [0, 3]])[2] == 1.0
    # P14 is the rows-(1,4) determinant over the Plücker norm, and a change
    # of basis only flips its sign with the sign of its determinant
    F = np.arange(8.0).reshape(4, 2)
    rows14 = F[0, 0] * F[3, 1] - F[0, 1] * F[3, 0]
    P = plucker(F)
    assert P[2] == pytest.approx(rows14 / np.linalg.norm(
        [F[i, 0] * F[j, 1] - F[i, 1] * F[j, 0] for i, j in
         ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]), rel=1e-15)
    for G in ([[2.0, 1.0], [0.5, 3.0]], [[1.0, 2.0], [3.0, 0.5]]):
        assert plucker(F @ G)[2] == pytest.approx(np.sign(np.linalg.det(G)) * P[2],
                                                  rel=1e-14)
    with pytest.raises(ValueError):
        plucker(np.eye(3))
    with pytest.raises(ValueError, match="finite"):
        plucker(np.full((4, 2), np.nan))


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
    assert np.array_equal(traj_phipi.deta, p14)


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


def _default_generators(pulse):
    (a, b), h = ShootingSettings().window, ShootingSettings().dx
    return _generators(pulse, 0.0, a + h * np.arange(round((b - a) / h)), h)


@pytest.mark.parametrize("name", ["phi0", "phipi", "snaking"])
def test_expm_matches_scipy_on_the_transport_generators(request, name):
    """On the default steps of a reference pulse (1-norms <= 0.18, so no
    squaring) the Taylor exponential is scipy's to rounding, and each map
    is symplectic to rounding."""
    omega = _default_generators(request.getfixturevalue(f"pulse_{name}"))
    M = _expm(omega)
    assert M.shape == omega.shape
    assert np.abs(M - expm(omega)).max() <= 4e-16
    assert np.abs(np.swapaxes(M, 1, 2) @ J4 @ M - J4).max() <= 1e-14


def test_expm_matches_scipy_with_squaring():
    """Hamiltonian matrices J S with 1-norms from 1e-3 to 50 (up to eight
    squarings), one at a time and as one stack squared for its largest norm.

    Two families whose exponential scipy's Pade reference itself gets to
    ~1e-14: S positive definite (an imaginary spectrum), and
    S = [[0, D], [D, 0]] with D diagonal, so J S = diag(D, -D) has a real
    eigenvalue equal to its 1-norm and the Taylor remainder is as large as
    its bound.  (For a general indefinite S scipy's own error reaches 1e-12.)
    """
    rng = np.random.default_rng(0)
    norms = np.logspace(-3, math.log10(50.0), 40)
    A = rng.standard_normal((40, 4, 4))
    elliptic = J4 @ (A @ np.swapaxes(A, 1, 2))
    elliptic *= (norms / np.abs(elliptic).sum(axis=1).max(axis=1))[:, None, None]
    hyperbolic = np.zeros((40, 4, 4))
    hyperbolic[:, [0, 2], [2, 0]] = norms[:, None]
    hyperbolic[:, [1, 3], [3, 1]] = (norms * rng.uniform(-1.0, 1.0, 40))[:, None]
    hyperbolic = J4 @ hyperbolic
    for X in (elliptic, hyperbolic):
        E = expm(X)
        scale = np.abs(E).max(axis=(1, 2))
        one_by_one = np.array([np.abs(_expm(x) - e).max() for x, e in zip(X, E)])
        assert (one_by_one / scale).max() <= 1e-13
        assert (np.abs(_expm(X) - E).max(axis=(1, 2)) / scale).max() <= 1e-13
        # any leading axes are batch axes
        assert np.array_equal(_expm(X.reshape(8, 5, 4, 4)),
                              _expm(X).reshape(8, 5, 4, 4))


@pytest.mark.parametrize("name", ["phi0", "phipi", "snaking"])
def test_transport_is_the_scipy_expm_loop_upstream(request, name):
    """Up to the core (x <= 0) the transported frames are those of a plain
    step loop on scipy's exponential of the same generators, to 1e-13."""
    pulse = request.getfixturevalue(f"pulse_{name}")
    traj = request.getfixturevalue(f"traj_{name}")
    upstream = traj.xs <= 0.0
    F = _gram_schmidt(initial_frame(pulse.params))
    kept = [F]
    for Phi in expm(_default_generators(pulse)[:upstream.sum() - 1]):
        F = _gram_schmidt(Phi @ F)
        kept.append(F)
    assert np.abs(traj.frames[upstream] - np.stack(kept)).max() <= 1e-13


@pytest.mark.parametrize("coefficient, what", [(1e200, "potential"),
                                               (1e100, "Magnus generator"),
                                               (1e20, "frame")])
def test_overflow_raises_transport_error(coefficient, what):
    """An overflowing potential, a finite one whose Magnus generators
    overflow, or finite generators whose step maps overflow, stop the
    transport instead of yielding a NaN trajectory."""
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
    # nothing evaluates the family past the samples, so there is no overhang
    with pytest.raises(ValueError, match="outside the integration window"):
        traj_phi0.frame_at(60.25)
    assert np.array_equal(traj_phi0.frame_at(60.0), traj_phi0.frames[-1])


@pytest.mark.parametrize("name", ["phi0", "phipi", "snaking"])
def test_jet_sums_to_the_transported_plane(request, name):
    """The Taylor sum of ``jet(x, 9)`` spans the plane ``frame_at`` transports
    to ``x + h``, on and between the samples."""
    traj = request.getfixturevalue(f"traj_{name}")
    worst = 0.0
    for x in (-30.0, -0.63, 0.31, 1.24, 17.58, 40.02):
        F = traj.jet(x, 9)
        assert F.shape == (10, 4, 2)
        assert np.array_equal(F[0], traj.frame_at(x))
        for h in (0.05, -0.05):
            taylor = np.tensordot(h ** np.arange(10), F, axes=1)
            worst = max(worst, subspace_angles(taylor, traj.frame_at(x + h)).max())
    assert worst <= 1e-11


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
    assert P.shape == (len(frames), 6) and traj_phi0.deta.shape == (len(frames),)
    assert np.array_equal(P, np.array([plucker(F) for F in frames]))
    assert np.array_equal(P, traj_phi0.plucker)
    bad = frames[:5].copy()
    bad[3, :, 1] = 2.0 * bad[3, :, 0]
    with pytest.raises(ValueError, match="rank-deficient"):
        plucker(bad)


def test_deta_is_the_plucker_p14_column_bitwise(traj_phi0, traj_phipi, traj_snaking):
    for traj in (traj_phi0, traj_phipi, traj_snaking):
        assert traj.deta.tobytes() == traj.plucker[:, 2].tobytes()


def test_csv_deta_column_has_the_p14_bytes(traj_phi0, traj_phipi, traj_snaking):
    for traj in (traj_phi0, traj_phipi, traj_snaking):
        buf = io.StringIO()
        write_trajectory(traj, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()]
        assert rows[0][1] == "detA" and rows[0][4] == "P14"
        assert len(rows) == len(traj.xs) + 1
        assert all(row[1] == row[4] for row in rows[1:])


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
