"""Tests for the unstable-plane transport."""

import csv
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm, subspace_angles

import shpulse.pulse as sp
from shpulse import lagrangian, shooting
from shpulse.conjugate import conjugate_points, trust_horizon
from shpulse.lagrangian import plucker, sandwich_plane
from shpulse.model import J4, Params, asymptotic_frames, coefficient_matrix, nonlinearity_deriv
from shpulse.pulse import FourierPulse
from shpulse.shooting import (
    FrameTrajectory,
    ShootingSettings,
    TransportError,
    _degree,
    _step_maps,
    _transport,
    initial_frame,
    integrate_frame,
    write_trajectory,
)

P05 = Params(nu=1.6, mu=0.05)


def zero_pulse(p: Params) -> FourierPulse:
    return FourierPulse(params=p, phi=0.0, L_f=100.0, a=np.zeros(9))


def test_settings_validation():
    with pytest.raises(ValueError):
        ShootingSettings(window=(3.0, -3.0))
    with pytest.raises(ValueError):
        ShootingSettings(window=(0.0, np.inf))
    with pytest.raises(ValueError):
        ShootingSettings(dx=0.0)
    # a window within rounding of zero steps holds none
    with pytest.raises(ValueError, match=re.escape("window [-1e-11, 1e-11] holds no step "
                                                   "of dx = 0.05")):
        ShootingSettings(window=(-1e-11, 1e-11))
    # a step count that overflows to infinity has no integer to round to
    with pytest.raises(ValueError, match=re.escape("window [-1e+308, 1e+308] holds more "
                                                   "steps of dx = 0.05 than a float counts")):
        ShootingSettings(window=(-1e308, 1e308))
    with pytest.raises(ValueError, match="than a float counts"):
        ShootingSettings(dx=1e-320)
    # a spacing the sub-step rule gives no step cannot be transported
    with pytest.raises(ValueError, match=re.escape("dx = 1e-12 is too fine for the "
                                                   "transport to step")):
        ShootingSettings(dx=1e-12)
    assert ShootingSettings(window=(0.0, 0.05)).window == (0.0, 0.05)


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
    detA = traj.plucker[:, 2]
    assert np.max(np.abs(detA - detA[0])) < 1e-10


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


def test_step_size_is_transparent(pulse_phi0):
    """Finer steps and coarser sampling give the same plane and crossing."""
    runs = {dx: integrate_frame(pulse_phi0,
                                settings=ShootingSettings(window=(-20.0, 20.0), dx=dx))
            for dx in (0.025, 0.05, 0.1)}
    base = runs[0.1]
    for dx, traj in runs.items():
        stride = int(round(0.1 / dx))
        assert np.array_equal(traj.xs[::stride], base.xs)
        assert np.max(np.abs(traj.plucker[::stride, 2] - base.plucker[:, 2])) < 1e-7
    points = [conjugate_points(traj, trust_horizon(pulse_phi0)) for traj in runs.values()]
    assert all(index == 1 and len(records) == 1 for index, records in points)
    crossings = [records[0].x_star for _, records in points]
    assert max(crossings) - min(crossings) < 1e-6


@pytest.mark.parametrize("name", ["phi0", "phipi", "snaking"])
def test_step_halving_accuracy(request, name):
    """The default step agrees with half the step to 1e-12 up to the core:
    the series' truncation is below rounding, so only rounding is left
    (measured <= 7.4e-15), far under the ``TRANSPORT_NOISE`` the trust
    horizon assumes."""
    pulse = request.getfixturevalue(f"pulse_{name}")
    traj = request.getfixturevalue(f"traj_{name}")
    fine = integrate_frame(pulse, settings=ShootingSettings(dx=0.025))
    upstream = traj.xs <= 0.0
    err = np.abs(fine.plucker[::2] - traj.plucker)[upstream]
    assert err.max() < 1e-12


def test_coarse_sampling_takes_sub_steps(pulse_phi0, traj_phi0):
    """A sample spacing above the step cap is covered by equal sub-steps:
    dx = 0.1 is the default transport sampled at every other step."""
    coarse = integrate_frame(pulse_phi0, settings=ShootingSettings(dx=0.1))
    assert len(coarse.samples) == 1201
    assert np.array_equal(coarse.frames, traj_phi0.frames[::2])


def test_coarse_frame_at_keeps_the_transport_tables(pulse_phi0):
    """Between the samples of dx = 0.2, ``frame_at`` expands the nearest
    stored step, from the potential's jet at its one point.  Such a
    short grid shares the series' zero-offset table, so 40 calls add at most
    that table to the cache, and the next default transport finds its own
    tables there."""
    traj = integrate_frame(pulse_phi0, settings=ShootingSettings(dx=0.2))
    integrate_frame(pulse_phi0)
    before = sp._offsets.cache_info().misses
    for k in range(40):
        traj.frame_at(traj.xs[100 + k] + 0.06 + 0.001 * k)
    after = sp._offsets.cache_info().misses
    assert after - before <= 1
    integrate_frame(pulse_phi0)
    assert sp._offsets.cache_info().misses == after


def _gram_schmidt(M):
    a, b = M[:, 0], M[:, 1]
    a = a / math.sqrt(a @ a)
    b = b - (a @ b) * a
    return np.column_stack((a, b / math.sqrt(b @ b)))


def _step_loop(pulse, x0, h, nsteps, F):
    """The textbook transport: one ``Phi @ F`` and a fresh Gram-Schmidt per
    step, every frame kept."""
    F = _gram_schmidt(F)
    kept = [F]
    for Phi in _step_maps(pulse, 0.0, x0, h, nsteps):
        F = _gram_schmidt(Phi @ F)
        kept.append(F)
    return np.stack(kept)


def _assert_orthonormal(frames):
    gram = np.swapaxes(frames, -1, -2) @ frames
    assert np.abs(gram - np.eye(2)).max() <= 1e-14


@pytest.mark.parametrize("name", ["phi0", "phipi", "snaking"])
def test_blocked_transport_is_the_step_loop_plane(request, name):
    """The blocked transport spans the planes of the textbook step loop on
    the same maps: unit Plücker coordinates within 1e-13 up to the core
    (x <= 0), every stored frame orthonormal, and every frame the
    Gram-Schmidt of the step map applied to the frame before it (upper
    triangular with a positive diagonal, so the columns keep their
    orientation)."""
    pulse = request.getfixturevalue(f"pulse_{name}")
    traj = request.getfixturevalue(f"traj_{name}")
    a, h = traj.xs[0], traj.settings.dx
    nsteps = len(traj.xs) - 1
    loop = _step_loop(pulse, a, h, nsteps, initial_frame(pulse.params))
    upstream = traj.xs <= 0.0
    assert np.abs(traj.plucker[upstream] - plucker(loop[upstream])).max() <= 1e-13
    frames = traj.frames
    _assert_orthonormal(frames)
    maps = _step_maps(pulse, 0.0, a, h, nsteps)
    R = np.swapaxes(frames[1:], 1, 2) @ maps @ frames[:-1]
    assert np.all(R[:, 0, 0] > 0) and np.all(R[:, 1, 1] > 0)
    assert np.abs(R[:, 1, 0]).max() <= 1e-13 * np.abs(R).max()


@pytest.mark.parametrize("nsteps, every", [(7, 1), (7, 3), (2400, 2), (2401, 1)])
def test_blocked_transport_on_any_step_count(pulse_phi0, nsteps, every):
    """Step counts with a short last block (7 in blocks of 3, 2400 in blocks
    of 49) and without one (2401 = 49 * 49), every step's frame: the planes
    of the step loop to 1e-13 up to the core.  Every ``every``-th of them,
    as a sample spacing of ``every`` steps keeps them, is the step loop's
    frame at that step, from the first step to the last whole stride."""
    x0, h = -60.0, 0.05
    F = initial_frame(pulse_phi0.params)
    blocked = _transport(pulse_phi0, 0.0, x0, h, nsteps, F)
    loop = _step_loop(pulse_phi0, x0, h, nsteps, F)
    assert blocked.shape == loop.shape == (nsteps + 1, 4, 2)
    _assert_orthonormal(blocked)
    upstream = x0 + h * np.arange(len(loop)) <= 0.0
    assert np.abs(plucker(blocked[upstream]) - plucker(loop[upstream])).max() <= 1e-13
    kept, xs = blocked[::every], x0 + every * h * np.arange(nsteps // every + 1)
    assert kept.shape == (nsteps // every + 1, 4, 2)
    assert np.array_equal(kept[-1], blocked[nsteps - nsteps % every])
    assert np.abs(plucker(kept[xs <= 0.0])
                  - plucker(loop[::every][xs <= 0.0])).max() <= 1e-13


def test_frame_at_midpoint_is_the_step_loop_plane(pulse_phi0, traj_phi0):
    """``frame_at`` between samples sums the nearest step point's series,
    started from that point's stored frame: the sample's at dx = 0.05, and
    at dx = 0.2 that of a stored step between the samples, 0.05 apart.  Both
    are the planes of the step loop from the sample."""
    coarse = integrate_frame(pulse_phi0,
                             settings=ShootingSettings(window=(-4.0, 4.0), dx=0.2))
    for traj, offset, nsteps in ((traj_phi0, 0.02, 1), (coarse, 0.075, 2)):
        anchor = traj.xs[len(traj.xs) // 3]
        F = traj.frame_at(anchor + offset)
        loop = _step_loop(traj.pulse, anchor, offset / nsteps, nsteps,
                          traj.frame_at(anchor))
        _assert_orthonormal(F)
        assert np.abs(plucker(F) - plucker(loop[-1])).max() <= 1e-13


def _table_potential_jet(pulse, x, K):
    """Taylor coefficients of f'(phi) at the entries of x with phi's summed
    from the N-wide cosine table (order j weights a_k by (k w)^j / j! on
    the cycle cos, -sin, -cos, sin)."""
    rate = np.arange(1, pulse.N + 1) * np.pi / pulse.L_f
    angle = np.multiply.outer(np.asarray(x, dtype=float), rate)
    cycle = (np.cos(angle), -np.sin(angle), -np.cos(angle), np.sin(angle))
    phi = np.stack([2.0 * (cycle[j % 4] * rate**j / math.factorial(j)) @ pulse.a[1:]
                    for j in range(K + 1)], axis=-1)
    phi[..., 0] += pulse.a[0]
    square = np.stack([(phi[..., :n + 1] * phi[..., n::-1]).sum(axis=-1)
                       for n in range(K + 1)], axis=-1)
    p = 2.0 * pulse.params.nu * phi - 3.0 * square
    p[..., 0] -= pulse.params.mu
    return p


@pytest.mark.parametrize("name", ["phi0", "phipi", "snaking"])
def test_planes_do_not_depend_on_the_cosine_kernel(request, monkeypatch, name):
    """The transport on a potential jet summed from the plain N-wide cosine
    table at every expansion point spans the planes of the grid kernel: unit
    Plücker coordinates within 1e-13 up to the core (x <= 0).  The table
    replaces the grid evaluator itself, and must see every expansion point,
    the midpoint of each of the ceil(nsteps / 2) pairs of steps."""
    pulse = request.getfixturevalue(f"pulse_{name}")
    traj = request.getfixturevalue(f"traj_{name}")
    grids = []

    def table_grid_jet(pulse, x0, h, n, K):
        grids.append(x0 + h * np.arange(n))
        return _table_potential_jet(pulse, grids[-1], K)

    monkeypatch.setattr(shooting, "grid_potential_jet", table_grid_jet)
    table = integrate_frame(pulse, lam=0.0)
    seen = np.unique(np.concatenate(grids))
    midpoints = traj.xs[1::2]
    assert len(midpoints) == -(-(len(traj.xs) - 1) // 2)
    assert np.abs(seen[np.searchsorted(seen, midpoints - 1e-9)] - midpoints).max() <= 1e-9
    upstream = traj.xs <= 0.0
    assert np.array_equal(table.xs, traj.xs)
    assert np.abs(table.plucker[upstream] - traj.plucker[upstream]).max() <= 1e-13


@pytest.mark.parametrize("mu, lam, h", [(0.05, 0.0, 0.05), (0.05, 0.0, -0.02),
                                        (0.05, 1.0, 0.05), (0.2, 0.5, 0.1),
                                        (100.0, 0.0, 0.05)])
def test_step_maps_of_a_constant_potential_are_the_exponential(mu, lam, h):
    """Without a pulse the potential is the constant -mu and every step map
    is ``expm(B h)``, within 4 eps of its largest entry; the last case has
    |B|_1 h = 5.05, past the pi within which the Magnus series is known to
    converge, and its series runs to degree 35."""
    pulse = zero_pulse(Params(nu=1.6, mu=mu))
    exact = expm(coefficient_matrix(-mu, lam) * h)
    # an odd step count drops the last pair's forward map, an even one keeps it
    for nsteps in (3, 4):
        maps = _step_maps(pulse, lam, -7.0, h, nsteps)
        assert maps.shape == (nsteps, 4, 4)
        assert np.abs(maps - exact).max() <= 4 * np.finfo(float).eps * np.abs(exact).max()


def test_degree_is_the_least_whose_next_term_is_below_unit_roundoff():
    for reach in (1e-3, 0.075, 0.15, 0.174, 1.0, 5.05, 2.0 * math.pi):
        K = _degree(reach)
        assert reach ** (K + 1) / math.factorial(K + 1) < 2.0**-53
        assert reach ** K / math.factorial(K) >= 2.0**-53
    assert _degree(0.15) == 10


def test_steps_the_potential_raises_take_their_own_degree(monkeypatch, pulse_phi0):
    """A chunk of ``_CHUNK`` expansion points (the midpoints of pairs of
    steps) runs the recurrence once, to the degree of its largest |B|_1 h,
    never below that of the columns without the potential (|B|_1 h = 3 h):
    mu = 100 puts |B|_1 h = 5.05 at every point, so the two expansions of
    its 3 steps take degree 35, while phi0's potential never exceeds those
    columns, so its 2400 default steps, 1200 pairs, take one call per
    chunk, all at degree 10."""
    calls = []

    def spy(Bc, p, F0, K, h=1.0):
        calls.append((len(np.atleast_2d(p)), K))
        return taylor(Bc, p, F0, K, h)

    taylor = shooting._taylor
    monkeypatch.setattr(shooting, "_taylor", spy)
    _step_maps(zero_pulse(Params(nu=1.6, mu=100.0)), 0.0, -7.0, 0.05, 3)
    assert calls == [(2, 35)]
    calls.clear()
    _step_maps(pulse_phi0, 0.0, -60.0, 0.05, 2400)
    assert shooting._CHUNK == 256
    assert calls == [(256, 10)] * 4 + [(176, 10)]


def test_transport_working_set_is_bounded(pulse_snaking):
    # one default transport holds its 2400 step maps and 2401 frames (0.5 MB)
    # and one chunk's Taylor stack and cosine-series products: measured
    # 1.16 MB; 512-start chunks take 2.0 MB, and 3.3 MB with a separate
    # array for each of the series' products
    integrate_frame(pulse_snaking)
    tracemalloc.start()
    try:
        integrate_frame(pulse_snaking)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_750_000


@pytest.mark.parametrize("name", ["phi0", "phipi", "snaking"])
def test_step_map_is_the_product_of_its_halves(request, name):
    """On the default steps the map over [s, s + h] is the map over its
    second half times that over its first, within 1e-14 of its largest
    entry (measured 3.3e-16; sixth-order Magnus maps miss by 5.8e-13 to
    2.1e-12)."""
    pulse = request.getfixturevalue(f"pulse_{name}")
    (a, b), h = ShootingSettings().window, ShootingSettings().dx
    nsteps = round((b - a) / h)
    whole = _step_maps(pulse, 0.0, a, h, nsteps)
    half = _step_maps(pulse, 0.0, a, h / 2, 2 * nsteps)
    halves = half[1::2] @ half[0::2]
    scale = np.abs(whole).max(axis=(1, 2))
    assert (np.abs(whole - halves).max(axis=(1, 2)) / scale).max() <= 1e-14


def _forward_maps(pulse, x0, h, nsteps):
    """Every step's map as its own Taylor series about the step's start,
    summed at h from the smallest term up, one recurrence per chunk of
    ``_CHUNK`` starts to the degree of its largest |B|_1 h: one expansion
    per step, the oracle of the paired maps."""
    Bc = coefficient_matrix(0.0, 0.0)
    maps = []
    for i in range(0, nsteps, shooting._CHUNK):
        n = min(shooting._CHUNK, nsteps - i)
        p0 = sp.grid_potential_jet(pulse, x0 + i * h, h, n, 0)[:, 0]
        degree = _degree(float(np.maximum(abs(h) * np.abs(Bc[2, 0] + p0),
                                          abs(h) * shooting._FIXED_NORM).max()))
        p = sp.grid_potential_jet(pulse, x0 + i * h, h, n, degree - 1)
        terms = shooting._taylor(Bc, p, np.eye(4)[:, None], degree, h)
        maps.append(terms[::-1].sum(axis=0).swapaxes(0, 1))
    return np.concatenate(maps)


@pytest.mark.parametrize("name, x0, h, nsteps", [
    ("phi0", -60.0, 0.05, 2400), ("phipi", -60.0, 0.05, 2400),
    ("snaking", -60.0, 0.05, 2400), ("phipi", -60.0, 0.05, 2401), ("phi0", 1.0, -0.05, 3)])
def test_paired_maps_are_the_forward_series(request, name, x0, h, nsteps):
    """Each pair's expansion about its midpoint, summed at +h and, inverted,
    at -h, gives every step's map within 1e-15 of its largest entry from
    the step's own forward series (measured 1.9e-16 on phi0 and phipi,
    7.2e-16 on snaking), and every map is symplectic to 4 eps."""
    pulse = request.getfixturevalue(f"pulse_{name}")
    maps = _step_maps(pulse, 0.0, x0, h, nsteps)
    oracle = _forward_maps(pulse, x0, h, nsteps)
    assert maps.shape == oracle.shape == (nsteps, 4, 4)
    scale = np.abs(oracle).max(axis=(1, 2))
    assert (np.abs(maps - oracle).max(axis=(1, 2)) / scale).max() <= 1e-15
    defect = np.swapaxes(maps, 1, 2) @ J4 @ maps - J4
    assert np.abs(defect).max() <= 4 * np.finfo(float).eps


def test_symplectic_inverse_moves_entries_only():
    """The inverse of a symplectic map is J^T M^T J, its entries moved and
    negated: bit for bit that product, and the inverse to rounding."""
    M = expm(coefficient_matrix(0.3, 0.2) * 0.7)[None]
    inverse = shooting._symplectic_inverse(M, np.empty_like(M))
    assert np.array_equal(inverse, J4.T @ np.swapaxes(M, 1, 2) @ J4)
    assert np.abs(inverse @ M - np.eye(4)).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("coefficient, what", [(1e200, "potential"), (1e100, "reach"),
                                               (1e20, "reach"), (10.0, "reach")])
def test_overflow_raises_transport_error(coefficient, what):
    """An overflowing potential, or a finite one whose steps exceed the
    reach of the Taylor series, stops the transport instead of yielding a
    NaN trajectory; the refusal names the step and its |B|_1 h."""
    a = np.zeros(9)
    a[3] = coefficient
    pulse = FourierPulse(params=P05, phi=0.0, L_f=100.0, a=a)
    match = {"potential": r"the potential f'\(phi\(x\)\) is not finite at x = ",
             "reach": r"the step at x = \S+ has \|B\|_1 h = \S+, beyond the reach 6.28 "}[what]
    with pytest.raises(TransportError, match=match):
        integrate_frame(pulse, settings=ShootingSettings(window=(-5.0, 5.0)))


def test_reach_refuses_the_first_step_beyond_it():
    """With |B|_1 = 1 + mu the steps of a zero pulse are all alike: at
    h = 0.05 the reach admits mu = 124 (|B|_1 h = 6.25) and refuses
    mu = 126 (6.35) at the window's first step."""
    window = ShootingSettings(window=(-1.0, 1.0))
    admitted = integrate_frame(zero_pulse(Params(nu=1.6, mu=124.0)), settings=window)
    assert admitted.frames.shape == (41, 4, 2)
    with pytest.raises(TransportError, match=re.escape(
            "the step at x = -1 has |B|_1 h = 6.35, beyond the reach 6.28")):
        integrate_frame(zero_pulse(Params(nu=1.6, mu=126.0)), settings=window)


def test_frame_at_between_steps_refuses_a_step_beyond_the_reach():
    """The series about a step point takes the step maps' degree rule and
    its refusal: over a zero pulse with mu = 200 (|B|_1 h = 10 > 2 pi) a
    trajectory built by hand from the tail plane keeps its stored steps,
    and ``frame_at`` between them is a TransportError, not a frame."""
    pulse = zero_pulse(Params(nu=1.6, mu=200.0))
    steps = np.broadcast_to(initial_frame(pulse.params), (41, 4, 2))
    traj = FrameTrajectory(pulse=pulse, lam=0.0,
                           settings=ShootingSettings(window=(-1.0, 1.0)), steps=steps)
    assert np.array_equal(traj.frame_at(0.0), steps[20])
    with pytest.raises(TransportError, match=re.escape(
            "the step at x = -0.05 has |B|_1 h = 10.1, beyond the reach 6.28")):
        traj.frame_at(0.02)


def test_overflow_inside_a_block_raises_transport_error(monkeypatch):
    """Finite step maps whose product grows past the square root of the
    largest float partway through the first block stop the transport at
    that step's frame, not at a later block start, nor at the next sample
    when the step is a sub-step of dx = 0.1.  A map within the reach grows
    a frame by at most e^(2 pi) ~ 535, and no pulse has been seen to
    overflow a block that way, so the maps here are 1e20 or 1e25 times the
    identity."""
    for dx, growth, odd in ((0.05, 1e20, False), (0.1, 1e25, True)):
        def growing_maps(pulse, lam, x0, h, nsteps, growth=growth):
            return np.broadcast_to(growth * np.eye(4), (nsteps, 4, 4)).copy()

        monkeypatch.setattr(shooting, "_step_maps", growing_maps)
        settings = ShootingSettings(window=(-5.0, 5.0), dx=dx)
        x0, h, nsteps = -5.0, 0.05, 200
        F = initial_frame(P05)
        with np.errstate(over="ignore"):
            for k, Phi in enumerate(growing_maps(None, 0.0, x0, h, nsteps), start=1):
                F = Phi @ F
                if not np.all(np.isfinite(np.sum(F * F, axis=0))):
                    break
        assert 1 < k < math.isqrt(nsteps - 1) + 1 and k % 2 == odd
        with pytest.raises(TransportError,
                           match=re.escape(f"frame is not finite at x = {x0 + k * h:.6g}")):
            integrate_frame(zero_pulse(P05), settings=settings)


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

    def rhs(x, y):
        B = coefficient_matrix(
            nonlinearity_deriv(sp.evaluate(traj.pulse, x), traj.pulse.params), traj.lam)
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
    """The Taylor sum of ``jet(x, 9)`` spans the plane that partial steps of
    the transport carry from the sample nearest ``x + h`` to it, on and
    between the samples."""
    traj = request.getfixturevalue(f"traj_{name}")
    worst = 0.0
    for x in (-30.0, -0.63, 0.31, 1.24, 17.58, 40.02):
        F = traj.jet(x, 9)
        assert F.shape == (10, 4, 2)
        assert np.array_equal(F[0], traj.frame_at(x))
        for h in (0.05, -0.05):
            taylor = np.tensordot(h ** np.arange(10), F, axes=1)
            worst = max(worst, subspace_angles(taylor, _partial_step(traj, x + h)).max())
    assert worst <= 1e-11


def _shifted_jet(traj, x, K):
    """The jet as the nearest step point's series to ``K`` orders beyond the
    step's degree, shifted to ``x`` by ``polynomial_family``'s Taylor shift
    and re-based by the inverse of the triangular factor of the order-0
    Gram-Schmidt."""
    j, dt = traj._nearest(x)
    h = traj._h
    Bc = coefficient_matrix(0.0, traj.lam)
    xj = traj.settings.window[0] + j * h
    p0 = sp.grid_potential_jet(traj.pulse, xj, 0.0, 1, 0)[0, 0]
    D = _degree(float(shooting._reach(Bc, p0, h))) + K
    p = sp.grid_potential_jet(traj.pulse, xj, 0.0, 1, D - 1)[0]
    S = lagrangian.polynomial_family(shooting._taylor(Bc, p, traj.steps[j], D))(dt, K)
    F = traj.frame_at(x)
    if dt != 0.0:
        S[1:] = S[1:] @ np.linalg.inv(np.triu(F.T @ S[0]))
    S[0] = F
    return S


@pytest.mark.parametrize("name", ["phi0", "phipi", "snaking"])
def test_jet_is_the_shifted_series(request, name):
    """``jet(x, 9)``, the recurrence run at ``x`` from ``frame_at(x)``, is the
    nearest step point's series shifted to ``x`` and re-based: order n
    within 1e-13 times ``|B(x)|_1^n / n!``, the size the recurrence gives a
    coefficient of an orthonormal frame, at the crossings and at random
    points."""
    traj = request.getfixturevalue(f"traj_{name}")
    _, records = conjugate_points(traj, trust_horizon(traj.pulse))
    rng = np.random.default_rng(30)
    points = [r.x_star for r in records] + list(rng.uniform(-60.0, 60.0, 40))
    factorial = np.array([math.factorial(n) for n in range(10)], dtype=float)
    for x in points:
        jet = traj.jet(x, 9)
        p0 = sp.grid_potential_jet(traj.pulse, x, 0.0, 1, 0)[0, 0]
        norm = np.abs(coefficient_matrix(p0, traj.lam)).sum(axis=0).max()
        error = np.abs(jet - _shifted_jet(traj, x, 9)).max(axis=(1, 2))
        assert np.all(error <= 1e-13 * norm ** np.arange(10) / factorial)


def _partial_step(traj, x):
    """The frame at ``x`` transported from the nearest sample by partial
    steps of at most ``MAX_STEP``."""
    i = round((x - traj.xs[0]) / traj.settings.dx)
    anchor = float(traj.xs[i])
    if x == anchor:
        return traj.frames[i]
    nsteps = math.ceil(abs(x - anchor) / shooting.MAX_STEP)
    return _transport(traj.pulse, traj.lam, anchor, (x - anchor) / nsteps, nsteps,
                      traj.frames[i])[-1]


def test_coarse_frame_at_is_the_default_transport(pulse_phipi, traj_phipi):
    """At dx = 1 the plane between samples is the nearest stored step's, or
    its series: at every default sample up to the core it spans the
    default transport's plane within 1e-13."""
    coarse = integrate_frame(pulse_phipi, settings=ShootingSettings(dx=1.0))
    upstream = traj_phipi.xs <= 0.0
    frames = np.stack([coarse.frame_at(x) for x in traj_phipi.xs[upstream]])
    assert np.abs(plucker(frames) - traj_phipi.plucker[upstream]).max() <= 1e-13


@pytest.mark.parametrize("name", ["phi0", "phipi"])
@pytest.mark.parametrize("dx", [0.1, 0.2])
def test_plane_family_does_not_depend_on_the_sample_spacing(request, name, dx):
    """At dx = 0.1 and 0.2 the sub-step is exactly the default step, so
    ``frame_at`` and ``jet`` are the default trajectory's, bit for bit, at
    the crossings, at the steps between the samples and at random points."""
    traj = request.getfixturevalue(f"traj_{name}")
    coarse = integrate_frame(traj.pulse, settings=ShootingSettings(dx=dx))
    assert np.array_equal(coarse.steps, traj.steps)
    _, records = conjugate_points(traj, trust_horizon(traj.pulse))
    rng = np.random.default_rng(28)
    points = ([r.x_star for r in records] + [float(coarse.xs[300]) + 0.05 * k for k in range(4)]
              + list(rng.uniform(-60.0, 60.0, 20)))
    fine = _fresh(traj)
    for x in points:
        assert np.array_equal(coarse.frame_at(x), fine.frame_at(x))
        assert np.array_equal(coarse.jet(x, 9), fine.jet(x, 9))


def _fresh(traj):
    """A copy of the trajectory with none of its samples' series computed."""
    return FrameTrajectory(pulse=traj.pulse, lam=traj.lam, settings=traj.settings,
                           steps=traj.steps)


@pytest.mark.parametrize("name", ["phi0", "phipi", "snaking"])
def test_frame_at_a_sample_is_the_stored_frame(request, name):
    """At a sample ``frame_at`` and the jet's order 0 are the stored frame,
    bit for bit, before and after the sample's series is computed."""
    traj = _fresh(request.getfixturevalue(f"traj_{name}"))
    for i in (0, 1, 700, 1200, 1201, len(traj.xs) - 1):
        x = float(traj.xs[i])
        assert np.array_equal(traj.frame_at(x), traj.frames[i])
        assert np.array_equal(traj.jet(x, 9)[0], traj.frames[i])
        traj.frame_at(x + (0.01 if i == 0 else -0.01))
        assert np.array_equal(traj.frame_at(x), traj.frames[i])
        assert np.array_equal(traj.jet(x, 3)[0], traj.frames[i])


def test_frame_at_and_jet_never_transport(monkeypatch, traj_phipi):
    """Between the samples the plane is the nearest sample's cached series,
    summed: no call reaches ``_transport``, at the default spacing or a
    coarse one, nor in a whole crossing search."""
    def refuse(*args, **kwargs):
        raise AssertionError("_transport called")

    coarse = integrate_frame(traj_phipi.pulse, settings=ShootingSettings(dx=1.0))
    monkeypatch.setattr(shooting, "_transport", refuse)
    for traj in (_fresh(traj_phipi), coarse):
        for x in (-30.0, -0.63, 0.31, 17.58, 40.4):
            assert traj.frame_at(x).shape == (4, 2)
            assert traj.jet(x, 9).shape == (10, 4, 2)
        index, records = conjugate_points(traj, trust_horizon(traj.pulse))
        assert index == 2 and len(records) == 2


def test_crossing_search_expands_at_most_two_samples_per_crossing(monkeypatch, traj_phipi):
    """One crossing search on phipi runs the recurrence from at most two
    stored steps per located crossing or dip: the two ends of its bracket.
    The jets at the crossings run it from ``frame_at(x*)``, which is no
    stored step, and are not counted."""
    located = []
    locate = lagrangian.locate_zeros

    def counting_locate(*args):
        zeros, dips = locate(*args)
        located.extend(zeros + dips)
        return zeros, dips

    expanded = set()
    taylor = shooting._taylor
    traj = _fresh(traj_phipi)

    def spy(Bc, p, F0, K, h=1.0):
        if np.shares_memory(F0, traj.steps):
            expanded.add(np.asarray(F0).tobytes())
        return taylor(Bc, p, F0, K, h)

    monkeypatch.setattr(lagrangian, "locate_zeros", counting_locate)
    monkeypatch.setattr(shooting, "_taylor", spy)
    index, records = conjugate_points(traj, trust_horizon(traj.pulse))
    assert index == 2 and len(records) == 2 and len(located) == 2
    assert 0 < len(expanded) <= 2 * len(located)


def test_half_line_corner_above_the_kernel_tol_is_not_counted():
    """Pins a known miscount until the corner is counted by rule.  On
    x <= 0 the odd pulse's unstable plane at nu = 1.4, mu = 0.03 meets
    span{e3, e4} at the corner x = 0 exactly, by symmetry, but the
    transported plane's smaller sine there is about 5e-8, above
    ``KERNEL_TOL``.  So ``maslov_index`` keeps no endpoint crossing and the
    odd index reads 1, the interior crossings alone, where the corner's
    half would make it an integer plus one half."""
    pulse = sp.newton_solve(sp.seed_from_normal_form(Params(nu=1.4, mu=0.03), np.pi, N=192))
    traj = integrate_frame(pulse)
    upstream = traj.xs <= 0.0
    xs, frames = traj.xs[upstream], traj.frames[upstream]
    assert xs[-1] == 0.0
    sines = np.linalg.svd(frames[-1][:2], compute_uv=False)
    assert lagrangian.KERNEL_TOL < sines.min() < 1e-6
    result = lagrangian.maslov_index(traj.jet, np.eye(4)[:, 2:], xs, frames)
    assert result.index == 1
    assert len(result.crossings) == 5
    assert all(c.endpoint is None for c in result.crossings)


def test_tail_oscillation_has_the_predicted_period(traj_phi0):
    """Far from the pulse the detA samples oscillate with period pi/Im(gamma)."""
    xs, d = traj_phi0.xs, traj_phi0.plucker[:, 2]
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
    assert P.shape == (len(frames), 6)
    assert np.array_equal(P, np.array([plucker(F) for F in frames]))
    assert np.array_equal(P, traj_phi0.plucker)
    bad = frames[:5].copy()
    bad[3, :, 1] = 2.0 * bad[3, :, 0]
    with pytest.raises(ValueError, match="rank-deficient"):
        plucker(bad)


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
    rows = np.column_stack([traj_phi0.xs, traj_phi0.plucker[:, 2], traj_phi0.plucker,
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
    assert np.array_equal(a.plucker, b.plucker)
