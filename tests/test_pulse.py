"""Fourier pulse solver: convolutions, residual, parity blocks, Newton, I/O."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shpulse.pulse as sp
from shpulse.model import Params, nonlinearity_deriv
from shpulse.pulse import FourierPulse, NewtonError, PulseFileError
from shpulse.shooting import ShootingSettings
from shpulse.verify import REFERENCE_PULSES

P = Params(nu=1.6, mu=0.05)


def make_pulse(a_half, p=P, phi=0.0, L_f=100.0):
    return FourierPulse(params=p, phi=phi, L_f=L_f, a=a_half)


def brute_convolve2(a):
    n = (len(a) - 1) // 2
    out = np.zeros(2 * n + 1)
    for k in range(-n, n + 1):
        for k1 in range(-n, n + 1):
            k2 = k - k1
            if -n <= k2 <= n:
                out[k + n] += a[k1 + n] * a[k2 + n]
    return out


def brute_convolve3(a):
    n = (len(a) - 1) // 2
    out = np.zeros(2 * n + 1)
    for k in range(-n, n + 1):
        for k1 in range(-n, n + 1):
            for k2 in range(-n, n + 1):
                k3 = k - k1 - k2
                if -n <= k3 <= n:
                    out[k + n] += a[k1 + n] * a[k2 + n] * a[k3 + n]
    return out


def test_convolution_delta_identity():
    a = np.zeros(9)
    a[4] = 1.0  # delta at k = 0
    assert np.array_equal(sp.convolve2(a), a)
    assert np.array_equal(sp.convolve3(a), a)


def test_convolution_single_pair_mode():
    a = np.zeros(9)
    a[3] = a[5] = 1.0  # a_{+-1} = 1
    c2 = sp.convolve2(a)
    assert c2[4] == 2.0  # (1,-1) and (-1,1)
    assert c2[6] == 1.0 and c2[2] == 1.0
    assert c2[5] == 0.0


@given(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=17).filter(
        lambda v: len(v) % 2 == 1
    )
)
@settings(max_examples=40, deadline=None)
def test_convolutions_match_brute_force(a):
    a = np.array(a)
    b2, b3 = brute_convolve2(a), brute_convolve3(a)
    # 1e-13 at unit scale; both routes differ only in summation order
    assert np.abs(sp.convolve2(a) - b2).max() < 1e-13 * max(1.0, np.abs(b2).max())
    assert np.abs(sp.convolve3(a) - b3).max() < 1e-13 * max(1.0, np.abs(b3).max())


def test_residual_zero_and_linear_coefficients():
    assert np.array_equal(sp.residual(np.zeros(11), P, 100.0), np.zeros(11))
    # k = 0: F_0(eps*delta_0) = (-mu - 1) eps + nu eps^2 - eps^3
    eps = 1e-3
    a = np.zeros(11)
    a[5] = eps
    F = sp.residual(a, P, 100.0)
    assert F[5] == pytest.approx(-1.05 * eps + 1.6 * eps**2 - eps**3, abs=1e-18)
    # resonant wavenumber k*pi/L_f = 1: quartic factor vanishes, coefficient -mu
    L = 16 * np.pi
    b = np.zeros(33)
    b[0] = b[32] = eps  # a_{+-16}
    G = sp.residual(b, P, L)
    # (b*b*b)_16 = 3 eps^3 from permutations of (16, 16, -16); (b*b)_16 = 0
    assert G[32] == pytest.approx(-0.05 * eps - 3 * eps**3, abs=1e-18)


@pytest.mark.parametrize("name", ["phi0", "phipi", "snaking"])
def test_residual_is_bitwise_the_two_convolutions(request, name):
    """residual shares one self-convolution between its quadratic and cubic
    terms; it must keep the bits of the formula with two independent
    convolutions, and its terms must be convolve2's and convolve3's, on the
    reference pulse, on a perturbed iterate and zero-padded to N = 512."""
    pulse = request.getfixturevalue(f"pulse_{name}")
    a = pulse.full()
    pad = np.zeros(2 * 512 + 1)
    pad[512 - pulse.N : 512 + pulse.N + 1] = a
    noisy = a + 1e-3 * np.random.default_rng(7).standard_normal(a.size)
    for v in (a, noisy, pad):
        N = (v.size - 1) // 2
        square = np.convolve(v, v)[N : 3 * N + 1]
        cube = np.convolve(np.convolve(v, v), v)[2 * N : 4 * N + 1]
        assert np.array_equal(sp.convolve2(v), square)
        assert np.array_equal(sp.convolve3(v), cube)
        old = (sp._linear_symbol(N, pulse.params, pulse.L_f) * v
               + pulse.params.nu * square - cube)
        assert np.array_equal(sp.residual(v, pulse.params, pulse.L_f), old)


def test_jacobian_at_zero_is_diagonal():
    even, odd = sp.parity_blocks(np.zeros(5), P, 100.0)
    k = np.arange(5)
    lin = -0.05 - (1 - (k * np.pi / 100.0) ** 2) ** 2
    assert np.array_equal(even, np.diag(lin))
    assert np.array_equal(odd, np.diag(lin[1:]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jacobian_matches_finite_differences(seed):
    # each block column is the derivative of the residual's rows k >= 0
    # (even) or k >= 1 (odd) along the even or odd unit direction of mode j
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 9)
    half = rng.uniform(-1, 1, n + 1)
    a = np.concatenate([half[:0:-1], half])
    even, odd = sp.parity_blocks(half, P, 50.0)
    h = 1e-6
    for block, parity, first in ((even, 1.0, 0), (odd, -1.0, 1)):
        fd = np.empty_like(block)
        for j in range(first, n + 1):
            e = np.zeros_like(a)
            e[n - j] = parity * h
            e[n + j] = h
            diff = sp.residual(a + e, P, 50.0) - sp.residual(a - e, P, 50.0)
            fd[:, j - first] = diff[n + first:] / (2 * h)
        rel = np.linalg.norm(block - fd) / np.linalg.norm(block)
        assert rel < 1e-6


def test_newton_zero_seed_fixed_point():
    # u = 0 solves the equation exactly, but it is not a pulse
    seed = make_pulse(np.zeros(9))
    hist = []
    with pytest.raises(NewtonError, match="trivial state") as exc:
        sp.newton_solve(seed, history=hist)
    assert hist == [0.0]  # converged before any step
    assert exc.value.residual_norm == 0.0


def test_newton_singular_system():
    # N = 0 with a_0 = 1, (nu, mu) = (2.5, 1): dF/da = -1 - 1 + 5 - 3 = 0 exactly
    seed = make_pulse([1.0], p=Params(nu=2.5, mu=1.0))
    with pytest.raises(NewtonError, match="singular"):
        sp.newton_solve(seed)


def test_newton_nonconvergence_carries_residual(monkeypatch):
    seed = sp.seed_from_normal_form(P, 0.0, N=32)
    monkeypatch.setattr(sp, "MAX_ITER", 2)
    with pytest.raises(NewtonError) as exc:
        sp.newton_solve(seed, tol=0.0)
    assert exc.value.residual_norm > 0


def test_newton_off_snaking_pulse():
    seed = sp.seed_from_normal_form(P, 0.0)
    hist = []
    pulse = sp.newton_solve(seed, history=hist)
    assert pulse.residual_norm <= 1e-12
    assert sp.evaluate(pulse, 0.0) == pytest.approx(0.298972822720, abs=1e-9)
    # quadratic convergence over the final three steps
    r = hist[-4:]
    for k in range(3):
        assert r[k + 1] <= 1e4 * r[k] ** 2


def test_newton_other_phase():
    pulse = sp.newton_solve(sp.seed_from_normal_form(P, np.pi))
    assert pulse.residual_norm <= 1e-12
    assert sp.evaluate(pulse, 0.0) == pytest.approx(-0.190190841275, abs=1e-9)


def test_newton_snaking_pulse_needs_scaled_seed():
    p = Params(nu=1.6, mu=0.20)
    pulse = sp.newton_solve(sp.seed_from_normal_form(p, 0.0, scale=3.0))
    assert pulse.residual_norm <= 1e-12
    assert sp.evaluate(pulse, 0.0) == pytest.approx(1.098320653147, abs=1e-9)


def _single_level(a, p, L_f, tol=1e-12, max_iter=50, history=None):
    """Newton's loop at the mode count of the half vector a alone, with no
    coarse level: the oracle of the coarse-to-fine solve."""
    h = np.array(a, dtype=float)
    N = h.size - 1
    for _ in range(max_iter + 1):
        full = np.concatenate([h[:0:-1], h])
        F = sp.residual(full, p, L_f)
        res = float(np.abs(F).max())
        if history is not None:
            history.append(res)
        if res <= tol:
            return h
        h = h + np.linalg.solve(sp._parity_block(full, p, L_f, +1), -F[N:])
    raise AssertionError(f"the oracle did not converge in {max_iter} steps")


def _reference_seed(name, N):
    ref = REFERENCE_PULSES[name]
    return sp.seed_from_normal_form(ref["params"], ref["phi"], scale=ref["scale"], N=N)


@pytest.mark.parametrize("N", [256, 384, 512])
@pytest.mark.parametrize("name", ["phi0", "phipi", "snaking"])
def test_coarse_to_fine_is_the_single_level_solve(name, N):
    seed = _reference_seed(name, N)
    pulse = sp.newton_solve(seed)
    assert pulse.residual_norm <= 1e-12
    assert np.abs(pulse.a - _single_level(seed.a, seed.params, seed.L_f)).max() <= 1e-12


@pytest.mark.parametrize("N,levels", [(128, [128]), (192, [192]), (248, [248]),
                                      (264, [132, 264]), (384, [192, 384]),
                                      (512, [128, 256, 512])])
def test_coarse_levels_resolve_wavenumber_four(monkeypatch, N, levels):
    """A level of M = N // 2 modes is solved first exactly when M pi / L_f
    >= 4 (at L_f = 100: M >= 128), recursively; the Jacobian blocks and the
    residuals show which mode counts ran, coarsest first."""
    assert levels == [n for n in (N // 4, N // 2) if n * math.pi / 100.0 >= 4.0] + [N]
    seed = sp.seed_from_normal_form(P, 0.0, N=N)
    blocks, residuals = [], []
    block, residual = sp._parity_block, sp.residual

    def block_spy(a, *args):
        blocks.append((a.size - 1) // 2)
        return block(a, *args)

    def residual_spy(a, *args):
        residuals.append((a.size - 1) // 2)
        return residual(a, *args)

    monkeypatch.setattr(sp, "_parity_block", block_spy)
    monkeypatch.setattr(sp, "residual", residual_spy)
    history = []
    sp.newton_solve(seed, history=history)
    assert list(dict.fromkeys(residuals)) == levels
    assert residuals == sorted(residuals) and len(history) == len(residuals)
    # every level but a padded vector that already meets tol takes a step
    assert set(blocks) >= set(levels[:-1])


@pytest.mark.parametrize("name,N", [("phi0", 512), ("snaking", 256), ("phipi", 384)])
def test_coarse_to_fine_history_chains_the_levels(name, N):
    """Each level is the single-level loop from the zero-padded solution of
    the level below, and `history` lists every level's iterates in order."""
    seed = _reference_seed(name, N)
    history = []
    pulse = sp.newton_solve(seed, history=history)
    levels = [n for n in (N // 4, N // 2) if n * math.pi / seed.L_f >= 4.0]
    want, h = [], seed.a[:levels[0] + 1]
    for n in levels + [N]:
        h = _single_level(np.r_[h, np.zeros(n + 1 - h.size)], seed.params, seed.L_f,
                          history=want)
    assert np.array_equal(pulse.a, h)
    assert history == want and history[-1] == pulse.residual_norm <= 1e-12
    assert len(history) > len(levels) + 1


@pytest.mark.parametrize("name,N", [("snaking", 256), ("phi0", 512)])
def test_failed_coarse_level_restarts_from_the_seed(monkeypatch, name, N):
    seed = _reference_seed(name, N)
    fine = sp._coarse_to_fine

    def failing(h, *args):
        if h.size < N + 1:
            raise NewtonError("coarse level refused", 1.0)
        return fine(h, *args)

    monkeypatch.setattr(sp, "_coarse_to_fine", failing)
    pulse = sp.newton_solve(seed)
    assert np.array_equal(pulse.a, _single_level(seed.a, seed.params, seed.L_f))


def test_coarse_to_fine_errors_keep_their_messages(monkeypatch):
    history = []
    with pytest.raises(NewtonError, match="trivial state") as exc:
        sp.newton_solve(make_pulse(np.zeros(257)), history=history)
    assert exc.value.residual_norm == 0.0
    assert history == [0.0, 0.0]  # the coarse level's, then the seed's at N
    history = []
    monkeypatch.setattr(sp, "MAX_ITER", 2)
    with pytest.raises(NewtonError, match=r"no convergence in 2 iterations") as exc:
        sp.newton_solve(sp.seed_from_normal_form(P, 0.0, N=256), tol=0.0, history=history)
    assert exc.value.residual_norm > 0
    assert len(history) == 6  # MAX_ITER applies per level
    assert history[-1] == exc.value.residual_norm


def test_tail_floor_reads_the_last_nonzero_coefficient():
    """The tail is |a_M| / max |a_k| at the last nonzero coefficient a_M:
    a_N unless the solve returned a zero-padded coarse level, where it is
    that level's last mode (phi0 and phipi at N = 512 stop at 256)."""
    assert make_pulse([2.0, -1.0, 1e-3]).tail_floor == 1e-3 / 2.0
    assert make_pulse([2.0, -1.0, 1e-3, 0.0, 0.0]).tail_floor == 1e-3 / 2.0
    assert make_pulse([-2.0, 0.0, 1e-3, 0.0]).tail_floor == 1e-3 / 2.0
    assert make_pulse(np.zeros(5)).tail_floor == 0.0
    for name in ("phi0", "phipi"):
        pulse = sp.newton_solve(_reference_seed(name, 512))
        assert not pulse.a[257:].any() and pulse.a[256] != 0.0
        assert pulse.tail_floor == abs(pulse.a[256]) / np.abs(pulse.a).max()
        assert 1e-15 < pulse.tail_floor < 1e-14


# Localized states of the (nu, mu, phi) parameter box, at N = 256
@pytest.mark.parametrize("nu,mu,phi", [(1.4, 0.03, 0.0), (1.6, 0.08, np.pi),
                                       (1.8, 0.12, np.pi), (1.8, 0.16, 0.0),
                                       (2.0, 0.03, 0.0), (2.0, 0.2, np.pi)])
def test_coarse_to_fine_is_transparent_on_the_parameter_box(nu, mu, phi):
    seed = sp.seed_from_normal_form(Params(nu=nu, mu=mu), phi, N=256)
    pulse = sp.newton_solve(seed)
    assert np.abs(sp.evaluate(pulse, np.array([-60.0, 60.0]))).max() <= 1e-2
    assert np.abs(pulse.a - _single_level(seed.a, seed.params, seed.L_f)).max() <= 1e-10


def test_seed_linearity_and_validation():
    s1 = sp.seed_from_normal_form(P, 0.0, N=32)
    s2 = sp.seed_from_normal_form(P, 0.0, N=32, scale=2.0)
    assert np.allclose(s2.a, 2 * s1.a, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        sp.seed_from_normal_form(P, 0.0, scale=0.0)
    for N in (0, -1):
        with pytest.raises(ValueError, match=f"N must be at least 1, got {N}"):
            sp.seed_from_normal_form(P, 0.0, N=N)


def test_seed_reconstruction_and_tail():
    from shpulse.model import normal_form

    seed = sp.seed_from_normal_form(P, 0.0)
    assert abs(sp.evaluate(seed, 0.0) - normal_form(0.0, 0.0, P)) < 1e-8
    assert abs(seed.a[-1]) < 1e-8  # measured 2.0e-9 with the 4N+1 trapezoid rule


def _table_seed(p, phi, L_f, N, scale):
    """The seed as a cosine table: np.trapezoid of u(x) cos(pi k x / L_f)
    over the 4N+1 `linspace` points, one row per mode k = 0..N."""
    x = np.linspace(-L_f, L_f, 4 * N + 1)
    u = scale * sp.normal_form(x, phi, p)
    basis = np.cos(np.pi * np.outer(np.arange(N + 1), x) / L_f)
    return np.trapezoid(basis * u, x, axis=1) / (2.0 * L_f), x, u


def _assert_seed_is_the_table(p, phi, L_f, N, scale=1.0):
    # both are sums of 4N+1 rounded terms, and the table also rounds each
    # angle pi k x / L_f to a relative eps, so the bound is a few eps times
    # sqrt(4N) (random rounding) times the condition number of a_k,
    # (1/4N) sum_j |u_j| (1 + pi k |x_j| / L_f); the largest difference
    # measured on these cases is 0.37 of that bound (N = 1), at most 0.08
    # of it for N >= 2
    table, x, u = _table_seed(p, phi, L_f, N, scale)
    cond = (1.0 + np.pi * np.outer(np.arange(N + 1), np.abs(x)) / L_f) @ np.abs(u) / (4 * N)
    bound = 2.0 * np.sqrt(4 * N) * np.finfo(float).eps * cond
    got = sp.seed_from_normal_form(p, phi, L_f=L_f, N=N, scale=scale).a
    assert got.shape == (N + 1,)
    assert np.all(np.abs(got - table) <= bound)


@pytest.mark.parametrize("N", [1, 2, 5, 32, 192, 512])
def test_seed_is_the_trapezoid_table(N):
    for ref in REFERENCE_PULSES.values():
        _assert_seed_is_the_table(ref["params"], ref["phi"], 100.0, N, ref["scale"])


@pytest.mark.parametrize("N", [1, 2, 5, 32, 192, 512])
def test_seed_is_the_trapezoid_table_for_any_samples(monkeypatch, N):
    # random samples, not even and not equal at the two endpoints: this
    # pins the endpoint fold and the real part of the DFT for any u
    monkeypatch.setattr(sp, "normal_form",
                        lambda x, phi, p: np.random.default_rng(x.size).standard_normal(x.shape))
    for L_f in (100.0, 7.3):
        _assert_seed_is_the_table(P, 0.0, L_f, N)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("N", [192, 512])
@pytest.mark.parametrize("name", ["phi0", "phipi", "snaking"])
def test_seed_is_no_farther_from_extended_precision_than_the_table(name, N):
    # the reference is the trapezoid rule on the nominal points
    # x_j = -L_f + j L_f / (2N), summed in long double over the same
    # double samples u_j
    ref = REFERENCE_PULSES[name]
    L_f, ld = 100.0, np.longdouble
    table, _, u = _table_seed(ref["params"], ref["phi"], L_f, N, ref["scale"])
    x = -ld(L_f) + np.arange(4 * N + 1, dtype=ld) * (ld(L_f) / (2 * N))
    weights = np.ones(4 * N + 1, dtype=ld)
    weights[[0, -1]] = ld(0.5)
    pi = ld("3.14159265358979323846264338327950288")
    basis = np.cos(pi * np.multiply.outer(np.arange(N + 1, dtype=ld), x) / ld(L_f))
    exact = basis @ (weights * u.astype(ld)) / (4 * N)
    got = sp.seed_from_normal_form(ref["params"], ref["phi"], L_f=L_f, N=N, scale=ref["scale"]).a
    assert np.abs(got - exact).max() <= np.abs(table - exact).max()


def test_seed_allocates_no_table():
    tracemalloc.start()
    try:
        sp.seed_from_normal_form(P, 0.0, N=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (513 x 2049) cosine table alone takes 8.4 MB
    assert peak < 1_000_000


def test_evaluate_basics():
    zero = make_pulse(np.zeros(5))
    assert sp.evaluate(zero, 12.3) == 0.0
    assert sp.grid_potential_jet(zero, 12.3, 0.0, 1, 0)[0, 0] == -0.05
    single = make_pulse([0.0, 0.5])
    assert sp.evaluate(single, 0.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        sp.evaluate(single, 100.0001)
    with pytest.raises(ValueError):
        sp.evaluate(single, [0.0, -150.0])


def test_evaluate_evenness():
    pulse = sp.newton_solve(sp.seed_from_normal_form(P, 0.0, N=48))
    x = np.linspace(0, 100, 37)
    assert np.abs(sp.evaluate(pulse, x) - sp.evaluate(pulse, -x)).max() < 1e-12


def _transport_nodes():
    """The step starts of the default transport, the points a third of a
    step past them, and x = 1.5."""
    (a, b), h = ShootingSettings().window, ShootingSettings().dx
    starts = a + h * np.arange(round((b - a) / h))
    return np.append((starts[:, None] + h * np.array([0.0, 1.0 / 3.0])).ravel(), 1.5)


def _plain(pulse, x, dtype=float):
    """The textbook sum a_0 + 2 sum_k a_k cos(k pi x / L_f), one cosine per
    mode and point, in ``dtype``."""
    a = pulse.a.astype(dtype)
    rate = np.arange(1, pulse.N + 1, dtype=dtype) * dtype(np.pi) / dtype(pulse.L_f)
    return a[0] + 2 * np.cos(np.multiply.outer(np.asarray(x, dtype=dtype), rate)) @ a[1:]


def _evaluate_case(request, N):
    """A reference pulse for N = 192 (phi0) and 256 (snaking), else N + 1
    random coefficients."""
    if N in (192, 256):
        return request.getfixturevalue("pulse_phi0" if N == 192 else "pulse_snaking")
    return make_pulse(np.random.default_rng(N).standard_normal(N + 1))


@pytest.mark.parametrize("N", [0, 1, 4, 5, 192, 256])
def test_evaluate_is_the_plain_cosine_sum(request, N):
    # evaluate, whose points are their own anchors, against the textbook
    # sum, at the default transport's step starts, points between them and
    # x = 1.5.  Both round each angle k w x to a relative eps, which moves a
    # mode by up to eps k w |x| |a_k|, so the bound is a few eps times the
    # sum's condition number at x
    pulse = _evaluate_case(request, N)
    x = _transport_nodes()
    w = np.pi / pulse.L_f
    cond = abs(pulse.a[0]) + 2.0 * (
        1.0 + np.multiply.outer(np.abs(x), w * np.arange(1, N + 1))) @ np.abs(pulse.a[1:])
    bound = 8.0 * np.finfo(float).eps * cond
    got = sp.evaluate(pulse, x)
    assert got.shape == x.shape
    assert np.all(np.abs(got - _plain(pulse, x)) <= bound)
    # a scalar in, a float out
    value = sp.evaluate(pulse, 1.5)
    assert type(value) is float and abs(value - _plain(pulse, 1.5)) <= bound[-1]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("name", ["phi0", "phipi", "snaking"])
def test_evaluate_is_no_farther_from_extended_precision_than_the_table(request, name):
    # on the reference pulses the kernel is at least as close to an
    # extended-precision sum as the N-wide cosine table in double is
    pulse = request.getfixturevalue(f"pulse_{name}")
    x = _transport_nodes()
    exact = _plain(pulse, x, np.longdouble)
    kernel = np.abs(sp.evaluate(pulse, x) - exact).max()
    table = np.abs(_plain(pulse, x) - exact).max()
    assert kernel <= table


def _grid_points(x0, h, n):
    """The points of ``_series_jet``'s grid of n steps h from x0: anchors
    x0 + q J h plus offsets i h, J = _SPAN (1 for n < _SPAN), the first n
    of them."""
    J = sp._SPAN if n >= sp._SPAN else 1
    anchors = x0 + (J * h) * np.arange(-(-n // J))
    return (anchors[:, None] + h * np.arange(J)).ravel()[:n]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("N", [0, 1, 4, 5, 192, 256])
def test_grid_order_zero_is_the_plain_and_the_extended_sum(request, N):
    # order 0 of the grid kernel at the default transport's step starts,
    # against the textbook sum in double and in long double: within the
    # bound of test_evaluate_is_the_plain_cosine_sum of both, and on the
    # reference pulses no farther from the long-double sum than the table
    pulse = _evaluate_case(request, N)
    (a, b), h = ShootingSettings().window, ShootingSettings().dx
    n = round((b - a) / h)
    x = _grid_points(a, h, n)
    got = sp._series_jet(pulse, a, 0, h, n)[0]
    w = np.pi / pulse.L_f
    cond = abs(pulse.a[0]) + 2.0 * (
        1.0 + np.multiply.outer(np.abs(x), w * np.arange(1, N + 1))) @ np.abs(pulse.a[1:])
    bound = 8.0 * np.finfo(float).eps * cond
    exact = _plain(pulse, x, np.longdouble)
    assert got.shape == (n,)
    assert np.all(np.abs(got - _plain(pulse, x)) <= bound)
    assert np.all(np.abs(got - exact) <= bound)
    if N in (192, 256):
        assert np.abs(got - exact).max() <= np.abs(_plain(pulse, x) - exact).max()


def _table_jet(pulse, x, K):
    """Taylor coefficients of phi from the N-wide cosine table: order j
    weights a_k by (k w)^j / j! on the cycle cos, -sin, -cos, sin."""
    rate = np.arange(1, pulse.N + 1) * np.pi / pulse.L_f
    angle = np.multiply.outer(np.asarray(x, dtype=float), rate)
    cycle = (np.cos(angle), -np.sin(angle), -np.cos(angle), np.sin(angle))
    jet = np.stack([2.0 * (cycle[j % 4] * rate**j / math.factorial(j)) @ pulse.a[1:]
                    for j in range(K + 1)], axis=-1)
    jet[..., 0] += pulse.a[0]
    return jet


@pytest.mark.parametrize("N", [1, 4, 5, 192, 256])
def test_series_jet_is_the_weighted_cosine_table(request, N):
    # every order of the kernel against the table, relative to the order's
    # largest term sum_k |a_k| (k w)^j / j!
    pulse = _evaluate_case(request, N)
    x = _transport_nodes()[::7]
    K = 11
    got = np.moveaxis(sp._series_jet(pulse, x, K)[..., 0], 0, -1)
    rate = np.arange(1, N + 1) * np.pi / pulse.L_f
    scale = np.array([np.abs(pulse.a[1:]) @ (rate**j / math.factorial(j)) for j in range(K + 1)])
    assert got.shape == x.shape + (K + 1,)
    assert np.all(np.abs(got - _table_jet(pulse, x, K)) <= 1e-13 * (scale + abs(pulse.a[0])))


@pytest.mark.parametrize("n", [1, sp._SPAN - 1, sp._SPAN, sp._SPAN + 1, 2400])
@pytest.mark.parametrize("h", [0.05, -0.05, 0.0375])
@pytest.mark.parametrize("N", [5, 192, 256])
def test_grid_series_jet_is_the_weighted_cosine_table(request, N, h, n):
    # the grid kernel from the domain's edge, at the transport's step, the
    # step backwards and a partial step of frame_at, against the table at
    # the grid's points by the bound of test_series_jet_is_the_weighted_cosine_table
    pulse = _evaluate_case(request, N)
    K = 11
    x0 = -pulse.L_f if h > 0 else pulse.L_f
    got = sp._series_jet(pulse, x0, K, h, n).T
    rate = np.arange(1, N + 1) * np.pi / pulse.L_f
    scale = np.array([np.abs(pulse.a[1:]) @ (rate**j / math.factorial(j)) for j in range(K + 1)])
    assert got.shape == (n, K + 1)
    table = _table_jet(pulse, _grid_points(x0, h, n), K)
    assert np.all(np.abs(got - table) <= 1e-13 * (scale + abs(pulse.a[0])))
    # a grid whose last point leaves the domain
    over = math.floor(2 * pulse.L_f / abs(h)) + 2
    with pytest.raises(ValueError, match="outside the pulse domain"):
        sp._series_jet(pulse, x0, K, h, over)


def test_potential_jet_is_the_taylor_series(pulse_phi0):
    # one mode, phi = cos(w x): f'(phi)' = (2 nu - 6 phi) phi' with
    # phi' = -w sin(w x), and f'(phi)''/2 follows from phi'' = -w^2 phi
    single = make_pulse([0.0, 0.5])
    w, x = np.pi / single.L_f, 12.3
    phi, dphi, d2phi = np.cos(w * x), -w * np.sin(w * x), -w**2 * np.cos(w * x)
    p = sp.grid_potential_jet(single, x, 0.0, 1, 2)
    assert p.shape == (1, 3)
    p = p[0]
    assert p[0] == pytest.approx(nonlinearity_deriv(sp.evaluate(single, x), P), abs=1e-15)
    assert p[1] == pytest.approx((2 * P.nu - 6 * phi) * dphi, abs=1e-15)
    assert p[2] == pytest.approx(((2 * P.nu - 6 * phi) * d2phi - 6 * dphi**2) / 2, abs=1e-15)
    # a reference pulse: the order-9 Taylor sum is the potential a step away,
    # a point's one-point jet is its row of a grid's, and order 0 is the
    # potential of ``evaluate``'s values
    def potential(x):
        return nonlinearity_deriv(sp.evaluate(pulse_phi0, x), pulse_phi0.params)

    for x in (-30.0, 0.0, 1.24, 17.6):
        for h in (0.05, -0.05):
            grid = sp.grid_potential_jet(pulse_phi0, x, h, 2, 9)
            assert grid.shape == (2, 10)
            assert np.allclose(grid[0], sp.grid_potential_jet(pulse_phi0, x, 0.0, 1, 9)[0],
                               rtol=1e-13, atol=1e-17)
            assert np.polyval(grid[0, ::-1], h) == pytest.approx(potential(x + h), abs=1e-13)
            assert np.abs(grid[:, 0] - potential(x + h * np.arange(2))).max() <= 1e-15
    with pytest.raises(ValueError, match="outside the pulse domain"):
        sp.grid_potential_jet(single, 100.5, 0.0, 1, 3)


@pytest.mark.parametrize("mu,scale", [(0.05, 1.0), (0.20, 3.0)])
def test_converged_pulse_satisfies_stationary_ode(mu, scale):
    p = Params(nu=1.6, mu=mu)
    pulse = sp.newton_solve(sp.seed_from_normal_form(p, 0.0, N=256, scale=scale))
    x = np.linspace(-100, 100, 1501)
    u = sp.evaluate(pulse, x)
    # the series' even derivatives, term by term: d^2j/dx^2j of cos(r x)
    # is (-r^2)^j cos(r x)
    rate = np.arange(1, pulse.N + 1) * np.pi / pulse.L_f
    table = np.cos(np.multiply.outer(x, rate))
    u2 = 2.0 * table @ (-rate**2 * pulse.a[1:])
    u4 = 2.0 * table @ (rate**4 * pulse.a[1:])
    ode = -u4 - 2 * u2 - u + (1.6 * u**2 - u**3 - mu * u)
    assert np.abs(ode).max() < 1e-6


def test_save_load_round_trip(tmp_path):
    pulse = sp.newton_solve(sp.seed_from_normal_form(P, 0.0, N=48))
    path = tmp_path / "pulse.json"
    sp.save(pulse, path)
    back = sp.load(path)
    assert back.params == pulse.params
    assert back.phi == pulse.phi
    assert back.L_f == pulse.L_f
    assert back.N == pulse.N
    assert back.residual_norm == pulse.residual_norm
    assert np.array_equal(back.a, pulse.a)


def test_load_rechecks_the_residual(tmp_path):
    """Seeds and Newton solutions load back; coefficients that solve the
    equation worse than ``max(RESIDUAL_SLACK * stored, RESIDUAL_FLOOR)``
    do not."""
    path = tmp_path / "pulse.json"
    seed = sp.seed_from_normal_form(P, 0.0, N=48)
    for pulse in (seed, sp.newton_solve(seed)):
        sp.save(pulse, path)
        assert sp.load(path).residual_norm == pulse.residual_norm
    doc = json.loads(path.read_text())
    doc["coefficients"][3] += 1e-9
    path.write_text(json.dumps(doc))
    with pytest.raises(PulseFileError, match=r"residual sup-norm 1\.\d+e-09, stored"):
        sp.load(path)
    # the seed's residual (4e-3) against the slack factor on its stored value
    true = seed.residual_norm
    sp.save(seed, path)
    doc = json.loads(path.read_text())
    for stored, ok in ((true / 1.9, True), (true / 2.1, False)):
        doc["residual_norm"] = stored
        path.write_text(json.dumps(doc))
        if ok:
            sp.load(path)
        else:
            with pytest.raises(PulseFileError, match="do not solve the equation"):
                sp.load(path)


def test_load_rejects_truncated_file(tmp_path):
    pulse = sp.newton_solve(sp.seed_from_normal_form(P, 0.0, N=48))
    path = tmp_path / "pulse.json"
    sp.save(pulse, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(PulseFileError, match="line"):
        sp.load(path)


def test_load_rejects_a_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "pulse.json"
    path.write_text(json.dumps([1.6, 0.05]))
    with pytest.raises(PulseFileError, match="expected a JSON object at top level"):
        sp.load(path)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "pulse.json"
    path.write_text(json.dumps({"nu": 1.6, "mu": 0.05}))
    with pytest.raises(PulseFileError, match="phi"):
        sp.load(path)


def test_load_rejects_nonpositive_mu(tmp_path):
    doc = {
        "nu": 1.6,
        "mu": -0.05,
        "phi": 0.0,
        "L_f": 100.0,
        "N": 1,
        "coefficients": [0.0, 0.0],
        "residual_norm": 0.0,
    }
    path = tmp_path / "pulse.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PulseFileError, match="mu"):
        sp.load(path)


@pytest.mark.parametrize("N, coefficients", [(0, [0.5]), (-1, [])])
def test_load_rejects_degenerate_mode_count(tmp_path, N, coefficients):
    doc = {
        "nu": 1.6,
        "mu": 0.05,
        "phi": 0.0,
        "L_f": 100.0,
        "N": N,
        "coefficients": coefficients,
        "residual_norm": 0.0,
    }
    path = tmp_path / "pulse.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PulseFileError, match="N must be at least 1"):
        sp.load(path)


def test_load_rejects_wrong_coefficient_count(tmp_path):
    """N is derived from the coefficients, so `load` checks the file's N
    against their count itself and names both counts."""
    doc = {
        "nu": 1.6,
        "mu": 0.05,
        "phi": 0.0,
        "L_f": 100.0,
        "N": 4,
        "coefficients": [0.0, 0.0],
        "residual_norm": 0.0,
    }
    path = tmp_path / "pulse.json"
    for count in (2, 6):
        doc["coefficients"] = [0.0] * count
        path.write_text(json.dumps(doc))
        with pytest.raises(PulseFileError,
                           match=f"N = 4 needs 5 coefficients a_0..a_N, the file has {count}"):
            sp.load(path)


@pytest.mark.parametrize("field, value", [
    ("coefficients", [0.0, float("nan")]),
    ("coefficients", [float("inf"), 0.0]),
    ("L_f", float("inf")),
    ("residual_norm", float("nan")),
    ("nu", float("-inf")),
])
def test_load_rejects_non_finite_values(tmp_path, field, value):
    doc = {
        "nu": 1.6,
        "mu": 0.05,
        "phi": 0.0,
        "L_f": 100.0,
        "N": 1,
        "coefficients": [0.0, 0.0],
        "residual_norm": 0.0,
    }
    doc[field] = value
    path = tmp_path / "pulse.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PulseFileError, match="finite"):
        sp.load(path)


@pytest.mark.parametrize("field, value", [
    ("nu", True),
    ("nu", "1.6"),
    ("residual_norm", None),
    ("N", 1.5),
    ("N", True),
    ("N", "1"),
    ("coefficients", [0.0, "0.5"]),
    ("coefficients", [0.0, False]),
], ids=["nu=true", "nu=str", "residual_norm=null", "N=1.5", "N=true", "N=str",
        "coefficients=str", "coefficients=false"])
def test_load_rejects_values_of_the_wrong_type(tmp_path, field, value):
    doc = {
        "nu": 1.6,
        "mu": 0.05,
        "phi": 0.0,
        "L_f": 100.0,
        "N": 1,
        "coefficients": [0.0, 0.0],
        "residual_norm": 0.0,
    }
    doc[field] = value
    path = tmp_path / "pulse.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PulseFileError, match=f"{field} must be"):
        sp.load(path)


def test_load_rejects_integer_beyond_float_range(tmp_path):
    doc = {
        "nu": 10**400,
        "mu": 0.05,
        "phi": 0.0,
        "L_f": 100.0,
        "N": 1,
        "coefficients": [0.0, 0.0],
        "residual_norm": 0.0,
    }
    path = tmp_path / "pulse.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PulseFileError, match="too large"):
        sp.load(path)


def test_pulse_validation():
    with pytest.raises(ValueError):
        make_pulse([0.0, 0.0], L_f=-1.0)
    with pytest.raises(ValueError, match=r"1-D"):
        FourierPulse(params=P, phi=0.0, L_f=100.0, a=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        make_pulse([0.0, np.nan])
    with pytest.raises(ValueError, match="non-negative"):
        FourierPulse(params=P, phi=0.0, L_f=100.0, a=np.zeros(0))
