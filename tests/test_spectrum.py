"""Parity-split Jacobian spectrum and unstable-eigenvalue counting."""

from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import toeplitz

from shpulse.model import Params
from shpulse.pulse import (FourierPulse, NewtonError, newton_solve,
                           parity_blocks, residual, seed_from_normal_form)
from shpulse.spectrum import count_unstable


def folded_full_jacobian(a_half, p, L_f):
    """The full (2N+1)-square Jacobian at the even extension of ``a_half``
    and its fold onto the even and odd vectors.

    dF_k/da_j = lin_k delta_{kj} + w[k-j] with w = 2 nu a - 3 (a*a) on the
    offsets -2N..2N, assembled with one Toeplitz matrix; substituting
    b_{-j} = +-b_j adds or subtracts the mirrored columns.  This is the
    reference that `parity_blocks` must reproduce entry for entry.
    """
    N = a_half.size - 1
    a = np.r_[a_half[:0:-1], a_half]
    w = 2.0 * p.nu * np.concatenate([np.zeros(N), a, np.zeros(N)]) - 3.0 * np.convolve(a, a)
    k = np.arange(-N, N + 1)
    lin = -p.mu - (1.0 - (k * np.pi / L_f) ** 2) ** 2
    J = np.diag(lin) + toeplitz(w[2 * N:], w[2 * N::-1])
    mirror = J[N:, :N][:, ::-1]  # columns -1, -2, ..., -N
    even = J[N:, N:].copy()
    even[:, 1:] += mirror
    odd = J[N + 1:, N + 1:] - mirror[1:]
    return J, even, odd


@pytest.mark.parametrize("N", [1, 2, 12])
def test_parity_blocks_equal_the_folded_jacobian_bitwise(N):
    rng = np.random.default_rng(N)
    p, L_f = Params(nu=1.6, mu=0.05), 20.0
    for _ in range(3):
        a = rng.normal(scale=0.3, size=N + 1)
        _, even_ref, odd_ref = folded_full_jacobian(a, p, L_f)
        even, odd = parity_blocks(a, p, L_f)
        assert even.shape == (N + 1, N + 1) and odd.shape == (N, N)
        assert np.array_equal(even, even_ref)
        assert np.array_equal(odd, odd_ref)


def test_parity_blocks_of_reference_pulses_bitwise(pulse_phi0, pulse_phipi,
                                                   pulse_snaking):
    for pulse in (pulse_phi0, pulse_phipi, pulse_snaking):
        _, even_ref, odd_ref = folded_full_jacobian(pulse.a, pulse.params, pulse.L_f)
        even, odd = parity_blocks(pulse.a, pulse.params, pulse.L_f)
        assert np.array_equal(even, even_ref)
        assert np.array_equal(odd, odd_ref)


def test_parity_blocks_split_the_full_spectrum(monkeypatch):
    rng = np.random.default_rng(7)
    p, L_f, N = Params(nu=1.6, mu=0.05), 20.0, 12
    seed = FourierPulse(params=p, phi=0.0, L_f=L_f, a=rng.normal(scale=0.3, size=N + 1))
    even, odd = parity_blocks(seed.a, p, L_f)
    assert even.shape == (N + 1, N + 1) and odd.shape == (N, N)
    s = np.sqrt(np.r_[1.0, np.full(N, 2.0)])
    union = np.sort(np.r_[np.linalg.eigvalsh(s[:, None] * even / s[None, :]),
                          np.linalg.eigvalsh(odd)])
    J, _, _ = folded_full_jacobian(seed.a, p, L_f)
    assert np.abs(union - np.linalg.eigvalsh(J)).max() < 1e-12
    # the even block is the Jacobian of the half-vector residual (chain rule
    # through the even extension) and is the matrix Newton steps with
    E = np.vstack([np.eye(N + 1)[:0:-1], np.eye(N + 1)])
    assert np.array_equal(even, J[N:] @ E)
    step = np.linalg.solve(even, -residual(seed.full(), p, L_f)[N:])
    stepped = replace(seed, a=seed.a + step)
    history = []
    monkeypatch.setattr("shpulse.pulse.MAX_ITER", 1)
    with pytest.raises(NewtonError):
        newton_solve(seed, tol=0.0, history=history)
    assert history[1] == np.abs(residual(stepped.full(), p, L_f)).max()


def test_unstable_counts_for_reference_pulses(pulse_phi0, pulse_phipi, pulse_snaking):
    r0 = count_unstable(pulse_phi0)
    assert len(r0.unstable) == 1
    assert r0.unstable[0] == pytest.approx(0.120898092768414, abs=1e-8)

    rpi = count_unstable(pulse_phipi)
    assert len(rpi.unstable) == 2
    assert rpi.unstable[0] == pytest.approx(0.005832115289870, abs=1e-8)
    assert rpi.unstable[1] == pytest.approx(0.117893284869419, abs=1e-8)

    assert count_unstable(pulse_snaking).unstable == []


def _block_eigenvalues(pulse):
    even, odd = parity_blocks(pulse.a, pulse.params, pulse.L_f)
    s = np.sqrt(np.r_[1.0, np.full(pulse.N, 2.0)])
    return np.linalg.eigvalsh(s[:, None] * even / s[None, :]), np.linalg.eigvalsh(odd)


def test_even_block_is_symmetrized_in_place_bitwise(monkeypatch, pulse_phi0,
                                                    pulse_phipi, pulse_snaking):
    """The in-place scaling gives the bits of s[:, None] * even / s[None, :],
    and so the same eigenvalues."""
    phipi512 = newton_solve(seed_from_normal_form(Params(nu=1.6, mu=0.05), np.pi, N=512))
    eigvalsh = np.linalg.eigvalsh
    for pulse in (pulse_phi0, pulse_phipi, pulse_snaking, phipi512):
        seen = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.copy()) or eigvalsh(m))
        rep = count_unstable(pulse)
        monkeypatch.undo()
        even, odd = parity_blocks(pulse.a, pulse.params, pulse.L_f)
        s = np.sqrt(np.r_[1.0, np.full(pulse.N, 2.0)])
        expected = s[:, None] * even / s[None, :]
        assert np.array_equal(seen[0], expected) and np.array_equal(seen[1], odd)
        ev = np.r_[eigvalsh(expected), eigvalsh(odd)]
        assert rep.unstable == sorted(ev[ev > rep.noise_floor].tolist())


def test_a_constant_state_has_no_spectrum_to_count():
    pulse = FourierPulse(params=Params(nu=1.6, mu=0.05), phi=0.0, L_f=20.0, a=[0.5])
    with pytest.raises(ValueError, match="the spectrum needs N >= 1 modes, got N = 0"):
        count_unstable(pulse)


def test_report_invariants(pulse_phi0):
    rep = count_unstable(pulse_phi0)
    assert {f.name for f in fields(rep)} == {"unstable", "zero_mode", "noise_floor"}
    assert all(u > rep.noise_floor for u in rep.unstable)
    ev_even, ev_odd = _block_eigenvalues(pulse_phi0)
    ev = np.r_[ev_even, ev_odd]
    assert rep.unstable == sorted(ev[ev > rep.noise_floor].tolist())
    # the floor is the translation mode's size or the backward-error bound
    bound = (pulse_phi0.N + 1) * np.finfo(float).eps * np.abs(ev).max()
    assert rep.noise_floor == max(abs(rep.zero_mode), bound)
    assert rep.noise_floor < 1e-10


def test_translation_zero_mode(pulse_phi0, pulse_phipi, pulse_snaking):
    for pulse in (pulse_phi0, pulse_phipi, pulse_snaking):
        rep = count_unstable(pulse)
        assert abs(rep.zero_mode) < 1e-6
        assert abs(rep.zero_mode) <= rep.noise_floor  # never counted
        # null vector of the differentiated translation orbit: b_k = k * a_k
        k = np.arange(-pulse.N, pulse.N + 1)
        b = k * pulse.full()
        b = b / np.linalg.norm(b)
        # rep.zero_mode is the odd-block eigenvalue whose eigenvector is b
        _, odd = parity_blocks(pulse.a, pulse.params, pulse.L_f)
        ev_odd, V = np.linalg.eigh(odd)
        i = int(np.argmax(np.abs(V.T @ b[pulse.N + 1:])))
        v = np.r_[-V[::-1, i], 0.0, V[:, i]]
        v = v / np.linalg.norm(v)
        assert min(np.linalg.norm(v - b), np.linalg.norm(v + b)) < 1e-6
        assert i == np.argmin(np.abs(ev_odd))
        assert rep.zero_mode == pytest.approx(ev_odd[i], abs=1e-12)
        # and it is an exact null vector of the truncated system's odd block
        assert np.linalg.norm(odd @ b[pulse.N + 1:]) < 1e-10


def test_positive_translation_eigenvalue_is_never_counted():
    """Off a solution the odd eigenvalue nearest zero can be large and
    positive; the floor is then that eigenvalue itself, so `e > floor`
    leaves it out without any index-based exclusion."""
    rng = np.random.default_rng(3)
    p, L_f, N = Params(nu=1.6, mu=0.05), 20.0, 12
    positive = 0
    for _ in range(8):
        pulse = FourierPulse(params=p, phi=0.0, L_f=L_f, a=rng.normal(scale=0.3, size=N + 1))
        rep = count_unstable(pulse)
        ev_even, ev_odd = _block_eigenvalues(pulse)
        ev = np.r_[ev_even, ev_odd]
        bound = (N + 1) * np.finfo(float).eps * np.abs(ev).max()
        assert rep.zero_mode == ev_odd[np.argmin(np.abs(ev_odd))]
        assert rep.noise_floor == max(abs(rep.zero_mode), bound)
        assert rep.unstable == sorted(ev[ev > rep.noise_floor].tolist())
        assert rep.zero_mode not in rep.unstable
        positive += rep.zero_mode > bound
    assert positive == 2


@pytest.mark.parametrize("mu", [0.02, 0.01])
def test_small_odd_eigenvalue_is_counted(mu):
    """On the phi = pi branch the odd unstable eigenvalue shrinks with mu
    (9.6e-6 at 0.02, 3.1e-9 at 0.01), below any fixed cut-off such as 1e-4,
    but it stays far above the noise floor, so the count is 2, the number of
    conjugate points."""
    pulse = newton_solve(seed_from_normal_form(Params(nu=1.6, mu=mu), np.pi,
                                               L_f=300.0, N=576))
    rep = count_unstable(pulse)
    assert len(rep.unstable) == 2
    assert rep.noise_floor < 1e-9 and 1e-9 < rep.unstable[0] < 1e-4
