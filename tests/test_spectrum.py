"""Parity-split Jacobian spectrum and unstable-eigenvalue counting."""

from dataclasses import replace

import numpy as np
import pytest

from shpulse.model import Params
from shpulse.pulse import (FourierPulse, NewtonError, jacobian, newton_solve,
                           parity_blocks, residual)
from shpulse.spectrum import count_unstable


def test_parity_blocks_split_the_full_spectrum():
    rng = np.random.default_rng(7)
    p, L_f, N = Params(nu=1.6, mu=0.05), 20.0, 12
    seed = FourierPulse(params=p, phi=0.0, L_f=L_f, N=N,
                        a=rng.normal(scale=0.3, size=N + 1), residual_norm=np.nan)
    even, odd = parity_blocks(seed.a, p, L_f)
    assert even.shape == (N + 1, N + 1) and odd.shape == (N, N)
    s = np.sqrt(np.r_[1.0, np.full(N, 2.0)])
    union = np.sort(np.r_[np.linalg.eigvalsh(s[:, None] * even / s[None, :]),
                          np.linalg.eigvalsh(odd)])
    J = jacobian(seed.full(), p, L_f)
    assert np.abs(union - np.linalg.eigvalsh(J)).max() < 1e-12
    # the even block is the Jacobian of the half-vector residual (chain rule
    # through the even extension) and is the matrix Newton steps with
    E = np.vstack([np.eye(N + 1)[:0:-1], np.eye(N + 1)])
    assert np.array_equal(even, J[N:] @ E)
    step = np.linalg.solve(even, -residual(seed.full(), p, L_f)[N:])
    stepped = replace(seed, a=seed.a + step)
    history = []
    with pytest.raises(NewtonError):
        newton_solve(seed, tol=0.0, max_iter=1, history=history)
    assert history[1] == np.abs(residual(stepped.full(), p, L_f)).max()


def test_unstable_counts_for_reference_pulses(pulse_phi0, pulse_phipi, pulse_snaking):
    r0 = count_unstable(pulse_phi0)
    assert r0.count == 1
    assert r0.unstable[0] == pytest.approx(0.120898092768414, abs=1e-8)

    rpi = count_unstable(pulse_phipi)
    assert rpi.count == 2
    assert rpi.unstable[0] == pytest.approx(0.005832115289870, abs=1e-8)
    assert rpi.unstable[1] == pytest.approx(0.117893284869419, abs=1e-8)

    assert count_unstable(pulse_snaking).count == 0


def test_report_invariants(pulse_phi0):
    rep = count_unstable(pulse_phi0)
    assert rep.eigenvalues.size == 2 * pulse_phi0.N + 1
    assert all(u > rep.threshold for u in rep.unstable)
    # spectrum of the symmetric Jacobian is real
    assert np.abs(rep.eigenvalues.imag).max() < 1e-12


def test_translation_zero_mode(pulse_phi0, pulse_phipi, pulse_snaking):
    for pulse in (pulse_phi0, pulse_phipi, pulse_snaking):
        rep = count_unstable(pulse)
        assert abs(rep.zero_mode) < 1e-6
        # null vector of the differentiated translation orbit: b_k = k * a_k
        k = np.arange(-pulse.N, pulse.N + 1)
        b = k * pulse.full()
        b = b / np.linalg.norm(b)
        v = rep.zero_mode_vector / np.linalg.norm(rep.zero_mode_vector)
        assert min(np.linalg.norm(v - b), np.linalg.norm(v + b)) < 1e-6
        # and it is an exact null vector of the truncated system
        J = jacobian(pulse.full(), pulse.params, pulse.L_f)
        assert np.linalg.norm(J @ b) < 1e-10


@pytest.mark.parametrize("threshold", [1e-5, 1e-4, 1e-3])
def test_count_invariant_across_thresholds(
    threshold, pulse_phi0, pulse_phipi, pulse_snaking
):
    assert count_unstable(pulse_phi0, threshold).count == 1
    assert count_unstable(pulse_phipi, threshold).count == 2
    assert count_unstable(pulse_snaking, threshold).count == 0
