"""Shared fixtures: the three reference pulses, solved once per session.

The mode counts are chosen so the Fourier coefficient tail bottoms out
below the transport's noise level (``shooting.TRANSPORT_NOISE``, 1e-10, the
noise the trust horizon assumes for the plane).  A coarser series leaves
a truncation floor in the far tail of the pulse, and the transported
unstable plane — which carries the translation mode, an exponentially
decaying direction — detaches from its true orbit where that floor takes
over, producing spurious train crossings (N = 128 puts one at x ~ 37 for
the mu = 0.20 pulse and one at x ~ 78 for the mu = 0.05 pulses).
"""

import pytest

from shpulse.pulse import newton_solve, seed_from_normal_form
from shpulse.shooting import integrate_frame
from shpulse.verify import REFERENCE_PULSES


def _reference(name):
    ref = REFERENCE_PULSES[name]
    return newton_solve(seed_from_normal_form(
        ref["params"], ref["phi"], scale=ref["scale"], N=ref["N"]))


@pytest.fixture(scope="session")
def pulse_phi0():
    """phi = 0 pulse at (nu, mu) = (1.6, 0.05): one unstable eigenvalue."""
    return _reference("phi0")


@pytest.fixture(scope="session")
def pulse_phipi():
    """phi = pi pulse at (nu, mu) = (1.6, 0.05): two unstable eigenvalues."""
    return _reference("phipi")


@pytest.fixture(scope="session")
def pulse_snaking():
    """phi = 0 pulse at (nu, mu) = (1.6, 0.20), seeded at 3x: stable."""
    return _reference("snaking")


@pytest.fixture(scope="session")
def traj_phi0(pulse_phi0):
    """Unstable-plane trajectory of the phi = 0 pulse over [-60, 60]."""
    return integrate_frame(pulse_phi0, lam=0.0)


@pytest.fixture(scope="session")
def traj_phipi(pulse_phipi):
    """Unstable-plane trajectory of the phi = pi pulse over [-60, 60]."""
    return integrate_frame(pulse_phipi, lam=0.0)


@pytest.fixture(scope="session")
def traj_snaking(pulse_snaking):
    """Unstable-plane trajectory of the stable pulse over [-60, 60]."""
    return integrate_frame(pulse_snaking, lam=0.0)
