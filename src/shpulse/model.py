"""Swift-Hohenberg vector field, linearization matrices, and x -> +-inf asymptotics.

Everything here is a pure function of scalar inputs. The spatial-dynamics
formulation writes the linearized eigenvalue problem as a first-order system
q' = B(x, lam) q on R^4 in the symplectic coordinates

    q = (u, u_xx, u_xxx + 2 u_x, u_x),

which is Hamiltonian: B^T J + J B = 0 with J the standard symplectic matrix
``J4``, so the flow preserves the symplectic form. The potential f'(phi(x))
enters B only through its scalar value, so this module never touches the
pulse representation itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Standard symplectic matrix on R^4: J = [[0, I2], [-I2, 0]].
J4 = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


@dataclass(frozen=True)
class Params:
    """Vector-field parameters (nu, mu) of f(u) = nu*u^2 - u^3 - mu*u.

    mu must be positive: f'(0) = -mu < 0 places the essential spectrum of the
    linearization strictly in the left half plane, which the whole conjugate
    point construction assumes.
    """

    nu: float
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive (got mu={self.mu})")


def nonlinearity_deriv(u, p: Params):
    """f'(u) = 2*nu*u - 3*u^2 - mu (vectorized in u)."""
    return 2.0 * p.nu * u - 3.0 * u**2 - p.mu


def normal_form(x, phi: float, p: Params):
    """Small-amplitude pulse approximation 2*sqrt(2*mu/gamma)*sech(x*sqrt(mu)/2)*cos(x+phi).

    gamma = 38*nu^2/9 - 3 must be positive for the amplitude to be defined;
    phi selects the branch (0 or pi for the symmetric pulses).
    """
    gamma = 38.0 * p.nu**2 / 9.0 - 3.0
    if gamma <= 0:
        raise ValueError(
            f"normal-form amplitude undefined: gamma = 38*nu^2/9 - 3 = {gamma:.6g} <= 0"
        )
    amp = 2.0 * np.sqrt(2.0 * p.mu / gamma)
    return amp / np.cosh(x * np.sqrt(p.mu) / 2.0) * np.cos(x + phi)


def coefficient_matrix(fprime_value: float, lam: float) -> np.ndarray:
    """Coefficient matrix B of q' = B q at a point where f'(phi(x)) = fprime_value."""
    fp = float(fprime_value)
    return np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, -2.0],
            [-lam - 1.0 + fp, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )


@dataclass(frozen=True)
class AsymptoticData:
    """Closed-form spectral data of B_inf(lam), the coefficient matrix with
    the potential at its tail value f'(0) = -mu.

    The eigenvalues are the quadruple {+-gamma1, +-conj(gamma1)} with
    gamma1 = sqrt(r)*exp(i*theta/2); (Ru1, Ru2) is a real basis of the
    unstable invariant plane, which is Lagrangian.
    """

    lam: float
    r: float
    theta: float
    Ru1: np.ndarray
    Ru2: np.ndarray

    @property
    def gamma1(self) -> complex:
        return np.sqrt(self.r) * np.exp(0.5j * self.theta)

    @property
    def unstable_frame(self) -> np.ndarray:
        return np.column_stack([self.Ru1, self.Ru2])


def asymptotic_frames(lam: float, p: Params) -> AsymptoticData:
    """Real eigenbasis of the unstable subspace of B_inf(lam).

    Writes the relevant root of the characteristic quartic as r*exp(i*theta)
    with r = sqrt(1 + lam + mu) and theta = pi - arctan(sqrt(lam + mu)), which
    pins the branch inside (pi/2, pi). The two vectors are the real and
    imaginary parts of the corresponding eigenvector, scaled as in the
    closed-form derivation (first component exp(-i*theta)/r).
    """
    if lam < 0:
        raise ValueError(f"asymptotic data requires lam >= 0 (got {lam})")
    r = np.sqrt(1.0 + lam + p.mu)
    theta = np.pi - np.arctan(np.sqrt(lam + p.mu))
    sr = np.sqrt(r)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ct, st = np.cos(theta), np.sin(theta)
    Ru1 = np.array([ct / r, 1.0, (2.0 / sr + sr) * c, c / sr])
    Ru2 = np.array([-st / r, 0.0, (sr - 2.0 / sr) * s, -s / sr])
    return AsymptoticData(lam=lam, r=r, theta=theta, Ru1=Ru1, Ru2=Ru2)


def lambda_infinity_bound(potential_samples) -> float:
    """Upper bound for eigenvalues of the half-line operator: max f'(phi(x)) plus margin.

    The linearization is ``-(1 + d^2/dx^2)^2 + f'(phi(x))`` and its
    fourth-order part is nonpositive, so every eigenvalue lies at or below
    the largest value of the potential; the +1.0 margin covers what the
    samples miss of it.  The conjugate report prints the bound as the top of
    the interval ``[0, bound]`` that holds every unstable eigenvalue; the
    counts themselves come from the eigensolve and the ``lam = 0`` transport.
    """
    samples = np.asarray(potential_samples, dtype=float)
    if samples.size == 0:
        raise ValueError("lambda_infinity_bound needs at least one potential sample")
    return float(samples.max()) + 1.0
