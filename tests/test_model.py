"""Vector field, linearization matrices, and asymptotic spectral data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from shpulse.model import (
    J4,
    Params,
    asymptotic_frames,
    coefficient_matrix,
    lambda_infinity_bound,
    nonlinearity_deriv,
    normal_form,
)

P = Params(nu=1.6, mu=0.05)

# Frozen from a 30-digit mpmath evaluation of the closed forms at (lam=0, mu=0.05).
R_EXPECTED = 1.0246950765959599
THETA_EXPECTED = 2.9216046761943338
ABSCISSA_EXPECTED = 0.11111947758147498
U0_EXPECTED = 0.22632648259027196  # 2*sqrt(2*0.05/gamma), gamma = 38*1.6^2/9 - 3


def test_params_validation():
    with pytest.raises(ValueError):
        Params(nu=1.6, mu=0.0)
    with pytest.raises(ValueError):
        Params(nu=1.6, mu=-0.1)


def f(u):
    """The nonlinearity f(u) = nu u^2 - u^3 - mu u at P."""
    return 1.6 * u**2 - u**3 - 0.05 * u


def test_nonlinearity_values():
    # f'(u) = 2 nu u - 3 u^2 - mu
    assert nonlinearity_deriv(0.0, P) == -0.05
    assert nonlinearity_deriv(1.0, P) == pytest.approx(0.15, abs=1e-15)
    assert nonlinearity_deriv(-1.0, P) == pytest.approx(-6.25, abs=1e-15)


def test_nonlinearity_deriv_is_derivative():
    u = np.linspace(-2, 2, 41)
    h = 1e-6
    fd = (f(u + h) - f(u - h)) / (2 * h)
    assert np.abs(fd - nonlinearity_deriv(u, P)).max() < 1e-8


def test_normal_form_amplitude():
    gamma = 38 * 1.6**2 / 9 - 3
    assert gamma == pytest.approx(7.808888888888891, abs=1e-12)
    assert normal_form(0.0, 0.0, P) == pytest.approx(U0_EXPECTED, abs=1e-15)
    assert normal_form(0.0, np.pi, P) == pytest.approx(-U0_EXPECTED, abs=1e-15)
    # evenness of both branches
    x = np.linspace(0.1, 30, 17)
    for phi in (0.0, np.pi):
        assert np.allclose(normal_form(x, phi, P), normal_form(-x, phi, P), atol=1e-15)


def test_normal_form_rejects_undefined_amplitude():
    # 38*nu^2/9 - 3 <= 0 for nu = 0.5
    with pytest.raises(ValueError):
        normal_form(0.0, 0.0, Params(nu=0.5, mu=0.05))


def test_coefficient_matrix_structure():
    B = coefficient_matrix(-0.05, 0.0)
    assert B[2, 0] == pytest.approx(-1.05)
    assert B[0].tolist() == [0, 0, 0, 1]
    assert B[1].tolist() == [0, 0, 1, -2]
    assert B[3].tolist() == [0, 1, 0, 0]
    assert coefficient_matrix(0.0, 1.0)[2, 0] == pytest.approx(-2.0)


@given(
    fp=st.floats(-5, 5, allow_nan=False),
    lam=st.floats(-1, 5, allow_nan=False),
)
def test_hamiltonian_structure_exact(fp, lam):
    # B^T J + J B = 0 is B = J C with C = -J B symmetric
    B = coefficient_matrix(fp, lam)
    assert np.array_equal(B.T @ J4 + J4 @ B, np.zeros((4, 4)))
    assert np.array_equal(J4 @ J4, -np.eye(4))
    assert np.array_equal(J4.T, -J4)


def test_asymptotic_matrix_entries_and_spectrum():
    B = coefficient_matrix(-P.mu, 0.0)
    assert B[2, 0] == pytest.approx(-1.05)
    ev = np.linalg.eigvals(B)
    assert max(ev.real) == pytest.approx(ABSCISSA_EXPECTED, abs=1e-12)
    # eigenvalues come in the quadruple {g, conj(g), -g, -conj(g)}
    for e in ev:
        assert min(abs(ev - np.conj(e))) < 1e-12
        assert min(abs(ev + e)) < 1e-12


@given(
    lam=st.floats(0, 10, allow_nan=False),
    mu=st.floats(0.001, 2.0, allow_nan=False),
)
@settings(max_examples=60)
def test_hyperbolicity(lam, mu):
    ev = np.linalg.eigvals(coefficient_matrix(-mu, lam))
    assert np.abs(ev.real).min() > 1e-10


def test_asymptotic_frames_closed_form_values():
    data = asymptotic_frames(0.0, P)
    assert data.r == pytest.approx(R_EXPECTED, abs=1e-15)
    assert data.theta == pytest.approx(THETA_EXPECTED, abs=1e-15)
    # the same numbers to the coarser precision they are usually quoted at
    assert data.r == pytest.approx(1.024695, abs=1e-5)
    assert data.theta == pytest.approx(2.9216, abs=1e-4)
    assert data.gamma1.real == pytest.approx(ABSCISSA_EXPECTED, abs=1e-14)
    assert 1.0 < data.r
    assert np.pi / 2 < data.theta < np.pi


def test_asymptotic_frames_reject_negative_lambda():
    with pytest.raises(ValueError):
        asymptotic_frames(-0.5, P)


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 2.5])
def test_asymptotic_frames_are_invariant_lagrangian_planes(lam):
    data = asymptotic_frames(lam, P)
    B = coefficient_matrix(-P.mu, lam)
    frame = data.unstable_frame
    # invariance: B*frame lies in span(frame)
    image = B @ frame
    coeffs, *_ = np.linalg.lstsq(frame, image, rcond=None)
    assert np.abs(image - frame @ coeffs).max() < 1e-12
    # the plane carries the growth of the eigenvalue pair
    assert np.all(np.linalg.eigvals(coeffs).real > 0)
    # Lagrangian: omega of the two columns vanishes
    assert abs(frame[:, 0] @ J4 @ frame[:, 1]) < 1e-13


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
def test_asymptotic_frames_match_eigensolver_subspace(lam):
    data = asymptotic_frames(lam, P)
    w, V = np.linalg.eig(coefficient_matrix(-P.mu, lam))
    vu = V[:, w.real > 0][:, 0]
    eig_frame = np.column_stack([vu.real, vu.imag])
    assert subspace_angles(data.unstable_frame, eig_frame).max() < 1e-8


def test_asymptotic_detA_bounded_away_from_zero():
    # rows (1,4) determinant of the unstable frame, over a lambda grid up to a
    # generous spectral bound; this is what rules out crossings at x = -inf
    for lam in np.linspace(0.0, 2.0, 101):
        data = asymptotic_frames(lam, P)
        F = data.unstable_frame
        det14 = F[0, 0] * F[3, 1] - F[0, 1] * F[3, 0]
        # closed form sin(theta/2)/r^(3/2), never zero for theta in (pi/2, pi)
        assert det14 == pytest.approx(
            np.sin(data.theta / 2) / data.r**1.5, abs=1e-14
        )
        assert det14 > 1e-6


def test_lambda_infinity_bound():
    assert lambda_infinity_bound([-0.05]) == pytest.approx(0.95)
    assert lambda_infinity_bound([-0.05, -0.05, -0.05]) == pytest.approx(0.95)
    assert lambda_infinity_bound([0.3]) == pytest.approx(1.3)
    with pytest.raises(ValueError):
        lambda_infinity_bound([])
