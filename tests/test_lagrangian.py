"""Tests for the Lagrangian-plane machinery.

The two analytic fixture families have closed-form crossing data, so every
numerical step (jets, the power-series graph solve, kernel extraction,
signature bookkeeping) is pinned against exact values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from shpulse import lagrangian as lg
from shpulse.model import J4

# Generator of the flow both fixture families solve: q' = B_FLOW q.
B_FLOW = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
])

V1_AT_0 = np.array([0.0, 1.0, 2.0, 0.0])
V2_AT_0 = np.array([1.0, 6.0, 0.0, 2.0])


def basis(i):
    e = np.zeros(4)
    e[i] = 1.0
    return e


def frame(path, t):
    """The family's frame at t, the first coefficient of its jet."""
    return path(t, 0)[0]


# ---------------------------------------------------------------------------
# symplectic form and frames
# ---------------------------------------------------------------------------


def test_omega_on_standard_basis():
    # the symplectic form omega(u, v) = <u, J v> is entry (i, j) of the
    # pairing, with u = r_i and v = q_j, so the pairing of the standard basis
    # with itself is J: <e1, J e3> = 1, <e3, J e1> = -1, <e2, J e4> = 1
    E = np.eye(4)
    assert np.array_equal(lg.pairing(E, E), J4)
    assert lg.pairing(E[:, [2]], E[:, [0]])[0, 0] == 1.0
    assert lg.pairing(E[:, [0]], E[:, [2]])[0, 0] == -1.0
    assert lg.pairing(E[:, [3]], E[:, [1]])[0, 0] == 1.0
    assert lg.pairing(E[:, [1]], E[:, [0]])[0, 0] == 0.0
    assert lg.pairing(E[:, [3]], E[:, [0]])[0, 0] == 0.0
    # a stack pairs frame by frame
    rng = np.random.default_rng(3)
    stack, R = rng.normal(size=(5, 4, 2)), rng.normal(size=(4, 2))
    P = lg.pairing(stack, R)
    assert P.shape == (5, 2, 2)
    for k in range(5):
        assert np.allclose(P[k], R.T @ J4 @ stack[k], rtol=0, atol=1e-14)


def test_omega_rejects_bad_shapes():
    E = np.eye(4)
    with pytest.raises(ValueError, match="4-row"):
        lg.pairing(np.eye(3), E)
    with pytest.raises(ValueError, match="4-row"):
        lg.pairing(E, np.ones(4))


def _qr_positive(M):
    """Reference orthonormalizer: numpy's thin QR of one frame or of each
    frame of a stack, with the diagonal of R made positive."""
    q, r = np.linalg.qr(M)
    s = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    return q * s[..., None, :], r * s[..., :, None]


def _random_lagrangian(rng):
    """Orthonormal frame of the image of the sandwich plane under a random
    symplectic map, a random Lagrangian plane."""
    S = rng.normal(size=(4, 4))
    q, _ = _qr_positive(expm(J4 @ (S + S.T)) @ lg.sandwich_plane())
    return q


def _detector(frames, reference):
    """The Maslov engine's crossing detector: unit Plücker vectors dotted."""
    return lg.plucker(frames) @ lg.plucker(J4.T @ reference)


@given(st.integers(0, 2**32 - 1))
def test_paired_detector_is_the_four_by_four_determinant(seed):
    # [J R, R] is a rotation for an orthonormal Lagrangian R, so the
    # detector det(R^T J Q) equals det [Q | R], sign included
    rng = np.random.default_rng(seed)
    Q, R = _random_lagrangian(rng), _random_lagrangian(rng)
    assert _detector(Q, R) == pytest.approx(
        np.linalg.det(np.hstack([Q, R])), rel=0, abs=1e-12)
    stack = np.stack([Q, _random_lagrangian(rng)])
    assert np.allclose(_detector(stack, R),
                       np.linalg.det(np.concatenate([stack, np.stack([R, R])], axis=-1)),
                       rtol=0, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_plucker_detector_is_the_paired_determinant(seed):
    # Cauchy-Binet: for any frame of the plane, and any frame of the
    # Lagrangian reference, the Plücker dot product is det(R^T J Q) of the
    # orthonormalized frames, by the reference QR or by Gram-Schmidt
    rng = np.random.default_rng(seed)
    M, R = rng.normal(size=(4, 2)), _random_lagrangian(rng) @ np.triu(
        rng.uniform(0.5, 2.0, size=(2, 2)))
    d = _detector(M, R)
    Rq = _qr_positive(R)[0]
    for Q in (_qr_positive(M)[0], lg._orthonormal(M)):
        assert abs(d - np.linalg.det(lg.pairing(Q, Rq))) <= 1e-14


def test_frame_validation_and_blocks():
    # the engine validates every jet a plain path returns: K + 1 frames
    sand = lg.sandwich_plane()
    with pytest.raises(ValueError, match="4-by-2"):
        lg.crossing_form(lambda t, K: np.zeros((3, 2)), 0.0, sand)
    with pytest.raises(ValueError, match=r"\(10, 4, 2\) stack of 4-by-2"):
        lg.crossing_form(lambda t, K: np.stack([sand, sand]), 0.0, sand)
    with pytest.raises(ValueError, match=r"\(2, 4, 2\) stack of 4-by-2"):
        lg.quadratic_form(lambda t, K: sand[None], 0.0, basis(1), 1)
    # finite on the grid, NaN between samples, where bisection evaluates it
    ell1, _ = lg.fixture_paths()
    ts = np.linspace(-1.0, 1.0, 10)
    frames = ell1(ts, 0)[:, 0]

    def holey(t, K):
        on_grid = np.any(np.abs(ts - t) < 1e-12)
        return ell1(t, K) if on_grid else np.full((K + 1, 4, 2), np.nan)

    with pytest.raises(ValueError, match="finite"):
        lg.maslov_index(holey, sand, ts, frames)
    with pytest.raises(ValueError, match="finite"):
        lg.maslov_index(ell1, sand, ts, np.where(ts[:, None, None] > 0.5, np.nan, frames))


def test_orthonormalized_keeps_span_and_sign():
    rng = np.random.default_rng(0)
    for M in rng.normal(size=(20, 4, 2)):
        Q = lg._orthonormal(M)
        R = Q.T @ M
        assert np.allclose(Q.T @ Q, np.eye(2), rtol=0, atol=1e-14)
        # Q R = M with R upper triangular, positive diagonal: same span, and
        # the change of basis keeps the orientation
        assert abs(R[1, 0]) <= 1e-14 and np.all(np.diag(R) > 0)
        assert np.allclose(Q @ np.triu(R), M, rtol=0, atol=1e-13)
        assert np.allclose(lg.plucker(Q), lg.plucker(M), rtol=0, atol=1e-14)
        # the factorization is unique, so it is the reference QR's
        Qr, Rr = _qr_positive(M)
        assert np.allclose(Q, Qr, rtol=0, atol=1e-14)
        assert np.allclose(np.triu(R), Rr, rtol=0, atol=1e-13)
        # the transport's in-place step gives the same bits
        out = np.empty((4, 2))
        assert lg._orthonormalize(M, out) is out and np.array_equal(out, Q)
    # a stack, with any leading axes, gets the bits of its frames one by one
    frames = rng.normal(size=(3, 5, 4, 2))
    stack = lg._orthonormalize(frames, np.empty_like(frames))
    assert np.array_equal(stack, np.array([lg._orthonormal(M) for M in
                                           frames.reshape(-1, 4, 2)]).reshape(frames.shape))
    # a frame that spans a line, or nothing, has no orthonormal frame
    for M in ([[1.0, 2.0], [0, 0], [0, 0], [0, 0]], np.zeros((4, 2))):
        with pytest.raises(ValueError, match="rank-deficient"):
            lg._orthonormal(M)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_orthonormal_of_a_huge_or_tiny_frame(scale):
    # squaring these columns would overflow or underflow; the frame is
    # scaled by a power of two first, so the result is e1, e2 exactly, and
    # the intersection with the sandwich plane is e2, not a zero basis
    frame = scale * np.eye(4)[:, :2]
    assert np.array_equal(lg._orthonormal(frame), np.eye(4)[:, :2])
    U = lg.intersection_basis(frame, lg.sandwich_plane())
    assert U.shape == (4, 1) and np.allclose(np.abs(U[:, 0]), [0, 1, 0, 0], rtol=0, atol=1e-15)


def test_fixture_families_solve_the_flow():
    ell1, ell2 = lg.fixture_paths()
    for path in (ell1, ell2):
        for s in np.linspace(-1.0, 1.0, 21):
            F, dF = path(s, 1)
            # full rank and isotropic span: a Lagrangian plane
            assert np.linalg.matrix_rank(F) == 2
            assert np.allclose(F.T @ J4 @ F, 0.0, atol=1e-12)
            # the jet's first-order coefficient is the derivative B_FLOW F,
            # exactly up to the rounding of the 1/6 coefficient
            assert np.allclose(dF, B_FLOW @ F, rtol=0, atol=1e-14)
    assert np.array_equal(frame(ell1, 0.0)[:, 0], V1_AT_0)
    assert np.array_equal(frame(ell1, 0.0)[:, 1], V2_AT_0)


def test_polynomial_family_is_the_taylor_shift():
    # t^3 in one entry: at t = 0.5 the coefficients of (0.5 + s)^3 are
    # 0.125, 0.75, 1.5 and 1, and every coefficient past the degree is 0
    coeffs = np.zeros((4, 4, 2))
    coeffs[0] = lg.sandwich_plane()
    coeffs[3, 0, 0] = 1.0
    path = lg.polynomial_family(coeffs)
    F = path(0.5, 6)
    assert F.shape == (7, 4, 2)
    assert np.array_equal(F[:, 0, 0], [0.125, 0.75, 1.5, 1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(F[0], coeffs[0] + 0.125 * coeffs[3])
    assert not np.any(F[1:, 1:]) and not np.any(F[1:, 0, 1])
    assert path(0.5, 1).shape == (2, 4, 2)
    # a parameter array gives one jet per entry
    ts = np.array([-1.0, 0.25, 0.5])
    assert np.array_equal(path(ts, 2), np.stack([path(t, 2) for t in ts]))
    with pytest.raises(ValueError, match="stack of 4-by-2"):
        lg.polynomial_family(np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Plücker chart
# ---------------------------------------------------------------------------


def test_plucker_examples():
    P = lg.plucker(np.column_stack([basis(0), basis(1)]))
    assert np.allclose(P, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    P = lg.plucker(lg.sandwich_plane())
    assert np.allclose(P, [0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="rank"):
        lg.plucker(np.column_stack([basis(0), 3.0 * basis(0)]))
    with pytest.raises(ValueError, match="4-by-2"):
        lg.plucker(np.eye(6)[:, :3])


def test_plucker_norm_relation_and_orientation():
    rng = np.random.default_rng(11)
    for _ in range(50):
        M = rng.normal(size=(4, 2))
        P = lg.plucker(M)
        assert np.linalg.norm(P) == pytest.approx(1.0, abs=1e-12)
        # the image of a genuine plane satisfies the quadric relation
        assert P[0] * P[5] - P[1] * P[4] + P[2] * P[3] == pytest.approx(0.0, abs=1e-12)
        G = rng.normal(size=(2, 2))
        if abs(np.linalg.det(G)) < 1e-2:
            continue
        Q = lg.plucker(M @ G)
        if np.linalg.det(G) > 0:
            assert np.allclose(Q, P, atol=1e-11)
        else:
            assert np.allclose(Q, -P, atol=1e-11)


# ---------------------------------------------------------------------------
# graph coordinates
# ---------------------------------------------------------------------------


def test_graph_matrix_tangent_complement_fails():
    # a complement that meets the base plane makes the coordinates singular
    # near t0, which is exactly where the graph map is defined
    ell1, _ = lg.fixture_paths()
    with pytest.raises(ValueError, match="complement meets the plane at t = 0"):
        lg.quadratic_form(ell1, 0.0, V1_AT_0, 1, W=frame(ell1, 0.0))


# ---------------------------------------------------------------------------
# crossing forms
# ---------------------------------------------------------------------------


def test_first_order_form_on_raw_vector():
    ell1, _ = lg.fixture_paths()
    value = lg.quadratic_form(ell1, 0.0, V1_AT_0, 1)
    assert value == pytest.approx(-4.0, abs=1e-10)


@settings(deadline=None, max_examples=25)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_first_order_form_matches_flow_generator(c1, c2):
    # on the whole plane (not just the crossing kernel) the first-order form
    # equals omega(v, B v) for the generator of the family
    ell1, _ = lg.fixture_paths()
    v = c1 * V1_AT_0 + c2 * V2_AT_0
    expected = v @ J4 @ B_FLOW @ v
    value = lg.quadratic_form(ell1, 0.0, v, 1)
    assert value == pytest.approx(expected, abs=1e-7 * max(1.0, abs(expected)))


def test_form_rejects_vector_outside_plane():
    ell1, _ = lg.fixture_paths()
    with pytest.raises(ValueError, match="does not lie"):
        lg.quadratic_form(ell1, 0.0, basis(2), 1)
    # membership is the vector's distance from the plane relative to its
    # length, so a short vector off the plane is refused too
    with pytest.raises(ValueError, match="does not lie in the plane"):
        lg.quadratic_form(ell1, 0.0, 1e-9 * basis(0), 1)
    with pytest.raises(ValueError, match="order"):
        lg.quadratic_form(ell1, 0.0, V1_AT_0, 0)
    with pytest.raises(ValueError, match="vector must have length 4"):
        lg.quadratic_form(ell1, 0.0, V1_AT_0[:3], 1)


def test_form_independent_of_complement():
    ell1, ell2 = lg.fixture_paths()
    skew = np.array([
        [0.3, 0.0],
        [0.0, -0.2],
        [1.0, 0.0],
        [0.0, 1.0],
    ])
    q1_default = lg.quadratic_form(ell1, 0.0, V1_AT_0, 1)
    q1_skew = lg.quadratic_form(ell1, 0.0, V1_AT_0, 1, W=skew)
    assert abs(q1_default - q1_skew) < 1e-7
    e2 = basis(1)
    q3_default = lg.quadratic_form(ell2, 0.0, e2, 3)
    q3_skew = lg.quadratic_form(ell2, 0.0, e2, 3, W=skew)
    assert abs(q3_default - q3_skew) < 1e-7
    assert q3_default == pytest.approx(-2.0, abs=1e-8)
    # transversality is a test of the complement's plane, not of its frame's
    # scale: rescaled copies of the default complement give the same forms
    W1, W2 = J4 @ frame(ell1, 0.0), J4 @ frame(ell2, 0.0)
    for c in (1e-11, 1e11):
        assert lg.quadratic_form(ell1, 0.0, V1_AT_0, 1, W=c * W1) == pytest.approx(-4.0, abs=1e-10)
    assert lg.quadratic_form(ell2, 0.0, e2, 3, W=1e11 * W2) == pytest.approx(-2.0, abs=1e-8)


@pytest.mark.parametrize("seed", [2, 7, 19])
def test_form_symplectic_invariance(seed):
    ell1, ell2 = lg.fixture_paths()
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(4, 4))
    S = 0.5 * (S + S.T)
    Psi = expm(0.4 * J4 @ S)
    assert np.allclose(Psi.T @ J4 @ Psi, J4, atol=1e-12)
    for path, v, order, expected in (
        (ell1, V1_AT_0, 1, -4.0),
        (ell2, basis(1), 3, -2.0),
    ):
        moved = lambda s, K, p=path: Psi @ p(s, K)
        W0 = J4 @ frame(path, 0.0)
        value = lg.quadratic_form(moved, 0.0, Psi @ v, order, W=Psi @ W0)
        assert value == pytest.approx(expected, abs=1e-7)


def test_regular_crossing_classification():
    ell1, _ = lg.fixture_paths()
    cf = lg.crossing_form(ell1, 0.0, lg.sandwich_plane())
    assert cf.order == 1
    assert cf.kernel_dim == 1
    assert (cf.positive, cf.negative) == (0, 1)
    assert cf.signature == -1
    # on the unit kernel vector the form equals the eigenvalue slope
    assert cf.value == pytest.approx(-4.0 / 5.0, abs=1e-8)
    assert cf.lower_orders == ()
    assert (cf.contribution, cf.endpoint) == (None, None)
    # the kernel is the unit vector V1 / sqrt(5), the intersection basis
    U = lg.intersection_basis(frame(ell1, 0.0), lg.sandwich_plane())
    assert abs(U[:, 0] @ (V1_AT_0 / np.sqrt(5.0))) == pytest.approx(1.0, abs=1e-12)


def test_third_order_crossing_classification():
    _, ell2 = lg.fixture_paths()
    cf = lg.crossing_form(ell2, 0.0, lg.sandwich_plane())
    assert cf.order == 3
    assert cf.kernel_dim == 1
    assert (cf.positive, cf.negative) == (0, 1)
    assert cf.value == pytest.approx(-2.0, abs=1e-8)
    assert len(cf.lower_orders) == 2
    assert max(cf.lower_orders) < 1e-8


def test_crossing_form_requires_a_crossing():
    ell1, _ = lg.fixture_paths()
    with pytest.raises(lg.NotACrossingError, match="transverse"):
        lg.crossing_form(ell1, 0.7, lg.sandwich_plane())


HORIZONTAL = np.column_stack([basis(0), basis(1)])


def _graph_frame(a1, a2):
    """The graph of diag(a1, a2) over span{e1, e2}."""
    return np.array([
        [1.0, 0.0],
        [0.0, 1.0],
        [a1, 0.0],
        [0.0, a2],
    ])


def _graph_path(k1, k2):
    """Family given as the graph of diag(s^k1, s^k2) over span{e1, e2}."""
    coeffs = np.zeros((max(k1, k2) + 1, 4, 2))
    coeffs[0] = HORIZONTAL
    coeffs[k1, 2, 0] += 1.0
    coeffs[k2, 3, 1] += 1.0
    return lg.polynomial_family(coeffs)


def test_even_order_crossing_with_full_kernel():
    path = _graph_path(2, 2)
    cf = lg.crossing_form(path, 0.0, HORIZONTAL)
    assert cf.order == 2
    assert cf.kernel_dim == 2
    assert (cf.positive, cf.negative) == (2, 0)
    assert cf.value == pytest.approx(2.0, abs=1e-8)


def test_partially_degenerate_crossing_is_rejected():
    path = _graph_path(1, 2)
    with pytest.raises(lg.CrossingError, match="partially degenerate"):
        lg.crossing_form(path, 0.0, HORIZONTAL)


def test_fully_degenerate_crossing_is_rejected():
    path = _graph_path(10, 10)
    with pytest.raises(lg.CrossingError, match="degenerate through order 9"):
        lg.crossing_form(path, 0.0, HORIZONTAL)


def _sandwich_graph(k):
    """The graph of t^k diag(1, 2) over the sandwich plane."""
    sand = lg.sandwich_plane()
    coeffs = np.zeros((k + 1, 4, 2))
    coeffs[0] = sand
    coeffs[k] = (J4 @ sand) @ np.diag([1.0, 2.0])
    return lg.polynomial_family(coeffs)


@pytest.mark.parametrize("num", [1000, 1001])
@pytest.mark.parametrize("k", range(1, 9))
def test_fully_degenerate_crossing_of_any_order(k, num):
    """The graph of t^k diag(1, 2) crosses with a two-dimensional kernel
    whose forms vanish below order k; the order-k form has eigenvalues
    -k! (2, 1).  On 1000 samples the crossing lies between two samples and
    only the dip search finds it, a little off zero, where the lower-order
    Taylor coefficients are small but not zero.  At k = 1 the crossing is
    regular, but the detector, the product of the two sines, still touches
    zero quadratically without a sign change."""
    result = _maslov(_sandwich_graph(k), lg.sandwich_plane(), num=num)
    (c,) = result.crossings
    assert (c.order, c.kernel_dim, c.signature) == (k, 2, -2)
    assert result.index == (-2 if k % 2 else 0)
    assert c.value == pytest.approx(-2.0 * math.factorial(k), rel=1e-9)
    assert abs(c.t) <= lg.REFINE_TOL


def _sandwich_series(*diagonals):
    """The graph of sum_m t^(m+1) diag(diagonals[m]) over the sandwich plane."""
    sand = lg.sandwich_plane()
    return lg.polynomial_family([sand] + [(J4 @ sand) @ np.diag(d) for d in diagonals])


@pytest.mark.parametrize("num", [1000, 100, 40])
@pytest.mark.parametrize("diagonals, index, crossings", [
    ([(1.0, 2.0)], -2, [(0.0, 1, 2, -2)]),
    ([(1.0, 2.0), (3.0, 6.0)], 0, [(-1 / 3, 1, 2, 2), (0.0, 1, 2, -2)]),
    ([(1.0, 2.0), (0.0, 5.0)], -1, [(-0.4, 1, 1, 1), (0.0, 1, 2, -2)]),
], ids=["t*diag(1,2)", "(t+3t^2)diag(1,2)", "t*diag(1,2)+t^2*diag(0,5)"])
def test_regular_two_dimensional_crossing_between_samples(diagonals, index, crossings, num):
    """A regular crossing with a two-dimensional kernel at t = 0, between two
    samples of every grid here, next to another crossing of the same family:
    the detector touches zero there, so only the dip search finds it."""
    result = _maslov(_sandwich_series(*diagonals), lg.sandwich_plane(), num=num)
    assert result.index == index
    assert len(result.crossings) == len(crossings)
    for c, (t, order, dim, signature) in zip(result.crossings, crossings):
        assert (c.order, c.kernel_dim, c.signature) == (order, dim, signature)
        assert c.t == pytest.approx(t, abs=1e-8)


# ---------------------------------------------------------------------------
# eigenvalue motion
# ---------------------------------------------------------------------------


def test_eigenvalue_branch_matches_cubic():
    _, ell2 = lg.fixture_paths()
    ts, lams = lg.eigenvalue_motion(ell2, 0.0, lg.sandwich_plane())
    assert lams.shape == (len(ts), 1)
    assert np.max(np.abs(lams[:, 0] + ts**3 / 3.0)) < 1e-8


def test_eigenvalue_branch_slope():
    ell1, _ = lg.fixture_paths()
    ts, lams = lg.eigenvalue_motion(ell1, 0.0, lg.sandwich_plane(),
                                    half_width=0.01, num=5)
    d = ts[1] - ts[0]
    slope = (lams[0, 0] - 8 * lams[1, 0] + 8 * lams[3, 0] - lams[4, 0]) / (12 * d)
    assert slope == pytest.approx(-4.0 / 5.0, abs=1e-8)


def test_eigenvalue_branch_changes_sign_at_odd_crossing():
    # spectral-flow consistency: the branch is positive before the crossing
    # and negative after it, matching the -1 contribution to the index
    _, ell2 = lg.fixture_paths()
    ts, lams = lg.eigenvalue_motion(ell2, 0.0, lg.sandwich_plane())
    assert np.all(lams[ts < -0.05, 0] > 0.0)
    assert np.all(lams[ts > 0.05, 0] < 0.0)


def test_eigenvalue_motion_requires_a_crossing():
    ell1, _ = lg.fixture_paths()
    with pytest.raises(lg.NotACrossingError):
        lg.eigenvalue_motion(ell1, 0.7, lg.sandwich_plane())


def test_intersection_basis_dimensions():
    ell1, _ = lg.fixture_paths()
    sand = lg.sandwich_plane()
    U = lg.intersection_basis(frame(ell1, 0.0), sand)
    assert U.shape == (4, 1)
    assert abs(U[:, 0] @ (V1_AT_0 / np.sqrt(5.0))) == pytest.approx(1.0, abs=1e-12)
    assert lg.intersection_basis(sand, sand).shape == (4, 2)
    assert lg.intersection_basis(frame(ell1, 0.7), sand).shape == (4, 0)


def _stacked_svd_intersection(frame, reference, tol=1e-8):
    """The intersection of two spans from the SVD of the stacked 4-by-4
    ``[A | -B]`` of their orthonormal frames, re-orthonormalized."""
    A, _ = _qr_positive(frame)
    B, _ = _qr_positive(reference)
    _, sv, vt = np.linalg.svd(np.hstack([A, -B]))
    small = sv <= tol * sv[0]
    if not np.any(small):
        return np.zeros((4, 0))
    basis, _ = _qr_positive(A @ vt[small].T[:2])
    return basis


@pytest.mark.parametrize("t", [0.0, 1e-3, 0.7])
def test_intersection_basis_is_the_stacked_svd_intersection(t):
    ell1, ell2 = lg.fixture_paths()
    sand = lg.sandwich_plane()
    cases = [(frame(ell1, t), sand), (frame(ell2, t), sand), (sand, sand),
             (HORIZONTAL, HORIZONTAL), (_graph_frame(np.sin(t), np.sin(t)), HORIZONTAL)]
    for plane, reference in cases:
        U = lg.intersection_basis(plane, reference)
        old = _stacked_svd_intersection(plane, reference)
        assert U.shape == old.shape
        assert np.allclose(U.T @ U, np.eye(U.shape[1]), rtol=0, atol=1e-14)
        assert np.allclose(U @ U.T, old @ old.T, rtol=0, atol=1e-12)


def test_rank_deficient_frame_is_not_completed():
    # a frame that spans the line span{e1} is refused, not completed to some
    # plane through it that the caller never gave
    line = [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="rank-deficient"):
        lg.intersection_basis(line, lg.sandwich_plane())
    with pytest.raises(ValueError, match="rank-deficient"):
        lg.intersection_basis(np.column_stack([basis(1), basis(1) + 1e-9 * basis(2)]),
                              lg.sandwich_plane())


def test_detector_and_classifier_refuse_the_same_frames():
    # one rank threshold, KERNEL_TOL on s2 / s1: a frame below it has no
    # Plücker image and no orthonormal frame, one above it has both
    thin = [[1.0, 1.0], [0.0, 1e-10], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="rank-deficient"):
        lg.plucker(thin)
    with pytest.raises(ValueError, match="rank-deficient"):
        lg._orthonormal(thin)
    with pytest.raises(ValueError, match="rank-deficient"):
        lg.intersection_basis(thin, lg.sandwich_plane())
    wide = [[1.0, 1.0], [0.0, 1e-6], [0.0, 0.0], [0.0, 0.0]]
    assert np.array_equal(lg.plucker(wide), lg.plucker(lg._orthonormal(wide)))


def test_non_lagrangian_reference_is_rejected():
    ell1, _ = lg.fixture_paths()
    # span{e1, e3} carries <e1, J e3> = 1: J R is not its complement; the
    # line span{e2}, with or without a zero first column, spans no plane,
    # and Gram-Schmidt would divide by rounding noise or by zero
    tilted = np.column_stack([basis(0), basis(2)])
    line = np.column_stack([basis(1), 2.0 * basis(1)])
    zero_first = np.column_stack([np.zeros(4), basis(1)])
    for reference in (tilted, line, zero_first):
        with pytest.raises(ValueError, match="not a Lagrangian plane"):
            lg.intersection_basis(frame(ell1, 0.0), reference)
        with pytest.raises(ValueError, match="not a Lagrangian plane"):
            lg.crossing_form(ell1, 0.0, reference)
        with pytest.raises(ValueError, match="not a Lagrangian plane"):
            _maslov(ell1, reference)


# ---------------------------------------------------------------------------
# Maslov index
# ---------------------------------------------------------------------------


def _maslov(path, reference, a=-1.0, b=1.0, num=1001):
    ts = np.linspace(a, b, num)
    return lg.maslov_index(path, reference, ts, path(ts, 0)[:, 0])


def test_maslov_index_regular_fixture():
    ell1, _ = lg.fixture_paths()
    result = _maslov(ell1, lg.sandwich_plane())
    assert result.index == -1
    assert len(result.crossings) == 1
    record = result.crossings[0]
    assert record.t == pytest.approx(0.0, abs=1e-8)
    assert record.order == 1
    assert record.contribution == -1.0
    assert record.endpoint is None


def test_maslov_index_third_order_fixture():
    _, ell2 = lg.fixture_paths()
    result = _maslov(ell2, lg.sandwich_plane())
    assert result.index == -1
    assert len(result.crossings) == 1
    assert result.crossings[0].order == 3
    assert result.crossings[0].contribution == -1.0


@pytest.mark.parametrize("num", [1001, 1000])
def test_maslov_even_order_crossing_contributes_nothing(num):
    # with an odd grid count the node hits the crossing exactly; with an
    # even count the dip search has to find it between nodes
    path = _graph_path(2, 2)
    result = _maslov(path, HORIZONTAL, num=num)
    assert result.index == 0
    assert len(result.crossings) == 1
    assert result.crossings[0].order == 2
    assert result.crossings[0].contribution == 0.0
    assert abs(result.crossings[0].t) <= lg.REFINE_TOL


@pytest.mark.parametrize("eps, dips, touches",
                         [(1e-7, 1, 0), (1e-10, 1, 1), (1e-5, 2, 0), (1e-10, 2, 1)])
def test_maslov_dip_is_a_touch_only_where_the_kernel_is_not_empty(eps, dips, touches):
    """The graph of diag(t^4 + eps, 1) over span{e1, e2} (``dips = 1``), or
    of (t^4 + eps) I (``dips = 2``), dips towards the reference between two
    samples of a 1000-point grid, without a sign change.  The slope search
    finds the bottom at t = 0, and it is a crossing (an order-4 touch with a
    ``dips``-dimensional kernel, contributing nothing) only when
    :func:`intersection_basis` finds a kernel there: when the principal-angle
    sine eps / sqrt(1 + eps^2) is at most KERNEL_TOL.  With (t^4 + 1e-5) I,
    |det| = 1e-10 at the bottom is far below 1e-8 times its largest sample
    while both sines are 1e-5: a test on |det| would keep a point that
    :func:`crossing_form` refuses.  Minimising |det| locates this bottom only
    to about 1e-7: |det| is flat to rounding there."""
    coeffs = np.zeros((5, 4, 2))
    coeffs[0] = HORIZONTAL
    coeffs[0, 2, 0] = eps
    coeffs[0, 3, 1] = eps if dips == 2 else 1.0
    coeffs[4, 2, 0] = 1.0
    coeffs[4, 3, 1] = 1.0 if dips == 2 else 0.0
    result = _maslov(lg.polynomial_family(coeffs), HORIZONTAL, num=1000)
    assert result.index == 0
    assert [(c.order, c.kernel_dim) for c in result.crossings] == [(4, dips)] * touches
    assert all(abs(c.t) <= lg.REFINE_TOL for c in result.crossings)


@pytest.mark.parametrize("delta, crossings", [(1e-5, 0), (1e-9, 1)])
def test_maslov_end_is_a_crossing_only_where_the_kernel_is_not_empty(delta, crossings):
    """The graph of (t + delta) I over span{e1, e2} on [0, 1] starts at
    the sines delta / sqrt(1 + delta^2) from the reference.  The left end is
    a crossing, with a 2-dimensional kernel and the order-1 form 2 I giving
    half of +2, only when those sines are at most KERNEL_TOL; with
    delta = 1e-5 the end's |det| = 1e-10 is far below 1e-8 times its largest
    sample, yet the planes are transverse there."""
    coeffs = np.zeros((2, 4, 2))
    coeffs[0] = HORIZONTAL
    coeffs[0, 2:] = delta * np.eye(2)
    coeffs[1, 2:] = np.eye(2)
    result = _maslov(lg.polynomial_family(coeffs), HORIZONTAL, a=0.0, b=1.0, num=101)
    assert result.index == crossings
    assert [(c.t, c.endpoint, c.order, c.kernel_dim, c.signature, c.contribution)
            for c in result.crossings] == [(0.0, "left", 1, 2, 2, 1.0)] * crossings


def test_maslov_endpoint_crossings_count_half():
    ell1, _ = lg.fixture_paths()
    sand = lg.sandwich_plane()
    left = _maslov(ell1, sand, a=0.0, b=1.0)
    assert left.index == -0.5
    assert left.crossings[0].endpoint == "left"
    right = _maslov(ell1, sand, a=-1.0, b=0.0)
    assert right.index == -0.5
    assert right.crossings[0].endpoint == "right"


def _sandwich_touch(shift):
    """The graph of diag(t^2 + shift, 1) over the sandwich plane; at shift 0
    an order-2 touch at t = 0 with a one-dimensional kernel and signature -1."""
    sand = lg.sandwich_plane()
    J = J4 @ sand
    return lg.polynomial_family([sand + J @ np.diag([shift, 1.0]), 0 * sand,
                                 J @ np.diag([1.0, 0.0])])


# family and its index on [-1, 1]; every crossing is at t = 0
SPLIT_FAMILIES = {
    "ell1": (lg.fixture_paths()[0], -1),
    "ell2": (lg.fixture_paths()[1], -1),
    **{f"t^{k}*diag(1,2)": (_sandwich_graph(k), -2 if k % 2 else 0) for k in range(1, 8)},
    "diag(t^2,1)": (_sandwich_touch(0.0), 0),
}


@pytest.mark.parametrize("c", [0.0, 0.5])
@pytest.mark.parametrize("name", list(SPLIT_FAMILIES))
def test_maslov_index_adds_up_over_a_split_interval(name, c):
    """The index over [-1, 1] is the index over [-1, c] plus the index over
    [c, 1], with c a sample of both halves and of the whole grid.  At c = 0
    the crossing is the right end of one half and the left end of the
    other: its order-m form arrives with (-1)^m times its signature and
    leaves with the signature, so a right end of even order gives minus
    half the signature and the halves cancel."""
    (path, index), sand = SPLIT_FAMILIES[name], lg.sandwich_plane()
    left, right = np.linspace(-1.0, c, 501), np.linspace(c, 1.0, 501)
    whole, lo, hi = (lg.maslov_index(path, sand, ts, path(ts, 0)[:, 0])
                     for ts in (np.concatenate([left, right[1:]]), left, right))
    assert whole.index == index
    assert len(whole.crossings) == 1
    assert lo.index + hi.index == index
    if c == 0.0:
        (end,), (start,) = lo.crossings, hi.crossings
        assert (end.endpoint, start.endpoint) == ("right", "left")
        assert start.contribution == start.signature / 2
        assert end.contribution == (-1) ** (end.order + 1) * end.signature / 2


def test_a_right_end_touch_is_the_limit_of_its_neighbours():
    """On [-1, 0] the touch diag(t^2, 1) ends at its crossing, an order-2
    right end of signature -1, which gives 1/2: between the index 0 of
    diag(t^2 + 1e-4, 1), which never meets the reference, and the index 1
    of diag(t^2 - 1e-4, 1), which crosses once, at t = -0.01."""
    sand = lg.sandwich_plane()
    touch, above, below = (_maslov(_sandwich_touch(shift), sand, b=0.0)
                           for shift in (0.0, 1e-4, -1e-4))
    assert [(c.order, c.signature, c.endpoint) for c in touch.crossings] == [(2, -1, "right")]
    assert (touch.index, above.index, below.index) == (0.5, 0, 1)
    assert above.crossings == ()
    (c,) = below.crossings
    assert (c.order, c.signature, c.endpoint) == (1, 1, None)
    assert c.t == pytest.approx(-0.01, abs=1e-8)


def test_maslov_without_crossings():
    ell1, _ = lg.fixture_paths()
    result = _maslov(ell1, lg.sandwich_plane(), a=0.2, b=1.0)
    assert result.index == 0
    assert result.crossings == ()


def test_maslov_rejects_non_isolated_crossing():
    ref = np.column_stack([basis(1), basis(2)])
    with pytest.raises(lg.CrossingError, match="not isolated"):
        _maslov(lg.polynomial_family(ref[None]), ref)


def test_maslov_rejects_a_bad_sample_grid():
    ell1, _ = lg.fixture_paths()
    sand = lg.sandwich_plane()
    frames = ell1(np.array([0.0, 0.5]), 0)[:, 0]
    with pytest.raises(ValueError, match="increasing"):
        lg.maslov_index(ell1, sand, [0.5, 0.0], frames)
    with pytest.raises(ValueError, match="increasing"):
        lg.maslov_index(ell1, sand, [0.0], frames[:1])
    with pytest.raises(ValueError, match=r"\(2, 4, 2\) stack"):
        lg.maslov_index(ell1, sand, [0.0, 0.5], frames[:1])


# ---------------------------------------------------------------------------
# Zero search
# ---------------------------------------------------------------------------

# A zero c off the bracket's midpoint, where no probe lands on it exactly.
ZERO = 0.3721
DETECTORS = {
    "t": lambda t: t,
    "sin(40 t)": lambda t: math.sin(40.0 * t),
    "tanh(1e6 t)": lambda t: math.tanh(1e6 * t),
    "t^3": lambda t: t**3,
    "t^5": lambda t: t**5,
    "t^7": lambda t: t**7,
}
SIMPLE = {"t", "sin(40 t)"}


def _search(detector, lo, sign=1.0):
    """``locate_zeros`` on the 0.05 bracket [lo, lo + 0.05] to 1e-10, with the
    probes it took."""
    probes = []

    def value_at(t):
        probes.append(t)
        return sign * detector(t - ZERO)

    ts = np.array([lo, lo + 0.05])
    zeros, dips = lg.locate_zeros(ts, np.array([value_at(t) for t in ts]), value_at,
                                  1e-10, 0.0)
    return zeros, dips, probes[2:]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("offset", [0.0137, 0.0481, 0.0009])
@pytest.mark.parametrize("name", list(DETECTORS))
def test_locate_zeros_takes_at_most_one_probe_more_than_bisection(name, offset, sign):
    # bisection from 0.05 to 1e-10 takes 29 probes; ITP at most 30, also
    # where the zero is degenerate, and a handful where it is simple
    zeros, dips, probes = _search(DETECTORS[name], ZERO - offset, sign)
    assert dips == [] and len(zeros) == 1
    assert abs(zeros[0] - ZERO) <= 0.5e-10
    assert len(probes) <= 30
    if name in SIMPLE:
        assert len(probes) <= 10


def test_locate_zeros_returns_a_probe_that_is_exactly_zero():
    # a detector that vanishes on a whole interval: the first probe inside
    # it ends the search and is the zero
    zeros, _, probes = _search(lambda t: 0.0 if abs(t) < 1e-3 else math.copysign(1.0, t),
                               ZERO - 0.0137)
    assert zeros == [probes[-1]]
    assert abs(probes[-1] - ZERO) < 1e-3
    assert all(abs(t - ZERO) >= 1e-3 for t in probes[:-1])


def test_locate_zeros_keeps_the_samples_that_are_zero():
    probes = []
    ts = np.array([-0.1, 0.0, 0.05, 0.1])
    zeros, _ = lg.locate_zeros(ts, np.array([-1.0, 0.0, 0.02, -0.03]),
                               lambda t: probes.append(t) or 0.07 - t, 1e-10, 0.0)
    assert zeros[0] == 0.0 and abs(zeros[1] - 0.07) <= 0.5e-10
    assert all(0.05 < t < 0.1 for t in probes)


def _loop_dips(ts, values, dip_level):
    """The per-sample dip test, kept as the oracle of the vectorized one."""
    absd = np.abs(values)
    return [float(ts[i]) for i in range(1, len(values) - 1)
            if (absd[i] < dip_level or absd[i] <= 0.25 * max(absd[i - 1], absd[i + 1]))
            and absd[i] <= absd[i - 1] and absd[i] <= absd[i + 1]
            and np.sign(values[i - 1]) == np.sign(values[i + 1]) and values[i] != 0.0]


def _fixture_detector(path, reference, ts):
    return lg.plucker(path(ts, 0)[:, 0]) @ lg.plucker(J4.T @ reference)


@pytest.mark.parametrize("dip_level", [0.0, 1e-3, 0.5, np.inf])
def test_vectorized_dips_are_the_per_sample_test(dip_level):
    """The dips ``locate_zeros`` returns are the floats, in the order, of the
    per-sample test, on random detectors (with exact zeros, signed zeros,
    plateaus and minima at the end samples) and on fixture detectors."""
    rng = np.random.default_rng(25)
    ts = np.linspace(-1.0, 1.0, 1000)
    coarse = rng.integers(-3, 4, ts.size) * 0.25
    coarse[[0, -1]] = 0.0
    plateau = np.abs(np.round(np.sin(7.0 * ts), 1)) + 1e-4
    plateau[:3] = plateau[-3:] = 1e-6
    signed = np.where(rng.random(ts.size) < 0.5, -0.0, 0.0)
    signed[::7] = rng.standard_normal(signed[::7].size)
    ell1, ell2 = lg.fixture_paths()
    detectors = [rng.standard_normal(ts.size), coarse, plateau, -plateau, signed,
                 _fixture_detector(ell1, lg.sandwich_plane(), ts),
                 _fixture_detector(ell2, lg.sandwich_plane(), ts),
                 _fixture_detector(_graph_path(2, 2), HORIZONTAL, ts),
                 _fixture_detector(_graph_path(2, 4), HORIZONTAL, ts[::3])]
    found = 0
    for values in detectors:
        grid = ts[:values.size]
        _, dips = lg.locate_zeros(grid, values, lambda t: 1.0, 1e-10, dip_level)
        expected = _loop_dips(grid, values, dip_level)
        assert dips == expected
        assert all(type(t) is float for t in dips)
        found += len(dips)
    assert found > 0 or dip_level == 0.0
