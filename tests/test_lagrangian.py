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
    # a frame that spans a line, or nothing, has no orthonormal frame
    for M in ([[1.0, 2.0], [0, 0], [0, 0], [0, 0]], np.zeros((4, 2))):
        with pytest.raises(ValueError, match="rank-deficient"):
            lg._orthonormal(M)


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
    with pytest.raises(lg.TransversalityError, match="condition number"):
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
    with pytest.raises(ValueError, match="order"):
        lg.quadratic_form(ell1, 0.0, V1_AT_0, 0)


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
@pytest.mark.parametrize("k", range(2, 9))
def test_fully_degenerate_crossing_of_any_order(k, num):
    """The graph of t^k diag(1, 2) crosses with a two-dimensional kernel
    whose forms vanish below order k; the order-k form has eigenvalues
    -k! (2, 1).  On 1000 samples the crossing lies between two samples and
    only the dip search finds it, a little off zero, where the lower-order
    Taylor coefficients are small but not zero."""
    result = _maslov(_sandwich_graph(k), lg.sandwich_plane(), num=num)
    (c,) = result.crossings
    assert (c.order, c.kernel_dim, c.signature) == (k, 2, -2)
    assert result.index == (-2 if k % 2 else 0)
    assert c.value == pytest.approx(-2.0 * math.factorial(k), rel=1e-9)


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
    assert abs(result.crossings[0].t) < 1e-6


def test_maslov_endpoint_crossings_count_half():
    ell1, _ = lg.fixture_paths()
    sand = lg.sandwich_plane()
    left = _maslov(ell1, sand, a=0.0, b=1.0)
    assert left.index == -0.5
    assert left.crossings[0].endpoint == "left"
    right = _maslov(ell1, sand, a=-1.0, b=0.0)
    assert right.index == -0.5
    assert right.crossings[0].endpoint == "right"


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
