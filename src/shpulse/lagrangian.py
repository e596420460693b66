"""Lagrangian-plane geometry: frames, crossing forms, and the Maslov index.

A plane of dimension 2 in ``R^4`` is Lagrangian when the standard
symplectic form ``<u, J v>`` vanishes identically on it.  This module
represents planes by plain 4-by-2 float arrays (frames), a sequence of
planes by one ``(..., 4, 2)`` array, and a one-parameter family of planes
by its jet, a plain function ``(t, K) -> (K+1, 4, 2)`` array of the Taylor
coefficients of a frame at ``t``; every jet such a function returns is
checked for shape and finite entries where it is used.  It
provides the machinery needed to count how a family crosses a fixed
Lagrangian reference plane.  Every plane-versus-reference quantity is the
symplectic pairing ``R^T J Q`` of :func:`pairing` or its determinant, and
every orthonormal frame comes from the transport's Gram-Schmidt
(:func:`_orthonormalize`):

* crossing detector: ``det(R^T J Q)`` of orthonormal frames, by
  Cauchy-Binet the dot product ``plucker(Q) @ plucker(J4.T @ R)`` of unit
  Plücker vectors, which any frame gives; against the sandwich plane it is
  the coordinate ``P14``;
* crossing kernel: for orthonormal frames the singular values of the
  pairing are the sines of the principal angles between the planes, and the
  intersection is ``Q`` times its null space (:func:`intersection_basis`);
* graph form: near ``t0`` every plane of the family is the graph
  ``{v + A(t) v : v in ell(t0)}`` of a matrix family ``A(t)`` taking values
  in a complement ``W`` (``J ell(t0)`` unless a caller of
  :func:`quadratic_form` supplies another), with ``A(t0) = 0``; the
  order-``j`` crossing form on the intersection is the raw derivative
  ``d^j/dt^j pairing(A(t) V, V)`` at ``t0`` (no factorial normalisation),
  exactly ``j!`` times the j-th Taylor coefficient of ``A``, which one
  power-series solve gives from the family's jet at ``t0``, for every order
  at once.  The complement is transverse when the smallest singular value
  of the two planes' orthonormal frames side by side exceeds ``KERNEL_TOL``,
  and a vector lies in the plane when its distance from it is at most
  ``KERNEL_TOL`` times its length, so both tests, like the forms, see the
  planes and not the frames that span them;
* crossing search: :func:`locate_zeros` finds the zeros and the
  sign-preserving dips of a sampled crossing detector, and :func:`_itp`
  locates both a sign change of the detector and one of its slope across a
  dip, where the detector touches zero (an even-order crossing, or a
  regular one with a two-dimensional kernel); an end of the interval or
  the bottom of a dip is a crossing exactly when the crossing kernel
  (:func:`intersection_basis`) is not empty there, so every point the
  search keeps can be classified;
* Maslov index: by one rule, each isolated crossing contributes half the
  signs of its first nondegenerate form just after it, where the interval
  goes on, minus half its signs just before it, where the interval came
  from; the form of order m and signature sigma leaves with sigma and
  arrives with (-1)^m sigma.  So an interior crossing gives sigma at odd
  order and nothing at even order, a left end sigma/2, and a right end
  sigma/2 at odd order and -sigma/2 at even order, and the index over
  [a, b] is the index over [a, c] plus the index over [c, b].  The same
  computation counts the conjugate points of a pulse (:mod:`shpulse.conjugate`).

A crossing, classified on its own or inside a Maslov index, is one
:class:`Crossing` record.

The Plücker coordinates give a global chart, used for the crossing
detector and trajectory export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import J4


class CrossingError(RuntimeError):
    """A crossing violates the assumptions of the signature calculus."""


class NotACrossingError(ValueError):
    """The plane family does not meet the reference at the given parameter."""


# A one-parameter family of planes as its jet: ``path(t, K)`` is the
# ``(K+1, 4, 2)`` array of the Taylor coefficients ``F^(n)(t) / n!`` of any
# smooth frame ``F`` of the planes (the forms depend on the planes alone).
Family = Callable[[float, int], np.ndarray]


def _frame_matrix(frames, shape=(4, 2)) -> np.ndarray:
    """Validate 4-by-2 frames with finite entries; return them as floats.

    ``shape`` is the one shape accepted: by default exactly one frame, and
    with ``None`` one frame or any ``(..., 4, 2)`` stack of them.
    """
    M = np.asarray(frames, dtype=float)
    if M.shape[-2:] != (4, 2) or shape is not None and M.shape != shape:
        want = ("a 4-by-2 frame" if shape == (4, 2) else
                f"a {shape} stack of 4-by-2 frames" if shape else
                "a 4-by-2 frame or a (..., 4, 2) stack")
        raise ValueError(f"expected {want}, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("frame entries must be finite")
    return M


# ---------------------------------------------------------------------------
# Symplectic pairing with a reference plane
# ---------------------------------------------------------------------------

# The one tolerance of every incidence question, each asked of orthonormal
# frames so that no answer depends on a frame's scale.  At most KERNEL_TOL:
# the sine of a principal angle between a plane and the reference along an
# intersection direction (an angle of 1e-8 rad); |<r1, J r2>| of an
# orthonormal reference that counts as Lagrangian; the ratio of a
# rank-deficient frame's singular values; the distance of a vector in the
# plane from it, relative to its length; and the smallest singular value of
# a plane's and a complement's orthonormal frames side by side when the
# complement meets the plane, sqrt(2) sin(theta / 2) for their smallest
# principal angle theta.
KERNEL_TOL = 1e-8


def pairing(frames, reference) -> np.ndarray:
    """Symplectic pairing ``R^T J Q`` of a frame ``Q`` with a reference ``R``.

    ``frames`` is one 4-by-k frame or a stack ``(..., 4, k)``, ``reference``
    a 4-by-m frame; the result has shape ``(..., m, k)``, with entry (i, j)
    the symplectic form ``<r_i, J q_j>``.  For a Lagrangian ``R`` the
    pairing vanishes exactly on the intersection of the two spans, and for
    orthonormal frames its singular values are the sines of the principal
    angles between them.  When every entry of ``R^T J`` is 0 or +-1 (the
    coordinate planes) the pairing only selects and negates rows of ``Q``,
    so it is exact.
    """
    R = np.asarray(reference, dtype=float)
    Q = np.asarray(frames, dtype=float)
    if R.ndim != 2 or R.shape[0] != 4 or Q.ndim < 2 or Q.shape[-2] != 4:
        raise ValueError(
            f"pairing expects 4-row frames, got shapes {Q.shape} and {R.shape}")
    return R.T @ J4 @ Q


def _orthonormalize(M: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Two-column Gram-Schmidt with positive diagonal (same span and
    orientation as ``M``) of one 4-by-2 frame or a ``(..., 4, 2)`` stack,
    written into ``out`` of the same shape, which is returned.  A frame's
    bits do not depend on the stack it is in."""
    a, b = M[..., 0], M[..., 1]
    # fresh arrays, not in-place updates of the strided columns: a dot
    # product of two strided operands takes another kernel and other bits
    a = a / np.sqrt(np.vecdot(a, a))[..., None]
    b = b - np.vecdot(a, b)[..., None] * a
    out[..., 0] = a
    np.divide(b, np.sqrt(np.vecdot(b, b))[..., None], out=out[..., 1])
    return out


def _orthonormal(frame) -> np.ndarray:
    """:func:`_orthonormalize` of a 4-by-2 ``frame``.  One whose smaller
    singular value is at most ``KERNEL_TOL`` times the larger spans no plane
    and is a ValueError.  The frame is first scaled by the power of two that
    brings its largest singular value into [0.5, 1): the column norms are
    then neither overflowed nor underflowed squares, and the result keeps
    the bits of the unscaled Gram-Schmidt wherever those squares are normal
    floats."""
    M = _frame_matrix(frame)
    s = np.linalg.svd(M, compute_uv=False)
    if s[1] <= KERNEL_TOL * s[0]:
        raise ValueError(
            "a rank-deficient frame spans no plane, so it is not a Lagrangian plane")
    return _orthonormalize(np.ldexp(M, -np.frexp(s[0])[1]), np.empty((4, 2)))


def _reference_frame(reference) -> np.ndarray:
    """Orthonormal frame of a Lagrangian reference plane.

    ``J R`` spans the orthogonal complement of ``R`` only when ``R`` is
    Lagrangian, and the crossing detector and kernel rely on that, so any
    other reference is a ValueError, and so is a rank-deficient frame.
    """
    R = _orthonormal(reference)
    if abs(pairing(R, R)[0, 1]) > KERNEL_TOL:
        raise ValueError("the reference is not a Lagrangian plane")
    return R


# ---------------------------------------------------------------------------
# Plücker chart
# ---------------------------------------------------------------------------

PLUCKER_PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unnormalized Plücker coordinates ``a_i b_j - a_j b_i`` of two
    columns (or ``(..., 4)`` stacks of them), shape ``(..., 6)``."""
    i, j = np.array(PLUCKER_PAIRS).T
    return a[..., i] * b[..., j] - a[..., j] * b[..., i]


def plucker(frames) -> np.ndarray:
    """Unit-norm Plücker coordinates ``(P12, P13, P14, P23, P24, P34)``.

    Accepts one 4-by-2 frame or a stack of shape ``(..., 4, 2)`` and
    returns coordinates of shape ``(..., 6)``.  The overall sign is
    inherited from the column orientation of the frame; right-multiplying
    by a matrix with positive determinant leaves the result unchanged, a
    negative determinant flips it.  With singular values s1 >= s2 of a
    frame, ``|P| = s1 s2`` and ``|M|_F^2 = s1^2 + s2^2``, so the rank test
    ``|P| <= KERNEL_TOL |M|_F^2`` is :func:`_orthonormal`'s
    ``s2 <= KERNEL_TOL s1`` up to rounding: both refuse the same frames.
    """
    M = _frame_matrix(frames, None)
    P = _wedge(M[..., 0], M[..., 1])
    norm = np.linalg.norm(P, axis=-1, keepdims=True)
    if np.any(norm <= KERNEL_TOL * np.sum(M * M, axis=(-2, -1))[..., None]):
        raise ValueError("rank-deficient frame has no Plücker image")
    return P / norm


def sandwich_plane() -> np.ndarray:
    """Frame of the reference plane ``span{e2, e3}``."""
    M = np.zeros((4, 2))
    M[1, 0] = 1.0
    M[2, 1] = 1.0
    return M


# ---------------------------------------------------------------------------
# Graph coordinates and crossing forms
# ---------------------------------------------------------------------------


# Crossing-form eigenvalues divided by the order's factorial, the Taylor
# coefficients of the form, at or below this size count as zero.
FORM_DEGENERACY_TOL = 1e-6
# Highest crossing-form order evaluated before a crossing counts as
# degenerate beyond the classifier's reach.
MAX_FORM_ORDER = 9


def _jet(path: Family, t: float, K: int) -> np.ndarray:
    """The Taylor coefficients ``F_0..F_K`` of the family at ``t``, validated."""
    return _frame_matrix(path(t, K), (K + 1, 4, 2))


def _graph_forms(F: np.ndarray, W: np.ndarray, U: np.ndarray, t: float) -> np.ndarray:
    """Raw forms ``d^j/dt^j pairing(A(t) U, U)`` at ``t``, j = 0..K, from the
    jet ``F`` (shape ``(K+1, 4, 2)``); the result has shape ``(K+1, k, k)``.

    The graph map sends a column v of U to ``W w(s)`` with
    ``[F(s) | -W] (c(s); w(s)) = v``.  By powers of ``s - t``,
    ``S_0 z_0 = U`` and ``S_0 z_n = -sum_{i=1..n} F_i c_{n-i}`` with the one
    matrix ``S_0 = [F_0 | -W]``, and the order-j form is ``j! pairing(W w_j, U)``.
    A complement that meets the plane (``KERNEL_TOL``) is a ValueError.
    """
    if np.linalg.svd(np.hstack([_orthonormal(F[0]), _orthonormal(W)]),
                     compute_uv=False)[-1] <= KERNEL_TOL:
        raise ValueError(f"the complement meets the plane at t = {t:.6g}")
    S = np.hstack([F[0], -W])
    c, forms = [], []
    for j in range(len(F)):
        z = np.linalg.solve(S, -sum(F[i] @ c[j - i] for i in range(1, j + 1)) if j else U)
        c.append(z[:2])
        forms.append(math.factorial(j) * pairing(W @ z[2:], U))
    return np.array(forms)


def quadratic_form(path: Family, t0: float, v, order: int, W=None) -> float:
    """Raw crossing form ``Q_order(v) = d^order/dt^order <v, J A(t) v>``.

    ``v`` must lie in the plane at ``t0``: its distance ``|v - Q Q^T v|``
    from the plane, for an orthonormal frame ``Q`` of it, is at most
    ``KERNEL_TOL |v|``.  It is used as given, without normalisation.  ``W``
    must meet the plane only at 0: the smallest singular value of the two
    orthonormal frames side by side exceeds ``KERNEL_TOL``.  Either failure
    is a ValueError, and neither test depends on the scale of ``v`` or of
    ``W``.  The derivative is exact: ``order!`` times a Taylor
    coefficient of the graph map, solved from the family's jet at ``t0``.
    The value is invariant under symplectic transformations of the whole
    picture (path, vector and complement together).  The first-order form
    is independent of the choice of transverse complement ``W``; at higher
    orders the raw derivative picks up corrections from complements that
    mix the kernel with the moving directions, so results with a non-default
    ``W`` are only comparable for complements that keep those directions
    separate (the default ``J @ frame`` always qualifies).
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    v = np.asarray(v, dtype=float)
    F = _jet(path, t0, order)
    if v.shape != (4,):
        raise ValueError("vector must have length 4")
    W = J4 @ F[0] if W is None else _frame_matrix(W)
    Q = _orthonormal(F[0])
    if np.linalg.norm(v - Q @ (Q.T @ v)) > KERNEL_TOL * np.linalg.norm(v):
        raise ValueError("vector does not lie in the plane at t0")
    return float(_graph_forms(F, W, v[:, None], t0)[order, 0, 0])


def _intersection(frame, reference) -> tuple[np.ndarray, np.ndarray]:
    """Intersection basis of a plane with a Lagrangian reference and the
    descending sines of the two principal angles between them."""
    Q = _orthonormal(frame)
    _, sines, vt = np.linalg.svd(pairing(Q, _reference_frame(reference)))
    return Q @ vt[sines <= KERNEL_TOL].T, sines


def intersection_basis(frame, reference) -> np.ndarray:
    """Orthonormal basis (4-by-k) of the intersection of a plane with a
    Lagrangian reference plane.

    The basis is the orthonormalized frame times the right singular vectors
    of the pairing whose singular value, the sine of a principal angle, is at
    most ``KERNEL_TOL``; a transverse pair gives a 4-by-0 basis.
    """
    return _intersection(frame, reference)[0]


def _crossing_kernel(F0, t0: float, reference) -> tuple[np.ndarray, float]:
    """Crossing kernel of the plane ``F0`` at ``t0`` and the larger principal-angle sine."""
    U, sines = _intersection(F0, reference)
    if U.shape[1] == 0:
        raise NotACrossingError(f"the planes are transverse at t = {t0:.6g}: no crossing there")
    return U, float(sines[0])


@dataclass(frozen=True)
class Crossing:
    """One isolated crossing, classified by its first nondegenerate form.

    ``value`` is the extreme eigenvalue of the form matrix, on a
    one-dimensional kernel the form evaluated on the unit kernel vector.
    ``lower_orders`` records the largest absolute form eigenvalue for each
    order j below the reported one (each at most ``j!`` times the
    degeneracy tolerance by construction).  ``largest_sine`` is the larger
    sine of the two principal angles between the plane and the reference:
    it vanishes when the whole plane lies in the reference.
    :func:`maslov_index` fills in ``contribution``, the crossing's share of
    the index (``signature / 2`` where the interval goes on after it, minus
    ``(-1)^order signature / 2`` where the interval came before it), and
    ``endpoint`` ("left" or "right" for a crossing at an end of the
    interval); both stay None on a crossing classified alone.
    """

    t: float
    order: int
    value: float
    kernel_dim: int
    positive: int
    negative: int
    lower_orders: tuple[float, ...]
    largest_sine: float
    contribution: float | None = None
    endpoint: str | None = None

    @property
    def signature(self) -> int:
        return self.positive - self.negative


def crossing_form(path: Family, t0: float, reference) -> Crossing:
    """Classify a crossing by its first nondegenerate form.

    The kernel of the crossing is the intersection of the plane at ``t0``
    with the reference plane, orthonormalized.  For each order j the form
    matrix ``d^j/dt^j <u_a, J A(t) u_b>`` is evaluated on that basis with
    the complement ``J ell(t0)``, all orders through ``MAX_FORM_ORDER`` from
    one power-series solve of the family's jet at ``t0``.  The first order
    whose eigenvalues, divided by ``j!``, all clear ``FORM_DEGENERACY_TOL``
    determines the result; the reported values stay raw derivatives.  A
    form that is nonzero on part of the kernel only is outside the
    supported theory and raises CrossingError, as does full degeneracy
    through ``MAX_FORM_ORDER``.
    """
    F = _jet(path, t0, MAX_FORM_ORDER)
    U, largest_sine = _crossing_kernel(F[0], t0, reference)
    k = U.shape[1]
    forms = _graph_forms(F, J4 @ F[0], U, t0)

    lower: list[float] = []
    for order in range(1, MAX_FORM_ORDER + 1):
        G = 0.5 * (forms[order] + forms[order].T)
        eigenvalues = np.linalg.eigvalsh(G)
        coefficients = eigenvalues / math.factorial(order)
        p = int(np.sum(coefficients > FORM_DEGENERACY_TOL))
        q = int(np.sum(coefficients < -FORM_DEGENERACY_TOL))
        if p + q == 0:
            lower.append(float(np.max(np.abs(eigenvalues))))
            continue
        if p + q < k:
            raise CrossingError(
                f"partially degenerate crossing at t = {t0:.6g}: the order-{order} "
                f"form is nondegenerate on only part of the {k}-dimensional kernel, "
                "which the signature calculus does not cover"
            )
        value = float(eigenvalues[np.argmax(np.abs(eigenvalues))])
        return Crossing(
            t=float(t0), order=order, value=value, kernel_dim=k, positive=p,
            negative=q, lower_orders=tuple(lower), largest_sine=largest_sine,
        )
    raise CrossingError(
        f"crossing at t = {t0:.6g} is degenerate through order {MAX_FORM_ORDER}; "
        "inspect the family directly"
    )


def eigenvalue_motion(path: Family, t0: float, reference,
                      half_width: float = 0.3,
                      num: int = 61) -> tuple[np.ndarray, np.ndarray]:
    """Small eigenvalues of the kernel-projected graph flow near a crossing.

    Returns ``(ts, lams)`` where ``lams[i]`` holds the ascending eigenvalues
    of the restriction of ``J A(t)`` to the crossing kernel at ``ts[i]``
    (shape ``(num, kernel_dim)``).  These are the eigenvalue branches whose
    signs and derivatives the crossing forms summarize.
    """
    F0 = _jet(path, t0, 0)[0]
    U, _ = _crossing_kernel(F0, t0, reference)
    W = J4 @ F0
    ts = np.linspace(t0 - half_width, t0 + half_width, num)
    lams = np.empty((num, U.shape[1]))
    for i, t in enumerate(ts):
        G = _graph_forms(_jet(path, t, 0), W, U, t)[0]
        lams[i] = np.linalg.eigvalsh(0.5 * (G + G.T))
    return ts, lams


# ---------------------------------------------------------------------------
# Crossing search
# ---------------------------------------------------------------------------


def _itp(value_at: Callable[[float], float], lo: float, hi: float,
         dlo: float, dhi: float, tol: float) -> float:
    """Zero of ``value_at`` in ``[lo, hi]``, where its values ``dlo`` and
    ``dhi`` have opposite signs, by the ITP method (Oliveira & Takahashi,
    ACM Trans. Math. Softw. 47(1), 2020) with kappa1 = 0.2 / (hi - lo),
    kappa2 = 2 and n0 = 1: each probe is the regula falsi point, moved
    towards the midpoint by kappa1 width^2 and then kept within the
    distance of the midpoint that lets bisection still finish in time.
    Returns a probe that is exactly zero, or the midpoint of the first
    bracket narrower than ``tol``, after at most
    ``ceil(log2((hi - lo) / tol)) + 1`` probes."""
    kappa = 0.2 / (hi - lo)
    ulp = math.ulp(max(abs(lo), abs(hi)))
    # the brackets the budget allows end narrower than tol by a few roundings
    # of a probe, so that the last one that it allows ends the search
    goal = tol - 4.0 * ulp
    n_max = math.ceil(math.log2((hi - lo) / goal)) + 1
    j = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        reach = goal * 2.0 ** (n_max - j - 1) - 0.5 * (hi - lo)
        falsi = lo + dlo * (hi - lo) / (dlo - dhi)
        side = math.copysign(1.0, mid - falsi)
        # a shift below a rounding would probe an end of the bracket again
        shift = max(kappa * (hi - lo) ** 2, ulp)
        x = falsi + side * shift if shift <= abs(mid - falsi) else mid
        if abs(x - mid) > reach:
            x = mid - side * reach
        dx = value_at(x)
        if dx == 0.0:
            return x
        if (dx > 0.0) == (dlo > 0.0):
            lo, dlo = x, dx
        else:
            hi, dhi = x, dx
        j += 1
    return 0.5 * (lo + hi)


def locate_zeros(ts: np.ndarray, values: np.ndarray,
                 value_at: Callable[[float], float], tol: float,
                 dip_level: float) -> tuple[list[float], list[float]]:
    """Zeros and sign-preserving dips of a crossing detector sampled at ``ts``.

    Returns ``(zeros, dips)``.  ``zeros`` holds, in ascending order, the
    samples where the detector is exactly zero and one point per sign
    change between neighbouring samples, searched with ``value_at`` by
    :func:`_itp` from the two samples' values: a probe that is exactly zero,
    or else the midpoint of a bracket narrower than ``tol``.  ITP takes at
    most one probe more than bisection (30 from a 0.05 bracket to 1e-10,
    also where the detector vanishes like (t - c)^3, (t - c)^5, ... at a
    degenerate crossing) and a handful on a simple zero.  ``dips`` holds the
    interior samples where ``|value|`` has a local minimum without a sign
    change across it that is below ``dip_level`` or at most a quarter of its
    larger neighbour: candidate touches, which :func:`maslov_index` locates
    by the sign change of the detector's slope.  A touch of order 2m between
    two samples leaves the nearer one at most 3^(-2m) <= 1/9 of the sample
    beyond it, however far above ``dip_level`` it is: a regular crossing
    with a two-dimensional kernel, where the detector (the product of the
    two principal-angle sines) touches zero quadratically, is one.
    """
    zeros: list[float] = []
    for i in np.where(values == 0.0)[0]:
        zeros.append(float(ts[i]))
    for i in np.where(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]:
        zeros.append(_itp(value_at, float(ts[i]), float(ts[i + 1]),
                          float(values[i]), float(values[i + 1]), tol))

    absd, sign = np.abs(values), np.sign(values)
    mid = absd[1:-1]
    low = (mid < dip_level) | (mid <= 0.25 * np.maximum(absd[:-2], absd[2:]))
    dip = (low & (mid <= absd[:-2]) & (mid <= absd[2:])
           & (sign[:-2] == sign[2:]) & (values[1:-1] != 0.0))
    return sorted(zeros), np.asarray(ts, dtype=float)[1:-1][dip].tolist()


# ---------------------------------------------------------------------------
# Maslov index
# ---------------------------------------------------------------------------


# Relative size of |det| below which a local minimum of |det| is searched
# for a touch (a sign change of the detector's slope), and the
# location accuracy of both the zero search and the slope search.  Whether
# an end or a touch meets the reference is the kernel test of
# :func:`intersection_basis`, with ``KERNEL_TOL``.
DIP_TOL = 1e-6
REFINE_TOL = 1e-10


@dataclass(frozen=True)
class MaslovResult:
    """Maslov index with a per-crossing ledger."""

    crossings: tuple[Crossing, ...]

    @property
    def index(self) -> int | float:
        """The sum of the crossings' contributions, an int when it is whole.
        Every contribution is a multiple of 1/2, so the sum is exact."""
        total = sum(c.contribution for c in self.crossings)
        return int(total) if float(total).is_integer() else total


def maslov_index(path: Family, reference, ts, frames) -> MaslovResult:
    """Maslov index of the family against a Lagrangian reference plane on
    [ts[0], ts[-1]].

    ``frames`` holds the family's frames at the increasing samples ``ts``
    as one ``(len(ts), 4, 2)`` array.  The detector
    ``plucker(Q) @ plucker(J4.T @ R)``, by Cauchy-Binet ``det(R^T J Q)`` of
    orthonormal frames and so the signed product of the sines of the
    principal angles, is evaluated on that stack and searched by
    :func:`locate_zeros`: its zeros are located to ``REFINE_TOL`` through
    ``path``.  The detector touches zero without a sign change at an
    even-order crossing, and at a regular crossing with a two-dimensional
    kernel (a product of two sines that each change sign), so at each dip
    (a local minimum of ``|det|`` below ``DIP_TOL`` relative to the largest
    sample, or at most a quarter of its larger neighbour) the detector's
    slope, from the order-1 jet ``path(t, 1)``, is searched by
    :func:`_itp` for a sign change between the dip's neighbouring samples;
    the point found is kept when :func:`intersection_basis` finds the plane
    there meeting the reference, the kernel test that :func:`crossing_form`
    applies.  An end sample is an endpoint crossing by the same test, so an
    end whose smaller sine is above ``KERNEL_TOL`` is not counted, even
    where symmetry makes it an exact crossing: at the x = 0 corner of a
    half-line count the transported plane's error, not the geometry,
    decides whether the corner's half is in the index.
    Each crossing is classified with :func:`crossing_form` and contributes
    half its form's signs just after it minus half its signs just before
    it, each side counted only where it lies in the interval: of order m
    and signature sigma, ``sigma (after - (-1)^m before) / 2``.  An
    interior crossing gives sigma at odd order and 0 at even order, a left
    end sigma/2, and a right end (-1)^(m+1) sigma/2, so the index is
    additive: splitting the grid at one of its samples splits the index.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size < 2 or not np.all(np.diff(ts) > 0):
        raise ValueError("the sample grid must hold at least two increasing points")
    frames = _frame_matrix(frames, (ts.size, 4, 2))
    a, b = float(ts[0]), float(ts[-1])
    ref = plucker(J4.T @ _reference_frame(reference))

    def det_fn(t: float) -> float:
        return float(plucker(_jet(path, float(t), 0)[0]) @ ref)

    def slope_fn(t: float) -> float:
        # d/dt of (P . ref) / |P| with P = a ^ b and P' = a' ^ b + a ^ b'
        (a, b), (da, db) = _jet(path, float(t), 1).transpose(0, 2, 1)
        P, dP = _wedge(a, b), _wedge(da, b) + _wedge(a, db)
        norm = np.linalg.norm(P)
        return float(dP @ ref / norm - (P @ ref) * (P @ dP) / norm**3)

    dets = plucker(frames) @ ref
    scale = float(np.max(np.abs(dets)))
    if scale < 1e-12:
        raise CrossingError(
            "the family coincides with the reference plane on the whole "
            "interval; crossings are not isolated"
        )

    zeros, dips = locate_zeros(ts, dets, det_fn, REFINE_TOL, DIP_TOL * scale)
    crossing_ts = [t for t, F in ((a, frames[0]), (b, frames[-1]))
                   if intersection_basis(F, reference).shape[1]] + zeros
    for t in dips:
        i = int(np.searchsorted(ts, t))
        lo, hi = float(ts[i - 1]), float(ts[i + 1])
        slo, shi = slope_fn(lo), slope_fn(hi)
        if np.sign(slo) * np.sign(shi) < 0:
            touch = _itp(slope_fn, lo, hi, slo, shi, REFINE_TOL)
            if intersection_basis(_jet(path, touch, 0)[0], reference).shape[1]:
                crossing_ts.append(touch)

    crossing_ts.sort()
    merged: list[float] = []
    merge_tol = max(100.0 * REFINE_TOL, 1e-9 * (b - a))
    for t in crossing_ts:
        if not merged or t - merged[-1] > merge_tol:
            merged.append(min(max(t, a), b))

    records: list[Crossing] = []
    for t in merged:
        cf = crossing_form(path, t, reference)
        endpoint = ("left" if abs(t - a) <= merge_tol else
                    "right" if abs(t - b) <= merge_tol else None)
        # half the form's signs just after the crossing, where the interval
        # goes on, minus half its signs just before, where it came from: the
        # order-m eigenvalues leave with the signature's signs and arrive
        # with (-1)^m times them
        after, before = endpoint != "right", endpoint != "left"
        contribution = cf.signature * (after - (-1) ** cf.order * before) / 2
        records.append(replace(cf, contribution=contribution, endpoint=endpoint))
    return MaslovResult(crossings=tuple(records))


# ---------------------------------------------------------------------------
# Analytic fixture families
# ---------------------------------------------------------------------------


def polynomial_family(coeffs) -> Family:
    """The family ``t -> sum_m coeffs[m] t^m`` (``coeffs`` of shape
    ``(d+1, 4, 2)``) as an exact jet, the Taylor shift
    ``F_n = sum_{m >= n} C(m, n) t^(m-n) coeffs[m]`` (0 for ``n > d``).  An
    array ``t`` gives one jet per entry: ``path(ts, 0)[:, 0]`` samples a grid.
    """
    P = _frame_matrix(coeffs, (len(coeffs), 4, 2)).reshape(len(coeffs), 8)
    m = np.arange(len(P))
    binom = np.array([[math.comb(j, i) for j in m] for i in m], dtype=float)
    shift = np.maximum(m[None, :] - m[:, None], 0)

    def jet(t, K: int) -> np.ndarray:
        t = np.asarray(t, dtype=float)[..., None, None]
        n = min(K + 1, len(P))
        out = np.zeros(t.shape[:-2] + (K + 1, 8))
        out[..., :n, :] = (binom[:n] * t ** shift[:n]) @ P
        return out.reshape(t.shape[:-2] + (K + 1, 4, 2))

    return jet


def fixture_paths() -> tuple[Family, Family]:
    """Two analytic plane families with known crossings at the origin.

    Both consist of solutions ``exp(s B) F(0)`` of the linear flow
    ``q' = B q`` with

        B = [[0, 0, 1, 0], [0, 0, 0, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],

    so every crossing form has a closed form against which the numerics can
    be pinned.  ``B`` is nilpotent (``B^4 = 0``), so both families are cubic
    polynomials with exact jets.  The first family crosses ``span{e2, e3}``
    at ``t = 0`` with a regular (order-one) crossing; the second has a
    triply degenerate crossing there: its order-one and order-two forms
    vanish identically on the kernel and the order-three form is definite.
    """
    B = np.array([[0, 0, 1, 0], [0, 0, 0, 0], [0, -1, 0, 0], [-1, 0, 0, 0]], dtype=float)

    def flow(F0):
        return polynomial_family([np.linalg.matrix_power(B, m) @ F0 / math.factorial(m)
                                  for m in range(4)])

    return (flow(np.array([[0.0, 1.0], [1.0, 6.0], [2.0, 0.0], [0.0, 2.0]])),
            flow(np.array([[0.0, 1.0], [1.0, 6.0], [0.0, 0.0], [0.0, 0.0]])))
