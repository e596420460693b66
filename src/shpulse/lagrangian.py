"""Lagrangian-plane geometry: frames, crossing forms, and the Maslov index.

A plane of dimension 2 in ``R^4`` is Lagrangian when the standard
symplectic form ``<u, J v>`` vanishes identically on it.  This module
represents planes by plain 4-by-2 float arrays (frames), a sequence of
planes by one ``(..., 4, 2)`` array, and provides the machinery needed to
count how a one-parameter family of planes crosses a fixed Lagrangian
reference plane.  Every plane-versus-reference quantity is the symplectic
pairing ``R^T J Q`` of :func:`pairing`:

* crossing detector: the family meets the reference exactly where
  ``det2(pairing(Q, R))`` vanishes;
* crossing kernel: for orthonormal frames the singular values of the
  pairing are the sines of the principal angles between the planes, and the
  intersection is ``Q`` times its null space (:func:`intersection_basis`);
* graph form: near ``t0`` every plane of the family is the graph
  ``{v + A(t) v : v in ell(t0)}`` of a matrix family ``A(t)`` taking values
  in a complement ``W`` (``J ell(t0)`` unless a caller of
  :func:`quadratic_form` supplies another), with ``A(t0) = 0``; the
  order-``j`` crossing form on the intersection is the raw derivative
  ``d^j/dt^j pairing(A(t) V, V)`` at ``t0`` (no factorial normalisation),
  evaluated by central finite differences with Richardson extrapolation;
* crossing search: :func:`locate_zeros` finds the zeros and the
  sign-preserving dips of a sampled crossing detector;
* Maslov index: each isolated crossing contributes the signature of its
  first nondegenerate form when that order is odd, nothing when it is even,
  and boundary crossings are weighted by one half.  The same computation
  counts the conjugate points of a pulse (:mod:`shpulse.conjugate`).

The Plücker coordinates give a global chart used for trajectory export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from .model import J4


class TransversalityError(RuntimeError):
    """Graph coordinates broke down: the complement is nearly tangent."""


class CrossingError(RuntimeError):
    """A crossing violates the assumptions of the signature calculus."""


class NotACrossingError(ValueError):
    """The plane family does not meet the reference at the given parameter."""


def _frame_matrix(frame) -> np.ndarray:
    """Validate a 4-by-2 frame with finite entries; return it as floats."""
    M = np.asarray(frame, dtype=float)
    if M.shape != (4, 2):
        raise ValueError(f"frame must be 4-by-2, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("frame entries must be finite")
    return M


def _qr_positive(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR with the diagonal of R forced positive, of one matrix or of
    each matrix of a stack ``(..., m, n)``.

    The sign fix makes Q depend smoothly on a smoothly varying full-rank M,
    so determinants of orthonormalized frames keep their sign along a path.
    """
    q, r = np.linalg.qr(M)
    s = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    s[s == 0] = 1.0
    return q * s[..., None, :], r * s[..., :, None]


@dataclass(frozen=True, eq=False)
class LagrangianPath:
    """A one-parameter family of Lagrangian planes.

    ``frame_fn`` must return a 4-by-2 frame matrix for any parameter where
    the family is defined.  Derivative stencils may evaluate the family
    slightly beyond the sampled grid, so ``frame_fn`` should tolerate a
    small overhang when possible.
    """

    frame_fn: Callable[[float], np.ndarray]

    def frame(self, t: float) -> np.ndarray:
        return _frame_matrix(self.frame_fn(float(t)))


# ---------------------------------------------------------------------------
# Symplectic pairing with a reference plane
# ---------------------------------------------------------------------------

# Largest sine of a principal angle between a plane and the reference that
# still counts as an intersection direction, an angle of 1e-8 rad (the same
# cut on the singular values of the stacked 4-by-4 [A | -B], relative to the
# largest, allows about 2e-8 rad), and the largest |<r1, J r2>| of an
# orthonormal reference that still counts as Lagrangian.
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


def det2(P):
    """Determinant ``P00 P11 - P01 P10`` of a 2-by-2 matrix, or of each
    matrix of a stack ``(..., 2, 2)``."""
    P = np.asarray(P)
    return P[..., 0, 0] * P[..., 1, 1] - P[..., 0, 1] * P[..., 1, 0]


def _reference_frame(reference) -> np.ndarray:
    """Orthonormal frame of a Lagrangian reference plane.

    ``J R`` spans the orthogonal complement of ``R`` only when ``R`` is
    Lagrangian, and the crossing detector and kernel rely on that, so any
    other reference is a ValueError.  So is a rank-deficient frame, which
    the QR would silently complete to a plane the caller never gave.
    """
    R, r = _qr_positive(_frame_matrix(reference))
    if r[1, 1] <= KERNEL_TOL * r[0, 0] or abs(pairing(R, R)[0, 1]) > KERNEL_TOL:
        raise ValueError("the reference is not a Lagrangian plane")
    return R


# ---------------------------------------------------------------------------
# Plücker chart
# ---------------------------------------------------------------------------

PLUCKER_PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def plucker(frames) -> np.ndarray:
    """Unit-norm Plücker coordinates ``(P12, P13, P14, P23, P24, P34)``.

    Accepts one 4-by-2 frame or a stack of shape ``(..., 4, 2)`` and
    returns coordinates of shape ``(..., 6)``.  The overall sign is
    inherited from the column orientation of the frame; right-multiplying
    by a matrix with positive determinant leaves the result unchanged, a
    negative determinant flips it.  With singular values s1 >= s2 of a
    frame, ``|P| = s1 s2`` and ``|M|_F^2 = s1^2 + s2^2``, so the rank test
    ``|P| <= 1e-12 |M|_F^2`` is ``s2 <= 1e-12 s1`` up to rounding.
    """
    M = np.asarray(frames, dtype=float)
    if M.shape[-2:] != (4, 2):
        raise ValueError(f"the Plücker chart requires a 4-by-2 frame, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("frame entries must be finite")
    a, b = M[..., 0], M[..., 1]
    i, j = np.array(PLUCKER_PAIRS).T
    P = a[..., i] * b[..., j] - a[..., j] * b[..., i]
    norm = np.linalg.norm(P, axis=-1, keepdims=True)
    if np.any(norm <= 1e-12 * np.sum(M * M, axis=(-2, -1))[..., None]):
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


# Base step of the finite-difference stencils and the number of Richardson
# levels applied to them.
FD_STEP = 0.01
FD_LEVELS = 2
# Largest condition number of the graph-coordinate system that still counts
# as transverse.
MAX_CONDITION = 1e10
# Crossing-form eigenvalues at or below this size count as zero.
FORM_DEGENERACY_TOL = 1e-6


def _graph_images(L: np.ndarray, W: np.ndarray, V: np.ndarray, t: float) -> np.ndarray:
    """Apply the graph map onto span(W) to the columns of V.

    For each column v the system ``[L | -W] (c; w) = v`` expresses
    ``v + W w`` as a combination of the columns of L; the image is ``W w``.
    """
    n = L.shape[1]
    S = np.hstack([L, -W])
    cond = np.linalg.cond(S)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise TransversalityError(
            f"graph coordinates break down at t = {t:.6g}: "
            f"condition number {cond:.3e} exceeds {MAX_CONDITION:.1e}"
        )
    z = np.linalg.solve(S, V)
    return W @ z[n:]


@lru_cache(maxsize=None)
def _stencil(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Central finite-difference stencil of width ``2*order + 1``.

    The weights solve the moment system sum_m w_m m^i = delta_{i,order} *
    order! for i = 0..2*order, which is the minimal symmetric stencil for
    the ``order``-th derivative.
    """
    m = np.arange(-order, order + 1)
    V = np.vstack([m.astype(float) ** i for i in range(2 * order + 1)])
    rhs = np.zeros(2 * order + 1)
    rhs[order] = float(math.factorial(order))
    w = np.linalg.solve(V, rhs)
    m.setflags(write=False)
    w.setflags(write=False)
    return m, w


def _fd_derivative(g: Callable[[float], np.ndarray], t0: float, order: int,
                   h: float) -> np.ndarray:
    """Derivative of ``g`` at ``t0`` by central differences plus Richardson.

    The symmetric stencil has error terms in even powers of h starting at
    h^(order+1) for odd orders and h^(order+2) for even ones; each of the
    ``FD_LEVELS`` Richardson levels halves the step and cancels the current
    leading term.
    """
    m, w = _stencil(order)
    p = order + 1 if order % 2 else order + 2

    def estimate(step: float) -> np.ndarray:
        vals = np.stack([np.asarray(g(t0 + k * step), dtype=float) for k in m])
        return np.tensordot(w, vals, axes=1) / step**order

    ests = [estimate(h / 2**k) for k in range(FD_LEVELS + 1)]
    for level in range(FD_LEVELS):
        f = 2.0 ** (p + 2 * level)
        ests = [(f * ests[k + 1] - ests[k]) / (f - 1.0) for k in range(len(ests) - 1)]
    return ests[0]


def _effective_step(W: np.ndarray, V: np.ndarray,
                    path: LagrangianPath, t0: float) -> float:
    """Widen the base step ``FD_STEP`` for slowly moving families.

    The graph map vanishes at t0, so ||A|| near t0 scales like speed * dt;
    a slow family would otherwise bury the finite differences in roundoff.
    The step is never shrunk and is capped at twenty times the base.
    """
    h = FD_STEP
    norms = []
    for t in (t0 - h, t0 + h):
        norms.append(np.linalg.norm(_graph_images(path.frame(t), W, V, t)))
    speed = (norms[0] + norms[1]) / (2.0 * h * max(1.0, np.linalg.norm(V)))
    if speed <= 0.0:
        return 20.0 * h
    return h * min(max(1.0, 1.0 / speed), 20.0)


def _graph_form(path: LagrangianPath, W: np.ndarray, V: np.ndarray
                ) -> Callable[[float], np.ndarray]:
    """The graph flow paired with the columns of V: ``t -> V^T J A(t) V``."""
    return lambda t: pairing(_graph_images(path.frame(t), W, V, t), V)


def quadratic_form(path: LagrangianPath, t0: float, v, order: int, W=None) -> float:
    """Raw crossing form ``Q_order(v) = d^order/dt^order <v, J A(t) v>``.

    ``v`` must lie in the plane at ``t0``; it is used as given, without
    normalisation.  The value is invariant under symplectic transformations
    of the whole picture (path, vector and complement together).  The
    first-order form is independent of the choice of transverse complement
    ``W``; at higher orders the raw derivative picks up corrections from
    complements that mix the kernel with the moving directions, so results
    with a non-default ``W`` are only comparable for complements that keep
    those directions separate (the default ``J @ frame`` always qualifies).
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    v = np.asarray(v, dtype=float)
    F0 = path.frame(t0)
    if v.shape != (4,):
        raise ValueError("vector must have length 4")
    W = J4 @ F0 if W is None else _frame_matrix(W)
    coeff, *_ = np.linalg.lstsq(F0, v, rcond=None)
    if np.linalg.norm(F0 @ coeff - v) > 1e-8 * max(1.0, np.linalg.norm(v)):
        raise ValueError("vector does not lie in the plane at t0")
    V = v[:, None]
    G = _fd_derivative(_graph_form(path, W, V), t0, order,
                       _effective_step(W, V, path, t0))
    return float(G[0, 0])


def intersection_basis(frame, reference) -> np.ndarray:
    """Orthonormal basis (4-by-k) of the intersection of a plane with a
    Lagrangian reference plane.

    The basis is the orthonormalized frame times the right singular vectors
    of the pairing whose singular value, the sine of a principal angle, is at
    most ``KERNEL_TOL``; a transverse pair gives a 4-by-0 basis.
    """
    Q, _ = _qr_positive(_frame_matrix(frame))
    _, sv, vt = np.linalg.svd(pairing(Q, _reference_frame(reference)))
    return Q @ vt[sv <= KERNEL_TOL].T


def _kernel_form(path: LagrangianPath, t0: float, reference, purpose: str):
    """Crossing kernel ``U`` at ``t0``, the complement ``W = J ell(t0)`` and
    the kernel-projected graph flow ``t -> U^T J A(t) U``."""
    F0 = path.frame(t0)
    U = intersection_basis(F0, reference)
    if U.shape[1] == 0:
        raise NotACrossingError(
            f"the planes are transverse at t = {t0:.6g}; there is no {purpose}"
        )
    W = J4 @ F0
    return U, W, _graph_form(path, W, U)


@dataclass(frozen=True, eq=False)
class CrossingFormResult:
    """First nondegenerate crossing form at an isolated crossing.

    ``value`` is the form evaluated on the unit kernel vector when the
    kernel is one dimensional, otherwise the extreme eigenvalue of the form
    matrix.  ``lower_orders`` records the largest absolute form eigenvalue
    for each order below the reported one (all under the degeneracy
    tolerance by construction).
    """

    t0: float
    order: int
    value: float
    kernel_dim: int
    positive: int
    negative: int
    lower_orders: tuple[float, ...]
    kernel: np.ndarray = field(repr=False, default=None)

    @property
    def signature(self) -> int:
        return self.positive - self.negative


def crossing_form(path: LagrangianPath, t0: float, reference,
                  max_order: int = 3) -> CrossingFormResult:
    """Classify a crossing by its first nondegenerate form.

    The kernel of the crossing is the intersection of the plane at ``t0``
    with the reference plane, orthonormalized.  For each order j the form
    matrix ``d^j/dt^j <u_a, J A(t) u_b>`` is evaluated on that basis with
    the complement ``J ell(t0)``; the first order whose eigenvalues all
    clear ``FORM_DEGENERACY_TOL`` determines the result.  A form that is
    nonzero on part of the kernel only is outside the supported theory and
    raises CrossingError, as does full degeneracy through ``max_order``.
    """
    if max_order < 1:
        raise ValueError("max_order must be a positive integer")
    U, W, form_at = _kernel_form(path, t0, reference, "crossing form to evaluate")
    k = U.shape[1]
    h_eff = _effective_step(W, U, path, t0)

    lower: list[float] = []
    for order in range(1, max_order + 1):
        G = _fd_derivative(form_at, t0, order, h_eff)
        G = 0.5 * (G + G.T)
        eigenvalues = np.linalg.eigvalsh(G)
        p = int(np.sum(eigenvalues > FORM_DEGENERACY_TOL))
        q = int(np.sum(eigenvalues < -FORM_DEGENERACY_TOL))
        if p + q == 0:
            lower.append(float(np.max(np.abs(eigenvalues))))
            continue
        if p + q < k:
            raise CrossingError(
                f"partially degenerate crossing at t = {t0:.6g}: the order-{order} "
                f"form is nondegenerate on only part of the {k}-dimensional kernel, "
                "which the signature calculus does not cover"
            )
        value = float(G[0, 0]) if k == 1 else float(eigenvalues[np.argmax(np.abs(eigenvalues))])
        return CrossingFormResult(
            t0=float(t0), order=order, value=value, kernel_dim=k,
            positive=p, negative=q, lower_orders=tuple(lower), kernel=U,
        )
    raise CrossingError(
        f"crossing at t = {t0:.6g} is degenerate through order {max_order}; "
        "raise max_order or inspect the family directly"
    )


def eigenvalue_motion(path: LagrangianPath, t0: float, reference,
                      half_width: float = 0.3,
                      num: int = 61) -> tuple[np.ndarray, np.ndarray]:
    """Small eigenvalues of the kernel-projected graph flow near a crossing.

    Returns ``(ts, lams)`` where ``lams[i]`` holds the ascending eigenvalues
    of the restriction of ``J A(t)`` to the crossing kernel at ``ts[i]``
    (shape ``(num, kernel_dim)``).  These are the eigenvalue branches whose
    signs and derivatives the crossing forms summarize.
    """
    U, _, form_at = _kernel_form(path, t0, reference, "eigenvalue branch to track")
    ts = np.linspace(t0 - half_width, t0 + half_width, num)
    lams = np.empty((num, U.shape[1]))
    for i, t in enumerate(ts):
        G = form_at(t)
        lams[i] = np.linalg.eigvalsh(0.5 * (G + G.T))
    return ts, lams


# ---------------------------------------------------------------------------
# Crossing search
# ---------------------------------------------------------------------------


def locate_zeros(ts: np.ndarray, values: np.ndarray,
                 value_at: Callable[[float], float], tol: float,
                 dip_level: float) -> tuple[list[float], list[float]]:
    """Zeros and sign-preserving dips of a crossing detector sampled at ``ts``.

    Returns ``(zeros, dips)``.  ``zeros`` holds, in ascending order, the
    samples where the detector is exactly zero and one point per sign
    change between neighbouring samples, bisected with ``value_at`` until
    the bracket is narrower than ``tol``.  ``dips`` holds the interior
    samples where ``|value|`` has a local minimum below ``dip_level``
    without a sign change across it: candidate even-order touches, which
    contribute nothing to a count and which the caller examines further.
    """
    zeros: list[float] = []
    for i in np.where(values == 0.0)[0]:
        zeros.append(float(ts[i]))
    for i in np.where(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]:
        lo, hi = float(ts[i]), float(ts[i + 1])
        dlo = values[i]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            dmid = value_at(mid)
            if dmid == 0.0:
                lo = hi = mid
                break
            if np.sign(dlo) * np.sign(dmid) < 0:
                hi = mid
            else:
                lo, dlo = mid, dmid
        zeros.append(0.5 * (lo + hi))

    absd = np.abs(values)
    dips = [
        float(ts[i])
        for i in range(1, len(values) - 1)
        if absd[i] < dip_level
        and absd[i] <= absd[i - 1]
        and absd[i] <= absd[i + 1]
        and np.sign(values[i - 1]) == np.sign(values[i + 1])
        and values[i] != 0.0
    ]
    return sorted(zeros), dips


# ---------------------------------------------------------------------------
# Maslov index
# ---------------------------------------------------------------------------


# Relative size of |det| that counts as a crossing, relative size below
# which a local minimum of |det| is searched for an even-order touch, and
# the location accuracy of both searches.
DET_TOL = 1e-8
DIP_TOL = 1e-6
REFINE_TOL = 1e-10


@dataclass(frozen=True)
class CrossingRecord:
    """One crossing's bookkeeping inside a Maslov index computation."""

    t: float
    order: int
    kernel_dim: int
    positive: int
    negative: int
    value: float
    contribution: float
    endpoint: str | None = None


@dataclass(frozen=True)
class MaslovResult:
    """Maslov index with a per-crossing ledger."""

    index: float
    crossings: tuple[CrossingRecord, ...]


def maslov_index(path: LagrangianPath, reference, ts, frames,
                 max_order: int = 3) -> MaslovResult:
    """Maslov index of the family against a Lagrangian reference plane on
    [ts[0], ts[-1]].

    ``frames`` holds the family's frames at the increasing samples ``ts``
    as one ``(len(ts), 4, 2)`` array.  The detector ``det2(pairing(Q, R))``
    of orthonormalized frames, up to sign the product of the sines of the
    principal angles, is evaluated on that stack and searched by
    :func:`locate_zeros`: its zeros are bisected to ``REFINE_TOL`` through
    ``path.frame``, and each dip below ``DIP_TOL`` (relative to the largest
    sample) is minimised between its neighbouring samples and kept when it
    reaches ``DET_TOL`` (even-order crossings touch zero without a sign
    change); an end sample below ``DET_TOL`` is an endpoint crossing.
    Each crossing is classified with :func:`crossing_form`; interior
    crossings of odd order contribute their signature, interior even-order
    crossings contribute nothing, and endpoint crossings contribute half
    their one-sided spectral flow.
    """
    ts = np.asarray(ts, dtype=float)
    frames = np.asarray(frames, dtype=float)
    if ts.ndim != 1 or ts.size < 2 or not np.all(np.diff(ts) > 0):
        raise ValueError("the sample grid must hold at least two increasing points")
    if frames.shape != (ts.size, 4, 2) or not np.all(np.isfinite(frames)):
        raise ValueError(
            f"frames must be a finite ({ts.size}, 4, 2) stack, got shape {frames.shape}")
    a, b = float(ts[0]), float(ts[-1])
    ref_q = _reference_frame(reference)

    def det_fn(t: float) -> float:
        q, _ = _qr_positive(path.frame(t))
        return float(det2(pairing(q, ref_q)))

    q, _ = _qr_positive(frames)
    dets = det2(pairing(q, ref_q))
    scale = float(np.max(np.abs(dets)))
    if scale < 1e-12:
        raise CrossingError(
            "the family coincides with the reference plane on the whole "
            "interval; crossings are not isolated"
        )

    zeros, dips = locate_zeros(ts, dets, det_fn, REFINE_TOL, DIP_TOL * scale)
    crossing_ts = [t for t, d in ((a, dets[0]), (b, dets[-1]))
                   if abs(d) < DET_TOL * scale] + zeros
    for t in dips:
        i = int(np.searchsorted(ts, t))
        res = minimize_scalar(lambda s: abs(det_fn(s)), bounds=(ts[i - 1], ts[i + 1]),
                              method="bounded", options={"xatol": REFINE_TOL})
        if abs(res.fun) < DET_TOL * scale:
            crossing_ts.append(float(res.x))

    crossing_ts.sort()
    merged: list[float] = []
    merge_tol = max(100.0 * REFINE_TOL, 1e-9 * (b - a))
    for t in crossing_ts:
        if not merged or t - merged[-1] > merge_tol:
            merged.append(min(max(t, a), b))

    records: list[CrossingRecord] = []
    total = 0.0
    for t in merged:
        cf = crossing_form(path, t, reference, max_order=max_order)
        sig = cf.signature
        if abs(t - a) <= merge_tol or abs(t - b) <= merge_tol:
            endpoint = "left" if abs(t - a) <= merge_tol else "right"
            contribution = 0.5 * sig
        else:
            endpoint = None
            contribution = float(sig) if cf.order % 2 else 0.0
        total += contribution
        records.append(CrossingRecord(
            t=t, order=cf.order, kernel_dim=cf.kernel_dim, positive=cf.positive,
            negative=cf.negative, value=cf.value, contribution=contribution,
            endpoint=endpoint,
        ))

    if abs(total - round(total)) < 1e-9:
        total = int(round(total))
    return MaslovResult(index=total, crossings=tuple(records))


# ---------------------------------------------------------------------------
# Analytic fixture families
# ---------------------------------------------------------------------------


def fixture_paths() -> tuple[LagrangianPath, LagrangianPath]:
    """Two analytic plane families with known crossings at the origin.

    Both consist of solutions of the linear flow ``q' = B q`` with

        B = [[0, 0, 1, 0], [0, 0, 0, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],

    so every crossing form has a closed form against which the numerics can
    be pinned.  The first family crosses ``span{e2, e3}`` at ``t = 0`` with
    a regular (order-one) crossing; the second has a triply degenerate
    crossing there: its order-one and order-two forms vanish identically on
    the kernel and the order-three form is definite.
    """

    def frame_one(s: float) -> np.ndarray:
        return np.array([
            [-0.5 * s**2 + 2.0 * s, -3.0 * s**2 + 1.0],
            [1.0, 6.0],
            [2.0 - s, -6.0 * s],
            [s**3 / 6.0 - s**2, s**3 - s + 2.0],
        ])

    def frame_two(s: float) -> np.ndarray:
        return np.array([
            [-0.5 * s**2, -3.0 * s**2 + 1.0],
            [1.0, 6.0],
            [-s, -6.0 * s],
            [s**3 / 6.0, s**3 - s],
        ])

    return LagrangianPath(frame_one), LagrangianPath(frame_two)
