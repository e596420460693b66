"""Transport of the unstable plane along a pulse.

The linearization around a stationary pulse is a first-order system
``q' = B(x) q`` on ``R^4`` whose coefficient matrix approaches a constant
hyperbolic matrix as ``|x|`` grows.  The plane of solutions decaying as
``x -> -infinity`` starts (up to the potential's tail) at the unstable plane
of that constant matrix; integrating a frame of it across the pulse and
watching where it meets the sandwich plane ``span{e2, e3}`` is the geometric
half of the stability computation, the counterpart of counting unstable
eigenvalues of the linearization directly.

The transport is a fixed-step sixth-order Magnus integrator (Blanes, Casas,
Oteo & Ros, Phys. Rep. 2009).  The coefficient matrix is affine in the
potential, ``B(x) = B0(lam) + f'(phi(x)) E`` with ``E`` the unit matrix at
entry (3, 1), so one vectorised evaluation of the potential at the three
Gauss nodes of every step and one batched matrix exponential give all step
maps at once.  Each map is the exponential of a Hamiltonian matrix, hence
symplectic, so the plane stays Lagrangian up to rounding.

The frame grows like ``exp(Re gamma * x)``; it is kept orthonormal by the
package's one Gram-Schmidt (``lagrangian._orthonormalize``), which changes
neither the spanned plane nor its unit Plücker coordinates, whose ``P14``,
the crossing detector ``deta``, vanishes exactly where the plane meets the
sandwich plane.  Gram-Schmidt need not run after every step, only often
enough to keep the frame well conditioned: ``_transport`` multiplies the
maps out inside blocks of about ``sqrt(nsteps)`` steps and orthonormalizes
each block's products applied to the block's start frame in one stacked
call.  The unstable tail eigenvalues are ``alpha +- i beta``, so both
columns grow at the same rate and a block only rotates the frame: on the
reference pulses the singular-value ratio of a block product applied to
its start frame stays below 6.

The step maps are the exponentials of the Magnus generators, taken for the
whole stack at once by a degree-``_TAYLOR_DEGREE`` Taylor polynomial with
scaling and squaring (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 2009).
Its truncation error is below the double-precision unit roundoff.  So the
trajectory agrees with a textbook loop (a per-step ``scipy.linalg.expm``,
``Phi @ F`` and Gram-Schmidt) to rounding, not to the bit: the tests hold
the planes for x <= 0, their unit Plücker coordinates, which the CSV and
the counts read, within 1e-13 of that loop on the same maps and on scipy's.
What is pinned bitwise is the CLI's printed output: the counts,
eigenvalues and crossing table of the reference pulses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .lagrangian import _orthonormal, _orthonormalize, plucker
from .model import Params, asymptotic_frames, coefficient_matrix
from .pulse import FourierPulse, potential, potential_jet

# Longest Magnus step; a coarser sample spacing takes equal sub-steps.
MAX_STEP = 0.05
# Relative noise level of the transported plane at the default step, as
# pinned by the step-halving test; it bounds the trust horizon.
TRANSPORT_NOISE = 1e-10
# Degree and reach of the Taylor exponential: for 1-norms up to the reach
# the remainder bound ``|X|^(m+1) / (m+1)! * e^|X|`` is 3.1e-18, below
# 2^-53; a larger stack is scaled by 2^-s into it and squared s times.
_TAYLOR_DEGREE = 12
_TAYLOR_REACH = 0.25

_GAUSS = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
_E31 = np.zeros((4, 4))
_E31[2, 0] = 1.0


class TransportError(RuntimeError):
    """The transported frame left the finite range."""


@dataclass(frozen=True)
class ShootingSettings:
    """Numerical policy for the frame transport: window and sample spacing.

    The window length must be a positive integer multiple of ``dx``; a
    window within rounding of zero steps is refused.
    """

    window: tuple[float, float] = (-60.0, 60.0)
    dx: float = 0.05

    def __post_init__(self) -> None:
        a, b = (float(self.window[0]), float(self.window[1]))
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError(f"window must be a finite interval, got {self.window}")
        object.__setattr__(self, "window", (a, b))
        if not 0 < self.dx < np.inf:
            raise ValueError("dx must be positive and finite")
        nsteps = round((b - a) / self.dx)
        if abs(a + nsteps * self.dx - b) > 1e-9 * max(1.0, abs(b)):
            raise ValueError(
                f"window [{a:g}, {b:g}] of length {b - a:g} is not an integer "
                f"multiple of dx = {self.dx:g}")
        if nsteps == 0:
            raise ValueError(f"window [{a:g}, {b:g}] holds no step of dx = {self.dx:g}")


def initial_frame(p: Params, lam: float = 0.0) -> np.ndarray:
    """Orthonormal frame of the unstable plane of the tail matrix.

    Gram-Schmidt with positive diagonal keeps the orientation of the
    closed-form basis, whose first Plücker coordinate is positive.
    """
    return _orthonormal(asymptotic_frames(lam, p).unstable_frame)


def _commutator(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


def _expm(X: np.ndarray) -> np.ndarray:
    """Exponential of every matrix of a stack ``(..., n, n)`` with finite
    1-norms.

    The Taylor polynomial of degree ``_TAYLOR_DEGREE`` is evaluated by
    Horner's rule in stacked in-place ``matmul``s on ``X / 2^s``, with
    ``s`` the least power that brings the stack's largest 1-norm within
    ``_TAYLOR_REACH``, and then squared ``s`` times.  Any leading axes are
    batch axes.
    """
    norm = float(np.abs(X).sum(axis=-2).max(initial=0.0))
    s = max(0, math.ceil(math.log2(norm) - math.log2(_TAYLOR_REACH))) if norm > 0 else 0
    X = np.ldexp(X, -s) if s else X
    eye = np.eye(X.shape[-1])
    P = X / _TAYLOR_DEGREE + eye
    work = np.empty_like(P)
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        np.matmul(X, P, out=work)
        work /= k
        work += eye
        P, work = work, P
    for _ in range(s):
        np.matmul(P, P, out=work)
        P, work = work, P
    return P


def _generators(pulse: FourierPulse, lam: float, starts: np.ndarray,
                h: float) -> np.ndarray:
    """Sixth-order Magnus generators of the steps ``[s, s + h]``, one per start.

    With ``A_i`` the coefficient matrix at the Gauss nodes ``s + c_i h``,
    the generator is built from ``a1 = h A_2``,
    ``a2 = sqrt(15) h (A_3 - A_1) / 3`` and
    ``a3 = 10 h (A_3 - 2 A_2 + A_1) / 3`` as
    ``a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240`` with
    ``C1 = [a1, a2]`` and ``C2 = -[a1, 2 a3 + C1] / 60``.

    Raises
    ------
    TransportError
        When the potential or a generator is not finite.
    """
    nodes = (starts[:, None] + h * _GAUSS).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        v = potential(pulse, nodes)
        bad = ~np.isfinite(v)
        if bad.any():
            raise TransportError(
                f"the potential f'(phi(x)) is not finite at x = {nodes[bad][0]:.6g}")
        A = coefficient_matrix(0.0, lam) + v.reshape(-1, 3, 1, 1) * _E31
        a1 = h * A[:, 1]
        a2 = (math.sqrt(15.0) * h / 3.0) * (A[:, 2] - A[:, 0])
        a3 = (10.0 * h / 3.0) * (A[:, 2] - 2.0 * A[:, 1] + A[:, 0])
        C1 = _commutator(a1, a2)
        C2 = _commutator(a1, 2.0 * a3 + C1) / -60.0
        omega = a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + C1, a2 + C2) / 240.0
        # NaN and inf propagate into the 1-norm, which ``_expm`` scales by
        bad = ~np.isfinite(np.abs(omega).sum(axis=1).max(axis=1))
    if bad.any():
        raise TransportError(
            f"the 1-norm of the Magnus generator is not finite at x = {starts[bad][0]:.6g}")
    return omega


def _step_maps(pulse: FourierPulse, lam: float, starts: np.ndarray,
               h: float) -> np.ndarray:
    """Sixth-order Magnus maps of the steps ``[s, s + h]``, one per start: the
    exponentials of ``_generators``."""
    omega = _generators(pulse, lam, starts, h)
    # a huge finite generator overflows in the squarings; the caller's
    # finiteness check on the frames reports it
    with np.errstate(over="ignore", invalid="ignore"):
        return _expm(omega)


def _transport(pulse: FourierPulse, lam: float, x0: float, h: float,
               nsteps: int, F: np.ndarray, every: int = 1) -> np.ndarray:
    """Frames after every ``every``-th of ``nsteps`` steps of size ``h``.

    The result has shape ``(nsteps // every + 1, 4, 2)`` and starts with the
    orthonormalized ``F``.  The steps are cut into blocks of
    ``b = ceil(sqrt(nsteps))`` (the last may be shorter), the length that
    makes the ``b - 1 + nsteps / b`` Python-level calls below least:

    1. the maps are multiplied out inside every block at once, in place, so
       that ``maps[k]`` becomes the product of its block's maps up to step
       ``k``;
    2. the frame is carried from block start to block start, one
       Gram-Schmidt per block;
    3. every stored frame is its block's product times its block's start
       frame, orthonormalized in one stacked call.

    The blocks are in steps, not in stored samples, so a coarser ``every``
    stores exactly a subset of the same frames.
    """
    maps = _step_maps(pulse, lam, x0 + h * np.arange(nsteps), h)
    b = math.isqrt(nsteps - 1) + 1
    nblocks = -(-nsteps // b)
    starts = np.empty((nblocks, 4, 2))
    out = np.empty((nsteps // every + 1, 4, 2))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(1, b):
            np.matmul(maps[i::b], maps[i - 1:nsteps - 1:b], out=maps[i::b])
        _orthonormalize(F, starts[0])
        for j in range(1, nblocks):
            _orthonormalize(maps[j * b - 1] @ starts[j - 1], starts[j])
        out[0] = starts[0]
        blocks = np.arange(every - 1, nsteps, every) // b
        _orthonormalize(maps[every - 1::every] @ starts[blocks], out[1:])
        # a frame too large to square comes out of Gram-Schmidt as zeros, a
        # non-finite one as NaN; either way its columns are not unit vectors
        unit = (np.abs((out * out).sum(axis=1) - 1.0) < 0.5).all(axis=1)
    if not unit.all():
        bad = int(np.argmin(unit))
        raise TransportError(
            f"the transported frame is not finite at x = {x0 + bad * every * h:.6g}")
    return out


@dataclass(frozen=True, eq=False)
class PathSample:
    """Diagnostics of the transported plane at one grid point."""

    x: float
    frame: np.ndarray
    deta: float
    plucker: np.ndarray = field(repr=False)
    omega_drift: float


@dataclass(frozen=True, eq=False)
class FrameTrajectory:
    """The transported unstable plane, sampled on a uniform grid.

    ``frames`` holds the orthonormal frame at each grid point ``xs`` as one
    read-only ``(len(xs), 4, 2)`` array; the unit Plücker coordinates
    ``plucker``, the crossing detector ``deta`` (their ``P14`` column) and
    the symplectic-form drift ``omega_drift = |P13 + P24|`` are computed
    for all samples at once.
    ``frame_at`` takes one partial Magnus step from the nearest sample,
    which keeps arbitrary-point evaluation cheap and as accurate as the
    stored samples; ``jet`` extends that frame to its Taylor coefficients,
    the plane family the crossing engine classifies.
    """

    pulse: FourierPulse
    lam: float
    settings: ShootingSettings
    xs: np.ndarray
    frames: np.ndarray

    @cached_property
    def deta(self) -> np.ndarray:
        return self.plucker[:, 2]

    @cached_property
    def plucker(self) -> np.ndarray:
        return plucker(self.frames)

    @cached_property
    def omega_drift(self) -> np.ndarray:
        return np.abs(self.plucker[:, 1] + self.plucker[:, 4])

    @cached_property
    def samples(self) -> tuple[PathSample, ...]:
        """Per-sample view of the arrays, built on first use."""
        return tuple(
            PathSample(x=float(x), frame=F, deta=float(d), plucker=P,
                       omega_drift=float(w))
            for x, F, d, P, w in zip(self.xs, self.frames, self.deta,
                                     self.plucker, self.omega_drift))

    def frame_at(self, x: float) -> np.ndarray:
        """Orthonormal frame at ``x`` (a read-only view at a grid point)."""
        x = float(x)
        a, b = self.settings.window
        if not self.xs[0] <= x <= self.xs[-1]:
            raise ValueError(
                f"x = {x:.6g} lies outside the integration window [{a:g}, {b:g}]"
            )
        i = round((x - a) / self.settings.dx)
        anchor = float(self.xs[i])
        if abs(anchor - x) < 1e-13:
            return self.frames[i]
        nsteps = math.ceil(abs(x - anchor) / MAX_STEP)
        h = (x - anchor) / nsteps
        out = _transport(self.pulse, self.lam, anchor, h, nsteps, self.frames[i],
                         every=nsteps)
        return out[-1]

    def jet(self, x: float, K: int) -> np.ndarray:
        """Taylor coefficients ``F_0..F_K``, shape ``(K+1, 4, 2)``, at ``x`` of
        the solution of ``F' = B F`` through ``frame_at(x)``: the plane's jet.

        With the potential's coefficients ``p_i`` and ``E`` the unit matrix
        at (3, 1), ``(n+1) F_{n+1} = B_0 F_n + sum_{i=1..n} p_i E F_{n-i}``.
        """
        F = np.empty((K + 1, 4, 2))
        F[0] = self.frame_at(x)
        p = potential_jet(self.pulse, float(x), K)
        B0 = coefficient_matrix(p[0], self.lam)
        for n in range(K):
            F[n + 1] = B0 @ F[n]
            F[n + 1, 2] += p[1:n + 1] @ F[:n][::-1, 0]
            F[n + 1] /= n + 1
        return F


def integrate_frame(pulse: FourierPulse, lam: float = 0.0,
                    settings: ShootingSettings = ShootingSettings()) -> FrameTrajectory:
    """Transport the asymptotic unstable plane across the window.

    The frame starts at the unstable plane of the constant tail matrix and
    is advanced by Magnus steps of the sample spacing ``dx``, or by equal
    sub-steps of at most ``MAX_STEP`` when ``dx`` is coarser.

    Raises
    ------
    TransportError
        When the potential or the frame stops being finite.
    """
    a, b = settings.window
    if a < -pulse.L_f or b > pulse.L_f:
        raise ValueError(
            f"window [{a:g}, {b:g}] exceeds the pulse's half-period {pulse.L_f:g}"
        )
    nsamples = int(round((b - a) / settings.dx))
    every = math.ceil(settings.dx / MAX_STEP - 1e-9)
    frames = _transport(pulse, lam, a, settings.dx / every, nsamples * every,
                        initial_frame(pulse.params, lam), every=every)
    frames.setflags(write=False)
    return FrameTrajectory(pulse=pulse, lam=lam, settings=settings,
                           xs=a + settings.dx * np.arange(nsamples + 1),
                           frames=frames)


def write_trajectory(trajectory: FrameTrajectory, destination) -> None:
    """Write sample rows ``x, detA, P12..P34, omega_drift`` as CSV.

    The bytes are those of ``csv.writer``: the ``repr`` of each float (which
    never needs quoting), comma-separated, each row ending in CRLF.
    """

    def _write(fh) -> None:
        rows = np.column_stack([trajectory.xs, trajectory.deta, trajectory.plucker,
                                trajectory.omega_drift])
        fh.write("x,detA,P12,P13,P14,P23,P24,P34,omega_drift\r\n")
        fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in rows.tolist()))

    if hasattr(destination, "write"):
        _write(destination)
    else:
        with open(Path(destination), "w", newline="") as fh:
            _write(fh)
