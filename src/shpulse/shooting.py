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
symplectic, so the plane stays Lagrangian up to rounding.  The frame grows
like ``exp(Re gamma * x)`` and its columns slowly lose orthogonality, so it
is re-orthonormalized after every step by a two-column Gram-Schmidt with
positive diagonal.  That changes neither the spanned plane nor the sign of
the sandwich determinant (the change of basis has positive determinant), so
crossing locations are unaffected.

The bytes of the trajectory CSV are pinned, and they depend on the exact
floating-point operations of the transport.  So the potential is taken in
chunks of the fixed length ``POTENTIAL_CHUNK``: the chunk length sets the
rounding of the cosine-sum gemv in ``pulse.evaluate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .lagrangian import _qr_positive, det2, pairing, plucker, sandwich_plane
from .model import Params, asymptotic_frames, coefficient_matrix
from .pulse import FourierPulse, potential

# Longest Magnus step; a coarser sample spacing takes equal sub-steps.
MAX_STEP = 0.05
# Relative noise level of the transported plane at the default step, as
# pinned by the step-halving test; it bounds the trust horizon.
TRANSPORT_NOISE = 1e-10
# Most potential evaluations per call: the grid ``stability_report`` uses.
# Fixed, not tuned: the chunk length sets the rounding of the cosine-sum
# gemv in ``pulse.evaluate``, and the trajectory CSV pins those bits.
POTENTIAL_CHUNK = 4001

_GAUSS = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
_E31 = np.zeros((4, 4))
_E31[2, 0] = 1.0


class TransportError(RuntimeError):
    """The transported frame left the finite range."""


@dataclass(frozen=True)
class ShootingSettings:
    """Numerical policy for the frame transport: window and sample spacing.

    The window length must be an integer multiple of ``dx``.
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
        if abs(a + round((b - a) / self.dx) * self.dx - b) > 1e-9 * max(1.0, abs(b)):
            raise ValueError(
                f"window [{a:g}, {b:g}] of length {b - a:g} is not an integer "
                f"multiple of dx = {self.dx:g}")


def initial_frame(p: Params, lam: float = 0.0) -> np.ndarray:
    """Orthonormal frame of the unstable plane of the tail matrix.

    The QR sign convention keeps the orientation of the closed-form basis,
    whose first Plücker coordinate is positive.
    """
    q, _ = _qr_positive(asymptotic_frames(lam, p).unstable_frame)
    return q


def sandwich_determinant(frames):
    """Crossing detector ``det2(pairing(M, sandwich_plane()))`` of a 4-by-2
    frame, or of each frame of a stack ``(..., 4, 2)``.

    Vanishes exactly when the spanned plane meets ``span{e2, e3}``
    nontrivially, which makes its sign changes the crossing detector.  The
    pairing with the sandwich plane is row 4 over minus row 1 of the frame,
    taken exactly, so the value is the rows-(1, 4) determinant
    ``M00 M31 - M01 M30`` to the bit.  One frame gives a float, a stack an
    array of shape ``(...)``.
    """
    M = np.asarray(frames, dtype=float)
    if M.shape[-2:] != (4, 2):
        raise ValueError(f"expected a 4-by-2 frame, got shape {M.shape}")
    d = det2(pairing(M, sandwich_plane()))
    return float(d) if d.ndim == 0 else d


def _commutator(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


def _step_maps(pulse: FourierPulse, lam: float, starts: np.ndarray,
               h: float) -> np.ndarray:
    """Sixth-order Magnus maps of the steps ``[s, s + h]``, one per start.

    With ``A_i`` the coefficient matrix at the Gauss nodes ``s + c_i h``,
    the generator is built from ``a1 = h A_2``,
    ``a2 = sqrt(15) h (A_3 - A_1) / 3`` and
    ``a3 = 10 h (A_3 - 2 A_2 + A_1) / 3`` as
    ``a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240`` with
    ``C1 = [a1, a2]`` and ``C2 = -[a1, 2 a3 + C1] / 60``.
    """
    nodes = (starts[:, None] + h * _GAUSS).ravel()
    # overflow is reported below and by the caller's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.concatenate([potential(pulse, nodes[i:i + POTENTIAL_CHUNK])
                            for i in range(0, nodes.size, POTENTIAL_CHUNK)])
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
        return expm(a1 + a3 / 12.0
                    + _commutator(-20.0 * a1 - a3 + C1, a2 + C2) / 240.0)


def _orthonormalize(M: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Two-column Gram-Schmidt with positive diagonal (same span as ``M``),
    written into the 4-by-2 ``out``, which is returned."""
    a, b = M[:, 0], M[:, 1]
    # fresh arrays, not in-place updates of the strided columns: a dot
    # product of two strided operands takes another kernel and other bits
    a = a / math.sqrt(a @ a)
    b = b - (a @ b) * a
    out[:, 0] = a
    np.divide(b, math.sqrt(b @ b), out=out[:, 1])
    return out


def _transport(pulse: FourierPulse, lam: float, x0: float, h: float,
               nsteps: int, F: np.ndarray, every: int = 1) -> np.ndarray:
    """Frames after every ``every``-th of ``nsteps`` steps of size ``h``.

    The result has shape ``(nsteps // every + 1, 4, 2)`` and starts with the
    orthonormalized ``F``.  Each step orthonormalizes straight into its slot
    of the result, or into one work frame between stored samples.
    """
    maps = _step_maps(pulse, lam, x0 + h * np.arange(nsteps), h)
    out = np.empty((nsteps // every + 1, 4, 2))
    work = np.empty((4, 2))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        F = _orthonormalize(F, out[0])
        for k, Phi in enumerate(maps, start=1):
            F = _orthonormalize(Phi @ F, work if k % every else out[k // every])
    if not np.all(np.isfinite(out)):
        bad = int(np.argmin(np.isfinite(out).all(axis=(1, 2))))
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
    read-only ``(len(xs), 4, 2)`` array; the sandwich determinant ``deta``,
    unit Plücker coordinates ``plucker`` and symplectic-form drift
    ``omega_drift = |P13 + P24|`` are computed for all samples at once.
    ``frame_at`` takes one partial Magnus step from the nearest sample,
    which keeps arbitrary-point evaluation cheap and as accurate as the
    stored samples.
    """

    pulse: FourierPulse
    lam: float
    settings: ShootingSettings
    xs: np.ndarray
    frames: np.ndarray

    @cached_property
    def deta(self) -> np.ndarray:
        return sandwich_determinant(self.frames)

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
        dx = self.settings.dx
        if not (a - 10.0 * dx <= x <= b + 10.0 * dx):
            raise ValueError(
                f"x = {x:.6g} lies outside the integration window [{a:g}, {b:g}]"
            )
        i = min(max(round((x - a) / dx), 0), len(self.xs) - 1)
        anchor = float(self.xs[i])
        if abs(anchor - x) < 1e-13:
            return self.frames[i]
        nsteps = math.ceil(abs(x - anchor) / MAX_STEP)
        h = (x - anchor) / nsteps
        out = _transport(self.pulse, self.lam, anchor, h, nsteps, self.frames[i],
                         every=nsteps)
        return out[-1]


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
