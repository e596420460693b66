"""Transport of the unstable plane along a pulse.

The linearization around a stationary pulse is a first-order system
``q' = B(x) q`` on ``R^4`` whose coefficient matrix approaches a constant
hyperbolic matrix as ``|x|`` grows.  The plane of solutions decaying as
``x -> -infinity`` starts (up to the potential's tail) at the unstable plane
of that constant matrix; integrating a frame of it across the pulse and
watching where it meets the sandwich plane ``span{e2, e3}`` is the geometric
half of the stability computation, the counterpart of counting unstable
eigenvalues of the linearization directly.

Each fixed step's map is a Taylor series.  ``B(x) = B0(lam) + f'(phi(x)) E``
is affine in the potential (``E`` the unit matrix at (3, 1)), so with the
potential's Taylor coefficients ``p_i`` (``pulse.grid_potential_jet``, the
only source of them: a grid of a chunk's expansion points, or the one point
of a sample) ``_taylor`` runs
``(n+1) F_{n+1} = B_0 F_n + sum_{i=1..n} p_i E F_{n-i}`` for every point of
a chunk at once.  ``_step_maps`` runs it from ``F_0 = I`` about the
midpoint ``c`` of every pair of steps: summed at ``h`` it is the map of
``[c, c + h]``, summed at ``-h`` the map back to ``c - h``, whose symplectic
inverse (its entries moved and negated) is the map of ``[c - h, c]``.  A
chunk's degree puts the next term ``(|B|_1 h)^(K+1) / (K+1)!`` of its
largest step below 2^-53 (10 at the default step), so a map is the product
of its halves' maps, and symplectic, to rounding: the plane stays
Lagrangian.

``FrameTrajectory`` keeps the frame after every transport step and runs
the same recurrence once per step point it is asked about, from the stored
frame, and keeps the series: ``frame_at`` between the step points sums
the nearest one's at the point, so a crossing search that probes one
bracket many times expands only its two ends; ``jet`` runs it at the point
itself.  The samples are every ``_substeps(dx)``-th step point, so the
plane family does not depend on the sample spacing beyond its steps: at a
spacing whose sub-step is ``MAX_STEP`` it is the default's, bit for bit.

The chunks are small (``_CHUNK`` midpoints) so that each one's Taylor stack
and cosine-series products fit in the memory the last chunk freed, and the
series' offset table is kept between chunks and transports: a transport
after the first maps no fresh pages.

The frame grows like ``exp(Re gamma * x)``; it is kept orthonormal by the
package's one Gram-Schmidt (``lagrangian._orthonormalize``), which changes
neither the spanned plane nor its unit Plücker coordinates, whose ``P14``,
the crossing detector, vanishes exactly where the plane meets the sandwich
plane.  Gram-Schmidt need not run after every step, only often
enough to keep the frame well conditioned: ``_transport`` multiplies the
maps out inside blocks of about ``sqrt(nsteps)`` steps and orthonormalizes
each block's products applied to the block's start frame in one stacked
call.  The unstable tail eigenvalues are ``alpha +- i beta``, so both
columns grow at the same rate and a block only rotates the frame: on the
reference pulses the singular-value ratio of a block product applied to
its start frame stays below 6.

The planes agree with a textbook loop (``Phi @ F`` and Gram-Schmidt per
step on the same maps) to rounding, not to the bit: the tests hold their
unit Plücker coordinates for x <= 0 within 1e-13 of it.  The CLI's printed
counts, eigenvalues and crossing tables are pinned bitwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .lagrangian import _orthonormal, _orthonormalize, plucker
from .model import Params, asymptotic_frames, coefficient_matrix
from .pulse import FourierPulse, grid_potential_jet

# Longest step; a coarser sample spacing takes equal sub-steps.
MAX_STEP = 0.05
# Relative noise level the trust horizon assumes for the plane; the steps
# add rounding only (halving one moves the planes < 1e-14 up to the core).
TRANSPORT_NOISE = 1e-10
# Largest |B|_1 h of a step.  Where |B|_2 h < pi guarantees the Magnus series
# converges (Moan & Niesen, Found. Comput. Math. 2008), |B|_1 h < 2 pi, as
# |B|_1 <= 2 |B|_2 for 4 x 4 matrices; the Taylor series then takes ~40 terms.
_REACH = 2.0 * math.pi
# Expansion points (midpoints of pairs of steps) per pass of the recurrence,
# chosen by measurement when each point was a step start.  Each chunk frees
# its working set (the (K+1, 4, 256, 4) Taylor stack, 360 kB at degree 10,
# and the cosine series' (K+1, 4, 2N) weighted anchor rows, 164 kB at
# N = 256) for the next to reuse, so a transport runs in memory the process
# already holds and faults in no fresh pages.  A snaking transport's
# tracemalloc peak was 0.88 MB with 256 points, 1.04 MB with 384 and 1.28 MB
# with 512, which were not faster beyond the noise of a shared 2-vCPU host;
# 128 points were ~40% slower, from twice the Python-level passes (one BLAS
# thread).
_CHUNK = 256
# The 1-norm of B's last three columns, which hold neither the potential nor lam.
_FIXED_NORM = float(np.abs(coefficient_matrix(0.0, 0.0)[:, 1:]).sum(axis=0).max())
_IDENTITY = np.eye(4)[:, None]


class TransportError(RuntimeError):
    """The potential or the frame left the finite range, or a step its series' reach."""


@dataclass(frozen=True)
class ShootingSettings:
    """Numerical policy for the frame transport: window and sample spacing.

    The window length must be a positive integer multiple of ``dx``; a
    window within rounding of zero steps is refused, and so is one whose
    step count overflows a float, and a ``dx`` so fine that
    :func:`_substeps` gives it no transport step.
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
        steps = (b - a) / self.dx
        if not np.isfinite(steps):
            raise ValueError(
                f"window [{a:g}, {b:g}] holds more steps of dx = {self.dx:g} than a float counts")
        nsteps = round(steps)
        if abs(a + nsteps * self.dx - b) > 1e-9 * max(1.0, abs(b)):
            raise ValueError(
                f"window [{a:g}, {b:g}] of length {b - a:g} is not an integer "
                f"multiple of dx = {self.dx:g}")
        if nsteps == 0:
            raise ValueError(f"window [{a:g}, {b:g}] holds no step of dx = {self.dx:g}")
        if _substeps(self.dx) == 0:
            raise ValueError(f"dx = {self.dx:g} is too fine for the transport to step")


def initial_frame(p: Params, lam: float = 0.0) -> np.ndarray:
    """Orthonormal frame of the unstable plane of the tail matrix.

    Gram-Schmidt with positive diagonal keeps the orientation of the
    closed-form basis, whose first Plücker coordinate is positive.
    """
    return _orthonormal(asymptotic_frames(lam, p).unstable_frame)


def _taylor(Bc: np.ndarray, p: np.ndarray, F0: np.ndarray, K: int,
            h: float = 1.0) -> np.ndarray:
    """Coefficients ``h^n F_n``, n = 0..K, of the Taylor series of ``F' = B F``
    through ``F0``: ``(n+1) F_{n+1} = B_0 F_n + sum_{i=1..n} p_i E F_{n-i}``
    with ``E`` the unit matrix at (3, 1), ``p_0..p_{K-1}`` the potential's
    coefficients on ``p``'s last axis and ``B_0 = Bc + p_0 E`` (``Bc`` the
    coefficient matrix without the potential; ``p_0`` joins the sum).  A 2-D
    ``p`` holds a point per row; the points sit between a coefficient's rows
    and its ``m`` columns, shape ``(K+1, 4) + p.shape[:-1] + (m,)``, so that
    each ``B_0 F_n`` is one matrix product."""
    F = np.empty((K + 1, 4) + p.shape[:-1] + F0.shape[-1:])
    F[0] = F0
    flat = F.reshape(K + 1, 4, -1)
    Bh = h * Bc
    # q_i = p_i h^(i+1), one row per order and one column per column of flat
    q = np.repeat((np.atleast_2d(p)[:, :K] * h ** np.arange(1, K + 1)).T, F0.shape[-1], axis=1)
    for n in range(K):
        np.matmul(Bh, flat[n], out=flat[n + 1])
        flat[n + 1, 2] += np.einsum("ij,ij->j", q[:n + 1], flat[n::-1, 0])
        flat[n + 1] /= n + 1
    return F


def _degree(reach: float) -> int:
    """Least ``K`` whose next term ``reach^(K+1) / (K+1)!`` is below 2^-53."""
    return next(K for K in itertools.count() if reach**(K + 1) / math.factorial(K + 1) < 2**-53)


def _reach(Bc: np.ndarray, p0: np.ndarray, h: float) -> np.ndarray:
    """``|B|_1 h`` at points whose potential is ``p0``: the potential enters
    B only at (3, 1), the only entry of its column."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.maximum(abs(h) * np.abs(Bc[2, 0] + p0), abs(h) * _FIXED_NORM)


def _symplectic_inverse(M: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``J^T M^T J = [[D^T, -B^T], [-C^T, A^T]]`` of maps ``M = [[A, B], [C, D]]``
    on the last two axes, written into ``out``: the inverse of a symplectic
    map, by moving and negating its entries, so without a rounding."""
    T = M.swapaxes(-1, -2)
    out[..., :2, :2] = T[..., 2:, 2:]
    np.negative(T[..., 2:, :2], out=out[..., :2, 2:])
    np.negative(T[..., :2, 2:], out=out[..., 2:, :2])
    out[..., 2:, 2:] = T[..., :2, :2]
    return out


def _series_potential(pulse: FourierPulse, Bc: np.ndarray, c: float, step: float,
                      n: int, h: float) -> tuple[np.ndarray, int]:
    """The potential's coefficients at the expansion points ``c + i step``,
    ``i < n``, and the degree ``_degree(|B|_1 h)`` of their series over a
    step ``h``, ``|B|_1`` the largest at the points: evaluated at the degree
    of ``_FIXED_NORM``, the least any step takes, and again at a higher one.

    Raises
    ------
    TransportError
        When a point's potential is not finite, or its ``|B|_1 h`` exceeds
        ``_REACH``; the message names the point, or the step ending there.
    """
    K = _degree(abs(h) * _FIXED_NORM)
    with np.errstate(over="ignore", invalid="ignore"):
        p = grid_potential_jet(pulse, c, step, n, K - 1)
    reach = _reach(Bc, p[:, 0], h)
    top = reach.max()
    if not top <= _REACH:
        i = int(np.argmax(~(reach <= _REACH)))
        x = c + i * step
        raise TransportError(
            f"the potential f'(phi(x)) is not finite at x = {x:.6g}"
            if not np.isfinite(reach[i]) else
            f"the step at x = {x - h:.6g} has |B|_1 h = {reach[i]:.3g}, beyond "
            f"the reach {_REACH:.3g} of its Taylor series")
    degree = _degree(top)
    if degree > K:
        p = grid_potential_jet(pulse, c, step, n, degree - 1)
    return p, degree


def _step_maps(pulse: FourierPulse, lam: float, x0: float, h: float,
               nsteps: int) -> np.ndarray:
    """Maps of the steps ``[s, s + h]`` from the starts ``s = x0 + j h``,
    ``j < nsteps``, two steps from each expansion.  ``_taylor`` runs from
    ``F_0 = I`` about every midpoint ``c = x0 + (2k + 1) h`` of a pair of
    steps, one call per chunk of ``_CHUNK`` midpoints, to the chunk's
    ``_series_potential`` degree.  Summed at ``h`` the series is the map of
    ``[c, c + h]``; summed with alternating signs it is the map back from
    ``c`` to ``c - h``, whose symplectic inverse is the map of
    ``[c - h, c]``.  An odd step count drops the last pair's forward map.

    Raises
    ------
    TransportError
        From ``_series_potential``, at a midpoint.
    """
    Bc = coefficient_matrix(0.0, lam)
    npairs = -(-nsteps // 2)
    maps = np.empty((2 * npairs, 4, 4))
    for i in range(0, npairs, _CHUNK):
        n = min(_CHUNK, npairs - i)
        p, degree = _series_potential(pulse, Bc, x0 + (2 * i + 1) * h, 2 * h, n, h)
        terms = _taylor(Bc, p, _IDENTITY, degree, h)
        # the series is summed from its smallest terms up, at h and at -h
        maps[2 * i + 1:2 * (i + n):2] = terms[::-1].sum(axis=0).swapaxes(0, 1)
        terms[1::2] *= -1.0
        _symplectic_inverse(terms[::-1].sum(axis=0).swapaxes(0, 1), maps[2 * i:2 * (i + n):2])
    return maps[:nsteps]


def _transport(pulse: FourierPulse, lam: float, x0: float, h: float,
               nsteps: int, F: np.ndarray) -> np.ndarray:
    """Frames after each of ``nsteps`` steps of size ``h``.

    The result has shape ``(nsteps + 1, 4, 2)`` and starts with the
    orthonormalized ``F``.  The steps are cut into blocks of
    ``b = ceil(sqrt(nsteps))`` (the last may be shorter), the length that
    makes the ``b - 1 + nsteps / b`` Python-level calls below least:

    1. the maps are multiplied out inside every block at once, in place, so
       that ``maps[k]`` becomes the product of its block's maps up to step
       ``k``;
    2. the frame is carried from block start to block start, one
       Gram-Schmidt per block;
    3. every frame is its block's product times its block's start frame,
       orthonormalized in one stacked call.

    Raises
    ------
    TransportError
        When a frame is not finite; the message names its step's x.
    """
    maps = _step_maps(pulse, lam, x0, h, nsteps)
    b = math.isqrt(nsteps - 1) + 1
    nblocks = -(-nsteps // b)
    starts = np.empty((nblocks, 4, 2))
    out = np.empty((nsteps + 1, 4, 2))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(1, b):
            np.matmul(maps[i::b], maps[i - 1:nsteps - 1:b], out=maps[i::b])
        _orthonormalize(F, starts[0])
        for j in range(1, nblocks):
            _orthonormalize(maps[j * b - 1] @ starts[j - 1], starts[j])
        out[0] = starts[0]
        _orthonormalize(maps @ starts[np.arange(nsteps) // b], out[1:])
        # a frame too large to square comes out of Gram-Schmidt as zeros, a
        # non-finite one as NaN; either way its columns are not unit vectors
        unit = (np.abs((out * out).sum(axis=1) - 1.0) < 0.5).all(axis=1)
    if not unit.all():
        bad = int(np.argmin(unit))
        raise TransportError(f"the transported frame is not finite at x = {x0 + bad * h:.6g}")
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
    """The transported unstable plane, kept at every transport step.

    ``steps`` holds the orthonormal frame after each step of ``_transport``
    as one read-only array; the samples are every ``_substeps(dx)``-th of
    them, at ``xs``, with the frames ``frames`` (a view of ``steps``).  The
    unit Plücker coordinates ``plucker`` of the samples (their ``P14``
    column is the crossing detector) and the symplectic-form drift
    ``omega_drift = |P13 + P24|`` are computed for all samples at once.
    ``frame_at`` and ``jet`` are the plane family the crossing engine
    classifies: ``frame_at`` sums the nearest step point's Taylor series,
    run once from its stored frame and kept, and ``jet`` runs the recurrence
    at the point from that frame; both are as accurate as the stored steps.
    """

    pulse: FourierPulse
    lam: float
    settings: ShootingSettings
    steps: np.ndarray

    @cached_property
    def _every(self) -> int:
        return _substeps(self.settings.dx)

    @cached_property
    def xs(self) -> np.ndarray:
        nsamples = (len(self.steps) - 1) // self._every
        return self.settings.window[0] + self.settings.dx * np.arange(nsamples + 1)

    @cached_property
    def frames(self) -> np.ndarray:
        return self.steps[::self._every]

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
            for x, F, d, P, w in zip(self.xs, self.frames, self.plucker[:, 2],
                                     self.plucker, self.omega_drift))

    @cached_property
    def _expansions(self) -> dict[int, np.ndarray]:
        return {}

    @cached_property
    def _h(self) -> float:
        return self.settings.dx / self._every

    def _nearest(self, x: float) -> tuple[int, float]:
        """The step point ``j`` nearest ``x`` and the offset of ``x`` from
        it, 0 within 1e-13 of the point."""
        x = float(x)
        a, b = self.settings.window
        if not self.xs[0] <= x <= self.xs[-1]:
            raise ValueError(
                f"x = {x:.6g} lies outside the integration window [{a:g}, {b:g}]"
            )
        j = round((x - a) / self._h)
        dt = x - (a + j * self._h)
        return j, dt if abs(dt) >= 1e-13 else 0.0

    def _expansion(self, j: int) -> np.ndarray:
        """The plane's Taylor coefficients about step point ``j``, from its
        stored frame, to the degree that sums them to rounding over a step,
        as one ``(D+1, 8)`` array; computed once per point."""
        S = self._expansions.get(j)
        if S is None:
            Bc, h = coefficient_matrix(0.0, self.lam), self._h
            p, D = _series_potential(self.pulse, Bc, self.settings.window[0] + j * h, 0.0, 1, h)
            S = self._expansions[j] = _taylor(Bc, p[0], self.steps[j], D).reshape(D + 1, 8)
        return S

    def frame_at(self, x: float) -> np.ndarray:
        """Orthonormal frame at ``x`` (a read-only view at a step point)."""
        j, dt = self._nearest(x)
        if dt == 0.0:
            return self.steps[j]
        S = self._expansion(j)
        return _orthonormalize((dt ** np.arange(len(S)) @ S).reshape(4, 2), np.empty((4, 2)))

    def jet(self, x: float, K: int) -> np.ndarray:
        """Taylor coefficients ``F_0..F_K``, shape ``(K+1, 4, 2)``, at ``x`` of
        the solution of ``F' = B F`` through ``frame_at(x)``: the plane's jet,
        the recurrence run at ``x`` itself from that frame and the
        potential's coefficients there."""
        F = self.frame_at(x)
        if K == 0:
            return F[None]
        p = grid_potential_jet(self.pulse, x, 0.0, 1, K - 1)[0]
        return _taylor(coefficient_matrix(0.0, self.lam), p, F, K)


def _substeps(dx: float) -> int:
    """Transport steps per sample spacing ``dx``: the fewest of at most
    ``MAX_STEP``."""
    return math.ceil(dx / MAX_STEP - 1e-9)


def integrate_frame(pulse: FourierPulse, lam: float = 0.0,
                    settings: ShootingSettings = ShootingSettings()) -> FrameTrajectory:
    """Transport the asymptotic unstable plane across the window.

    The frame starts at the unstable plane of the constant tail matrix and
    is advanced by steps of the sample spacing ``dx``, or by equal
    sub-steps of at most ``MAX_STEP`` when ``dx`` is coarser; the frame
    after every step is kept.

    Raises
    ------
    TransportError
        When the potential or the frame stops being finite, or a step
        exceeds the reach of its Taylor series.
    """
    a, b = settings.window
    if a < -pulse.L_f or b > pulse.L_f:
        raise ValueError(
            f"window [{a:g}, {b:g}] exceeds the pulse's half-period {pulse.L_f:g}"
        )
    every = _substeps(settings.dx)
    nsteps = int(round((b - a) / settings.dx)) * every
    steps = _transport(pulse, lam, a, settings.dx / every, nsteps,
                       initial_frame(pulse.params, lam))
    steps.setflags(write=False)
    return FrameTrajectory(pulse=pulse, lam=lam, settings=settings, steps=steps)


def write_trajectory(trajectory: FrameTrajectory, destination) -> None:
    """Write sample rows ``x, detA, P12..P34, omega_drift`` as CSV.

    The bytes are those of ``csv.writer``: the ``repr`` of each float (which
    never needs quoting), comma-separated, each row ending in CRLF.
    """

    def _write(fh) -> None:
        # detA is the P14 column, bit for bit, so its strings are formatted once
        x, p12, p13, p14, p23, p24, p34, drift = (
            list(map(repr, column)) for column in np.column_stack(
                [trajectory.xs, trajectory.plucker, trajectory.omega_drift]).T.tolist())
        fh.write("x,detA,P12,P13,P14,P23,P24,P34,omega_drift\r\n")
        fh.write("".join(",".join(row) + "\r\n"
                         for row in zip(x, p14, p12, p13, p14, p23, p24, p34, drift)))

    if hasattr(destination, "write"):
        _write(destination)
    else:
        with open(Path(destination), "w", newline="") as fh:
            _write(fh)
