"""Stationary symmetric pulses as truncated Fourier series.

A pulse on [-L_f, L_f] is represented by real coefficients a_k of

    phi(x) = sum_{|k| <= N} a_k exp(i*pi*k*x/L_f),   a_{-k} = a_k,

so only the half vector a_0..a_N is stored.  The stationarity condition
0 = -(1 + d_xx)^2 u - mu*u + nu*u^2 - u^3 becomes, componentwise,

    F_k(a) = [-mu - (1 - k^2 pi^2/L_f^2)^2] a_k + nu (a*a)_k - (a*a*a)_k,

with * the truncated convolution over |k_i| <= N.  Newton's method is run
on the half vector, which removes the translational zero direction, coarse
to fine: the leading modes first, then their zero-padded solution at N.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import Params, normal_form

__all__ = [
    "FourierPulse",
    "PulseFileError",
    "NewtonError",
    "convolve2",
    "convolve3",
    "residual",
    "parity_blocks",
    "newton_solve",
    "seed_from_normal_form",
    "evaluate",
    "grid_potential_jet",
    "save",
    "load",
]


class PulseFileError(ValueError):
    """Raised when a pulse file cannot be parsed or violates an invariant."""


class NewtonError(RuntimeError):
    """Raised when the Newton iteration fails to converge or degenerates."""

    def __init__(self, message: str, residual_norm: float):
        super().__init__(f"{message} (last residual sup-norm {residual_norm:.3e})")
        self.residual_norm = residual_norm


@dataclass(frozen=True, eq=False)
class FourierPulse:
    """Truncated, even Fourier representation of a stationary profile.

    A pulse is its coefficients: the truncation order ``N`` and the
    residual sup-norm ``residual_norm`` are derived from the fields, so a
    pulse cannot carry another pulse's residual.

    Attributes
    ----------
    params : Params
        Model parameters (nu, mu).
    phi : float
        Phase tag of the underlying profile family (0 or pi).
    L_f : float
        Half-period; the profile lives on [-L_f, L_f].
    a : ndarray, shape (N+1,)
        Half coefficient vector a_0..a_N, non-empty and finite; the full
        vector is the even extension a_{-k} = a_k.
    """

    params: Params
    phi: float
    L_f: float
    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("expected a 1-D vector a_0..a_N with N non-negative, "
                             f"got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "a", a)
        if not (np.isfinite(self.L_f) and self.L_f > 0):
            raise ValueError("L_f must be positive and finite")

    @property
    def N(self) -> int:
        """Truncation order, ``a.size - 1``."""
        return self.a.size - 1

    @functools.cached_property
    def residual_norm(self) -> float:
        """Sup-norm of the stationarity residual F at these coefficients."""
        return float(np.abs(residual(self.full(), self.params, self.L_f)).max())

    @property
    def tail_floor(self) -> float:
        """Relative size ``|a_M| / max |a_k|`` of the last nonzero
        coefficient, the last solved mode of a zero-padded solve (0 for the
        zero vector)."""
        nonzero = np.flatnonzero(self.a)
        if nonzero.size == 0:
            return 0.0
        return float(abs(self.a[nonzero[-1]])) / float(np.max(np.abs(self.a)))

    def full(self) -> np.ndarray:
        """Full coefficient vector a_{-N}..a_N via the even extension."""
        return _half_to_full(self.a)


def _convolve_powers(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a*a)_k and (a*a*a)_k for |k| <= N from one self-convolution.

    The self-convolution is kept at full length for the cubic term:
    truncating it would drop pairs whose partial sum leaves [-N, N] even
    though the triple sum returns to range.
    """
    a = np.asarray(a, dtype=float)
    n = (a.size - 1) // 2
    aa = np.convolve(a, a)
    return aa[n : 3 * n + 1], np.convolve(aa, a)[2 * n : 4 * n + 1]


def convolve2(a: np.ndarray) -> np.ndarray:
    """(a*a)_k = sum_{k1+k2=k} a_{k1} a_{k2} for |k|, |k_i| <= N.

    `a` is a full coefficient vector of odd length 2N+1.
    """
    return _convolve_powers(a)[0]


def convolve3(a: np.ndarray) -> np.ndarray:
    """(a*a*a)_k, the triple sum over k1+k2+k3 = k with all |k_i| <= N."""
    return _convolve_powers(a)[1]


def _linear_symbol(N: int, p: Params, L_f: float) -> np.ndarray:
    k = np.arange(-N, N + 1)
    return -p.mu - (1.0 - (k * np.pi / L_f) ** 2) ** 2


def residual(a: np.ndarray, p: Params, L_f: float) -> np.ndarray:
    """Stationarity residual F(a) on the full coefficient vector (non-finite,
    without a warning, where the coefficients overflow).  Its quadratic and
    cubic terms are those of :func:`convolve2` and :func:`convolve3`, from
    one self-convolution."""
    a = np.asarray(a, dtype=float)
    N = (a.size - 1) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        quadratic, cubic = _convolve_powers(a)
        return _linear_symbol(N, p, L_f) * a + p.nu * quadratic - cubic


def _half_to_full(h: np.ndarray) -> np.ndarray:
    return np.concatenate([h[:0:-1], h])


def _parity_block(a: np.ndarray, p: Params, L_f: float, parity: int) -> np.ndarray:
    """One parity block of DF at the full even coefficient vector a.

    DF_kj = lin_k delta_kj + w[k-j] with w = 2 nu a - 3 (a*a) on the offsets
    -2N..2N (the untruncated quadratic convolution, matching the
    differentiated triple sum).  Folding column -j onto column j with
    b_{-j} = parity * b_j gives (lin_k delta_kj + w[k-j]) + parity * w[k+j]
    on modes 0..N for parity +1 (no Hankel term in column 0) or 1..N for
    -1: a Toeplitz view of w, then a Hankel view, added in the order of the
    folded full matrix so that the sums are the same bits.  A non-finite
    entry raises ValueError.
    """
    N = (a.size - 1) // 2
    first = 0 if parity > 0 else 1
    n = N + 1 - first
    with np.errstate(over="ignore", invalid="ignore"):
        w = 2.0 * p.nu * np.concatenate([np.zeros(N), a, np.zeros(N)]) - 3.0 * np.convolve(a, a)
        block = np.array(sliding_window_view(w[::-1], n)[N + first : 2 * N + 1][::-1])
        block.flat[:: n + 1] += _linear_symbol(N, p, L_f)[N + first :]
        hankel = sliding_window_view(w, n)[2 * N + 2 * first : 3 * N + first + 1]
        if parity > 0:
            block[:, 1:] += hankel[:, 1:]
        else:
            block -= hankel
    if not np.all(np.isfinite(block)):
        raise ValueError("non-finite Jacobian: the coefficients overflow its "
                         f"{'even' if parity > 0 else 'odd'} block")
    return block


def parity_blocks(a: np.ndarray, p: Params, L_f: float) -> tuple[np.ndarray, np.ndarray]:
    """The parity blocks of DF at the even half vector a_0..a_N.

    DF commutes with k -> -k at an even pulse, so it maps even vectors
    (b_{-k} = b_k) and odd vectors (b_{-k} = -b_k, b_0 = 0) to themselves.
    Each block is assembled at its own size, never from the (2N+1)-square
    matrix: the even block on b_0..b_N (the Newton matrix of the half
    vector) and the odd block on b_1..b_N (symmetric).  The even block is
    self-adjoint for the weights (1, 2, 2, ...) that count each pair of
    modes once.
    """
    full = _half_to_full(a)
    return _parity_block(full, p, L_f, +1), _parity_block(full, p, L_f, -1)


# The wavenumber a coarse Newton level must still resolve; the linear
# symbol (1 - k^2)^2 is 225 there.
COARSE_WAVENUMBER = 4.0
# Newton steps allowed at each level.
MAX_ITER = 50


def newton_solve(
    seed: FourierPulse,
    tol: float = 1e-12,
    history: list | None = None,
) -> FourierPulse:
    """Refine a seed pulse by Newton's method on the half vector.

    The reduced system substitutes a_{-k} = a_k into F_k for k = 0..N (its
    matrix is the even block of `parity_blocks`, the only one assembled), so
    the iteration acts on N+1 unknowns and never sees the translational
    zero mode of the full system.  Convergence is declared on the sup-norm
    of the full residual.

    Coarse to fine (nested iteration): when M = N // 2 modes resolve
    wavenumber ``COARSE_WAVENUMBER`` (M pi / L_f >= 4), a_0..a_M are solved
    first by the same rule, and their solution, zero-padded, starts the loop
    at N (a padded vector that meets `tol` is returned as it is).  A
    `NewtonError` at a coarse level restarts from the seed at N.  The step
    limit ``MAX_ITER`` applies to each level.

    Parameters
    ----------
    history : list, optional
        If given, the residual sup-norm of every iterate of every level,
        each level's start included, coarsest first, is appended to it.

    Raises
    ------
    NewtonError
        On a non-finite residual, a singular Newton system, if ``MAX_ITER``
        steps do not bring the residual below `tol`, or if the converged
        state is u = 0 (every coefficient within `tol` of zero), which is
        not a pulse; raised by the loop at N.
    """
    h = _coarse_to_fine(seed.a.copy(), seed.params, seed.L_f, tol, history)
    return replace(seed, a=h)


def _coarse_to_fine(h, params, L_f, tol, history):
    """`newton_solve` on the half vector h: its solution."""
    N = h.size - 1
    M = N // 2
    if M * np.pi / L_f >= COARSE_WAVENUMBER:
        try:
            coarse = _coarse_to_fine(h[:M + 1], params, L_f, tol, history)
            h = np.concatenate([coarse, np.zeros(N - M)])
        except NewtonError:
            pass
    return _newton(h, params, L_f, tol, history)


def _newton(h, params, L_f, tol, history):
    """Newton's loop at one level: its solution."""
    N = h.size - 1
    res_norm = np.inf
    for _ in range(MAX_ITER + 1):
        full = _half_to_full(h)
        F = residual(full, params, L_f)
        res_norm = float(np.abs(F).max())
        if history is not None:
            history.append(res_norm)
        if res_norm <= tol:
            if np.abs(h).max() <= tol:
                raise NewtonError("converged to the trivial state u ≡ 0", res_norm)
            return h
        if not np.isfinite(res_norm):
            raise NewtonError("non-finite residual: the coefficients overflow", res_norm)
        even = _parity_block(full, params, L_f, +1)
        try:
            step = np.linalg.solve(even, -F[N:])
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular Newton system: {exc}", res_norm) from exc
        h = h + step
    raise NewtonError(f"no convergence in {MAX_ITER} iterations", res_norm)


def seed_from_normal_form(
    p: Params, phi: float, L_f: float = 100.0, N: int = 128, scale: float = 1.0
) -> FourierPulse:
    """Project the small-amplitude profile scale*u_phi onto the Fourier basis.

    a_k = (1/2L_f) integral u(x) cos(pi k x / L_f) dx by the composite
    trapezoid rule on the 4N+1 points x_j = -L_f + j L_f / (2N); for the
    smooth, even integrand this is spectrally accurate.  On that grid
    cos(pi k x_j / L_f) = (-1)^k cos(2 pi k j / 4N), and the two
    half-weight endpoints j = 0 and j = 4N share the same cosine, so they
    fold into sample 0 and the rule is exactly (-1)^k / 4N times the real
    part of a length-4N real DFT: one `rfft`, no (N+1) x (4N+1) cosine
    table.  The full grid is kept on purpose: `linspace`'s samples are not
    bitwise symmetric (u(x_j) and u(x_{4N-j}) differ by up to 1.8e-14 at
    N = 192), so a DCT-I on the half grid would be another quadrature.  On
    the reference pulses at N = 192 and 512 the DFT is 5-20x closer than
    an (N+1) x (4N+1) cosine table to the same rule summed in long double
    (4.5e-18 to 1.2e-17 of max|u| against 2.8e-17 to 1.0e-16), and the two
    differ by at most 8e-17.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    x = np.linspace(-L_f, L_f, 4 * N + 1)
    u = scale * normal_form(x, phi, p)
    u[0] = 0.5 * (u[0] + u[-1])
    a = np.fft.rfft(u[:-1])[: N + 1].real / (4 * N)
    a[1::2] = -a[1::2]
    return FourierPulse(params=p, phi=float(phi), L_f=float(L_f), a=a)


# Points per anchor of a uniform grid, the width of ``_series_jet``'s offset
# table.  A grid of fewer points is its own anchors with the single offset 0,
# so that every short grid (a short window's steps, the one point of a
# trajectory's cached series) shares one cached table instead of keying one
# by its h.
_SPAN = 64


def _series_jet(pulse: FourierPulse, x, K: int, h: float = 0.0, n: int = 1) -> np.ndarray:
    """Taylor coefficients phi_0..phi_K of the profile at the n points
    x + i h, i < n, after every entry of x, shape ``(K+1,) + x.shape + (n,)``.

    Order j of phi(x) = a_0 + 2 sum_k a_k cos(k w x), w = pi / L_f, weights
    a_k by (k w)^j / j! on the cycle cos, -sin, -cos, sin.  The points are
    split as X_q + r_i, anchors X_q = x + q J h and offsets r_i = i h
    (i < J, J = _SPAN if n >= _SPAN else 1), and angle addition gives
    cos(k w (X + r)) = cX cR - sX sR and sin(k w (X + r)) = sX cR + cX sR.
    With the signed weights W_j of ``_weights``, order j at an anchor's J
    points is its row [W_j cX | -W_j sX] (even j) or [W_j sX | W_j cX]
    (odd j) times the (2N, J) offset table [cR; sR] of ``_offsets``: one
    matrix product for all orders and anchors, and 2N sines and cosines per
    anchor, so per point 2N / J of them and 4N(K+1) flops.  A grid shorter
    than _SPAN, and an arbitrary array (``evaluate``), is its own anchors
    with the single offset 0, the N-wide cosine table.  On the default
    transport's 2400 step starts order 0 is closer to a long-double sum
    than the N-wide table in double is (4.1e-16, 4.1e-16 and 2.1e-15
    against 7.1e-16, 7.7e-16 and 3.0e-15 on phi0, phipi and snaking).  A
    point outside [-L_f, L_f] by more than rounding is a ValueError: the
    last point of a grid ending at L_f may round past it.
    """
    x = np.asarray(x, dtype=float)
    ends = np.abs(np.concatenate([x.ravel(), x.ravel() + (n - 1) * h]))
    if np.any(ends > pulse.L_f * (1.0 + 4 * np.finfo(float).eps)):
        raise ValueError(f"x outside the pulse domain [-{pulse.L_f}, {pulse.L_f}]")
    J = _SPAN if n >= _SPAN else 1
    Q = -(-n // J)
    anchors = np.add.outer(x, (J * h) * np.arange(Q)).ravel()
    N = pulse.N
    weights = _weights(pulse, K)
    # cos | sin | cos of the anchors' angles, so that an even order's
    # factors are its first 2N columns and an odd order's its last 2N
    trig = np.empty((anchors.size, 3 * N))
    np.multiply.outer(anchors, _rates(N, pulse.L_f), out=trig[:, :N])
    np.sin(trig[:, :N], out=trig[:, N:2 * N])
    np.cos(trig[:, :N], out=trig[:, :N])
    trig[:, 2 * N:] = trig[:, :N]
    left = np.empty((K + 1, anchors.size, 2 * N))
    np.multiply(weights[0::2, None], trig[:, :2 * N], out=left[0::2])
    np.multiply(weights[1::2, None], trig[:, N:], out=left[1::2])
    # a single offset is 0 whatever h is, so every short grid and every
    # arbitrary array share one table
    offsets = _offsets(N, pulse.L_f, h if J > 1 else 0.0, J)
    out = left.reshape((K + 1) * anchors.size, 2 * N) @ offsets
    out = out.reshape((K + 1,) + x.shape + (Q * J,))[..., :n]
    out[0] += pulse.a[0]
    return out


def _rates(N: int, L_f: float) -> np.ndarray:
    """The angular rates k w, k = 1..N, w = pi / L_f, of the cosine series."""
    return np.arange(1, N + 1) * (np.pi / L_f)


@functools.lru_cache(maxsize=16)
def _weights(pulse: FourierPulse, K: int) -> np.ndarray:
    """``_series_jet``'s signed weights, shape ``(K+1, 2N)``: with W_j =
    2 a_k (k w)^j / j! times the sign of order j's term on the cycle cos,
    -sin, -cos, sin, the row [W_j | -W_j] for an even j and [W_j | W_j]
    for an odd one."""
    j = np.arange(1, K + 1)
    W = np.empty((K + 1, pulse.N))
    W[0] = 2.0 * pulse.a[1:]
    # W_j = W_{j-1} (-1)^j k w / j
    W[1:] = _rates(pulse.N, pulse.L_f) / (j * (-1.0) ** j)[:, None]
    W = np.cumprod(W, axis=0)
    return np.concatenate([W, W * (-1.0) ** np.arange(1, K + 2)[:, None]], axis=1)


@functools.lru_cache(maxsize=16)
def _offsets(N: int, L_f: float, h: float, J: int) -> np.ndarray:
    """``_series_jet``'s offset table: cos(k w i h) over sin(k w i h),
    shape ``(2N, J)``, for i < J.  It is kept, since every chunk of a grid
    uses it (0.24-0.64 ms to build at N = 192-320), and keyed by the modes
    rather than the pulse, so that pulses of one N and L_f share it."""
    angle = np.multiply.outer(_rates(N, L_f), h * np.arange(J))
    return np.concatenate([np.cos(angle), np.sin(angle)])


def evaluate(pulse: FourierPulse, x):
    """Evaluate the profile at x in [-L_f, L_f]: order 0 of ``_series_jet``."""
    out = _series_jet(pulse, x, 0)[0, ..., 0]
    return float(out) if out.ndim == 0 else out


def grid_potential_jet(pulse: FourierPulse, x0: float, h: float, n: int,
                       K: int) -> np.ndarray:
    """Taylor coefficients p_0..p_K of f'(phi) = 2 nu phi - 3 phi^2 - mu at
    the n grid points x0 + i h, i < n, shape ``(n, K+1)``, from phi's on
    ``_series_jet``'s grid: the one way the potential reaches the transport
    and the crossing jets."""
    phi = _series_jet(pulse, float(x0), K, h, n)
    # the square's Cauchy product, summed over i = 0..K in order
    square = phi * phi[0]
    for i in range(1, K + 1):
        square[i:] += phi[i] * phi[:K + 1 - i]
    p = 2.0 * pulse.params.nu * phi - 3.0 * square
    p[0] -= pulse.params.mu
    return p.T


_FIELDS = ("nu", "mu", "phi", "L_f", "N", "coefficients", "residual_norm")
# `load` re-evaluates the residual and accepts a sup-norm up to
# max(RESIDUAL_SLACK * stored, RESIDUAL_FLOOR): the file's coefficients
# must solve the equation as well as the stored value says, give or take
# the rounding of another machine's convolutions.
RESIDUAL_SLACK = 2.0
RESIDUAL_FLOOR = 1e-12


def save(pulse: FourierPulse, path) -> None:
    """Write a pulse to a self-describing JSON document."""
    doc = {
        "nu": pulse.params.nu,
        "mu": pulse.params.mu,
        "phi": pulse.phi,
        "L_f": pulse.L_f,
        "N": pulse.N,
        "coefficients": [float(c) for c in pulse.a],
        "residual_norm": pulse.residual_norm,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _is_number(value) -> bool:
    """True for a JSON number (an int or a float, not a boolean)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load(path) -> FourierPulse:
    """Read a pulse file written by `save`, validating all invariants.

    The file's ``N`` must be its coefficient count less one.  The pulse's
    residual, derived from the coefficients, is compared with the file's
    ``residual_norm``: a finite sup-norm above
    ``max(RESIDUAL_SLACK * residual_norm, RESIDUAL_FLOOR)`` is a
    `PulseFileError`, since the coefficients then are not the pulse the
    file claims.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PulseFileError(
            f"{path}: malformed pulse file: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})"
        ) from exc
    if not isinstance(doc, dict):
        raise PulseFileError(f"{path}: expected a JSON object at top level")
    missing = [f for f in _FIELDS if f not in doc]
    if missing:
        raise PulseFileError(f"{path}: missing field(s): {', '.join(missing)}")
    try:
        for f in ("nu", "mu", "phi", "L_f", "residual_norm"):
            if not _is_number(doc[f]):
                raise ValueError(f"{f} must be a number, got {doc[f]!r}")
        if isinstance(doc["N"], bool) or not isinstance(doc["N"], int):
            raise ValueError(f"N must be an integer, got {doc['N']!r}")
        coefficients = doc["coefficients"]
        if not (isinstance(coefficients, list) and all(map(_is_number, coefficients))):
            raise ValueError("coefficients must be a list of numbers")
        scalars = {f: float(doc[f]) for f in ("nu", "mu", "phi", "L_f", "residual_norm")}
        bad = [f for f, v in scalars.items() if not np.isfinite(v)]
        if bad:
            raise ValueError(f"non-finite value(s) for {', '.join(bad)}")
        if scalars["residual_norm"] < 0:
            raise ValueError("residual_norm must be non-negative")
        N = doc["N"]
        if N < 1:
            raise ValueError(f"N must be at least 1, got {N}")
        if len(coefficients) != N + 1:
            raise ValueError(f"N = {N} needs {N + 1} coefficients a_0..a_N, "
                             f"the file has {len(coefficients)}")
        pulse = FourierPulse(
            params=Params(nu=scalars["nu"], mu=scalars["mu"]),
            phi=scalars["phi"],
            L_f=scalars["L_f"],
            a=np.asarray(coefficients, dtype=float),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise PulseFileError(f"{path}: {exc}") from exc
    stored = scalars["residual_norm"]
    bound = max(RESIDUAL_SLACK * stored, RESIDUAL_FLOOR)
    # a residual that overflows is not compared here: the spectrum and the
    # transport each report those coefficients with their own typed error
    if np.isfinite(pulse.residual_norm) and pulse.residual_norm > bound:
        raise PulseFileError(
            f"{path}: the coefficients do not solve the equation: residual "
            f"sup-norm {pulse.residual_norm:.3e}, stored {stored:.3e} "
            f"(bound {bound:.1e})")
    return pulse
