"""Point spectrum of the linearization from the parity-split Fourier Jacobian.

Linearizing the stationarity map F about a converged coefficient vector
gives DF(a) on the full 2N+1 modes; its eigenvalues approximate the point
spectrum of the linearized operator L = -(1+d_xx)^2 - mu + f'(phi).  At a
symmetric pulse DF is symmetric and commutes with k -> -k, so it splits
into an even block (size N+1) and an odd block (size N), both symmetric
after a diagonal rescaling, and the spectrum is the union of two real
symmetric eigenvalue problems; `pulse.parity_blocks` assembles each block
at its own size, and the (2N+1)-square matrix is never formed.  The
translational mode phi'(x) is odd, with coefficients proportional to
k*a_k: it is the odd-block eigenvalue nearest zero, and it is excluded from
the unstable count.

No cut-off is chosen by hand.  The translation eigenvalue vanishes in exact
arithmetic, so its computed size measures the total error of the Jacobian
and its eigensolve; a backward-stable symmetric eigensolve adds at most
about (N+1) eps max|lambda|.  The larger of the two is the noise floor, and
every other eigenvalue above it counts as unstable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pulse import FourierPulse, parity_blocks

__all__ = ["SpectrumReport", "count_unstable"]


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalue summary of DF(a) for one pulse.

    `eigenvalues` is the full spectrum (2N+1 real values, ascending).
    `unstable` holds the eigenvalues counted as unstable (above
    `noise_floor`, translational mode excluded), sorted ascending.
    `zero_mode` is the translational eigenvalue and `zero_mode_vector` its
    full coefficient vector b_{-N}..b_N.  `noise_floor` is
    max(|zero_mode|, (N+1) eps max|eigenvalues|).
    """

    eigenvalues: np.ndarray
    unstable: list[float]
    zero_mode: float
    noise_floor: float
    zero_mode_vector: np.ndarray = field(repr=False, default=None)


def count_unstable(pulse: FourierPulse) -> SpectrumReport:
    """Count unstable eigenvalues of the full-mode Jacobian at a pulse.

    The even block is symmetrized by the square roots of its weights
    (1, 2, 2, ...); the odd block is symmetric as it stands.  Eigenvalues
    above the noise floor are reported, except the translational one.

    Raises
    ------
    ValueError
        If the pulse has fewer than one mode besides a_0 (a constant state
        has no translation mode), or if its coefficients overflow the
        Jacobian; both before any eigensolve.
    """
    if pulse.N < 1:
        raise ValueError(f"the spectrum needs N >= 1 modes, got N = {pulse.N}")
    even, odd = parity_blocks(pulse.a, pulse.params, pulse.L_f)
    s = np.sqrt(np.r_[1.0, np.full(pulse.N, 2.0)])
    ev_even = np.linalg.eigvalsh(s[:, None] * even / s[None, :])
    ev_odd, V = np.linalg.eigh(odd)
    i0 = int(np.argmin(np.abs(ev_odd)))
    v = V[:, i0]
    eigenvalues = np.sort(np.r_[ev_even, ev_odd])
    floor = max(abs(float(ev_odd[i0])),
                (pulse.N + 1) * np.finfo(float).eps * float(np.abs(eigenvalues).max()))
    unstable = sorted(
        float(e) for e in np.r_[ev_even, np.delete(ev_odd, i0)] if e > floor
    )
    return SpectrumReport(
        eigenvalues=eigenvalues,
        unstable=unstable,
        zero_mode=float(ev_odd[i0]),
        noise_floor=floor,
        zero_mode_vector=np.r_[-v[::-1], 0.0, v],
    )
