"""Unstable eigenvalues of the linearization from the parity-split Fourier Jacobian.

Linearizing the stationarity map F about a converged coefficient vector
gives DF(a) on the full 2N+1 modes; its eigenvalues approximate the point
spectrum of the linearized operator L = -(1+d_xx)^2 - mu + f'(phi).  At a
symmetric pulse DF is symmetric and commutes with k -> -k, so it splits
into an even block (size N+1) and an odd block (size N), both symmetric
after a diagonal rescaling, and the spectrum is the union of two real
symmetric eigenvalue problems; `pulse.parity_blocks` assembles each block
at its own size, and the (2N+1)-square matrix is never formed.  Only
eigenvalues are computed: the count needs no eigenvector and no sorted
full spectrum.  The translational mode phi'(x) is odd, with coefficients
proportional to k*a_k: it is the odd-block eigenvalue nearest zero.

No cut-off is chosen by hand.  The translation eigenvalue vanishes in exact
arithmetic, so its computed size measures the total error of the Jacobian
and its eigensolve; a backward-stable symmetric eigensolve adds at most
about (N+1) eps max|lambda|.  The larger of the two is the noise floor, and
every eigenvalue above it counts as unstable.  The floor is never below
|zero_mode|, so the translation mode itself is never counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pulse import FourierPulse, parity_blocks

__all__ = ["SpectrumReport", "count_unstable"]


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalue count of DF(a) for one pulse.

    `unstable` holds the eigenvalues above `noise_floor`, sorted ascending.
    `zero_mode` is the translational eigenvalue, the odd-block eigenvalue
    nearest zero; it is never above the floor.  `noise_floor` is
    max(|zero_mode|, (N+1) eps max|lambda|) over both blocks.
    """

    unstable: list[float]
    zero_mode: float
    noise_floor: float


def count_unstable(pulse: FourierPulse) -> SpectrumReport:
    """Count unstable eigenvalues of the full-mode Jacobian at a pulse.

    The even block is symmetrized by the square roots of its weights
    (1, 2, 2, ...); the odd block is symmetric as it stands.  Both go to
    an eigenvalues-only symmetric solve, and every eigenvalue of either
    block above the noise floor is reported.

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
    # in place, the same bits as s[:, None] * even / s[None, :]
    even *= s[:, None]
    even /= s
    ev_even = np.linalg.eigvalsh(even)
    ev_odd = np.linalg.eigvalsh(odd)
    zero_mode = float(ev_odd[np.argmin(np.abs(ev_odd))])
    ev = np.r_[ev_even, ev_odd]
    bound = (pulse.N + 1) * np.finfo(float).eps * float(np.abs(ev).max())
    floor = max(abs(zero_mode), bound)
    return SpectrumReport(unstable=np.sort(ev[ev > floor]).tolist(),
                          zero_mode=zero_mode, noise_floor=floor)
