"""Conjugate points of a pulse and the two-route stability comparison.

A conjugate point is a position ``x*`` where the transported unstable plane
meets the sandwich plane ``span{e2, e3}``.  The geometric count is the
Maslov index of the transported plane against that reference, computed by
:func:`shpulse.lagrangian.maslov_index` on the trajectory's own samples:
zeros and dips of the detector are located, and each crossing contributes
the signature of its first nondegenerate crossing form when that form has
odd order.  A regular crossing (order 1, ``Q1 > 0``) counts once; a fully
degenerate one, such as a two-dimensional intersection whose third-order
form is definite, contributes its signature instead of being skipped.

The total is compared against the number of unstable eigenvalues of the
Fourier-residual Jacobian, computed independently by :mod:`.spectrum`.

Trust horizon
-------------

At ``lam = 0`` the transported plane carries the pulse's translation mode,
an exponentially decaying direction whose weight inside the plane shrinks
like ``exp(-2 alpha x)``.  Once that weight falls under the noise floor of
the computation (Fourier tail of the pulse, accuracy of the transport), the
numerical plane detaches from the true one and can produce a spurious
determinant zero.  The scan therefore stops at the horizon

    ``x_h = ln(1/eps) / (2 alpha) - 2 pi / beta``

(``alpha``, ``beta`` the real and imaginary parts of the tail exponent, two
rotation periods subtracted as the width of the detachment), records the
clip, and never reports crossings beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lagrangian import maslov_index, sandwich_plane
from .model import asymptotic_frames, lambda_infinity_bound
from .pulse import FourierPulse, potential
from .shooting import TRANSPORT_NOISE, FrameTrajectory
from .spectrum import count_unstable

SIMPLICITY_THRESHOLD = 1e-3


def trust_horizon(pulse: FourierPulse, lam: float = 0.0) -> float:
    """Forward position beyond which the transported plane is untrustworthy.

    Uses the larger of the pulse's relative Fourier-tail floor and the
    transport's noise level ``TRANSPORT_NOISE`` as the effective noise level.
    """
    data = asymptotic_frames(lam, pulse.params)
    alpha, beta = data.gamma1.real, data.gamma1.imag
    eps = max(pulse.tail_floor, TRANSPORT_NOISE)
    return float(np.log(1.0 / eps) / (2.0 * alpha) - 2.0 * np.pi / beta)


@dataclass(frozen=True)
class ConjugatePointRecord:
    """One crossing of the sandwich plane, as the Maslov engine classified it.

    The fields are those of a :class:`shpulse.lagrangian.Crossing` under the
    names the report prints: ``x_star`` is its position ``t``, ``order``
    the order of the first nondegenerate crossing form, ``kernel_dim`` the
    dimension of the intersection, ``signature`` that of the form and
    ``value`` its value.  ``simplicity_norm`` is the crossing's
    ``largest_sine``, the larger sine of the two principal angles between
    the plane at ``x_star`` and the sandwich plane (the 2-norm of their
    pairing): it vanishes when the whole plane lies in the sandwich plane.
    """

    x_star: float
    order: int
    kernel_dim: int
    signature: int
    value: float
    simplicity_norm: float

    @property
    def case(self) -> str:
        """Printed label: I regular, II higher order on a line, III a 2-D kernel."""
        if self.kernel_dim > 1:
            return "III"
        return "I" if self.order == 1 else "II"

    @property
    def Q1(self) -> float:
        """First-order form value; the lower orders of a degenerate crossing vanish."""
        return self.value if self.order == 1 else 0.0

    @property
    def Q3(self) -> float | None:
        return self.value if self.order == 3 else None


@dataclass(frozen=True)
class StabilityReport:
    """Two independent instability counts for one pulse, side by side.

    ``geometric_count`` is the Maslov index of the trajectory up to
    ``horizon``; ``clipped`` says whether the window extends past it.
    """

    pulse_id: str
    unstable_eigenvalues: tuple[float, ...]
    conjugate_points: tuple[ConjugatePointRecord, ...]
    geometric_count: float
    counts_match: bool
    hypothesis_degeneracy_ok: bool
    lambda_infinity: float
    potential_tail: float
    horizon: float
    clipped: bool
    warnings: tuple[str, ...]

    @property
    def counts(self) -> tuple[int, float]:
        return (len(self.unstable_eigenvalues), self.geometric_count)


def conjugate_points(traj: FrameTrajectory, horizon: float
                     ) -> tuple[float, tuple[ConjugatePointRecord, ...]]:
    """Maslov index and crossings of the trajectory's samples up to ``horizon``.

    The stored samples ``traj.xs``/``traj.frames`` at or before ``horizon``
    go to :func:`~shpulse.lagrangian.maslov_index` against the sandwich
    plane; bisection and dip minimisation evaluate ``traj.frame_at``
    between samples, and the crossing forms ``traj.jet`` at each crossing.
    Returns the index, which is not rounded (an endpoint crossing leaves a
    half), and one record per crossing.  A horizon before the second sample
    is a ValueError: nothing of the window could be checked.
    """
    keep = traj.xs <= horizon
    if np.count_nonzero(keep) < 2:
        raise ValueError(
            f"the trust horizon x = {horizon:.2f} leaves fewer than two samples "
            "of the window; raise the mode count to push the horizon out")
    result = maslov_index(traj.jet, sandwich_plane(), traj.xs[keep], traj.frames[keep])
    records = tuple(
        ConjugatePointRecord(
            x_star=c.t, order=c.order, kernel_dim=c.kernel_dim,
            signature=c.signature, value=c.value, simplicity_norm=c.largest_sine)
        for c in result.crossings)
    return result.index, records


def _pulse_id(pulse: FourierPulse) -> str:
    p = pulse.params
    return (f"phi={pulse.phi:g} nu={p.nu:g} mu={p.mu:g} "
            f"(L_f={pulse.L_f:g}, N={pulse.N})")


def stability_report(pulse: FourierPulse, trajectory: FrameTrajectory) -> StabilityReport:
    """Count instabilities two independent ways and compare.

    The spectral route counts unstable eigenvalues of the Fourier-residual
    Jacobian above its own noise floor; the geometric route is the Maslov
    index of ``trajectory``, the unstable plane transported at ``lam = 0``,
    up to the trust horizon.  The two computations share no intermediate
    data.  A crossing whose simplicity is at most ``SIMPLICITY_THRESHOLD``
    is named in a warning.  A trajectory at another ``lam`` or along
    another pulse is a ValueError.
    """
    if trajectory.lam != 0.0:
        raise ValueError("the conjugate-point count is defined at lam = 0")
    if trajectory.pulse is not pulse:
        raise ValueError("the trajectory was transported along another pulse")
    spectral = count_unstable(pulse)

    horizon = trust_horizon(pulse, trajectory.lam)
    clipped = bool(trajectory.xs[-1] > horizon)
    index, records = conjugate_points(trajectory, horizon)

    a, b = trajectory.settings.window
    grid = np.linspace(a, b, 4001)
    pot = potential(pulse, grid)
    lam_inf = lambda_infinity_bound(pot)
    tail = float(max(abs(pot[0] + pulse.params.mu), abs(pot[-1] + pulse.params.mu)))

    warnings: list[str] = []
    if clipped:
        warnings.append(
            f"scan clipped at the trust horizon x = {horizon:.2f} "
            f"(window extends to {b:g}); raise the mode count to push the "
            "horizon out")
    weak = [r for r in records if r.simplicity_norm <= SIMPLICITY_THRESHOLD]
    if weak:
        warnings.append(
            f"crossing(s) below the simplicity threshold {SIMPLICITY_THRESHOLD:g} at "
            + ", ".join(f"{r.x_star:.4f}" for r in weak))

    return StabilityReport(
        pulse_id=_pulse_id(pulse),
        unstable_eigenvalues=tuple(spectral.unstable),
        conjugate_points=records,
        geometric_count=index,
        counts_match=len(spectral.unstable) == index,
        hypothesis_degeneracy_ok=all(r.kernel_dim == 1 for r in records),
        lambda_infinity=float(lam_inf),
        potential_tail=tail,
        horizon=horizon,
        clipped=clipped,
        warnings=tuple(warnings),
    )


def format_report(report: StabilityReport) -> str:
    """Render a report as the structured text block the CLI prints."""
    lines = [f"pulse: {report.pulse_id}", ""]
    lines.append("unstable eigenvalues (spectral route):")
    if report.unstable_eigenvalues:
        for ev in report.unstable_eigenvalues:
            lines.append(f"  {ev:+.9f}")
    else:
        lines.append("  none")
    lines.append("")
    lines.append("conjugate points (geometric route):")
    if report.conjugate_points:
        lines.append(f"  {'x*':>12}  {'case':>4}  {'Q1':>12}  {'Q3':>12}  "
                     f"{'simplicity':>10}")
        for r in report.conjugate_points:
            q3 = f"{r.Q3:.6f}" if r.Q3 is not None else "-"
            lines.append(f"  {r.x_star:12.6f}  {r.case:>4}  {r.Q1:12.6f}  "
                         f"{q3:>12}  {r.simplicity_norm:10.4f}")
    else:
        lines.append("  none")
    lines.append("")
    lines.append(f"lambda_infinity bound: {report.lambda_infinity:.6f}")
    # the closed-form unstable frame has rows-(1,4) determinant (P14 before
    # normalization) sin(theta/2) / r^(3/2) with theta in (pi/2, pi) for
    # every mu > 0 and lam >= 0, so it never vanishes
    lines.append("asymptotic plane off the sandwich plane: yes")
    lines.append(f"potential tail at the window edge: {report.potential_tail:.3e}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    n_ev, n_cp = report.counts
    verdict = "MATCH" if report.counts_match else "MISMATCH"
    lines.append("")
    lines.append(f"verdict: {n_ev} unstable eigenvalue(s) vs "
                 f"{n_cp} conjugate point(s) -> {verdict}")
    return "\n".join(lines)
