"""Conjugate points of a pulse and the two-route stability comparison.

A conjugate point is a position ``x*`` where the transported unstable plane
meets the sandwich plane ``span{e2, e3}``, detected as a zero of the
rows-(1,4) determinant along the trajectory.  Each detected point is
classified by the shape of the intersection vector ``p``:

* case I — ``p2 != 0``: the first-order crossing value ``Q1 = p2^2`` is
  positive, so the crossing is regular and counts once;
* case II — ``p2 = 0`` but ``p3 != 0``: the first two values vanish and the
  third-order value ``Q3 = 2 p3^2`` is positive, so the crossing still
  counts once;
* case III — the rows-(1,4) submatrix loses both singular values: the
  intersection is two-dimensional, outside the simple-crossing theory, and
  the report is flagged instead of counted.

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

(`alpha`, ``beta`` the real and imaginary parts of the tail exponent, two
rotation periods subtracted as the width of the detachment), records the
clip, and never reports crossings beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lagrangian import DIP_TOL, locate_zeros
from .model import Params, asymptotic_frames, lambda_infinity_bound
from .pulse import FourierPulse, potential
from .shooting import TRANSPORT_NOISE, FrameTrajectory, sandwich_determinant
from .spectrum import DEFAULT_THRESHOLD, count_unstable

SIMPLICITY_THRESHOLD = 1e-3
DEGENERACY_TOL = 1e-6
BRACKET_TOL = 1e-8


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
class ScanResult:
    """Refined determinant zeros plus scan bookkeeping."""

    locations: tuple[float, ...]
    suspected_even: tuple[float, ...]
    horizon: float
    clipped: bool


@dataclass(frozen=True)
class ConjugatePointRecord:
    """One classified crossing of the sandwich plane."""

    x_star: float
    kernel_vector: np.ndarray = field(repr=False)
    case: str
    Q1: float
    Q3: float | None
    simplicity_norm: float

    @property
    def counts(self) -> bool:
        return self.case in ("I", "II")


@dataclass(frozen=True)
class StabilityReport:
    """Two independent instability counts for one pulse, side by side."""

    pulse_id: str
    unstable_eigenvalues: tuple[float, ...]
    conjugate_points: tuple[ConjugatePointRecord, ...]
    counts_match: bool
    hypothesis_degeneracy_ok: bool
    lambda_infinity: float
    asymptotic_crossings_ok: bool
    potential_tail: float
    scan: ScanResult
    warnings: tuple[str, ...]

    @property
    def counts(self) -> tuple[int, int]:
        counted = sum(1 for r in self.conjugate_points if r.counts)
        return (len(self.unstable_eigenvalues), counted)


def scan_and_refine(traj: FrameTrajectory) -> ScanResult:
    """Locate the zeros of the sandwich determinant along the trajectory.

    The samples up to the trust horizon go through
    :func:`~shpulse.lagrangian.locate_zeros`: sign changes are bisected,
    re-evaluating the determinant by a partial step from the nearest
    sample, until the bracket is narrower than ``BRACKET_TOL``; local
    minima of ``|detA|`` below ``DIP_TOL`` that do not change sign are
    reported separately as suspected even-order touches (they contribute
    nothing to the count).  An empty result is a valid outcome.
    """
    horizon = trust_horizon(traj.pulse, traj.lam)
    xs, d = traj.xs, traj.deta
    keep = xs <= horizon
    locations, suspected = locate_zeros(
        xs[keep], d[keep], lambda x: sandwich_determinant(traj.frame_at(x)),
        BRACKET_TOL, DIP_TOL)
    return ScanResult(
        locations=tuple(locations),
        suspected_even=tuple(suspected),
        horizon=horizon,
        clipped=bool(np.any(~keep)),
    )


def classify(x_star: float, traj: FrameTrajectory,
             degeneracy_tol: float = DEGENERACY_TOL) -> ConjugatePointRecord:
    """Classify the crossing at ``x_star`` from the frame's kernel vector.

    The kernel direction of the rows-(1,4) submatrix of the orthonormal
    frame ``traj.frame_at(x_star)`` is lifted through the frame to the
    intersection vector ``p`` (unit norm, first and last entries vanish at
    a true crossing), and the closed-form crossing values ``Q1 = p2^2``
    and, when that degenerates, ``Q3 = 2 p3^2`` decide the case.  ``simplicity_norm`` is the surviving singular value of the
    submatrix; a crossing is accepted as simple only above 1e-3.
    """
    M = traj.frame_at(x_star)
    sub = M[[0, 3], :]
    _, s, vt = np.linalg.svd(sub)
    simplicity = float(s[0])
    if simplicity < degeneracy_tol:
        # the whole plane lies in the sandwich plane: two-dimensional kernel
        return ConjugatePointRecord(
            x_star=float(x_star), kernel_vector=np.zeros(4), case="III",
            Q1=0.0, Q3=None, simplicity_norm=simplicity,
        )
    u = vt[1]  # right-singular vector of the smaller singular value
    p = M @ u
    p = p / np.linalg.norm(p)
    if p[1] < 0 or (abs(p[1]) < 1e-12 and p[2] < 0):
        p = -p
    Q1 = float(p[1] ** 2)
    if Q1 > degeneracy_tol:
        return ConjugatePointRecord(
            x_star=float(x_star), kernel_vector=p, case="I",
            Q1=Q1, Q3=None, simplicity_norm=simplicity,
        )
    return ConjugatePointRecord(
        x_star=float(x_star), kernel_vector=p, case="II",
        Q1=Q1, Q3=float(2.0 * p[2] ** 2), simplicity_norm=simplicity,
    )


def check_no_asymptotic_crossings(p: Params, lambda_grid) -> bool:
    """True when the asymptotic plane stays off the sandwich plane.

    Evaluates the rows-(1,4) determinant of the closed-form unstable frame
    on the grid and requires it to stay above 1e-6 in absolute value, so
    the detector zeros can only come from the pulse region.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    dets = [
        abs(sandwich_determinant(asymptotic_frames(lam, p).unstable_frame))
        for lam in grid
    ]
    return bool(min(dets) > 1e-6)


def _pulse_id(pulse: FourierPulse) -> str:
    p = pulse.params
    return (f"phi={pulse.phi:g} nu={p.nu:g} mu={p.mu:g} "
            f"(L_f={pulse.L_f:g}, N={pulse.N})")


def stability_report(pulse: FourierPulse, trajectory: FrameTrajectory, *,
                     unstable_threshold: float = DEFAULT_THRESHOLD,
                     degeneracy_tol: float = DEGENERACY_TOL,
                     simplicity_threshold: float = SIMPLICITY_THRESHOLD
                     ) -> StabilityReport:
    """Count instabilities two independent ways and compare.

    The spectral route counts unstable eigenvalues of the Fourier-residual
    Jacobian; the geometric route counts classified conjugate points of
    ``trajectory``, the unstable plane transported at ``lam = 0``.  The two
    computations share no intermediate data.
    """
    spectral = count_unstable(pulse, threshold=unstable_threshold)

    if trajectory.lam != 0.0:
        raise ValueError("the conjugate-point count is defined at lam = 0")
    scan = scan_and_refine(trajectory)
    records = tuple(
        classify(x, trajectory, degeneracy_tol=degeneracy_tol)
        for x in scan.locations)

    a, b = trajectory.settings.window
    grid = np.linspace(a, b, 4001)
    pot = potential(pulse, grid)
    lam_inf = lambda_infinity_bound(pot)
    asym_ok = check_no_asymptotic_crossings(
        pulse.params, np.linspace(0.0, lam_inf, 101))
    tail = float(max(abs(pot[0] + pulse.params.mu), abs(pot[-1] + pulse.params.mu)))

    warnings: list[str] = []
    if scan.clipped:
        warnings.append(
            f"scan clipped at the trust horizon x = {scan.horizon:.2f} "
            f"(window extends to {b:g}); raise the mode count to push the "
            "horizon out")
    if scan.suspected_even:
        warnings.append(
            "suspected even-order touches (no sign change) at "
            + ", ".join(f"{x:.4f}" for x in scan.suspected_even))
    degenerate = [r for r in records if r.case == "III"]
    if degenerate:
        warnings.append(
            "two-dimensional crossing detected at "
            + ", ".join(f"{r.x_star:.4f}" for r in degenerate)
            + "; the simple-crossing count does not apply")
    weak = [r for r in records if r.simplicity_norm <= simplicity_threshold]
    if weak:
        warnings.append(
            f"crossing(s) below the simplicity threshold {simplicity_threshold:g} at "
            + ", ".join(f"{r.x_star:.4f}" for r in weak))

    counted = [r for r in records if r.counts]
    return StabilityReport(
        pulse_id=_pulse_id(pulse),
        unstable_eigenvalues=tuple(spectral.unstable),
        conjugate_points=records,
        counts_match=len(spectral.unstable) == len(counted),
        hypothesis_degeneracy_ok=not degenerate,
        lambda_infinity=float(lam_inf),
        asymptotic_crossings_ok=asym_ok,
        potential_tail=tail,
        scan=scan,
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
    lines.append("asymptotic plane off the sandwich plane: "
                 + ("yes" if report.asymptotic_crossings_ok else "NO"))
    lines.append(f"potential tail at the window edge: {report.potential_tail:.3e}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    n_ev, n_cp = report.counts
    verdict = "MATCH" if report.counts_match else "MISMATCH"
    lines.append("")
    lines.append(f"verdict: {n_ev} unstable eigenvalue(s) vs "
                 f"{n_cp} conjugate point(s) -> {verdict}")
    return "\n".join(lines)
