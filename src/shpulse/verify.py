"""Named end-to-end checks behind ``shpulse verify`` and the acceptance tests.

Each check returns a :class:`CheckResult` with a one-line detail string, so
the CLI can print exactly one pass/fail line per criterion and the test
suite can assert on the same objects.  The three reference pulses are
solved once into :class:`PulseBundle` values and shared across checks; the
mode counts per pulse keep the Fourier tail floor below the transport's
noise level so the far-field transport is trustworthy across the window
(see :func:`shpulse.conjugate.trust_horizon`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import lagrangian as lg
from .conjugate import (SIMPLICITY_THRESHOLD, StabilityReport, conjugate_points,
                        stability_report, trust_horizon)
from .model import J4, Params
from .pulse import (
    FourierPulse,
    convolve2,
    convolve3,
    newton_solve,
    parity_blocks,
    residual,
    seed_from_normal_form,
)
from .shooting import FrameTrajectory, ShootingSettings, initial_frame, integrate_frame

REFERENCE_PULSES = {
    "phi0": dict(params=Params(nu=1.6, mu=0.05), phi=0.0, scale=1.0, N=192),
    "phipi": dict(params=Params(nu=1.6, mu=0.05), phi=np.pi, scale=1.0, N=192),
    "snaking": dict(params=Params(nu=1.6, mu=0.20), phi=0.0, scale=3.0, N=256),
}

EXPECTED_EIGENVALUES = {
    "phi0": (0.1209,),
    "phipi": (0.0058, 0.1179),
    "snaking": (),
}

EXPECTED_CONJUGATE_POINTS = {
    "phi0": (1.2400,),
    "phipi": (-0.6310, 17.5887),
    "snaking": (),
}

EIGENVALUE_TOL = 5e-3
LOCATION_TOL = 5e-2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


@dataclass(frozen=True)
class PulseBundle:
    name: str
    pulse: FourierPulse
    trajectory: FrameTrajectory
    report: StabilityReport
    elapsed: float


def bundle_from(name: str, pulse: FourierPulse, start: float | None = None) -> PulseBundle:
    """Assemble the per-pulse pipeline (integration + both counts), timed.

    The time runs from ``start``, a ``time.perf_counter()`` reading taken
    by a caller that solved the pulse itself, or else from this call.
    """
    if start is None:
        start = time.perf_counter()
    trajectory = integrate_frame(pulse, lam=0.0)
    report = stability_report(pulse, trajectory=trajectory)
    return PulseBundle(name=name, pulse=pulse, trajectory=trajectory,
                       report=report, elapsed=time.perf_counter() - start)


def build_bundles() -> dict[str, PulseBundle]:
    """Solve and analyze the three reference pulses, each timed from its seed."""
    bundles = {}
    for name, ref in REFERENCE_PULSES.items():
        start = time.perf_counter()
        pulse = newton_solve(seed_from_normal_form(
            ref["params"], ref["phi"], scale=ref["scale"], N=ref["N"]))
        bundles[name] = bundle_from(name, pulse, start)
    return bundles


# --- criterion 1: two-route count table ---------------------------------

def check_counts(bundles: dict[str, PulseBundle]) -> CheckResult:
    parts, ok = [], True
    for name, eigenvalues in EXPECTED_EIGENVALUES.items():
        want = (len(eigenvalues), len(EXPECTED_CONJUGATE_POINTS[name]))
        b = bundles[name]
        got = b.report.counts
        ok &= got == want and b.report.counts_match and b.elapsed < 120.0
        parts.append(f"{name}={got} in {b.elapsed:.1f}s")
    return CheckResult("table-counts", ok,
                       "(eigenvalues, conjugate points) " + ", ".join(parts))


def _check_published(check: str, bundles: dict[str, PulseBundle], expected: dict,
                     values, tol: float, mismatch) -> CheckResult:
    worst, ok = 0.0, True
    for name, want in expected.items():
        got = values(bundles[name])
        if len(got) != len(want):
            return CheckResult(check, False, mismatch(name, want, got))
        for g, w in zip(sorted(got), sorted(want)):
            worst = max(worst, abs(g - w))
            ok &= abs(g - w) < tol
    return CheckResult(check, ok,
                       f"max |deviation| from published values {worst:.2e} (tol {tol:g})")


# --- criterion 2: eigenvalue values --------------------------------------

def check_eigenvalues(bundles: dict[str, PulseBundle]) -> CheckResult:
    return _check_published(
        "eigenvalues", bundles, EXPECTED_EIGENVALUES,
        lambda b: b.report.unstable_eigenvalues, EIGENVALUE_TOL,
        lambda name, want, got: f"{name}: expected {len(want)} unstable, got {len(got)}")


# --- criterion 3: conjugate-point locations ------------------------------

def check_conjugate_locations(bundles: dict[str, PulseBundle]) -> CheckResult:
    return _check_published(
        "conjugate-locations", bundles, EXPECTED_CONJUGATE_POINTS,
        lambda b: [r.x_star for r in b.report.conjugate_points], LOCATION_TOL,
        lambda name, want, got: f"{name}: expected {list(want)}, got {got}")


# --- criterion 4: simplicity and degeneracy flags -------------------------

def check_simplicity(bundles: dict[str, PulseBundle]) -> CheckResult:
    norms = [r.simplicity_norm
             for b in bundles.values() for r in b.report.conjugate_points]
    hypothesis = all(b.report.hypothesis_degeneracy_ok for b in bundles.values())
    ok = hypothesis and all(n > SIMPLICITY_THRESHOLD for n in norms)
    least = min(norms) if norms else float("nan")
    return CheckResult("simplicity", ok,
                       f"min simplicity_norm {least:.4f} (> 1e-3), "
                       f"no two-dimensional crossings: {hypothesis}")


# --- criterion 5: worked examples ----------------------------------------

def check_fixtures() -> CheckResult:
    tol = 1e-8
    ell1, ell2 = lg.fixture_paths()
    sand = lg.sandwich_plane()
    errs = {}

    q1_raw = lg.quadratic_form(ell1, 0.0, np.array([0.0, 1.0, 2.0, 0.0]), 1)
    errs["Q1(v1)"] = abs(q1_raw - (-4.0))

    cf1 = lg.crossing_form(ell1, 0.0, sand)
    errs["slope"] = abs(cf1.value - (-0.8))

    cf2 = lg.crossing_form(ell2, 0.0, sand)
    errs["Q3"] = abs(cf2.value - (-2.0))
    errs["lower"] = max(abs(v) for v in cf2.lower_orders)

    ts, lams = lg.eigenvalue_motion(ell2, 0.0, sand)
    errs["branch"] = float(np.max(np.abs(lams[:, 0] + ts**3 / 3.0)))

    # k = 2 crossings: the graph of t^k diag(1, 2) over the sandwich plane is
    # first nondegenerate at order k, with signature -2
    def graph(k):
        return lg.polynomial_family([sand] + [0 * sand] * (k - 1) + [J4 @ sand @ np.diag([1, 2])])

    grid = np.linspace(-1.0, 1.0, 1001)
    orders = (3, 5, 6, 7)
    m1, m2, *graphs = (lg.maslov_index(path, sand, grid, path(grid, 0)[:, 0])
                       for path in (ell1, ell2, *map(graph, orders)))
    errs["maslov"] = max(abs(m1.index - (-1)), abs(m2.index - (-1)))
    for k, m in zip(orders, graphs):
        errs["k=2 maslov" if k == 3 else f"t^{k} maslov"] = abs(m.index - (-2 if k % 2 else 0))
    # on 1000 points the regular crossing of t diag(1, 2) lies between two
    # samples, where the detector touches zero: only the dip search finds it
    line, between = graph(1), np.linspace(-1.0, 1.0, 1000)
    touch = lg.maslov_index(line, sand, between, line(between, 0)[:, 0])
    errs["t maslov"] = abs(touch.index - (-2))
    # the index adds up: split at the order-2 crossing of t^2 diag(1, 2), the
    # halves give +1 (a right end of even order) and -1, the index 0 on [-1, 1]
    square = graph(2)
    halves = [lg.maslov_index(square, sand, ts, square(ts, 0)[:, 0]).index
              for ts in (np.linspace(-1.0, 0.0, 501), np.linspace(0.0, 1.0, 501))]
    errs["split maslov"] = max(abs(halves[0] - 1), abs(halves[1] - (-1)))
    classified = [[(c.order, c.kernel_dim, c.signature) for c in m.crossings]
                  for m in (*graphs, touch)]

    worst = max(errs.values())
    ok = (worst < tol and cf2.order == 3 and cf1.order == 1
          and classified == [[(k, 2, -2)] for k in (*orders, 1)])
    detail = ", ".join(f"{k} err {v:.1e}" for k, v in errs.items())
    return CheckResult("worked-examples", ok, detail + f" (tol {tol:g})")


# --- criterion 6: invariant suite ----------------------------------------

def check_invariants(bundles: dict[str, PulseBundle]) -> CheckResult:
    pieces = []
    ok = True

    drift = max(float(b.trajectory.omega_drift.max()) for b in bundles.values())
    ok &= drift < 1e-8
    pieces.append(f"symplectic drift {drift:.1e}")

    pl_err = 0.0
    for b in bundles.values():
        for p in b.trajectory.plucker[::25]:
            pl_err = max(pl_err, abs(np.linalg.norm(p) - 1.0),
                         abs(p[0] * p[5] - p[1] * p[4] + p[2] * p[3]))
    ok &= pl_err < 1e-12
    pieces.append(f"Pluecker {pl_err:.1e}")

    # J v is the even block on v's even part plus the odd block on its odd
    # part, each extended back by its parity; it must match the FD quotient
    b = bundles["phi0"]
    a_full, N = b.pulse.full(), b.pulse.N
    even, odd = parity_blocks(b.pulse.a, b.pulse.params, b.pulse.L_f)
    rng = np.random.default_rng(7)
    fd_err = 0.0
    for _ in range(3):
        v = rng.standard_normal(a_full.size)
        v /= np.linalg.norm(v)
        v_e, v_o = (v + v[::-1]) / 2, (v - v[::-1]) / 2
        Jv_e, Jv_o = even @ v_e[N:], odd @ v_o[N + 1:]
        Jv = np.r_[Jv_e[:0:-1], Jv_e] + np.r_[-Jv_o[::-1], 0.0, Jv_o]
        h = 1e-6
        fd = (residual(a_full + h * v, b.pulse.params, b.pulse.L_f)
              - residual(a_full - h * v, b.pulse.params, b.pulse.L_f)) / (2 * h)
        fd_err = max(fd_err, np.linalg.norm(Jv - fd) / np.linalg.norm(Jv))
    ok &= fd_err < 1e-6
    pieces.append(f"Jacobian-FD {fd_err:.1e}")

    rng = np.random.default_rng(11)
    conv_err = 0.0
    for n in (2, 5, 8):
        a = rng.uniform(-1.0, 1.0, 2 * n + 1)
        k = np.arange(-n, n + 1)
        brute2 = np.array([
            sum(a[i + n] * a[kk - i + n] for i in k if abs(kk - i) <= n)
            for kk in k])
        brute3 = np.array([
            sum(a[i + n] * a[j + n] * a[kk - i - j + n]
                for i in k for j in k if abs(kk - i - j) <= n)
            for kk in k])
        conv_err = max(conv_err,
                       np.max(np.abs(convolve2(a) - brute2)),
                       np.max(np.abs(convolve3(a) - brute3)))
    ok &= conv_err < 1e-13
    pieces.append(f"convolution {conv_err:.1e}")

    ell1, ell2 = lg.fixture_paths()
    v1 = np.array([0.0, 1.0, 2.0, 0.0])
    v2 = np.array([0.0, 1.0, 0.0, 0.0])
    base1 = lg.quadratic_form(ell1, 0.0, v1, 1)
    base2 = lg.quadratic_form(ell2, 0.0, v2, 3)
    S = np.array([[0.6, 0.1, 0.0, 0.2],
                  [0.1, -0.4, 0.3, 0.0],
                  [0.0, 0.3, 0.8, -0.1],
                  [0.2, 0.0, -0.1, 0.5]])
    # the Cayley transform of the Hamiltonian matrix H = J S is symplectic
    H = 0.2 * J4 @ S
    Psi = np.linalg.solve(np.eye(4) - H, np.eye(4) + H)

    def pushforward(path):
        return lambda t, K: Psi @ path(t, K)

    # invariance transforms the whole picture: path, vector and complement
    W1 = Psi @ (J4 @ ell1(0.0, 0)[0])
    W2 = Psi @ (J4 @ ell2(0.0, 0)[0])
    inv_err = max(
        abs(lg.quadratic_form(pushforward(ell1), 0.0, Psi @ v1, 1, W=W1) - base1),
        abs(lg.quadratic_form(pushforward(ell2), 0.0, Psi @ v2, 3, W=W2) - base2),
    )
    # the first-order form accepts any transverse complement; higher orders
    # need a Lagrangian one that does not mix the kernel directions.  A form
    # depends on the complement's plane alone, so a rescaled frame of it
    # gives the same value
    W_gen = np.array([[1.0, 0.3], [0.0, -0.2], [0.4, 1.0], [-0.1, 0.2]])
    W_diag = np.array([[0.25, 0.0], [0.0, 0.4], [1.0, 0.0], [0.0, 1.0]])
    w_err = max(
        abs(lg.quadratic_form(ell1, 0.0, v1, 1, W=W_gen) - base1),
        abs(lg.quadratic_form(ell1, 0.0, v1, 1, W=W_diag) - base1),
        abs(lg.quadratic_form(ell1, 0.0, v1, 1, W=1e11 * W_diag) - base1),
        abs(lg.quadratic_form(ell2, 0.0, v2, 3, W=W_diag) - base2),
    )
    ok &= max(inv_err, w_err) < 1e-7
    pieces.append(f"form invariance {max(inv_err, w_err):.1e}")

    # B v = (0, b, 0, a) for v = (0, a, b, 0) in the sandwich plane, so the
    # first-order form of every pulse crossing is a^2, whatever the potential
    q1_err = 0.0
    for b in bundles.values():
        for r in b.report.conjugate_points:
            U = lg.intersection_basis(b.trajectory.frame_at(r.x_star), lg.sandwich_plane())
            q1_err = max(q1_err, abs(r.Q1 - U[1, 0] ** 2))
    ok &= q1_err < 1e-9
    pieces.append(f"pulse Q1 = a^2 {q1_err:.1e}")

    return CheckResult("invariants", ok, ", ".join(pieces))


# --- criterion 7: constant-coefficient oracle ----------------------------

def check_constant_coefficient_oracle() -> CheckResult:
    p = Params(nu=1.6, mu=0.05)
    pulse = FourierPulse(params=p, phi=0.0, L_f=100.0, a=np.zeros(9))
    traj = integrate_frame(pulse, settings=ShootingSettings(window=(-10.0, 10.0)))
    # the zero pulse's B is the constant tail matrix, whose unstable plane F0
    # is invariant, so expm(B (x + 10)) F0 spans F0 itself; against the
    # Lagrangian F0 the pairing's largest singular value is the largest
    # principal-angle sine
    sines = np.linalg.svd(lg.pairing(traj.frames[::10], initial_frame(p)), compute_uv=False)
    worst = float(np.arcsin(sines.max()))
    ok = worst < 1e-8
    return CheckResult("constant-coefficient-oracle", ok,
                       f"max subspace angle {worst:.1e} over a window of 20")


# --- criterion 8: robustness ---------------------------------------------

def check_robustness(bundles: dict[str, PulseBundle]) -> CheckResult:
    variants = {
        "dx=0.025": ShootingSettings(dx=0.025),
        "dx=0.04": ShootingSettings(dx=0.04),
        "dx=0.15": ShootingSettings(dx=0.15),
        "window=80": ShootingSettings(window=(-80.0, 80.0)),
    }
    worst, ok = 0.0, True
    for b in bundles.values():
        base = [r.x_star for r in b.report.conjugate_points]
        for label, st in variants.items():
            traj = integrate_frame(b.pulse, lam=0.0, settings=st)
            index, records = conjugate_points(traj, trust_horizon(b.pulse))
            locs = [r.x_star for r in records]
            if index != b.report.geometric_count or len(locs) != len(base):
                return CheckResult(
                    "robustness", False,
                    f"{b.name} {label}: index {b.report.geometric_count} -> {index}, "
                    f"crossings {len(base)} -> {len(locs)}")
            if base:
                drift = max(abs(g - w) for g, w in zip(sorted(locs), sorted(base)))
                worst = max(worst, drift)
                ok &= drift < 1e-4
    return CheckResult("robustness", ok,
                       f"counts stable across step, sampling and window "
                       f"variants; max location drift {worst:.1e}")


QUICK_CHECKS = (check_fixtures, check_constant_coefficient_oracle)


def run_all(quick: bool = False,
            bundles: dict[str, PulseBundle] | None = None) -> list[CheckResult]:
    """Run the acceptance checks; `quick` restricts to the local fixtures."""
    results = [check() for check in QUICK_CHECKS]
    if quick:
        return results
    if bundles is None:
        bundles = build_bundles()
    results.extend([
        check_counts(bundles),
        check_eigenvalues(bundles),
        check_conjugate_locations(bundles),
        check_simplicity(bundles),
        check_invariants(bundles),
        check_robustness(bundles),
    ])
    return results
