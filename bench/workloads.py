"""The benchmark's workloads: seeded inputs, one timed pass, and the checks.

Every workload solves the three reference pulses of ``shpulse.verify``
(phi0, phipi, snaking) from the normal-form seed; the workload seed only
chooses each pulse's mode count N, within ranges where every published
count, eigenvalue and conjugate-point location comes back.  Seed 0 gives
exactly the modes of ``verify.REFERENCE_PULSES`` (and the plain ladder).  The Newton seed amplitude
is never varied: the phi = pi pulse seeded at a smaller amplitude converges
to a different state.

A pass first produces every answer with the clock running and checks the
answers afterwards, so checking costs no measured time.  Each wrong answer
or raised exception fails one item and the pass carries on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shpulse import cli, conjugate, pulse, shooting, spectrum, verify
from yardstick import clock

NEWTON_TOL = 1e-12

# Every published answer comes back for N in 192-320 (phi0, phipi),
# 256-320 (snaking) and 192-512 (spectral count alone).  The eigensolve
# grows like N^3, so a seed moves each N only a little above the reference
# modes, or around each rung of the spectral ladder, and every seed costs
# about the same.
MODE_JITTER = 32
LADDER = (192, 256, 384, 512)
LADDER_JITTER = 8
LADDER_RANGE = (192, 512)


@dataclass(frozen=True)
class Case:
    """One pulse to solve: a reference pulse at a chosen mode count."""

    name: str
    N: int

    @property
    def label(self) -> str:
        return f"{self.name}/N={self.N}"

    def initial_guess(self):
        ref = verify.REFERENCE_PULSES[self.name]
        return pulse.seed_from_normal_form(ref["params"], ref["phi"],
                                           scale=ref["scale"], N=self.N)


@dataclass(frozen=True)
class Expected:
    eigenvalues: tuple[float, ...]
    locations: tuple[float, ...]


def published() -> dict[str, Expected]:
    return {name: Expected(tuple(verify.EXPECTED_EIGENVALUES[name]),
                           tuple(verify.EXPECTED_CONJUGATE_POINTS[name]))
            for name in verify.REFERENCE_PULSES}


@dataclass
class Outcome:
    """What one step of a pass produced, before it is checked.

    For a step that solves one pulse, ``case`` names it and ``seconds`` is
    its seed-to-verdict time; the gate's ``run_all`` step has no case.
    """

    label: str
    kind: str
    seconds: float
    case: Case | None = None
    value: object = None
    error: str | None = None


@dataclass
class PassResult:
    """A checked pass; the answers themselves are not kept."""

    wall: float
    pulse_seconds: dict[str, float]  # time spent on each pulse
    items: list[list[str]]  # the problems of each item; empty when correct


def reference_cases(seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    return [Case(name, ref["N"] + (0 if seed == 0 else int(rng.integers(0, MODE_JITTER + 1))))
            for name, ref in verify.REFERENCE_PULSES.items()]


def spectral_cases(seed: int) -> list[Case]:
    lo, hi = LADDER_RANGE
    rng = np.random.default_rng(seed)
    cases = []
    for name in verify.REFERENCE_PULSES:
        for base in LADDER:
            jitter = 0 if seed == 0 else int(rng.integers(-LADDER_JITTER, LADDER_JITTER + 1))
            cases.append(Case(name, min(max(base + jitter, lo), hi)))
    return cases


def _timed(label, kind, case, fn) -> Outcome:
    start = clock()
    try:
        value = fn()
    except Exception as exc:  # counted as a failed item, the pass goes on
        return Outcome(label, kind, clock() - start, case,
                       error=f"{type(exc).__name__}: {exc}")
    return Outcome(label, kind, clock() - start, case, value)


def _each(cases, kind: str, run, tracer) -> list[Outcome]:
    outcomes = []
    for case in cases:
        with tracer.region("bench.item"):
            outcomes.append(_timed(case.label, kind, case, lambda: run(case)))
    return outcomes


def _solve(case: Case, tracer):
    history: list[float] = []
    solved = pulse.newton_solve(case.initial_guess(), tol=NEWTON_TOL, history=history)
    tracer.count("pulse.newton_iters", len(history) - 1)
    tracer.count("pulse.newton_solves", 1)
    return solved


# --- reference: each pulse the way a user runs it -------------------------

def reference_pass(cases, workdir: Path, tracer) -> list[Outcome]:
    def run(case: Case):
        solved = _solve(case, tracer)
        path = workdir / f"{case.name}.json"
        pulse.save(solved, path)
        loaded = pulse.load(path)
        trajectory = shooting.integrate_frame(loaded, lam=0.0)
        report = conjugate.stability_report(loaded, trajectory=trajectory)
        text = cli.format_report(report)
        csv_path = workdir / f"{case.name}.csv"
        shooting.write_trajectory(trajectory, csv_path)
        return solved, loaded, report, text, csv_path, len(trajectory.samples)

    return _each(cases, "reference", run, tracer)


# --- spectral: Newton and the eigenvalue count on a mode-count ladder -------

def spectral_pass(cases, workdir: Path, tracer) -> list[Outcome]:
    def run(case: Case):
        solved = _solve(case, tracer)
        return solved, spectrum.count_unstable(solved)

    return _each(cases, "spectral", run, tracer)


# --- gate: the acceptance checks on the seeded pulses ------------------------

def gate_pass(cases, workdir: Path, tracer) -> list[Outcome]:
    with tracer.region("bench.bundles"):
        outcomes = _each(cases, "bundle",
                         lambda case: verify.bundle_from(case.name, _solve(case, tracer)),
                         tracer)
    bundles = {o.case.name: o.value for o in outcomes if o.error is None}
    if len(bundles) == len(cases):
        outcomes.append(_timed("verify.run_all", "checks", None,
                               lambda: verify.run_all(bundles=bundles)))
    else:
        outcomes.append(Outcome("verify.run_all", "checks", 0.0,
                                error="not run: a bundle failed"))
    return outcomes


# --- checks -----------------------------------------------------------------

def _compare(what: str, got, want, tol: float) -> list[str]:
    got, want = sorted(got), sorted(want)
    if len(got) != len(want):
        return [f"{what}: expected {len(want)} {list(want)}, got {len(got)} {list(got)}"]
    return [f"{what}: {g:.6f} is not within {tol:g} of {w}"
            for g, w in zip(got, want) if not abs(g - w) < tol]


def _check_newton(solved) -> list[str]:
    if solved.residual_norm <= NEWTON_TOL:
        return []
    return [f"Newton residual {solved.residual_norm:.2e} above {NEWTON_TOL:g}"]


def _check_report(report, want: Expected) -> list[str]:
    problems = _compare("eigenvalues", report.unstable_eigenvalues, want.eigenvalues,
                        verify.EIGENVALUE_TOL)
    problems += _compare("conjugate points", [r.x_star for r in report.conjugate_points],
                         want.locations, verify.LOCATION_TOL)
    counts = (len(want.eigenvalues), len(want.locations))
    if report.counts != counts:
        problems.append(f"counts {report.counts}, expected {counts}")
    if not report.counts_match:
        problems.append("verdict MISMATCH")
    return problems


def judge(outcome: Outcome, expected: dict[str, Expected]) -> list[list[str]]:
    """The problems of each item an outcome stands for (empty: correct)."""
    if outcome.error is not None:
        return [[f"{outcome.label}: {outcome.error}"]]
    want = expected[outcome.case.name] if outcome.case else None
    if outcome.kind == "reference":
        solved, loaded, report, text, csv_path, rows = outcome.value
        problems = _check_newton(solved) + _check_report(report, want)
        if not np.array_equal(loaded.a, solved.a):
            problems.append("pulse file did not round-trip")
        verdict = "MATCH" if report.counts_match else "MISMATCH"
        if not text.rstrip().endswith(f"-> {verdict}"):
            problems.append("formatted report lacks the verdict line")
        with open(csv_path) as fh:
            if sum(1 for _ in fh) != rows + 1:
                problems.append("trajectory CSV has the wrong number of rows")
    elif outcome.kind == "spectral":
        solved, report = outcome.value
        problems = _check_newton(solved) + _compare(
            "eigenvalues", report.unstable, want.eigenvalues, verify.EIGENVALUE_TOL)
    elif outcome.kind == "bundle":
        problems = _check_newton(outcome.value.pulse) + _check_report(
            outcome.value.report, want)
    else:  # the gate's CheckResults, one item each
        return [[] if r.passed else [r.line()] for r in outcome.value]
    return [[f"{outcome.label}: {p}" for p in problems]]


@dataclass(frozen=True)
class Workload:
    name: str
    cases: object  # seed -> list[Case]
    run_pass: object  # (cases, workdir, tracer) -> list[Outcome]


WORKLOADS = {
    "reference": Workload("reference", reference_cases, reference_pass),
    "spectral": Workload("spectral", spectral_cases, spectral_pass),
    "gate": Workload("gate", reference_cases, gate_pass),
}


def run_pass(workload: Workload, cases, workdir: Path, tracer,
             expected: dict[str, Expected]) -> PassResult:
    """Time one pass, then check its answers while its files still exist."""
    start = clock()
    with tracer.region("bench.pass"):
        outcomes = workload.run_pass(cases, workdir, tracer)
    wall = clock() - start
    pulse_seconds: dict[str, float] = {}
    items: list[list[str]] = []
    for o in outcomes:
        if o.case is not None:  # a ladder's rungs add up to one pulse
            pulse_seconds[o.case.name] = pulse_seconds.get(o.case.name, 0.0) + o.seconds
        try:
            items += judge(o, expected)
        except Exception as exc:  # an answer the checks cannot read is wrong
            items.append([f"{o.label}: check raised {type(exc).__name__}: {exc}"])
    return PassResult(wall, pulse_seconds, items)


def warm_up(workdir: Path) -> None:
    """Run every code path the workloads time once, on small inputs.

    Lazy set-up (first LAPACK and ODE-solver calls, cached finite-difference
    stencils) then lands in the set-up time, not in the first timed pass.
    """
    for result in verify.run_all(quick=True):
        if not result.passed:
            raise RuntimeError(f"warm-up check failed: {result.line()}")
    ref = verify.REFERENCE_PULSES["phi0"]
    small = pulse.newton_solve(
        pulse.seed_from_normal_form(ref["params"], ref["phi"], N=64), tol=NEWTON_TOL)
    path = workdir / "warm-up.json"
    pulse.save(small, path)
    small = pulse.load(path)
    settings = shooting.ShootingSettings(window=(-4.0, 4.0))
    trajectory = shooting.integrate_frame(small, lam=0.0, settings=settings)
    report = conjugate.stability_report(small, trajectory=trajectory)
    cli.format_report(report)
    shooting.write_trajectory(trajectory, workdir / "warm-up.csv")
