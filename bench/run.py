"""shpulse benchmark: time to a verified two-route verdict.

Run from the repository root:

    python3 bench/run.py --workload reference --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check

The program is imported from ``src/`` of the same checkout.  A run sets up
(import plus a warm-up, timed in this interpreter and in fresh ones), then
runs timed passes of the workload until the next one would overrun
``--seconds`` (at least one pass), checks every answer against the
published values in ``shpulse.verify``, and prints the metrics.  While
the untraced passes run, a timer interrupts them about once a second to
time a fixed calibration task (``bench/yardstick.py``); the pass time is
reported scaled to a host of nominal speed, so that the drift of a shared
host's speed cancels out of it.  With ``--trace 1`` half the time
runs untraced and half with spans around the package's module-boundary
calls (``bench/tracing.py``); the per-layer metrics come from the traced
half and the gap between the halves is the tracing overhead.  Spans go to
``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time

_START = time.perf_counter()

# one BLAS/OpenMP thread: steadier timings on a shared machine, pinned
# before numpy loads
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 2  # fresh interpreters timed besides this one
PROBE_TIMEOUT = 120.0


class ProgramMissing(RuntimeError):
    """The checkout has no importable shpulse package under src/."""


def load_program():
    package = ROOT / "src" / "shpulse"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no shpulse package at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import shpulse

    if Path(shpulse.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported shpulse from {shpulse.__file__}, not {package}")


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS}


def probe_setup() -> float:
    """Set-up time of a fresh interpreter running this file's probe mode."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--setup-probe"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(workload, cases, seconds: float, workdir: Path, tracer, expected) -> list:
    """Checked passes until the next one would overrun ``seconds``."""
    import workloads

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workloads.run_pass(workload, cases, workdir, tracer, expected))
        if time.perf_counter() - start + passes[-1].wall > seconds:
            return passes


def pulse_times(passes) -> list[float]:
    return [s for p in passes for s in p.pulse_seconds.values()]


def end_to_end(setups: list[float], passes, scale: float) -> dict:
    """The pass time in nominal seconds (measured times the yardstick's scale).

    Set-up is reported as measured: it runs in fresh interpreters, before the
    yardstick, and is mostly imports.
    """
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (scale * statistics.median(p.wall for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced, untraced, yardstick) -> dict:
    """Per-pass layer metrics of the traced passes.

    The per-pulse median and the yardstick's mean time come from the
    untraced passes of the same run.
    """
    import tracing

    t, n = tracer, len(traced)
    wall = t.total("bench.pass") / n
    untraced_wall = statistics.fmean(p.wall for p in untraced)
    counters = t.counters

    def per_pass(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "pulse.p50_s": (statistics.median(pulse_times(untraced)), "s"),
        "pulse.p50_samples": (len(pulse_times(untraced)), "count"),
        "pulse.seed_s": (per_pass(t.total("pulse.seed")), "s"),
        "pulse.newton_s": (per_pass(t.total("pulse.newton")), "s"),
        "pulse.newton_iters": (ratio(counters.get("pulse.newton_iters", 0),
                                     counters.get("pulse.newton_solves", 0)), "count"),
        "pulse.jacobian_calls": (per_pass(t.calls("pulse.jacobian")), "count"),
        "pulse.jacobian_s": (per_pass(t.total("pulse.jacobian")), "s"),
        "pulse.io_s": (per_pass(t.total("pulse.save", "pulse.load")), "s"),
        "spectrum.count_s": (per_pass(t.total("spectrum.count")), "s"),
        "spectrum.dim": (ratio(counters.get("spectrum.dim", 0),
                               t.calls("spectrum.count")), "count"),
        "shooting.transport_s": (per_pass(t.total("shooting.transport")), "s"),
        "shooting.transport_share": (
            100.0 * ratio(t.total("shooting.transport"), n * wall), "%"),
        "shooting.samples": (per_pass(counters.get("shooting.samples", 0)), "count"),
        "shooting.potential_calls": (per_pass(t.calls("shooting.potential")), "count"),
        "shooting.potential_s": (per_pass(t.total("shooting.potential")), "s"),
        "shooting.frame_at_calls": (per_pass(t.calls("shooting.frame_at")), "count"),
        "shooting.frame_at_s": (per_pass(t.total("shooting.frame_at")), "s"),
        "shooting.csv_s": (per_pass(t.total("shooting.csv")), "s"),
        "model.coefficient_matrix_calls": (
            per_pass(t.calls("model.coefficient_matrix")), "count"),
        "model.coefficient_matrix_s": (per_pass(t.total("model.coefficient_matrix")), "s"),
        "lagrangian.diag_calls": (
            per_pass(t.calls("lagrangian.plucker", "lagrangian.is_lagrangian")), "count"),
        "lagrangian.diag_s": (
            per_pass(t.total("lagrangian.plucker", "lagrangian.is_lagrangian")), "s"),
        "lagrangian.fixtures_s": (per_pass(t.total("lagrangian.fixtures")), "s"),
        "conjugate.scan_s": (per_pass(t.self_time("conjugate.scan")), "s"),
        "conjugate.classify_s": (per_pass(t.total("conjugate.classify")), "s"),
        "conjugate.crossings": (per_pass(counters.get("conjugate.crossings", 0)), "count"),
        "conjugate.frame_at_per_crossing": (
            ratio(t.calls("shooting.frame_at"), counters.get("conjugate.crossings", 0)),
            "count"),
        "conjugate.report_s": (per_pass(t.self_time("conjugate.report")), "s"),
        "cli.format_s": (per_pass(t.total("cli.format")), "s"),
        "verify.bundles_s": (per_pass(t.total("bench.bundles")), "s"),
        "verify.robustness_s": (per_pass(t.total("verify.robustness")), "s"),
        "verify.invariants_s": (per_pass(t.total("verify.invariants")), "s"),
        "verify.oracle_s": (per_pass(t.total("verify.oracle")), "s"),
    }
    self_times = t.module_self_times()
    for module in tracing.MODULES + ("bench",):
        own = per_pass(self_times.get(module, 0.0))
        prefix = "bench.unattributed" if module == "bench" else f"{module}.self"
        m[f"{prefix}_s"] = (own, "s")
        m[f"{prefix}_share"] = (100.0 * ratio(own, wall), "%")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead"] = (100.0 * (wall / untraced_wall - 1.0), "%")
    m["host.yardstick_s"] = (statistics.fmean(yardstick.samples), "s")
    return m


def tally(passes) -> tuple[int, list[str]]:
    """Items attempted and the problems of the failed ones."""
    items = [item for p in passes for item in p.items]
    return len(items), ["; ".join(item) for item in items if item]


def run(args) -> int:
    import tracing
    import workloads
    import yardstick

    workload = workloads.WORKLOADS[args.workload]
    cases = workload.cases(args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        workloads.warm_up(workdir)
        setups = [time.perf_counter() - _START]
        if not args.trace:
            setups += [probe_setup() for _ in range(SETUP_PROBES)]
        budget = args.seconds / 2 if args.trace else args.seconds
        expected = workloads.published()
        with yardstick.Yardstick().running() as stick:
            untraced = measure(workload, cases, budget, workdir, tracing.Untraced(),
                               expected)
        traced = []
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(workload, cases, budget, workdir, tracer, expected)
            finally:
                tracer.uninstall()

    attempted, problems = tally(untraced + traced)
    env = environment()
    print("environment " + json.dumps(env))
    print(f"workload {args.workload}, seed {args.seed}: "
          + ", ".join(c.label for c in cases))
    print(f"{len(untraced)} untraced and {len(traced)} traced passes; "
          f"{attempted} items, {len(problems)} failed "
          f"(fail_ratio {len(problems) / attempted:g})")
    for line in problems[:20]:
        print("FAILED " + line)
    if args.trace:
        metrics = per_layer(tracer, traced, untraced, stick)
        if tracer.absent:
            print("absent (not in this version of the program): " + ", ".join(tracer.absent))
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "passes": len(traced), "environment": env})
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(setups, untraced, stick.scale())
        print(f"set-up samples {setups}; pass walls {[p.wall for p in untraced]}; "
              f"median pulse {statistics.median(pulse_times(untraced)):.6f} s over "
              f"{len(pulse_times(untraced))} pulse timings")
        print(f"yardstick runs {[round(t, 4) for t in stick.samples]}; timings below "
              f"are scaled by {stick.scale():.6f} to a host that runs it in "
              f"{yardstick.REFERENCE_S} s on average (set-up is not scaled)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def self_check() -> int:
    """Short run on one pulse that checks the benchmark itself.

    Every metric named in BENCHMARK.json is emitted with its unit, a wrong
    expected answer is counted as a failure, and the traced layers' self
    times add up to the traced wall time.
    """
    import tracing
    import workloads
    import yardstick

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS["reference"]
    cases = [workloads.Case("phi0", 192)]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        workloads.warm_up(workdir)
        setups = [time.perf_counter() - _START]
        published = workloads.published()
        with yardstick.Yardstick().running() as stick:
            untraced = measure(workload, cases, 0.0, workdir, tracing.Untraced(), published)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(workload, cases, 0.0, workdir, tracer, published)
        finally:
            tracer.uninstall()
        emitted = {"end_to_end": end_to_end(setups, untraced, stick.scale()),
                   "per_layer": per_layer(tracer, traced, untraced, stick)}
        want = published["phi0"]
        shifted = (want.eigenvalues[0] + 10 * workloads.verify.EIGENVALUE_TOL,)
        wrong_table = {"phi0": workloads.Expected(shifted, want.locations)}
        wrong = tally(measure(workload, cases, 0.0, workdir, tracing.Untraced(), wrong_table))
        right = tally(untraced)

    results = []
    for group in ("end_to_end", "per_layer"):
        bad = [m["name"] for m in spec[group]
               if emitted[group].get(m["name"], (None, None))[1] != m["unit"]]
        results.append((not bad, f"every {group} metric emitted with its unit"
                        + (f"; missing or wrong unit: {bad}" if bad else "")))
    results.append((right == (1, []) and wrong[0] == 1 and len(wrong[1]) == 1,
                    f"published answers pass ({right[1] or 'no problems'}), a wrong "
                    f"expected eigenvalue fails ({wrong[1]})"))
    layers = emitted["per_layer"]
    wall = layers["trace.wall_s"][0]
    attributed = sum(layers[f"{m}.self_s"][0] for m in tracing.MODULES)
    unattributed = layers["bench.unattributed_s"][0]
    results.append((abs(attributed + unattributed - wall) <= 1e-9 * wall
                    and unattributed >= 0,
                    f"layer self times {attributed:.6f} s + unattributed "
                    f"{unattributed:.6f} s = traced wall {wall:.6f} s"))
    for ok, line in results:
        print(("PASS  " if ok else "FAIL  ") + line)
    return 0 if all(ok for ok, _ in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("reference", "spectral", "gate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check the benchmark itself on a short run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.self_check or args.setup_probe or args.workload):
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads

        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            workloads.warm_up(Path(tmp))
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return 0
    if args.self_check:
        return self_check()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
