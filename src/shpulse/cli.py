"""Command-line frontend: solve pulses, print reports, export trajectories.

Subcommands
-----------

pulse      solve a stationary profile with Newton's method and save it
spectrum   print the unstable eigenvalues of a saved pulse
conjugate  print the two-route stability report for a saved pulse
plucker    export the transported-plane trajectory as delimited text
verify     run the built-in verification suite

Every numerical knob lives in :class:`RunConfig`; a JSON config file
(``--config``, taken by ``pulse``, ``conjugate`` and ``plucker``; the
spectrum has no knob) supplies any subset of its fields and explicit flags
override the file.  Output is deterministic: fixed float formats, no
timestamps.

Exit codes: 0 on success, 1 on a numerical failure (Newton divergence,
non-finite transport, a crossing outside the signature calculus,
unreadable pulse file, or a ``conjugate`` verdict of MISMATCH, whose report
is still printed in full), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import dataclass, fields

from .conjugate import format_report, stability_report
from .lagrangian import CrossingError
from .model import Params
from .pulse import (NewtonError, PulseFileError, evaluate, load, newton_solve,
                    save, seed_from_normal_form)
from .shooting import (ShootingSettings, TransportError, integrate_frame,
                       write_trajectory)
from .spectrum import count_unstable
from .verify import run_all


class UsageError(Exception):
    """Bad flag/config combination, reported with exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Complete, validated set of numerical parameters for one run.

    Groups: model parameters (``nu``, ``mu``, ``phi``, ``scale``), Fourier
    discretization (``L_f``, ``N``, ``newton_tol``) and plane transport
    (``L_cp``, ``sample_dx``: window half-width and sample spacing, which is
    also the transport's step up to 0.05, defaulting to :class:`ShootingSettings`).
    The decisions of the report take no settings: the eigenvalue count
    uses the spectrum's own noise floor and the simplicity warning the
    constant ``conjugate.SIMPLICITY_THRESHOLD``.
    ``nu``/``mu``/``phi`` stay ``None`` until a command that needs them
    checks for their presence.  ``N`` must be an integer and every other
    field a finite real number; booleans are neither.  The transport window
    ``2 L_cp`` must be an integer multiple of ``sample_dx``; that it fits
    inside the pulse's half-period is checked against the loaded pulse.
    """

    nu: float | None = None
    mu: float | None = None
    phi: float | None = None
    scale: float = 1.0
    L_f: float = 100.0
    N: int = 128
    newton_tol: float = 1e-12
    L_cp: float = ShootingSettings().window[1]
    sample_dx: float = ShootingSettings().dx

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "N":
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValueError(f"N must be an integer, got {value!r}")
            elif value is None and f.default is None:
                continue
            elif (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        for name in ("scale", "L_f", "newton_tol", "L_cp", "sample_dx"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.N < 1:
            raise ValueError("N must be at least 1")
        self.settings()

    def settings(self) -> ShootingSettings:
        return ShootingSettings(window=(-self.L_cp, self.L_cp), dx=self.sample_dx)


_FIELD_NAMES = tuple(f.name for f in fields(RunConfig))


def build_config(config_path: str | None, overrides: dict) -> RunConfig:
    """Merge a JSON config file with flag overrides into a RunConfig."""
    data: dict = {}
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(_FIELD_NAMES))
        if unknown:
            raise UsageError("unknown config key(s): " + ", ".join(unknown))
    data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig(**data)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {name: getattr(args, name, None) for name in _FIELD_NAMES}
    return build_config(getattr(args, "config", None), overrides)


def cmd_pulse(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    missing = [n for n in ("nu", "mu", "phi") if getattr(cfg, n) is None]
    if missing:
        raise UsageError(
            "pulse needs --" + ", --".join(missing) + " (flag or config file)")
    try:
        params = Params(nu=cfg.nu, mu=cfg.mu)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    seed = seed_from_normal_form(params, cfg.phi, L_f=cfg.L_f, N=cfg.N,
                                 scale=cfg.scale)
    solved = newton_solve(seed, tol=cfg.newton_tol)
    out = args.out or (f"pulse_nu{cfg.nu:g}_mu{cfg.mu:g}_phi{cfg.phi:g}.json")
    save(solved, out)
    print(f"wrote {out}")
    print(f"residual sup-norm: {solved.residual_norm:.3e}")
    print(f"coefficient tail |a_N|/max|a_k|: {solved.tail_floor:.3e}")
    print(f"value at the origin: {evaluate(solved, 0.0):.9f}")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    pulse = load(args.pulse_file)
    report = count_unstable(pulse)
    print(f"unstable eigenvalues (noise floor {report.noise_floor:.1e}):")
    if report.unstable:
        for ev in report.unstable:
            print(f"  {ev:.4f}  ({ev:.12f})")
    else:
        print("  none")
    print(f"translation-mode eigenvalue: {report.zero_mode:+.3e}")
    return 0


def cmd_conjugate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    pulse = load(args.pulse_file)
    trajectory = integrate_frame(pulse, lam=0.0, settings=cfg.settings())
    report = stability_report(pulse, trajectory=trajectory)
    print(format_report(report))
    if args.out:
        write_trajectory(trajectory, args.out)
        print(f"wrote {args.out} ({len(trajectory.xs)} rows)")
    return 0 if report.counts_match else 1


def cmd_plucker(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    pulse = load(args.pulse_file)
    trajectory = integrate_frame(pulse, lam=0.0, settings=cfg.settings())
    if args.out:
        write_trajectory(trajectory, args.out)
        print(f"wrote {args.out} ({len(trajectory.xs)} rows)")
    else:
        write_trajectory(trajectory, sys.stdout)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(quick=args.quick)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def _add_config_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE",
                     help="JSON file with RunConfig fields; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shpulse",
        description="Pulse stability for the 1-D Swift-Hohenberg equation: "
                    "spectral counts vs. conjugate points.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pulse = sub.add_parser(
        "pulse", help="solve a stationary profile and save it as JSON")
    p_pulse.add_argument("--nu", type=float, help="quadratic coefficient")
    p_pulse.add_argument("--mu", type=float, help="linear damping (> 0)")
    p_pulse.add_argument("--phi", type=float,
                         help="phase of the small-amplitude seed (0 or pi)")
    p_pulse.add_argument("--scale", type=float,
                         help="seed amplitude multiplier (default 1)")
    p_pulse.add_argument("--Lf", dest="L_f", type=float,
                         help="half-period of the Fourier box (default 100)")
    p_pulse.add_argument("--N", type=int,
                         help="number of cosine modes (default 128)")
    p_pulse.add_argument("--out", metavar="FILE",
                         help="output path (default pulse_nu*_mu*_phi*.json)")
    _add_config_flag(p_pulse)
    p_pulse.set_defaults(func=cmd_pulse)

    p_spec = sub.add_parser(
        "spectrum", help="print the unstable eigenvalues of a saved pulse")
    p_spec.add_argument("pulse_file")
    p_spec.set_defaults(func=cmd_spectrum)

    p_conj = sub.add_parser(
        "conjugate",
        help="print the stability report (eigenvalues vs. conjugate points)")
    p_conj.add_argument("pulse_file")
    p_conj.add_argument("--Lcp", dest="L_cp", type=float,
                        help="half-width of the transport window (default 60)")
    p_conj.add_argument("--out", metavar="FILE",
                        help="also export the trajectory as CSV")
    _add_config_flag(p_conj)
    p_conj.set_defaults(func=cmd_conjugate)

    p_plk = sub.add_parser(
        "plucker",
        help="export the plane trajectory (detA + Pluecker rows) as CSV")
    p_plk.add_argument("pulse_file")
    p_plk.add_argument("--Lcp", dest="L_cp", type=float,
                       help="half-width of the transport window (default 60)")
    p_plk.add_argument("--out", metavar="FILE",
                       help="output path (stdout when omitted)")
    _add_config_flag(p_plk)
    p_plk.set_defaults(func=cmd_plucker)

    p_ver = sub.add_parser(
        "verify", help="run the verification suite and print PASS/FAIL lines")
    p_ver.add_argument("--quick", action="store_true",
                       help="fixture checks only, skip the three pulse runs")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NewtonError, PulseFileError, TransportError, CrossingError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
