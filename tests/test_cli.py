"""End-to-end tests of the command-line interface.

Commands run in-process through ``cli.main`` so output and exit codes can
be asserted cheaply; one subprocess test covers the real argv plumbing.
Pulse files are produced once per module by the CLI itself, at its own
defaults (N = 128), so these tests exercise the shipped configuration
rather than the finer test fixtures used elsewhere.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

from shpulse import cli
from shpulse.cli import RunConfig, UsageError, build_config
from shpulse.conjugate import trust_horizon
from shpulse.lagrangian import CrossingError
from shpulse.pulse import load

EXPECTED_HEADER = "x,detA,P12,P13,P14,P23,P24,P34,omega_drift"


# ---------------------------------------------------------------------------
# pulse files produced by the CLI itself (module scope: solved once)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def _solve(workdir, name, *flags):
    out = workdir / name
    rc = cli.main(["pulse", *flags, "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def phi0_file(workdir):
    return _solve(workdir, "phi0.json", "--nu", "1.6", "--mu", "0.05",
                  "--phi", "0")


@pytest.fixture(scope="module")
def phipi_file(workdir):
    return _solve(workdir, "phipi.json", "--nu", "1.6", "--mu", "0.05",
                  "--phi", repr(np.pi))


@pytest.fixture(scope="module")
def snaking_file(workdir):
    return _solve(workdir, "snaking.json", "--nu", "1.6", "--mu", "0.20",
                  "--phi", "0", "--scale", "3")


@pytest.fixture(scope="module")
def small_mu_file(workdir):
    """phi = pi pulse at mu = 0.02 on a wide box: its odd unstable
    eigenvalue is 9.6e-6 and its second conjugate point sits at x = 70.6."""
    return _solve(workdir, "small_mu.json", "--nu", "1.6", "--mu", "0.02",
                  "--phi", repr(np.pi), "--Lf", "300", "--N", "576")


def _plucker_rows(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    x = np.array([float(r["x"]) for r in rows])
    P = np.array([[float(r[k]) for k in
                   ("P12", "P13", "P14", "P23", "P24", "P34")] for r in rows])
    return x, P


def _train_entries(x, P):
    """Interpolated points where the trajectory crosses ``P14 = 0``."""
    p14 = P[:, 2]
    entries = []
    for i in range(len(x) - 1):
        if p14[i] * p14[i + 1] < 0:
            t = p14[i] / (p14[i] - p14[i + 1])
            entries.append((x[i] + t * (x[i + 1] - x[i]),
                            P[i] + t * (P[i + 1] - P[i])))
    return entries


# ---------------------------------------------------------------------------
# pulse command
# ---------------------------------------------------------------------------


def test_pulse_solves_and_reports(phi0_file, capsys):
    pulse = load(phi0_file)
    assert pulse.residual_norm < 1e-12
    assert pulse.N == 128 and pulse.L_f == 100.0
    rc = cli.main(["pulse", "--nu", "1.6", "--mu", "0.05", "--phi", "0",
                   "--out", str(phi0_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "residual sup-norm" in out
    assert "coefficient tail" in out


def test_pulse_snaking_converges(snaking_file):
    pulse = load(snaking_file)
    assert pulse.residual_norm < 1e-12
    # the large-amplitude branch, not the small seed the solver started from
    from shpulse.pulse import evaluate
    assert evaluate(pulse, 0.0) == pytest.approx(1.0983, abs=1e-3)


@pytest.mark.parametrize("flags, lines", [
    (["--mu", "0.05", "--phi", "0", "--N", "192"],
     ["coefficient tail |a_N|/max|a_k|: 5.866e-11",
      "value at the origin: 0.298972580"]),
    (["--mu", "0.05", "--phi", repr(np.pi), "--N", "192"],
     ["coefficient tail |a_N|/max|a_k|: 5.489e-11",
      "value at the origin: -0.190191043"]),
    (["--mu", "0.20", "--phi", "0", "--scale", "3", "--N", "256"],
     ["coefficient tail |a_N|/max|a_k|: 2.631e-11",
      "value at the origin: 1.098311728"]),
], ids=["phi0", "phipi", "snaking"])
def test_pulse_stdout_is_pinned(tmp_path, capsys, flags, lines):
    """`shpulse pulse` for the reference pulses at their reference N: the
    tail and origin lines byte for byte; the residual line is rounding
    noise, so only its format and that it meets the Newton tolerance."""
    out_file = tmp_path / "pulse.json"
    assert cli.main(["pulse", "--nu", "1.6", *flags, "--out", str(out_file)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"wrote {out_file}"
    assert out[2:] == lines
    prefix = "residual sup-norm: "
    assert out[1].startswith(prefix)
    value = out[1][len(prefix):]
    assert f"{float(value):.3e}" == value
    assert float(value) <= RunConfig().newton_tol


def test_pulse_missing_flag_is_usage_error(capsys):
    rc = cli.main(["pulse", "--nu", "1.6", "--mu", "0.05"])
    assert rc == 2
    assert "phi" in capsys.readouterr().err


def test_pulse_newton_failure_exits_one(tmp_path, capsys):
    # overblown seeds contract by 2/3 per step, so this cannot reach the
    # tolerance inside the iteration budget
    out = tmp_path / "bad.json"
    rc = cli.main(["pulse", "--nu", "1.6", "--mu", "0.05", "--phi", "0",
                   "--scale", "1e12", "--N", "16", "--out", str(out)])
    assert rc == 1
    assert "no convergence" in capsys.readouterr().err
    assert not out.exists()


def _main_without_warnings(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert [str(w.message) for w in caught] == []
    return rc


def test_pulse_overflowing_seed_exits_one(tmp_path, capsys):
    out = tmp_path / "huge.json"
    rc = _main_without_warnings(["pulse", "--nu", "1.6", "--mu", "0.05", "--phi",
                                 "0", "--scale", "1e200", "--N", "32",
                                 "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite residual")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("mu", ["0", "-1"])
def test_pulse_nonpositive_mu_exits_two(tmp_path, capsys, mu):
    out = tmp_path / "never.json"
    rc = cli.main(["pulse", "--nu", "1.6", "--mu", mu, "--phi", "0", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: mu must be positive (got mu={float(mu)})\n"
    assert not out.exists()


def test_pulse_trivial_state_exits_one(tmp_path, capsys):
    # at mu = 0.26 the phi = 0 seed decays onto u = 0, which is no pulse
    out = tmp_path / "trivial.json"
    rc = cli.main(["pulse", "--nu", "1.6", "--mu", "0.26", "--phi", "0",
                   "--N", "192", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: converged to the trivial state")
    assert captured.err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, lines", [
    ("phi0", ["unstable eigenvalues (noise floor 6.6e-12):",
              "  0.1209  (0.120898086157)"]),
    ("phipi", ["unstable eigenvalues (noise floor 6.6e-12):",
               "  0.0058  (0.005832114613)",
               "  0.1179  (0.117893279177)"]),
    ("snaking", ["unstable eigenvalues (noise floor 6.6e-12):",
                 "  none"]),
])
def test_spectrum_stdout_is_pinned(request, name, lines, capsys):
    """`shpulse spectrum` at the default N = 128: the header and eigenvalue
    lines byte for byte; the translation-mode line is eigensolver rounding
    noise, so only its format and that it lies within the floor."""
    path = request.getfixturevalue(f"{name}_file")
    capsys.readouterr()
    assert cli.main(["spectrum", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:-1] == lines
    prefix = "translation-mode eigenvalue: "
    assert out[-1].startswith(prefix)
    value = out[-1][len(prefix):]
    assert f"{float(value):+.3e}" == value
    floor = float(lines[0].split()[-1].rstrip("):"))
    assert abs(float(value)) <= floor


def test_spectrum_unstable_phi0(phi0_file, capsys):
    assert cli.main(["spectrum", str(phi0_file)]) == 0
    out = capsys.readouterr().out
    assert "0.1209" in out


def test_spectrum_unstable_phipi(phipi_file, capsys):
    assert cli.main(["spectrum", str(phipi_file)]) == 0
    out = capsys.readouterr().out
    assert "0.0058" in out and "0.1179" in out


def test_spectrum_header_names_the_noise_floor(phi0_file, capsys):
    assert cli.main(["spectrum", str(phi0_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("unstable eigenvalues (noise floor 6.6e-12):\n")


def test_spectrum_stable_prints_none(snaking_file, capsys):
    assert cli.main(["spectrum", str(snaking_file)]) == 0
    assert "none" in capsys.readouterr().out


def test_spectrum_takes_no_config_flag(tmp_path, phi0_file, capsys):
    # the spectrum has no knob, so a config file would be read for nothing
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 64}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", str(phi0_file), "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_spectrum_missing_file_exits_one(capsys):
    assert cli.main(["spectrum", "no-such-pulse.json"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("N, coefficients", [(0, [-1.0]), (-1, [])])
def test_spectrum_degenerate_mode_count_exits_one(phi0_file, tmp_path, capsys,
                                                 N, coefficients):
    doc = json.loads(phi0_file.read_text())
    doc.update(N=N, coefficients=coefficients)
    bad = tmp_path / "degenerate.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["spectrum", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "N must be at least 1" in captured.err


def test_spectrum_overflowing_pulse_exits_one(phi0_file, tmp_path, capsys):
    bad = _with_coefficient(phi0_file, tmp_path / "huge.json", 1e200)
    assert _main_without_warnings(["spectrum", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite Jacobian")
    assert captured.err.count("\n") == 1


def test_spectrum_negative_residual_norm_exits_one(phi0_file, tmp_path, capsys):
    doc = json.loads(phi0_file.read_text())
    doc["residual_norm"] = -1.0
    bad = tmp_path / "negative.json"
    bad.write_text(json.dumps(doc))
    assert _main_without_warnings(["spectrum", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "residual_norm must be non-negative" in captured.err


def test_spectrum_rejects_coefficients_that_do_not_solve(phi0_file, tmp_path, capsys):
    # off by 1e-3 in one coefficient, the file's pulse is no longer a pulse;
    # counted anyway, it showed a spurious 0.0046 eigenvalue
    doc = json.loads(phi0_file.read_text())
    doc["coefficients"][3] += 1e-3
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(doc))
    assert _main_without_warnings(["spectrum", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "do not solve the equation" in captured.err


def test_spectrum_wrong_value_type_exits_one(phi0_file, tmp_path, capsys):
    doc = json.loads(phi0_file.read_text())
    doc["nu"] = True
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["spectrum", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "nu must be a number" in captured.err


# ---------------------------------------------------------------------------
# conjugate command
# ---------------------------------------------------------------------------


def test_conjugate_phi0_one_point(phi0_file, capsys):
    assert cli.main(["conjugate", str(phi0_file)]) == 0
    out = capsys.readouterr().out
    assert "MATCH" in out
    table = [ln for ln in out.splitlines() if ln.strip().startswith("1.2")]
    assert len(table) == 1
    x_star = float(table[0].split()[0])
    assert x_star == pytest.approx(1.24, abs=5e-2)


def test_conjugate_phipi_two_points(phipi_file, capsys):
    assert cli.main(["conjugate", str(phipi_file)]) == 0
    out = capsys.readouterr().out
    assert "2 unstable eigenvalue(s) vs 2 conjugate point(s) -> MATCH" in out


def test_conjugate_stable_zero_points(snaking_file, capsys):
    assert cli.main(["conjugate", str(snaking_file)]) == 0
    out = capsys.readouterr().out
    assert "0 unstable eigenvalue(s) vs 0 conjugate point(s) -> MATCH" in out


def test_conjugate_small_mu_counts_match(small_mu_file, capsys):
    assert cli.main(["conjugate", str(small_mu_file), "--Lcp", "200"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(
        "verdict: 2 unstable eigenvalue(s) vs 2 conjugate point(s) -> MATCH\n")


def test_conjugate_mismatch_exits_one(workdir, capsys):
    """A domain-filling state is no localized pulse: its counts disagree,
    the report is printed as usual and the run exits 1."""
    state = _solve(workdir, "filling.json", "--nu", "1.6", "--mu", "0.06",
                   "--phi", "0", "--N", "192")
    capsys.readouterr()
    assert cli.main(["conjugate", str(state)]) == 1
    captured = capsys.readouterr()
    assert captured.out.endswith(
        "verdict: 0 unstable eigenvalue(s) vs 1 conjugate point(s) -> MISMATCH\n")
    assert captured.err == ""


def test_conjugate_window_beyond_the_half_period_exits_one(phi0_file, capsys):
    assert cli.main(["conjugate", str(phi0_file), "--Lcp", "120"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: window [-120, 120] exceeds the pulse's "
                            "half-period 100\n")


def test_conjugate_export_matches_header(phi0_file, workdir, capsys):
    out = workdir / "phi0_traj.csv"
    assert cli.main(["conjugate", str(phi0_file), "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        assert fh.readline().strip() == EXPECTED_HEADER


def test_conjugate_report_is_deterministic(phi0_file, capsys):
    assert cli.main(["conjugate", str(phi0_file)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["conjugate", str(phi0_file)]) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("name, dx", [("phi0", 0.1), ("phi0", 0.2), ("phi0", 0.25),
                                      ("phipi", 0.1), ("snaking", 0.1),
                                      ("phipi", 0.2), ("snaking", 0.2),
                                      ("phi0", 0.15), ("snaking", 0.15),
                                      ("phi0", 1.0), ("phipi", 1.0), ("snaking", 1.0),
                                      ("phi0", 3.0), ("phipi", 3.0), ("snaking", 3.0),
                                      ("phipi", 20.0)])
def test_conjugate_stdout_does_not_depend_on_the_sample_spacing(request, name, dx,
                                                                tmp_path, capsys):
    """A coarser ``sample_dx`` from a config file prints the default run's
    bytes: the transport keeps every one of its steps (the default steps,
    except at 0.15, whose steps are fl(0.15)/3), and the crossings are
    found and classified between the samples, up to 10 from the nearest one
    at dx = 20, from the series of the nearest stored step."""
    path = str(request.getfixturevalue(f"{name}_file"))
    capsys.readouterr()
    assert cli.main(["conjugate", path]) == 0
    default = capsys.readouterr().out
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps({"sample_dx": dx}))
    assert cli.main(["conjugate", path, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("name, rows", [
    ("phi0", ["      1.239897     I      0.939251             -      0.8193"]),
    ("phipi", ["     -0.631220     I      0.333801             -      0.7464",
               "     17.588697     I      0.806582             -      0.8816"]),
])
def test_conjugate_table_rows_are_pinned(request, name, rows, capsys):
    """The crossing rows `shpulse conjugate` prints at the default N = 128,
    position, case, Q1, Q3 and simplicity, byte for byte."""
    assert cli.main(["conjugate", str(request.getfixturevalue(f"{name}_file"))]) == 0
    out = capsys.readouterr().out.splitlines()
    header = out.index("            x*  case            Q1            Q3  simplicity")
    assert out[header + 1:header + 1 + len(rows)] == rows
    assert out[header + 1 + len(rows)] == ""


def _with_coefficient(src, dst, value):
    doc = json.loads(src.read_text())
    doc["coefficients"][3] = value
    dst.write_text(json.dumps(doc))
    return dst


def test_conjugate_rejects_non_finite_pulse_file(phi0_file, tmp_path, capsys):
    bad = _with_coefficient(phi0_file, tmp_path / "nan.json", float("nan"))
    assert cli.main(["conjugate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_conjugate_overflowing_pulse_exits_one(phi0_file, tmp_path, capsys):
    bad = _with_coefficient(phi0_file, tmp_path / "huge.json", 1e200)
    assert cli.main(["conjugate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "not finite" in captured.err


def test_conjugate_step_beyond_the_reach_exits_one(phi0_file, tmp_path, capsys):
    # |a_3| = 1e120: the residual overflows, so the file loads, and the
    # potential is finite but puts every step far beyond the series' reach
    bad = _with_coefficient(phi0_file, tmp_path / "steep.json", 1e120)
    assert _main_without_warnings(["conjugate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the step at x = -60 has |B|_1 h = ")
    assert "beyond the reach 6.28 of its Taylor series" in captured.err
    assert captured.err.count("\n") == 1


# a complement that meets the plane is a ValueError of the form calculus
@pytest.mark.parametrize("error", [CrossingError, ValueError])
def test_conjugate_crossing_failure_exits_one(phi0_file, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("crossing at t = 1.24 is degenerate")

    monkeypatch.setattr(cli, "stability_report", fail)
    assert cli.main(["conjugate", str(phi0_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: crossing at t = 1.24 is degenerate\n"


# ---------------------------------------------------------------------------
# plucker command
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def plucker_csvs(workdir, phi0_file, phipi_file, snaking_file):
    paths = {}
    for name, src in (("phi0", phi0_file), ("phipi", phipi_file),
                      ("snaking", snaking_file)):
        out = workdir / f"{name}_plucker.csv"
        assert cli.main(["plucker", str(src), "--out", str(out)]) == 0
        paths[name] = out
    return paths


def test_plucker_rows_unit_norm(plucker_csvs):
    for path in plucker_csvs.values():
        _, P = _plucker_rows(path)
        assert np.max(np.abs(np.linalg.norm(P, axis=1) - 1.0)) < 1e-12


def test_plucker_stable_pulse_avoids_singular_point(plucker_csvs):
    _, P = _plucker_rows(plucker_csvs["snaking"])
    e23 = np.zeros(6)
    e23[3] = 1.0
    dist = np.minimum(np.linalg.norm(P - e23, axis=1),
                      np.linalg.norm(P + e23, axis=1))
    assert float(dist.min()) > 0.1


def test_plucker_train_entries_match_conjugate_counts(plucker_csvs):
    for name, expected in (("phi0", 1), ("phipi", 2)):
        x, P = _plucker_rows(plucker_csvs[name])
        entries = _train_entries(x, P)
        assert len(entries) == expected
        for _, pt in entries:
            # in the slice P14 = 0 the train of span{e2, e3} projects onto the
            # two closed discs of radius 1/2 centred at (P12, P13) = (+-1/2, 0)
            p12, p13 = pt[0], pt[1]
            assert min((p12 - 0.5) ** 2, (p12 + 0.5) ** 2) + p13**2 <= 0.25 + 1e-2


def test_plucker_stable_sign_changes_only_past_horizon(plucker_csvs,
                                                       snaking_file):
    # at the CLI's own resolution the transported plane detaches from the
    # true one far inside the window; everything before the horizon is clean
    x, P = _plucker_rows(plucker_csvs["snaking"])
    horizon = trust_horizon(load(snaking_file))
    for x_star, _ in _train_entries(x, P):
        assert x_star > horizon


def test_plucker_stdout_when_no_out(phi0_file, capsys):
    assert cli.main(["plucker", str(phi0_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].strip() == EXPECTED_HEADER
    assert len(lines) == 2402


def test_plucker_stdout_is_the_conjugate_export_bytewise(phi0_file, workdir, capsys):
    """One writer serves the text stream and the ``newline=""`` file: both
    carry the same rows, each ending in CRLF."""
    out = workdir / "phi0_conjugate_export.csv"
    assert cli.main(["conjugate", str(phi0_file), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["plucker", str(phi0_file)]) == 0
    text = capsys.readouterr().out
    assert text.startswith(EXPECTED_HEADER + "\r\n")
    assert text.count("\n") == text.count("\r\n") == 2402
    assert out.read_bytes() == text.encode()


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_verify_quick_passes(capsys):
    assert cli.main(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------


def test_config_defaults_match_published_settings():
    cfg = RunConfig()
    assert cfg.L_f == 100.0
    assert cfg.L_cp == 60.0
    assert cfg.N == 128
    assert cfg.sample_dx == 0.05
    assert [f.name for f in fields(RunConfig)] == [
        "nu", "mu", "phi", "scale", "L_f", "N", "newton_tol", "L_cp", "sample_dx"]


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        RunConfig(sample_dx=0.0)
    # the window is checked against the loaded pulse, not the config's L_f
    assert RunConfig(L_cp=120.0, L_f=100.0).L_cp == 120.0


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"nu": 1.6, "mu": 0.05, "phi": 0.0, "N": 64}))
    out = tmp_path / "from_config.json"
    rc = cli.main(["pulse", "--config", str(cfg), "--N", "96",
                   "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    pulse = load(out)
    assert pulse.N == 96  # flag wins over the file
    assert pulse.params.nu == 1.6 and pulse.params.mu == 0.05


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config file"),
    ("{N: 64}", "config file is not valid JSON"),
    ("[64]", "config file must hold a JSON object"),
], ids=["unreadable", "not-json", "not-an-object"])
def test_config_file_errors_exit_two(tmp_path, capsys, content, message):
    cfg = tmp_path / "run.json"
    if content is not None:
        cfg.write_text(content)
    rc = cli.main(["conjugate", "whatever.json", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"usage error: {message}")


def test_zero_modes_exit_two(tmp_path, capsys):
    out = tmp_path / "never.json"
    rc = cli.main(["pulse", "--nu", "1.6", "--mu", "0.05", "--phi", "0", "--N", "0",
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "usage error: N must be at least 1\n"
    assert not out.exists()


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"window": 60}))
    with pytest.raises(UsageError, match="unknown config key"):
        build_config(str(cfg), {})


@pytest.mark.parametrize("key", ["rtol", "atol", "renorm_every", "degeneracy_tol",
                                 "unstable_threshold", "simplicity_threshold"])
def test_config_removed_transport_knobs_exit_two(tmp_path, capsys, key):
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({key: 1}))
    rc = cli.main(["conjugate", "whatever.json", "--config", str(cfg)])
    assert rc == 2
    assert f"unknown config key(s): {key}" in capsys.readouterr().err


def test_config_invalid_values_exit_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"L_cp": -200.0}))
    rc = cli.main(["conjugate", "whatever.json", "--config", str(cfg)])
    assert rc == 2
    assert "usage error: L_cp must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config", [(["--Lcp", "0.01"], {}),
                                           ([], {"sample_dx": 0.07})],
                         ids=["Lcp=0.01", "sample_dx=0.07"])
def test_window_not_a_multiple_of_dx_exits_two(tmp_path, capsys, flags, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main(["conjugate", "whatever.json", "--config", str(cfg), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "not an integer multiple of dx" in err


def test_window_without_a_step_exits_two(phi0_file, tmp_path, capsys):
    """A window of no step, or of more steps than a float counts, or a
    spacing too fine to step, is one usage-error line, by flag or by
    config file."""
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"sample_dx": 1e-320}))
    fine = tmp_path / "fine.json"
    fine.write_text(json.dumps({"sample_dx": 1e-12}))
    for flags, err in [
        (["--Lcp", "1e-11"], "window [-1e-11, 1e-11] holds no step of dx = 0.05"),
        (["--Lcp", "1e308"],
         "window [-1e+308, 1e+308] holds more steps of dx = 0.05 than a float counts"),
        (["--config", str(cfg)],
         # the subnormal 1e-320 prints as 9.99989e-321
         f"window [-60, 60] holds more steps of dx = {1e-320:g} than a float counts"),
        (["--config", str(fine)], "dx = 1e-12 is too fine for the transport to step"),
    ]:
        rc = cli.main(["plucker", str(phi0_file), *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"usage error: {err}\n"


@pytest.mark.parametrize("entry", [{"N": 64.5}, {"N": True}, {"nu": "abc"},
                                   {"phi": "x"}],
                         ids=["N=64.5", "N=true", "nu=abc", "phi=x"])
def test_config_wrong_value_type_exits_two(tmp_path, capsys, entry):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nu": 1.6, "mu": 0.05, "phi": 0.0, **entry}))
    rc = cli.main(["pulse", "--config", str(cfg), "--out",
                   str(tmp_path / "never.json")])
    assert rc == 2
    (key,) = entry
    assert f"usage error: {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "never.json").exists()


def test_lcp_flag_shrinks_window(phi0_file, capsys):
    assert cli.main(["plucker", str(phi0_file), "--Lcp", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split(",")[0] == "-20.0"
    assert len(lines) == 802


# ---------------------------------------------------------------------------
# process-level behaviour
# ---------------------------------------------------------------------------


def test_subprocess_spectrum_roundtrip(phi0_file):
    proc = subprocess.run(
        [sys.executable, "-m", "shpulse.cli", "spectrum", str(phi0_file)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "0.1209" in proc.stdout


_WITHOUT_SCIPY = """
import sys
import shpulse.cli
print(sorted(m for m in sys.modules if m.startswith("scipy")))
sys.modules["scipy"] = None
import numpy as np
from shpulse import lagrangian as lg, verify
from shpulse.model import J4
print(all(r.passed for r in verify.run_all(quick=True)))
sand = lg.sandwich_plane()
path = lg.polynomial_family([sand, 0 * sand, 0 * sand, J4 @ sand @ np.diag([1.0, 2.0])])
ts = np.linspace(-1.0, 1.0, 1000)
(c,) = lg.maslov_index(path, sand, ts, path(ts, 0)[:, 0]).crossings
print(c.order, c.kernel_dim, c.signature)
"""


def test_runtime_needs_no_scipy():
    """scipy is a test dependency only: a fresh interpreter imports the CLI
    without loading any scipy module, and with scipy blocked the quick
    verification passes and the t^3 diag(1, 2) touch between two samples
    is still found and classified."""
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True", "3 2 -2"]


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
