import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import periodkit
from periodkit import analysis, cli, model, report
from periodkit.cli import build_parser, main
from periodkit.model import LAM_C, X_MIN, PotentialSystem
from periodkit.quadrature import period_samples, period_slopes

TWO_PI = 2 * math.pi


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_period_csv(capsys):
    code, out, _ = run_cli(capsys, ["period", "--lambda", "0", "--xi", "1",
                                    "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,xi,h,T,T_err,method"
    assert lines[1].startswith("0,1,0.5,6.28318530717958")


def test_period_by_energy_json(capsys):
    code, out, _ = run_cli(capsys, ["period", "--lambda", "1", "--h", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["rel_tol"] == 1e-10
    assert payload["samples"][0]["h"] == 5


def test_scan_csv_rows(capsys):
    code, out, _ = run_cli(capsys, ["scan", "--lambda", "0", "--xi-min", "1",
                                    "--xi-max", "2", "--n", "3", "--format", "csv"])
    assert code == 0
    assert len(out.splitlines()) == 4


def test_scan_warns_of_unconverged_samples(capsys, tmp_path):
    # just below LAM_C at X_MIN the period does not converge: the scan still
    # writes that sample with its best estimate and exits 0, but one stderr
    # line counts the unconverged samples and names the first in the words
    # period's error takes, and the sidecar of --out lists their amplitudes;
    # each row's converged column (false, true as JSON writes them) marks it
    lam, xi_min, xi_max = "4.603338802718311", "2.246704728954532", "4.493409457909064"
    argv = ["scan", "--lambda", lam, "--xi-min", xi_min, "--xi-max", xi_max, "--n", "2",
            "--format", "csv"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert out.splitlines()[0] == "lambda,xi,h,T,T_err,method,converged" and len(rows) == 2
    assert [row["converged"] for row in rows] == ["true", "false"]
    period_code, _, period_err = run_cli(capsys, ["period", "--lambda", lam, "--xi", xi_max])
    assert period_code == 2 and period_err.startswith("error: period quadrature is rounding-limited")
    message = period_err.removeprefix("error: ").partition("; best estimate")[0]
    assert err == f"warning: 1 of 2 samples did not converge; the first: {message}\n"
    samples = analysis.scan_period(PotentialSystem(float(lam)), float(xi_min), float(xi_max), 2)
    assert [s.converged for s in samples] == [True, False]
    assert out == report.samples_to_csv(samples, report.SCAN_FIELDS)
    code, payload, _ = run_cli(capsys, argv[:-2])
    assert code == 0
    assert [row["converged"] for row in json.loads(payload)["samples"]] == [True, False]

    path = tmp_path / "scan.csv"
    assert run_cli(capsys, argv + ["--out", str(path)]) == (0, "", err)
    assert path.read_text() == out
    meta = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    assert meta["unconverged_xi"] == [float(xi_max)]

    # a scan whose samples all converge warns of nothing and lists none
    code, _, err = run_cli(capsys, ["scan", "--lambda", lam, "--xi-min", xi_min, "--xi-max", "4.4",
                                    "--n", "2", "--out", str(path)])
    assert (code, err) == (0, "")
    assert json.loads((tmp_path / "scan.csv.meta.json").read_text())["unconverged_xi"] == []


def test_two_pi_json(capsys):
    code, out, _ = run_cli(capsys, ["two-pi", "--lambda", "1", "--k-max", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["brackets"][0]["k"] == 1
    assert len(payload["two_pi_levels"]) >= 1

    code, out, err = run_cli(capsys, ["two-pi", "--lambda", "1", "--k-max", "0"])
    assert (code, out, err) == (2, "", "error: k_max must be >= 1\n")


def test_critical_csv(capsys):
    code, out, _ = run_cli(capsys, ["critical", "--lambda", "1", "--xi-max",
                                    str(4 * math.pi), "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "xi_star,h_star,T_star,kind,refine_err"
    assert len(lines) >= 2
    assert lines[1].split(",")[3] in ("max", "min")


def test_critical_at_a_huge_coupling_sees_no_zero_slope(capsys):
    # w*sqrt(w) overflowed past lam ~ 1e205: the slopes on the search grid
    # were exactly 0 and numpy warned of the overflow (an error here)
    sys_ = PotentialSystem(1e300)
    grid = np.arange(analysis.SCAN_STEP, 1.0 + 1e-12, analysis.SCAN_STEP)
    assert (period_slopes(sys_, grid)[0] > 0.0).all()
    code, out, err = run_cli(capsys, ["critical", "--lambda", "1e300", "--xi-max", "1"])
    assert (code, err) == (0, "")
    assert json.loads(out)["critical_periods"] == []


def test_bessel_subcommands(capsys):
    code, out, _ = run_cli(capsys, ["bessel", "j1", "--xi", "1"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.44005058574493355, abs=1e-12)

    code, out, _ = run_cli(capsys, ["bessel", "zeros", "--n", "2", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "k,zero"

    code, out, _ = run_cli(capsys, ["bessel", "identity", "--n", "40"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["xi_max"] == 14.0

    # above the series' range J1 would be the integral the identity checks
    code, out, err = run_cli(capsys, ["bessel", "identity", "--xi-max", "20"])
    assert code == 2
    assert out == ""
    assert "xi_max <= 14, got 20" in err

    # j1 needs its argument and zeros a positive count
    for argv, message in ((["j1"], "bessel j1 needs --xi"), (["zeros"], "bessel zeros needs --n"),
                          (["zeros", "--n", "0"], "need n >= 1")):
        code, out, err = run_cli(capsys, ["bessel", *argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # far out the trapezoid runs out of nodes; the error names its best estimate
    code, out, err = run_cli(capsys, ["bessel", "j1", "--xi", "1e8"])
    assert (code, out) == (2, "")
    assert err.startswith("error: periodic trapezoid did not converge at xi=1e+08; best estimate ")


def test_opial_json(capsys):
    code, out, _ = run_cli(capsys, ["opial", "--lambda", "1", "--x-max", "10"])
    assert code == 0
    zeros = json.loads(out)["indicator_zeros"]
    assert any(abs(z - TWO_PI) < 1e-9 for z in zeros)


def test_oracle_with_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.csv"
    code, out, err = run_cli(capsys, ["oracle", "--lambda", "1", "--xi", "2",
                                      "--tol", "1e-10", "--dump-trace",
                                      str(trace_path), "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1].endswith("ode-oracle")
    assert trace_path.read_text().splitlines()[0] == "t,x,y,H"
    assert "trace written" in err


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["verify", "--lambda", "1", "--k-max", "1"])
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "[pass]" in err

    code, _, err = run_cli(capsys, ["verify", "--lambda", "0", "--k-max", "1"])
    assert code == 2
    assert "isochronous" in err

    # the nilpotent center has no center expansion; verify refuses it
    # before it measures a bracket
    def unreachable(*args):
        raise AssertionError("two_pi_brackets ran at lam = -1")

    monkeypatch.setattr(report, "two_pi_brackets", unreachable)
    code, out, err = run_cli(capsys, ["verify", "--lambda", "-1", "--k-max", "5"])
    assert (code, out) == (2, "")
    assert err == "error: expansion residuals need an elementary center (lam > -1)\n"

    # the edge comes first: past it verify asks nothing else, where
    # T'(0+) alone would overflow at lam = 1e100
    def too_early(*args):
        raise AssertionError("small_h_check ran past the edge")

    monkeypatch.setattr(report, "small_h_check", too_early)
    code, out, err = run_cli(capsys, ["verify", "--lambda", "1e100", "--k-max", "1"])
    assert (code, out) == (2, "")
    assert err == "error: center for lam=1e+100 is only valid below x=3.14159, needed 10.4248\n"


def test_verify_failure_maps_to_exit_one(capsys, monkeypatch):
    import periodkit.cli as cli
    from periodkit.report import CheckResult, run_verify

    real = run_verify(1.0, 1)
    checks = dict(real.checks)
    checks["opial"] = CheckResult(False, -1.0, "forced failure")
    import dataclasses
    broken = dataclasses.replace(real, checks=checks)
    monkeypatch.setattr(cli, "run_verify", lambda lam, k: broken)

    code, out, err = run_cli(capsys, ["verify", "--lambda", "1", "--k-max", "1"])
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert "[FAIL] opial" in err


def test_verify_near_the_side_equilibria_writes_its_report(capsys, tmp_path):
    # the critical-period search does not converge there; the payload is
    # still written, with alternation failing, and the exit code is 1
    out = tmp_path / "near_edge.json"
    code, _, err = run_cli(capsys, ["verify", "--lambda", "4.60333884", "--k-max", "5",
                                    "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["critical_periods"] == [] and not payload["checks"]["alternation"]["passed"]
    assert "[FAIL] alternation: margin=-inf" in err
    # alone, two-pi finds the report's levels (exit 0) and critical fails
    # with the error the alternation detail names (exit 2)
    code, levels, _ = run_cli(capsys, ["two-pi", "--lambda", "4.60333884", "--k-max", "5"])
    assert code == 0 and json.loads(levels)["two_pi_levels"] == payload["two_pi_levels"]
    code, _, err = run_cli(capsys, ["critical", "--lambda", "4.60333884",
                                    "--xi-max", repr(11 * math.pi)])
    assert code == 2 and err.startswith("error: ")
    assert payload["checks"]["alternation"]["detail"] == ("critical-period search failed: "
                                                          + err.removeprefix("error: ").strip())


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["period", "--lambda", "1"])  # neither --xi nor --h
    assert excinfo.value.code == 2


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main builds its parser once per process: a sequence of calls, a usage
    # error among them, writes what it writes on a fresh parser per call
    sequence = [["verify", "--lambda", "1", "--k-max", "1"], ["period", "--lambda", "1"],
                ["scan", "--lambda", "2.25", "--xi-min", "1", "--xi-max", "9", "--n", "5"],
                ["verify", "--lambda", "1", "--k-max", "1"]]

    def outputs():
        got = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            got.append((code, *capsys.readouterr()))
        return got

    shared = outputs()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert outputs() == shared
    assert [code for code, _, _ in shared] == [0, 2, 0, 0]


def test_invalid_lambda_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["period", "--lambda", "-2", "--xi", "1"])
    assert code == 2
    assert "error:" in err


def test_scan_past_the_edge_is_refused(capsys):
    code, out, err = run_cli(capsys, ["scan", "--lambda", "6", "--xi-min", "1",
                                      "--xi-max", "1e5", "--n", "10"])
    assert code == 2
    assert out == ""
    assert "valid below x=3.83501," in err


@pytest.mark.parametrize("flag", ["--rel-tol", "--config", "--max-depth", "--base-nodes"])
def test_removed_flags_are_usage_errors(capsys, flag):
    # the engine runs at one tolerance; no flag or file changes it
    with pytest.raises(SystemExit) as excinfo:
        main(["period", "--lambda", "1", "--xi", "1", flag, "1e-8"])
    captured = capsys.readouterr()
    assert (excinfo.value.code, captured.out) == (2, "")
    assert flag in captured.err


def test_period_below_the_edge_level(capsys):
    # the level sits below G(edge) = 17.968 at lam = 6; its amplitude is
    # inside the edge 3.83501
    code, out, _ = run_cli(capsys, ["period", "--lambda", "6", "--h", "17.39"])
    assert code == 0
    assert json.loads(out)["samples"][0]["xi"] == pytest.approx(3.3086272933182514)


def test_period_above_the_edge_level_names_it(capsys):
    code, out, err = run_cli(capsys, ["period", "--lambda", "5", "--h", "40"])
    assert (code, out) == (2, "")
    assert "G(4.10462) = 16.2791" in err


def test_period_at_a_subnormal_level_returns():
    # sqrt(2*h/(1+lam)) underflows to 0, which doubling alone never leaves
    src = os.path.dirname(os.path.dirname(os.path.abspath(periodkit.__file__)))
    proc = subprocess.run([sys.executable, "-m", "periodkit.cli", "period", "--lambda", "4.5",
                           "--h", "5e-324"], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["samples"][0]["method"] == "quadrature"


def test_no_convergence_names_its_best_estimate(capsys):
    # just below LAM_C the turning point at X_MIN is nearly double
    lam = LAM_C * (1 - 1e-8)
    code, out, err = run_cli(capsys, ["period", "--lambda", repr(lam), "--xi", repr(X_MIN)])
    assert (code, out) == (2, "")
    best = period_samples(PotentialSystem(lam), [X_MIN])[0]
    assert not best.converged
    assert err.endswith(f"; best estimate {best.T!r} with err_est {best.err_est:.3e}\n")


def test_period_at_a_tiny_level_converges(capsys):
    # with an unscaled gap G(x) - h the inversion took 101 Brent iterations
    # here, past brentq's cap of 100; scaled to h's binade it evaluates it 7 times
    code, out, err = run_cli(capsys, ["period", "--lambda", "-1e-8", "--h", "1.2e-288"])
    assert (code, err) == (0, "")
    assert json.loads(out)["samples"][0]["xi"] == pytest.approx(1.549193346228934e-144, rel=1e-15)


def test_inversion_past_its_iteration_cap_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(model, "BRENT_MAXITER", 3)
    code, out, err = run_cli(capsys, ["period", "--lambda", "1", "--h", "5"])
    assert (code, out) == (2, "")
    assert "did not converge in 3 iterations; best estimate" in err


def test_period_at_the_nilpotent_center_converges(capsys):
    code, out, _ = run_cli(capsys, ["period", "--lambda", "-1", "--xi", "0.001"])
    assert code == 0
    sample = json.loads(out)["samples"][0]
    assert sample["method"] == "quadrature"
    assert sample["T"] == pytest.approx(18166.147976523513, rel=1e-15)


@pytest.mark.parametrize("lam, xi, bound", [("1", "5e-324", "2.2250738585072014e-308"),
                                            ("-1", "1e-160", "7.307651647702757e-154")])
def test_period_refuses_the_smallest_amplitudes_naming_the_bound(capsys, lam, xi, bound):
    code, out, err = run_cli(capsys, ["period", "--lambda", lam, "--xi", xi])
    assert (code, out) == (2, "")
    assert f">= {bound} at lam={lam}," in err and err.rstrip().endswith(f"got {xi}")


def test_out_files_are_byte_identical(capsys, tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(capsys, ["two-pi", "--lambda", "1", "--k-max", "1",
                                      "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.meta.json").exists()

    # a write that cannot land leaves no temporary file behind
    def refused(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refused)
    with pytest.raises(OSError, match="replace refused"):
        report._write_atomic(str(tmp_path / "c.json"), "{}\n")
    assert not list(tmp_path.glob(".periodkit-*"))
    assert not (tmp_path / "c.json").exists()


NONFINITE_ARGV = {
    "period": ["period", "--lambda", "1", "--xi={}"],
    "scan": ["scan", "--lambda", "1", "--xi-min", "1", "--xi-max={}", "--n", "5"],
    "critical": ["critical", "--lambda", "1", "--xi-max={}"],
    "opial": ["opial", "--lambda", "1", "--x-max={}"],
    "oracle": ["oracle", "--lambda", "1", "--xi={}"],
    "bessel j1": ["bessel", "j1", "--xi={}"],
    "bessel identity": ["bessel", "identity", "--xi-max={}"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", list(NONFINITE_ARGV))
def test_nonfinite_input_is_usage_error(capsys, command, value):
    argv = [a.format(value) for a in NONFINITE_ARGV[command]]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    # the message names the offending value last
    assert err.startswith("error: ") and err.rstrip().endswith(" " + value)


# each asks for at least 1e14 elements, past any address space, so numpy
# refuses the allocation at once
OVERSIZED_ARGV = {
    "opial": ["opial", "--lambda", "1", "--x-max", "1e13"],
    "critical": ["critical", "--lambda", "1", "--xi-max", "1e14"],
    "scan": ["scan", "--lambda", "1", "--xi-min", "1", "--xi-max", "2", "--n", "1000000000000000"],
    "bessel zeros": ["bessel", "zeros", "--n", "1000000000000000"],
    "bessel identity": ["bessel", "identity", "--n", "1000000000000000"],
    "two-pi": ["two-pi", "--lambda", "1", "--k-max", "100000000000000"],
}


@pytest.mark.parametrize("command", list(OVERSIZED_ARGV))
def test_an_input_too_large_to_hold_is_usage_error(capsys, command):
    code, out, err = run_cli(capsys, OVERSIZED_ARGV[command])
    assert code == 2
    assert out == ""
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1


@pytest.mark.parametrize("command, argv", [("bessel j1", ["--xi", "1"]),
                                           ("bessel identity", ["--n", "40"]),
                                           ("verify", ["--lambda", "1", "--k-max", "1"])])
def test_csv_is_rejected_where_the_payload_is_json_only(capsys, command, argv):
    code, out, err = run_cli(capsys, command.split() + argv + ["--format", "csv"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {command} ")


@pytest.mark.parametrize("n", ["0", "1"])
def test_identity_rejects_grids_that_check_nothing(capsys, n):
    code, out, err = run_cli(capsys, ["bessel", "identity", "--n", n])
    assert code == 2
    assert out == ""
    assert f"n >= 2 points, got {n}" in err


def test_payload_records_match_the_verify_report(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--lambda", "1", "--k-max", "1"])
    assert code == 0
    report = json.loads(out)
    code, out, _ = run_cli(capsys, ["critical", "--lambda", "1",
                                    "--xi-max", repr(3 * math.pi)])
    assert code == 0
    assert json.loads(out)["critical_periods"] == report["critical_periods"]
    code, out, _ = run_cli(capsys, ["two-pi", "--lambda", "1", "--k-max", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["brackets"] == report["brackets"]
    assert payload["two_pi_levels"] == report["two_pi_levels"]
    assert payload["config"] == report["config"]


# each table's argv and the JSON payload key of the records it writes
TABLE_ARGV = {
    "period --xi": (["period", "--lambda", "1", "--xi", "2"], "samples"),
    "period --h": (["period", "--lambda", "1", "--h", "0.5"], "samples"),
    "scan": (["scan", "--lambda", "2.25", "--xi-min", "1", "--xi-max", "30", "--n", "5"], "samples"),
    "critical": (["critical", "--lambda", "1", "--xi-max", "37.7"], "critical_periods"),
    "two-pi": (["two-pi", "--lambda", "1", "--k-max", "5"], "brackets"),
    "opial": (["opial", "--lambda", "1", "--x-max", "20"], "indicator_zeros"),
    "bessel zeros": (["bessel", "zeros", "--n", "5"], "zeros"),
    "oracle": (["oracle", "--lambda", "1", "--xi", "3"], "samples"),
}


def _cell(text):
    """A CSV cell as JSON holds it: a boolean, a number or a string."""
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


@pytest.mark.parametrize("command", list(TABLE_ARGV))
def test_one_record_list_feeds_both_formats(capsys, command):
    argv, key = TABLE_ARGV[command]
    code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    header, *lines = out.splitlines()
    header = header.split(",")
    rows = [dict(zip(header, map(_cell, line.split(",")))) for line in lines]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    records = json.loads(out)[key]
    if header[0] == "k" and len(header) == 2:  # a list of values, numbered in the CSV
        records = [{"k": k, header[1]: v} for k, v in enumerate(records, 1)]
    assert len(rows) == len(records) > 0
    # the CSV leaves out only two-pi's degenerate flag
    assert set(records[0]) - set(header) == ({"degenerate"} if command == "two-pi" else set())
    assert rows == [{name: r[name] for name in header} for r in records]


@pytest.mark.parametrize("value", ["-1e-8", "-1E-8", "-.5"])
def test_verify_reads_a_negative_coupling_in_any_notation(capsys, value):
    # argparse alone takes -1e-8 for an unknown option and exits 2
    code, out, _ = run_cli(capsys, ["verify", "--lambda", value, "--k-max", "5"])
    assert code in (0, 1)
    assert out == run_cli(capsys, ["verify", f"--lambda={value}", "--k-max", "5"])[1]


@pytest.mark.parametrize("argv", [
    "period --lambda V --xi V", "period --lambda V --h V",
    "scan --lambda V --xi-min V --xi-max V --n 2", "critical --lambda V --xi-max V",
    "two-pi --lambda V --k-max 1", "opial --lambda V --x-max V", "bessel j1 --xi V",
    "bessel identity --xi-max V", "verify --lambda V --k-max 1",
    "oracle --lambda V --xi V --tol V"])
@pytest.mark.parametrize("value", ["-1e-8", "-1E-8", "-.5"])
def test_every_numeric_flag_reads_negative_numbers(argv, value):
    spaced = argv.replace("V", value).split()
    joined = argv.replace(" V", "=" + value).split()
    args = build_parser().parse_args(spaced)
    assert args == build_parser().parse_args(joined)
    assert float(value) in vars(args).values()
