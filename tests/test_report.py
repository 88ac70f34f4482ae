import dataclasses
import json
import math
import re

import numpy as np
import pytest

import periodkit.analysis as analysis
import periodkit.quadrature as quadrature
from periodkit.analysis import (find_critical_periods, find_two_pi_levels, small_h_check,
                                two_pi_brackets)
from periodkit.errors import DegenerateIsochronous, NoConvergence
from periodkit.model import LAM_C, PotentialSystem
from periodkit.quadrature import period_at_amplitude
from periodkit.report import (CHECK_NAMES, _check_bessel_link, _check_small_h, fmt_float,
                              report_to_dict, report_to_json, run_verify, sample_dicts,
                              samples_to_csv, to_json)

TWO_PI = 2 * math.pi


def test_fmt_float_round_trips():
    for x in (0.0, 1.0, 0.5, TWO_PI, 1e-13, -3.25, 12345.678, 1e22):
        assert float(fmt_float(x)) == x
    assert fmt_float(0.0) == "0"
    assert fmt_float(1.0) == "1"
    assert fmt_float(0.5) == "0.5"
    assert fmt_float(TWO_PI) == "6.283185307179586"


def test_export_csv_schema():
    sample = period_at_amplitude(PotentialSystem(0.0), 1.0)
    lines = samples_to_csv([sample]).splitlines()
    assert lines[0] == "lambda,xi,h,T,T_err,method"
    fields = lines[1].split(",")
    assert fields[0] == "0" and fields[1] == "1" and fields[2] == "0.5"
    assert float(fields[3]) == pytest.approx(TWO_PI, abs=1e-10)
    assert fields[5] == "quadrature"


def test_export_empty_list():
    assert samples_to_csv([]) == "lambda,xi,h,T,T_err,method\n"


def test_export_sorts_and_is_deterministic():
    s1 = PotentialSystem(1.0)
    samples = [period_at_amplitude(s1, xi) for xi in (3.0, 1.0, 2.0)]
    a = samples_to_csv(samples)
    assert a == samples_to_csv(list(reversed(samples)))
    xis = [float(line.split(",")[1]) for line in a.splitlines()[1:]]
    assert xis == sorted(xis)
    assert [d["xi"] for d in sample_dicts(samples)] == [1.0, 2.0, 3.0]


def test_export_json_mirrors_fields():
    sample = period_at_amplitude(PotentialSystem(0.0), 1.0)
    payload = json.loads(to_json(sample_dicts([sample])))
    assert list(payload[0]) == ["lambda", "xi", "h", "T", "T_err", "method"]
    assert payload[0]["T"] == pytest.approx(TWO_PI, abs=1e-10)


def test_run_verify_passes_and_reports():
    report = run_verify(1.0, 3)
    assert report.passed
    assert set(report.checks) == set(CHECK_NAMES)
    for check in report.checks.values():
        assert isinstance(check.passed, bool)
        assert math.isfinite(check.margin)
    assert len(report.two_pi_levels) >= 3
    assert len(report.critical_periods) >= report.k_max - 1
    assert report.tool_version


def test_run_verify_negative_coupling_orientation():
    report = run_verify(-0.5, 2)
    assert report.passed
    for br in report.brackets:
        assert br.sign_lo <= 0 <= br.sign_hi


def test_run_verify_rejects_degenerate_and_bad_k():
    with pytest.raises(DegenerateIsochronous):
        run_verify(0.0, 3)
    with pytest.raises(ValueError):
        run_verify(1.0, 0)
    with pytest.raises(ValueError):
        run_verify(1.0, 21)


def test_report_serialization_deterministic():
    a = run_verify(1.0, 2)
    b = run_verify(1.0, 2)
    assert report_to_json(a) == report_to_json(b)
    d = report_to_dict(a)
    assert d["lambda"] == 1.0
    assert d["passed"] is True
    assert list(d["checks"]) == list(CHECK_NAMES)
    json.loads(report_to_json(a))  # valid JSON


def test_check_names():
    assert CHECK_NAMES == ("small-h", "opial", "bessel-link", "oracle-agreement",
                           "alternation", "sign-brackets")


@pytest.mark.parametrize("factor", [-1.0, 1.0 + 1e-11])
def test_bessel_link_fails_on_a_wrong_coupling_integrand(monkeypatch, request, factor):
    # dT/dlam at lam = 0 is -2*pi*J1(xi)/xi, of order 1 on [0.2, 12]: a
    # flipped sign, or a relative error of 1e-11, is past the 1e-12 bound.
    # The check runs once per process, so its cache is cleared around the
    # planted integrand
    check = _check_bessel_link()
    assert check.passed and check.margin > 0.0
    kind = quadrature._COUPLING
    monkeypatch.setattr(quadrature, "_COUPLING",
                        kind._replace(integrand=lambda *args: factor * kind.integrand(*args)))
    _check_bessel_link.cache_clear()
    request.addfinalizer(_check_bessel_link.cache_clear)
    check = _check_bessel_link()
    assert not check.passed and check.margin < 0.0


@pytest.mark.parametrize("planted", [
    pytest.param(lambda dev, err: -dev, id="flipped"),
    pytest.param(lambda dev, err: 0.5 * err, id="within-its-error"),
    pytest.param(lambda dev, err: -2.0 * err, id="wrong-side-within-the-violation-factor")])
def test_sign_brackets_fails_on_one_planted_end(monkeypatch, planted):
    # at lam = 1e-8 every |T - 2*pi| at a bracket end is below 2.1e-9, so an
    # absolute tolerance of 1e-8 passed whatever the signs; each end's
    # deviation must clear its own error estimate instead
    check = run_verify(1e-8, 5).checks["sign-brackets"]
    assert check.passed and check.margin > 0.0
    deviations = analysis.period_deviations

    def planted_deviations(sys, xi):
        devs, errs = deviations(sys, xi)
        if len(devs) == 10:  # the bracket ends of k_max = 5; 2 is 4*pi, T > 2*pi
            devs[2] = planted(devs[2], errs[2])
        return devs, errs

    monkeypatch.setattr(analysis, "period_deviations", planted_deviations)
    check = run_verify(1e-8, 5).checks["sign-brackets"]
    assert not check.passed and check.margin < 0.0


@pytest.mark.parametrize("lam", [-1e-12, -1e-8, 1e-12, 1e-8])
def test_small_h_passes_at_tiny_coupling(lam):
    # R = T - T0 - T0'*h is taken from the deviation integral, which is
    # proportional to lam; through T it rounded at the ulp of 2*pi (9e-16),
    # above R = 6.5e-16 at h = 1e-3 and lam = 1e-8
    rep = small_h_check(PotentialSystem(lam), [1e-2, 1e-3])
    assert min(abs(r) - e for r, e in zip(rep.residual, rep.err_est)) > 0.0
    check = run_verify(lam, 1).checks["small-h"]
    assert check.passed, check.detail
    assert check.detail.startswith("residual ratio 1e-2/1e-3 = 99.96 ")


def test_small_h_fails_on_residuals_within_their_error():
    # at the linear center T - 2*pi and every term of R vanish exactly:
    # the ratio of two zero residuals checks nothing
    check = _check_small_h(PotentialSystem(0.0))
    assert not check.passed
    assert check.margin == 0.0
    assert check.detail == ("residual 0.000e+00 at h=0.01 within its err_est 0.000e+00; "
                            "residual 0.000e+00 at h=0.001 within its err_est 0.000e+00")


def test_small_h_passes_near_the_nilpotent_center():
    # energies fixed at 1e-2 and 1e-3 leave the expansion's turf once
    # (1+lam)^2 is smaller than them; scaled by it, the ratio is ~100 again
    check = run_verify(-0.99, 5).checks["small-h"]
    assert check.passed, check.detail
    assert check.detail.endswith("energies scaled by 0.0001")


@pytest.mark.parametrize("lam", [-0.9, 0.5, 1.0, 2.5, 4.4])
def test_small_h_residuals_clear_their_error(lam):
    sys_ = PotentialSystem(lam)
    rep = small_h_check(sys_, [1e-2, 1e-3])
    assert min(abs(r) for r in rep.residual) >= 6e-10
    assert len(rep.err_est) == 2 and max(rep.err_est) <= 1e-14
    check = _check_small_h(sys_)
    assert check.passed
    assert check.detail.startswith("residual ratio 1e-2/1e-3 = ")


def test_small_h_passes_where_its_h2_coefficient_vanishes():
    # c2 = T''(0+)/2 crosses 0 at lam = 8/27: R(h) is then all O(h^3), and
    # the 1e-2/1e-3 residual ratio read 200.55 at 0.29617, 509.91 at
    # 0.2962773 and 48.56 at 0.29659, outside the band [50, 200] that
    # decided the check; the remainder past c2*h^2 does not depend on c2
    for lam in np.arange(0.2960, 0.29681, 1e-5):
        check = _check_small_h(PotentialSystem(float(lam)))
        assert check.passed and check.margin > 4.0, (lam, check.detail)
    for lam in (0.29617, 0.29627730068731206, 0.29659):
        report = run_verify(lam, 5)
        assert report.passed, {name: c.detail for name, c in report.checks.items()}


@pytest.mark.parametrize("lam", [0.2963, -0.5, 1.0, 4.4])
@pytest.mark.parametrize("defect", ["slope", "limit"])
def test_small_h_fails_on_a_planted_center_expansion_defect(monkeypatch, lam, defect):
    # T'(0+) off by 1%, or T(0+) off by 1e-8 of itself (every deviation
    # shifted by that much): each reads far past the bound, c2 near 0 or not
    s = PotentialSystem(lam)
    assert _check_small_h(s).passed
    if defect == "slope":
        true = PotentialSystem.center_asymptotics
        monkeypatch.setattr(PotentialSystem, "center_asymptotics",
                            lambda self: (true(self)[0], 1.01 * true(self)[1]))
    else:
        shift, true = 1e-8 * s.center_asymptotics()[0], analysis.period_deviations

        def shifted(sys_, xi):
            value, err = true(sys_, xi)
            return value + shift, err
        monkeypatch.setattr(analysis, "period_deviations", shifted)
    check = _check_small_h(s)
    assert not check.passed and check.margin < -100.0, check.detail


@pytest.mark.parametrize("k_max", [3, 5, 20])
@pytest.mark.parametrize("lam", [1e-12, 1e-14, -1e-14, 1e-16, -1e-16, 1e-20, 1e-100, -1e-200,
                                 1e-300, -1e-307])
def test_verify_passes_at_tiny_coupling(lam, k_max):
    # |T - 2*pi| is at or below the ulp of 2*pi here, so T_star rounds to
    # 2*pi at every extremum and ordering on it failed alternation (margin
    # -1); dev_star from the deviation integral keeps the extrema apart, and
    # the bracket signs come from it, so none is degenerate
    rep = run_verify(lam, k_max)
    assert rep.passed, {name: c for name, c in rep.checks.items() if not c.passed}
    assert rep.checks["alternation"].margin > 0.0
    assert not any(br.degenerate for br in rep.brackets)
    assert all(c.T_star == TWO_PI + c.dev_star for c in rep.critical_periods)


def test_verify_near_the_side_equilibria_returns_a_report():
    # just below LAM_C the turning point near X_MIN is nearly double and the
    # slope integral there does not converge: the critical-period search
    # raises, and the report says so in a failing alternation check, naming
    # the refinement's point by that turning point (X_MIN = 4.4934...)
    rep = run_verify(4.60333884, 5)
    assert rep.critical_periods == []
    alternation = rep.checks["alternation"]
    assert not alternation.passed and alternation.margin == -math.inf
    assert re.search(r" at xi=4\.49\d*, lam=4\.60334; best estimate ", alternation.detail)
    assert [name for name, c in rep.checks.items() if not c.passed] == ["alternation"]
    payload = json.loads(report_to_json(rep))
    assert payload["passed"] is False and payload["critical_periods"] == []


def _bits(items):
    """Each float of the records or numbers items as its hex string."""
    def fields(item):
        return dataclasses.astuple(item) if dataclasses.is_dataclass(item) else (item,)

    return [tuple(v.hex() if isinstance(v, float) else v for v in fields(item)) for item in items]


def _searched_alone(lam, k_max):
    """The brackets, levels and extrema of verify's window, each search run
    on its own."""
    s = PotentialSystem(lam)
    brackets = two_pi_brackets(s, k_max)
    return brackets, find_two_pi_levels(s, brackets), (2 * k_max + 1) * math.pi


@pytest.mark.parametrize("k_max", [5, 20])
@pytest.mark.parametrize("lam", [-0.99, -0.5, -1e-8, 1e-8, 1.0, 2.5, 4.5])
def test_verify_finds_the_bits_of_the_searches_run_alone(lam, k_max):
    # verify refines its 2*pi-levels and its extrema in one search, both
    # kinds in every engine call; each keeps the bits of its own search, and
    # every check passes, from the oracle's slowest coupling (-0.99) to its
    # most anharmonic one (4.5)
    brackets, levels, xi_max = _searched_alone(lam, k_max)
    extrema = find_critical_periods(PotentialSystem(lam), xi_max)
    rep = run_verify(lam, k_max)
    assert rep.passed, {name: c for name, c in rep.checks.items() if not c.passed}
    assert _bits(rep.brackets) == _bits(brackets)
    assert _bits(rep.two_pi_levels) == _bits(levels)
    assert _bits(rep.critical_periods) == _bits(extrema)
    assert len(extrema) >= 2 * k_max - 1


@pytest.mark.parametrize("k_max", [5, 20])
@pytest.mark.parametrize("lam", [4.60333884, LAM_C * (1.0 - 1e-6)])
def test_verify_keeps_its_levels_where_the_slopes_do_not_converge(lam, k_max):
    # just below LAM_C a slope does not converge: the extremum search fails
    # as it does alone, and the levels, finished in the same refinement, are
    # those of the level search alone
    brackets, levels, xi_max = _searched_alone(lam, k_max)
    with pytest.raises(NoConvergence) as alone:
        find_critical_periods(PotentialSystem(lam), xi_max)
    rep = run_verify(lam, k_max)
    assert rep.checks["alternation"].detail == f"critical-period search failed: {alone.value}"
    assert rep.critical_periods == [] and len(levels) == k_max
    assert _bits(rep.brackets) == _bits(brackets)
    assert _bits(rep.two_pi_levels) == _bits(levels)
    assert [name for name, c in rep.checks.items() if not c.passed] == ["alternation"]
