import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.optimize.elementwise import find_root

import periodkit.bessel as bessel
from periodkit.bessel import (identity_gap, j1, j1_integral, j1_series, j1_zeros,
                              variational_integral)
from periodkit.errors import BracketFailure, RangeExceeded
from periodkit.quadrature import _squares

PI = math.pi
TWO_PI = 2 * PI


def j1_exact(x: float, terms: int = 80) -> float:
    """Independent oracle: the power series summed in exact rational
    arithmetic (x enters exactly via its binary expansion)."""
    half = Fraction(x) / 2
    q = half * half
    term = half
    total = term
    for m in range(terms):
        term = -term * q / ((m + 1) * (m + 2))
        total += term
    return float(total)


def test_series_reference_values():
    assert j1_series(0.0).value == 0.0
    assert j1_series(0.2).value == pytest.approx(0.0995008326392360, abs=1e-15)
    # leading partial sums per the term recurrence: 0.1 - 0.0005 + 8.333e-7
    assert j1_series(0.2).value == pytest.approx(0.1 - 0.0005 + 0.2**5 / 384, abs=1e-9)


IDENTITY_GRID = np.linspace(0.0, 20.0, 60)  # a 60-point identity_gap grid
# arguments whose (x/2)**2 rounds differently under np.square than under
# Python's **, which changes the series in its last bit
SQUARING_WITNESSES = np.array([7.324682871947078, 11.203767423119835, 3.912252204480078])


@pytest.mark.parametrize("xs", [*np.linspace(0.1, 14.0, 29)] + [
    pytest.param(IDENTITY_GRID[IDENTITY_GRID <= 12.0], id="identity-grid"),
    pytest.param(np.linspace(0.0, 12.0, 60), id="series-integral-grid"),
    pytest.param(np.linspace(0.2, 12.0, 60), id="bessel-link-grid"),
    pytest.param(np.linspace(0.0, 14.0, 821), id="821-in-0-14"),
    pytest.param(SQUARING_WITNESSES, id="squaring-witnesses")])
def test_series_against_exact_arithmetic(xs):
    # one pass over a grid: each argument stops at its own term
    values, errs = bessel._series(np.atleast_1d(xs))
    for x, value, err in zip(np.atleast_1d(xs).tolist(), values.tolist(), errs.tolist()):
        gap = abs(value - j1_exact(x))
        assert gap <= err, x
        if x <= 12.0:
            assert gap <= 1e-12, x


def test_series_range_guard():
    with pytest.raises(RangeExceeded):
        j1_series(14.5)
    # past the series' range the identity would compare the integral with itself
    with pytest.raises(RangeExceeded, match="xi_max <= 14, got 20"):
        identity_gap(20.0, 200)


def test_identity_gap_fails_on_a_planted_defect(monkeypatch):
    # a relative error of 1e-9 in the integral above x = 12 must show; while
    # J1 came from the integral there, the gap on [0, 20] passed with it
    assert identity_gap(14.0, 200) <= bessel.IDENTITY_TOL
    variational = bessel._variational

    def planted(xi):
        value, err = variational(xi)
        return np.where(np.asarray(xi) > 12.0, value * (1.0 + 1e-9), value), err

    monkeypatch.setattr(bessel, "_variational", planted)
    assert identity_gap(14.0, 200) > bessel.IDENTITY_TOL


def test_cross_method_agreement():
    grid = np.linspace(0.0, 12.0, 500)
    worst = max(abs(j1_series(float(x)).value - j1_integral(float(x)).value)
                for x in grid)
    assert worst <= 1e-12


def test_integral_basics():
    assert j1_integral(0.0).value == 0.0
    assert j1_integral(0.2).value == pytest.approx(j1_series(0.2).value, abs=1e-13)
    e30 = j1_integral(30.0)
    assert abs(e30.value) <= math.sqrt(2 / (PI * 30)) + 0.01


def test_dispatch_branch_consistency():
    assert abs(j1_series(12.0).value - j1_integral(12.0).value) <= 1e-11
    assert j1(11.0).method == "series"
    assert j1(13.0).method == "integral"
    assert abs(j1(3.83171).value) <= 1e-5


def test_global_bound():
    for x in np.linspace(0.0, 80.0, 161):
        e = j1(float(x))
        assert abs(e.value) <= 0.6
        assert e.err_bound >= 0.0


def test_zeros_basic():
    z = j1_zeros(1)
    assert z[0] == pytest.approx(3.831706, abs=1e-5)
    assert PI < z[0] < 1.5 * PI + 1.0


def test_zeros_structure():
    zeros = j1_zeros(5)
    assert all(b > a for a, b in zip(zeros, zeros[1:]))
    gaps = np.diff(zeros)
    assert abs(gaps[-1] - PI) <= 0.05
    assert zeros[1] == pytest.approx(7.015587, abs=1e-5)
    for z in zeros:
        assert j1(z - 1e-6).value * j1(z + 1e-6).value < 0.0


@pytest.mark.parametrize("n", [5, 40])
def test_zeros_take_few_j1_calls(monkeypatch, n):
    # one call for the brackets and at most 6 straddle steps from McMahon's
    # starts, though the series' rounding near x = 10 is larger than the
    # pair's difference there
    calls, values = [], bessel._j1_values

    def counted(x):
        calls.append(x.size)
        return values(x)

    monkeypatch.setattr(bessel, "_j1_values", counted)
    j1_zeros(n)
    assert len(calls) <= 7


def test_zeros_agree_with_find_root():
    # scipy's find_root on the same brackets and J1, to ZERO_REL_TOL
    zeros = np.array(j1_zeros(40))
    beta = (np.arange(1, 41) + 0.25) * PI
    ref = find_root(bessel._j1_values, (beta - 0.5 * PI, beta + 0.5 * PI),
                    tolerances=dict(xatol=0.0, xrtol=bessel.ZERO_REL_TOL))
    assert ref.success.all()
    assert np.all(np.abs(zeros - ref.x) <= bessel.ZERO_REL_TOL * zeros)


def test_zero_bracket_failure(monkeypatch):
    # a sign-definite function defeats both the initial and widened brackets
    monkeypatch.setattr(bessel, "_j1_values", np.ones_like)
    with pytest.raises(BracketFailure, match=r"no sign change around zero #1 near 3\.9270"):
        bessel.j1_zeros(3)


def test_variational_integral_values():
    assert variational_integral(0.0) == 0.0
    assert variational_integral(1.0) == pytest.approx(
        TWO_PI * j1_series(1.0).value, abs=1e-12)
    z1 = j1_zeros(1)[0]
    assert abs(variational_integral(z1)) <= 1e-10


def test_identity_sweep():
    grid = np.linspace(0.0, 20.0, 120)
    worst = max(abs(variational_integral(float(x)) - TWO_PI * j1(float(x)).value)
                for x in grid)
    assert worst <= 1e-10


def test_batched_trapezoid_matches_one_argument_calls():
    # arguments up to 60 stop at different node counts; each must get the
    # value and error estimate it gets alone, bit for bit
    xs = np.linspace(0.0, 60.0, 41)
    values, diffs = bessel._variational(xs)
    for x, v, d in zip(xs.tolist(), values.tolist(), diffs.tolist()):
        alone = bessel._variational(np.array([x]))
        assert (v, d) == (alone[0][0], alone[1][0])
    grid = np.linspace(0.0, 14.0, 120)
    assert identity_gap(14.0, 120) == max(
        abs(variational_integral(x) - TWO_PI * j1_series(x).value) for x in grid.tolist())


def test_integrand_at_the_end_node(monkeypatch):
    # the engine's rule ends on s = pi/2, where sin(xi*cos s)*cos s is 0 up
    # to cos(pi/2) rounding to 6.1e-17, and on s = 0, where it is sin(xi)
    captured = []
    engine = bessel._periodic

    def capture(f, *args):
        captured.append(f)
        return engine(f, *args)

    monkeypatch.setattr(bessel, "_periodic", capture)
    xs = np.array([1e-3, 0.5, 3.0, 100.0])
    bessel._variational(xs)
    got = captured[0](np.arange(xs.size), _squares(np.array([0.0, PI / 2])))
    assert np.all(np.isfinite(got))
    assert np.array_equal(got[:, 0], np.sin(xs))
    assert np.all(np.abs(got[:, 1]) <= xs * np.finfo(float).eps ** 2)


def test_small_argument_ratio():
    e = j1(1e-4)
    assert abs(e.value / 1e-4 - 0.5) <= 1e-8


def _ode_residual(xi, step=1e-3):
    """Residual xi^2 J1'' + xi J1' + (xi^2 - 1) J1 of Bessel's order-one
    equation, derivatives from 5-point central differences.  All five points
    use the route chosen at the center, so the route switch cannot inject a
    second-difference jump."""
    route = j1_series if xi <= bessel.SERIES_SWITCH - 0.1 else j1_integral
    f0, fp1, fm1, fp2, fm2 = (route(xi + k * step).value for k in (0, 1, -1, 2, -2))
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * step)
    d2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * step * step)
    return xi * xi * d2 + xi * d1 + (xi * xi - 1.0) * f0


@pytest.mark.parametrize("x,cap", [(1.0, 2e-6), (3.831706, 1e-5 * (1 + 3.831706**2)),
                                   (20.0, 1e-5 * 401)])
def test_ode_residual(x, cap):
    assert abs(_ode_residual(x)) <= cap


def test_ode_residual_general_bound():
    for x in np.linspace(0.5, 30.0, 31):
        assert abs(_ode_residual(float(x))) <= 1e-5 * (1 + x * x)


# Largest err_bound each route may return on (0, 100].  The series bound
# carries the rounding of its largest cancelling terms: 2.0e-12 at xi = 12,
# where the true error is 5.5e-13.
ERR_BOUND_CAP = {"series": 2.5e-12, "integral": 1e-12}


@mpmath.workdps(30)
def test_against_30_digit_reference():
    for x in np.linspace(0.0, 100.0, 2001)[1:]:
        e = j1(float(x))
        err = abs(mpmath.mpf(e.value) - mpmath.besselj(1, mpmath.mpf(float(x))))
        assert 0.0 < e.err_bound <= ERR_BOUND_CAP[e.method], (x, e)
        assert err <= e.err_bound, (x, e, float(err))
    for k, z in enumerate(j1_zeros(40), 1):
        ref = mpmath.besseljzero(1, k)
        assert abs(z - ref) <= 1e-13 * ref, (k, z)


@pytest.mark.parametrize("route", [j1, j1_series, j1_integral, variational_integral])
@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
def test_routes_reject_non_finite_arguments(route, xi):
    with pytest.raises(ValueError, match=f"got {xi}"):
        route(xi)
