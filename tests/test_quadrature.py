import ast
import math
import re
import sys
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import periodkit.quadrature as quadrature
from periodkit.analysis import scan_period
from periodkit.errors import NoConvergence, NonMonotoneEnergy
from periodkit.model import _SIN_DEFECT, LAM_C, X_MIN, PotentialSystem, energy_to_amplitude
from periodkit.quadrature import (EVAL_NODES, NILPOTENT_DERIVATIVE_XI_MIN, NILPOTENT_XI_MIN,
                                  XI_MIN, PeriodSample, coupling_slopes, period_at_amplitude,
                                  period_at_energy, period_derivative, period_deviations,
                                  period_samples, period_slope, period_slopes)
from periodkit.oracle import orbit_period

PI = math.pi
TWO_PI = 2 * PI

# Just below LAM_C the turning point at X_MIN is nearly double: g(X_MIN) is
# 1e-8 of X_MIN, so the well depth's rounding alone exceeds REL_TOL there
RUNAWAY_LAM = LAM_C * (1 - 1e-8)


def test_linear_center_is_isochronous():
    s0 = PotentialSystem(0.0)
    for h in np.logspace(-6, 6, 13):
        sample = period_at_energy(s0, float(h))
        assert abs(sample.T - TWO_PI) <= 1e-10
        assert sample.err_est >= 0.0
        assert sample.method == "quadrature"


def test_sample_coordinates_consistent():
    s1 = PotentialSystem(1.0)
    sample = period_at_energy(s1, 5.0)
    assert float(s1.G(sample.xi)) == pytest.approx(sample.h, rel=1e-12)
    assert sample.T > 0.0


def test_bracket_levels_against_unit_circle_bound():
    s1 = PotentialSystem(1.0)
    assert period_at_energy(s1, 2 * PI**2).T >= TWO_PI
    assert period_at_amplitude(s1, PI).T <= TWO_PI


def test_amplitude_and_energy_routes_agree():
    s1 = PotentialSystem(1.0)
    a = period_at_amplitude(s1, 2 * PI)
    b = period_at_energy(s1, 2 * PI**2)
    assert a.T == pytest.approx(b.T, rel=1e-12)


def test_small_energy_expansion():
    s1 = PotentialSystem(1.0)
    t0, dt0 = s1.center_asymptotics()
    sample = period_at_energy(s1, 1e-6)
    assert sample.T == pytest.approx(t0 + dt0 * 1e-6, abs=1e-11)


def test_center_limit_is_exact():
    # the scale-free well depth holds no factor xi, so the quadrature reaches
    # T(0+) = 2*pi/sqrt(1+lam) at any amplitude; the first-order term
    # T'(0+)*h, with h ~ (1+lam)*xi^2/2, is 6e-9 of T at (-1+1e-9, 1e-8)
    for lam in (-1 + 1e-9, -0.99, -1e-8, 0.0, 1.0, 4.5):
        s = PotentialSystem(lam)
        t0, dt0 = s.center_asymptotics()
        for xi in (1e-300, 1e-100, 1e-8):
            sample = period_at_amplitude(s, xi)
            assert sample.method == "quadrature"
            limit = t0 + dt0 * (1 + lam) * xi * xi / 2
            assert abs(sample.T - limit) <= sample.err_est, (lam, xi)


@pytest.mark.parametrize("xi", [NILPOTENT_XI_MIN, 1e-100, 1e-20, 1e-8])
def test_nilpotent_center_follows_the_quartic_well(xi):
    # at lam = -1, G(x) = x^4/24 + O(x^6), so T*xi tends to
    # 2*sqrt(2)*sqrt(24) * int_0^1 du / sqrt(1 - u^4)
    with mpmath.workdps(30):
        ref = float(2 * mpmath.sqrt(48) * mpmath.quad(lambda u: 1 / mpmath.sqrt(1 - u**4), [0, 1]))
    sample = period_at_amplitude(PotentialSystem(-1.0), xi)
    assert sample.T * xi == pytest.approx(ref, rel=1e-12, abs=0)
    assert ref == pytest.approx(18.1661476, abs=1e-7)


@pytest.mark.parametrize("lam,xi,bound", [(1.0, 5e-324, XI_MIN), (0.0, XI_MIN / 2, XI_MIN),
                                          (-1.0, 1e-160, NILPOTENT_XI_MIN)])
def test_smallest_amplitudes_are_refused_with_their_bound(lam, xi, bound):
    # below the smallest normal double a = xi*cos(u)^2 loses its precision,
    # and at lam = -1 the sinc defect 1 - s >= xi^2/24 leaves the normal
    # range below NILPOTENT_XI_MIN; a derivative there has its own, higher
    # bound
    s = PotentialSystem(lam)
    slope_bound = NILPOTENT_DERIVATIVE_XI_MIN if lam == -1.0 else bound
    for call, least in ((lambda: period_at_amplitude(s, xi), bound),
                        (lambda: period_samples(s, [1.0, xi]), bound),
                        (lambda: period_slope(s, xi), slope_bound),
                        (lambda: period_deviations(s, [xi]), bound)):
        with pytest.raises(ValueError, match=re.escape(f">= {least!r} at lam={lam:g}, got {xi!r}") + "$"):
            call()
    assert period_at_amplitude(s, bound).converged


@pytest.mark.parametrize("xi", [1e-100, 1e-80, 1e-20])
def test_slope_at_tiny_amplitudes_follows_the_center(xi):
    # dT/dxi = T'(h)*g(xi) -> T'(0+)*(1+lam)*xi; taken through S(a)*sin(b)/xi^3
    # it underflowed to exactly 0 at 1e-100 and stalled at 1e-80
    s = PotentialSystem(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = period_slope(s, xi)
        coupling_err = coupling_slopes(s, xi)[1][0]
    limit = s.center_asymptotics()[1] * (1 + s.lam) * xi
    assert abs(est.value - limit) <= 1e-12 * abs(limit)
    assert est.err_est > 0.0 and coupling_err > 0.0


@pytest.mark.parametrize("xi", [NILPOTENT_DERIVATIVE_XI_MIN, 1e-50, 1e-20])
def test_derivatives_at_the_nilpotent_center_follow_the_quartic_well(xi):
    # at lam = -1, T*xi tends to 18.1661476..., so dT/dxi*xi^2 tends to minus
    # that, and w -> xi^2*(cos(u)^4 + sin(u)^4)/6 gives dT/dlam*xi^3; d^(3/2)
    # underflowed to 0 below about 1e-120 and both warned
    with mpmath.workdps(30):
        period = float(2 * mpmath.sqrt(48) * mpmath.quad(lambda u: 1 / mpmath.sqrt(1 - u**4), [0, 1]))
        quarter = mpmath.pi / 4
        coupling = float(-2 * mpmath.mpf(6) ** 1.5 * mpmath.quad(
            lambda p: (mpmath.cos(quarter - p / 2) ** 4 + mpmath.sin(quarter - p / 2) ** 4) ** -1.5,
            [0, mpmath.pi / 2]))
    s = PotentialSystem(-1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope = period_slope(s, xi)
        (dlam,), (dlam_err,) = coupling_slopes(s, xi)
    assert slope.value * xi * xi == pytest.approx(-period, rel=1e-12, abs=0)
    assert dlam * xi ** 3 == pytest.approx(coupling, rel=1e-12, abs=0)
    assert slope.err_est > 0.0 and dlam_err > 0.0


@pytest.mark.parametrize("xi", [XI_MIN, 2.3e-308, 5e-308])
def test_subnormal_slope_has_an_error_estimate(xi):
    # dT/dxi ~ T'(0+)*(1+lam)*xi is subnormal here, and so is the rule of
    # |f| that its relative floor scales; the estimate must still cover the
    # gap to the center limit, which rounds there too
    s = PotentialSystem(1.0)
    est = period_slope(s, xi)
    limit = s.center_asymptotics()[1] * (1 + s.lam) * xi
    assert 0.0 < est.err_est <= 4 * math.ulp(0.0)
    assert abs(est.value - limit) <= est.err_est


@pytest.mark.parametrize("lam", [-1.0, -0.5, 1.0])
def test_periods_and_derivatives_are_continuous_at_one(lam):
    # w takes the sinc defects below xi = 1 when lam < 0, and the rounding
    # floor counts the turning point's cancellation from 1 up
    s = PotentialSystem(lam)
    below, one = np.nextafter(1.0, 0.0), 1.0
    a, b = period_samples(s, [below, one])
    assert abs(a.T - b.T) <= a.err_est + b.err_est
    for f in (period_slopes, coupling_slopes):
        (a, b), (err_a, err_b) = f(s, [below, one])
        assert abs(a - b) <= err_a + err_b


@pytest.mark.parametrize("f", [period_slopes, period_deviations])
def test_defect_rows_in_a_mixed_batch_match_single_calls(f):
    # at lam < 0 the sincs come from their defects below xi = 1 and from
    # sin(x)/x above; a batch holding both gives each row as it comes alone
    s = PotentialSystem(-0.9)
    xs = [*np.linspace(0.05, 0.95, 10).tolist(), 2.0]
    batch = np.array(f(s, xs))
    assert np.array_equal(batch, np.hstack([f(s, [x]) for x in xs]))


def test_derivatives_below_their_nilpotent_bound_are_refused():
    s = PotentialSystem(-1.0)
    xi = NILPOTENT_DERIVATIVE_XI_MIN / 2
    message = re.escape(f">= {NILPOTENT_DERIVATIVE_XI_MIN!r} at lam=-1, got {xi!r}") + "$"
    for call in (period_slope, coupling_slopes):
        with pytest.raises(ValueError, match=message):
            call(s, xi)


def test_period_against_ode_oracle_spot():
    s1 = PotentialSystem(1.0)
    quad = period_at_energy(s1, 2 * PI**2)
    ode = orbit_period(s1, 2 * PI, tol=1e-11)
    assert abs(quad.T - ode.T) / quad.T <= 1e-7


def test_derivative_flat_for_linear_center():
    assert abs(period_derivative(PotentialSystem(0.0), 1.0)) <= 1e-8


def test_derivative_matches_expansion_slope():
    value = period_derivative(PotentialSystem(1.0), 1e-4)
    assert value == pytest.approx(PI / (4 * 2**2.5), abs=1e-4)


def test_derivative_changes_sign_across_first_extremum():
    # the first extremum of T for lam=1 sits near xi ~ 5.07
    s1 = PotentialSystem(1.0)
    below = period_derivative(s1, float(s1.G(5.0)))
    above = period_derivative(s1, float(s1.G(5.2)))
    assert below > 0.0 > above


def test_derivative_at_tiny_energy_matches_center_slope():
    s1 = PotentialSystem(1.0)
    dt0 = s1.center_asymptotics()[1]
    assert period_derivative(s1, 1e-13) == pytest.approx(dt0, rel=1e-12)


@pytest.mark.parametrize("lam,xi", [(-1 + 1e-6, 1e-3), (-1 + 1e-6, 0.9), (1.0, 0.5), (-0.9, 2.0)])
def test_derivative_divides_by_the_exact_restoring_force(lam, xi):
    # xi + lam*sin(xi) cancels as lam -> -1 (to 1e-6 of its terms at the
    # first point); T'(h) must still be dT/dxi over the exact g, to rounding
    sys_ = PotentialSystem(lam)
    h = float(sys_.G(xi))
    xi = energy_to_amplitude(sys_, h)
    with mpmath.workdps(30):
        ref = float(period_slope(sys_, xi).value / (xi + sys_.lam * mpmath.sin(mpmath.mpf(xi))))
    assert period_derivative(sys_, h) == pytest.approx(ref, rel=4 * np.finfo(float).eps, abs=0)


def test_refinement_stability(monkeypatch):
    # halving the engine's tolerance moves T by less than the reported
    # error estimate
    s1 = PotentialSystem(1.0)
    for h in np.logspace(-3, 3, 20):
        monkeypatch.setattr(quadrature, "REL_TOL", 1e-9)
        a = period_at_energy(s1, float(h))
        monkeypatch.setattr(quadrature, "REL_TOL", 5e-10)
        b = period_at_energy(s1, float(h))
        assert abs(a.T - b.T) <= max(a.err_est, 1e-15)


def _mp_period(lam, xi, deviation=False):
    """T(xi), or T(xi) - 2*pi, to 30 digits: 4*sqrt(2) * int_0^{pi/4}
    xi*sin(2u) / sqrt(D) du with the well depth D in product form, by
    Gauss-Legendre on pieces holding about one oscillation of
    sin(xi*cos(u)^2) each."""
    with mpmath.workdps(30):
        lam, xi = mpmath.mpf(lam), mpmath.mpf(xi)

        def f(u):
            a, b = xi * mpmath.cos(u) ** 2, xi * mpmath.sin(u) ** 2
            d = (xi * mpmath.sin(2 * u)) ** 2 / 2 + 2 * lam * mpmath.sin(a) * mpmath.sin(b)
            return xi * mpmath.sin(2 * u) / mpmath.sqrt(d)
        n = 2 + int(xi / 8)
        pieces = [mpmath.pi / 4 * k / n for k in range(n + 1)]
        t = 4 * mpmath.sqrt(2) * mpmath.quad(f, pieces, method="gauss-legendre")
        return float(t - 2 * mpmath.pi if deviation else t)


def _mp_slopes(lam, xi):
    """(dT/dxi, dT/dlam) to 40 digits, from T = 4*sqrt(2) * int_0^{pi/4}
    xi*sin(2u) / sqrt(D) du with D = (xi*sin(2u))^2/2 + 2*lam*sin(a)*sin(b),
    differentiated under the integral sign; D is taken over 1 + lam, since
    mpmath.quad stops on absolute differences and needs integrands of
    order 1."""
    with mpmath.workdps(40):
        lam, xi = mpmath.mpf(lam), mpmath.mpf(xi)
        scale = 1 + lam

        def parts(u):
            c2, s2, s = mpmath.cos(u) ** 2, mpmath.sin(u) ** 2, mpmath.sin(2 * u)
            a, b = xi * c2, xi * s2
            d = ((xi * s) ** 2 / 2 + 2 * lam * mpmath.sin(a) * mpmath.sin(b)) / scale
            dd = (xi * s * s + 2 * lam * (c2 * mpmath.cos(a) * mpmath.sin(b)
                                          + s2 * mpmath.sin(a) * mpmath.cos(b))) / scale
            return s, d, dd, mpmath.sin(a) * mpmath.sin(b)

        def d_xi(u):
            s, d, dd, _ = parts(u)
            return s / mpmath.sqrt(d) - xi * s * dd / (2 * d ** 1.5)

        def d_lam(u):
            s, d, _, sines = parts(u)
            return -xi * s * sines / d ** 1.5

        k, pieces = 4 * mpmath.sqrt(2), [0, mpmath.pi / 8, mpmath.pi / 4]
        return (float(k * mpmath.quad(d_xi, pieces, method="gauss-legendre") / mpmath.sqrt(scale)),
                float(k * mpmath.quad(d_lam, pieces, method="gauss-legendre") / scale ** 1.5))


@pytest.mark.parametrize("lam", [1e205, 1e206, 1e300])
def test_derivatives_at_huge_couplings_match_mpmath(lam):
    # w*sqrt(w) overflowed past lam ~ 1e205 and gave slopes of exactly 0;
    # dT/dlam goes as lam^-3/2, subnormal at 1e206 and 0 at 1e300, where
    # the reference rounds to 0 too
    xs = [0.5, 1.0, 3.0]
    slopes, slope_errs = period_slopes(PotentialSystem(lam), xs)
    couplings, coupling_errs = coupling_slopes(PotentialSystem(lam), xs)
    for xi, v, ve, c, ce in zip(xs, slopes, slope_errs, couplings, coupling_errs):
        ref_xi, ref_lam = _mp_slopes(lam, xi)
        assert v > 0.0 and abs(v - ref_xi) <= ve
        assert abs(c - ref_lam) <= ce


def test_derivatives_below_the_rescaled_couplings_keep_their_bits(monkeypatch):
    # past RESCALED_LAM the derivative integrands divide by sqrt(w) and w in
    # turn; below it they keep w*sqrt(w), whose bits every verify depends on
    s = PotentialSystem(4.5)
    xs = np.linspace(0.3, 20.0, 7)
    kept = period_slopes(s, xs), coupling_slopes(s, xs)
    monkeypatch.setattr(quadrature, "RESCALED_LAM", -1.0)
    rescaled = period_slopes(s, xs), coupling_slopes(s, xs)
    for (v, e), (rv, re_) in zip(kept, rescaled):
        assert np.allclose(v, rv, rtol=1e-14, atol=0.0) and np.allclose(e, re_, rtol=1e-6)
    assert not all(np.array_equal(v, rv) for (v, _), (rv, _) in zip(kept, rescaled))


# T at (RUNAWAY_LAM, X_MIN) to 40 digits: Gauss-Legendre on pieces split at
# u = 10^(k/2), k = -16..-1, about the turning point's width of 1e-4
RUNAWAY_T = 772.40368698099757292735


def test_no_convergence_reports_best_estimate():
    with pytest.raises(NoConvergence) as excinfo:
        period_at_amplitude(PotentialSystem(RUNAWAY_LAM), X_MIN)
    err = excinfo.value
    assert err.sample is not None and not err.sample.converged
    assert (err.best, err.err_est) == (err.sample.T, err.sample.err_est)
    assert abs(err.best - RUNAWAY_T) <= err.err_est


@pytest.mark.parametrize("lam,xi", [(4.0, 874.8794453351767), (1.75, 647.7907785522094),
                                    (-0.75, 332.237733849237)])
def test_converged_periods_are_within_their_error_estimate(lam, xi):
    # Gauss-Legendre bisection accepted these at a 1e-10 estimate 9.6e-6,
    # 4.7e-6 and 2.9e-7 relative away from the reference
    sample = period_at_amplitude(PotentialSystem(lam), xi)
    ref = _mp_period(lam, xi)
    assert abs(sample.T - ref) <= 1e-12 * ref
    assert abs(sample.T - ref) <= sample.err_est


def test_derivative_error_estimate_is_honest(monkeypatch):
    s1 = PotentialSystem(1.0)
    xi = 4.0
    est = period_slope(s1, xi)
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-13)
    tight = period_slope(s1, xi).value
    assert abs(est.value - tight) <= 10 * est.err_est


# 2*pi - TWO_PI: math.pi falls short of pi by sin(math.pi) to within 1e-32
TWO_PI_ROUNDING = abs(2.0 * math.sin(PI))


@pytest.mark.parametrize("route", ["amplitude", "energy"])
def test_exact_rule_error_estimate_covers_rounding(route):
    # at lam = 0 the substituted integrand is constant, so every halving
    # difference is exactly 0; the estimate must still cover the rounding of
    # T and of the constant TWO_PI, yet stay at the level of a few ulp
    s0 = PotentialSystem(0.0)
    for xi in np.logspace(-3, 3, 200):
        if route == "amplitude":
            sample = period_at_amplitude(s0, float(xi))
        else:
            sample = period_at_energy(s0, float(s0.G(xi)))
        assert abs(sample.T - TWO_PI) + TWO_PI_ROUNDING <= sample.err_est
        assert sample.err_est <= 1e-13 * sample.T


@pytest.mark.parametrize("lam", [-0.9, -0.5, 1e-6, 0.5, 1.0, 2.0, 4.0])
def test_quadrature_error_estimate_never_zero(lam):
    s = PotentialSystem(lam)
    for xi in np.logspace(-3, 3, 60):
        assert period_at_amplitude(s, float(xi)).err_est > 0.0


def test_derivative_near_side_equilibria_matches_reference():
    # 30-digit mpmath reference; a finite-difference step spanning the
    # sharp feature of T near lam = 4.6 gave 161.99 here
    h = 15.573581097438508
    assert period_derivative(PotentialSystem(4.5), h) == pytest.approx(
        166.13568813044444, rel=1e-9)


def test_panel_budget_bounds_memory(fresh):
    # at a nearly double turning point the well depth's rounding exceeds
    # REL_TOL; the quadrature must end in NoConvergence well inside a 1 GiB
    # address space
    code = (
        "import resource\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from periodkit import NoConvergence, PotentialSystem, period_at_amplitude\n"
        "from periodkit.model import LAM_C, X_MIN\n"
        "try:\n"
        "    period_at_amplitude(PotentialSystem(LAM_C * (1 - 1e-8)), X_MIN)\n"
        "except NoConvergence as e:\n"
        "    assert e.sample is not None and not e.sample.converged\n"
        "    print('noconvergence')\n")
    assert fresh(code) == ["noconvergence"]


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(-0.9, 4.4), xi=st.floats(0.05, 40.0))
def test_slope_matches_difference_of_periods(lam, xi):
    s = PotentialSystem(lam)
    d = 1e-4 * xi
    T = [period_at_amplitude(s, xi + k * d).T for k in (-2, -1, 1, 2)]
    # five-point stencil: O(d^4) truncation stays small even on the sharp
    # feature of T near lam = 4.4, xi = 4.6; rounding / d stays near 1e-10
    diff = (T[0] - 8.0 * T[1] + 8.0 * T[2] - T[3]) / (12.0 * d)
    slope = period_slope(s, xi).value
    assert slope == pytest.approx(diff, abs=1e-7 * (1.0 + abs(slope)))


# 30-digit mpmath values of T at xi = 1e-3 near the nilpotent center, where
# the center expansion is off by up to 1e9 although h < 1e-10
@pytest.mark.parametrize("lam,ref", [
    (-1 + 1e-9, 18087.293349515795544066619293),
    (-1 + 1e-6, 5925.36902393438257741596739734),
    (-1 + 1e-4, 627.926259006561954185441439729),
])
def test_small_energy_near_nilpotent_center_matches_reference(lam, ref):
    sample = period_at_amplitude(PotentialSystem(lam), 1e-3)
    assert abs(sample.T - ref) <= sample.err_est


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(-1.0, 4.5), xi=st.floats(1e-6, 30.0))
def test_period_is_within_its_error_estimate_of_the_reference(lam, xi):
    sample = period_at_amplitude(PotentialSystem(lam), xi)
    assert abs(sample.T - _mp_period(lam, xi)) <= sample.err_est


@pytest.mark.parametrize("lam, xs", [
    (LAM_C * (1 - 1e-6), [0.5, 2.0, 3.0, 4.0, 4.3, 5.0, 8.0, 12.0, 20.0, 30.0]),
    (-0.999, [1.001, 1.1, 1.5, 2.0, 3.0, 4.5, 10.0, 20.0, 30.0, 40.0])])
def test_periods_and_slopes_at_the_validity_edges_are_within_their_error(lam, xs):
    # the honesty grid of the half-angle sines at the two edges of the
    # elementary centers: below LAM_C, where w nearly vanishes at X_MIN, and
    # at lam = -0.999 past xi = 1, where w is taken directly and cancels most
    # (worst |error|/err_est 0.49, as with numpy's sin and cos)
    s = PotentialSystem(lam)
    samples = period_samples(s, xs)
    slopes, errs = period_slopes(s, xs)
    for x, sample, slope, err in zip(xs, samples, slopes.tolist(), errs.tolist()):
        assert abs(sample.T - _mp_period(lam, x)) <= sample.err_est, x
        assert abs(slope - _mp_slopes(lam, x)[0]) <= err, x


@pytest.mark.parametrize("lam", [-1 + 1e-9, -0.5, -1e-8, 1e-12, 1.0, 4.5])
def test_deviation_is_the_period_less_two_pi(lam):
    # the deviation integral keeps its relative accuracy as lam -> 0, where
    # T - 2*pi taken from T would be rounding noise; 30-digit references
    s = PotentialSystem(lam)
    xs = [1e-3, 0.5, 3.0, 20.0, 100.0]
    for x, dev, err in zip(xs, *period_deviations(s, xs)):
        ref = _mp_period(lam, x, deviation=True)
        assert abs(dev - ref) <= err, (x, dev, ref)
    assert period_deviations(PotentialSystem(0.0), xs)[0][0] == 0.0


def _agree(a, b):
    # each side rounds on its own, so near the rounding floor only the sum
    # of the two estimates bounds their gap
    assert a.xi == b.xi and a.converged == b.converged and a.method == b.method
    assert abs(a.T - b.T) <= a.err_est + b.err_est


def _single(sys_, xi):
    try:
        return period_at_amplitude(sys_, xi)
    except NoConvergence as e:
        return e.sample


@pytest.mark.parametrize("lam", [-1.0, -0.5, 0.0, 1e-6, 2.25, 4.5, RUNAWAY_LAM])
def test_scan_agrees_with_single_calls(lam):
    s = PotentialSystem(lam)
    samples = scan_period(s, X_MIN if lam == RUNAWAY_LAM else 1e-3, 60.0, 41)
    for sample in samples:
        _agree(sample, _single(s, sample.xi))
    assert [x.converged for x in samples] == [lam != RUNAWAY_LAM] + [True] * 40


def test_runaway_amplitude_leaves_batch_mates_alone():
    # X_MIN fails at its first pass, rounding-limited; its batch-mates must
    # come out as they do on their own
    s = PotentialSystem(RUNAWAY_LAM)
    samples = period_samples(s, [X_MIN, 1.0, 4.5])
    assert not samples[0].converged
    for sample in samples:
        _agree(sample, _single(s, sample.xi))
    assert samples[1].converged and samples[2].converged


class _CountingIntegrand:
    def __init__(self, monkeypatch):
        self.calls = 0
        self.nodes = 0
        self.max_nodes = 0
        self._f = quadrature._PERIOD.integrand
        monkeypatch.setattr(quadrature, "_PERIOD", quadrature._PERIOD._replace(integrand=self))

    def __call__(self, sys_, xi, nodes):
        self.calls += 1
        self.nodes += np.broadcast(xi, nodes[0]).size
        self.max_nodes = max(self.max_nodes, np.broadcast(xi, nodes[0]).size)
        return self._f(sys_, xi, nodes)


def test_scan_integrand_evaluation_ceiling(monkeypatch):
    # one evaluation per node count and chunk for all 1000 amplitudes: 52
    # over 367,912 nodes when measured (17 with 2^15-node blocks); the
    # midpoint rule with tripling made 23 over 590,112, Gauss-Legendre
    # bisection 159, single calls 6625
    counter = _CountingIntegrand(monkeypatch)
    scan_period(PotentialSystem(2.25), 0.9047, 904.7, 1000)
    assert counter.calls <= 200
    assert counter.nodes <= 400_000


def test_second_pass_evaluates_no_node_twice(monkeypatch):
    # xi = 50 starts at N = 32, the rule with 64 intervals, and takes a
    # second pass to 128: its 129 nodes, each once (tripling took 96 + 288)
    counter = _CountingIntegrand(monkeypatch)
    period_at_amplitude(PotentialSystem(2.25), 50.0)
    assert counter.calls == 2
    assert counter.nodes == 2 * 64 + 1


@pytest.mark.parametrize("lam", [-1.0, -0.5, 1.0, 4.5])
def test_integrands_at_the_turning_point_node(lam):
    # the rule's end node v = pi/2 is u = 0: b = 0, sinc(b) = 1, s3(b) =
    # 1/3 and w = g(xi)/xi; 30-digit closed forms, and no 0/0 on the way
    s = PotentialSystem(lam)
    xs = [1e-3, 0.5, 3.0, 100.0]
    with mpmath.workdps(30):
        want = []
        for x in map(mpmath.mpf, xs):
            sinc = mpmath.sin(x) / x
            r = mpmath.sqrt(1 + lam * sinc)
            s3 = (mpmath.sin(x) - x * mpmath.cos(x)) / x ** 3
            want.append([4 / r, -4 * lam * sinc / (r * (1 + r)), 2 * lam * x * s3 / r ** 3,
                         -2 * sinc / r ** 3])
    want = np.array(want, dtype=float).T
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for integrand, ref in zip((quadrature._period_integrand, quadrature._deviation_integrand,
                                   quadrature._slope_integrand, quadrature._coupling_integrand), want):
            nodes = quadrature._squares(np.array([quadrature.HALF_PI]))
            got = integrand(s, np.array(xs)[:, None], nodes)[:, 0]
            assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), (integrand, got, ref)


def _pass_nodes(k, first=True):
    """The cached node pair (phi, halves) of a pass with k intervals."""
    return quadrature._chunks(k, first)[0][1]


def _expression_integrands(lam, xi, nodes):
    """The period, deviation, slope and coupling integrands written as
    expressions, each intermediate a new array, with the series as
    np.polyval takes them: the form the in-place integrands must match.
    The rows of the product form (lam >= 0 or xi >= 1, xi <= PRODUCT_XI_MAX)
    take sinc(a)*sinc(b) = num/D from the half-angle tangents t = tan(h), h
    = x/2, num = t_a*t_b and D = P_a*P_b, P = h*(1 + t^2), and w = W/D, W =
    D + lam*num; their slope takes V = R = t - h*(1 - t^2) at or above xi =
    1 and V = P*cos(u)^4*s3 from the series below it.  The other rows take
    each sine and cosine from its tangent, the sinc defects at lam < 0 below
    xi = 1, and in the slope sinc(x) - cos(x), or cos(u)^4*s3 from the
    series below xi = 1."""
    ha, hb = (np.maximum(xi * half, quadrature.HALF_ANGLE_MIN) for half in nodes[1][:, 0])
    c2, s2 = 2.0 * nodes[1][:, 0]  # cos(u)^2 and sin(u)^2
    below = xi < 1.0

    def half_angle(h):  # sin(x)/x and cos(x) from t = tan(x/2), at x = 2h
        t = np.tan(h)
        q = t * t + 1.0
        return 1.0 / (h / t * q), 2.0 / q - 1.0

    def series(h2, cu4):  # cos(u)^4*s3(a), or sin(u)^4*s3(b), from h^2
        return np.polyval(quadrature._S_SERIES, h2) * cu4

    def scaled(f):  # times 2*lam, then xi below 1 and over xi at or above it
        f = f * (2.0 * lam)
        return np.where(below, f * xi, f / xi)

    (sa, ca), (sb, cb) = half_angle(ha), half_angle(hb)
    w = 1.0 + lam * (sa * sb)
    near = np.flatnonzero(xi[:, 0] < 1.0) if lam < 0.0 else []
    if len(near):
        x2 = np.stack((2.0 * xi[near] * nodes[1][0, 0], 2.0 * xi[near] * nodes[1][1, 0])) ** 2
        da, db = np.polyval(_SIN_DEFECT, x2) * x2
        sa[near], sb[near] = 1.0 - da, 1.0 - db
        w[near] = (1.0 + lam) - lam * (da + sa[near] * db)
    ua, ub = xi * nodes[1][0, 0], xi * nodes[1][1, 0]  # the half arguments, not raised
    with np.errstate(all="ignore"):  # the series np.where drops may overflow
        va = np.where(below, series(ua * ua, c2 * c2), sa - ca)
        vb = np.where(below, series(ub * ub, s2 * s2), sb - cb)
    r = np.sqrt(w)
    sinc_form = (4.0 / np.sqrt(w), sa * sb / (r * (1.0 + r)) * (-4.0 * lam),
                 scaled((va * sb + vb * sa) / (w * np.sqrt(w))), sa * sb / (w * np.sqrt(w)) * -2.0)

    ta, tb = np.tan(ha), np.tan(hb)
    num = ta * tb
    with np.errstate(all="ignore"):  # the rows np.where drops may overflow
        pa, pb = ha * (ta * ta + 1.0), hb * (tb * tb + 1.0)
        Va = np.where(below, np.polyval(quadrature._S_SERIES, ha * ha) * pa * (c2 * c2),
                      ta - ha * (1.0 - ta * ta))
        Vb = np.where(below, np.polyval(quadrature._S_SERIES, hb * hb) * pb * (s2 * s2),
                      tb - hb * (1.0 - tb * tb))
        D = pa * pb
        W = num * lam + D
        rw = np.sqrt(W)
        product = (np.sqrt(D / W) * 4.0, num / ((np.sqrt(D) + rw) * rw) * (-4.0 * lam),
                   scaled((Va * tb + Vb * ta) / W * np.sqrt(D / W)), num / W * np.sqrt(D / W) * -2.0)
    rows = (xi <= quadrature.PRODUCT_XI_MAX) & ((xi >= 1.0) if lam < 0.0 else True)
    return tuple(np.where(rows, g, f) for f, g in zip(sinc_form, product))


@pytest.mark.parametrize("lam", [-1.0, -0.5, 1e-12, 1.0, 4.5])
@pytest.mark.parametrize("xs", [[1e-3, 0.3, 0.999, 1.0, 2.5, 4.4, 30.0, 900.0], [1e-3, 0.3, 0.999]])
def test_integrands_in_place_match_their_expressions(lam, xs):
    # the rows below xi = 1 take the defect path at lam < 0 (all of them in
    # the second block), and the first pass's nodes hold the turning point
    _match_expressions(lam, xs)


@pytest.mark.parametrize("lam", [-0.5, 1e-12, 1.0])
def test_rows_past_the_product_form_match_their_expressions(lam):
    # amplitudes past PRODUCT_XI_MAX take sinc(a) and sinc(b) one by one,
    # next to rows of the product form and, at lam < 0, of the defect form
    # in the same block; the slope's rows below xi = 1 take its series there
    past = np.nextafter(quadrature.PRODUCT_XI_MAX, math.inf)
    _match_expressions(lam, [1e-3, 0.3, 3.0, quadrature.PRODUCT_XI_MAX, past, 1e100, 1e300])


def _match_expressions(lam, xs):
    xi = np.array(xs)[:, None]
    for nodes in (_pass_nodes(32), _pass_nodes(64, first=False)):
        want = _expression_integrands(lam, xi, nodes)
        for integrand, ref in zip((quadrature._period_integrand, quadrature._deviation_integrand,
                                   quadrature._slope_integrand, quadrature._coupling_integrand),
                                  want):
            got = integrand(PotentialSystem(lam), xi, nodes)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), integrand
            assert got.flags.writeable and not np.shares_memory(got, xi)
            assert not any(np.shares_memory(got, array) for array in nodes)


def _reference_integrands(lam, xi, nodes):
    """40-digit period, deviation, coupling and slope integrands, each row
    of the column xi at every node of nodes, at the double arguments the
    kernels take (2 * xi * nodes[1], HALF_ANGLE_MIN raising the half
    arguments of every form but the defect form's), with the cancellation
    kappa of w as its form takes it: (1 + |lam*s|)/w, or ((1+lam) +
    |lam|*(1 - s))/w on the rows of the defect form (lam < 0, xi < 1), where
    1 - s is taken from the defects at the precision their cancellation
    needs, as s3(x) = (sin(x) - x*cos(x))/x^3 is.  The slope's cos(u)^4
    and sin(u)^4 are the squares of 2*nodes[1].  Also the slope with the
    magnitudes of its terms in place of s3: |s3| on the rows below xi = 1,
    which take its series, and (|sinc x| + |cos x| + sin(x)^2)/x^2 on the
    others, which take sinc x - cos x from the tangent of x/2 (the last
    term its rounding carried through)."""
    defect = lam < 0.0 and xi[:, 0] < 1.0
    h = xi * nodes[1]
    h = np.where(defect[:, None] if lam < 0.0 else False, h, np.maximum(h, quadrature.HALF_ANGLE_MIN))

    def d(x):  # 1 - sin(x)/x
        if x == 0:
            return mpmath.mpf(0)
        with mpmath.workdps(60 + max(0, int(-2 * mpmath.log10(x)))):
            return +(1 - mpmath.sin(x) / x)

    def s3(x):
        if x == 0:
            return mpmath.mpf(1) / 3
        with mpmath.workdps(60 + max(0, int(-2 * mpmath.log10(x)))):
            return +((mpmath.sin(x) - x * mpmath.cos(x)) / x ** 3)

    def terms(x, below):
        if below:
            return abs(s3(x))
        return (abs(mpmath.sinc(x)) + abs(mpmath.cos(x)) + mpmath.sin(x) ** 2) / x ** 2

    ref, kappa, slope_terms = np.empty((4,) + h.shape[1:]), np.empty(h.shape[1:]), np.empty(h.shape[1:])
    with mpmath.workdps(40):
        L = mpmath.mpf(lam)
        for i, j in np.ndindex(*h.shape[1:]):
            a, b = 2 * mpmath.mpf(h[0, i, j]), 2 * mpmath.mpf(h[1, i, j])
            s = mpmath.sinc(a) * mpmath.sinc(b)
            if lam < 0.0 and defect[i]:
                da, db = d(a), d(b)
                w = (1 + L) - L * (da + db - da * db)
                kappa[i, j] = ((1 + L) + abs(L) * (da + db - da * db)) / w
            else:
                w = 1 + L * s
                kappa[i, j] = (1 + abs(L * s)) / w
            r = mpmath.sqrt(w)
            ca, cb = (4 * mpmath.mpf(half) ** 2 for half in nodes[1][:, 0, j])
            q = ca * s3(a) * mpmath.sinc(b) + cb * mpmath.sinc(a) * s3(b)
            ref[:, i, j] = (4 / r, -4 * L * s / (r * (1 + r)), -2 * s / (w * r),
                            2 * L * mpmath.mpf(xi[i, 0]) * q / (w * r))
            below = xi[i, 0] < 1.0
            q = ca * terms(a, below) * abs(mpmath.sinc(b)) + cb * abs(mpmath.sinc(a)) * terms(b, below)
            slope_terms[i, j] = 2 * abs(L) * mpmath.mpf(xi[i, 0]) * q / (w * r)
    return ref, kappa, slope_terms


_COUPLINGS = st.one_of(
    st.floats(-1.0, 1.0), st.floats(0.0, 300.0).map(lambda e: 10.0 ** e),
    st.floats(-300.0, 0.0).map(lambda e: -(10.0 ** e)),
    st.sampled_from([-1.0, np.nextafter(-1.0, 0.0), quadrature.RESCALED_LAM,
                     np.nextafter(quadrature.RESCALED_LAM, math.inf), LAM_C * (1 - 1e-6), 1e300]))
_AMPLITUDES = st.one_of(
    st.floats(-308.0, 300.0).map(lambda e: 10.0 ** e), st.floats(0.5, 5.0),
    st.sampled_from([quadrature.TINY, quadrature.FULL_CLAMP_XI, np.nextafter(1.0, 0.0), 1.0,
                     quadrature.PRODUCT_XI_MAX, np.nextafter(quadrature.PRODUCT_XI_MAX, math.inf),
                     1e300]))


@settings(max_examples=120, deadline=None)
@given(lam=_COUPLINGS, xs=st.lists(_AMPLITUDES, min_size=1, max_size=4),
       k=st.sampled_from([8, 16]), first=st.booleans())
@example(lam=1.0, xs=[0.3, np.nextafter(1.0, 0.0), 1.0, 2.0], k=8, first=True)
@example(lam=-0.5, xs=[0.3, 1.0, 2.0, 1e300], k=16, first=True)
@example(lam=1e200, xs=[1e-3, 0.7, 1.0, 3.0], k=8, first=False)
def test_integrands_match_mpmath(lam, xs, k, first):
    # every form in one block: the product form, the defect rows (lam < 0,
    # xi < 1) and the guarded ones (xi > PRODUCT_XI_MAX, |lam| >
    # RESCALED_LAM), the turning node on a first pass, and for the slope
    # rows on both sides of xi = 1, where its form changes.  Each value lies
    # within 3 eps (the period) or 6 eps (deviation, coupling) of 40 digits,
    # times the cancellation of w, plus 16 ulp of 0 for the values that
    # round below the smallest normal double; measured at most 1.4 and 3.1
    # on 5,300 random blocks, the product form's and the sinc form's alike.
    # The slope's bound is relative to the magnitude of its terms
    # (_reference_integrands), times the cancellation of w: from xi = 1 up
    # sinc x - cos x = R/P, R = t - h*(1 - t^2), cancels as eps/h^2 where b
    # is small.  Amplitudes stay below the edge, and at lam = -1 at or above
    # each kind's least amplitude; no RuntimeWarning on the way
    s = PotentialSystem(lam)
    xs = np.minimum(xs, 0.999 * s.edge())
    nodes = _pass_nodes(k, first)
    kinds = (quadrature._PERIOD, quadrature._DEVIATION, quadrature._COUPLING, quadrature._SLOPE)
    for kind, bound in zip(kinds, (3.0, 6.0, 6.0, 8.0)):
        xi = np.maximum(xs, kind.nilpotent_min if lam == -1.0 else quadrature.TINY)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = kind.integrand(s, xi, nodes)
        ref, kappa, slope_terms = _reference_integrands(lam, xi, nodes)
        want = ref[kinds.index(kind)]
        scale = kappa * (slope_terms if kind is quadrature._SLOPE else np.abs(want))
        err = np.abs(got - want)
        assert np.all(err <= bound * quadrature.EPS * scale + 16 * math.ulp(0.0)), (
            kind.what, xi[:, 0], err / (quadrature.EPS * scale))


def test_period_sample_is_a_named_tuple():
    assert PeriodSample._fields == ("lam", "xi", "h", "T", "err_est", "method", "converged")
    assert PeriodSample._field_defaults == {"method": "quadrature", "converged": True}
    sample = period_at_amplitude(PotentialSystem(1.0), 2.0)
    assert type(sample) is PeriodSample
    assert sample == PeriodSample(1.0, 2.0, sample.h, sample.T, sample.err_est)
    assert [type(v) for v in sample] == [float] * 5 + [str, bool]
    with pytest.raises(AttributeError):
        sample.T = 0.0


def test_reference_scan_python_calls():
    # rows are built without a Python frame each: 242 calls when measured,
    # over 52 integrand evaluations of 8192 nodes at most (291 when each node
    # count's rows came from np.flatnonzero, 5 frames a count, rather than
    # the array's nonzero method; 234 over 17 of 32,768 nodes at most), 1292
    # with a frozen dataclass's __init__ per row
    s = PotentialSystem(2.25)
    scan_period(s, 0.9047, 904.7, 1000)  # the node cache filled
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        scan_period(s, 0.9047, 904.7, 1000)
    finally:
        sys.setprofile(None)
    assert calls <= 250


def _block_peak(integrand):
    """Peak tracemalloc memory of one warm integrand call on a full block,
    EVAL_NODES // 65 rows of 65 nodes at lam = 2.25, in blocks."""
    nodes = _pass_nodes(64)
    xi = np.linspace(0.9047, 904.7, EVAL_NODES // 65)[:, None]
    s = PotentialSystem(2.25)
    integrand(s, xi, nodes)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = integrand(s, xi, nodes)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert out.shape == (EVAL_NODES // 65, 65)
    return peak / out.nbytes


def test_period_integrand_block_peak_memory():
    # 5.02 blocks at the peak when measured on 126 rows, of the half
    # arguments and tangents of a and b and num = t_a*t_b; 4.14 when each
    # sinc was taken alone, 6 with an expression's temporaries
    assert _block_peak(quadrature._period_integrand) < 5.5


def test_slope_integrand_block_peak_memory():
    # 6.03 blocks at the peak when measured on 126 rows, the first below xi
    # = 1: the half arguments, tangents and R of a and b, with q and num
    # over R and D and W over the half arguments; the row below 1 is taken
    # again on its own.  6.45 with each sinc and cos taken alone (6.40 on
    # 504 rows)
    assert _block_peak(quadrature._slope_integrand) < 6.5


def test_reference_scan_peak_memory():
    # a warm reference scan's traced peak is its engine state and a few
    # blocks: 0.47 MiB when measured with 2^13-node blocks, 1.62 MiB with
    # 2^15, whose stacked (2, rows, nodes) arrays passed glibc's 128 KiB
    # mmap threshold and were faulted in again on every block
    s = PotentialSystem(2.25)
    scan_period(s, 0.9047, 904.7, 1000)  # the node cache filled
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        scan_period(s, 0.9047, 904.7, 1000)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 2 ** 20


_REFERENCE_SCAN = ("import resource\n"
                   "from periodkit import PotentialSystem, scan_period\n"
                   "def scan():\n"
                   "    return scan_period(PotentialSystem(2.25), 0.9047, 904.7, 1000)\n")


def test_warm_reference_scan_reuses_its_heap(fresh):
    # 2^13-node blocks keep each integrand array within glibc's 128 KiB mmap
    # threshold, so a warm scan reuses its heap: 0 minor page faults when
    # measured, or 63-64 where the heap layout (which even a program's text
    # moves) lets glibc trim and regrow 256 KiB of it once per scan; 712-713
    # with 2^15-node blocks
    faults = fresh(_REFERENCE_SCAN + (
        "scan()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "scan()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"))
    assert int(faults[-1]) < 200


def test_reference_scan_without_simd_tan_agrees_within_its_error(fresh):
    # the integrands' sines come from numpy's tan, SIMD under its X86_V4
    # dispatch; with that disabled tan runs libm's loop and last bits may
    # differ, but every T stays within its err_est of the default run's
    # (where the CPU lacks the features numpy at most warns, and the two
    # runs agree)
    default = scan_period(PotentialSystem(2.25), 0.9047, 904.7, 1000)
    libm = ast.literal_eval(fresh(_REFERENCE_SCAN + "print(repr([(r.xi, r.T) for r in scan()]))",
                                  NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")[-1])
    assert len(libm) == len(default) == 1000
    assert [xi for xi, _ in libm] == [r.xi for r in default]
    assert [r.xi for (_, T), r in zip(libm, default) if abs(T - r.T) > r.err_est] == []


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(-1.0, 50.0), exponents=st.lists(st.floats(-30.0, 4.0), min_size=1, max_size=8),
       k=st.sampled_from([32, 64, 1024]), first=st.booleans())
def test_period_integrand_is_positive(lam, exponents, k, first):
    # the period kind's rule of |f| is its rule of f (_Kind.positive) only
    # because 4/sqrt(w) > 0 at every node of every valid amplitude; past
    # LAM_C the amplitudes stay below the edge
    s = PotentialSystem(lam)
    xi = np.array([10.0 ** e for e in exponents]) * min(1.0, 0.999 * s.edge() / 1e4)
    f = quadrature._period_integrand(s, xi[:, None], _pass_nodes(k, first))
    assert f.shape == (xi.size, k + 1 if first else k // 2)
    assert np.all(f > 0.0)


@pytest.mark.parametrize("lam", [-1.0, -0.5, 1.0, 4.5, LAM_C * (1 - 1e-6)])
def test_positive_kind_skips_only_the_abs_sum(lam):
    # the period rule taken as its own rule of |f| gives the bits of the
    # summed |f|: arrays and one amplitude, later passes (xi = 40 at lam >=
    # 4.5, 4.49 near LAM_C) and a first pass of several chunks (xi = 4e4,
    # 65,537 nodes)
    s = PotentialSystem(lam)
    xs = np.array([1e-3, 0.5, 3.0, 4.49, 40.0, 900.0, 4e4])
    summed = quadrature._PERIOD._replace(positive=False)
    for xi in [xs, *xs[:, None]]:
        want = quadrature._integrals(s, (summed, xi))
        got = quadrature._integrals(s, (quadrature._PERIOD, xi))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("name", ["period", "deviation", "slope"])
def test_a_mixed_block_gives_each_row_its_own_bits(name):
    # at lam < 0 the rows below xi = 1 take the well from the sinc defects,
    # the others from their sines, which a mixed block takes on those rows
    # only; each row gets the bits it gets alone
    integrand = getattr(quadrature, f"_{name}_integrand")
    s = PotentialSystem(-0.5)
    nodes = _pass_nodes(64)
    xi = np.geomspace(0.01, 30.0, 40).reshape(2, 20).T.ravel()[:, None]  # below and above 1 in turn
    assert 0 < np.count_nonzero(xi < 1.0) < xi.size
    alone = np.vstack([integrand(s, x[None], nodes) for x in xi])
    assert np.array_equal(integrand(s, xi, nodes).view(np.int64), alone.view(np.int64))


@pytest.mark.parametrize("lam", [1e-12, 1.0, 4.5])
def test_slope_rows_on_both_sides_of_one_keep_their_bits(lam):
    # a block that reaches xi = 1 takes R = t - h*(1 - t^2) on every row and
    # its rows below 1 again from the series, with the bits each gets alone,
    # whatever their order; one below FULL_CLAMP_XI raises every half
    # argument of the block
    s = PotentialSystem(lam)
    xi = np.array([0.3, 2.0, np.nextafter(1.0, 0.0), 1.0, 30.0, 1e-140, 0.9])[:, None]
    for nodes in (_pass_nodes(64), _pass_nodes(128, first=False)):
        alone = np.vstack([quadrature._slope_integrand(s, x[None], nodes) for x in xi])
        for rows in (np.arange(len(xi)), np.arange(len(xi))[::-1], np.arange(len(xi) - 2)):
            got = quadrature._slope_integrand(s, xi[rows], nodes)
            assert np.array_equal(got.view(np.int64), alone[rows].view(np.int64))


@pytest.mark.parametrize("lam", [-0.99, 1.0, 4.5])
def test_slopes_where_the_tangent_difference_cancels_most_are_within_their_error(lam):
    # from xi = 1 up the slope takes R = t - h*(1 - t^2), which cancels as
    # about 4*eps/xi^2 of its row's |f|, most at xi = 1: its floor counts
    # that (at most 0.61 of err_est when measured, at lam = -0.999 and xi =
    # 1.5; 1.08 at lam = -0.99 and xi = 1.1 without it)
    xs = [1.0, np.nextafter(1.0, 2.0), 1.1, 1.25, 1.5, 1.75, 2.0]
    slopes, errs = period_slopes(PotentialSystem(lam), xs)
    for x, slope, err in zip(xs, slopes.tolist(), errs.tolist()):
        assert abs(slope - _mp_slopes(lam, x)[0]) <= err, x


def _engine_rows(monkeypatch):
    """The row count of every engine call from now on."""
    rows, engine = [], quadrature._periodic

    def counted(f, xi, *args):
        rows.append(xi.size)
        return engine(f, xi, *args)

    monkeypatch.setattr(quadrature, "_periodic", counted)
    return rows


@pytest.mark.parametrize("lam", [-0.99, -0.5, 2.5])
def test_one_engine_call_mixes_every_kind_with_the_bits_of_each_alone(monkeypatch, lam):
    # the parts' rows in the order given, each with the bits of its kind's
    # call alone: a one-amplitude part (alone, the float path) whose floor
    # is not a derivative's, rows on both sides of xi = 1 (the defect path
    # at lam < 0) and an empty part
    s = PotentialSystem(lam)
    parts = [(quadrature._SLOPE, np.array([0.3, 2.0, 40.0])),
             (quadrature._PERIOD, np.array([10.0])),
             (quadrature._DEVIATION, np.empty(0)),
             (quadrature._COUPLING, np.array([5.0, 0.1])),
             (quadrature._DEVIATION, np.array([0.9, 1.5, 300.0]))]
    alone = [quadrature._integrals(s, part) for part in parts]
    rows = _engine_rows(monkeypatch)
    mixed = quadrature._integrals(s, *parts)
    assert rows == [9]
    assert [a.tobytes() for a in mixed] == [np.concatenate(a).tobytes() for a in zip(*alone)]
    assert mixed[2].all()


def test_a_failed_row_raises_its_kinds_own_error_from_the_one_engine_call(monkeypatch):
    # near LAM_C the slope at a refinement's iterate does not converge,
    # while the deviations around it do: the mixed call raises what
    # period_slopes alone raises, and makes no second engine call to find it
    s, x = PotentialSystem(LAM_C * (1 - 1e-6)), 4.49418606
    deviations, slopes = np.array([1.0, x, 20.0]), np.array([2.0, x, x + 1e-9])
    period_deviations(s, deviations)
    with pytest.raises(NoConvergence) as alone:
        period_slopes(s, slopes)
    rows = _engine_rows(monkeypatch)
    with pytest.raises(NoConvergence) as mixed:
        quadrature._estimates(s, (quadrature._DEVIATION, deviations), (quadrature._SLOPE, slopes))
    assert rows == [6]
    assert type(mixed.value) is type(alone.value)
    assert str(mixed.value) == str(alone.value)
    assert str(mixed.value).startswith("derivative quadrature is rounding-limited")
    assert f"at xi={x:.6g}," in str(mixed.value)
    assert (mixed.value.best.hex(), mixed.value.err_est.hex()) == (
        alone.value.best.hex(), alone.value.err_est.hex())
    value, err, _ = quadrature._integrals(s, (quadrature._SLOPE, np.array([x])))
    assert (mixed.value.best, mixed.value.err_est) == (value[0], err[0])  # the first failed row's


@pytest.mark.parametrize("entry", [period_at_amplitude, period_slope])
@pytest.mark.parametrize("xi", [[1.0, 2.0], np.ones((3, 1)), []])
def test_scalar_entry_points_refuse_other_than_one_amplitude(entry, xi):
    s = PotentialSystem(1.0)
    with pytest.raises(ValueError, match=f"expected one amplitude, got {np.size(xi)}"):
        entry(s, xi)
    assert entry(s, [2.0]) == entry(s, 2.0)


def test_eval_nodes_bound_integrand_nodes(monkeypatch):
    # many amplitudes are split into chunks of rows, and one amplitude
    # needing more than EVAL_NODES nodes into chunks of nodes
    counter = _CountingIntegrand(monkeypatch)
    samples = period_samples(PotentialSystem(1.0), np.linspace(0.1, 50.0, 3 * EVAL_NODES // 64 + 7))
    assert len(samples) == 3 * EVAL_NODES // 64 + 7
    scan_period(PotentialSystem(2.25), 0.9047, 904.7, 1000)
    assert EVAL_NODES // 2 < counter.max_nodes <= EVAL_NODES
    counter.max_nodes = 0
    period_at_amplitude(PotentialSystem(1.0), 1e5)
    assert counter.max_nodes == EVAL_NODES


def test_short_last_chunk_takes_its_rows_together(monkeypatch):
    # the first pass of 65,536 intervals is 65,536 // EVAL_NODES full chunks
    # of one row each and a short chunk of one node, which fits all 50 rows
    # in one evaluation: 50 calls less than with one row per call there,
    # with the bits of single calls
    counter = _CountingIntegrand(monkeypatch)
    xs = np.linspace(7e4, 1e5, 50)
    samples = period_samples(PotentialSystem(1.0), xs)
    assert counter.calls == 65536 // EVAL_NODES * 50 + 1
    assert samples == [period_at_amplitude(PotentialSystem(1.0), x) for x in xs]


def _bits(estimates):
    return [(v.hex(), e.hex()) for v, e in zip(*(a.tolist() for a in estimates))]


def _cached(monkeypatch):
    """An empty node cache for this test; the module's returns after it."""
    monkeypatch.setattr(quadrature, "_NODES", {})


def _cache_workload():
    """Bits of periods, deviations and slopes whose passes fill the cache."""
    xs = np.geomspace(1e-3, 3000.0, 37)
    s = PotentialSystem(-0.5), PotentialSystem(2.25)
    return [[(x.T.hex(), x.err_est.hex(), x.converged) for x in period_samples(s[1], xs)],
            _bits(period_deviations(s[0], xs)), _bits(period_slopes(s[1], xs)),
            period_at_amplitude(s[0], 2.0).T.hex()]


def test_cold_and_warm_node_cache_give_the_same_bits(monkeypatch):
    # without the cache (every pass builds its nodes), with an empty one and
    # with a full one: the same bits
    _cached(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(quadrature, "CACHE_NODES", 0)
        uncached = _cache_workload()
    assert not quadrature._NODES
    assert _cache_workload() == uncached
    assert quadrature._NODES
    assert _cache_workload() == uncached


def test_threads_filling_a_cold_node_cache_get_the_serial_bits(monkeypatch):
    # three threads race on every key of an empty cache, switching as often
    # as the interpreter lets them: each key is written once with its whole
    # pair, so a race at most builds the same read-only arrays twice
    serial = _cache_workload()
    _cached(monkeypatch)
    start, results = threading.Barrier(3), [None] * 3

    def work(i):
        start.wait(timeout=60)
        results[i] = _cache_workload()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 3
    assert quadrature._NODES
    for nodes in quadrature._NODES.values():
        assert isinstance(nodes, tuple) and len(nodes) == 2
        assert not any(a.flags.writeable for a in nodes)


def test_cached_nodes_are_read_only(monkeypatch):
    # an integrand that writes into its nodes raises instead of changing
    # them for every later call
    s = PotentialSystem(1.0)
    before = period_at_amplitude(s, 2.0)

    def scribbles(sys_, xi, nodes):
        nodes[0][0] = 1.0
        return np.ones(np.broadcast(xi, nodes[0]).shape)

    with monkeypatch.context() as m:
        m.setattr(quadrature, "_PERIOD", quadrature._PERIOD._replace(integrand=scribbles))
        with pytest.raises(ValueError, match="read-only"):
            period_at_amplitude(s, 2.0)
    assert period_at_amplitude(s, 2.0) == before
    for nodes in quadrature._NODES.values():
        assert len(nodes) == 2 and not any(a.flags.writeable for a in nodes)


def _frozen(array):
    """Whether array and every array it is a view of are read-only."""
    while array is not None:
        if array.flags.writeable:
            return False
        array = array.base
    return True


def test_an_integrand_cannot_write_the_cached_squares(monkeypatch):
    # the integrands read the halves stack nodes[1] whole and chain their
    # ufuncs in place: one that squares it in place instead of into a new
    # array raises, and every kind's later results keep their bits.  Nothing
    # under a cached array, such as the array it is a view of, is writable
    s, xs = PotentialSystem(-0.5), np.array([0.3, 2.0, 40.0])
    kinds = (quadrature._PERIOD, quadrature._DEVIATION, quadrature._SLOPE, quadrature._COUPLING)

    def results():
        return [[a.tobytes() for a in quadrature._integrals(s, (kind, xs))] for kind in kinds]

    before = results()

    def squares_in_place(sys_, xi, nodes):
        np.square(nodes[1], out=nodes[1])
        return np.ones(np.broadcast(xi, nodes[0]).shape)

    with monkeypatch.context() as m:
        m.setattr(quadrature, "_PERIOD", quadrature._PERIOD._replace(integrand=squares_in_place))
        with pytest.raises(ValueError, match="read-only"):
            period_samples(s, xs)
    assert results() == before
    with pytest.raises(ValueError, match="read-only"):
        _pass_nodes(64)[1][0, 0, 0] = 123.0
    fresh = quadrature._squares(np.arange(65) * (quadrature.HALF_PI / 64))
    assert _pass_nodes(64)[1].tobytes() == fresh[1].tobytes()
    assert quadrature._NODES
    assert all(_frozen(a) for nodes in quadrature._NODES.values() for a in nodes)


def test_node_cache_stays_within_its_bound(monkeypatch):
    # first passes to 4096 intervals (k + 1 nodes) and later ones to 8192
    # (k/2 nodes): 16,328 nodes and three arrays of them, 0.37 MiB
    _cached(monkeypatch)
    scan_period(PotentialSystem(2.25), 0.9047, 904.7, 1000)
    for xi in (1e4, 1e5):  # first passes of 8193 and 65537 nodes
        period_at_amplitude(PotentialSystem(1.0), xi)
    with pytest.raises(NoConvergence):
        period_at_amplitude(PotentialSystem(RUNAWAY_LAM), X_MIN)
    period_slopes(PotentialSystem(-0.9), np.linspace(0.5, 3000.0, 50))
    assert quadrature._NODES
    assert max(v.size for v, _ in quadrature._NODES.values()) <= 4097
    assert sum(v.size for v, _ in quadrature._NODES.values()) <= 16_328
    assert sum(a.nbytes for entry in quadrature._NODES.values() for a in entry) <= 3 * 8 * 16_328


@pytest.mark.parametrize("xi", [3.9, [1.0, 2.0, 3.9]])
def test_non_monotone_energy_names_the_amplitude(xi):
    # lam = 6 has a side equilibrium near x = 3.8, inside the orbit through 3.9
    s = PotentialSystem(6.0)
    with pytest.raises(NonMonotoneEnergy, match=r"\(0, 3\.9\)"):
        if isinstance(xi, list):
            period_samples(s, xi)
        else:
            period_at_amplitude(s, xi)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_period_samples_reject_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match=f"got {bad}"):
        period_samples(PotentialSystem(1.0), [1.0, bad, 2.0])


def _s_amplitudes():
    # x > 0, ascending, on both sides of 1
    one = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
    return np.sort(np.concatenate([np.geomspace(1e-8, 1e3, 400), np.linspace(0.0, 2.0, 201)[1:],
                                   one]))


def test_s_matches_reference():
    # 30 digits of s3(x) = (sin(x) - x*cos(x))/x^3, the difference taken at
    # 50 (it cancels 17 digits at x = 1e-8).  Below 1 the slope takes s3
    # from its series in (x/2)^2, relatively accurate; at and above 1 it
    # takes x^2*s3(x) = sinc(x) - cos(x) = R/P from the tangent t =
    # tan(x/2), R = t - (x/2)*(1 - t^2) and P = (x/2)*(1 + t^2), accurate
    # relative to its terms sinc(x) and cos(x), as s3 has zeros (tan x = x),
    # plus sin(x)^2, the rounding of t carried through as in the cosine
    x = _s_amplitudes()
    h = 0.5 * x
    t = np.tan(h)
    below = x < 1.0
    with np.errstate(all="ignore"):  # the branch np.where drops may overflow
        got = np.where(below, quadrature._horner(quadrature._S_SERIES, h * h),
                       (t - h * (1.0 - t * t)) / (h * (1.0 + t * t)) / (x * x))
    with mpmath.workdps(50):
        err = [float(abs(mpmath.mpf(v) - (mpmath.sin(m) - m * mpmath.cos(m)) / m ** 3))
               for v, m in zip(got.tolist(), map(mpmath.mpf, x.tolist()))]
    terms = np.abs(np.sin(x) / x) + np.abs(np.cos(x)) + np.sin(x) ** 2
    scale = np.where(below, np.abs(got), terms / x ** 2)
    assert np.all(np.array(err) <= np.where(below, 4e-16, 4 * quadrature.EPS) * scale)


# Arguments of the half-angle tangents: small, large and huge x, doubles
# near the odd multiples of pi (where t = tan(x/2) is near its poles), and
# b = 0 and b = TINY, which the tangents raise to 2*HALF_ANGLE_MIN.
_HALF_ANGLE_ARGUMENTS = st.one_of(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=10.0, max_value=1e6),
    st.floats(min_value=1e6, max_value=1e300),
    st.integers(min_value=0, max_value=10 ** 6).map(lambda k: (2 * k + 1) * PI),
    st.sampled_from([0.0, quadrature.TINY, 1e5, 1e150, 1e300]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_HALF_ANGLE_ARGUMENTS, min_size=1, max_size=16))
def test_half_angle_sines_and_cosines_match_mpmath(xs):
    # against 40 digits: sinc within 4 ulp, cos within 4 ulp plus
    # 2*eps*sin(x)^2 (the rounding of t carried through; 2.8 ulp, and 0.7
    # of the cosine's bound, at worst on 16,000 arguments); sinc and cos are
    # 1 exactly below 2*HALF_ANGLE_MIN, and no RuntimeWarning on the way.
    # The sinc route alone gives the cosine route's sinc bits
    x = np.array(xs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sinc, cos = quadrature._half_angle(0.5 * x, cosine=True)
        alone, _ = quadrature._half_angle(0.5 * x)
    assert np.array_equal(alone.view(np.int64), sinc.view(np.int64))
    least = 2.0 * quadrature.HALF_ANGLE_MIN
    with mpmath.workdps(40):
        for v, s, c in zip(xs, sinc.tolist(), cos.tolist()):
            if v < least:
                assert s == 1.0 and c == 1.0
                continue
            m = mpmath.mpf(v)
            assert abs(s - mpmath.sin(m) / m) <= 4 * math.ulp(s), v
            bound = 4 * math.ulp(c) + 2 * quadrature.EPS * float(mpmath.sin(m) ** 2)
            assert abs(c - mpmath.cos(m)) <= bound, v
