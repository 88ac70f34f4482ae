import math

import numpy as np
import pytest
from scipy.optimize.elementwise import find_root

import periodkit.analysis as analysis
import periodkit.quadrature as quadrature
from periodkit.bessel import j1, j1_series, j1_zeros, variational_integral
from periodkit.errors import (AmbiguousBracket, BracketFailure, DegenerateIsochronous,
                              NoConvergence, NonMonotoneEnergy, SignViolation)
from periodkit.model import LAM_C, PotentialSystem, energy_to_amplitude
from periodkit.quadrature import period_at_amplitude, period_derivative
from periodkit.analysis import (bracket_amplitudes, find_critical_periods, find_two_pi_levels,
                                lam_derivative_at_zero, opial_indicator,
                                opial_sign_changes, scan_period, small_h_check,
                                two_pi_brackets)
from periodkit.report import _check_bessel_link, run_verify

PI = math.pi
TWO_PI = 2 * PI


# ---------------------------------------------------------------- scanning

def test_scan_flat_for_linear_center():
    samples = scan_period(PotentialSystem(0.0), 0.1, 10.0, 5)
    assert len(samples) == 5
    assert all(abs(s.T - TWO_PI) <= 1e-9 for s in samples)
    assert [s.xi for s in samples] == sorted(s.xi for s in samples)


def test_scan_brackets_2pi_for_positive_coupling():
    samples = scan_period(PotentialSystem(1.0), 2 * PI, 3 * PI, 2)
    assert samples[0].T >= TWO_PI >= samples[1].T


def test_scan_brackets_swap_for_negative_coupling():
    samples = scan_period(PotentialSystem(-0.5), 2 * PI, 3 * PI, 2)
    assert samples[0].T <= TWO_PI <= samples[1].T


def test_scan_rejects_invalid_window():
    with pytest.raises(NonMonotoneEnergy):
        scan_period(PotentialSystem(6.0), 0.5, 30.0, 4)


@pytest.mark.parametrize("lam,xi_min,xi_max,edge", [(6.0, 1.0, 1e5, "3.83501"),
                                                    (4.60335, 0.1, 100.0, "4.49121")])
def test_scan_rejects_windows_past_a_zero_a_grid_misses(lam, xi_min, xi_max, edge):
    with pytest.raises(NonMonotoneEnergy, match=f"valid below x={edge},"):
        scan_period(PotentialSystem(lam), xi_min, xi_max, 1000)


def test_scan_input_validation():
    with pytest.raises(ValueError):
        scan_period(PotentialSystem(1.0), 3.0, 2.0, 5)
    with pytest.raises(ValueError):
        scan_period(PotentialSystem(1.0), 1.0, 2.0, 1)


@pytest.mark.parametrize("lam", [-0.5, 1.0, 2.0])
def test_non_isochrony_witness(lam):
    # any nonzero coupling shows a period spread far above the error bars
    samples = scan_period(PotentialSystem(lam), 0.5, 30.0, 30)
    hi = max(samples, key=lambda s: s.T)
    lo = min(samples, key=lambda s: s.T)
    assert hi.T - lo.T > 100.0 * (hi.err_est + lo.err_est)


def test_parametrization_consistency():
    # sign(dT/dxi) matches sign(T'(h)) wherever the value clears its noise
    s1 = PotentialSystem(1.0)
    for xi in np.linspace(1.0, 12.0, 12):
        dxi = 1e-4 * xi
        slope_xi = (period_at_amplitude(s1, xi + dxi).T
                    - period_at_amplitude(s1, xi - dxi).T)
        if abs(slope_xi) < 1e-8:
            continue
        slope_h = period_derivative(s1, float(s1.G(xi)))
        assert (slope_xi > 0.0) == (slope_h > 0.0)


# ------------------------------------------------------------- extrema

def test_critical_periods_empty_for_linear_center():
    assert find_critical_periods(PotentialSystem(0.0), 50.0) == []


def test_critical_periods_alternate():
    crit = find_critical_periods(PotentialSystem(1.0), 12 * PI)
    assert len(crit) >= 4
    kinds = [c.kind for c in crit]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))
    assert kinds[0] == "max"
    for c in crit:
        assert c.refine_err <= 1e-8 * c.xi_star
        assert float(PotentialSystem(1.0).G(c.xi_star)) == pytest.approx(c.h_star, rel=1e-12)
    xs = [c.xi_star for c in crit]
    assert xs == sorted(xs)


@pytest.mark.parametrize("lam, xi_max", [(1.0, 4 * PI), (-0.9, 41 * PI), (4.4, 41 * PI)],
                         ids=["1-4pi", "-0.9-41pi", "4.4-41pi"])
def test_critical_sign_change_within_bracket(lam, xi_max):
    s1 = PotentialSystem(lam)
    crit = find_critical_periods(s1, xi_max)
    for c in crit:
        lo = period_derivative(s1, float(s1.G(c.xi_star - 2 * c.refine_err)))
        hi = period_derivative(s1, float(s1.G(c.xi_star + 2 * c.refine_err)))
        assert lo * hi < 0.0
        if c.kind == "max":
            assert lo > 0.0 > hi
        else:
            assert lo < 0.0 < hi


def test_small_coupling_extrema_track_bessel_stationary_points():
    # first-order theory: extrema of T(xi, lam) approach the stationary
    # points of J1(xi)/xi as lam -> 0; locate those from j1 itself
    def slope(x):
        d = 1e-5
        return (j1(x + d).value / (x + d) - j1(x - d).value / (x - d)) / (2 * d)

    targets = []
    grid = np.arange(1.0, 12 * PI, 0.2)
    vals = [slope(float(x)) for x in grid]
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0.0:
            a, b = float(grid[i]), float(grid[i + 1])
            for _ in range(60):
                m = 0.5 * (a + b)
                if slope(m) * (1 if vals[i] > 0 else -1) > 0.0:
                    a = m
                else:
                    b = m
            targets.append(0.5 * (a + b))

    crit = find_critical_periods(PotentialSystem(0.01), 12 * PI)
    assert len(crit) >= len(targets) - 1
    for c in crit:
        assert min(abs(c.xi_star - t) for t in targets) <= 0.1


def test_critical_period_near_side_equilibria():
    # 30-digit mpmath reference for the first extremum at lam = 4.4; a
    # finite-difference T' moved it by 3.3e-5
    c = find_critical_periods(PotentialSystem(4.4), 2 * PI)[0]
    assert abs(c.xi_star - 4.6483170849968868) <= c.refine_err


class _EngineCalls:
    """Counts the calls of the batched quadrature engine."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.rows = []
        engine = quadrature._periodic

        def counted(*args):
            self.calls += 1
            self.rows.append(args[1].size)
            return engine(*args)

        monkeypatch.setattr(quadrature, "_periodic", counted)


@pytest.mark.parametrize("lam", [-0.9, 1.0, 4.4])
def test_refinement_engine_call_ceilings(monkeypatch, lam):
    # one engine call per refinement step over all open brackets, three
    # steps from the cubic starts: 5 calls for 40 extrema (the grid, three
    # steps, the extrema's deviations), 4 for 20 levels, and 8 for a whole
    # verify that refines both in one run
    s = PotentialSystem(lam)
    brackets = two_pi_brackets(s, 20)
    counter = _EngineCalls(monkeypatch)
    assert len(find_critical_periods(s, 41 * PI)) == 40
    assert counter.calls <= 5
    counter.calls = 0
    assert len(find_two_pi_levels(s, brackets)) == 20
    assert counter.calls <= 4
    _check_bessel_link()  # once per process, maybe not yet in this one
    counter.calls = 0
    run_verify(lam, 20)
    assert counter.calls <= 8


@pytest.mark.parametrize("lam,calls", [(-0.99, 8), (1.0, 8), (2.5, 8), (4.4, 8),
                                       (4.60333884, 8), (LAM_C * (1.0 - 1e-6), 13)])
def test_verify_engine_calls(monkeypatch, lam, calls):
    # small-h, the bracket ends, the grids of both searches, three steps of
    # their one refinement, the extrema's deviations and the oracle's
    # periods; the bessel-link check runs once per process.  Near LAM_C a
    # slope does not converge: its bracket takes more steps, the levels
    # finish in the same refinement, and one more call takes the level rows
    # alone; a step with no level row left makes no call
    _check_bessel_link()
    counter = _EngineCalls(monkeypatch)
    run_verify(lam, 5)
    assert counter.calls == calls
    assert 0 not in counter.rows


def test_ambiguous_bracket_warning(monkeypatch):
    # a derivative sign change drowned in its own error estimate at both
    # grid ends is reported and skipped, not refined into a fake extremum
    def noisy(sys, *parts):  # the slope grid; no bracket, so no deviation rows
        xi = np.concatenate([x for kind, x in parts if kind is quadrature._SLOPE])
        return np.where(xi < 4.0, 1e-12, -1e-12), np.full(xi.shape, 1e-9)

    monkeypatch.setattr(analysis, "_estimates", noisy)
    with pytest.warns(AmbiguousBracket):
        crit = find_critical_periods(PotentialSystem(1.0), 4 * PI)
    assert crit == []


# ------------------------------------------------------ root refinement

EPS = float(np.finfo(float).eps)


def _find_root_reference(f, lo, hi, f_lo, f_hi, xrtol):
    """Chandrupatla's method as scipy's find_root runs it, with the given
    end values kept wherever an iterate lands on an end."""
    def values(x, a, b, fa, fb):
        out = np.where(x == a, fa, fb)
        inner = (x != a) & (x != b)
        if np.count_nonzero(inner):
            out[inner] = f(x[inner])
        return out

    return find_root(values, (lo, hi), args=(lo, hi, f_lo, f_hi),
                     tolerances=dict(xatol=0.0, xrtol=xrtol))


def _recorded(f, calls):
    def g(x):
        calls.append(x.copy())
        return f(x)

    return g


def _one(f, lo, hi, f_lo, f_hi, start, xrtol):
    """The root of one bracket, as a float."""
    lo, hi, f_lo, f_hi, start = (np.array([v]) for v in (lo, hi, f_lo, f_hi, start))
    return float(analysis._straddle(f, lo, hi, f_lo, f_hi, start, xrtol)[0])


def _straddled(root, x, v, tol):
    """Each root has a value of opposite sign, or is a zero, within tol."""
    for r, t in zip(root, tol):
        fr = v[x == r][0]
        assert fr == 0.0 or np.any((np.abs(x - r) <= t) & (np.sign(v) == -np.sign(fr))), r


@pytest.mark.parametrize("lam", [-0.9, 0.5, 1.0, 2.5, 4.4])
def test_refine_matches_scipy_find_root_in_a_verify(monkeypatch, lam):
    # verify refines its levels and its extrema in one run (k_max 5 and 20);
    # every root lies within its tolerance (refine_err for an extremum) of
    # find_root's root on its bracket with its kind's integral alone, and has
    # a value of the opposite sign closer than that
    s = PotentialSystem(lam)
    kinds = {False: (analysis.LEVEL_REFINE_REL, quadrature.period_deviations),
             True: (0.5 * analysis.CRITICAL_REFINE_REL, quadrature.period_slopes)}
    straddle, searches = analysis._straddle, []

    def compared(f, lo, hi, f_lo, f_hi, start, xrtol, args):
        (slope,), seen = args, []

        def recorded(x, kind):
            value = f(x, kind)
            seen.append((x.copy(), value.copy()))
            return value

        root = straddle(recorded, lo, hi, f_lo, f_hi, start, xrtol, args)
        x = np.concatenate([lo, hi] + [x for x, _ in seen])
        v = np.concatenate([f_lo, f_hi] + [v for _, v in seen])
        for kind, (rtol, integral) in kinds.items():
            at = slope == kind
            assert np.all(xrtol[at] == rtol)
            ref = _find_root_reference(lambda x: integral(s, x)[0], lo[at], hi[at], f_lo[at],
                                       f_hi[at], rtol)
            tol = (rtol + 4.0 * EPS) * root[at]
            assert ref.success.all()
            assert np.all(np.abs(root[at] - ref.x) <= tol)
            _straddled(root[at], x, v, tol)
            searches.append((kind, int(np.count_nonzero(at))))
        return root

    monkeypatch.setattr(analysis, "_straddle", compared)
    for k_max in (5, 20):
        searches.clear()
        report = run_verify(lam, k_max)
        assert report.passed
        assert searches == [(False, len(report.two_pi_levels)),
                            (True, len(report.critical_periods))]
        for c in report.critical_periods:
            assert c.refine_err == (0.5 * analysis.CRITICAL_REFINE_REL + 4.0 * EPS) * c.xi_star


def test_refine_takes_a_zero_end_as_its_root():
    def f(x):
        assert not np.isin(x, [1.0, 2.0, 4.0]).any()
        return x * x - 2.0

    lo, hi = np.array([1.0, 0.5, 1.0, 1.0]), np.array([2.0, 1.0, 4.0, 2.0])
    root = analysis._straddle(f, lo, hi, np.array([0.0, -1.75, 0.0, -1.0]),
                              np.array([2.0, 0.0, 0.0, 2.0]), np.full(4, 1.5), 1e-12)
    assert root[:3].tolist() == [1.0, 1.0, 1.0]
    assert abs(root[3] - math.sqrt(2.0)) <= 1e-12 * root[3]


def test_refine_keeps_the_given_value_where_an_iterate_lands_on_an_end():
    # a pair member on an end takes the end's given value, here -1e-6 where
    # f(1) = -0.5, and is not evaluated; a bracket narrower than its pair
    # closes on the end with the smaller given |f|, with no call at all
    def f(x):
        assert not np.isin(x, [1.0, 2.0]).any()
        return x - 1.5

    calls = []
    root = _one(_recorded(f, calls), 1.0, 2.0, -1e-6, 0.5, 1.0 + 1e-13, 1e-12)
    assert calls[0].size == 1 and abs(root - 1.5) <= 1e-12 * 1.5
    calls.clear()
    assert _one(_recorded(f, calls), 1.0, 1.0 + 4.0 * EPS, -1e-6, 3.0, 1.0 + EPS, 1e-12) == 1.0
    assert calls == []


def test_refine_evaluates_only_the_iterates_off_their_ends():
    # one batch: the first bracket's pair has its lower member on its end, so
    # the first call takes 3 points; each root is the one of its bracket
    # refined alone, to the bit
    def f(x):
        assert not np.isin(x, [1.0, 2.0, 0.5, 1.5]).any()
        return np.sin(x) - 0.9

    calls = []
    lo, hi, start = np.array([1.0, 0.5]), np.array([2.0, 1.5]), np.array([1.0 + 1e-13, 1.2])
    f_lo, f_hi = np.sin(lo) - 0.9, np.array([np.sin(2.0) - 0.9, 0.5])  # 0.5, not f(1.5)
    xrtol = np.array([1e-12, 1e-9])
    root = analysis._straddle(_recorded(f, calls), lo, hi, f_lo, f_hi, start, xrtol)
    assert calls[0].size == 3
    alone = [_one(f, *(v[i] for v in (lo, hi, f_lo, f_hi, start, xrtol))) for i in range(2)]
    assert root.tolist() == alone
    assert np.abs(root - math.asin(0.9)).max() <= 1e-9 * root.max()


@pytest.mark.parametrize("start", [1.0, 2.0, 0.0, 3.0, math.nan])
def test_refine_converges_from_a_start_on_an_end_or_outside(start):
    calls = []
    root = _one(_recorded(lambda x: x * x - 2.0, calls), 1.0, 2.0, -1.0, 2.0, start, 1e-12)
    assert abs(root - math.sqrt(2.0)) <= 0.9e-12 * root
    assert len(calls) <= 6


def test_refine_rejects_a_same_sign_bracket():
    with pytest.raises(BracketFailure, match=r"\[2, 3\] lost its sign change"):
        analysis._straddle(lambda x: x - 1.0, np.array([0.0, 2.0]), np.array([2.0, 3.0]),
                           np.array([-1.0, 1.0]), np.array([1.0, 2.0]), np.array([1.0, 2.5]), 1e-12)


def test_refine_rejects_a_nan_value():
    def f(x):
        return np.where(x > 1.2, np.nan, x - 1.0)

    with pytest.raises(BracketFailure, match="lost its sign change"):
        analysis._straddle(f, np.array([0.0]), np.array([3.0]), np.array([-1.0]),
                           np.array([2.0]), np.array([1.5]), 1e-12)
    with pytest.raises(BracketFailure, match="lost its sign change"):
        analysis._straddle(f, np.array([0.0]), np.array([3.0]), np.array([np.nan]),
                           np.array([2.0]), np.array([1.5]), 1e-12)


def test_refine_stops_at_the_iteration_cap():
    # xrtol = 0 never closes a bracket around an irrational root
    with pytest.raises(BracketFailure, match=r"did not converge in 2046 calls"):
        analysis._straddle(lambda x: x * x - 2.0, np.array([1.0]), np.array([2.0]),
                           np.array([-1.0]), np.array([2.0]), np.array([1.5]), 0.0)


def _planted_zero(monkeypatch, kind, point):
    """The grid values of kind at point read exactly 0."""
    estimates = analysis._estimates

    def planted(sys, *parts):
        value, err = estimates(sys, *parts)
        at = np.concatenate([(np.asarray(x) == point) & (k is kind) for k, x in parts])
        return np.where(at, 0.0, value), err

    monkeypatch.setattr(analysis, "_estimates", planted)


def test_a_level_grid_value_of_zero_is_one_level(monkeypatch):
    # the grid point nearest the second level reads 0: it is that level, once
    # (both cells it ends counted it), and the other levels keep their bits
    s = PotentialSystem(1.0)
    brackets = two_pi_brackets(s, 3)
    plain = find_two_pi_levels(s, brackets)
    grid = np.linspace(*bracket_amplitudes(2), 9)
    point = float(grid[np.argmin(np.abs(s.G(grid) - plain[1]))])
    _planted_zero(monkeypatch, quadrature._DEVIATION, point)
    levels = find_two_pi_levels(s, brackets)
    assert levels == [plain[0], float(s.G(point)), plain[2]]


def test_a_slope_grid_value_of_zero_is_one_extremum(monkeypatch):
    # the grid point nearest the first extremum reads a slope of 0 between
    # slopes of opposite signs: it is that extremum, of the same kind (no
    # cell it ends held a strict sign change, so it was lost)
    s = PotentialSystem(1.0)
    plain = find_critical_periods(s, 4 * PI)
    grid = np.arange(analysis.SCAN_STEP, 4 * PI + 1e-12, analysis.SCAN_STEP)
    point = float(grid[np.argmin(np.abs(grid - plain[0].xi_star))])
    _planted_zero(monkeypatch, quadrature._SLOPE, point)
    crit = find_critical_periods(s, 4 * PI)
    assert [c.xi_star for c in crit] == [point] + [c.xi_star for c in plain[1:]]
    assert [c.kind for c in crit] == [c.kind for c in plain]


# ------------------------------------------------------------- brackets

def test_two_pi_brackets_level_formulas():
    brackets = two_pi_brackets(PotentialSystem(1.0), 1)
    br = brackets[0]
    assert br.h_lo == pytest.approx(2 * PI**2, rel=1e-15)
    assert br.h_hi == pytest.approx(4.5 * PI**2 + 2, rel=1e-15)
    assert br.h_lo < br.h_hi
    assert br.sign_lo >= 0 >= br.sign_hi
    assert br.sign_lo * br.sign_hi <= 0
    assert br.T_lo >= TWO_PI >= br.T_hi


def test_two_pi_brackets_higher_index():
    br = two_pi_brackets(PotentialSystem(2.0), 3)[-1]
    assert br.k == 3
    assert br.h_lo == pytest.approx(18 * PI**2, rel=1e-15)
    assert br.h_hi == pytest.approx(24.5 * PI**2 + 4, rel=1e-15)
    assert br.sign_lo == 1 and br.sign_hi == -1


def test_two_pi_brackets_degenerate_flagged():
    brackets = two_pi_brackets(PotentialSystem(0.0), 1)
    assert brackets[0].degenerate
    assert brackets[0].sign_lo == 0 and brackets[0].sign_hi == 0


@pytest.mark.parametrize("lam", [-0.9, -0.5])
def test_two_pi_brackets_swapped_signs(lam):
    for br in two_pi_brackets(PotentialSystem(lam), 3):
        assert br.sign_lo <= 0 <= br.sign_hi
        assert br.T_lo <= TWO_PI <= br.T_hi


def test_sign_violation_raised_on_contradiction(monkeypatch):
    # force a measured deviation T - 2*pi on the wrong side of 0 by far
    # more than its error estimate: the bracket must refuse to continue,
    # at h_k (T >= 2*pi for lam > 0) and at hbar_k (T <= 2*pi)
    for dev, end in ((-0.1, "h_1"), (0.1, "hbar_1")):
        def fake(sys, xi, dev=dev):
            return np.full(xi.shape, dev), np.full(xi.shape, 1e-12)

        monkeypatch.setattr(analysis, "period_deviations", fake)
        with pytest.raises(SignViolation, match=rf"^T\({end}\) - 2\*pi = {dev:.3e} "):
            two_pi_brackets(PotentialSystem(1.0), 1)


@pytest.mark.parametrize("lam", [1e-12, -1e-12])
def test_two_pi_brackets_resolve_every_sign_at_tiny_coupling(lam):
    # T - 2*pi ~ 1e-15 here; taken as T - TWO_PI it rounded at the ulp of
    # 2*pi, which left 5 or 6 of 20 brackets degenerate and 11 or 12 signs 0
    direction = 1 if lam > 0.0 else -1
    for br in two_pi_brackets(PotentialSystem(lam), 20):
        assert not br.degenerate
        assert (br.sign_lo, br.sign_hi) == (direction, -direction), br.k
        assert direction * br.dev_lo > br.err_lo and -direction * br.dev_hi > br.err_hi


# ------------------------------------------------------------- 2*pi levels

def test_two_pi_levels_basic():
    s1 = PotentialSystem(1.0)
    brackets = two_pi_brackets(s1, 3)
    levels = find_two_pi_levels(s1, brackets)
    assert len(levels) >= 3
    assert levels == sorted(levels)
    for br in brackets:
        assert any(br.h_lo < h < br.h_hi for h in levels)
    from periodkit.quadrature import period_at_energy
    for h in levels:
        assert abs(period_at_energy(s1, h).T - TWO_PI) <= 1e-9


def test_two_pi_levels_take_the_bracket_ends_as_measured(monkeypatch):
    # two_pi_brackets measured each end's deviation; the level scan
    # integrates only the 7 inner points of its 9 per bracket
    s = PotentialSystem(1.0)
    brackets = two_pi_brackets(s, 5)
    sizes = []
    estimates = analysis._estimates

    def counted(sys, *parts):
        sizes.append([(kind, np.size(x)) for kind, x in parts])
        return estimates(sys, *parts)

    monkeypatch.setattr(analysis, "_estimates", counted)
    levels = find_two_pi_levels(s, brackets)
    assert sizes[0] == [(quadrature._DEVIATION, 7 * len(brackets)), (quadrature._SLOPE, 0)]
    assert all(br.h_lo < h < br.h_hi for br, h in zip(brackets, levels))


@pytest.mark.parametrize("where", ["grid", "refinement"])
def test_a_level_row_that_does_not_converge_raises_from_the_search(monkeypatch, where):
    # a deviation row of the level search that does not converge raises its
    # error, alone and in the joint search, which does not return it as the
    # extremum search's failure; NaN, which never converges, is planted on
    # the level grid past 4*pi, or off every grid point, so in the first
    # iteration of the refinement
    s = PotentialSystem(1.0)
    brackets = two_pi_brackets(s, 5)
    points = np.concatenate([np.linspace(*bracket_amplitudes(k), 9) for k in range(1, 6)])
    deviation = quadrature._DEVIATION.integrand

    def planted(sys, xi, nodes):
        out = deviation(sys, xi, nodes)
        out[xi[:, 0] > 4 * PI if where == "grid" else ~np.isin(xi[:, 0], points)] = np.nan
        return out

    monkeypatch.setattr(analysis, "_DEVIATION", quadrature._DEVIATION._replace(integrand=planted))
    with pytest.raises(NoConvergence, match=r"^deviation quadrature ") as alone:
        find_two_pi_levels(s, brackets)
    if where == "grid":  # the first inner point of the second bracket
        assert f"at xi={np.linspace(4 * PI, 5 * PI, 9)[1]:.6g}, lam=1;" in str(alone.value)
    with pytest.raises(NoConvergence) as joint:
        analysis._search(s, brackets, 11 * PI)
    assert str(joint.value) == str(alone.value)


@pytest.mark.parametrize("where", ["grid", "refinement"])
def test_a_slope_that_does_not_converge_leaves_the_levels_of_the_level_search(monkeypatch, where):
    # NaN planted on the slope grid past 4*pi, or off it: the extremum search
    # fails as it does alone, and the levels, finished in the same search,
    # are those of the level search alone, for one engine call more
    s = PotentialSystem(1.0)
    brackets = two_pi_brackets(s, 5)
    counter = _EngineCalls(monkeypatch)
    levels, calls = find_two_pi_levels(s, brackets), counter.calls
    grid = np.arange(analysis.SCAN_STEP, 11 * PI + 1e-12, analysis.SCAN_STEP)
    slope = quadrature._SLOPE.integrand

    def planted(sys, xi, nodes):
        out = slope(sys, xi, nodes)
        out[xi[:, 0] > 4 * PI if where == "grid" else ~np.isin(xi[:, 0], grid)] = np.nan
        return out

    monkeypatch.setattr(analysis, "_SLOPE", quadrature._SLOPE._replace(integrand=planted))
    with pytest.raises(NoConvergence, match=r"^derivative quadrature ") as alone:
        find_critical_periods(s, 11 * PI)
    counter.calls = 0
    found, extrema, failure = analysis._search(s, brackets, 11 * PI)
    assert str(failure) == str(alone.value) and extrema == []
    assert [h.hex() for h in found] == [h.hex() for h in levels]
    assert counter.calls == calls + 1


def test_an_extremum_whose_deviation_does_not_converge_ends_the_extremum_search(monkeypatch):
    # the extrema's deviations are one call after the refinement: NaN planted
    # there fails the extremum search alone, and the levels stand
    s = PotentialSystem(1.0)
    brackets = two_pi_brackets(s, 5)
    levels = find_two_pi_levels(s, brackets)
    deviation = quadrature._DEVIATION

    def planted(sys, xi, nodes):
        return deviation.integrand(sys, xi, nodes) * np.nan

    monkeypatch.setattr(quadrature, "_DEVIATION", deviation._replace(integrand=planted))
    found, extrema, failure = analysis._search(s, brackets, 11 * PI)
    assert isinstance(failure, NoConvergence) and str(failure).startswith("deviation quadrature ")
    assert extrema == [] and [h.hex() for h in found] == [h.hex() for h in levels]


def test_two_pi_brackets_measure_the_bracket_amplitudes(monkeypatch):
    # both ends of every bracket in one array, to the bits of bracket_amplitudes
    measured, deviations = [], analysis.period_deviations

    def recorded(sys, xi):
        measured.append(np.array(xi))
        return deviations(sys, xi)

    monkeypatch.setattr(analysis, "period_deviations", recorded)
    two_pi_brackets(PotentialSystem(1.0), 20)
    expected = np.ravel([bracket_amplitudes(k) for k in range(1, 21)])
    assert len(measured) == 1 and np.array_equal(measured[0].view(np.int64), expected.view(np.int64))


def test_two_pi_levels_rejects_linear_center():
    with pytest.raises(DegenerateIsochronous):
        s0 = PotentialSystem(0.0)
        find_two_pi_levels(s0, two_pi_brackets(s0, 2))


def test_two_pi_levels_negative_coupling():
    s = PotentialSystem(-0.5)
    levels = find_two_pi_levels(s, two_pi_brackets(s, 3))
    assert len(levels) >= 3
    assert all(b > a for a, b in zip(levels, levels[1:]))


@pytest.mark.parametrize("lam", [1e-8, -1e-8])
def test_two_pi_levels_hold_their_accuracy_at_tiny_coupling(lam):
    # T - 2*pi ~ lam here; taken as T - TWO_PI it rounds at the ulp of 2*pi,
    # which put the levels 4.4e-8 to 4.9e-8 relative off their root (the
    # Newton step dev/slope), against the 1e-12 they are refined to
    s = PotentialSystem(lam)
    xs = [energy_to_amplitude(s, h) for h in find_two_pi_levels(s, two_pi_brackets(s, 5))]
    assert len(xs) == 5
    devs, slopes = quadrature.period_deviations(s, xs)[0], quadrature.period_slopes(s, xs)[0]
    assert np.all(np.abs(devs / slopes) <= 1e-11 * np.array(xs))


@pytest.mark.parametrize("lam", [1e-200, -1e-300])
def test_two_pi_levels_where_products_of_deviations_underflow(lam):
    # the scan's deviations are ~lam; their products underflowed to 0, read
    # as a sign change in every grid cell, and the refinement raised
    # BracketFailure on cells with none
    s = PotentialSystem(lam)
    brackets = two_pi_brackets(s, 5)
    levels = find_two_pi_levels(s, brackets)
    assert len(levels) == 5
    assert all(br.h_lo < h < br.h_hi for br, h in zip(brackets, levels))


# ------------------------------------------------------------- expansion

def test_small_h_check_linear_center():
    rep = small_h_check(PotentialSystem(0.0), [1e-2])
    assert abs(rep.residual[0]) <= 1e-10


def test_small_h_residual_decay():
    rep = small_h_check(PotentialSystem(1.0), [1e-2, 1e-3])
    assert abs(rep.residual[1]) <= abs(rep.residual[0]) / 50.0
    assert rep.orders[0] == pytest.approx(2.0, abs=0.1)


def test_small_h_concrete_value():
    rep = small_h_check(PotentialSystem(2.0), [1e-3])
    expected = TWO_PI / math.sqrt(3) + TWO_PI * 1e-3 / (4 * 3**2.5)
    assert rep.T[0] == pytest.approx(expected, abs=1e-5)


def test_small_h_input_guards():
    with pytest.raises(ValueError):
        small_h_check(PotentialSystem(-1.0), [1e-3])
    with pytest.raises(ValueError):
        small_h_check(PotentialSystem(1.0), [0.5])


# ------------------------------------------------------------- indicator

def test_opial_indicator_values():
    s1 = PotentialSystem(1.0)
    assert opial_indicator(s1, 2 * PI) == pytest.approx(0.0, abs=1e-16)
    assert opial_indicator(s1, PI) == pytest.approx(-4 / PI**3, rel=1e-13)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0, -1.0, [1.0, 0.0],
                               [1.0, math.nan], [math.inf, 2.0]])
def test_opial_indicator_refuses_non_positive_and_non_finite_x(x):
    # nan returned nan and inf warned (inf - inf) before it was refused
    with pytest.raises(ValueError, match="^x must be positive and finite$"):
        opial_indicator(PotentialSystem(1.0), x)


def test_opial_indicator_negative_inside_first_arch():
    s1 = PotentialSystem(1.0)
    x = np.linspace(1e-3, TWO_PI - 1e-3, 200)
    assert np.all(opial_indicator(s1, x) < 0.0)


def test_opial_indicator_small_branch_continuity():
    # both branches must agree with the common limit -lam*x/12 at the seam
    s1 = PotentialSystem(1.0)
    below = opial_indicator(s1, 9.9e-5)
    above = opial_indicator(s1, 1.01e-4)
    assert below == pytest.approx(-9.9e-5 / 12, rel=1e-6)
    assert above == pytest.approx(-1.01e-4 / 12, rel=2e-3)


def test_opial_sign_changes_contain_full_turns():
    s1 = PotentialSystem(1.0)
    zeros = opial_sign_changes(s1, 10.0)
    assert any(abs(z - TWO_PI) <= 1e-10 for z in zeros)
    zeros = opial_sign_changes(s1, 20.0)
    assert any(abs(z - TWO_PI) <= 1e-10 for z in zeros)
    assert any(abs(z - 2 * TWO_PI) <= 1e-10 for z in zeros)


def test_opial_zero_set_is_coupling_independent():
    za = opial_sign_changes(PotentialSystem(1.0), 10.0)
    zb = opial_sign_changes(PotentialSystem(-0.5), 10.0)
    assert za == zb


def test_opial_zero_at_a_grid_node_is_that_node(monkeypatch):
    # a numerator exactly zero on a grid node (node 150, x = 1.51*pi, far
    # from every true zero) adds that node itself and no refined root
    s1 = PotentialSystem(1.0)
    plain = opial_sign_changes(s1, 20.0)
    step = PI / 100.0
    node = float(np.arange(step, 20.0 + step, step)[150])
    f = analysis._indicator_numerator
    monkeypatch.setattr(analysis, "_indicator_numerator",
                        lambda x: np.where(x == node, 0.0, f(x)) if np.ndim(x) else f(x))
    assert opial_sign_changes(s1, 20.0) == sorted(plain + [node])


# ------------------------------------------------ coupling derivative

def test_lam_derivative_small_amplitude_limit():
    est = lam_derivative_at_zero(1e-3)
    assert est.value == pytest.approx(-PI, abs=1e-4)


def test_lam_derivative_vanishes_at_bessel_zero():
    z1 = j1_zeros(1)[0]
    est = lam_derivative_at_zero(z1)
    assert abs(est.value) <= 1e-4


def test_lam_derivative_unit_amplitude():
    est = lam_derivative_at_zero(1.0)
    assert est.value == pytest.approx(-TWO_PI * j1_series(1.0).value, abs=2e-4)


def test_lam_derivative_proportional_to_bessel():
    worst = 0.0
    for xi in np.linspace(0.5, 12.0, 24):
        est = lam_derivative_at_zero(float(xi))
        worst = max(worst, abs(est.value + TWO_PI * j1(float(xi)).value / xi))
    assert worst <= 5e-4


def test_lam_derivative_input_guards():
    with pytest.raises(ValueError):
        lam_derivative_at_zero(0.0)


@pytest.mark.parametrize("xi", [[1.0, 2.0], np.ones((3, 1)), []])
def test_lam_derivative_refuses_other_than_one_amplitude(xi):
    with pytest.raises(ValueError, match=f"expected one amplitude, got {np.size(xi)}"):
        lam_derivative_at_zero(xi)
    assert lam_derivative_at_zero([2.0]) == lam_derivative_at_zero(2.0)


def test_lam_derivative_is_the_variational_integral():
    # dT/dlam at lam = 0 is -2*pi*J1(xi)/xi; a central difference in lam
    # was 2.1e-10 off here
    for x in np.concatenate([np.logspace(-3, 0, 10), np.linspace(1.5, 40.0, 40)]):
        x = float(x)
        assert abs(lam_derivative_at_zero(x).value + variational_integral(x) / x) <= 1e-12
