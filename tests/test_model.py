import gc
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from periodkit import analysis, model
from periodkit.errors import NoConvergence, NonMonotoneEnergy
from periodkit.model import (BRENT_MAXITER, BRENT_RTOL, LAM_C, X_MIN, PotentialSystem, _brent,
                             energy_to_amplitude)

PI = math.pi
EPS = np.finfo(float).eps


def test_g_values():
    assert PotentialSystem(0.0).g(1.3) == 1.3
    assert PotentialSystem(1.0).g(PI) == pytest.approx(PI, abs=1e-15)
    assert PotentialSystem(2.0).g(PI / 2) == pytest.approx(PI / 2 + 2.0, rel=1e-15)


def test_G_values():
    assert PotentialSystem(7.0).G(0.0) == 0.0
    assert PotentialSystem(1.0).G(2 * PI) == pytest.approx(2 * PI**2, rel=1e-15)
    assert PotentialSystem(1.0).G(PI) == pytest.approx(PI**2 / 2 + 2.0, rel=1e-15)


def test_parity():
    rng = np.random.default_rng(0)
    x = rng.uniform(-50.0, 50.0, size=1000)
    for lam in (-1.0, -0.5, 0.5, 1.0, 2.0):
        sys = PotentialSystem(lam)
        assert np.all(sys.g(-x) == -sys.g(x))
        assert np.all(sys.G(-x) == sys.G(x))
        assert sys.g(0.0) == 0.0
        assert sys.G(0.0) == 0.0


def test_center_asymptotics_values():
    t0, dt0 = PotentialSystem(0.0).center_asymptotics()
    assert t0 == pytest.approx(2 * PI, rel=1e-15)
    assert dt0 == 0.0

    t0, dt0 = PotentialSystem(3.0).center_asymptotics()
    assert t0 == pytest.approx(PI, rel=1e-15)
    assert dt0 == pytest.approx(3 * PI / 128, rel=1e-14)

    t0, dt0 = PotentialSystem(-1.0).center_asymptotics()
    assert t0 == math.inf and dt0 == -math.inf


@pytest.mark.parametrize("lam", [-0.9, -0.5, 8 / 27, 1.0, 4.4])
def test_center_curvature_matches_mpmath(lam):
    # (T(h) - T(0+) - T'(0+)*h)/h^2 at h = 1e-6*(1+lam)^2 from 40-digit
    # periods (the energy inverted by findroot, T as the product-form
    # integral): c2 within 1e-5 of the size of its two terms, also at lam =
    # 8/27, where c2 vanishes
    c2, size = PotentialSystem(lam).center_curvature()
    assert size >= abs(c2) > 0.0 or lam == 8 / 27
    with mpmath.workdps(40):
        m, h = mpmath.mpf(lam), mpmath.mpf(1e-6) * (1 + mpmath.mpf(lam)) ** 2
        xi = mpmath.findroot(lambda x: x * x / 2 + m * (1 - mpmath.cos(x)) - h,
                             mpmath.sqrt(2 * h / (1 + m)))

        def f(u):
            a, b = xi * mpmath.cos(u) ** 2, xi * mpmath.sin(u) ** 2
            d = (xi * mpmath.sin(2 * u)) ** 2 / 2 + 2 * m * mpmath.sin(a) * mpmath.sin(b)
            return xi * mpmath.sin(2 * u) / mpmath.sqrt(d)
        t = 4 * mpmath.sqrt(2) * mpmath.quad(f, [0, mpmath.pi / 8, mpmath.pi / 4])
        t0, dt0 = 2 * mpmath.pi / mpmath.sqrt(1 + m), m * mpmath.pi / (4 * (1 + m) ** 2.5)
        fit = float((t - t0 - dt0 * h) / h ** 2)
    assert abs(fit - c2) <= 1e-5 * size, (fit, c2)
    assert PotentialSystem(-1.0).center_curvature() == (math.inf, math.inf)


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 4.0])
def test_center_asymptotics_closed_form(lam):
    # the general derivative formula must reduce to lam*pi/(4*(1+lam)^(5/2))
    _, dt0 = PotentialSystem(lam).center_asymptotics()
    assert dt0 == pytest.approx(lam * PI / (4 * (1 + lam) ** 2.5), rel=1e-14)


def test_lambda_range():
    with pytest.raises(ValueError):
        PotentialSystem(-1.5)
    with pytest.raises(ValueError):
        PotentialSystem(math.nan)
    PotentialSystem(-1.0)  # boundary is allowed


def test_energy_to_amplitude_values():
    assert energy_to_amplitude(PotentialSystem(0.0), 8.0) == pytest.approx(4.0, rel=1e-13)
    s1 = PotentialSystem(1.0)
    assert energy_to_amplitude(s1, 2 * PI**2) == pytest.approx(2 * PI, rel=1e-13)
    assert energy_to_amplitude(s1, PI**2 / 2 + 2) == pytest.approx(PI, rel=1e-13)


@pytest.mark.parametrize("lam", [-1.0, -0.5, 0.5, 1.0, 2.0, 4.0])
def test_energy_amplitude_round_trip(lam):
    sys = PotentialSystem(lam)
    for h in np.logspace(-6, 4, 40):
        xi = energy_to_amplitude(sys, float(h))
        assert xi > 0.0
        assert float(sys.G(xi)) == pytest.approx(float(h), rel=1e-12)


def test_turning_points():
    # the turning points of the level h are -xi and xi, xi = energy_to_amplitude(h)
    assert energy_to_amplitude(PotentialSystem(0.0), 2.0) == pytest.approx(2.0, rel=1e-13)
    assert energy_to_amplitude(PotentialSystem(1.0), 2 * PI**2) == pytest.approx(2 * PI, rel=1e-13)

    sn = PotentialSystem(-1.0)
    xi = energy_to_amplitude(sn, float(sn.G(1.0)))
    assert xi == pytest.approx(1.0, rel=1e-12)
    assert sn.g(xi) > 0.0


def test_energy_to_amplitude_rejects_bad_input():
    with pytest.raises(ValueError):
        energy_to_amplitude(PotentialSystem(1.0), 0.0)
    with pytest.raises(ValueError):
        energy_to_amplitude(PotentialSystem(1.0), -3.0)


def test_non_monotone_energy_detection():
    # lam=6: g < 0 past the edge 3.835, so inverting an energy above the
    # edge's level G(edge) = 17.968 must fail (G(4.5) = 17.39 lies below it
    # and has the amplitude 3.3085)
    s6 = PotentialSystem(6.0)
    with pytest.raises(NonMonotoneEnergy):
        energy_to_amplitude(s6, float(s6.G(6.0)))


def test_edge_failure_location():
    # first zero of x + 6 sin x sits between pi and 3*pi/2 (g negative there);
    # the frozen location comes from bisection on g itself
    s6 = PotentialSystem(6.0)
    edge = s6.edge()
    assert edge == pytest.approx(3.8350087, abs=1e-4)
    assert s6.g(edge - 1e-3) > 0.0
    assert s6.g(edge + 1e-3) < 0.0


@pytest.mark.parametrize("lam,expect", [(-1.0, True), (0.0, True), (2.0, True),
                                        (4.0, True), (4.5, True),
                                        (5.0, False), (6.0, False), (10.0, False)])
def test_edge_threshold(lam, expect):
    # the center is global, with no edge, exactly up to LAM_C
    assert (PotentialSystem(lam).edge() == math.inf) is expect


def test_x_min_against_30_digit_reference():
    with mpmath.workdps(30):
        root = mpmath.findroot(lambda x: mpmath.tan(x) - x, 4.4934)
        lam_c = -root / mpmath.sin(root)
    assert abs(X_MIN - float(root)) <= math.ulp(X_MIN)
    assert LAM_C == pytest.approx(float(lam_c), rel=4 * EPS)


def test_edge_at_the_threshold():
    assert PotentialSystem(4.6033388).edge() == math.inf
    assert PI < PotentialSystem(4.60334).edge() <= X_MIN
    assert PotentialSystem(-1.0).edge() == math.inf


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(-1.0, 12.0))
def test_edge_is_the_first_zero_of_g(lam):
    s = PotentialSystem(lam)
    edge = s.edge()
    if math.isfinite(edge):
        assert abs(s.g(edge)) <= 8 * EPS * (edge + abs(lam))
    # at LAM_C the zero is double and g(x) ~ (x - X_MIN)^2 drowns in rounding
    if abs(lam - LAM_C) > 1e-6:
        x = np.linspace(0.0, min(edge, 40.0), 4002)[1:-1]
        assert np.all(s.g(x) > 0.0)


# the zero at lam = 6 lies before the first grid point x_probe/1e4 = 10 of a
# sampled scan, and at lam = 4.60335 g < 0 only on [4.4912, 4.4956], inside
# one 0.01 grid step
@pytest.mark.parametrize("lam,x_probe,edge", [(6.0, 1e5, "3.83501"),
                                              (4.60335, 100.0, "4.49121")])
def test_edge_finds_zeros_a_grid_misses(lam, x_probe, edge):
    found = PotentialSystem(lam).edge()
    assert found <= x_probe
    assert f"{found:.6g}" == edge


def test_inversion_at_the_nilpotent_center():
    # g(x) = x - sin(x) rounds to 0 below x ~ 3e-8, which must not stop the
    # bracket; what remains is G's own cancellation
    s = PotentialSystem(-1.0)
    assert energy_to_amplitude(s, float(s.G(1e-4))) == pytest.approx(1e-4, rel=1e-6)


@pytest.mark.parametrize("xi", [1e-4, 1e-3, 1e-2])
def test_inversion_round_trips_at_the_nilpotent_center(xi):
    # G = x^2/2 - 2*sin(x/2)^2 taken directly cancels to x^4/24 at lam = -1:
    # G(1e-4) inverted to 6.6e-8 relative off; below 1 the bracket comes
    # from its Taylor series
    s = PotentialSystem(-1.0)
    assert energy_to_amplitude(s, float(s.G(xi))) == pytest.approx(xi, rel=1e-15, abs=0)


@pytest.mark.parametrize("lam", [-1.0, -1.0 + 1e-6, -0.5])
def test_g_and_G_below_one_match_the_reference(lam):
    s = PotentialSystem(lam)
    x = np.array([-0.9, 1e-8, 1e-4, 0.3, np.nextafter(1.0, 0.0), 1.0])
    g, G = s.g(x), s.G(x)
    with mpmath.workdps(60):  # 1 - cos(1e-8) loses 16 of them
        for t, gv, Gv in zip(x.tolist(), g.tolist(), G.tolist()):
            m = mpmath.mpf(t)
            assert gv == pytest.approx(float(m + lam * mpmath.sin(m)), rel=4 * EPS, abs=0)
            assert Gv == pytest.approx(float(m * m / 2 + lam * (1 - mpmath.cos(m))), rel=4 * EPS, abs=0)
    assert type(s.G(0.5)) is type(s.g(0.5)) is np.float64


@settings(max_examples=400, deadline=None)
@given(lam=st.floats(-1.0, 6.0),
       x=st.one_of(st.floats(5e-324, 1.0, exclude_max=True), st.floats(5e-324, 1e6)),
       negative=st.booleans())
def test_scalar_g_and_G_are_the_array_path_to_the_bit(lam, x, negative):
    # one float goes through math.sin and float arithmetic, an array through
    # numpy: the same bits, also on the series below |x| = 1 at lam < 0
    s, x = PotentialSystem(lam), -x if negative else x
    assert math.sin(x).hex() == float(np.sin(x)).hex()
    for f in (s.g, s.G):
        one = f(x)
        assert type(one) is np.float64
        assert float(one).hex() == float(f(np.array([x]))[0]).hex()


def test_inversion_refuses_an_energy_whose_bracket_jumps_the_dip():
    # lam = 5: g < 0 on (4.105, 4.906), but the doubled bracket end 7.303
    # has g > 0; the level h = 40 lies outside the period annulus
    with pytest.raises(NonMonotoneEnergy):
        energy_to_amplitude(PotentialSystem(5.0), 40.0)


@pytest.mark.parametrize("h", [17.39, 17.968])
def test_inversion_below_the_edge_level_succeeds(h):
    # lam = 6: G(edge) = 17.968048..., so every lower level has an amplitude
    # inside the edge 3.83501, though the doubled bracket end jumps past it
    s6 = PotentialSystem(6.0)
    xi = energy_to_amplitude(s6, h)
    assert 0.0 < xi < s6.edge()
    assert float(s6.G(xi)) == pytest.approx(h, rel=4 * np.finfo(float).eps)


@pytest.mark.parametrize("lam,h", [(5.0, 40.0), (6.0, 17.968048336710886), (6.0, 1e5)])
def test_inversion_refusal_names_the_edge_and_its_level(lam, h):
    s = PotentialSystem(lam)
    edge = s.edge()
    with pytest.raises(NonMonotoneEnergy,
                       match=rf"G\({edge:.6g}\) = {float(s.G(edge)):.6g}") as excinfo:
        energy_to_amplitude(s, h)
    assert excinfo.value.x == edge


# below h ~ 1e-200 at lam < 0 an unscaled gap G(x) - h let Brent's
# interpolation products underflow, and it crept by steps of its tolerance:
# these took 101 iterations, past brentq's cap of 100; the reference is
# sqrt(2h/(1+lam)), or (24h)^(1/4) at lam = -1
@pytest.mark.parametrize("lam,h", [(-1e-8, 1.1997787370535245e-288),
                                   (-1.0, 3.298666452230886e-290),
                                   (-1e-12, 2.0937270036480865e-207)])
def test_inversion_at_tiny_energies_converges(lam, h):
    xi = energy_to_amplitude(PotentialSystem(lam), h)
    with mpmath.workdps(30):
        h = mpmath.mpf(h)
        ref = (24 * h) ** 0.25 if lam == -1.0 else mpmath.sqrt(2 * h / (1 + mpmath.mpf(lam)))
    assert xi == pytest.approx(float(ref), rel=8 * EPS, abs=0)


@pytest.mark.parametrize("lam", [-0.5, -1e-8])
@pytest.mark.parametrize("h", [1e-250, 1e-290])
def test_inversion_at_tiny_energies_takes_few_steps(monkeypatch, lam, h):
    # the gap scaled to h's binade keeps Brent's interpolation in range: 10
    # or 11 evaluations at lam = -0.5 and 6 or 7 at -1e-8, against 99 and
    # 103 unscaled
    evaluated = []
    G = PotentialSystem.G
    monkeypatch.setattr(PotentialSystem, "G", lambda s, x: evaluated.append(x) or G(s, x))
    energy_to_amplitude(PotentialSystem(lam), h)
    assert len(evaluated) <= 20


@pytest.mark.parametrize("lam, roots", [
    (-1.0, ("0x1.12004ccc0bbacp-82", "0x1.cab45469b69c7p-8", "0x1.eb3eda768b68dp+0",
            "0x1.76350db60b1c1p+2")),
    (-0.99, ("0x1.a74bcc85437cfp-163", "0x1.28950198a7d4fp-13", "0x1.e7bd3ce99120fp+0",
             "0x1.76329addbc50bp+2")),
    (-0.5, ("0x1.dee7a4ad4b81fp-166", "0x1.4f8b588e1e8a2p-16", "0x1.535bff5248eb1p+0",
            "0x1.75b66525c91d9p+2")),
    (-1e-8, ("0x1.52a30a209e29ap-166", "0x1.da88054676bafp-17", "0x1.00000013be6e0p+0",
             "0x1.752e50db699dcp+2")),
    (0.5, ("0x1.147eefe21eb16p-166", "0x1.8374055ef942ap-17", "0x1.a5f4aba1d5173p-1",
           "0x1.749b6a9543ebdp+2")),
    (1.0, ("0x1.dee7a4ad4b81fp-167", "0x1.4f8b588e398fbp-17", "0x1.6de2cfb063d06p-1",
           "0x1.73fbf683b6e08p+2")),
    (2.25, ("0x1.77af12a4ee845p-167", "0x1.0738fdada7fb3p-17", "0x1.1e94c3f1c0f4ap-1",
            "0x1.72267ac5f6a91p+2")),
    (4.5, ("0x1.20ca5dd7c6e2fp-167", "0x1.94ae8257734c6p-18", "0x1.b7627994d9e93p-2",
           "0x1.6d05a586962a3p+2")),
    (6.0, ("0x1.fff8881bb3193p-168", "0x1.66b6437371680p-18", "0x1.85095e995e6c3p-2",
           "0x1.94d35ce9c984ap+1")),
])
def test_inversion_at_normal_energies_keeps_the_unscaled_roots(lam, roots):
    # Brent's steps use only ratios and comparisons of the gap's values, so
    # scaling it by a power of two leaves these roots, recorded with the
    # unscaled gap, to the bit; at lam < 0 the doubling starts from the
    # quartic bound, which moved four of them by 1 or 2 ulp (the roots
    # recorded before, from the quadratic bound, in _QUADRATIC_START_ROOTS)
    s = PotentialSystem(lam)
    got = tuple(energy_to_amplitude(s, h).hex() for h in (1e-100, 1e-10, 0.5, 17.0))
    assert got == roots
    for x, before in zip(got, _QUADRATIC_START_ROOTS.get(lam, roots)):
        x, before = float.fromhex(x), float.fromhex(before)
        assert abs(x - before) <= BRENT_RTOL * before


_QUADRATIC_START_ROOTS = {
    -1.0: ("0x1.12004ccc0bbacp-82", "0x1.cab45469b69c7p-8", "0x1.eb3eda768b68ep+0",
           "0x1.76350db60b1c1p+2"),
    -0.99: ("0x1.a74bcc85437cfp-163", "0x1.28950198a7d4fp-13", "0x1.e7bd3ce99120dp+0",
            "0x1.76329addbc50bp+2"),
    -0.5: ("0x1.dee7a4ad4b81fp-166", "0x1.4f8b588e1e8a2p-16", "0x1.535bff5248eb0p+0",
           "0x1.75b66525c91d9p+2"),
    -1e-8: ("0x1.52a30a209e29ap-166", "0x1.da88054676baep-17", "0x1.00000013be6e0p+0",
            "0x1.752e50db699dcp+2"),
}


# at the nilpotent center G(x) ~ x^4/24: the doubling from sqrt(2h) took 96,
# 179 and 260 gap evaluations here; the quartic bound (24h)^(1/4) is the
# root to the bit at 1e-100 and 1e-300 (1 evaluation) and takes 5 at 1e-200
@pytest.mark.parametrize("h,root", [(1e-100, "0x1.12004ccc0bbacp-82"),
                                    (1e-200, "0x1.08ff677f2669ap-165"),
                                    (1e-300, "0x1.004a3ef5fb1e8p-248")])
def test_inversion_at_the_nilpotent_center_starts_from_the_quartic_bound(monkeypatch, h, root):
    evaluated = []
    G = PotentialSystem.G
    monkeypatch.setattr(PotentialSystem, "G", lambda s, x: evaluated.append(x) or G(s, x))
    xi = energy_to_amplitude(PotentialSystem(-1.0), h)
    assert len(evaluated) <= 20
    assert abs(xi - float.fromhex(root)) <= BRENT_RTOL * xi  # the root from sqrt(2h)


def test_inversion_past_the_iteration_cap_names_its_best_estimate(monkeypatch):
    root = energy_to_amplitude(PotentialSystem(1.0), 5.0)
    monkeypatch.setattr(model, "BRENT_MAXITER", 3)
    with pytest.raises(NoConvergence, match=r"did not converge in 3 iterations; best estimate "
                                            r"\S+ with err_est") as excinfo:
        energy_to_amplitude(PotentialSystem(1.0), 5.0)
    assert 0.0 < abs(excinfo.value.best - root) <= excinfo.value.err_est


def _brent_against_brentq(f, a, b, xtol):
    """_brent and scipy's brentq at the same cap, with the points each one
    evaluated: the same iterates and the same root to the bit."""
    ours, theirs = [], []
    root = _brent(lambda x: ours.append(x) or f(x), a, b, xtol)
    ref = brentq(lambda x: theirs.append(x) or f(x), a, b, xtol=xtol, maxiter=BRENT_MAXITER)
    assert type(root) is type(ref) is float
    assert (root, ours) == (ref, theirs)
    return root


@pytest.fixture
def compared(monkeypatch):
    """Every _brent call of model and analysis checked against brentq; the
    number of calls made so far."""
    calls = []

    def compare(f, a, b, xtol):
        calls.append(a)
        return _brent_against_brentq(f, a, b, xtol)

    monkeypatch.setattr(model, "_brent", compare)
    monkeypatch.setattr(analysis, "_brent", compare)
    return calls


@pytest.mark.parametrize("lam", [-1.0, -1.0 + 1e-9, -0.5, -1e-8, 1e-8, 0.5, 1.0, 4.5])
def test_inversion_matches_scipy_brentq(compared, lam):
    s = PotentialSystem(lam)
    for h in np.geomspace(1e-300, 1e6, 184).tolist():
        energy_to_amplitude(s, h)
    # for lam > 0 the bracket's lower end sqrt(2h/(1+lam)) is the root itself
    # at the smaller levels, and no search runs
    assert len(compared) >= 35


@pytest.mark.parametrize("lam", [-1.0, 1.0, LAM_C, 4.6034, 5.0, 50.0])
def test_edge_is_stored_once_per_system(lam):
    # the stored edge is the root a fresh search finds, and it stays out of
    # the fields: ==, hash and repr are those of a system that never ran it
    s = PotentialSystem(lam)
    fresh = math.inf if s.g(X_MIN) > 0.0 else _brent(s.g, PI, X_MIN, 1e-300)
    assert s.edge() == fresh and s.edge() == fresh
    other = PotentialSystem(lam)
    assert s == other and hash(s) == hash(other) and repr(s) == repr(other)


def test_edge_stored_by_racing_threads():
    # threads that race on a cold system at most find the same root twice
    s = PotentialSystem(5.0)
    want = _brent(s.g, PI, X_MIN, 1e-300)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = [f.result(timeout=60) for f in [pool.submit(s.edge) for _ in range(64)]]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 64 and s.edge() == want


def test_inversions_search_the_edge_once(monkeypatch):
    brent = model._brent
    edge_searches = []

    def counted(f, a, b, xtol):
        edge_searches.append((a, b) == (PI, X_MIN))
        return brent(f, a, b, xtol)

    monkeypatch.setattr(model, "_brent", counted)
    s = PotentialSystem(5.0)
    for h in np.linspace(0.01, 5.0, 100).tolist():
        energy_to_amplitude(s, h)
    assert len(edge_searches) >= 100 and sum(edge_searches) == 1


def test_edge_matches_scipy_brentq(compared):
    lams = [LAM_C, math.nextafter(LAM_C, 50.0), 4.6034, *np.linspace(4.61, 50.0, 120).tolist()]
    edges = [PotentialSystem(lam).edge() for lam in lams]
    assert len(compared) == len(lams) - (edges[0] == math.inf)
    assert all(PI < e <= X_MIN for e in edges[1:])


def test_opial_zeros_match_scipy_brentq(compared):
    zeros = analysis.opial_sign_changes(PotentialSystem(1.0), 200.0)
    assert len(compared) == len(zeros) == 62


def test_repeated_root_searches_retain_no_memory():
    # every _brent call hands the compiled brentq a new closure, and none of
    # them stays alive after the call
    def searches():
        for lam in (-1.0, 1.0, 5.0, 50.0):
            s = PotentialSystem(lam)
            s.edge()
            for h in (1e-200, 0.5, 1.0):
                energy_to_amplitude(s, h)
        analysis.opial_sign_changes(PotentialSystem(1.0), 20.0)

    searches()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            searches()
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - start) / 20
    finally:
        tracemalloc.stop()
    assert retained <= 32


@pytest.mark.parametrize("f", [lambda x: x - 2.0, lambda x: 1e-200, lambda x: -1e-200,
                               lambda x: math.nan, lambda x: math.nan if x > 0.0 else -1.0,
                               lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5])
def test_brent_refuses_what_brentq_refuses(f):
    with pytest.raises(ValueError) as ref:
        brentq(f, 0.0, 1.0, xtol=1e-12, maxiter=BRENT_MAXITER)
    with pytest.raises(ValueError) as ours:
        _brent(f, 0.0, 1.0, 1e-12)
    assert str(ours.value) == str(ref.value)
