import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import periodkit
from periodkit.errors import NoConvergence
from periodkit.model import PotentialSystem
from periodkit.quadrature import (ROUNDING_FLOOR, SMALL_ENERGY_GUARD,
                                  QuadratureConfig, half_period_integrals,
                                  period_at_amplitude, period_at_energy,
                                  period_derivative, period_slope)
from periodkit.oracle import orbit_period

PI = math.pi
TWO_PI = 2 * PI


def test_config_validation():
    QuadratureConfig()
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=1e-16)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.5)
    with pytest.raises(ValueError):
        QuadratureConfig(max_depth=2)


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


def test_small_energy_guard_branch():
    # below 1e-10 the expansion is returned directly with its own error model
    s2 = PotentialSystem(2.0)
    t0, dt0 = s2.center_asymptotics()
    sample = period_at_energy(s2, 1e-12)
    assert sample.T == t0 + dt0 * 1e-12
    assert sample.err_est == max(abs(dt0) * 1e-24, ROUNDING_FLOOR * sample.T)
    assert sample.method == "expansion"
    # at the linear center the O(h^2) term vanishes but T still rounds
    s0 = PotentialSystem(0.0)
    sample = period_at_energy(s0, 1e-12)
    assert sample.method == "expansion"
    assert sample.err_est > 0.0


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


def test_refinement_stability():
    # halving rel_tol moves T by less than the reported error estimate
    s1 = PotentialSystem(1.0)
    cfg = QuadratureConfig(rel_tol=1e-9)
    cfg_half = QuadratureConfig(rel_tol=5e-10)
    for h in np.logspace(-3, 3, 20):
        a = period_at_energy(s1, float(h), cfg)
        b = period_at_energy(s1, float(h), cfg_half)
        assert abs(a.T - b.T) <= max(a.err_est, 1e-15)


@pytest.mark.parametrize("lam,h", [(1.0, 10.0), (-0.5, 3.0), (2.0, 50.0)])
def test_half_period_symmetry(lam, h):
    left, right = half_period_integrals(PotentialSystem(lam), h)
    assert left == pytest.approx(right, rel=1e-11)
    total = period_at_energy(PotentialSystem(lam), h)
    assert left + right == pytest.approx(total.T, rel=1e-10)


def test_no_convergence_reports_best_estimate():
    # starving the rule (4 nodes, 4 levels) on a long oscillatory orbit
    cfg = QuadratureConfig(rel_tol=2e-15, max_depth=4, base_nodes=4)
    with pytest.raises(NoConvergence) as excinfo:
        period_at_amplitude(PotentialSystem(4.0), 40.0, cfg)
    err = excinfo.value
    assert err.sample is not None and not err.sample.converged
    reference = period_at_amplitude(PotentialSystem(4.0), 40.0)
    assert err.best == pytest.approx(reference.T, rel=1e-3)


def test_derivative_error_estimate_is_honest():
    s1 = PotentialSystem(1.0)
    xi = 4.0
    est = period_slope(s1, xi)
    tight = period_slope(s1, xi, QuadratureConfig(rel_tol=1e-13)).value
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
        assert sample.h >= SMALL_ENERGY_GUARD  # the quadrature branch
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


def test_panel_budget_bounds_memory():
    # at the nilpotent center the integrand is rounding noise at small
    # amplitude and never settles; the panel budget must end the quadrature
    # in NoConvergence well inside a 1 GiB address space
    code = (
        "import resource\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from periodkit import NoConvergence, PotentialSystem, period_at_amplitude\n"
        "try:\n"
        "    period_at_amplitude(PotentialSystem(-1.0), 1e-3)\n"
        "except NoConvergence as e:\n"
        "    assert e.sample is not None and not e.sample.converged\n"
        "    print('noconvergence')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(periodkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120,
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "noconvergence"


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
