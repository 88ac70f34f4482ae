import math

import pytest

from periodkit.errors import EventMissed
from periodkit.model import PotentialSystem
from periodkit.oracle import energy_drift, orbit_period, orbit_trace
from periodkit.quadrature import period_at_amplitude

PI = math.pi
TWO_PI = 2 * PI


def test_harmonic_oscillator_period():
    sample = orbit_period(PotentialSystem(0.0), 2.0, tol=1e-10)
    assert sample.T == pytest.approx(TWO_PI, abs=1e-9)
    assert sample.method == "ode-oracle"
    assert sample.h == pytest.approx(2.0, rel=1e-15)


def test_agreement_with_quadrature_spot():
    s1 = PotentialSystem(1.0)
    ode = orbit_period(s1, 2 * PI, tol=1e-10)
    quad = period_at_amplitude(s1, 2 * PI)
    assert abs(ode.T - quad.T) / quad.T <= 1e-7


def test_nilpotent_blowup_direction():
    sn = PotentialSystem(-1.0)
    periods = [orbit_period(sn, xi, tol=1e-11).T for xi in (0.3, 0.2, 0.1)]
    assert all(t > TWO_PI for t in periods)
    assert periods[0] < periods[1] < periods[2]


def test_tolerance_validation():
    with pytest.raises(ValueError):
        orbit_period(PotentialSystem(0.0), 1.0, tol=1e-5)
    with pytest.raises(ValueError):
        orbit_period(PotentialSystem(0.0), 1.0, tol=1e-13)
    with pytest.raises(ValueError):
        orbit_period(PotentialSystem(0.0), -1.0)


def test_event_missed_for_trapped_orbit():
    # lam=6 has extra equilibria; the orbit through (4.5, 0) winds around a
    # side center and never reaches the negative-x half of the section
    with pytest.raises(EventMissed):
        orbit_period(PotentialSystem(6.0), 4.5, tol=1e-9)


def test_energy_drift_bounds():
    assert energy_drift(PotentialSystem(0.0), 1.0, tol=1e-10) <= 1e-9
    s2 = PotentialSystem(2.0)
    h = float(s2.G(10.0))
    assert energy_drift(s2, 10.0, tol=1e-10) <= 1e-8 * (1 + h)


def test_drift_scales_with_tolerance():
    s1 = PotentialSystem(1.0)
    loose = energy_drift(s1, 30.0, tol=1e-10)
    tight = energy_drift(s1, 30.0, tol=1e-12)
    assert tight <= loose / 10.0


def test_full_return_cross_check():
    s1 = PotentialSystem(1.0)
    doubled = orbit_period(s1, 7.0, tol=1e-11)
    looped = orbit_period(s1, 7.0, tol=1e-11, full_return=True)
    assert looped.T == pytest.approx(doubled.T, abs=1e-8)


def test_convergence_under_tolerance_halving():
    s1 = PotentialSystem(1.0)
    quad = period_at_amplitude(s1, 5.0)
    coarse = orbit_period(s1, 5.0, tol=1e-9)
    fine = orbit_period(s1, 5.0, tol=5e-10)
    discrepancy = abs(quad.T - coarse.T)
    assert abs(fine.T - coarse.T) <= discrepancy + 1e-12


def test_orbit_trace_contract():
    s1 = PotentialSystem(1.0)
    trace = orbit_trace(s1, 3.0, tol=1e-10)
    t0, x0, y0 = trace.samples[0]
    assert (t0, x0, y0) == (0.0, 3.0, 0.0)
    assert trace.h0 == pytest.approx(float(s1.G(3.0)), rel=1e-15)
    assert trace.max_drift <= 1e-8 * (1 + trace.h0)
    # one full period: the last sample returns to the start
    t_end, x_end, y_end = trace.samples[-1]
    assert x_end == pytest.approx(3.0, abs=1e-6)
    assert y_end == pytest.approx(0.0, abs=1e-6)
