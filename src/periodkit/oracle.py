"""Brute-force period measurement by direct time integration.

Integrates x' = -y, y' = g(x) from (xi, 0) with an adaptive embedded
Runge-Kutta 5(4) pair (scipy's Dormand-Prince RK45, deterministic given
identical inputs) and measures the half period as the event time at which y
falls through the Poincare section y = 0.  That crossing happens at the left
turning point, where y' = g(x) != 0, so the section is crossed transversally
and event detection is robust; evenness of G makes the full period exactly
twice the half period.  Event times come from root refinement on the
integrator's dense output (accurate to ~1e-12 in time).

This route shares no code with the quadrature module, which is the point:
every period number here is an independent check on the singular integral.
Results are PeriodSample and OrbitTrace values; the payload format they are
written in (CSV and JSON, including the `t,x,y,H` trace) lives in report.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import EventMissed, ToleranceUnmet
from .model import PotentialSystem
from .quadrature import PeriodSample

MAX_EVENT_TIME = 1e4

# Empirical factor turning the solver tolerance into a period error estimate;
# calibrated against the quadrature route (see tests).
_PERIOD_ERR_FACTOR = 100.0


@dataclass(frozen=True)
class OrbitTrace:
    """Sampled orbit: rows (t, x, y), the initial energy, and the worst
    energy-conservation drift seen along the samples."""

    samples: np.ndarray
    h0: float
    max_drift: float


def _rhs(sys: PotentialSystem):
    lam = sys.lam

    def f(t, s):
        return (-s[1], s[0] + lam * math.sin(s[0]))

    return f


def _check_tol(tol: float) -> None:
    if not (1e-12 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-12, 1e-6], got {tol:g}")


def _y_falls(terminal: bool):
    """Event: y falls through the section y = 0."""
    def y_falls(t, s):
        return s[1]

    y_falls.terminal = terminal
    y_falls.direction = -1
    return y_falls


def _integrate_half(sys: PotentialSystem, xi: float, tol: float) -> float:
    """Run until y falls through 0; returns that time, the half period."""
    if not (0.0 < xi < math.inf):
        raise ValueError(f"xi must be positive and finite, got {xi}")
    _check_tol(tol)
    sol = solve_ivp(_rhs(sys), (0.0, MAX_EVENT_TIME), [xi, 0.0], method="RK45",
                    rtol=tol, atol=tol, events=_y_falls(True))
    if sol.status == -1:
        raise ToleranceUnmet(f"integrator failed at tol={tol:g}: {sol.message}")
    if sol.t_events[0].size == 0:
        raise EventMissed(
            f"no half-period crossing of y=0 within t={MAX_EVENT_TIME:g} "
            f"(lam={sys.lam:g}, xi={xi:g})")
    t_half = float(sol.t_events[0][0])
    x_at_event = float(sol.y_events[0][0][0])
    if x_at_event >= 0.0:
        raise EventMissed(
            f"section crossed at x={x_at_event:.6g} >= 0: the orbit through "
            f"({xi:g}, 0) does not enclose the origin (lam={sys.lam:g})")
    return t_half


def orbit_period(sys: PotentialSystem, xi: float, tol: float = 1e-10,
                 full_return: bool = False) -> PeriodSample:
    """Period of the orbit through (xi, 0) measured by time integration.

    Default mode doubles the half-period event time.  full_return instead
    measures the spacing of two consecutive falling crossings (a full loop),
    as a cross-check on the symmetry argument.
    """
    t_half = _integrate_half(sys, xi, tol)
    if full_return:
        sol2 = solve_ivp(_rhs(sys), (0.0, 3.5 * t_half), [xi, 0.0], method="RK45",
                         rtol=tol, atol=tol, events=_y_falls(False))
        times = sol2.t_events[0]
        if times.size < 2:
            raise EventMissed("full-return mode saw fewer than two section crossings")
        period = float(times[1] - times[0])
    else:
        period = 2.0 * t_half
    return PeriodSample(lam=sys.lam, xi=xi, h=float(sys.G(xi)), T=period,
                        err_est=_PERIOD_ERR_FACTOR * tol * period, method="ode-oracle")


def orbit_trace(sys: PotentialSystem, xi: float, tol: float = 1e-10) -> OrbitTrace:
    """One full period sampled at 2001 uniform times, with the energy drift."""
    t_half = _integrate_half(sys, xi, tol)
    period = 2.0 * t_half
    t_eval = np.linspace(0.0, period, 2001)
    sol = solve_ivp(_rhs(sys), (0.0, period), [xi, 0.0], method="RK45",
                    rtol=tol, atol=tol, t_eval=t_eval)
    if sol.status != 0:
        raise ToleranceUnmet(f"trace integration failed: {sol.message}")
    x, y = sol.y
    h0 = float(sys.G(xi))
    drift = float(np.max(np.abs(0.5 * y * y + np.asarray(sys.G(x)) - h0)))
    samples = np.column_stack([sol.t, x, y])
    return OrbitTrace(samples=samples, h0=h0, max_drift=drift)


def energy_drift(sys: PotentialSystem, xi: float, tol: float = 1e-10) -> float:
    """Worst |H(x,y) - h0| over one full period (integrator quality gate)."""
    return orbit_trace(sys, xi, tol).max_drift
