"""Brute-force period measurement by direct time integration.

Integrates x' = -y, y' = g(x) from (xi, 0) with scipy's DOP853, the explicit
Runge-Kutta 8(5,3) pair of Dormand and Prince (deterministic given identical
inputs), and measures the half period as the time at which y falls through
the Poincare section y = 0.  That crossing happens at the left turning
point, where y' = g(x) != 0, so the section is crossed transversally; evenness
of G makes the full period exactly twice the half period.

orbit_periods integrates a whole batch of amplitudes as one stacked system,
so every orbit shares the same steps.  After each step, every orbit whose y
fell from > 0 to <= 0 is located by Brent's method on that step's dense
output (Hairer, Norsett & Wanner, Solving ODEs I, II.6) and retired; the
stepper then restarts from the current time with the orbits still live.
The run is never bounded by a period from elsewhere: it ends when the last
orbit crosses.

This route shares no code with the quadrature module, which is the point:
every period number here is an independent check on the singular integral.
Results are PeriodSample and OrbitTrace values; the payload format they are
written in (CSV and JSON, including the `t,x,y,H` trace) lives in report.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from .errors import EventMissed, ToleranceUnmet
from .model import PotentialSystem
from .quadrature import PeriodSample

MAX_EVENT_TIME = 1e4
EPS = float(np.finfo(float).eps)

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
    """Right-hand side of the stacked system: the state holds every orbit's
    x, then every orbit's y.  It is the oracle's inner loop, called once per
    stage for every live orbit, so it splits the state by slicing: np.split
    would add a dozen Python frames to each call."""
    lam = sys.lam

    def f(t, s):
        n = s.size // 2
        x = s[:n]
        return np.concatenate((-s[n:], x + lam * np.sin(x)))

    return f


def _check_tol(tol: float) -> None:
    if not (1e-12 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-12, 1e-6], got {tol:g}")


def _y_falls(t, s):
    """Event: y falls through the section y = 0."""
    return s[1]


_y_falls.direction = -1


def _half_periods(sys: PotentialSystem, xis: list[float], tol: float) -> list[float]:
    """Time at which each orbit's y first falls through 0, all orbits in one
    stacked DOP853 run."""
    rhs = _rhs(sys)
    t_half = [math.nan] * len(xis)
    live = list(range(len(xis)))
    t, state = 0.0, np.concatenate((xis, np.zeros(len(xis))))
    while live:
        n = len(live)
        solver = DOP853(rhs, t, state, MAX_EVENT_TIME, rtol=tol, atol=tol)
        fell: list[int] = []
        while not fell:
            if solver.status == "finished":
                raise EventMissed(
                    f"no half-period crossing of y=0 within t={MAX_EVENT_TIME:g} "
                    f"(lam={sys.lam:g}, xi={xis[live[0]]:g})")
            y_old = solver.y[n:]
            message = solver.step()
            if solver.status == "failed":
                raise ToleranceUnmet(f"integrator failed at tol={tol:g}: {message}")
            fell = np.flatnonzero((y_old > 0.0) & (solver.y[n:] <= 0.0)).tolist()
        dense = solver.dense_output()
        for i in fell:
            tc = brentq(lambda s: dense(s)[n + i], solver.t_old, solver.t,
                        xtol=4 * EPS, rtol=4 * EPS)
            x_cross = float(dense(tc)[i])
            if x_cross >= 0.0:
                raise EventMissed(
                    f"section crossed at x={x_cross:.6g} >= 0: the orbit from "
                    f"xi={xis[live[i]]:g} does not enclose the origin (lam={sys.lam:g})")
            t_half[live[i]] = tc
        keep = [i for i in range(n) if i not in fell]
        live = [live[i] for i in keep]
        t, state = solver.t, solver.y[keep + [n + i for i in keep]]
    return t_half


def orbit_periods(sys: PotentialSystem, xis, tol: float = 1e-10) -> list[PeriodSample]:
    """Periods of the orbits through (xi, 0) for every amplitude of xis,
    measured by time integration of all of them as one stacked system."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float)).tolist()
    for xi in xis:
        if not (0.0 < xi < math.inf):
            raise ValueError(f"xi must be positive and finite, got {xi}")
    _check_tol(tol)
    return [PeriodSample(lam=sys.lam, xi=xi, h=float(sys.G(xi)), T=2.0 * th,
                         err_est=_PERIOD_ERR_FACTOR * tol * 2.0 * th, method="ode-oracle")
            for xi, th in zip(xis, _half_periods(sys, xis, tol))]


def orbit_period(sys: PotentialSystem, xi: float, tol: float = 1e-10,
                 full_return: bool = False) -> PeriodSample:
    """Period of the orbit through (xi, 0) measured by time integration.

    Default mode doubles the half-period crossing time.  full_return instead
    measures the spacing of two consecutive falling crossings (a full loop),
    as a cross-check on the symmetry argument.
    """
    sample = orbit_periods(sys, [xi], tol)[0]
    if not full_return:
        return sample
    sol = solve_ivp(_rhs(sys), (0.0, 1.75 * sample.T), [xi, 0.0], method="DOP853",
                    rtol=tol, atol=tol, events=_y_falls)
    times = sol.t_events[0]
    if times.size < 2:
        raise EventMissed("full-return mode saw fewer than two section crossings")
    period = float(times[1] - times[0])
    return replace(sample, T=period, err_est=_PERIOD_ERR_FACTOR * tol * period)


def orbit_trace(sys: PotentialSystem, xi: float, tol: float = 1e-10) -> OrbitTrace:
    """One full period sampled at 2001 uniform times, with the energy drift."""
    period = orbit_periods(sys, [xi], tol)[0].T
    t_eval = np.linspace(0.0, period, 2001)
    sol = solve_ivp(_rhs(sys), (0.0, period), [xi, 0.0], method="DOP853",
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
