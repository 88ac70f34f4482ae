"""Brute-force period measurement by direct time integration.

Integrates x' = -y, y' = g(x) from (xi, 0) with scipy's compiled DOP853,
Hairer's code for the explicit Runge-Kutta 8(5,3) pair of Dormand and
Prince, with its stages, error norm and step control in C (deterministic
given identical inputs), called directly rather than through
scipy.integrate.ode, and measures the half period as the time at which
y falls through the Poincare section y = 0.  That crossing happens at the
left turning point, where y' = g(x) != 0, so the section is crossed
transversally; evenness of G makes the full period exactly twice the half
period.

orbit_periods integrates a whole batch of amplitudes as one stacked system,
so every orbit shares the same steps.  The run stops at the first accepted
step in which some orbit's y fell from > 0 to <= 0.  Each such crossing is
then located by Hénon's step (M. Hénon, Physica D 5 (1982) 412): with y as
the independent variable, dx/dy = -y/g(x) and dt/dy = 1/g(x) are integrated
from the step's end to y = 0 by the same integrator at the same tolerance,
which lands on the section exactly.  Written in u, y = y_end*(1 - u), every
crossing of one step runs from u = 0 to u = 1, so they share one run (a
crossing with y_end = 0 stays at the step's end).  The compiled integrator
has no dense output and keeps the callback of its current run in one slot
per thread, so it is not re-entrant and this happens after the stacked run
has returned; threads may run it concurrently.  The crossing orbits are
retired and the stacked run restarts from the current time with the orbits
still live.  The run is never bounded by a period from elsewhere: it ends
when the last orbit crosses.  full_return and orbit_trace, which sample the orbit or record
more than one crossing, integrate it with solve_ivp's DOP853 instead.

This route shares no code with the quadrature module, which is the point:
every period number here is an independent check on the singular integral.
Results are PeriodSample and OrbitTrace values; the payload format they are
written in (CSV and JSON, including the `t,x,y,H` trace) lives in report.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._dop import dopri853

from .errors import EventMissed, ToleranceUnmet
from .model import PotentialSystem
from .quadrature import PeriodSample

MAX_EVENT_TIME = 1e4
# Step budget of one compiled run.  At tol = 1e-12 an orbit of amplitude 33
# takes about 60 steps per unit time, so a run that never crosses the
# section ends at MAX_EVENT_TIME, well inside the budget.
MAX_STEPS = 10 ** 6

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


def _stacked(t, s, lam, out, *_):
    """Right-hand side of the stacked system, written into out: the state
    holds every orbit's x, then every orbit's y.  It is the oracle's inner
    loop, called once per stage for every live orbit, so it splits the state
    by slicing and writes through ufuncs, entering no Python frame but its
    own.  The stopping rule's state rides along unused."""
    n = s.size // 2
    x, g = s[:n], out[n:]
    np.negative(s[n:], out=out[:n])
    np.sin(x, out=g)
    np.multiply(g, lam, out=g)
    np.add(g, x, out=g)
    return out


def _rhs(sys: PotentialSystem):
    """_stacked for solve_ivp, which keeps the derivatives it is given, so
    each call writes a new array."""
    lam = sys.lam
    return lambda t, s: _stacked(t, s, lam, np.empty_like(s))


def _check_tol(tol: float) -> None:
    if not (1e-12 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-12, 1e-6], got {tol:g}")


def _y_falls(t, s):
    """Event: y falls through the section y = 0."""
    return s[1]


_y_falls.direction = -1


def _stop_on_fall(t, s, lam, out, up, fell):
    """Stop after the first accepted step in which some orbit's y fell from
    > 0 to <= 0, marking those orbits in fell; up holds which y were > 0."""
    y = s[up.size:]
    np.less_equal(y, 0.0, out=fell)
    fell &= up
    np.greater(y, 0.0, out=up)
    return -1 if fell.any() else 0


def _section(u, s, lam, y_end):
    """Hénon's right-hand side for the orbits that fell through y = 0 in one
    step, with y = y_end*(1 - u) as the independent variable, u from 0 at the
    step's end to 1 on the section: the state holds every orbit's x, then
    its t, and dx/du = y_end*y/g(x), dt/du = -y_end/g(x)."""
    x = s[:y_end.size]
    gx = x + lam * np.sin(x)
    return np.concatenate((y_end * (y_end * (1.0 - u)) / gx, -y_end / gx))


_FAILURES = {-1: "input is not consistent", -2: "larger nsteps is needed",
             -3: "step size becomes too small", -4: "problem is probably stiff"}


def _run(fcn, t0: float, state: np.ndarray, t1: float, tol: float, args: tuple,
         solout=None, first_step: float = 0.0):
    """Integrate s' = fcn(t, s, *args) from (t0, state) to t1 by the compiled
    DOP853, or until solout(t, s, *args) returns -1 after an accepted step:
    (t, state).  A failed run raises ToleranceUnmet.

    The compiled dop853 keeps a reference to the fcn and solout of every run
    for good, so both are module-level functions and a run's own state
    reaches them through args, which it does not keep (a closure per run, or
    scipy.integrate.ode's new bound method per run, would be kept alive)."""
    work = np.zeros(11 * state.size + 21)
    # safety factor, step-size change limits and first step as scipy's
    # dop853 integrator sets them
    work[1:4] = 0.9, 0.3, 6.0
    work[6] = first_step
    t, state, istate = dopri853(fcn, t0, state, t1, tol, tol, solout, int(solout is not None),
                                work, np.zeros(21, dtype=np.int32), MAX_STEPS, -1, args)
    if istate < 0:
        raise ToleranceUnmet(
            f"integrator failed: {_FAILURES.get(istate, 'unknown failure')} (istate {istate})")
    return t, state


def _half_periods(sys: PotentialSystem, xis: list[float], tol: float) -> list[float]:
    """Time at which each orbit's y first falls through 0, all orbits in one
    stacked DOP853 run."""
    t_half = [math.nan] * len(xis)
    live = list(range(len(xis)))
    t, state = 0.0, np.concatenate((xis, np.zeros(len(xis))))
    while live:
        n = len(live)
        up, fell = state[n:] > 0.0, np.zeros(n, dtype=bool)
        t, state = _run(_stacked, t, state, MAX_EVENT_TIME, tol,
                        (sys.lam, np.empty(2 * n), up, fell), solout=_stop_on_fall)
        fell = np.flatnonzero(fell)
        if not fell.size:
            raise EventMissed(
                f"no half-period crossing of y=0 within t={MAX_EVENT_TIME:g} "
                f"(lam={sys.lam:g}, xi={xis[live[0]]:g})")
        start = np.append(state[fell], [t] * fell.size)
        crossing = _run(_section, 0.0, start, 1.0, tol, (sys.lam, state[n + fell]),
                        first_step=1.0)[1]
        for i, x_cross, tc in zip(fell.tolist(), crossing[:fell.size], crossing[fell.size:]):
            if x_cross >= 0.0:
                raise EventMissed(
                    f"section crossed at x={x_cross:.6g} >= 0: the orbit from "
                    f"xi={xis[live[i]]:g} does not enclose the origin (lam={sys.lam:g})")
            t_half[live[i]] = float(tc)
        keep = np.setdiff1d(np.arange(n), fell)
        live = [live[i] for i in keep]
        state = state[np.concatenate((keep, n + keep))]
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
