"""Brute-force period measurement by direct time integration.

Integrates x' = -y, y' = g(x) from (xi, 0) with scipy's compiled DOP853,
Hairer's code for the explicit Runge-Kutta 8(5,3) pair of Dormand and
Prince, with its stages, error norm and step control in C (deterministic
given identical inputs), called directly rather than through
scipy.integrate.ode, and measures the quarter period as the time at which
x falls through the section x = 0.  g is odd, so (x, y) -> (-x, -y) maps
the flow to itself, and so does (x, y, t) -> (x, -y, -t): the orbit is
symmetric about both axes and the full period is exactly four quarter
periods.  The section is crossed transversally, since y = sqrt(2h) > 0
at x = 0.

orbit_periods integrates a whole batch of amplitudes as one stacked system,
so every orbit shares the same steps.  The run stops at the first accepted
step in which some orbit's x fell from > 0 to <= 0.  Each such crossing is
then located by Hénon's step (M. Hénon, Physica D 5 (1982) 412): with x as
the independent variable, dy/dx = -g(x)/y and dt/dx = -1/y are integrated
from the step's end to x = 0 by the same integrator at the same tolerance,
which lands on the section exactly.  Written in u, x = x_end*(1 - u), every
crossing of one step runs from u = 0 to u = 1, so they share one run (a
crossing with x_end = 0 stays at the step's end).  The compiled integrator
has no dense output and keeps the callback of its current run in one slot
per thread, so it is not re-entrant and this happens after the stacked run
has returned; threads may run it concurrently.  Each crossing is recorded,
an orbit is retired once it has crossed as often as asked (once for the
quarter period), and the stacked run restarts from the current time with
the orbits still live.  The same run stops at once on an orbit whose y
falls from > 0 to <= 0 while x > 0: it turned back before reaching x = 0,
so it does not enclose the origin.  A fall of y at x = -xi, half way round
a full loop, only restarts the run.  The run is never bounded by a period
from elsewhere: it ends when the last orbit is retired, or at
MAX_EVENT_TIME/2, where the half period passes MAX_EVENT_TIME.

full_return takes the time between an orbit's first two falls of x through
0, which relies on no symmetry.  orbit_trace runs one orbit over [0, T] and
keeps every accepted step; up to the quarter-period crossing these are the
steps of the run that measured T, so the energy drift over them vouches for
that run.

Every path loads the one compiled extension the runs call,
scipy/integrate/_dop, from its file on its first orbit by
model._scipy_extension, without executing the scipy.integrate package
(some 350 modules), so an orbit adds that one extension.

This route shares no code with the quadrature module, which is the point:
every period number here is an independent check on the singular integral.
Results are PeriodSample and OrbitTrace values; the payload format they are
written in (CSV and JSON, including the `t,x,y,H` trace) lives in report.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EventMissed, ToleranceUnmet
from .model import PotentialSystem, _scipy_extension
from .quadrature import PeriodSample

MAX_EVENT_TIME = 1e4
# Step budget of one compiled run.  At tol = 1e-12 an orbit of amplitude 33
# takes about 60 steps per unit time, so a run that never crosses the
# section ends at MAX_EVENT_TIME/2, well inside the budget.
MAX_STEPS = 10 ** 6

# Empirical factor turning the solver tolerance into a period error estimate;
# calibrated against the quadrature route (see tests).
_PERIOD_ERR_FACTOR = 100.0


@dataclass(frozen=True)
class OrbitTrace:
    """One period as the accepted steps of its run: rows (t, x, y),
    non-uniform in t, the initial energy, and the worst energy-conservation
    drift over those steps."""

    samples: np.ndarray
    h0: float
    max_drift: float


def _stacked(t, s, lam, out, *_):
    """Right-hand side of the stacked system, written into out: the state
    holds every orbit's x, then every orbit's y.  It is the oracle's inner
    loop, called once per stage for every live orbit, so it splits the state
    by slicing and writes through ufuncs, entering no Python frame but its
    own.  The solout's state rides along unused."""
    n = s.size // 2
    x, g = s[:n], out[n:]
    np.negative(s[n:], out=out[:n])
    np.sin(x, out=g)
    np.multiply(g, lam, out=g)
    np.add(g, x, out=g)
    return out


def _check_tol(tol: float) -> None:
    if not (1e-12 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-12, 1e-6], got {tol:g}")


def _stop_on_fall(t, s, lam, out, up, fell):
    """Stop after the first accepted step in which some entry of the state,
    an orbit's x or its y, fell from > 0 to <= 0, marking those entries in
    fell; up holds which entries were > 0."""
    np.less_equal(s, 0.0, out=fell)
    fell &= up
    np.greater(s, 0.0, out=up)
    return -1 if fell.any() else 0


def _section(u, s, lam, x_end):
    """Hénon's right-hand side for the orbits that fell through x = 0 in one
    step, with x = x_end*(1 - u) as the independent variable, u from 0 at the
    step's end to 1 on the section: the state holds every orbit's y, then
    its t, and dy/du = x_end*g(x)/y, dt/du = x_end/y."""
    x = x_end * (1.0 - u)
    dt = x_end / s[:x_end.size]
    return np.concatenate((dt * (x + lam * np.sin(x)), dt))


def _dop():  # the compiled scipy.integrate._dop module the runs call
    return _scipy_extension("integrate", "_dop")


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
    t, state, istate = _dop().dopri853(fcn, t0, state, t1, tol, tol, solout,
                                       int(solout is not None), work,
                                       np.zeros(21, dtype=np.int32), MAX_STEPS, -1, args)
    if istate < 0:
        raise ToleranceUnmet(
            f"integrator failed: {_FAILURES.get(istate, 'unknown failure')} (istate {istate})")
    return t, state


def _falls(sys: PotentialSystem, xis: list[float], tol: float, count: int) -> list[list[float]]:
    """Times of each orbit's first count falls of x through 0, all orbits in
    one stacked DOP853 run."""
    falls = [[] for _ in xis]
    live = list(range(len(xis)))
    t, state = 0.0, np.concatenate((xis, np.zeros(len(xis))))
    while live:
        n = len(live)
        up, fell = state > 0.0, np.zeros(2 * n, dtype=bool)
        t, state = _run(_stacked, t, state, 0.5 * MAX_EVENT_TIME, tol,
                        (sys.lam, np.empty(2 * n), up, fell), solout=_stop_on_fall)
        if not fell.any():
            raise EventMissed(
                f"no quarter-period crossing of x=0 within t={0.5 * MAX_EVENT_TIME:g} "
                f"(lam={sys.lam:g}, xi={xis[live[0]]:g})")
        turned = np.flatnonzero(fell[n:] & (state[:n] > 0.0))
        if turned.size:
            i = int(turned[0])
            raise EventMissed(
                f"y fell through 0 at x={state[i]:.6g} > 0: the orbit from "
                f"xi={xis[live[i]]:g} does not enclose the origin (lam={sys.lam:g})")
        fell = np.flatnonzero(fell[:n])
        if not fell.size:
            continue  # y fell through 0 at x = -xi, half way round a full loop
        start = np.append(state[n + fell], [t] * fell.size)
        crossing = _run(_section, 0.0, start, 1.0, tol, (sys.lam, state[fell]),
                        first_step=1.0)[1]
        for i, tc in zip(fell.tolist(), crossing[fell.size:].tolist()):
            falls[live[i]].append(tc)
        keep = np.flatnonzero([len(falls[i]) < count for i in live])
        live = [live[i] for i in keep]
        state = state[np.concatenate((keep, n + keep))]
    return falls


def _periods(sys: PotentialSystem, xis, tol: float, count: int) -> list[tuple[PeriodSample, float]]:
    """Periods of the orbits through (xi, 0) from the first count falls of
    each orbit's x through 0: four times the first (count 1) or the spacing
    of the first two (count 2), each with four times its first fall, the
    quarter-period T, which a full loop's run measures on its way."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float)).tolist()
    for xi in xis:
        if not (0.0 < xi < math.inf):
            raise ValueError(f"xi must be positive and finite, got {xi}")
    _check_tol(tol)
    periods = []
    for xi, f in zip(xis, _falls(sys, xis, tol, count)):
        T = 4.0 * f[0] if count == 1 else f[1] - f[0]
        periods.append((PeriodSample(lam=sys.lam, xi=xi, h=float(sys.G(xi)), T=T,
                                     err_est=_PERIOD_ERR_FACTOR * tol * T, method="ode-oracle"),
                        4.0 * f[0]))
    return periods


def orbit_periods(sys: PotentialSystem, xis, tol: float = 1e-10) -> list[PeriodSample]:
    """Periods of the orbits through (xi, 0) for every amplitude of xis,
    measured by time integration of all of them as one stacked system."""
    return [sample for sample, _ in _periods(sys, xis, tol, 1)]


def orbit_period(sys: PotentialSystem, xi: float, tol: float = 1e-10,
                 full_return: bool = False) -> PeriodSample:
    """Period of the orbit through (xi, 0) measured by time integration.

    Default mode is four times the quarter period, the time at which x
    first falls through 0.  full_return instead measures the time between
    the first and the second fall of x through 0 (a full loop) on the same
    run, as a cross-check on the symmetry argument.  Both modes run on the
    compiled DOP853 and load nothing of scipy but its _dop extension.
    """
    return _periods(sys, [xi], tol, 2 if full_return else 1)[0][0]


def _record(t, s, lam, out, steps):
    """Keep every accepted step (t, x, y) of a one-orbit run in steps."""
    steps.append((t, s[0], s[1]))
    return 0


def orbit_trace(sys: PotentialSystem, xi: float, tol: float = 1e-10) -> OrbitTrace:
    """One full period as the accepted steps of one compiled DOP853 run over
    [0, T], non-uniform in t, with the energy drift over them.  Up to the
    quarter-period crossing they are the steps orbit_period's own run takes."""
    return _trace(sys, xi, tol, _periods(sys, [xi], tol, 1)[0][1])


def _trace(sys: PotentialSystem, xi: float, tol: float, period: float) -> OrbitTrace:
    """orbit_trace over [0, period], period the T already measured (the
    second item of _periods' pair)."""
    steps = []
    _run(_stacked, 0.0, np.array([xi, 0.0]), period, tol, (sys.lam, np.empty(2), steps),
         solout=_record)
    samples = np.array(steps)
    x, y = samples[:, 1], samples[:, 2]
    h0 = float(sys.G(xi))
    drift = float(np.max(np.abs(0.5 * y * y + np.asarray(sys.G(x)) - h0)))
    return OrbitTrace(samples=samples, h0=h0, max_drift=drift)


def energy_drift(sys: PotentialSystem, xi: float, tol: float = 1e-10) -> float:
    """Worst |H(x,y) - h0| over the accepted steps of one full period
    (integrator quality gate)."""
    return orbit_trace(sys, xi, tol).max_drift
