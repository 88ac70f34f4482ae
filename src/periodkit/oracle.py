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
has returned; threads may run it concurrently.  The crossing orbits are
retired and the stacked run restarts from the current time with the orbits
still live.  The same run stops at once on an orbit whose y falls from > 0
to <= 0 while x > 0: it turned back before reaching x = 0, so it does not
enclose the origin.  The run is never bounded by a period from elsewhere:
it ends when the last orbit crosses, or at MAX_EVENT_TIME/2, where the half
period passes MAX_EVENT_TIME.  full_return and orbit_trace, which sample
the orbit or record more than one crossing, integrate it with solve_ivp's
DOP853 instead.

The first orbit loads the one compiled extension the runs call,
scipy/integrate/_dop, from its file, without executing the scipy.integrate
package (some 350 modules), so periodkit needs numpy alone until then and
an orbit adds that one extension.  full_return and orbit_trace import
solve_ivp, and with it scipy.integrate.

This route shares no code with the quadrature module, which is the point:
every period number here is an independent check on the singular integral.
Results are PeriodSample and OrbitTrace values; the payload format they are
written in (CSV and JSON, including the `t,x,y,H` trace) lives in report.py.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import EventMissed, ToleranceUnmet
from .model import PotentialSystem
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


_DOP = None  # scipy's compiled scipy.integrate._dop, once loaded
_DOP_LOCK = threading.Lock()


def _dop():
    """The compiled scipy.integrate._dop module, loaded from its file on the
    first call and kept here for the process, not in sys.modules: a later
    import of scipy.integrate would find it there and not set the package's
    _dop attribute.
    Finding the file imports no module: scipy's directory comes from its
    import spec.  A missing file raises ImportError naming the path."""
    global _DOP
    with _DOP_LOCK:
        if _DOP is None:
            scipy = importlib.util.find_spec("scipy")
            if scipy is None:
                raise ImportError("the ODE oracle needs scipy, which is not installed")
            path = os.path.join(os.path.dirname(scipy.origin), "integrate")
            spec = importlib.machinery.FileFinder(path, (
                importlib.machinery.ExtensionFileLoader,
                importlib.machinery.EXTENSION_SUFFIXES)).find_spec("scipy.integrate._dop")
            if spec is None:
                raise ImportError(f"no compiled extension _dop in {path}")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            _DOP = module
    return _DOP


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


def _quarter_periods(sys: PotentialSystem, xis: list[float], tol: float) -> list[float]:
    """Time at which each orbit's x first falls through 0, all orbits in one
    stacked DOP853 run."""
    t_quarter = [math.nan] * len(xis)
    live = list(range(len(xis)))
    t, state = 0.0, np.concatenate((xis, np.zeros(len(xis))))
    while live:
        n = len(live)
        up, fell = state > 0.0, np.zeros(2 * n, dtype=bool)
        t, state = _run(_stacked, t, state, 0.5 * MAX_EVENT_TIME, tol,
                        (sys.lam, np.empty(2 * n), up, fell), solout=_stop_on_fall)
        turned = np.flatnonzero(fell[n:] & (state[:n] > 0.0))
        if turned.size:
            i = int(turned[0])
            raise EventMissed(
                f"y fell through 0 at x={state[i]:.6g} > 0: the orbit from "
                f"xi={xis[live[i]]:g} does not enclose the origin (lam={sys.lam:g})")
        fell = np.flatnonzero(fell[:n])
        if not fell.size:
            raise EventMissed(
                f"no quarter-period crossing of x=0 within t={0.5 * MAX_EVENT_TIME:g} "
                f"(lam={sys.lam:g}, xi={xis[live[0]]:g})")
        start = np.append(state[n + fell], [t] * fell.size)
        crossing = _run(_section, 0.0, start, 1.0, tol, (sys.lam, state[fell]),
                        first_step=1.0)[1]
        for i, tc in zip(fell.tolist(), crossing[fell.size:].tolist()):
            t_quarter[live[i]] = tc
        keep = np.setdiff1d(np.arange(n), fell)
        live = [live[i] for i in keep]
        state = state[np.concatenate((keep, n + keep))]
    return t_quarter


def orbit_periods(sys: PotentialSystem, xis, tol: float = 1e-10) -> list[PeriodSample]:
    """Periods of the orbits through (xi, 0) for every amplitude of xis,
    measured by time integration of all of them as one stacked system."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float)).tolist()
    for xi in xis:
        if not (0.0 < xi < math.inf):
            raise ValueError(f"xi must be positive and finite, got {xi}")
    _check_tol(tol)
    return [PeriodSample(lam=sys.lam, xi=xi, h=float(sys.G(xi)), T=4.0 * tq,
                         err_est=_PERIOD_ERR_FACTOR * tol * 4.0 * tq, method="ode-oracle")
            for xi, tq in zip(xis, _quarter_periods(sys, xis, tol))]


def orbit_period(sys: PotentialSystem, xi: float, tol: float = 1e-10,
                 full_return: bool = False) -> PeriodSample:
    """Period of the orbit through (xi, 0) measured by time integration.

    Default mode is four times the quarter period, the time at which x
    first falls through 0.  full_return instead measures the spacing of two
    consecutive crossings of y = 0 from above (a full loop), as a
    cross-check on the symmetry argument.
    """
    sample = orbit_periods(sys, [xi], tol)[0]
    if not full_return:
        return sample
    from scipy.integrate import solve_ivp

    sol = solve_ivp(_rhs(sys), (0.0, 1.75 * sample.T), [xi, 0.0], method="DOP853",
                    rtol=tol, atol=tol, events=_y_falls)
    times = sol.t_events[0]
    if times.size < 2:
        raise EventMissed("full-return mode saw fewer than two section crossings")
    period = float(times[1] - times[0])
    return sample._replace(T=period, err_est=_PERIOD_ERR_FACTOR * tol * period)


def orbit_trace(sys: PotentialSystem, xi: float, tol: float = 1e-10) -> OrbitTrace:
    """One full period sampled at 2001 uniform times, with the energy drift."""
    from scipy.integrate import solve_ivp

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
