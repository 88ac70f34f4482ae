"""Brute-force period measurement by direct time integration.

Integrates x' = -y, y' = g(x) with scipy's compiled DOP853, Hairer's code
for the explicit Runge-Kutta 8(5,3) pair of Dormand and Prince, with its
stages, error norm and step control in C (deterministic given identical
inputs), called directly rather than through scipy.integrate.ode, and
measures the quarter period as the time the orbit from (xi, 0) takes to
reach the section x = 0.  g is odd, so (x, y) -> (-x, -y) maps
the flow to itself, and so does (x, y, t) -> (x, -y, -t): the orbit is
symmetric about both axes and the full period is exactly four quarter
periods.  The section is crossed transversally, since y = sqrt(2h) > 0
at x = 0.

Every crossing of a section x = x_t is located by Hénon's step (M.
Hénon, Physica D 5 (1982) 412): the run stops after the first accepted step
whose end x_end lies on or past the section, and with x as the independent
variable dy/dx = -g(x)/y and dt/dx = -1/y are integrated from that step's
end back to x = x_t by the same integrator at the same tolerance, which
lands on the section exactly.  Written in u, x = x_t + (x_end - x_t)*(1 -
u), every crossing runs from u = 0 to u = 1, so all crossings of a run share
one Hénon run.  The compiled integrator has no dense output and keeps the
callback of its current run in one slot per thread, so it is not re-entrant
and the Hénon run follows the stepper's run once it has returned; threads
may run orbits concurrently.

One orbit (orbit_period in both modes, orbit_trace, the CLI's oracle
command) is one run from (xi, 0), stopped at each fall of x or y from > 0
to <= 0: a fall of x through 0 is located on x_t = 0, a fall of y at x > 0
means the orbit turned back before x = 0 and does not enclose the origin
(EventMissed at once), and a fall of y at x = -xi, half way round a full
loop, only restarts the run.  The quarter period is the first crossing;
full_return takes the time between the first two, which relies on no
symmetry.  The run is never bounded by a period from elsewhere: it ends at
the crossing asked for, or at MAX_EVENT_TIME/2, where the half period
passes MAX_EVENT_TIME.  orbit_trace runs one orbit over [0, T] and keeps
every accepted step; up to the quarter-period crossing these are the steps
of the run that measured T, so the energy drift over them vouches for that
run.

orbit_periods, the batch verify checks, cuts each quarter period into ARCS
arcs of about equal time: arc i starts on the orbit at x_i =
xi*cos(i*pi/(2*ARCS)), with y_i = sqrt(2*(G(xi) - G(x_i))) > 0 (y_0 = 0),
and ends on the section x = x_(i+1) (x_ARCS = 0).  The seeds assume energy
conservation, which the one-orbit routes do not: full_return, which
assumes no symmetry and no seed, and the drift of orbit_trace keep that
assumption checked.  All arcs of all orbits start at tau = 0 as one stacked
system, each orbit in its own time unit tau = t/c, c = (g(xi)/xi)^(-1/2)
the inverse frequency at its turning point, so that every orbit turns at
about one radian per unit and a slow orbit no longer sets the pace of the
fast ones.  The step is capped at (pi/2)/ARCS in tau, an arc's time at lam
= 0, so that the Hénon run stays short and no step end passes the turning
point x = -xi, a quarter period past the section.  The run keeps each arc's
first step end on or past its section and stops once every arc has one,
so it lasts as long as the longest arc and needs no restart; one Hénon run
in real time then locates every crossing, starting each from c times the
tau of its step end, and a quarter period is the sum of its arc times.  An
orbit with a seed above its energy (G(x_i) > G(xi)), or with g(xi) <= 0 at
its turning point, where it has no time unit, raises EventMissed naming it
before any run.  After the run, so does an arc whose y fell through 0
before its section, a quarter period past MAX_EVENT_TIME/2, or an arc that
has not crossed by then; the run goes on to tau = (MAX_EVENT_TIME/2)/c for
the smallest c of the batch, at least that much real time for every orbit.

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

# Arcs per quarter period in orbit_periods: over perfbench's verify ops,
# 8, 10, 12, 14 and 16 arcs took 148, 87, 74, 66 and 81 stepper plus 24, 26,
# 26, 42 and 41 Hénon rhs calls per op, 12 the least time.
ARCS = 12

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
    holds every orbit's (or arc's) x, then every y.  It is the oracle's
    inner loop, called once per stage, so it splits the state by slicing and
    writes through ufuncs in place, entering no Python frame but its own.
    The solout's state rides along unused."""
    n = s.size // 2
    x, g = s[:n], out[n:]
    np.negative(s[n:], out[:n])
    np.sin(x, g)
    g *= lam
    g += x
    return out


def _scaled(t, s, lam, out, unit, *_):
    """Right-hand side of the batch's stacked system in each orbit's own
    time unit: _stacked's, times unit, which holds each component's c."""
    _stacked(t, s, lam, out)
    out *= unit
    return out


def _check_tol(tol: float) -> None:
    if not (1e-12 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-12, 1e-6], got {tol:g}")


def _check_xi(xi: float) -> None:
    if not (0.0 < xi < math.inf):
        raise ValueError(f"xi must be positive and finite, got {xi}")


def _stop_on_fall(t, s, lam, out, up, fell):
    """Stop after the first accepted step in which x or y of a one-orbit
    run fell from > 0 to <= 0, marking it in fell; up holds which were > 0."""
    np.less_equal(s, 0.0, out=fell)
    fell &= up
    np.greater(s, 0.0, out=up)
    return -1 if fell.any() else 0


def _stop_on_sections(t, s, lam, out, unit, x_t, up, fell, crossed, at):
    """Keep each arc's first accepted step end on or past its section, x <=
    x_t, as (t, x, y) in the columns of at, marking it in crossed; stop once
    every arc has crossed, or at once when some arc's y fell from > 0 to <=
    0 before it crossed, marking that arc in fell (up holds which y were >
    0)."""
    m = x_t.size
    x, y = s[:m], s[m:]
    np.less_equal(y, 0.0, out=fell)
    fell &= up
    fell &= ~crossed
    np.greater(y, 0.0, out=up)
    new = x <= x_t
    new &= ~crossed
    if new.any():
        at[0, new] = t
        at[1, new] = x[new]
        at[2, new] = y[new]
        crossed |= new
    return -1 if fell.any() or crossed.all() else 0


def _section(u, s, lam, out, x_t, x_end):
    """Hénon's right-hand side for crossings of the sections x = x_t, with x
    = x_t + (x_end - x_t)*(1 - u) as the independent variable, u from 0 at
    each step's end x_end to 1 on its section: the state holds every
    crossing's y, then its t, and dy/du = (x_end - x_t)*g(x)/y, dt/du =
    (x_end - x_t)/y, written into out[:2n] with x in out[2n:] (out holds 3n
    entries for n crossings).  At x_t = 0 this is x_end*(1 - u), bit for
    bit."""
    n = x_end.size
    g, dt, x = out[:n], out[n:2 * n], out[2 * n:]
    np.subtract(x_end, x_t, dt)
    np.multiply(dt, 1.0 - u, x)
    x += x_t
    dt /= s[:n]
    np.sin(x, g)
    g *= lam
    g += x
    g *= dt
    return out[:2 * n]


def _dop():  # the compiled scipy.integrate._dop module the runs call
    return _scipy_extension("integrate", "_dop")


_FAILURES = {-1: "input is not consistent", -2: "larger nsteps is needed",
             -3: "step size becomes too small", -4: "problem is probably stiff"}


def _run(fcn, t0: float, state: np.ndarray, t1: float, tol: float, args: tuple,
         solout=None, first_step: float = 0.0, max_step: float = 0.0):
    """Integrate s' = fcn(t, s, *args) from (t0, state) to t1 by the compiled
    DOP853, or until solout(t, s, *args) returns -1 after an accepted step:
    (t, state).  max_step caps the step (0: t1 - t0).  A failed run raises
    ToleranceUnmet.

    The compiled dop853 keeps a reference to the fcn and solout of every run
    for good, so both are module-level functions and a run's own state
    reaches them through args, which it does not keep (a closure per run, or
    scipy.integrate.ode's new bound method per run, would be kept alive)."""
    work = np.zeros(11 * state.size + 21)
    # safety factor, step-size change limits and first step as scipy's
    # dop853 integrator sets them
    work[1:4] = 0.9, 0.3, 6.0
    work[5:7] = max_step, first_step
    t, state, istate = _dop().dopri853(fcn, t0, state, t1, tol, tol, solout,
                                       int(solout is not None), work,
                                       np.zeros(21, dtype=np.int32), MAX_STEPS, -1, args)
    if istate < 0:
        raise ToleranceUnmet(
            f"integrator failed: {_FAILURES.get(istate, 'unknown failure')} (istate {istate})")
    return t, state


def _no_crossing(sys: PotentialSystem, xi: float) -> EventMissed:
    return EventMissed(f"no quarter-period crossing of x=0 within t={0.5 * MAX_EVENT_TIME:g} "
                       f"(lam={sys.lam:g}, xi={xi:g})")


def _falls(sys: PotentialSystem, xi: float, tol: float, count: int) -> list[float]:
    """Times of the first count falls of x through 0 on one DOP853 run of
    the orbit through (xi, 0), restarted after each fall of x or y."""
    falls = []
    t, state = 0.0, np.array([xi, 0.0])
    while len(falls) < count:
        up, fell = state > 0.0, np.zeros(2, dtype=bool)
        t, state = _run(_stacked, t, state, 0.5 * MAX_EVENT_TIME, tol,
                        (sys.lam, np.empty(2), up, fell), solout=_stop_on_fall)
        if not fell.any():
            raise _no_crossing(sys, xi)
        if fell[1] and state[0] > 0.0:
            raise EventMissed(
                f"y fell through 0 at x={state[0]:.6g} > 0: the orbit from "
                f"xi={xi:g} does not enclose the origin (lam={sys.lam:g})")
        if fell[0]:  # else y fell through 0 at x = -xi, half way round a loop
            crossing = _run(_section, 0.0, np.array([state[1], t]), 1.0, tol,
                            (sys.lam, np.empty(3), 0.0, state[:1]), first_step=1.0)[1]
            falls.append(float(crossing[1]))
    return falls


def _quarters(sys: PotentialSystem, xis: list[float], tol: float) -> list[float]:
    """Quarter periods of the orbits through (xi, 0), each the sum of the
    times of its ARCS arcs, all arcs as one stacked DOP853 run in their
    orbits' own time units, its step capped at (pi/2)/ARCS, and one Hénon
    run onto their sections."""
    if not xis:
        return []
    n, m = len(xis), len(xis) * ARCS
    xi = np.array(xis)
    x = np.multiply.outer(xi, np.cos(np.arange(ARCS) * (0.5 * math.pi / ARCS))).ravel()
    x_t = np.zeros(m)
    x_t[:-1] = x[1:]
    x_t[ARCS - 1::ARCS] = 0.0
    depth = np.repeat(sys.G(xi), ARCS) - sys.G(x)
    depth[::ARCS] = 0.0  # each orbit starts at rest on its turning point
    below = np.flatnonzero(depth < 0.0)
    if below.size:
        i = int(below[0])
        raise EventMissed(
            f"G(x={x[i]:.6g}) exceeds the energy: the orbit from xi={xis[i // ARCS]:g} "
            f"does not enclose the origin (lam={sys.lam:g})")
    g = sys.g(xi)
    flat = np.flatnonzero(g <= 0.0)
    if flat.size:  # the orbit rests on its turning point or leaves it outwards
        i = int(flat[0])
        if g[i] == 0.0:
            raise _no_crossing(sys, xis[i])
        raise EventMissed(
            f"g(xi={xis[i]:g}) = {g[i]:.6g} < 0: the orbit from xi={xis[i]:g} "
            f"does not enclose the origin (lam={sys.lam:g})")
    unit = np.repeat(np.sqrt(xi / g), ARCS)  # c of each arc's orbit
    y = np.sqrt(2.0 * depth)
    up, fell, crossed, at = y > 0.0, np.zeros(m, dtype=bool), np.zeros(m, dtype=bool), np.empty((3, m))
    state = _run(_scaled, 0.0, np.concatenate((x, y)), 0.5 * MAX_EVENT_TIME / unit.min(), tol,
                 (sys.lam, np.empty(2 * m), np.tile(unit, 2), x_t, up, fell, crossed, at),
                 solout=_stop_on_sections, max_step=0.5 * math.pi / ARCS)[1]
    if fell.any():
        i = int(np.flatnonzero(fell)[0])
        raise EventMissed(
            f"y fell through 0 at x={state[i]:.6g} before the section x={x_t[i]:.6g}: the "
            f"orbit from xi={xis[i // ARCS]:g} does not enclose the origin (lam={sys.lam:g})")
    if not crossed.all():
        raise _no_crossing(sys, xis[int(np.argmin(crossed)) // ARCS])
    times = _run(_section, 0.0, np.concatenate((at[2], unit * at[0])), 1.0, tol,
                 (sys.lam, np.empty(3 * m), x_t, at[1]), first_step=1.0)[1][m:]
    quarters = [math.fsum(arcs) for arcs in times.reshape(n, ARCS).tolist()]
    for amp, q in zip(xis, quarters):
        if q > 0.5 * MAX_EVENT_TIME:
            raise _no_crossing(sys, amp)
    return quarters


def _sample(sys: PotentialSystem, xi: float, T: float, tol: float) -> PeriodSample:
    return PeriodSample(lam=sys.lam, xi=xi, h=float(sys.G(xi)), T=T,
                        err_est=_PERIOD_ERR_FACTOR * tol * T, method="ode-oracle")


def _periods(sys: PotentialSystem, xi: float, tol: float, count: int) -> tuple[PeriodSample, float]:
    """Period of the orbit through (xi, 0) from the first count falls of its
    x through 0 on one run: four times the first (count 1) or the spacing of
    the first two (count 2), with four times its first fall, the
    quarter-period T, which a full loop's run measures on its way.  A full
    loop that differs from that T by more than the sum of their err_est
    raises ToleranceUnmet naming both."""
    xi = float(xi)
    _check_xi(xi)
    _check_tol(tol)
    f = _falls(sys, xi, tol, count)
    quarters = _sample(sys, xi, 4.0 * f[0], tol)
    if count == 1:
        return quarters, quarters.T
    loop = _sample(sys, xi, f[1] - f[0], tol)
    if abs(loop.T - quarters.T) > loop.err_est + quarters.err_est:
        raise ToleranceUnmet(
            f"the full loop {loop.T!r} and four quarter periods {quarters.T!r} differ by more "
            f"than their err_est {loop.err_est:.3e} and {quarters.err_est:.3e} "
            f"(lam={sys.lam:g}, xi={xi:g}, tol={tol:g})")
    return loop, quarters.T


def orbit_periods(sys: PotentialSystem, xis, tol: float = 1e-10) -> list[PeriodSample]:
    """Periods of the orbits through (xi, 0) for every amplitude of xis,
    each four times the sum of its arc times, all arcs integrated as one
    stacked system."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float)).tolist()
    for xi in xis:
        _check_xi(xi)
    _check_tol(tol)
    return [_sample(sys, xi, 4.0 * q, tol) for xi, q in zip(xis, _quarters(sys, xis, tol))]


def orbit_period(sys: PotentialSystem, xi: float, tol: float = 1e-10,
                 full_return: bool = False) -> PeriodSample:
    """Period of the orbit through (xi, 0) measured by time integration on
    one run.

    Default mode is four times the quarter period, the time at which x
    first falls through 0.  full_return instead measures the time between
    the first and the second fall of x through 0 (a full loop) on the same
    run, as a cross-check on the symmetry argument.  Both modes run on the
    compiled DOP853 and load nothing of scipy but its _dop extension.
    """
    return _periods(sys, xi, tol, 2 if full_return else 1)[0]


def _record(t, s, lam, out, steps):
    """Keep every accepted step (t, x, y) of a one-orbit run in steps."""
    steps.append((t, s[0], s[1]))
    return 0


def orbit_trace(sys: PotentialSystem, xi: float, tol: float = 1e-10) -> OrbitTrace:
    """One full period as the accepted steps of one compiled DOP853 run over
    [0, T], non-uniform in t, with the energy drift over them.  Up to the
    quarter-period crossing they are the steps orbit_period's own run takes."""
    return _trace(sys, xi, tol, _periods(sys, xi, tol, 1)[1])


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
