"""Bessel function of the first kind of order one, self-contained.

Two independent evaluation routes, so every J1 number used elsewhere in the
toolkit has an internal oracle:

  * power series      sum_m (-1)^m / (m! (m+1)!) (xi/2)^(2m+1)
  * periodic integral (1/(2*pi)) * integral_0^{2pi} sin(xi cos s) cos s ds

The series is summed with Kahan compensation and kept below xi = 14, where
alternating-term cancellation still leaves ~11 correct digits; one pass sums
a whole array of arguments (a single one is a one-element pass), each
stopping at its own term.  The integral route is the periods' engine,
quadrature._periodic: a full-period trapezoid rule on an entire integrand,
which converges geometrically, doubling until it agrees with the rule on
every other node; one call serves an array of arguments, each stopping at
its own node count, its integrand reading s from the engine's node pair.
Both routes floor their bounds at the value's rounding.

identity_gap measures the identity integral_0^{2pi} sin(xi cos s) cos s ds
= 2*pi*J1(xi) on [0, SERIES_MAX_ARG] for the CLI's `bessel identity`, J1
from the series at every point: one series and one trapezoid pass, which
share no code.  The verification report checks the series against the
period's coupling derivative at lam = 0 instead.  This module returns
numbers only; the payload format lives in report.py.

Zeros are bracketed from the zeros (k + 1/4)*pi of the large-argument form
sqrt(2/(pi*xi)) * cos(xi - 3*pi/4), started from McMahon's expansion and
refined all together by the analysis module's batched straddle steps, one
series and one trapezoid pass per step; no tabulated constants enter.  Near
xi = 10 the series rounds by more than J1 changes across a straddling pair,
whose secant the steps then set aside for the slope of the parabola through
the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import TWO_PI, _straddle
from .errors import BracketFailure, NoConvergence, RangeExceeded
from .quadrature import EPS, ROUNDING_FLOOR, _periodic

SERIES_MAX_ARG = 14.0     # cancellation guard
SERIES_SWITCH = 12.0      # dispatcher hands off to the integral above this
TRAPEZOID_TOL = 1e-13
IDENTITY_TOL = 1e-10      # bound on |variational_integral - 2*pi*J1|
ZERO_REL_TOL = 1e-14     # a zero's final bracket, relative


@dataclass(frozen=True)
class BesselEval:
    xi: float
    value: float
    method: str
    err_bound: float


def _require_arg(xi: float) -> None:
    if not (0.0 <= xi < math.inf):
        raise ValueError(f"xi must be finite and >= 0, got {xi}")


def j1_series(xi: float) -> BesselEval:
    """Power-series evaluation, valid for 0 <= xi <= 14: the array pass
    _series on the one argument xi."""
    _require_arg(xi)
    if xi > SERIES_MAX_ARG:
        raise RangeExceeded(f"series route limited to xi <= {SERIES_MAX_ARG:g}, got {xi:g}")
    xi = abs(xi)  # -0.0 as 0.0, as j1_integral has it
    value, err = (float(v[0]) for v in _series(np.array([xi], dtype=float)))
    return BesselEval(xi=xi, value=value, method="series", err_bound=err)


def _series(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The power series sum_m t_m, t_{m+1} = -t_m (xi/2)^2 / ((m+1)(m+2)),
    at every argument of the array xi in one compensated elementwise pass:
    (values, err_bounds).  Each argument stops at its first negligible term;
    its bound is that term plus 0.5*EPS*sum|t_m|, floored at EPS*|value|."""
    # float_power rounds as a scalar (0.5*xi)**2 does; np.square differs
    # in the last bit for about one argument in a thousand
    q = np.float_power(0.5 * xi, 2)
    term = 0.5 * xi
    total, comp, abs_mass = term, np.zeros_like(xi), np.abs(term)
    value, last, mass = np.empty_like(xi), np.empty_like(xi), np.empty_like(xi)
    todo = np.arange(xi.size)
    for m in range(200):
        nxt = -term * q / ((m + 1) * (m + 2))
        done = np.abs(nxt) <= 1e-16 * np.maximum(np.abs(total), 1e-18)
        if done.any():
            stop = todo[done]
            value[stop], last[stop], mass[stop] = total[done], nxt[done], abs_mass[done]
            go = ~done
            todo, q, nxt, total, comp, abs_mass = (
                todo[go], q[go], nxt[go], total[go], comp[go], abs_mass[go])
            if todo.size == 0:
                break
        y = nxt - comp                        # Kahan step
        t = total + y
        comp = (t - total) - y
        total, term, abs_mass = t, nxt, abs_mass + np.abs(nxt)
    else:
        value[todo], last[todo], mass[todo] = total, term, abs_mass
    return value, np.maximum(np.abs(last) + 0.5 * EPS * mass, EPS * np.abs(value))


def _variational(xi) -> tuple[np.ndarray, np.ndarray]:
    """integral_0^{2pi} sin(x cos s) cos s ds for every argument x of the
    array xi, and its error estimate: (values, err_ests).  The integrand is
    even and pi-periodic, so this is 4 times the integral over [0, pi/2],
    taken to TRAPEZOID_TOL relative to that of |sin(x cos s) cos s|."""
    xi = np.asarray(xi, dtype=float)
    value, err, ok = _periodic(lambda rows, nodes: np.sin(xi[rows, None] * np.cos(nodes[0]))
                               * np.cos(nodes[0]), xi, TRAPEZOID_TOL, ROUNDING_FLOOR)
    if not ok.all():
        i = int(np.argmin(ok))
        raise NoConvergence(f"periodic trapezoid did not converge at xi={xi[i]:.6g}",
                            best=4.0 * float(value[i]), err_est=4.0 * float(err[i]))
    return 4.0 * value, 4.0 * err


def variational_integral(xi: float) -> float:
    """integral_0^{2pi} sin(xi cos s) cos s ds.

    This is the stationarity integral of the period under the sine coupling
    at the linear center; it equals 2*pi*J1(xi), so its zeros in xi are the
    positive zeros of J1.
    """
    _require_arg(xi)
    return float(_variational([xi])[0][0])


def j1_integral(xi: float) -> BesselEval:
    """Integral-representation evaluation, any xi >= 0, by the periodic
    trapezoid.

    err_bound is the engine's error estimate, floored at the rounding of the
    value: each node's argument xi*cos(s) rounds by about EPS*xi, so no
    bound may claim less than EPS*(1 + xi) (the difference alone can be
    exactly 0)."""
    _require_arg(xi)
    if xi == 0.0:
        return BesselEval(xi=0.0, value=0.0, method="integral", err_bound=0.0)
    raw, diff = (float(v[0]) for v in _variational([xi]))
    return BesselEval(xi=xi, value=raw / TWO_PI, method="integral",
                      err_bound=max(diff / TWO_PI, EPS * (1.0 + xi)))


def j1(xi: float) -> BesselEval:
    """Dispatcher: series up to xi = 12, integral representation beyond."""
    if xi <= SERIES_SWITCH:
        return j1_series(xi)
    return j1_integral(xi)


def _j1_values(xi: np.ndarray) -> np.ndarray:
    """J1 at every argument of the array xi as the dispatcher routes it: one
    series pass up to SERIES_SWITCH, one trapezoid pass beyond."""
    out = np.empty_like(xi)
    low = xi <= SERIES_SWITCH
    if low.any():
        out[low] = _series(xi[low])[0]
    if not low.all():
        out[~low] = _variational(xi[~low])[0] / TWO_PI
    return out


def j1_zeros(n: int) -> list[float]:
    """First n positive zeros, bracketed by beta +- pi/2 around the
    asymptotic cosine zeros beta = (k + 1/4)*pi (widened by pi/2 where J1
    keeps its sign) and refined together by _straddle on J1 to
    ZERO_REL_TOL, each started from McMahon's expansion in 1/(8*beta)
    (Abramowitz & Stegun 9.5.12)."""
    if n < 1:
        raise ValueError("need n >= 1")
    guess = (np.arange(1, n + 1) + 0.25) * math.pi
    w = 1.0 / (8.0 * guess) ** 2
    start = guess - (3.0 + w * (-12.0 + w * (113184 / 15 - w * 374632128 / 105))) / (8.0 * guess)
    lo, hi = guess - 0.5 * math.pi, guess + 0.5 * math.pi
    for _ in range(2):
        f_lo, f_hi = np.split(_j1_values(np.concatenate((lo, hi))), 2)
        same = f_lo * f_hi > 0.0
        if not same.any():
            return _straddle(_j1_values, lo, hi, f_lo, f_hi, start, ZERO_REL_TOL).tolist()
        lo[same] -= 0.5 * math.pi
        hi[same] += 0.5 * math.pi
    k = int(np.argmax(same))
    raise BracketFailure(f"no sign change around zero #{k + 1} near {guess[k]:.4f}")


def identity_gap(xi_max: float, n: int) -> float:
    """max |variational_integral(x) - 2*pi*J1(x)| over n >= 2 equispaced x
    in [0, xi_max], xi_max <= SERIES_MAX_ARG, with J1 from the power series
    at every x: one trapezoid and one series pass.  IDENTITY_TOL bounds it.
    Beyond SERIES_MAX_ARG the only J1 left is the integral itself, so a
    larger xi_max raises RangeExceeded."""
    if not (0.0 < xi_max < math.inf):
        raise ValueError(f"xi_max must be positive and finite, got {xi_max}")
    if xi_max > SERIES_MAX_ARG:
        raise RangeExceeded(f"identity sweep limited to xi_max <= {SERIES_MAX_ARG:g}, got {xi_max:g}")
    if n < 2:
        raise ValueError(f"identity grid needs n >= 2 points, got {n}")
    xs = np.linspace(0.0, xi_max, n)
    return float(np.max(np.abs(_variational(xs)[0] - TWO_PI * _series(xs)[0])))

