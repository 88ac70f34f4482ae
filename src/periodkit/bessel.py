"""Bessel function of the first kind of order one, self-contained.

Three independent evaluation routes so every J1 number used elsewhere in the
toolkit has an internal oracle:

  * power series      sum_m (-1)^m / (m! (m+1)!) (xi/2)^(2m+1)
  * periodic integral (1/(2*pi)) * integral_0^{2pi} sin(xi cos s) cos s ds
  * large-argument    sqrt(2/(pi*xi)) * cos(xi - 3*pi/4)

The series is summed with Kahan compensation and kept below xi = 14, where
alternating-term cancellation still leaves ~11 correct digits.  The integral
route is the equispaced trapezoidal rule on a periodic entire integrand, so
it converges geometrically under node doubling.  The asymptotic route carries
an error bound C * xi^(-3/2) with C calibrated once against the dispatcher
on [10, 100].

Zeros are bracketed from the asymptotic cosine (guesses (k + 1/4)*pi) and
refined by Brent's method; no tabulated constants enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .errors import BracketFailure, NoConvergence, RangeExceeded

TWO_PI = 2.0 * math.pi

SERIES_MAX_ARG = 14.0     # cancellation guard
SERIES_SWITCH = 12.0      # dispatcher hands off to the integral above this
TRAPEZOID_TOL = 1e-13
TRAPEZOID_MAX_NODES = 2 ** 20
ASYMPTOTIC_MIN_ARG = 1.0
_CALIBRATION_SAFETY = 1.25


@dataclass(frozen=True)
class BesselEval:
    xi: float
    value: float
    method: str
    err_bound: float


def _kahan_add(total: float, comp: float, term: float) -> tuple[float, float]:
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def j1_series(xi: float, tol: float = 1e-16) -> BesselEval:
    """Power-series evaluation, valid for 0 <= xi <= 14.

    Terms follow the recurrence t_{m+1} = -t_m (xi/2)^2 / ((m+1)(m+2)) and
    are accumulated with compensated summation.  err_bound is the first
    omitted term plus a roundoff allowance proportional to the largest
    cancelling partial magnitude.
    """
    if xi < 0.0:
        raise ValueError("xi must be >= 0")
    if xi > SERIES_MAX_ARG:
        raise RangeExceeded(f"series route limited to xi <= {SERIES_MAX_ARG:g}, got {xi:g}")
    if xi == 0.0:
        return BesselEval(xi=0.0, value=0.0, method="series", err_bound=0.0)

    q = (0.5 * xi) ** 2
    term = 0.5 * xi
    total, comp = term, 0.0
    abs_mass = abs(term)
    m = 0
    while m < 200:
        term = -term * q / ((m + 1) * (m + 2))
        if abs(term) <= tol * max(abs(total), 1e-18):
            break
        total, comp = _kahan_add(total, comp, term)
        abs_mass += abs(term)
        m += 1
    err = abs(term) + 0.5 * np.finfo(float).eps * abs_mass
    return BesselEval(xi=xi, value=total, method="series", err_bound=err)


def _trapezoid_doubling(f, n0: int, tol: float) -> tuple[float, float, int]:
    """Equispaced trapezoid on [0, 2*pi) with node doubling until successive
    values agree to tol (absolute).  Geometric for periodic entire f."""
    n = max(int(n0), 4)
    s = np.linspace(0.0, TWO_PI, n, endpoint=False)
    prev = TWO_PI * float(np.mean(f(s)))
    while n <= TRAPEZOID_MAX_NODES:
        n *= 2
        s = np.linspace(0.0, TWO_PI, n, endpoint=False)
        cur = TWO_PI * float(np.mean(f(s)))
        diff = abs(cur - prev)
        if diff <= tol:
            return cur, diff, n
        prev = cur
    raise NoConvergence(f"periodic trapezoid exceeded {TRAPEZOID_MAX_NODES} nodes",
                        best=prev)


def variational_integral(xi: float, tol: float = TRAPEZOID_TOL) -> float:
    """integral_0^{2pi} sin(xi cos s) cos s ds.

    This is the stationarity integral of the period under the sine coupling
    at the linear center; it equals 2*pi*J1(xi), so its zeros in xi are the
    positive zeros of J1.
    """
    if xi < 0.0:
        raise ValueError("xi must be >= 0")
    if xi == 0.0:
        return 0.0
    value, _, _ = _trapezoid_doubling(lambda s: np.sin(xi * np.cos(s)) * np.cos(s),
                                      16, tol * TWO_PI)
    return value


def j1_integral(xi: float, n: int = 16) -> BesselEval:
    """Integral-representation evaluation, any xi >= 0; n is the starting
    node count (>= 16) for the doubling trapezoid."""
    if xi < 0.0:
        raise ValueError("xi must be >= 0")
    if n < 16:
        raise ValueError("starting node count must be >= 16")
    if xi == 0.0:
        return BesselEval(xi=0.0, value=0.0, method="integral", err_bound=0.0)
    raw, diff, _ = _trapezoid_doubling(lambda s: np.sin(xi * np.cos(s)) * np.cos(s),
                                       n, TRAPEZOID_TOL * TWO_PI)
    return BesselEval(xi=xi, value=raw / TWO_PI, method="integral",
                      err_bound=diff / TWO_PI)


def j1(xi: float) -> BesselEval:
    """Dispatcher: series up to xi = 12, integral representation beyond."""
    if xi <= SERIES_SWITCH:
        return j1_series(xi)
    return j1_integral(xi)


def j1_asymptotic(xi: float) -> BesselEval:
    """Large-argument form sqrt(2/(pi*xi)) * cos(xi - 3*pi/4), xi >= 1."""
    if xi < ASYMPTOTIC_MIN_ARG:
        raise ValueError(f"asymptotic route needs xi >= {ASYMPTOTIC_MIN_ARG:g}")
    value = math.sqrt(2.0 / (math.pi * xi)) * math.cos(xi - 0.75 * math.pi)
    return BesselEval(xi=xi, value=value, method="asymptotic",
                      err_bound=asymptotic_error_constant() * xi ** -1.5)


@lru_cache(maxsize=1)
def asymptotic_error_constant() -> float:
    """C such that |j1_asymptotic - J1| <= C * xi^(-3/2) on [10, 100],
    measured against the dispatcher on a dense grid and padded."""
    grid = np.linspace(10.0, 100.0, 1801)
    worst = 0.0
    for x in grid:
        diff = abs(j1_asymptotic_raw(float(x)) - j1(float(x)).value)
        worst = max(worst, diff * float(x) ** 1.5)
    return _CALIBRATION_SAFETY * worst


def j1_asymptotic_raw(xi: float) -> float:
    return math.sqrt(2.0 / (math.pi * xi)) * math.cos(xi - 0.75 * math.pi)


def j1_zeros(n: int) -> list[float]:
    """First n positive zeros, bracketed from the asymptotic cosine zeros
    (k + 1/4)*pi +- pi/2 and refined by Brent's method on the dispatcher."""
    if n < 1:
        raise ValueError("need n >= 1")
    zeros = []
    for k in range(1, n + 1):
        guess = (k + 0.25) * math.pi
        lo, hi = guess - 0.5 * math.pi, guess + 0.5 * math.pi
        lo = max(lo, 1e-3)
        if j1(lo).value * j1(hi).value > 0.0:
            lo = max(lo - 0.5 * math.pi, 1e-3)
            hi = hi + 0.5 * math.pi
            if j1(lo).value * j1(hi).value > 0.0:
                raise BracketFailure(f"no sign change around zero #{k} near {guess:.4f}")
        zeros.append(brentq(lambda x: j1(x).value, lo, hi, xtol=1e-12))
    return zeros


def ode_residual(xi: float, step: float = 1e-3) -> float:
    """Residual of Bessel's order-one equation at xi >= 0.5:

        xi^2 x'' + xi x' + (xi^2 - 1) x,   x = J1,

    with derivatives from 5-point central differences.  All five stencil
    points use a single evaluation route (series or integral, chosen by the
    center point) so the route switch cannot inject a second-difference jump.
    """
    if xi < 0.5:
        raise ValueError("residual check needs xi >= 0.5")
    if xi <= SERIES_SWITCH - 0.1:
        f = lambda x: j1_series(x).value
    else:
        f = lambda x: j1_integral(x).value
    d = step
    fm2, fm1, f0, fp1, fp2 = (f(xi - 2 * d), f(xi - d), f(xi), f(xi + d), f(xi + 2 * d))
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * d)
    d2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * d * d)
    return xi * xi * d2 + xi * d1 + (xi * xi - 1.0) * f0
