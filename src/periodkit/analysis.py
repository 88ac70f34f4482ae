"""Global analysis of the period function along the annulus.

Everything here works in the amplitude coordinate xi (the abscissa of the
orbit's crossing with the positive x-axis, h = G(xi)): since
dT/dxi = g(xi) * dT/dh and g > 0 on the validated window, sign decisions
about T' transfer freely between the two parametrizations.

The analysis rests on two families of distinguished amplitudes:

  * xi = 2k*pi,        energy h_k    = 2 (k*pi)^2,            T >= 2*pi
  * xi = (2k+1)*pi,    energy hbar_k = (2k+1)^2 pi^2/2 + 2*lam, T <= 2*pi

(inequalities as written for lam > 0; both flip for lam in (-1, 0)).  Each
pair brackets at least one energy with T = 2*pi, and between consecutive
sign-changing 2*pi-levels the derivative T' must vanish, which is how the
critical periods are located and counted.  Both searches are one, _search:
one engine call samples T - 2*pi on the level grids and dT/dxi on the slope
grid, each row with the bits and the error of its kind's call alone, and all
sign changes of both are refined together by _straddle, each bracket to its
own tolerance, started at no call from the root of the cubic through its 4
nearest grid points.  Each further call takes a pair p -+ d around every open
bracket's iterate p: a pair of opposite signs closes its bracket, and one of
a single sign narrows it and gives the Newton step, its secant the slope.
Three calls closed every bracket of verify at each coupling measured in
[-0.99, 4.5] (bessel.j1_zeros refines with _straddle too).  A slope that
does not converge ends the extremum search there, not the levels'.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (AmbiguousBracket, BracketFailure, DegenerateIsochronous, NoConvergence,
                     SignViolation)
from .model import PotentialSystem, _brent, energy_to_amplitude, require_valid
from .quadrature import (_COUPLING, _DEVIATION, _SLOPE, EPS, DerivativeEstimate, PeriodSample,
                         _estimates, _one_estimate, period_deviations, period_samples)

TWO_PI = 2.0 * math.pi

SCAN_STEP = math.pi / 8.0          # 2*pi-levels sit ~pi apart at large xi
CRITICAL_REFINE_REL = 1e-8         # refine_err <= 1e-8 * xi_star
LEVEL_REFINE_REL = 1e-12           # a 2*pi-level's amplitude, relative
SIGN_VIOLATION_FACTOR = 10.0
# calls of one refinement: one per binade of the normal doubles, so room for
# bisection alone to close any bracket of them
REFINE_MAXITER = 2046


@dataclass(frozen=True)
class CriticalPeriod:
    """A refined extremum of T: T' changes sign across
    [xi_star - refine_err, xi_star + refine_err].  dev_star = T_star - 2*pi
    from the deviation integral keeps the digits T_star rounds away."""

    xi_star: float
    h_star: float
    T_star: float
    kind: str                      # "max" iff T' goes + -> -
    refine_err: float
    dev_star: float


@dataclass(frozen=True)
class TwoPiBracket:
    """One bracketing pair (h_lo, h_hi) with the measured deviations
    dev = T - 2*pi at the ends, their error estimates and their signs;
    sign_lo * sign_hi <= 0 whenever the center is valid."""

    k: int
    h_lo: float
    h_hi: float
    sign_lo: int
    sign_hi: int
    T_lo: float
    T_hi: float
    err_lo: float
    err_hi: float
    dev_lo: float
    dev_hi: float
    degenerate: bool = False


@dataclass(frozen=True)
class LowEnergyReport:
    """Residuals of T(h) against its expansion at the center,
    T0 + T0'*h, plus empirical convergence orders between consecutive
    energies (expect ~2: the remainder is O(h^2)), and the err_est of each
    residual: one within its err_est is rounding noise."""

    lam: float
    h: tuple[float, ...]
    T: tuple[float, ...]
    residual: tuple[float, ...]
    orders: tuple[float, ...]
    err_est: tuple[float, ...] = ()


def scan_period(sys: PotentialSystem, xi_min: float, xi_max: float, n: int) -> list[PeriodSample]:
    """n period samples at uniformly spaced amplitudes, ordered by xi, from
    one pass of the batched quadrature.

    Points where the quadrature fails to converge are kept and flagged
    (converged=False) rather than dropped.
    """
    if not (0.0 < xi_min < xi_max < math.inf):
        raise ValueError(f"need 0 < xi_min < xi_max < inf, got {xi_min}, {xi_max}")
    if n < 2:
        raise ValueError("need n >= 2")
    require_valid(sys, xi_max)
    return period_samples(sys, np.linspace(xi_min, xi_max, n))


def find_critical_periods(sys: PotentialSystem, xi_max: float) -> list[CriticalPeriod]:
    """Locate and classify the extrema of T on (0, xi_max].

    dT/dxi is sampled on a grid of step pi/8 in one batched quadrature;
    all sign changes are refined together by Newton steps that straddle
    their iterate, on dT/dxi to within refine_err <= 1e-8 * xi_star
    (_search, _straddle).  A slope of exactly 0 on the grid between slopes
    of opposite signs is an extremum itself.
    Sign changes where both endpoint slopes drown in their own error
    estimates are reported via the AmbiguousBracket warning and skipped.
    lam = 0 is the isochronous center: the empty list is returned without
    any zero-hunting.
    """
    if not (0.0 < xi_max < math.inf):
        raise ValueError(f"xi_max must be positive and finite, got {xi_max}")
    if sys.lam == 0.0:
        return []
    require_valid(sys, xi_max + 1.0)
    _, criticals, failure = _search(sys, [], xi_max)
    if failure is not None:
        raise failure
    return criticals


def _search(sys: PotentialSystem, brackets: list[TwoPiBracket], xi_max: float | None):
    """(levels, extrema, failure): the 2*pi-levels inside brackets and the
    extrema of T on (0, xi_max] (none if xi_max is None), found together.

    One engine call takes T - 2*pi on the 7 inner points of each bracket's
    9-point grid (the ends are the bracket's) and dT/dxi on the pi/8 grid;
    one _straddle run takes every sign change of both, each kind to its own
    tolerance, one engine call per step, each bracket started at the root of
    the cubic through its 4 nearest grid points (_nearest4, _cubic_start).
    A grid value of exactly 0 is the root of the one cell it starts, and a
    slope of 0 between slopes of opposite signs an extremum, so each zero is
    one root.  Every row keeps the bits of its own kind's call.  failure is
    the NoConvergence that stopped the extremum search, leaving no extrema,
    else None: from it on each call takes the level rows alone and every
    slope reads 0, which closes its bracket, so the levels finish in the
    same refinement; a level row that does not converge raises.
    """
    failure = None

    def values(xd, xs):  # the level rows first, then the slopes, 0 after a failure
        nonlocal failure
        if failure is None:
            try:
                return _estimates(sys, (_DEVIATION, xd), (_SLOPE, xs))
            except NoConvergence as exc:
                failure = exc
        if not xd.size:  # no level row left: no engine call
            return np.zeros(xs.size), np.zeros(xs.size)
        return tuple(np.pad(v, (0, xs.size)) for v in _estimates(sys, (_DEVIATION, xd)))

    ends = np.reshape([bracket_amplitudes(br.k) for br in brackets], (-1, 2))
    grids = np.linspace(ends[:, 0], ends[:, 1], 9, axis=1)
    grid = np.arange(SCAN_STEP, xi_max + 1e-12, SCAN_STEP) if xi_max is not None else np.empty(0)
    value, err = values(grids[:, 1:-1].ravel(), grid)
    n = value.size - grid.size
    devs = np.column_stack(([br.dev_lo for br in brackets], value[:n].reshape(-1, 7),
                            [br.dev_hi for br in brackets]))
    # cell j of a bracket is [x_j, x_j+1], its last [x_8, x_8]: a zero value
    # is the root of the one cell it starts; a product of signs does not underflow
    x0, d0 = grids.ravel(), devs.ravel()
    x1, d1 = (np.column_stack((v[:, 1:], v[:, -1:])).ravel() for v in (grids, devs))
    cross = np.flatnonzero((d0 == 0.0) | (np.sign(d0) * np.sign(d1) < 0.0))

    # T' changes sign across [grid[l], grid[r]]: a cell, or the two around a
    # slope that is exactly 0, which is then the root of the cell it starts
    slopes = value[n:]
    sign = np.sign(slopes)
    flat = (sign[1:-1] == 0.0) & (sign[:-2] * sign[2:] < 0.0)
    l = np.sort(np.concatenate((np.flatnonzero(sign[:-1] * sign[1:] < 0.0), np.flatnonzero(flat))))
    r = l + 1 + (sign[l + 1] == 0.0)
    drowned = np.abs(slopes) < err[n:]
    drowned = drowned[l] & drowned[r]
    for k in np.flatnonzero(drowned):
        warnings.warn(
            f"T' sign change on [{grid[l[k]]:.6g}, {grid[r[k]]:.6g}] is below "
            f"its error estimate at both ends; not refined",
            AmbiguousBracket)
    l, i = l[~drowned], r[~drowned] - 1

    slope, xrtol = np.repeat([False, True], [cross.size, i.size]), 0.5 * CRITICAL_REFINE_REL
    lo, hi = np.concatenate((x0[cross], grid[i])), np.concatenate((x1[cross], grid[i + 1]))
    f_lo, f_hi = np.concatenate((d0[cross], slopes[i])), np.concatenate((d1[cross], slopes[i + 1]))
    # the cubic starts of both kinds in one pass; a slope grid of fewer than
    # 4 points leaves its brackets to regula falsi
    cells = [_nearest4(grids, devs, cross)]
    if grid.size >= 4:
        cells.append(_nearest4(grid[None], slopes[None], i))
    start = _cubic_start(*(np.concatenate(v) for v in zip(*cells)))
    start = np.pad(start, (0, lo.size - start.size), constant_values=np.nan)
    # x holds the level rows before the slopes, as values returns them
    roots = _straddle(lambda x, slope: values(x[~slope], x[slope])[0], lo, hi, f_lo, f_hi, start,
                      np.where(slope, xrtol, LEVEL_REFINE_REL), (slope,))
    levels, xi_star = sorted(sys.G(roots[~slope]).tolist()), roots[slope & (failure is None)]
    try:  # after a failure no slope root is kept; a failed deviation ends the extremum search
        dev_star = period_deviations(sys, xi_star)[0].tolist() if xi_star.size else []
    except NoConvergence as exc:
        xi_star, dev_star, failure = roots[:0], [], exc
    return levels, [CriticalPeriod(xi_star=x, h_star=h, T_star=TWO_PI + d, dev_star=d,
                                   kind="max" if v > 0.0 else "min",
                                   refine_err=(xrtol + 4.0 * EPS) * x)
                    for x, h, d, v in zip(xi_star.tolist(), sys.G(xi_star).tolist(), dev_star,
                                          slopes[l])], failure


def _straddle(f, lo, hi, f_lo, f_hi, start, xrtol, args=()) -> np.ndarray:
    """The root of f in each bracket [lo, hi] whose end values f_lo, f_hi
    differ in sign, by Newton steps that straddle their iterate p.  Each
    call f(x, *args) takes the pair p -+ d, d = 0.45*xrtol*|p|, of every
    open bracket (xrtol one per bracket, or one for all), x pair by pair and
    each of args (an array of one entry per bracket) repeated alike.  A pair
    whose signs differ closes its bracket, its member with the smaller |f|
    the root, within 0.9*xrtol*|p| of a sign change.  A pair of one sign
    narrows the bracket to its member xn on the root's side, and p moves to
    the root next to xn of the parabola through xn, with the pair's secant
    for its slope, and through the end xn replaced (Newton's step where
    that parabola has none).  A pair's secant is rounding noise where it
    lies farther from the slope s3 of the parabola through xn and both ends
    than 1% of s3 plus 10 times the gap between the secants from xn to the
    two ends; s3 then stands in for it.  Bisection takes over where a step
    leaves the bracket or does not halve the step before.  p starts at
    start, or by regula falsi where start is not inside its bracket.  The
    ends keep the values given: a zero end is its own root, and a pair
    member on an end is not evaluated, since a quadrature can round an ulp
    apart in another batch and undo a sign change of a value near zero.  A
    lost sign change, a NaN or REFINE_MAXITER calls raise BracketFailure."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    a, b, fa, fb, p = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi, start))
    zero = (fa == 0.0) | (fb == 0.0)
    held = zero | (np.sign(fa) * np.sign(fb) < 0.0)
    if not held.all():
        j = int(np.argmin(held))
        raise BracketFailure(f"root refinement on [{lo[j]:.6g}, {hi[j]:.6g}] "
                             f"lost its sign change at x = {lo[j]:.17g}")
    root, todo = np.where(fa == 0.0, a, b), np.flatnonzero(~zero)
    if not todo.size:
        return root
    xrtol = np.broadcast_to(xrtol, lo.shape)
    a, b, fa, fb, p, xrtol, *args = (v[todo] for v in (a, b, fa, fb, p, xrtol, *args))
    p = np.where((a < p) & (p < b), p, a - (b - a) * (fa / (fb - fa)))
    sign_a, step = np.sign(fa), np.full(todo.size, np.inf)
    for _ in range(REFINE_MAXITER):
        d, x = 0.45 * xrtol * np.abs(p), np.empty((p.size, 2))
        np.maximum(p - d, a, out=x[:, 0])
        np.minimum(p + d, b, out=x[:, 1])
        if (x[:, 0] != a).all() and (x[:, 1] != b).all():
            fx = f(x.ravel(), *(np.repeat(v, 2) for v in args)).reshape(-1, 2)
        else:
            fx, inner = np.column_stack((fa, fb)), x != np.column_stack((a, b))
            if inner.any():
                fx[inner] = f(x[inner], *(np.repeat(v, 2)[inner.ravel()] for v in args))
        if np.isnan(fx).any():
            j = int(np.argmax(np.isnan(fx).any(axis=1)))
            raise BracketFailure(f"root refinement on [{lo[todo[j]]:.6g}, {hi[todo[j]]:.6g}] "
                                 f"lost its sign change at x = {p[j]:.17g}")
        x0, x1, f0, f1 = x[:, 0], x[:, 1], fx[:, 0], fx[:, 1]
        sign = np.sign(f0)
        closed = sign * np.sign(f1) <= 0.0
        if closed.any():
            root[todo[closed]] = np.where(np.abs(f1) < np.abs(f0), x1, x0)[closed]
            if closed.all():
                return root
        # a pair of fa's sign has the root past its upper member: xn, the
        # end xo it replaces, the end xf that stays, and the new ends
        xn, fn, xo, fo, xf, ff, a, fa, b, fb = np.where(sign == sign_a,
                                                       (x1, f1, a, fa, b, fb, x1, f1, b, fb),
                                                       (x0, f0, b, fb, a, fa, a, fa, x0, f0))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            so, sf = (fn - fo) / (xn - xo), (ff - fn) / (xf - xn)
            s3 = so + (sf - so) * ((xn - xo) / (xf - xo))
            pair = (f1 - f0) / (x1 - x0)
            noise = np.abs(pair - s3) > 0.01 * np.abs(s3) + 10.0 * np.abs(sf - so)
            slope = np.where(noise, s3, pair)
            # Newton's step u, shrunk by the parabola's curvature, in ratios
            # that do not underflow
            u = fn / slope
            w = 1.0 - 4.0 * u * (so / slope - 1.0) / (xo - xn)
            newton = xn - np.where(w >= 0.0, 2.0 * u / (1.0 + np.sqrt(w)), u)
        dx = np.abs(newton - xn)
        safe = (a < newton) & (newton < b) & (dx < 0.5 * step)
        p, step = np.where(safe, newton, 0.5 * a + 0.5 * b), np.where(safe, dx, np.inf)
        if closed.any():
            go = ~closed
            todo, a, b, fa, fb, p, xrtol, sign_a, step, *args = (
                v[go] for v in (todo, a, b, fa, fb, p, xrtol, sign_a, step, *args))
    raise BracketFailure(f"root refinement on [{lo[todo[0]]:.6g}, {hi[todo[0]]:.6g}] "
                         f"did not converge in {REFINE_MAXITER} calls")


def _nearest4(x, y, left):
    """The 4 points of the grid rows x, y (at least 4 each) nearest each
    cell [left, left + 1], left a flat index into x, and the place of the
    cell's left end among them."""
    m = x.shape[-1]
    row, col = np.divmod(left, m)
    first = np.clip(col - 1, 0, m - 4)
    j = (row * m + first)[:, None] + np.arange(4)
    # a level's last cell [x_8, x_8] takes [x_7, x_8]
    return x.ravel()[j], y.ravel()[j], np.minimum(col - first, 2)


def _cubic_start(xs, ys, end) -> np.ndarray:
    """A start for _straddle in each cell [xs[end], xs[end + 1]] at no
    call: the root of the cubic through the 4 points xs, ys of its row, from
    inverse interpolation through them (regula falsi where that leaves the
    cell) by two Newton steps on the cubic, each kept where it stays in the
    cell."""
    n = np.arange(end.size)
    a, b, fa, fb = xs[n, end], xs[n, end + 1], ys[n, end], ys[n, end + 1]
    c = ys.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for o in range(1, 4):  # Newton's divided differences, in place
            c[:, o:] = (c[:, o:] - c[:, o - 1:-1]) / (xs[:, o:] - xs[:, :-o])
        # Lagrange's weight of x_i at y = 0: the product of y_j/(y_j - y_i)
        # over j != i, each a ratio of like values that cannot underflow
        ratio = ys[:, None, :] / (ys[:, None, :] - ys[:, :, None])
        ratio[:, range(4), range(4)] = 1.0
        t = np.sum(xs * np.prod(ratio, axis=2), axis=1)
        t = np.where((a < t) & (t < b), t, a - (b - a) * (fa / (fb - fa)))
        for _ in range(2):
            dv, v = c[:, 3], c[:, 3] * (t - xs[:, 2]) + c[:, 2]
            for o in (1, 0):
                dv = dv * (t - xs[:, o]) + v
                v = v * (t - xs[:, o]) + c[:, o]
            newton = t - v / dv
            t = np.where((a < newton) & (newton < b), newton, t)
    return t


def _sign_with_tol(value: float, err: float) -> int:
    if abs(value) <= err:
        return 0
    return 1 if value > 0.0 else -1


def bracket_amplitudes(k: int) -> tuple[float, float]:
    """The distinguished amplitudes (2k*pi, (2k+1)*pi) for index k >= 1."""
    return 2.0 * k * math.pi, (2.0 * k + 1.0) * math.pi


def two_pi_brackets(sys: PotentialSystem, k_max: int) -> list[TwoPiBracket]:
    """The first k_max bracketing pairs with measured deviations and signs.

    All 2*k_max ends are measured in one batched call of the deviation
    integral, which does not round at the ulp of 2*pi however small lam is;
    each end's sign is that of its deviation beyond its error estimate, 0
    within it.  Raises NoConvergence if an end's integral does not
    converge, and SignViolation if a deviation contradicts the inequality
    its end is supposed to satisfy by more than 10x its error estimate; that
    means the computation, not the orbit, is wrong.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    require_valid(sys, (2.0 * k_max + 1.0) * math.pi + 1.0)

    direction = 0 if sys.lam == 0.0 else (1 if sys.lam > 0.0 else -1)
    # bracket_amplitudes(k) for k = 1..k_max, one array
    devs, errs = (a.reshape(-1, 2).tolist() for a in period_deviations(
        sys, np.arange(2, 2 * k_max + 2) * math.pi))
    out = []
    for k, (dev_lo, dev_hi), (err_lo, err_hi) in zip(range(1, k_max + 1), devs, errs):
        h_lo = 2.0 * (k * math.pi) ** 2
        h_hi = 0.5 * ((2 * k + 1) * math.pi) ** 2 + 2.0 * sys.lam
        for end, side, dev, err in (("h", 1, dev_lo, err_lo), ("hbar", -1, dev_hi, err_hi)):
            if side * direction * dev < -SIGN_VIOLATION_FACTOR * err:
                raise SignViolation(f"T({end}_{k}) - 2*pi = {dev:.3e} violates its inequality "
                                    f"(lam={sys.lam:g}, err={err:.3e})")
        sign_lo = _sign_with_tol(dev_lo, err_lo)
        sign_hi = _sign_with_tol(dev_hi, err_hi)
        out.append(TwoPiBracket(
            k=k, h_lo=h_lo, h_hi=h_hi, sign_lo=sign_lo, sign_hi=sign_hi,
            T_lo=TWO_PI + dev_lo, T_hi=TWO_PI + dev_hi, err_lo=err_lo, err_hi=err_hi,
            dev_lo=dev_lo, dev_hi=dev_hi, degenerate=(sign_lo == 0 and sign_hi == 0)))
    return out


def find_two_pi_levels(sys: PotentialSystem, brackets: list[TwoPiBracket]) -> list[float]:
    """Energies h with T(h) = 2*pi, at least one per bracket of two_pi_brackets.

    Each bracket is scanned at amplitude step pi/8 between its measured
    ends, the inner points of all brackets in one batched quadrature; all
    sign changes of T - 2*pi are refined together by Newton steps that
    straddle their iterate (_straddle) to 1e-12 relative in the amplitude,
    so extra crossings inside a bracket are picked up too; a grid value of
    exactly 0 is one level.
    The scan and the refinement take T - 2*pi from the deviation integral,
    which does not round at the ulp of 2*pi however small lam is.  Levels
    are returned strictly increasing.
    """
    if sys.lam == 0.0:
        raise DegenerateIsochronous(
            "lam = 0: T is identically 2*pi, every energy is a 2*pi-level")
    return _search(sys, brackets, None)[0]


def small_h_check(sys: PotentialSystem, h_list) -> LowEnergyReport:
    """Residual of T against the center expansion at each requested energy.

    R(h) = T(h) - T(0+) - T'(0+) h, taken as (T - 2*pi) - (T(0+) - 2*pi) -
    T'(0+) h from the deviation integral, so it does not round at the ulp of
    T; orders[i] is the empirical exponent from (h[i], h[i+1]).  Energies
    must sit in the expansion's turf (h <= 0.1) and the center must be
    elementary (lam > -1), otherwise T(0+) is not finite.
    """
    if sys.lam <= -1.0:
        raise ValueError("expansion residuals need an elementary center (lam > -1)")
    hs = [float(h) for h in h_list]
    if any(h <= 0.0 or h > 0.1 for h in hs):
        raise ValueError("each energy must lie in (0, 0.1]")
    root = math.sqrt(1.0 + sys.lam)
    dev0 = -TWO_PI * sys.lam / (root * (1.0 + root))  # T(0+) - 2*pi
    dt0 = sys.center_asymptotics()[1]
    xs = [energy_to_amplitude(sys, h) for h in hs]
    devs, errs = (a.tolist() for a in period_deviations(sys, xs))
    res = [d - dev0 - dt0 * h for d, h in zip(devs, hs)]
    orders = [math.nan if r0 == 0.0 or r1 == 0.0 or h0 == h1
              else math.log(abs(r0 / r1)) / math.log(h0 / h1)
              for r0, r1, h0, h1 in zip(res, res[1:], hs, hs[1:])]
    return LowEnergyReport(lam=sys.lam, h=tuple(hs), T=tuple(TWO_PI + d for d in devs),
                           residual=tuple(res), orders=tuple(orders), err_est=tuple(errs))


def opial_indicator(sys: PotentialSystem, x):
    """Derivative of G(x)/x^2, the even-potential monotonicity witness:

        lam * (x sin x - 2 + 2 cos x) / x^3,

    with the removable-singularity branch lam*(-x/12 + x^3/180) below 1e-4.
    A monotone period function would force this to keep one sign on all of
    (0, inf); it changes sign, so T cannot be monotone.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & (x < math.inf)):  # NaN fails both
        raise ValueError("x must be positive and finite")
    small = x < 1e-4
    xs = np.where(small, 1.0, x)
    direct = _indicator_numerator(xs) / xs ** 3
    series = -x / 12.0 + x ** 3 / 180.0
    out = sys.lam * np.where(small, series, direct)
    return float(out) if out.ndim == 0 else out


def _indicator_numerator(x):
    # x sin x - 2 + 2 cos x, with 2 - 2 cos x written as 4 sin(x/2)^2 so the
    # O(x^4) cancellation happens between O(x^2) operands, not around 2
    s = np.sin(0.5 * x)
    return x * np.sin(x) - 4.0 * s * s


def opial_sign_changes(sys: PotentialSystem, x_max: float) -> list[float]:
    """Zeros of the indicator numerator x sin x - 2 + 2 cos x on (0, x_max].

    The set always contains x = 2k*pi (where 1 - cos x and sin x both
    vanish); the remaining zeros solve tan(x/2) = x/2.  lam only scales the
    indicator, so the zero set is parameter-free.
    """
    if not (TWO_PI < x_max < math.inf):
        raise ValueError(f"x_max must be finite and exceed 2*pi, got {x_max}")
    step = math.pi / 100.0
    grid = np.arange(step, x_max + step, step)
    grid[-1] = min(grid[-1], x_max)
    vals = _indicator_numerator(grid)
    # a node where the numerator is exactly zero is a zero itself; a strict
    # sign change is refined on its interval
    zeros = []
    for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)).tolist():
        a, b = float(grid[i]), float(grid[i + 1])
        zeros.append(a if vals[i] == 0.0
                     else _brent(_indicator_numerator, a, b, 1e-13 * max(1.0, b)))
    return zeros


def lam_derivative_at_zero(xi: float) -> DerivativeEstimate:
    """dT/dlam at lam = 0 and fixed amplitude, as one integral.

    At the linear center it equals -2*pi*J1(xi)/xi (first-order perturbation
    of the linear center), so its zeros in xi are the positive zeros of J1
    and its xi -> 0 limit is -pi.
    """
    return _one_estimate(PotentialSystem(0.0), _COUPLING, xi)
