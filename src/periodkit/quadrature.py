"""Period of one orbit as a singular integral, and its derivatives.

The period of the orbit on energy level h is

    T(h) = 2*sqrt(2) * integral_0^xi dx / sqrt(h - G(x)),   h = G(xi),

whose integrand blows up like an inverse square root at the turning point
x = xi.  The substitution x = xi*sin(phi) removes the singularity, since
h - G(x) ~ g(xi)*(xi - x) there.  The substituted integrand is even in phi
and about phi = pi/2 (G is even), so it extends to an even, pi-periodic
analytic function, and the midpoint rule on [0, pi/2] is a full-period
trapezoid rule, which converges geometrically (Trefethen & Weideman,
SIAM Rev. 56, 2014).

With u = pi/4 - phi/2, a = xi*cos(u)^2 and b = xi*sin(u)^2, the depth
h - G(xi*sin(phi)) of the energy well is exactly xi^2 times

    d = sin(2u)^2/2 + 2*lam*(sin(a)/xi)*(sin(b)/xi) = sin(2u)^2/2 * w,
    w = 1 + lam*s,   s = sinc(a)*sinc(b),

so T = 2*sqrt(2) * int sin(2u)/sqrt(d) = 4 * int w^(-1/2) is exact down to
the center, T(0+) = 2*pi/sqrt(1+lam).  For lam < 0 and xi < 1, w is taken as
(1+lam) - lam*(1 - s), 1 - s from its Taylor series: two terms >= 0, which
do not cancel even at the nilpotent center lam = -1.  The deviation
T - 2*pi = -4*lam * int s / (sqrt(w)*(1 + sqrt(w))) and the derivatives,
differentiated under the integral sign, are integrals of the same kind
(d ~ 2*u^2*g(xi)/xi at the turning point keeps them analytic):

    dT/dxi  = 2*sqrt(2) * int lam*sin(2u)*(sin(b)*S(a) + sin(a)*S(b)) / (xi^3 * d^(3/2)),
    dT/dlam = 2*sqrt(2) * int -sin(2u)*sin(a)*sin(b) / (xi^2 * d^(3/2)),

with S(x) = sin(x) - x*cos(x), and T'(h) = (dT/dxi) / g(xi).  Below xi = 1
they are taken in the scale-free form

    dT/dxi  = 2*lam*xi * int (cos(u)^4*s3(a)*sinc(b) + sin(u)^4*sinc(a)*s3(b)) / w^(3/2),
    dT/dlam = -2 * int s / w^(3/2),

s3(x) = S(x)/x^3 and sinc from their series and w = (1+lam) - lam*(1 - s),
so no power of xi is left to underflow at tiny amplitudes.

The interval being the same for every amplitude, one engine, _periodic,
integrates a whole array of them at once, each stopping at its own node
count while those that share a count share each integrand evaluation.  A
scan is one call of it, a single period the same call with one amplitude,
and bessel's J1 integral another call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NoConvergence, NonMonotoneEnergy
from .model import PotentialSystem, energy_to_amplitude

SQRT8 = 2.0 * math.sqrt(2.0)
HALF_PI = 0.5 * math.pi
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)

# Rounding floor of a result, relative to the rule of |f|: the node sums,
# the node spacing and the final SQRT8 scaling each round, so no estimate
# may claim less than a few ulp.
ROUNDING_FLOOR = 2.0 * EPS

# Relative rounding of the well depth d per unit of cancellation in it (its
# terms' magnitudes over its value); d taken directly cancels most at the
# turning point, as g(xi) = xi + lam*sin(xi) does.
CANCELLATION_FLOOR = EPS / 8.0

# The smallest amplitudes: below the smallest normal double a and b lose
# their precision, and at lam = -1 w = 1 - s >= xi^2/24 leaves it below
# sqrt(24*TINY) ~ 7.3e-154 and soon underflows to 0.
XI_MIN = TINY
NILPOTENT_XI_MIN = math.sqrt(24.0 * TINY)

# Tolerance of every period and derivative integral, relative to the rule
# of |f|.  The first pass already lies past the integrand's bandwidth, so a
# valid orbit lands at rounding: any value from 1e-4 to 1e-12 changes the
# work, not the result.
REL_TOL = 1e-10

# Nodes of one integral, at most.  A valid orbit stops at its first or
# second node count; an integrand that never settles stops earlier, when
# its differences stall.
MAX_NODES = 2 ** 20

# At lam = -1 the derivatives grow like w^(-3/2) <= (24/xi^2)^(3/2), dT/dlam
# like xi^-3; a rule's sum of MAX_NODES such values stays finite above
# sqrt(24)*(MAX_NODES/max double)^(1/3) ~ 8.8e-101, the least amplitude of a
# derivative there.
NILPOTENT_DERIVATIVE_XI_MIN = math.sqrt(24.0) * (MAX_NODES / float(np.finfo(float).max)) ** (1 / 3)

# Nodes per integrand evaluation: more rows, or more nodes of one row, are
# evaluated in chunks, so memory stays bounded however many integrals arrive.
EVAL_NODES = 2 ** 15

# Taylor coefficients of S(x) = sin(x) - x*cos(x) = x^3 * sum_n c_n x^(2n),
# c_n = (-1)^n (2n+2) / (2n+3)!; below |x| = 1 nine terms reach 4e-16, where
# the direct difference keeps only eps/x^2 of relative accuracy.
_S_SERIES = tuple((-1) ** n * (2 * n + 2) / math.factorial(2 * n + 3) for n in range(9))[::-1]
# Those of x - sin(x) = x^3 * sum_n (-1)^n x^(2n) / (2n+3)!, which gives the
# sinc defect 1 - sin(x)/x near the nilpotent center.
_SIN_DEFECT = tuple((-1) ** n / math.factorial(2 * n + 3) for n in range(9))[::-1]


@dataclass(frozen=True)
class PeriodSample:
    """One measured period: both orbit coordinates, the value, an absolute
    error estimate and the route that produced it: "quadrature", or
    "ode-oracle" for oracle.orbit_period.

    On the quadrature route err_est is the difference of the last midpoint
    rule and the one on every third of its nodes, floored at the rounding
    of T (a few ulp, more where the well depth cancels at the turning
    point), so it is never zero even where every rule integrates exactly."""

    lam: float
    xi: float
    h: float
    T: float
    err_est: float
    method: str = "quadrature"
    converged: bool = True


@dataclass(frozen=True)
class DerivativeEstimate:
    """A derivative of T, or T - 2*pi, with its absolute error estimate."""

    value: float
    err_est: float


def _sinc_defect(x):
    """1 - sin(x)/x for |x| < 1, from its Taylor series."""
    x2 = x * x
    return reduce(lambda p, c: p * x2 + c, _SIN_DEFECT) * x2


def _well(sys: PotentialSystem, xi, phi):
    """(sin 2u, sin a, sin b, a, b, p, d) at the substituted nodes phi, with
    p = (sin(a)/xi)*(sin(b)/xi), for a column of amplitudes xi.  p divides at
    every node: a rounded 1/xi would shift a whole row alike, and d's
    cancellation at the center (24 at lam = -1, xi = 1) would carry it to T."""
    u = 0.25 * math.pi - 0.5 * phi
    su = np.sin(u)
    cu = np.cos(u)
    s2u = 2.0 * su * cu
    a = xi * (cu * cu)
    b = xi * (su * su)
    sa = np.sin(a)
    sb = np.sin(b)
    p = (sa / xi) * (sb / xi)
    half = 0.5 * s2u * s2u
    d = (2.0 * sys.lam) * p + half
    if sys.lam < 0.0:  # rows below xi = 1 take w from the sinc defect
        near = xi[:, 0] < 1.0
        if np.count_nonzero(near):
            da, db = _sinc_defect(np.stack((a[near], b[near])))
            d[near] = half * ((1.0 + sys.lam) - sys.lam * (da + (1.0 - da) * db))
    bad = d <= 0.0
    if np.count_nonzero(bad):
        x = float(np.broadcast_to(xi, d.shape)[bad][0])
        raise NonMonotoneEnergy(
            f"energy level dips below the potential inside (0, {x:.6g}) "
            f"(lam={sys.lam:g}); the orbit is not centered at the origin")
    return s2u, sa, sb, a, b, p, d


def _s(x, sx):
    """S(x) = sin(x) - x*cos(x) for x >= 0, given sx = sin(x) as _well
    returns it; the entries below 1 are overwritten by the Taylor series."""
    out = sx - x * np.cos(x)
    small = x < 1.0
    if np.count_nonzero(small):
        xs = x[small]
        x2 = xs * xs
        out[small] = np.polyval(_S_SERIES, x2) * x2 * xs
    return out


def _period_integrand(sys: PotentialSystem, xi, phi):
    s2u, _, _, _, _, _, d = _well(sys, xi, phi)
    return s2u / np.sqrt(d)


def _deviation_integrand(sys: PotentialSystem, xi, phi):
    # sin(2u)/sqrt(d) - sqrt(2), rationalized: 2*d - sin(2u)^2 = 4*lam*p,
    # so nothing cancels
    s2u, _, _, _, _, p, d = _well(sys, xi, phi)
    return p / (d + s2u * np.sqrt(0.5 * d)) * (-SQRT8 * sys.lam)


def _center(sys: PotentialSystem, xi, phi):
    """(cos(u)^4, sin(u)^4, sinc a, sinc b, S(a)/a^3, S(b)/b^3, w^(3/2)) at
    the nodes phi for a column of amplitudes below 1, every factor from its
    series: none holds a power of xi, so none underflows at tiny xi.  w > 0
    there, since G increases on (0, pi) for every lam >= -1."""
    u = 0.25 * math.pi - 0.5 * phi
    c2 = np.cos(u) ** 2
    s2 = np.sin(u) ** 2
    a = xi * c2
    b = xi * s2
    da, db = _sinc_defect(np.stack((a, b)))
    w = (1.0 + sys.lam) - sys.lam * (da + (1.0 - da) * db)
    return (c2 * c2, s2 * s2, 1.0 - da, 1.0 - db, np.polyval(_S_SERIES, a * a),
            np.polyval(_S_SERIES, b * b), w * np.sqrt(w))


def _by_amplitude(sys: PotentialSystem, xi, phi, direct, center):
    """direct(sys, xi, phi) on the rows of xi at or above 1 and
    center(sys, xi, phi) on those below."""
    near = xi[:, 0] < 1.0
    if not np.count_nonzero(near):
        return direct(sys, xi, phi)
    out = np.empty((xi.shape[0], phi.size))
    out[near] = center(sys, xi[near], phi)
    if not near.all():
        out[~near] = direct(sys, xi[~near], phi)
    return out


def _slope_direct(sys: PotentialSystem, xi, phi):
    # d/dxi of xi*s2u/sqrt(D) is s2u*(2D - xi*dD/dxi) / (2*D^(3/2)), and
    # 2D - xi*dD/dxi = 2*lam*(sin b * S(a) + sin a * S(b)), D = xi^2*d; lam
    # goes last, so a subnormal lam rounds once, not at every factor
    s2u, sa, sb, a, b, _, d = _well(sys, xi, phi)
    r = 1.0 / xi
    return s2u * (sb * _s(a, sa) + sa * _s(b, sb)) * r * r * r / (d * np.sqrt(d)) * sys.lam


def _slope_center(sys: PotentialSystem, xi, phi):
    c4, s4, sinc_a, sinc_b, s3a, s3b, w32 = _center(sys, xi, phi)
    return (c4 * s3a * sinc_b + s4 * sinc_a * s3b) * xi / w32 * (sys.lam / math.sqrt(2.0))


def _slope_integrand(sys: PotentialSystem, xi, phi):
    return _by_amplitude(sys, xi, phi, _slope_direct, _slope_center)


def _coupling_direct(sys: PotentialSystem, xi, phi):
    s2u, _, _, _, _, p, d = _well(sys, xi, phi)
    return -s2u * p / (d * np.sqrt(d))


def _coupling_center(sys: PotentialSystem, xi, phi):
    _, _, sinc_a, sinc_b, _, _, w32 = _center(sys, xi, phi)
    return sinc_a * sinc_b / w32 * (-1.0 / math.sqrt(2.0))


def _coupling_integrand(sys: PotentialSystem, xi, phi):
    return _by_amplitude(sys, xi, phi, _coupling_direct, _coupling_center)


def _integral(integrand, sys: PotentialSystem, xi: np.ndarray, derivative: bool = False):
    """_periodic at REL_TOL of integrand(sys, xi, phi), one integral per
    amplitude in xi; for _period_integrand that is
    integral_0^xi dx / sqrt(G(xi) - G(x)).
    Its rounding floor: where d is taken directly it cancels as g(xi) at the
    turning point, and T goes as d^-1/2; a derivative goes as d^-3/2, and
    it and the deviation T - 2*pi are carried by sin(a) and sin(b), whose
    arguments round by EPS*xi/2."""
    cancellation = np.ones(xi.size)
    direct = (xi >= 1.0) | (sys.lam >= 0.0)  # _well's rows that take d directly
    x = xi[direct]
    lsx = sys.lam * np.sin(x)
    cancellation[direct] = (x + np.abs(lsx)) / (x + lsx)
    power, phase = (1.5, 0.5 * EPS) if derivative else (0.5, 0.0)
    floor = np.maximum(ROUNDING_FLOOR, power * CANCELLATION_FLOOR * cancellation + phase * xi)
    return _periodic(lambda rows, phi: integrand(sys, xi[rows, None], phi), xi, REL_TOL, floor)


def _periodic(f, xi: np.ndarray, rel_tol: float, floor):
    """(value, err_est, converged) arrays of len(xi) integrals over
    [0, pi/2] by the midpoint rule, f(rows, v) giving integrand rows[i] at
    the nodes v in row i.  Each integrand must extend to an even, pi-periodic
    analytic function whose bandwidth is that of cos(xi*cos v).

    A pass evaluates the rule with 3N nodes, which holds the nodes of the
    rule with N; integral i starts at N = 2^ceil(log2(xi[i]/4 + 16)), so 3N
    is past the bandwidth, and N triples until |Q_3N - Q_N| <= rel_tol times
    the rule of |f|, which is |Q_3N| for a one-signed integrand and stays
    away from 0 for one whose integral vanishes.  err_est is that
    difference, floored at floor (relative rounding, one per integral or
    for all) times the rule of |f|.  An integral whose floor exceeds rel_tol,
    whose difference stops shrinking or whose next pass would pass MAX_NODES
    stops alone with converged=False.
    """
    n = xi.size
    value, err, converged = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    rows = np.arange(n)
    floor = floor + np.zeros(n)
    nodes = 3 * np.minimum(np.exp2(np.ceil(np.log2(0.25 * xi + 16.0))), MAX_NODES // 4).astype(int)
    # a difference at least the last one has stopped shrinking; one whose
    # floor exceeds rel_tol has nothing to shrink to, and stops at once
    last = np.where(floor > rel_tol, -math.inf, math.inf)
    while rows.size:
        q, coarse, scale = _midpoint(f, rows, nodes)
        diff = np.abs(q - coarse)
        e = np.maximum(diff, floor[rows] * scale)
        ok = e <= np.maximum(rel_tol * scale, TINY)  # subnormals hold no relative precision
        done = ok | (diff >= last) | (3 * nodes > MAX_NODES)
        out = rows[done]
        value[out], err[out], converged[out] = q[done], e[done], ok[done]
        go = ~done
        rows, nodes, last = rows[go], 3 * nodes[go], diff[go]
    return value, err, converged


def _midpoint(f, rows, nodes):
    """Midpoint rules on [0, pi/2] for the integrals rows, nodes[i] nodes
    for rows[i]: those of f, of f on every third node (the rule with a third
    as many nodes) and of |f|.  The rows that share a node count are
    evaluated together, at most EVAL_NODES nodes per evaluation of f."""
    q = np.zeros((3, rows.size))
    for n in sorted(set(nodes.tolist())):
        at = np.flatnonzero(nodes == n)
        h = HALF_PI / n
        width = min(n, EVAL_NODES)
        for j in range(0, n, width):
            v = (np.arange(j, min(j + width, n)) + 0.5) * h
            for i in range(0, at.size, EVAL_NODES // width):
                part = at[i:i + EVAL_NODES // width]
                fx = f(rows[part], v)
                q[:, part] += [h * fx.sum(axis=1), 3.0 * h * fx[:, (1 - j) % 3::3].sum(axis=1),
                               h * np.abs(fx).sum(axis=1)]
    return q


def require_converged(sample: PeriodSample) -> PeriodSample:
    """sample itself, or NoConvergence carrying it when it is flagged."""
    if not sample.converged:
        raise NoConvergence(
            f"period quadrature is rounding-limited or passed {MAX_NODES} nodes "
            f"at xi={sample.xi:.6g}, lam={sample.lam:g}",
            best=sample.T, err_est=sample.err_est, sample=sample)
    return sample


def _amplitudes(sys: PotentialSystem, xi, nilpotent_min: float = NILPOTENT_XI_MIN) -> np.ndarray:
    xi = np.asarray(xi, dtype=float).ravel()
    least = nilpotent_min if sys.lam == -1.0 else XI_MIN
    bad = ~((xi >= least) & (xi < math.inf))
    if np.count_nonzero(bad):
        raise ValueError(f"xi must be finite, >= {least!r} at lam={sys.lam:g}, got {xi[bad][0]}")
    return xi


def period_samples(sys: PotentialSystem, xi) -> list[PeriodSample]:
    """Periods of the orbits through (x, 0) for every amplitude x > 0 of the
    array xi, in one pass of the engine.  A sample that did not converge is
    returned flagged (converged=False) with its best estimate, not raised."""
    xi = _amplitudes(sys, xi)
    return _samples(sys, xi, sys.G(xi).tolist())


def period_at_amplitude(sys: PotentialSystem, xi: float) -> PeriodSample:
    """Period of the orbit through (xi, 0), xi > 0."""
    xi = _amplitudes(sys, xi)
    return require_converged(_samples(sys, xi, [float(sys.G(xi[0]))])[0])


def period_at_energy(sys: PotentialSystem, h: float) -> PeriodSample:
    """Period of the orbit on energy level h > 0."""
    xi = _amplitudes(sys, energy_to_amplitude(sys, h))
    return require_converged(_samples(sys, xi, [h])[0])


def _samples(sys, xi, hs):
    value, err, converged = _integral(_period_integrand, sys, xi)
    return [PeriodSample(lam=sys.lam, xi=x, h=h, T=SQRT8 * v, err_est=SQRT8 * e, converged=c)
            for x, h, v, e, c in zip(xi.tolist(), hs, value.tolist(), err.tolist(),
                                     converged.tolist())]


def _estimates(integrand, sys: PotentialSystem, xi, what: str = "derivative",
               nilpotent_min: float = NILPOTENT_DERIVATIVE_XI_MIN):
    xi = _amplitudes(sys, xi, nilpotent_min)
    value, err, converged = _integral(integrand, sys, xi, derivative=True)
    if np.count_nonzero(~converged):
        i = int(np.argmin(converged))
        raise NoConvergence(
            f"{what} quadrature is rounding-limited or passed {MAX_NODES} nodes "
            f"at xi={xi[i]:.6g}, lam={sys.lam:g}",
            best=SQRT8 * float(value[i]), err_est=SQRT8 * float(err[i]))
    return [DerivativeEstimate(value=SQRT8 * v, err_est=SQRT8 * e)
            for v, e in zip(value.tolist(), err.tolist())]


def period_deviations(sys: PotentialSystem, xi) -> list[DerivativeEstimate]:
    """T - 2*pi at every amplitude x > 0 of the array xi, to its own relative
    accuracy however close T lies to 2*pi; raises like period_slopes."""
    return _estimates(_deviation_integrand, sys, xi, "deviation", NILPOTENT_XI_MIN)


def period_slopes(sys: PotentialSystem, xi) -> list[DerivativeEstimate]:
    """dT/dxi at every amplitude x > 0 of the array xi, in one pass of the
    engine; raises NoConvergence at the first one that did not converge."""
    return _estimates(_slope_integrand, sys, xi)


def period_slope(sys: PotentialSystem, xi: float) -> DerivativeEstimate:
    """dT/dxi at the amplitude xi > 0; its sign is that of T'(h)."""
    return _estimates(_slope_integrand, sys, xi)[0]


def coupling_slope(sys: PotentialSystem, xi: float) -> DerivativeEstimate:
    """dT/dlam at the amplitude xi > 0, the amplitude held fixed."""
    return _estimates(_coupling_integrand, sys, xi)[0]


def period_derivative(sys: PotentialSystem, h: float) -> float:
    """T'(h) = (dT/dxi) / g(xi) on the energy level h > 0.  Below xi = 1,
    g(xi) = xi + lam*sin(xi) cancels as lam -> -1, so it is taken there as
    xi*((1+lam) - lam*(1 - sin(xi)/xi)), the sinc defect from its series."""
    xi = energy_to_amplitude(sys, h)
    g = (xi * ((1.0 + sys.lam) - sys.lam * _sinc_defect(xi))
         if xi < 1.0 else float(sys.g(xi)))
    return period_slope(sys, xi).value / g
