"""Period of one orbit as a singular integral, and its derivatives.

The period of the orbit on energy level h is

    T(h) = 2*sqrt(2) * integral_0^xi dx / sqrt(h - G(x)),   h = G(xi),

whose integrand blows up like an inverse square root at the turning point
x = xi.  The substitution x = xi*sin(phi) removes the singularity: at a
simple turning point h - G(x) ~ g(xi)*(xi - x), so the substituted integrand
is analytic.  Written as xi / sqrt((h - G(xi*sin(phi))) / cos(phi)^2), it is
even in phi and about phi = pi/2 (G is even), so it extends to an even,
pi-periodic analytic function, and the midpoint rule on [0, pi/2] is a
full-period trapezoid rule, which converges geometrically (Trefethen &
Weideman, SIAM Rev. 56, 2014).  The lam = -1 origin limit is handled too,
because the turning point stays simple for every h > 0.

Writing u = pi/4 - phi/2, a = xi*cos(u)^2 and b = xi*sin(u)^2, the depth of
the energy well below the level h is evaluated in the cancellation-free
product form

    D = h - G(xi*sin(phi)) = (xi*sin(2u))^2 / 2 + 2*lam*sin(a)*sin(b),

an exact identity: no subtraction of nearly equal numbers survives, so the
integrand keeps full double precision all the way into the turning point.

Because the substituted interval no longer depends on xi or lam, the
derivatives of T are integrals of the same kind, differentiated under the
integral sign; D ~ 2*u^2*xi*g(xi) at the turning point keeps them analytic:

    dT/dxi  = 2*sqrt(2) * int lam*sin(2u)*(sin(b)*S(a) + sin(a)*S(b)) / D^(3/2),
    dT/dlam = 2*sqrt(2) * int -xi*sin(2u)*sin(a)*sin(b) / D^(3/2),

with S(x) = sin(x) - x*cos(x), and T'(h) = (dT/dxi) / g(xi).

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

# Below this energy, relative to (1+lam)^2 near the nilpotent center,
# quadrature cancellation beats the O(h^2) truncation of the local expansion,
# so the expansion wins.
SMALL_ENERGY_GUARD = 1e-10

# Relative rounding of the well depth D per unit of cancellation in it
# (its terms' magnitudes over its value).  Near the nilpotent center
# (lam -> -1, xi -> 0) the cancellation reaches 24/xi^2; there T and dT/dxi
# miss 30-digit references by at most 0.9 times the floor this gives them.
CANCELLATION_FLOOR = EPS / 8.0

# Tolerance of every period and derivative integral, relative to the rule
# of |f|.  The first pass already lies past the integrand's bandwidth, so a
# valid orbit lands at rounding: any value from 1e-4 to 1e-12 changes the
# work, not the result.
REL_TOL = 1e-10

# Nodes of one integral, at most.  A valid orbit stops at its first or
# second node count; an integrand that never settles stops earlier, when
# its differences stall.
MAX_NODES = 2 ** 20

# Nodes per integrand evaluation: more rows, or more nodes of one row, are
# evaluated in chunks, so memory stays bounded however many integrals arrive.
EVAL_NODES = 2 ** 15

# Taylor coefficients of S(x) = sin(x) - x*cos(x) = x^3 * sum_n c_n x^(2n),
# c_n = (-1)^n (2n+2) / (2n+3)!; below |x| = 1 nine terms reach 4e-16, where
# the direct difference keeps only eps/x^2 of relative accuracy.
_S_SERIES = tuple((-1) ** n * (2 * n + 2) / math.factorial(2 * n + 3) for n in range(9))[::-1]
# Those of x - sin(x), for g near the nilpotent center, are (-1)^n / (2n+3)!.
_SIN_DEFECT = tuple((-1) ** n / math.factorial(2 * n + 3) for n in range(9))[::-1]


@dataclass(frozen=True)
class PeriodSample:
    """One measured period: both orbit coordinates, the value, an absolute
    error estimate and the route that produced it.

    On the quadrature route err_est is the difference of the last midpoint
    rule and the one on every third of its nodes, floored at the rounding
    of T (a few ulp, more where the well depth cancels), so it is never zero
    there even where every rule integrates exactly.  Below
    SMALL_ENERGY_GUARD * min(1, (1+lam)^2) (method "expansion") T is the
    center expansion T(0+) + T'(0+)*h and err_est its O(h^2) truncation,
    scaled by the same factor and floored the same way."""

    lam: float
    xi: float
    h: float
    T: float
    err_est: float
    method: str = "quadrature"
    converged: bool = True


@dataclass(frozen=True)
class DerivativeEstimate:
    """A derivative of T with its absolute error estimate."""

    value: float
    err_est: float


def _well(sys: PotentialSystem, xi, phi):
    """(sin 2u, sin a, sin b, a, b, D) at the substituted nodes phi; xi is
    one amplitude or a column of them, each taking a row of nodes phi."""
    u = 0.25 * math.pi - 0.5 * phi
    su = np.sin(u)
    cu = np.cos(u)
    s2u = 2.0 * su * cu
    a = xi * (cu * cu)
    b = xi * (su * su)
    sa = np.sin(a)
    sb = np.sin(b)
    d = 0.5 * (xi * s2u) ** 2 + 2.0 * sys.lam * sa * sb
    bad = d <= 0.0
    if np.count_nonzero(bad):
        x = float(np.broadcast_to(xi, d.shape)[bad][0])
        raise NonMonotoneEnergy(
            f"energy level dips below the potential inside (0, {x:.6g}) "
            f"(lam={sys.lam:g}); the orbit is not centered at the origin")
    return s2u, sa, sb, a, b, d


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
    s2u, _, _, _, _, d = _well(sys, xi, phi)
    return xi * s2u / np.sqrt(d)


def _slope_integrand(sys: PotentialSystem, xi, phi):
    # d/dxi of xi*s2u/sqrt(D) is s2u*(2D - xi*dD/dxi) / (2*D^(3/2)), and
    # 2D - xi*dD/dxi = 2*lam*(sin b * S(a) + sin a * S(b)); lam goes last,
    # so a subnormal lam rounds once, not at every factor
    s2u, sa, sb, a, b, d = _well(sys, xi, phi)
    return s2u * (sb * _s(a, sa) + sa * _s(b, sb)) / (d * np.sqrt(d)) * sys.lam


def _coupling_integrand(sys: PotentialSystem, xi, phi):
    s2u, sa, sb, _, _, d = _well(sys, xi, phi)
    return -xi * s2u * sa * sb / (d * np.sqrt(d))


def _integral(integrand, sys: PotentialSystem, xi: np.ndarray, derivative: bool = False):
    """_periodic at REL_TOL of integrand(sys, xi, phi), one integral per
    amplitude in xi; for _period_integrand that is
    integral_0^xi dx / sqrt(G(xi) - G(x)).
    Its rounding floor: D cancels as h = G(xi) does at the center and as
    g(xi) at the turning point, and T goes as D^-1/2; a derivative goes as
    D^-3/2 and also carries sin(a) and sin(b), whose arguments round by
    EPS*xi/2."""
    lam, half, s2, sx = sys.lam, 0.5 * xi * xi, 2.0 * np.sin(0.5 * xi) ** 2, np.sin(xi)
    cancellation = np.maximum((half + abs(lam) * s2) / (half + lam * s2),
                              (xi + np.abs(lam * sx)) / (xi + lam * sx))
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


def _amplitudes(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float).ravel()
    bad = ~((xi > 0.0) & (xi < math.inf))
    if np.count_nonzero(bad):
        raise ValueError(f"xi must be positive and finite, got {xi[bad][0]}")
    return xi


def period_samples(sys: PotentialSystem, xi) -> list[PeriodSample]:
    """Periods of the orbits through (x, 0) for every amplitude x > 0 of the
    array xi, in one pass of the engine.  A sample that did not converge is
    returned flagged (converged=False) with its best estimate, not raised."""
    xi = _amplitudes(xi)
    return _samples(sys, xi, sys.G(xi).tolist())


def period_at_amplitude(sys: PotentialSystem, xi: float) -> PeriodSample:
    """Period of the orbit through (xi, 0), xi > 0."""
    if not (0.0 < xi < math.inf):
        raise ValueError(f"xi must be positive and finite, got {xi}")
    h = float(sys.G(xi))
    return _period_sample(sys, xi, h)


def period_at_energy(sys: PotentialSystem, h: float) -> PeriodSample:
    """Period of the orbit on energy level h > 0."""
    xi = energy_to_amplitude(sys, h)
    return _period_sample(sys, xi, h)


def _period_sample(sys, xi, h):
    return require_converged(_samples(sys, np.array([xi], dtype=float), [h])[0])


def _samples(sys, xi, hs):
    """Samples at the amplitudes xi on their levels hs: the center
    expansion's where it holds, the others from one pass of the engine."""
    xs = xi.tolist()
    samples = [_expansion(sys, x, h) for x, h in zip(xs, hs)]
    todo = [i for i, sample in enumerate(samples) if sample is None]
    value, err, converged = _integral(_period_integrand, sys, xi[todo])
    for i, v, e, c in zip(todo, value.tolist(), err.tolist(), converged.tolist()):
        samples[i] = PeriodSample(lam=sys.lam, xi=xs[i], h=hs[i], T=SQRT8 * v,
                                  err_est=SQRT8 * e, converged=c)
    return samples


def _expansion(sys, xi, h):
    """The center expansion's sample on a level h small enough for it, else
    None.  Its parameter is h / (1+lam)^2: the quartic term of G takes over
    once xi^2 reaches 1+lam."""
    shrink = min(1.0, (1.0 + sys.lam) ** 2)
    if h >= SMALL_ENERGY_GUARD * shrink:
        return None
    t0, dt0 = sys.center_asymptotics()
    T = t0 + dt0 * h
    return PeriodSample(lam=sys.lam, xi=xi, h=h, T=T, method="expansion",
                        err_est=max(abs(dt0) * h * h / shrink, ROUNDING_FLOOR * abs(T)))


def _derivatives(integrand, sys: PotentialSystem, xi):
    xi = _amplitudes(xi)
    value, err, converged = _integral(integrand, sys, xi, derivative=True)
    if np.count_nonzero(~converged):
        i = int(np.argmin(converged))
        raise NoConvergence(
            f"derivative quadrature is rounding-limited or passed {MAX_NODES} nodes "
            f"at xi={xi[i]:.6g}, lam={sys.lam:g}",
            best=SQRT8 * float(value[i]), err_est=SQRT8 * float(err[i]))
    return [DerivativeEstimate(value=SQRT8 * v, err_est=SQRT8 * e)
            for v, e in zip(value.tolist(), err.tolist())]


def period_slopes(sys: PotentialSystem, xi) -> list[DerivativeEstimate]:
    """dT/dxi at every amplitude x > 0 of the array xi, in one pass of the
    engine; raises NoConvergence at the first one that did not converge."""
    return _derivatives(_slope_integrand, sys, xi)


def period_slope(sys: PotentialSystem, xi: float) -> DerivativeEstimate:
    """dT/dxi at the amplitude xi > 0; its sign is that of T'(h)."""
    return _derivatives(_slope_integrand, sys, [xi])[0]


def coupling_slope(sys: PotentialSystem, xi: float) -> DerivativeEstimate:
    """dT/dlam at the amplitude xi > 0, the amplitude held fixed."""
    return _derivatives(_coupling_integrand, sys, [xi])[0]


def period_derivative(sys: PotentialSystem, h: float) -> float:
    """T'(h) = (dT/dxi) / g(xi) on the energy level h > 0.  Below xi = 1,
    g(xi) = xi + lam*sin(xi) cancels as lam -> -1, so it is taken there as
    (1+lam)*xi - lam*(xi - sin xi), the defect from its Taylor series."""
    xi = energy_to_amplitude(sys, h)
    x2 = xi * xi
    g = ((1.0 + sys.lam) * xi - sys.lam * x2 * xi * reduce(lambda p, c: p * x2 + c, _SIN_DEFECT)
         if xi < 1.0 else float(sys.g(xi)))
    return period_slope(sys, xi).value / g
