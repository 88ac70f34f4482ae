"""Period of one orbit as a singular integral, and its derivatives.

The period of the orbit on energy level h is

    T(h) = 2*sqrt(2) * integral_0^xi dx / sqrt(h - G(x)),   h = G(xi),

whose integrand blows up like an inverse square root at the turning point
x = xi.  The substitution x = xi*sin(phi) removes the singularity: at a
simple turning point h - G(x) ~ g(xi)*(xi - x), so the substituted integrand
is analytic on [0, pi/2] and fixed-order Gauss-Legendre panels with adaptive
bisection converge fast.  (A tanh-sinh rule would be the fallback if the
turning point ever degenerated mid-interval; for this family that happens
only at the lam = -1 origin limit, which the same substitution still handles
because the turning point stays simple for every h > 0.)

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

The interval being the same for every amplitude, one adaptive engine
integrates a whole array of amplitudes at once: each bisection level is one
integrand evaluation over the pending panels of all of them.  A scan is one
call of it, and a single period is the same call with one amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoConvergence, NonMonotoneEnergy
from .model import PotentialSystem, energy_to_amplitude

SQRT8 = 2.0 * math.sqrt(2.0)
HALF_PI = 0.5 * math.pi

# Rounding floor of an adaptive result, relative to |value| per panel summed:
# each panel's rule, the running sum and the final SQRT8 scaling each round,
# so no estimate may claim less than a few ulp per panel.
ROUNDING_FLOOR = 2.0 * float(np.finfo(float).eps)

# Below this energy, relative to (1+lam)^2 near the nilpotent center,
# quadrature cancellation beats the O(h^2) truncation of the local expansion,
# so the expansion wins.
SMALL_ENERGY_GUARD = 1e-10

# Pending-panel budget of one integral.  Valid orbits peak near 50 pending
# panels; an integrand that never settles (rounding noise at the nilpotent
# center) would otherwise double its panels up to 2^max_depth.
MAX_PANELS = 4096

# Pending panels of all integrals together.  Past it the integrals holding
# the later half of the panels are set aside and refined afterwards, so the
# panel arrays stay bounded however many integrals run into MAX_PANELS at
# once; a 1000-point scan to xi = 900 peaks near 14000.
MAX_PENDING = 1 << 16

# Panels per integrand evaluation.  A level (or a first rule over many
# amplitudes) holding more is evaluated in chunks, so no node array exceeds
# RULE_CHUNK * base_nodes values (7680 at the default 15 nodes).
RULE_CHUNK = 512

# Taylor coefficients of S(x) = sin(x) - x*cos(x) = x^3 * sum_n c_n x^(2n),
# c_n = (-1)^n (2n+2) / (2n+3)!; below |x| = 1 nine terms reach 4e-16, where
# the direct difference keeps only eps/x^2 of relative accuracy.
_S_SERIES = tuple((-1) ** n * (2 * n + 2) / math.factorial(2 * n + 3) for n in range(9))[::-1]


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    max_depth: int = 40
    base_nodes: int = 15

    def __post_init__(self):
        if not (1e-15 < self.rel_tol < 1e-2):
            raise ValueError(f"rel_tol must lie in (1e-15, 1e-2), got {self.rel_tol}")
        if self.max_depth < 4:
            raise ValueError(f"max_depth must be >= 4, got {self.max_depth}")
        if self.base_nodes < 2:
            raise ValueError(f"base_nodes must be >= 2, got {self.base_nodes}")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class PeriodSample:
    """One measured period: both orbit coordinates, the value, an absolute
    error estimate and the route that produced it.

    On the quadrature route err_est is the sum of the accepted halving
    differences, floored at the rounding of T (a few ulp per panel), so it is
    never zero there even where every rule integrates exactly.  Below
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


@lru_cache(maxsize=8)
def _gauss_rule(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _well(sys: PotentialSystem, xi, phi):
    """(sin 2u, sin a, sin b, a, b, D) at the substituted nodes phi; xi is
    one amplitude or a column of them, one per row of phi."""
    u = 0.25 * math.pi - 0.5 * phi
    su = np.sin(u)
    cu = np.cos(u)
    s2u = 2.0 * su * cu
    a = xi * cu * cu
    b = xi * su * su
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
    # 2D - xi*dD/dxi = 2*lam*(sin b * S(a) + sin a * S(b))
    s2u, sa, sb, a, b, d = _well(sys, xi, phi)
    return sys.lam * s2u * (sb * _s(a, sa) + sa * _s(b, sb)) / (d * np.sqrt(d))


def _coupling_integrand(sys: PotentialSystem, xi, phi):
    s2u, sa, sb, _, _, d = _well(sys, xi, phi)
    return -xi * s2u * sa * sb / (d * np.sqrt(d))


def _integral(integrand, sys: PotentialSystem, xi: np.ndarray, cfg: QuadratureConfig):
    """(value, err_est, converged) arrays of integrand(sys, xi, phi) over
    [0, pi/2], one entry per amplitude in xi; for _period_integrand that is
    integral_0^xi dx / sqrt(G(xi) - G(x))."""
    return _adaptive(lambda owner, phi: integrand(sys, xi[owner, None], phi), xi.size, cfg)


def _adaptive(f, n: int, cfg: QuadratureConfig):
    """Globally adaptive Gauss-Legendre bisection of n integrals over
    [0, pi/2] at once; f(owner, phi) gives integrand owner[i] at phi[i, :].

    The refinement is level-synchronous: every pending panel of every
    integral is split at every level, so the pending panels share one width,
    a panel is just its owner and left end, and a level is one evaluation of
    f over all of them (in chunks of RULE_CHUNK panels, so memory stays
    bounded however many integrals arrive).  A two-half sum is accepted when
    it agrees with the parent rule to the panel's width-proportional share
    of the relative tolerance.  Each integral's tolerance is relative to its
    integral of |f|, taken from the first rule's nodes and raised to
    |accepted + pending| level by level: for a one-signed integrand that is
    |integral|, and for one with a vanishing integral (a derivative at a
    critical period) the tolerance does not shrink toward zero.

    Returns (value, err_est, converged) arrays; err_est is the sum of the
    accepted halving differences, floored at ROUNDING_FLOOR times |value|
    per panel summed.  The floor covers the rounding that no halving
    difference can see (a rule that is exact on every panel gives
    differences of exactly 0) and, being relative, a later scaling of the
    value by a rounded constant.  The budgets hold per integral: one past
    max_depth levels or MAX_PANELS pending panels stops alone, with its best
    estimate over accepted and pending panels, err_est plus half the last
    halving difference per pending panel before the floor, and
    converged=False; the others go on as if it were not there.
    """
    if not n:
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool)
    nodes, weights = _gauss_rule(cfg.base_nodes)
    owner = np.arange(n)
    lo = np.zeros(n)
    pend_q, abs_q = _rules(f, owner, lo, HALF_PI, nodes, weights, absolute=True)
    scale = np.maximum(abs_q, 1e-300)
    # accepted + pending per integral: the value once nothing is pending,
    # the best estimate of an integral that stops
    total = pend_q.copy()
    stopped = np.zeros(n, dtype=bool)
    # errors of the accepted pairs and of the pending panels of stopped
    # integrals, recorded per panel; fold() sums them per integral into
    # err_sum and counts them in panels, at the end and on every level with
    # more than MAX_PANELS panels pending, so the records stay short
    err_sum = np.zeros(n)
    panels = np.zeros(n)
    done_owner, done_err = [], []

    def fold():
        if done_owner:
            done = np.concatenate(done_owner)
            np.add(err_sum, np.bincount(done, np.concatenate(done_err), n), out=err_sum)
            np.add(panels, np.bincount(done, minlength=n), out=panels)
            done_owner.clear()
            done_err.clear()

    def stop(mask):
        done_owner.append(owner[mask])
        done_err.append(carry[mask])
        stopped[owner[mask]] = True

    # integrals set aside, pending panels and all, while too many panels are
    # pending at once; each goes on later from the level it reached
    batches = [(owner, lo, pend_q, None, HALF_PI, cfg.max_depth)]
    while batches:
        owner, lo, pend_q, carry, width, depth = batches.pop()
        for level in range(depth):
            m = owner.size
            parent = owner
            half = 0.5 * width
            owner = np.concatenate([parent, parent])  # left children, then right
            lo = np.concatenate([lo, lo + half])
            (child_q,) = _rules(f, owner, lo, half, nodes, weights)
            diff = child_q[:m] + child_q[m:] - pend_q
            err = np.abs(diff)
            ok = err <= (cfg.rel_tol * width / HALF_PI) * scale[parent]
            done_owner.append(parent[ok])
            done_err.append(err[ok])
            total += np.bincount(parent, weights=diff, minlength=n)
            keep = ~ok
            if not np.count_nonzero(keep):
                break
            np.maximum(scale, np.abs(total), out=scale)
            both = np.concatenate([keep, keep])
            width = half
            owner, lo, pend_q = owner[both], lo[both], child_q[both]
            half_err = 0.5 * err[keep]
            carry = np.concatenate([half_err, half_err])
            if owner.size > MAX_PANELS:
                fold()
                counts = np.bincount(owner, minlength=n)
                over = counts > MAX_PANELS
                if np.count_nonzero(over):
                    gone = over[owner]
                    stop(gone)
                    owner, lo, pend_q, carry = (a[~gone] for a in (owner, lo, pend_q, carry))
                    counts[over] = 0
                if owner.size > MAX_PENDING:
                    # go on with the integrals holding the first half of the panels
                    later = owner > np.searchsorted(np.cumsum(counts), owner.size // 2)
                    batches.append(tuple(a[later] for a in (owner, lo, pend_q, carry))
                                   + (width, depth - level - 1))
                    owner, lo, pend_q, carry = (a[~later] for a in (owner, lo, pend_q, carry))
                if not owner.size:
                    break
        else:
            stop(np.ones(owner.size, dtype=bool))

    fold()
    return total, np.maximum(err_sum, ROUNDING_FLOOR * panels * np.abs(total)), ~stopped


def _rules(f, owner, lo, width: float, nodes, weights, absolute: bool = False):
    """Gauss rules of f over the panels [lo, lo + width] of the integrals
    owner, RULE_CHUNK panels per evaluation of f: a tuple holding the rules
    of f and, if absolute, those of |f|."""
    if owner.size > RULE_CHUNK:
        chunks = [_rules(f, owner[s:s + RULE_CHUNK], lo[s:s + RULE_CHUNK], width,
                         nodes, weights, absolute)
                  for s in range(0, owner.size, RULE_CHUNK)]
        return tuple(np.concatenate(part) for part in zip(*chunks))
    half = 0.5 * width
    fx = f(owner, (lo + half)[:, None] + half * nodes)
    if absolute:
        return half * (fx @ weights), half * (np.abs(fx) @ weights)
    return (half * (fx @ weights),)


def require_converged(sample: PeriodSample, cfg: QuadratureConfig = DEFAULT_CONFIG) -> PeriodSample:
    """sample itself, or NoConvergence carrying it when it is flagged."""
    if not sample.converged:
        raise NoConvergence(
            f"period quadrature did not converge within max_depth={cfg.max_depth} "
            f"and {MAX_PANELS} panels at xi={sample.xi:.6g}, lam={sample.lam:g}",
            best=sample.T, err_est=sample.err_est, sample=sample)
    return sample


def _amplitudes(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float).ravel()
    bad = ~((xi > 0.0) & (xi < math.inf))
    if np.count_nonzero(bad):
        raise ValueError(f"xi must be positive and finite, got {xi[bad][0]}")
    return xi


def period_samples(sys: PotentialSystem, xi, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list[PeriodSample]:
    """Periods of the orbits through (x, 0) for every amplitude x > 0 of the
    array xi, in one pass of the engine.  A sample that did not converge is
    returned flagged (converged=False) with its best estimate, not raised."""
    xi = _amplitudes(xi)
    xs, hs = xi.tolist(), sys.G(xi).tolist()
    samples = [_expansion(sys, x, h) for x, h in zip(xs, hs)]
    todo = [i for i, sample in enumerate(samples) if sample is None]
    value, err, converged = _integral(_period_integrand, sys, xi[todo], cfg)
    for i, v, e, c in zip(todo, value.tolist(), err.tolist(), converged.tolist()):
        samples[i] = PeriodSample(lam=sys.lam, xi=xs[i], h=hs[i], T=SQRT8 * v,
                                  err_est=SQRT8 * e, converged=c)
    return samples


def period_at_amplitude(sys: PotentialSystem, xi: float,
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> PeriodSample:
    """Period of the orbit through (xi, 0), xi > 0."""
    if not (0.0 < xi < math.inf):
        raise ValueError(f"xi must be positive and finite, got {xi}")
    h = float(sys.G(xi))
    return _period_sample(sys, xi, h, cfg)


def period_at_energy(sys: PotentialSystem, h: float,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> PeriodSample:
    """Period of the orbit on energy level h > 0."""
    xi = energy_to_amplitude(sys, h)
    return _period_sample(sys, xi, h, cfg)


def _period_sample(sys, xi, h, cfg):
    sample = _expansion(sys, xi, h)
    if sample is None:
        value, err, converged = _integral(_period_integrand, sys, np.array([xi]), cfg)
        sample = PeriodSample(lam=sys.lam, xi=xi, h=h, T=SQRT8 * float(value[0]),
                              err_est=SQRT8 * float(err[0]), converged=bool(converged[0]))
    return require_converged(sample, cfg)


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


def _derivatives(integrand, sys: PotentialSystem, xi, cfg: QuadratureConfig):
    xi = _amplitudes(xi)
    value, err, converged = _integral(integrand, sys, xi, cfg)
    if np.count_nonzero(~converged):
        i = int(np.argmin(converged))
        raise NoConvergence(
            f"derivative quadrature did not converge within max_depth={cfg.max_depth} "
            f"and {MAX_PANELS} panels at xi={xi[i]:.6g}, lam={sys.lam:g}",
            best=SQRT8 * float(value[i]), err_est=SQRT8 * float(err[i]))
    return [DerivativeEstimate(value=SQRT8 * v, err_est=SQRT8 * e)
            for v, e in zip(value.tolist(), err.tolist())]


def period_slopes(sys: PotentialSystem, xi,
                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> list[DerivativeEstimate]:
    """dT/dxi at every amplitude x > 0 of the array xi, in one pass of the
    engine; raises NoConvergence at the first one that did not converge."""
    return _derivatives(_slope_integrand, sys, xi, cfg)


def period_slope(sys: PotentialSystem, xi: float,
                 cfg: QuadratureConfig = DEFAULT_CONFIG) -> DerivativeEstimate:
    """dT/dxi at the amplitude xi > 0; its sign is that of T'(h)."""
    return _derivatives(_slope_integrand, sys, [xi], cfg)[0]


def coupling_slope(sys: PotentialSystem, xi: float,
                   cfg: QuadratureConfig = DEFAULT_CONFIG) -> DerivativeEstimate:
    """dT/dlam at the amplitude xi > 0, the amplitude held fixed."""
    return _derivatives(_coupling_integrand, sys, [xi], cfg)[0]


def period_derivative(sys: PotentialSystem, h: float,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """T'(h) = (dT/dxi) / g(xi) on the energy level h > 0."""
    xi = energy_to_amplitude(sys, h)
    return period_slope(sys, xi, cfg).value / float(sys.g(xi))
