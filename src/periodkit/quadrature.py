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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NoConvergence, NonMonotoneEnergy
from .model import PotentialSystem, energy_to_amplitude, turning_points

SQRT8 = 2.0 * math.sqrt(2.0)

# Rounding floor of an adaptive result, relative to |value| per panel summed:
# each panel's rule, the running sum and the final SQRT8 scaling each round,
# so no estimate may claim less than a few ulp per panel.
ROUNDING_FLOOR = 2.0 * float(np.finfo(float).eps)

# Below this energy (elementary centers only) quadrature cancellation beats
# the O(h^2) truncation of the local expansion, so the expansion wins.
SMALL_ENERGY_GUARD = 1e-10

# Pending-panel budget of one adaptive quadrature.  Valid orbits peak near 50
# pending panels; an integrand that never settles (rounding noise at the
# nilpotent center) would otherwise double its panels up to 2^max_depth.
MAX_PANELS = 4096

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
    SMALL_ENERGY_GUARD (method "expansion") T is the center expansion
    T(0+) + T'(0+)*h and err_est its O(h^2) truncation, floored the same way."""

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


def _well(sys: PotentialSystem, xi: float, phi):
    """(sin 2u, sin a, sin b, a, b, D) at the substituted nodes phi."""
    u = 0.25 * math.pi - 0.5 * phi
    su = np.sin(u)
    cu = np.cos(u)
    s2u = 2.0 * su * cu
    a = xi * cu * cu
    b = xi * su * su
    sa = np.sin(a)
    sb = np.sin(b)
    d = 0.5 * (xi * s2u) ** 2 + 2.0 * sys.lam * sa * sb
    if np.any(d <= 0.0):
        raise NonMonotoneEnergy(
            f"energy level dips below the potential inside (0, {xi:.6g}) "
            f"(lam={sys.lam:g}); the orbit is not centered at the origin")
    return s2u, sa, sb, a, b, d


def _s(x):
    """S(x) = sin(x) - x*cos(x) for x >= 0, by its Taylor series below 1."""
    x2 = x * x
    return np.where(x < 1.0, np.polyval(_S_SERIES, x2) * x2 * x, np.sin(x) - x * np.cos(x))


def _period_integrand(sys: PotentialSystem, xi: float, phi):
    s2u, _, _, _, _, d = _well(sys, xi, phi)
    return xi * s2u / np.sqrt(d)


def _slope_integrand(sys: PotentialSystem, xi: float, phi):
    # d/dxi of xi*s2u/sqrt(D) is s2u*(2D - xi*dD/dxi) / (2*D^(3/2)), and
    # 2D - xi*dD/dxi = 2*lam*(sin b * S(a) + sin a * S(b))
    s2u, sa, sb, a, b, d = _well(sys, xi, phi)
    return sys.lam * s2u * (sb * _s(a) + sa * _s(b)) / (d * np.sqrt(d))


def _coupling_integrand(sys: PotentialSystem, xi: float, phi):
    s2u, sa, sb, _, _, d = _well(sys, xi, phi)
    return -xi * s2u * sa * sb / (d * np.sqrt(d))


def _integral(integrand, sys: PotentialSystem, xi: float, cfg: QuadratureConfig):
    """(value, err_est, converged) of integrand(sys, xi, phi) over [0, pi/2];
    for _period_integrand that is integral_0^xi dx / sqrt(G(xi) - G(x))."""
    return _adaptive(lambda phi: integrand(sys, xi, phi), 0.0, 0.5 * math.pi, cfg)


def _adaptive(f, a: float, b: float, cfg: QuadratureConfig):
    """Globally adaptive Gauss-Legendre bisection on [a, b].

    Each pending panel is split; the two-half sum is accepted when it agrees
    with the parent rule to the panel's width-proportional share of the
    relative tolerance.  The tolerance is relative to the integral of |f|,
    taken from the first rule's nodes: for a one-signed integrand that is
    |integral|, and for one with a vanishing integral (a derivative at a
    critical period) the tolerance does not shrink toward zero.

    Returns (value, err_est, converged); err_est is the sum of the accepted
    halving differences, floored at ROUNDING_FLOOR times |value| per panel
    summed.  The floor covers the rounding that no halving difference can
    see (a rule that is exact on every panel gives differences of exactly 0)
    and, being relative, a later scaling of the value by a rounded constant.
    Past max_depth levels or MAX_PANELS pending panels the value is the best
    estimate over accepted and pending panels, err_est adds the pending
    panels' carried errors before the same floor, and converged is False.
    """
    nodes, weights = _gauss_rule(cfg.base_nodes)

    def values(lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        return half, f(mid[:, None] + half[:, None] * nodes[None, :])

    width = b - a
    half, fx = values(np.array([a]), np.array([b]))
    q0 = float((half * (fx @ weights))[0])
    scale = max(float((half * (np.abs(fx) @ weights))[0]), 1e-300)

    pend_lo = np.array([a])
    pend_hi = np.array([b])
    pend_q = np.array([q0])
    pend_carry = np.array([math.inf])

    accepted = 0.0
    accepted_err = 0.0
    n_accepted = 0

    for _ in range(cfg.max_depth):
        mids = 0.5 * (pend_lo + pend_hi)
        half, fx = values(np.concatenate([pend_lo, mids]), np.concatenate([mids, pend_hi]))
        child_q = half * (fx @ weights)
        n = pend_lo.size
        pair_sum = child_q[:n] + child_q[n:]
        err = np.abs(pair_sum - pend_q)
        tol = cfg.rel_tol * scale * (pend_hi - pend_lo) / width

        ok = err <= tol
        done = pair_sum[ok]
        accepted += float(done.sum())
        accepted_err += float(err[ok].sum())
        n_accepted += done.size

        keep = ~ok
        if not keep.any():
            return accepted, _floored(accepted_err, accepted, n_accepted), True
        half_err = 0.5 * err[keep]
        pend_lo = np.concatenate([pend_lo[keep], mids[keep]])
        pend_hi = np.concatenate([mids[keep], pend_hi[keep]])
        pend_q = np.concatenate([child_q[:n][keep], child_q[n:][keep]])
        pend_carry = np.concatenate([half_err, half_err])
        scale = max(scale, abs(accepted + float(pend_q.sum())))
        if pend_q.size > MAX_PANELS:
            break

    best = accepted + float(pend_q.sum())
    err = accepted_err + float(pend_carry.sum())
    return best, _floored(err, best, n_accepted + pend_q.size), False


def _floored(err: float, value: float, n_panels: int) -> float:
    """err raised to the rounding floor of a sum of n_panels panel rules."""
    return max(err, ROUNDING_FLOOR * n_panels * abs(value))


def period_at_amplitude(sys: PotentialSystem, xi: float,
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> PeriodSample:
    """Period of the orbit through (xi, 0), xi > 0."""
    if xi <= 0.0:
        raise ValueError(f"xi must be positive, got {xi}")
    h = float(sys.G(xi))
    return _period_sample(sys, xi, h, cfg)


def period_at_energy(sys: PotentialSystem, h: float,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> PeriodSample:
    """Period of the orbit on energy level h > 0."""
    xi = energy_to_amplitude(sys, h)
    return _period_sample(sys, xi, h, cfg)


def _period_sample(sys, xi, h, cfg):
    if h < SMALL_ENERGY_GUARD and sys.lam > -1.0:
        t0, dt0 = sys.center_asymptotics()
        T = t0 + dt0 * h
        return PeriodSample(lam=sys.lam, xi=xi, h=h, T=T, method="expansion",
                            err_est=max(abs(dt0) * h * h, ROUNDING_FLOOR * abs(T)))
    value, err, converged = _integral(_period_integrand, sys, xi, cfg)
    sample = PeriodSample(lam=sys.lam, xi=xi, h=h, T=SQRT8 * value,
                          err_est=SQRT8 * err, converged=converged)
    if not converged:
        raise NoConvergence(
            f"period quadrature did not converge within max_depth={cfg.max_depth} "
            f"and {MAX_PANELS} panels at xi={xi:.6g}, lam={sys.lam:g}",
            best=sample.T, err_est=sample.err_est, sample=sample)
    return sample


def half_period_integrals(sys: PotentialSystem, h: float,
                          cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Diagnostic: the two halves sqrt(2)*integral over [x_l, 0] and [0, x_r]
    computed independently from each turning point.  Evenness of G makes them
    equal; their sum is T(h)."""
    tp = turning_points(sys, h)
    left, _, _ = _integral(_period_integrand, sys, -tp.x_left, cfg)
    right, _, _ = _integral(_period_integrand, sys, tp.x_right, cfg)
    return math.sqrt(2.0) * left, math.sqrt(2.0) * right


def _derivative(integrand, sys: PotentialSystem, xi: float, cfg: QuadratureConfig):
    if xi <= 0.0:
        raise ValueError(f"xi must be positive, got {xi}")
    value, err, converged = _integral(integrand, sys, xi, cfg)
    if not converged:
        raise NoConvergence(
            f"derivative quadrature did not converge within max_depth={cfg.max_depth} "
            f"and {MAX_PANELS} panels at xi={xi:.6g}, lam={sys.lam:g}",
            best=SQRT8 * value, err_est=SQRT8 * err)
    return DerivativeEstimate(value=SQRT8 * value, err_est=SQRT8 * err)


def period_slope(sys: PotentialSystem, xi: float,
                 cfg: QuadratureConfig = DEFAULT_CONFIG) -> DerivativeEstimate:
    """dT/dxi at the amplitude xi > 0; its sign is that of T'(h)."""
    return _derivative(_slope_integrand, sys, xi, cfg)


def coupling_slope(sys: PotentialSystem, xi: float,
                   cfg: QuadratureConfig = DEFAULT_CONFIG) -> DerivativeEstimate:
    """dT/dlam at the amplitude xi > 0, the amplitude held fixed."""
    return _derivative(_coupling_integrand, sys, xi, cfg)


def period_derivative(sys: PotentialSystem, h: float,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """T'(h) = (dT/dxi) / g(xi) on the energy level h > 0."""
    xi = energy_to_amplitude(sys, h)
    return period_slope(sys, xi, cfg).value / float(sys.g(xi))
