"""Period of one orbit as a singular integral, and its derivatives.

The period of the orbit on energy level h = G(xi) is

    T = 2*sqrt(2) * integral_0^xi dx / sqrt(h - G(x)),

whose integrand blows up like an inverse square root at the turning point
x = xi.  The substitution x = xi*sin(phi) removes the singularity: with
u = pi/4 - phi/2, a = xi*cos(u)^2 and b = xi*sin(u)^2, the well depth is
exactly h - G(x) = (xi*sin(2u))^2/2 * w, with

    w = 1 + lam*s,   s = sinc(a)*sinc(b),

and its factor xi*sin(2u) cancels against dx.  Every integral is then
scale-free, with no power of xi left to underflow at tiny amplitudes, and
nothing is subtracted (the deviation is rationalized):

    T        = 4 * int w^(-1/2),
    T - 2*pi = -4*lam * int s / (sqrt(w)*(1 + sqrt(w))),
    dT/dxi   = 2*lam*xi * int (cos(u)^4*s3(a)*sinc(b) + sin(u)^4*sinc(a)*s3(b)) / w^(3/2),
    dT/dlam  = -2 * int s / w^(3/2),

over phi in [0, pi/2], with s3(x) = (sin(x) - x*cos(x))/x^3; T'(h) =
(dT/dxi) / g(xi).  T reaches the center limit 2*pi/sqrt(1+lam) at any
amplitude.  For lam < 0 and xi < 1, sinc is taken as 1 - d, the defect d
from its Taylor series, and w as (1+lam) - lam*(1 - s): two terms >= 0,
which do not cancel even at the nilpotent center lam = -1.  Each integrand
is even in phi and about phi = pi/2 (G is even), and w = g(xi)/xi > 0 at
the turning point u = 0 keeps it analytic, so it extends to an even,
pi-periodic analytic function: the trapezoid rule on [0, pi/2], its end
nodes at half weight, is a full-period trapezoid rule, which converges
geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).

One engine, _periodic, integrates a whole array of amplitudes at once,
each stopping at its own node count while those that share a count share
each integrand evaluation: a scan is one call of it, a single period the
same call with one amplitude, any mix of the four period integrals (each a
kind, _Kind) one call of _integrals, and bessel's J1 integral another.
Each row keeps its kind's integrand, floor and stop test, so the bits of
its kind's call alone, and _estimates raises at the first row that did not
converge, named by its kind.  One amplitude keeps its bookkeeping (input
check, rounding floor, start count, trapezoid sums, stop test) in floats,
chosen on xi.size == 1 in _amplitudes, _floor and _periodic, to the array
path's bits.  The integrands take a read-only node pair (phi, halves),
halves the (2, 1, nodes) stack of cos(u)^2/2 and sin(u)^2/2, and the
batched functions return the engine's (value, err_est) arrays as they are.  Each
integrand call takes at most EVAL_NODES = 2^13 nodes, so its stacked (2,
rows, nodes) arrays stay within glibc's 128 KiB mmap threshold and malloc
keeps them for the next call instead of handing them back to the OS.  The
stop test scales by the rule of |f|; the period integrand 4/sqrt(w) is > 0
wherever the well depth is accepted (w > 0, or W > 0 with D > 0), so the
period rule's |f| sum is its value, and a call of the period kind alone
takes it so (_Kind.positive).

The integrands take every sine and cosine from the half-angle tangent t =
tan(h), one np.tan per half argument h = x/2 = xi*halves, a and b stacked
(_product_well).  With P = h*(1 + t^2), s = num/D for num = t_a*t_b and
D = P_a*P_b > 0, w = W/D for W = D + lam*num, and sinc x - cos x = R/P for
R = t - h*(1 - t^2); each integrand folds D into its last step:

    4/sqrt(w)                        = 4*sqrt(D/W),
    -4*lam*s/(sqrt(w)*(1 + sqrt(w))) = -4*lam*num/(sqrt(W)*(sqrt(W) + sqrt(D))),
    dT/dxi's integrand               = (2*lam/xi)*((t_b*R_a + t_a*R_b)/W)*sqrt(D/W),
    -2*s/w^(3/2)                     = -2*(num/W)*sqrt(D/W),

the slope's rows below xi = 1 taking R/xi^2 from the series of s3 instead
(_slope_integrand).  HALF_ANGLE_MIN raises only the turning point's b/2 = 0
unless the block's least amplitude is below FULL_CLAMP_XI.  Rows where the
product form does not hold (_by_form: lam < 0 below xi = 1, where w comes
from the sinc defects, amplitudes past PRODUCT_XI_MAX and couplings past
RESCALED_LAM, where D or lam*num could overflow) take each sinc and cos
alone (_well, _half_angle).  Each row keeps its form's bits whatever rows
share its block.  The speed rests on numpy's SIMD tan, its X86_V4 dispatch,
at a tenth of the cost of np.sin, which runs libm's scalar loop (README.md
gives the ns per node with and without it); the two dispatch paths may
differ in the last bits of any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NonMonotoneEnergy
from .model import PotentialSystem, _horner, _sinc_defect, energy_to_amplitude

HALF_PI = 0.5 * math.pi
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)

# Rounding floor of a result, relative to the rule of |f|: the node sums and
# the node spacing each round, so no estimate may claim less than a few ulp.
ROUNDING_FLOOR = 2.0 * EPS

# Absolute rounding floor of a nonzero result: node values below the smallest
# normal double round by half an ulp of 0.0, and the weights add up to pi/2.
SUBNORMAL_FLOOR = 2.0 * math.ulp(0.0)

# Relative rounding of w per unit of cancellation in it (its terms'
# magnitudes over its value); w = 1 + lam*s taken directly cancels most at
# the turning point, where it is g(xi)/xi.
CANCELLATION_FLOOR = EPS / 8.0

# The smallest amplitudes: below the smallest normal double a and b lose
# their precision, and at lam = -1 w = 1 - s >= xi^2/24 leaves it below
# sqrt(24*TINY) ~ 7.3e-154 and soon underflows to 0.
XI_MIN = TINY
NILPOTENT_XI_MIN = math.sqrt(24.0 * TINY)

# Half-arguments x/2 of the tangents below this are raised to it: sinc(x)
# is 1 and s3(x) 1/3 there to the last bit either way, without 0/0 at the
# turning point b = 0, and every tangent, square and series term stays a
# normal double, which the SIMD loops take at full speed (a subnormal costs
# a microcode assist).
HALF_ANGLE_MIN = 2.0 ** -480

# The product form raises only the turning point's b/2 = 0 to HALF_ANGLE_MIN
# while the least amplitude of its block is at least this: a rule of at
# most MAX_NODES intervals has sin(u)^2/2 >= 2^-43 at every other node, so
# every other half argument is at least HALF_ANGLE_MIN already.
FULL_CLAMP_XI = HALF_ANGLE_MIN * 2.0 ** 43

# Tolerance of every period and derivative integral, relative to the rule
# of |f|.  The first pass already lies past the integrand's bandwidth, so a
# valid orbit lands at rounding: any value from 1e-4 to 1e-12 changes the
# work, not the result.
REL_TOL = 1e-10

# w = 1 + lam*s is about lam, so the derivative integrands' w^(3/2) would
# overflow past |lam| ~ 1e205; past this coupling they divide by sqrt(w)
# and by w in turn, and below it keep the product w*sqrt(w), bit for bit.
RESCALED_LAM = 1e150

# The product form takes amplitudes up to this: there (a/2)*(b/2) <= 2^596,
# and with (1 + t^2) < 2^125 for every double, D stays below 2^846 and
# lam*num below 2^748 for |lam| <= RESCALED_LAM.  Larger amplitudes, like
# larger couplings, take sinc(a) and sinc(b) one by one.
PRODUCT_XI_MAX = 2.0 ** 300

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
# A block of 2^13 doubles is 64 KiB, and an integrand's stacked (2, rows,
# nodes) arrays at most 128 KiB, glibc's mmap threshold: malloc serves them
# from its heap and reuses them block after block.  At 2^15 each block's
# 512 KiB went back to the OS and was faulted in again: 712-713 minor page
# faults per warm reference scan (lam = 2.25, 1000 points to xi = 904.7),
# against 0 here (63-64 where the heap's layout lets glibc trim it once).
EVAL_NODES = 2 ** 13

# Passes of at most CACHE_NODES nodes keep their node pair (phi, halves)
# with both arrays read-only: first passes to 4096 intervals, later ones to
# 8192, 16,328 nodes and 0.37 MiB in all.  Each key is written once, whole,
# so racing threads at most build the same arrays twice.  Longer passes
# build the pair once per chunk.
CACHE_NODES = 4097
_NODES: dict = {}  # (intervals, 1 on a first pass or 2) -> node pair

# s3(x) = (sin(x) - x*cos(x))/x^3 = sum_n 4^n c_n (x/2)^(2n), c_n = (-1)^n
# (2n+2)/(2n+3)!: nine terms reach 4e-16 below |x| = 1, the difference eps/x^2.
_S_SERIES = tuple((-4) ** n * (2 * n + 2) / math.factorial(2 * n + 3) for n in range(9))[::-1]


class PeriodSample(NamedTuple):
    """One measured period: both orbit coordinates, the value, an absolute
    error estimate and the route that produced it: "quadrature", or
    "ode-oracle" for oracle.orbit_period.  A named tuple, so a scan builds
    its rows without a Python frame each; _replace gives a changed copy.

    On the quadrature route err_est is the difference of the last trapezoid
    rule and the one on every other of its nodes, floored at the rounding of
    T (more where w cancels at the turning point), so it is never zero even
    where every rule integrates exactly."""

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


def _squares(phi):
    """The node pair (phi, halves) at the nodes phi: halves is the (2, 1,
    nodes) stack of cos(u)^2/2 and sin(u)^2/2, u = pi/4 - phi/2, and a
    column of amplitudes xi times it the fresh (2, rows, nodes) stack of the
    half arguments a/2 and b/2 of a = xi*cos(u)^2 and b = xi*sin(u)^2 (b = 0
    at the turning point u = 0), which the tangents take as they are."""
    u = 0.25 * math.pi - 0.5 * phi
    halves = np.empty((2, 1, phi.size))
    np.square(np.cos(u), out=halves[0, 0])
    np.square(np.sin(u), out=halves[1, 0])
    halves *= 0.5
    return phi, halves


# The integrands below chain their ufuncs in place on the block-sized arrays
# they own, each allocated once: a block of at most EVAL_NODES doubles is too
# small for numpy to elide temporaries, so an expression would allocate every
# intermediate.  Each ufunc keeps its operands; only commutative products
# swap, which is exact.  a and b share each ufunc, stacked, so one amplitude
# pays one dispatch for both.  Each returns a fresh array, which the engine
# overwrites.

def _product_well(sys: PotentialSystem, xi, nodes, slope: bool = False):
    """(num, D, W) of the module docstring at h = xi*nodes[1] = (a/2, b/2),
    or with slope set (q, D, W), q = t_b*V_a + t_a*V_b, V = R where the
    block reaches xi = 1, else V = P*(cos(u)^4*s3, sin(u)^4*s3) from the
    series.  Fresh arrays, D and W views of one.  W <= 0 raises
    NonMonotoneEnergy.  None, and no work, where a row of the column xi
    takes the sinc form (_by_form): lam < 0 with xi < 1 (the defect form),
    xi > PRODUCT_XI_MAX, or |lam| > RESCALED_LAM."""
    lam = sys.lam
    if xi.size == 1:
        least = most = xi.item()
    else:
        least, most = np.minimum.reduce(xi, axis=None), np.maximum.reduce(xi, axis=None)
    if not (abs(lam) <= RESCALED_LAM and most <= PRODUCT_XI_MAX and (lam >= 0.0 or least >= 1.0)):
        return None
    h = np.multiply(xi, nodes[1])
    if least < FULL_CLAMP_XI:
        np.maximum(h, HALF_ANGLE_MIN, out=h)
    elif nodes[1][1, 0, -1] == 0.0:  # the turning point, b = 0
        np.maximum(h[1, :, -1], HALF_ANGLE_MIN, out=h[1, :, -1])
    t = np.tan(h)
    P = h
    if not slope:
        num = np.multiply(t[0], t[1])
    else:
        if most < 1.0:  # V from the series: P first, then h^2 over h
            P = np.multiply(t, t)
            P += 1.0
            P *= h
            v = _horner(_S_SERIES, np.multiply(h, h, out=h))
            v *= P
            h = None  # the squares go before the broadcast's buffer
            v *= np.square(2.0 * nodes[1])  # (cos(u)^4, sin(u)^4)
        else:  # V = R
            v = np.multiply(t, t)
            np.subtract(1.0, v, out=v)
            v *= h
            np.subtract(t, v, out=v)
        q, num = v  # num = t_a*t_b goes over V_b once q holds it
        q *= t[1]
        num *= t[0]
        q += num
        np.multiply(t[0], t[1], out=num)
    if P is h:
        t *= t
        t += 1.0
        h *= t  # P = (a/2)/cos(a/2)^2, and so for b
    D = np.multiply(P[0], P[1], out=P[0])
    W = np.multiply(num, lam, out=P[1])
    W += D
    if np.fmin.reduce(W, axis=None) <= 0.0:
        raise _dip(sys, xi, W)
    return q if slope else num, D, W


def _by_form(sys: PotentialSystem, xi, nodes, integrand, sinc):
    """integrand's block where _product_well declined the column xi: itself on
    the product form's rows, sinc(sys, xi, nodes) on the others, each as alone."""
    if xi.size == 1:  # the one row it declined
        return sinc(sys, xi, nodes)
    lam = sys.lam
    fast = (xi[:, 0] <= PRODUCT_XI_MAX) & (xi[:, 0] >= (1.0 if lam < 0.0 else 0.0))
    if abs(lam) > RESCALED_LAM or not fast.any():
        return sinc(sys, xi, nodes)
    f = np.empty((xi.shape[0], nodes[0].size))
    f[fast] = integrand(sys, xi[fast], nodes)
    f[~fast] = sinc(sys, xi[~fast], nodes)
    return f


def _well(sys: PotentialSystem, xi, nodes, slope: bool = False):
    """(sinc, w) at (a, b) = 2 * xi * nodes[1]: sinc = (sinc a, sinc b), w =
    1 + lam*sinc(a)*sinc(b); with slope set (sinc, w, v), v = (cos(u)^4*s3,
    sin(u)^4*s3) from the series below xi = 1, (sinc - cos) of a and b above.
    Fresh arrays, or views of one, from _half_angle; the rows below xi = 1
    with lam < 0 take sinc and w from the sinc defects (_defect_well)."""
    h = xi * nodes[1]
    below = (xi[:, 0] < 1.0).nonzero()[0]
    near = below if sys.lam < 0.0 else ()  # defect rows
    if slope and len(below):  # taken before h is written over
        part = h if len(below) == len(xi) else h[:, below]
        series = _horner(_S_SERIES, part * part) * np.square(2.0 * nodes[1])
    if len(near) == len(xi):  # no sine to take
        sinc, w = _defect_well(sys.lam, np.add(h, h, out=h))
        v = series if slope else None
    else:
        defect = _defect_well(sys.lam, 2.0 * h[:, near]) if len(near) else None
        sinc, c = _half_angle(h, cosine=slope)
        if slope:
            v = np.subtract(sinc, c, out=c)
            if len(below):
                v[:, below] = series
            w = sinc[0] * sinc[1]
        else:  # c holds 1 + t^2, for scratch
            v, w = None, np.multiply(sinc[0], sinc[1], out=c[0])
        w *= sys.lam
        w += 1.0
        if defect is not None:
            sinc[:, near], w[near] = defect
    if np.fmin.reduce(w, axis=None) <= 0.0:  # fmin passes over a NaN, which is not <= 0
        raise _dip(sys, xi, w)
    return (sinc, w, v) if slope else (sinc, w)


def _dip(sys: PotentialSystem, xi, w) -> NonMonotoneEnergy:
    """The NonMonotoneEnergy naming the first amplitude of the column xi
    whose row of the well depth w (or a positive multiple of it) is <= 0."""
    x = float(np.broadcast_to(xi, w.shape)[w <= 0.0][0])
    return NonMonotoneEnergy(
        f"energy level dips below the potential inside (0, {x:.6g}) "
        f"(lam={sys.lam:g}); the orbit is not centered at the origin")


def _half_angle(h, cosine: bool = False):
    """(sinc x, 1 + t^2) at x = 2h >= 0, t = tan(h): sinc x = 1/(h/t*(1 + t^2))
    within 4 ulp, h raised to HALF_ANGLE_MIN so h/t is 1 near 0; with cosine
    set cos x = 2/(1 + t^2) - 1 instead, within 4 ulp + 2*eps*sin(x)^2."""
    h = np.maximum(h, HALF_ANGLE_MIN, out=h)
    t = np.tan(h)
    r = np.divide(h, t, out=h)
    t *= t
    t += 1.0
    r *= t
    sinc = np.divide(1.0, r, out=r)
    if cosine:
        np.divide(2.0, t, out=t)
        t -= 1.0
    return sinc, t


def _defect_well(lam: float, x):
    """_well's (sinc, w) from the defects d = 1 - sinc of the stacked
    arguments x = (a, b) below 1: sinc = 1 - d, and w = (1+lam) - lam*(1 -
    sinc(a)*sinc(b)), two terms >= 0 for lam < 0 that do not cancel even at
    the nilpotent center lam = -1."""
    d = _sinc_defect(x)
    sinc = 1.0 - d
    w = sinc[0] * d[1]
    w += d[0]
    w *= lam
    return sinc, np.subtract(1.0 + lam, w, out=w)


def _period_integrand(sys: PotentialSystem, xi, nodes):
    well = _product_well(sys, xi, nodes)
    if well is None:
        return _by_form(sys, xi, nodes, _period_integrand, _period_sinc)
    _, D, W = well
    f = np.divide(D, W, out=W)  # 4/sqrt(w) = 4*sqrt(D/W)
    np.sqrt(f, out=f)
    f *= 4.0
    return f


def _period_sinc(sys: PotentialSystem, xi, nodes):
    _, w = _well(sys, xi, nodes)
    np.sqrt(w, out=w)
    return np.divide(4.0, w, out=w)


# 4/sqrt(w) - 4, rationalized: 1 - w = -lam*s, so nothing cancels; lam
# multiplies last, so a subnormal lam rounds once, not at every factor

def _deviation_integrand(sys: PotentialSystem, xi, nodes):
    well = _product_well(sys, xi, nodes)
    if well is None:
        return _by_form(sys, xi, nodes, _deviation_integrand, _deviation_sinc)
    num, D, W = well  # -4*lam*num/(sqrt(W)*(sqrt(W) + sqrt(D)))
    r = np.sqrt(W, out=W)
    d = np.sqrt(D, out=D)
    d += r
    d *= r
    num /= d
    num *= -4.0 * sys.lam
    return num


def _deviation_sinc(sys: PotentialSystem, xi, nodes):  # -4*lam*s/(sqrt(w)*(1 + sqrt(w)))
    (sa, sb), w = _well(sys, xi, nodes)
    r = np.sqrt(w, out=w)
    sa *= sb
    d = np.add(r, 1.0, out=sb)
    d *= r
    sa /= d
    sa *= -4.0 * sys.lam
    return sa


# d/dxi of 4/sqrt(w) is -2*lam*(ds/dxi)/w^(3/2), d sinc(a)/dxi =
# -xi*cos(u)^4*s3(a) = -R_a/(P_a*xi), alike for b.  R cancels as 4*eps/xi^2
# of the row's |f|: below xi = 1 a row takes V = R/xi^2 from the series and
# 2*lam*xi last, so no power of xi forms before it.  A block that reaches
# xi = 1 takes R on every row, its rows below 1 again.

def _slope_integrand(sys: PotentialSystem, xi, nodes):
    well = _product_well(sys, xi, nodes, slope=True)
    if well is None:
        return _by_form(sys, xi, nodes, _slope_integrand, _slope_sinc)
    q, D, W = well
    r = np.divide(D, W, out=D)
    np.sqrt(r, out=r)
    q /= W
    q *= r
    del well, D, W, r  # the well's block goes before the rows below 1 run again
    q = _slope_scale(2.0 * sys.lam, xi, q)
    if xi.size > 1 and 0 < np.count_nonzero(below := xi[:, 0] < 1.0) < xi.size:
        q[below] = _slope_integrand(sys, xi[below], nodes)
    return q


def _slope_sinc(sys: PotentialSystem, xi, nodes):
    sinc, w, (q, p) = _well(sys, xi, nodes, slope=True)  # q = v_a*sinc(b) + sinc(a)*v_b
    q *= sinc[1]
    p *= sinc[0]
    q += p
    r = np.sqrt(w, out=p)
    if abs(sys.lam) > RESCALED_LAM:  # lam/w is about 1/s, q/sqrt(w) about lam^-1/2
        q /= r
        q *= np.divide(sys.lam, w, out=w)
        return _slope_scale(2.0, xi, q)
    q /= np.multiply(w, r, out=w)
    return _slope_scale(2.0 * sys.lam, xi, q)


def _slope_scale(factor: float, xi, q):
    """q*factor, then times xi on its rows below xi = 1 and over xi on the
    others, so a tiny xi at a large lam rounds once, where the result does."""
    q *= factor
    if xi.size == 1:
        x = xi.item()
        return np.multiply(q, x, out=q) if x < 1.0 else np.divide(q, x, out=q)
    below = xi < 1.0  # a column operand costs a block of its own
    if below.any():
        q *= np.where(below, xi, 1.0)
    if not below.all():
        q /= np.where(below, 1.0, xi)
    return q


def _coupling_integrand(sys: PotentialSystem, xi, nodes):
    # dT/dlam = -2*s/w^(3/2), as -2*(num/W)*sqrt(D/W): its factors stay near
    # the result's size, where W*sqrt(W) would overflow once D passes 1e205,
    # which amplitudes below PRODUCT_XI_MAX allow
    well = _product_well(sys, xi, nodes)
    if well is None:
        return _by_form(sys, xi, nodes, _coupling_integrand, _coupling_sinc)
    num, D, W = well
    r = np.divide(D, W, out=D)
    np.sqrt(r, out=r)
    num /= W
    num *= r
    num *= -2.0
    return num


def _coupling_sinc(sys: PotentialSystem, xi, nodes):
    (sa, sb), w = _well(sys, xi, nodes)
    sa *= sb
    r = np.sqrt(w, out=sb)
    if abs(sys.lam) > RESCALED_LAM:  # s/sqrt(w), then /w, underflows only where the result does
        sa /= r
        sa /= w
    else:
        sa /= np.multiply(w, r, out=w)
    sa *= -2.0
    return sa


class _Kind(NamedTuple):
    """One period integral: its integrand, its word in NoConvergence, its
    _floor flags, its least amplitude at lam = -1, and whether it is > 0
    where w is accepted, so its rule of |f| is its rule of f, unsummed."""

    integrand: object
    what: str
    derivative: bool
    nilpotent_min: float
    positive: bool
    difference: bool = False


_PERIOD = _Kind(_period_integrand, "period", False, NILPOTENT_XI_MIN, True)  # 4/sqrt(w), w > 0
_DEVIATION = _Kind(_deviation_integrand, "deviation", True, NILPOTENT_XI_MIN, False)
_SLOPE = _Kind(_slope_integrand, "derivative", True, NILPOTENT_DERIVATIVE_XI_MIN, False, True)
_COUPLING = _Kind(_coupling_integrand, "derivative", True, NILPOTENT_DERIVATIVE_XI_MIN, False)


def _integrals(sys: PotentialSystem, *parts):
    """(value, err_est, converged) arrays of the parts (kind, xi), one row per
    checked amplitude in the order given, from one _periodic call at REL_TOL,
    each row with the bits of its kind's call alone; empty parts are dropped.
    A call of one positive kind takes its rule of |f| from its rule of f."""
    if len(parts) > 1:
        parts = [part for part in parts if part[1].size] or parts[:1]
    if len(parts) == 1:  # one kind: no per-part bookkeeping
        (kind, xi), = parts
        return _periodic(lambda rows, nodes: kind.integrand(sys, xi[rows, None], nodes), xi,
                         REL_TOL, _floor(sys, xi, kind.derivative, kind.difference), kind.positive)
    xi, sizes = np.concatenate([x for _, x in parts]), [x.size for _, x in parts]
    bounds = np.add.accumulate([0] + sizes)  # part i: rows bounds[i] to bounds[i+1] - 1

    def f(rows, nodes):  # rows ascend: each part's rows are one run of them
        x, cuts = xi[rows, None], rows.searchsorted(bounds).tolist()
        blocks = [kind.integrand(sys, x[lo:hi], nodes)
                  for (kind, _), lo, hi in zip(parts, cuts, cuts[1:]) if lo < hi]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    derivative = np.array([kind.derivative for kind, _ in parts]).repeat(sizes)
    difference = np.array([kind.difference for kind, _ in parts]).repeat(sizes)
    return _periodic(f, xi, REL_TOL, _floor(sys, xi, derivative, difference))


def _floor(sys: PotentialSystem, xi: np.ndarray, derivative, difference=False):
    """The rounding floor of the integrals at the amplitudes xi: where w is
    taken directly it cancels as g(xi) at the turning point, and T goes as
    w^-1/2; a derivative goes as w^-3/2, and it and the deviation T - 2*pi
    are carried by sinc(a) and sinc(b), whose arguments round by EPS*xi/2;
    the slope's sinc x - cos x (difference) cancels as 4*EPS/xi^2 from xi =
    1 up.  Flags are a kind's or per amplitude; one amplitude's are floats."""
    if xi.size == 1:
        x, cancellation = xi.item(), 1.0
        if sys.lam >= 0.0 or x >= 1.0:  # _well takes w directly
            lsx = sys.lam * math.sin(x)
            g = x + lsx  # 0 only past the edge, where numpy's quotient is inf
            cancellation = (x + abs(lsx)) / g if g else math.inf
        r = 2.0 / x if x >= 1.0 else 0.0
    else:
        x, lsx = xi, sys.lam * np.sin(xi)
        direct = True if sys.lam >= 0.0 else xi >= 1.0  # _well's rows that take w directly
        cancellation = np.divide(xi + np.abs(lsx), xi + lsx, out=np.ones(xi.size), where=direct)
        r = np.where(xi >= 1.0, 2.0 / xi, 0.0)
    floor = (0.5 + derivative) * CANCELLATION_FLOOR * cancellation
    floor += derivative * (0.5 * EPS * x)  # 0.0 where not a derivative, which adds exactly
    floor += difference * (EPS * (r * r))
    return max(floor, ROUNDING_FLOOR) if xi.size == 1 else np.maximum(ROUNDING_FLOOR, floor)


def _periodic(f, xi: np.ndarray, rel_tol: float, floor, positive: bool = False):
    """(value, err_est, converged) arrays of len(xi) integrals over
    [0, pi/2] by the trapezoid rule, f(rows, nodes) giving integrand rows[i]
    in row i at the node pair nodes = (v, halves) of _squares, which it
    must not write (a cached pair is read-only); rows is an ascending index
    array, or slice(None) for one amplitude.  Each integrand must extend to
    an even, pi-periodic analytic function whose bandwidth is that of
    cos(xi*cos v).

    Integral i starts at N = 2^ceil(log2(xi[i]/4 + 16)), past the bandwidth:
    its first pass evaluates the 2N+1 nodes j*pi/(4N), which hold the rules
    with 2N and, on every other node, N intervals; each later pass doubles
    the intervals and evaluates only the new midpoints, until |fine -
    coarse| <= rel_tol times the rule of |f|, which is |fine| for a
    one-signed integrand and stays away from 0 for one whose integral
    vanishes.  err_est is that difference, floored at floor (relative
    rounding, one per integral or for all) times the rule of |f|, and at
    SUBNORMAL_FLOOR where that rule is not 0.  An integral whose floor
    exceeds rel_tol, whose difference stops shrinking or whose next pass
    would pass MAX_NODES stops alone with converged=False.  With positive
    set every integrand value is > 0, and the rule of |f| is taken to be
    the fine rule itself, without an abs pass or its sum.

    One amplitude (xi.size == 1, floor a float) runs _periodic_one, the same
    arithmetic on floats: the same bits without numpy's dispatch on arrays
    of one value.
    """
    if xi.size == 1:
        return _periodic_one(f, xi.item(), rel_tol, floor, positive)
    rows, floor = np.arange(xi.size), floor + np.zeros(xi.size)
    intervals = 2 * np.minimum(np.exp2(np.ceil(np.log2(0.25 * xi + 16.0))), MAX_NODES // 4).astype(int)
    # a difference at least the last one has stopped shrinking; one whose
    # floor exceeds rel_tol has nothing to shrink to, and stops at once
    last, rules, value = np.where(floor > rel_tol, -math.inf, math.inf), None, None
    while True:
        coarse, fine, scale = rules = _trapezoid(f, rows, intervals, rules, positive)
        diff = np.abs(fine - coarse)
        e = np.maximum(np.maximum(diff, floor * scale), SUBNORMAL_FLOOR * (scale > 0.0))
        ok = e <= np.maximum(rel_tol * scale, TINY)  # subnormals hold no relative precision
        # every row takes its result; the rows that go on overwrite theirs
        if value is None:
            value, err, converged = fine, e, ok
        else:
            value[rows], err[rows], converged[rows] = fine, e, ok
        if ok.all():  # every row converged, as most single integrals do at once
            return value, err, converged
        go = ~ok & (diff < last) & (2 * intervals < MAX_NODES)
        if not go.any():
            return value, err, converged
        rows, intervals, last, rules, floor = (
            rows[go], 2 * intervals[go], diff[go], rules[:, go], floor[go])


def _periodic_one(f, x: float, rel_tol: float, floor: float, positive: bool):
    """_periodic of the one amplitude x, its start count, stop test and
    sums (_trapezoid_one) held in floats; math.log2 rounds as np.log2 does
    at the powers of two, where the start count steps."""
    intervals = 2 * min(2 ** math.ceil(math.log2(0.25 * x + 16.0)), MAX_NODES // 4)
    last, rules = -math.inf if floor > rel_tol else math.inf, None
    while True:
        coarse, fine, scale = rules = _trapezoid_one(f, intervals, rules, positive)
        # max keeps a NaN only as its first argument; np.maximum keeps any
        diff, floored = abs(fine - coarse), floor * scale
        e = max(diff, floored, SUBNORMAL_FLOOR * (scale > 0.0)) if floored == floored else floored
        ok = e <= max(rel_tol * scale, TINY)
        if ok or not (diff < last and 2 * intervals < MAX_NODES):
            return np.array([fine]), np.array([e]), np.array([ok])
        intervals, last = 2 * intervals, diff


def _chunks(k: int, first: bool):
    """(j, nodes) for each chunk of at most EVAL_NODES nodes of a pass with k
    intervals, node j of the pass its first: all k + 1 nodes of a first pass,
    else the k // 2 new midpoints; a pass of at most CACHE_NODES nodes is one
    chunk, cached with both arrays of its node pair read-only."""
    step, count = (1, k + 1) if first else (2, k // 2)
    if count > CACHE_NODES:
        h = HALF_PI / k
        return ((j, _squares(np.arange(step * j + step - 1, step * min(j + EVAL_NODES, count), step) * h))
                for j in range(0, count, EVAL_NODES))
    nodes = _NODES.get((k, step))
    if nodes is None:
        nodes = _squares(np.arange(step - 1, step * count, step) * (HALF_PI / k))
        for array in nodes:
            array.flags.writeable = False
        _NODES[k, step] = nodes
    return ((0, nodes),)


def _trapezoid(f, rows, intervals, last, positive: bool):
    """(coarse, fine, |f|) trapezoid rules on [0, pi/2] of the integrals rows,
    the fine one with intervals[i] intervals: all its nodes, the ends at half
    weight, without last, else last's rules and only the new midpoints.  The
    rows that share a count are evaluated together, EVAL_NODES nodes at most.
    With positive set the rule of |f| is the fine rule."""
    first = last is None
    if first:
        q = np.zeros((3, rows.size))
    else:  # the last fine rule is the new coarse one; the midpoints add to half of it
        q = np.empty_like(last)
        q[0] = last[1]
        np.multiply(last[1:], 0.5, out=q[1:])
    for k in sorted(set(intervals.tolist())):
        at = (intervals == k).nonzero()[0]
        h = HALF_PI / k
        for j, nodes in _chunks(k, first):
            block = EVAL_NODES // nodes[0].size  # a short last chunk takes more rows
            for i in range(0, at.size, block):
                part = at[i:i + block]
                fx = f(rows[part], nodes)
                if first:
                    fx[:, -j % k::k] *= 0.5  # the end nodes j = 0 and k
                    q[0, part] += 2.0 * h * np.add.reduce(fx[:, j % 2::2], axis=1)
                q[1, part] += h * np.add.reduce(fx, axis=1)
                if not positive:
                    q[2, part] += h * np.add.reduce(np.abs(fx, out=fx), axis=1)
    if positive:
        q[2] = q[1]
    return q


def _trapezoid_one(f, k: int, last, positive: bool):
    """_trapezoid of the one integral f(slice(None), nodes) with k
    intervals, its three rules floats."""
    h = HALF_PI / k
    first = last is None
    coarse, fine, scale = (0.0, 0.0, 0.0) if first else (last[1], 0.5 * last[1], 0.5 * last[2])
    for j, nodes in _chunks(k, first):
        fx = f(slice(None), nodes)[0]
        if first:
            fx[-j % k::k] *= 0.5
            coarse += 2.0 * h * float(np.add.reduce(fx[j % 2::2]))
        fine += h * float(np.add.reduce(fx))
        if not positive:
            scale += h * float(np.add.reduce(np.abs(fx, out=fx)))
    return coarse, fine, fine if positive else scale


def _unconverged(xi: float, lam: float, kind: _Kind = _PERIOD) -> str:
    """The NoConvergence message of kind's integral at the amplitude xi."""
    return (f"{kind.what} quadrature is rounding-limited or passed {MAX_NODES} nodes "
            f"at xi={xi:.6g}, lam={lam:g}")


def require_converged(sample: PeriodSample) -> PeriodSample:
    """sample itself, or NoConvergence carrying it when it is flagged."""
    if not sample.converged:
        raise NoConvergence(_unconverged(sample.xi, sample.lam),
                            best=sample.T, err_est=sample.err_est, sample=sample)
    return sample


def _amplitudes(sys: PotentialSystem, xi, kind: _Kind) -> np.ndarray:
    xi = np.asarray(xi, dtype=float).ravel()
    least = kind.nilpotent_min if sys.lam == -1.0 else XI_MIN
    if xi.size == 1:  # one amplitude, checked as a float
        bad = () if least <= xi.item() < math.inf else xi
    else:
        bad = xi[~((xi >= least) & (xi < math.inf))]
    if len(bad):
        raise ValueError(f"xi must be finite, >= {least!r} at lam={sys.lam:g}, got {bad[0]}")
    return xi


def _one_amplitude(xi: np.ndarray) -> np.ndarray:
    """xi, the raveled amplitudes given to a scalar entry point, unless it
    holds other than one: a ValueError names the count."""
    if xi.size != 1:
        raise ValueError(f"expected one amplitude, got {xi.size}")
    return xi


def period_samples(sys: PotentialSystem, xi) -> list[PeriodSample]:
    """Periods of the orbits through (x, 0) for every amplitude x > 0 of the
    array xi, in one pass of the engine.  A sample that did not converge is
    returned flagged (converged=False) with its best estimate, not raised."""
    xi = _amplitudes(sys, xi, _PERIOD)
    return _samples(sys, xi, sys.G(xi).tolist())


def period_at_amplitude(sys: PotentialSystem, xi: float) -> PeriodSample:
    """Period of the orbit through (xi, 0), xi > 0."""
    xi = _one_amplitude(_amplitudes(sys, xi, _PERIOD))
    return require_converged(_samples(sys, xi, [float(sys.G(xi[0]))])[0])


def period_at_energy(sys: PotentialSystem, h: float) -> PeriodSample:
    """Period of the orbit on energy level h > 0."""
    xi = _amplitudes(sys, energy_to_amplitude(sys, h), _PERIOD)
    return require_converged(_samples(sys, xi, [h])[0])


def _samples(sys, xi, hs):
    value, err, converged = _integrals(sys, (_PERIOD, xi))
    new, lam = tuple.__new__, sys.lam
    return [new(PeriodSample, (lam, x, h, v, e, "quadrature", c))
            for x, h, v, e, c in zip(xi.tolist(), hs, value.tolist(), err.tolist(),
                                     converged.tolist())]


def _estimates(sys: PotentialSystem, *parts):
    """(value, err_est) of _integrals over the parts (kind, xi), each xi
    checked against its kind's least amplitude; the first row that did not
    converge raises NoConvergence as its kind's call alone would."""
    parts = [(kind, _amplitudes(sys, xi, kind)) for kind, xi in parts]
    value, err, converged = _integrals(sys, *parts)
    if np.count_nonzero(~converged):
        i = int(np.argmin(converged))
        kind, x = [(kind, x) for kind, xi in parts for x in xi.tolist()][i]  # row i's
        raise NoConvergence(_unconverged(x, sys.lam, kind),
                            best=float(value[i]), err_est=float(err[i]))
    return value, err


def _one_estimate(sys: PotentialSystem, kind: _Kind, xi) -> DerivativeEstimate:
    """kind's integral at the one amplitude xi; other counts raise ValueError."""
    value, err = _estimates(sys, (kind, _one_amplitude(np.ravel(xi))))
    return DerivativeEstimate(value=float(value[0]), err_est=float(err[0]))


def period_deviations(sys: PotentialSystem, xi) -> tuple[np.ndarray, np.ndarray]:
    """T - 2*pi at every amplitude x > 0 of the array xi, to its own relative
    accuracy however close T lies to 2*pi; raises like period_slopes."""
    return _estimates(sys, (_DEVIATION, xi))


def period_slopes(sys: PotentialSystem, xi) -> tuple[np.ndarray, np.ndarray]:
    """dT/dxi at every amplitude x > 0 of the array xi, in one pass of the
    engine; raises NoConvergence at the first one that did not converge."""
    return _estimates(sys, (_SLOPE, xi))


def period_slope(sys: PotentialSystem, xi: float) -> DerivativeEstimate:
    """dT/dxi at the amplitude xi > 0; its sign is that of T'(h)."""
    return _one_estimate(sys, _SLOPE, xi)


def coupling_slopes(sys: PotentialSystem, xi) -> tuple[np.ndarray, np.ndarray]:
    """dT/dlam, the amplitude held fixed, at every amplitude x > 0 of the
    array xi, in one pass of the engine; raises like period_slopes."""
    return _estimates(sys, (_COUPLING, xi))


def period_derivative(sys: PotentialSystem, h: float) -> float:
    """T'(h) = (dT/dxi) / g(xi) on the energy level h > 0."""
    xi = energy_to_amplitude(sys, h)
    return float(period_slopes(sys, xi)[0][0]) / float(sys.g(xi))
