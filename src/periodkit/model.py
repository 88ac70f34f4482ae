"""Potential family g(x) = x + lam*sin(x) and its energy geometry.

The planar system x' = -y, y' = g(x) has Hamiltonian H = y^2/2 + G(x) with
G(x) = x^2/2 + lam*(1 - cos x).  For lam >= -1 the origin is a center; the
orbit through (xi, 0) lives on the energy level h = G(xi) while xi is below
the edge, the first zero of g on (0, inf), which exists only past LAM_C, on
(pi, X_MIN]; edge() and require_valid alone answer where the family is valid.
This module holds the closed-form pieces (g, G, the edge, local period
asymptotics), the root-solving glue between energy and amplitude, and
_brent, the scalar root finder behind the edge, the inversion and
analysis.opial_sign_changes.  _brent calls scipy's compiled brentq, and the
ODE oracle scipy's compiled DOP853; _scipy_extension loads each from its
file on first use, without executing the scipy package, so periodkit loads
no scipy module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonMonotoneEnergy

# Root of tan x = x in (pi, 3*pi/2), where sin(x)/x takes its minimum, and
# the coupling above which g(X_MIN) < 0, i.e. side equilibria appear.
X_MIN = 4.493409457909064
LAM_C = -X_MIN / math.sin(X_MIN)

# Taylor coefficients of x - sin(x) = x^3 * sum_n (-1)^n x^(2n) / (2n+3)!,
# which gives the sinc defect 1 - sin(x)/x to the last bit below |x| = 1.
_SIN_DEFECT = tuple((-1) ** n / math.factorial(2 * n + 3) for n in range(9))[::-1]

# Brent's relative tolerance, scipy's brentq default of 4 ulp, and its
# iteration cap.  scipy stops at 100; the headroom is for roots of functions
# whose values are tiny, where Brent's interpolation products underflow and
# it creeps by steps of its tolerance.  A root found within 100 takes the
# same iterates.
BRENT_RTOL = 4.0 * math.ulp(1.0)
BRENT_MAXITER = 200


_EXTENSIONS = {}  # scipy's compiled extensions by module name, once loaded
_EXTENSIONS_LOCK = threading.Lock()


def _scipy_extension(subpackage: str, name: str):
    """scipy's compiled extension scipy.<subpackage>.<name>, loaded from its
    file on the first call without executing the scipy package, and kept
    for the process.  Finding the file imports no module: scipy's directory
    comes from its import spec.  A single-phase extension enters sys.modules
    as it loads; an entry this load made is removed, since a later import of
    the subpackage would find it there and not set the package's attribute.
    A missing file raises ImportError naming the path."""
    key = f"scipy.{subpackage}.{name}"
    with _EXTENSIONS_LOCK:
        if key not in _EXTENSIONS:
            scipy = importlib.util.find_spec("scipy")
            if scipy is None:
                raise ImportError(f"{key} needs scipy, which is not installed")
            path = os.path.join(os.path.dirname(scipy.origin), subpackage)
            spec = importlib.machinery.FileFinder(path, (
                importlib.machinery.ExtensionFileLoader,
                importlib.machinery.EXTENSION_SUFFIXES)).find_spec(key)
            if spec is None:
                raise ImportError(f"no compiled extension {name} in {path}")
            imported = key in sys.modules
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if not imported:
                sys.modules.pop(key, None)
            _EXTENSIONS[key] = module
        return _EXTENSIONS[key]


def _brent(f, a: float, b: float, xtol: float) -> float:
    """The root of f in [a, b], whose end values differ in sign, by scipy's
    compiled brentq, to within xtol + BRENT_RTOL*|x|.  A NaN value or ends
    of one sign raise brentq's ValueError, BRENT_MAXITER iterations
    NoConvergence with the best estimate, within the bracket's width."""
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    root, _, _, flag = _scipy_extension("optimize", "_zeros")._brentq(
        value, a, b, xtol, BRENT_RTOL, BRENT_MAXITER, (), True, False)
    if flag != 0:  # C's CONVERR: the cap was reached
        raise NoConvergence(f"Brent's method on [{a:.17g}, {b:.17g}] did not converge in "
                            f"{BRENT_MAXITER} iterations", best=root, err_est=abs(b - a))
    return root


def _horner(coeffs, x, out=None):
    """The polynomial with coeffs, highest power first, at x by Horner's
    rule, as np.polyval takes it to the bit; a float stays one, and fast,
    and an array takes one new array, or out, which each step updates in
    place."""
    p = x * coeffs[0] if out is None else np.multiply(x, coeffs[0], out=out)
    p += coeffs[1]  # 0*x + coeffs[0] is coeffs[0] for finite x: polyval's first step
    for c in coeffs[2:]:
        p *= x
        p += c
    return p


def _sinc_defect(x):
    """1 - sin(x)/x for |x| < 1, from its Taylor series."""
    x2 = x * x
    d = _horner(_SIN_DEFECT, x2)
    d *= x2
    return d


def _near_center(x, out, series):
    """out, but series(x) at the entries |x| < 1."""
    near = np.abs(x) < 1.0
    if not near.any():
        return out
    # no series term overflows off the center; a 0-d x gives a scalar
    return np.where(near, series(np.where(near, x, 0.0)), out)[()]


@dataclass(frozen=True)
class PotentialSystem:
    """The one-parameter family, lam in [-1, +inf)."""

    lam: float

    def __post_init__(self):
        if not math.isfinite(self.lam) or self.lam < -1.0:
            raise ValueError(f"lam must be finite and >= -1, got {self.lam}")

    def g(self, x):
        """Restoring force x + lam*sin(x); odd, g(0) = 0.  A finite float
        takes math.sin and float arithmetic: numpy's bits, without its round
        trips for one value."""
        if isinstance(x, float) and abs(x) < math.inf:
            x = float(x)
            return np.float64(self._g_series(x) if self.lam < 0.0 and abs(x) < 1.0
                              else x + self.lam * math.sin(x))
        out = x + self.lam * np.sin(x)
        return out if self.lam >= 0.0 else _near_center(x, out, self._g_series)

    def _g_series(self, x):
        """g below |x| = 1 for lam < 0 as x*((1+lam) - lam*(1 - sinc x)),
        two terms >= 0 that do not cancel even at lam = -1."""
        return x * ((1.0 + self.lam) - self.lam * _sinc_defect(x))

    def G(self, x):
        """Potential energy x^2/2 + lam*(1 - cos x); even, G(0) = 0.

        1 - cos x is evaluated as 2*sin(x/2)^2 to avoid losing digits
        for small x.  A finite float takes math.sin and float arithmetic,
        as in g.
        """
        if isinstance(x, float) and abs(x) < math.inf:
            x = float(x)
            if self.lam < 0.0 and abs(x) < 1.0:
                return np.float64(self._G_series(x))
            s = math.sin(x * 0.5)
            return np.float64(x * x * 0.5 + self.lam * 2.0 * s * s)
        x = np.asarray(x) if not np.isscalar(x) else x
        s = np.sin(np.multiply(x, 0.5))
        out = np.multiply(x, x) * 0.5 + self.lam * 2.0 * s * s
        return out if self.lam >= 0.0 else _near_center(x, out, self._G_series)

    def _G_series(self, x):
        """G below |x| = 1 for lam < 0 as x^2/2 * ((1+lam) - lam*d*(2 - d)),
        d = 1 - sinc(x/2), since 1 - sinc(x/2)^2 = d*(2 - d); nor do these
        two terms cancel."""
        d = _sinc_defect(0.5 * x)
        return 0.5 * (x * x) * ((1.0 + self.lam) - self.lam * d * (2.0 - d))

    def edge(self) -> float:
        """First zero of g on (0, inf), or inf when g has none.

        g > 0 on (0, pi], and g(x)/x = 1 + lam*sin(x)/x where sin(x)/x falls
        monotonically on (pi, X_MIN] to its minimum, so a zero exists iff
        g(X_MIN) <= 0, in (pi, X_MIN].  The test uses the same g that _brent
        brackets, so the bracket's signs agree even within rounding of LAM_C.
        The first call stores the edge in the instance's __dict__, outside
        the fields, so ==, hash and repr do not see it; racing threads at
        most find the same root twice.
        """
        edge = self.__dict__.get("_edge")
        if edge is None:
            edge = math.inf if self.g(X_MIN) > 0.0 else _brent(self.g, math.pi, X_MIN, 1e-300)
            self.__dict__["_edge"] = edge
        return edge

    def center_curvature(self) -> tuple[float, float]:
        """(c2, size): c2 = T''(0+)/2, the h^2 coefficient of the period
        function at an elementary center (lam > -1), T(h) = T(0+) +
        T'(0+)*h + c2*h^2 + O(h^3), and the sum of its two terms' magnitudes,

            c2 = 35*pi*lam^2/(384*(1+lam)^(9/2)) - pi*lam/(48*(1+lam)^(7/2))
               = pi*lam*(27*lam - 8)/(384*(1+lam)^(9/2)),

        from T = 4*int w^(-1/2) d(phi) (quadrature) with sinc(a)*sinc(b)
        expanded to fourth order in xi, and h = G(xi) inverted to second
        order in h.  c2 vanishes at lam = 8/27 as well as at 0; its size only
        at 0.  At the nilpotent center both diverge; +inf stands for them."""
        lam, g1 = self.lam, 1.0 + self.lam
        if g1 == 0.0:
            return math.inf, math.inf
        return (math.pi * lam * (27.0 * lam - 8.0) / (384.0 * g1 ** 4.5),
                math.pi * abs(lam) * (35.0 * abs(lam) + 8.0 * g1) / (384.0 * g1 ** 4.5))

    def center_asymptotics(self) -> tuple[float, float]:
        """Limit values (T(0+), T'(0+)) of the period function at the center.

        For lam > -1 the center is elementary and

            T(0+)  = 2*pi / sqrt(g'(0))
            T'(0+) = pi * (5*g''(0)^2 - 3*g'(0)*g'''(0)) / (12*g'(0)^(7/2))

        with g'(0) = 1+lam, g''(0) = 0 and g'''(0) = -lam, which reduces to
        (2*pi/sqrt(1+lam), lam*pi/(4*(1+lam)^(5/2))).
        For lam = -1 the center is nilpotent and the period blows up; the
        pair (+inf, -inf) is returned as an explicit sentinel and must not
        be fed into further arithmetic.
        """
        g1, g3 = 1.0 + self.lam, -self.lam
        if g1 == 0.0:
            return (math.inf, -math.inf)
        t0 = 2.0 * math.pi / math.sqrt(g1)
        # 0.0 stands for 5*g''(0)^2 and keeps the sign of zero at lam = -0.0
        dt0 = math.pi * (0.0 - 3.0 * g1 * g3) / (12.0 * g1 ** 3.5)
        return (t0, dt0)


def energy_to_amplitude(sys: PotentialSystem, h: float) -> float:
    """Invert h = G(xi) for xi > 0 by Brent's method on a bracket.

    G(x) <= x^2*(1 + max(lam, 0))/2, and for lam < 0 also G(x) <= B*x^2 -
    lam*x^4/24, B = (1 + lam)/2 (1 - cos x >= x^2/2 - x^4/24), so xi0 =
    sqrt(2h/(1+max(lam,0))), for lam < 0 the larger of it and the quartic's
    root sqrt(2h/(B + sqrt(B^2 - lam*h/6))) (which is (24h)^(1/4) at the
    nilpotent center lam = -1, where the quadratic bound sqrt(2h) lies far
    below the root), always starts at or below the root (G(xi0) can exceed
    h only by rounding, and then xi0 is the root); the upper end is found by
    doubling, capped at the edge.  G is strictly increasing below the edge, so the bracket holds one
    root.  The gap G(x) - h is scaled by the power of two that brings h to
    [1/2, 1): Brent's steps use only ratios and comparisons of its values,
    so the scaling leaves its iterates unchanged, except below h ~ 1e-200,
    where its interpolation products would underflow and it would creep by
    steps of its tolerance.  Raises NonMonotoneEnergy if h is at or above
    G(edge), the level where the orbit family ends.
    """
    if not (h > 0.0) or not math.isfinite(h):
        raise ValueError(f"h must be positive and finite, got {h}")
    edge = sys.edge()
    if edge < math.inf and h >= sys.G(edge):
        raise NonMonotoneEnergy(
            f"h={h:g} is at or above G({edge:.6g}) = {float(sys.G(edge)):.6g}, the level "
            f"of the edge where g first vanishes (lam={sys.lam:g})", x=edge)

    shift = -math.frexp(h)[1]

    def gap(x: float) -> float:
        return math.ldexp(float(sys.G(x)) - h, shift)

    lam = sys.lam
    lo = hi = math.sqrt(2.0 * h / (1.0 + max(lam, 0.0)))
    if lam < 0.0:  # hypot and sqrt(h) keep B^2 - lam*h/6 from underflowing
        b = 0.5 * (1.0 + lam)
        lo = hi = max(lo, math.sqrt(2.0 * h / (b + math.hypot(b, math.sqrt(-lam / 6.0) * math.sqrt(h)))))
    while gap(hi) < 0.0:  # lo underflows to 0 for a subnormal h
        lo, hi = hi, min(max(2.0 * hi, math.ulp(0.0)), edge)
    # BRENT_RTOL (4 ulp) sets the accuracy; xtol need only be > 0
    return lo if hi == lo else _brent(gap, lo, hi, 1e-300)


def require_valid(sys: PotentialSystem, x_max: float) -> None:
    """Guard used by scanning operations: raise unless the center's orbit
    family covers amplitudes up to x_max."""
    edge = sys.edge()
    if edge <= x_max:
        raise NonMonotoneEnergy(
            f"center for lam={sys.lam:g} is only valid below x="
            f"{edge:.6g}, needed {x_max:.6g}", x=edge)
