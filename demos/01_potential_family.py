"""Tour of the potential family g(x) = x + lam*sin(x).

The planar system x' = -y, y' = g(x) conserves H = y^2/2 + G(x) with
G(x) = x^2/2 + lam*(1 - cos x).  For lam >= -1 the origin is a center and
every orbit is a closed oval G-level; this script walks the basic geometry:
where the family is valid, how energy and amplitude convert, and what the
period does right at the center.
"""

import math

import numpy as np

from periodkit import PotentialSystem, energy_to_amplitude
from periodkit.model import LAM_C, X_MIN

# --- the force and the potential ------------------------------------------

sys = PotentialSystem(lam=1.0)
x = np.array([0.0, 0.5, np.pi, 2 * np.pi])
print("g(x) =", sys.g(x))
print("G(x) =", sys.G(x))
print("g is odd, G is even, both vanish at the origin.\n")

# --- validity across the parameter ----------------------------------------
# The center is global while x*g(x) > 0 for all x != 0.  g(x)/x is smallest
# at X_MIN, the root of tan x = x in (pi, 3*pi/2), so that holds exactly for
# lam <= LAM_C = -X_MIN/sin(X_MIN); beyond, g picks up extra zeros and a pair
# of side equilibria ends the annulus at the edge, the first zero of g.
# At lam = -1 the linear part vanishes and the center is nilpotent.

print(f"X_MIN = {X_MIN!r}, LAM_C = {LAM_C!r}")
for lam in (-1.0, 0.0, 2.0, 4.5, 5.0, 6.0):
    edge = PotentialSystem(lam).edge()
    print(f"lam = {lam:5.1f}: {'global' if edge == math.inf else 'NOT global':10s} "
          f"(edge {edge:.4f}, lam {'<=' if lam <= LAM_C else '> '} LAM_C), "
          f"center is {'nilpotent' if lam == -1.0 else 'elementary'}")

# --- energy <-> amplitude --------------------------------------------------
# Orbits are labelled either by energy h or by the amplitude xi where they
# cross the positive x-axis; h = G(xi) ties them together.  G is even, so the
# orbit turns around at -xi and xi.

print()
sys = PotentialSystem(1.0)
for h in (0.1, 2 * np.pi**2, 1e4):
    xi = energy_to_amplitude(sys, h)
    print(f"h = {h:12.5g}  ->  xi = {xi:10.6f},  turning points ({-xi:.6f}, {xi:.6f})")

# --- the period at the center ----------------------------------------------
# T extends analytically to the center for lam > -1:
#   T(0+) = 2*pi/sqrt(1+lam),  T'(0+) = lam*pi/(4*(1+lam)^(5/2)).
# At lam = -1 the linearization degenerates and T blows up instead.

print()
for lam in (0.0, 1.0, 3.0, -1.0):
    t0, dt0 = PotentialSystem(lam).center_asymptotics()
    print(f"lam = {lam:4.1f}:  T(0+) = {t0:.6f},  T'(0+) = {dt0:.6f}")
