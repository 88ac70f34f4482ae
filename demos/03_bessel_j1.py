"""J1 two ways, and why the period function cares.

The first-order response of the period to the coupling, at fixed amplitude
xi, is the integral  integral_0^{2pi} sin(xi cos s) cos s ds = 2*pi*J1(xi).
So the stationary amplitudes of that response are exactly the zeros of J1,
and there are infinitely many of them.  The toolbox evaluates J1 by power
series and by the periodic integral above, each with an error bound, so no
external special-function table is needed anywhere.
"""

import math

from periodkit import j1, j1_integral, j1_series, j1_zeros, lam_derivative_at_zero
from periodkit.bessel import IDENTITY_TOL, identity_gap

TWO_PI = 2 * math.pi

# --- two routes, one number ----------------------------------------------------

for xi in (0.2, 1.0, 5.0, 11.0):
    s = j1_series(xi)
    i = j1_integral(xi)
    print(f"xi = {xi:5.2f}: series {s.value:+.15f} (bound {s.err_bound:.1e})   "
          f"integral {i.value:+.15f} (bound {i.err_bound:.1e})")
print()

# --- the identity tying the variational integral to J1 ------------------------
# J1 from the series at every point, so the two sides share no code; the
# series holds to xi = 14, and so does the identity check

worst = identity_gap(14.0, 100)
print(f"max |integral - 2*pi*J1| on [0, 14]: {worst:.2e} (bound {IDENTITY_TOL:.0e})\n")

# --- zeros bracketed from the large-argument cosine, refined from McMahon's ---

zeros = j1_zeros(6)
print("first zeros of J1:", ", ".join(f"{z:.6f}" for z in zeros))
print("gaps:", ", ".join(f"{b - a:.4f}" for a, b in zip(zeros, zeros[1:])),
      " -> pi =", f"{math.pi:.4f}\n")

# --- and the period function feels it ------------------------------------------
# dT/dlam at lam = 0 equals -2*pi*J1(xi)/xi: it vanishes exactly at the J1
# zeros, which is what seeds one critical period per oscillation.

print(" xi      dT/dlam (measured)   -2*pi*J1(xi)/xi")
for xi in (1.0, 2.0, zeros[0], 5.0, zeros[1]):
    est = lam_derivative_at_zero(xi)
    print(f"{xi:7.4f}   {est.value:+.8f}        {-TWO_PI * j1(xi).value / xi:+.8f}")
