"""Computing the period function two independent ways.

The period of the orbit at energy h is a singular integral,

    T(h) = 2*sqrt(2) * integral_0^xi dx / sqrt(h - G(x)),

which the quadrature module regularizes with x = xi*sin(phi) and evaluates
by the periodic trapezoid rule, doubling its intervals until it agrees with
the rule on every other node.  The oracle module instead integrates the flow in time and reads
the period off a Poincare section.  The two routes share no code, so their
agreement is a real check; this script measures it, then scans T along the
annulus and prints the start of a plot-ready CSV.
"""

import math

import numpy as np

from periodkit import (PotentialSystem, orbit_period, period_at_energy,
                       scan_period)
from periodkit.report import SCAN_FIELDS, samples_to_csv

TWO_PI = 2 * math.pi

# --- one orbit, two measurements -------------------------------------------

sys = PotentialSystem(1.0)
quad = period_at_energy(sys, 2 * np.pi**2)
ode = orbit_period(sys, 2 * np.pi, tol=1e-11)
print(f"T at h = 2*pi^2:  quadrature {quad.T:.12f} (err est {quad.err_est:.1e})")
print(f"                  ODE oracle {ode.T:.12f}")
print(f"                  relative gap {abs(quad.T - ode.T)/quad.T:.2e}\n")

# --- the linear center is the flat baseline ---------------------------------

flat = [period_at_energy(PotentialSystem(0.0), float(h)).T for h in (1e-4, 1.0, 1e4)]
print("lam = 0:", ["%.15f" % t for t in flat], " (2*pi everywhere)\n")

# --- the oscillation around 2*pi --------------------------------------------
# For lam != 0, T rises above and dips below 2*pi over and over; the sample
# grid below already shows the first two swings.

samples = scan_period(sys, 0.5, 10 * np.pi, 25)
print(" xi        h            T          T - 2*pi")
for s in samples[::3]:
    print(f"{s.xi:7.3f} {s.h:10.3f}  {s.T:.8f}  {s.T - TWO_PI:+.2e}")

# --- nilpotent edge of the family -------------------------------------------
# At lam = -1 the center degenerates (g'(0) = 0) and small orbits crawl:
# T ~ h^(-1/4) as h -> 0.

sn = PotentialSystem(-1.0)
print("\nlam = -1 blow-up:")
for h in (1e-4, 1e-6, 1e-8):
    print(f"  T({h:g}) = {period_at_energy(sn, h).T:10.3f}")

# --- export ------------------------------------------------------------------
# The same CSV that `periodkit scan ... --format csv --out scan.csv` writes.

print("\nscan as CSV (first rows):")
print("".join(samples_to_csv(samples, SCAN_FIELDS).splitlines(keepends=True)[:3]), end="")
