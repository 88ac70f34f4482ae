"""Desk-scale run of the headline result: alternating critical periods.

For every k the orbit through (2k*pi, 0) has period >= 2*pi while the orbit
through ((2k+1)*pi, 0) has period <= 2*pi (signs flip for negative
coupling).  Each pair therefore brackets an energy with period exactly
2*pi, and between consecutive such crossings the period function must turn
around: one critical period per oscillation, alternating max/min, for as
many k as one cares to check.  This script checks k = 1..8 for lam = 1 and
prints the machine-verified chain.
"""

import math

from periodkit import (PotentialSystem, find_critical_periods,
                       find_two_pi_levels, run_verify, two_pi_brackets)

K_MAX = 8

sys = PotentialSystem(1.0)

# --- step 1: the bracket inequalities ----------------------------------------

print(f"bracket pairs for lam = 1 (k = 1..{K_MAX}):")
print("  k     h_k        T(h_k)-2pi     hbar_k     T(hbar_k)-2pi")
brackets = two_pi_brackets(sys, K_MAX)
for br in brackets:
    print(f"  {br.k:2d}  {br.h_lo:9.2f}   {br.dev_lo:+.6f}    "
          f"{br.h_hi:9.2f}    {br.dev_hi:+.6f}")
print("every left end sits above 2*pi and every right end below: "
      f"{all(br.sign_lo >= 0 >= br.sign_hi for br in brackets)}\n")

# --- step 2: one 2*pi-level inside each bracket --------------------------------

# the crossings are refined inside the brackets measured in step 1
levels = find_two_pi_levels(sys, brackets)
print(f"{len(levels)} energies with T = 2*pi located:")
print(" ", ", ".join(f"{h:.3f}" for h in levels), "\n")

# --- step 3: a critical period between consecutive crossings -------------------

crit = find_critical_periods(sys, (2 * K_MAX + 1) * math.pi)
print(f"{len(crit)} critical periods on (0, {2 * K_MAX + 1}*pi]:")
print("  xi*         T*          kind")
for c in crit:
    print(f"  {c.xi_star:9.5f}  {c.T_star:.8f}  {c.kind}")

kinds = [c.kind for c in crit]
alternating = all(a != b for a, b in zip(kinds, kinds[1:]))
# energy grows with amplitude, so the extrema's energies interleave the levels
rolle = all(any(a < c.h_star < b for c in crit)
            for a, b in zip(levels, levels[1:]))
print(f"\nkinds strictly alternate: {alternating}")
print(f"an extremum between each consecutive pair of 2*pi-levels: {rolle}\n")

# --- the same chain as a one-call verification record ---------------------------

report = run_verify(1.0, K_MAX)
print(f"run_verify(lam=1, k_max={K_MAX}) -> passed = {report.passed}")
for name, check in report.checks.items():
    print(f"  [{'pass' if check.passed else 'FAIL'}] {name}: {check.detail}")
