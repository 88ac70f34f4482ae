"""Acceptance suite: one test per top-level claim, at its stated tolerance.

Each test prints a single pass/fail line (visible with `pytest -s`) and then
asserts, so the suite doubles as a human-readable verification record.
"""

import math

import numpy as np
import pytest

from periodkit.analysis import (find_critical_periods, find_two_pi_levels,
                                lam_derivative_at_zero, opial_indicator,
                                opial_sign_changes, small_h_check,
                                two_pi_brackets)
from periodkit.bessel import j1, j1_integral, j1_series, j1_zeros, variational_integral
from periodkit.model import PotentialSystem, energy_to_amplitude
from periodkit.oracle import energy_drift, orbit_period
from periodkit.quadrature import period_at_amplitude, period_at_energy

PI = math.pi
TWO_PI = 2 * PI


def _report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_01_isochrony_baseline():
    s0 = PotentialSystem(0.0)
    worst = max(abs(period_at_energy(s0, float(h)).T - TWO_PI)
                for h in np.logspace(-6, 6, 50))
    _report(1, "isochrony-baseline", worst <= 1e-9,
            f"max |T - 2*pi| = {worst:.3e} over 50 energies, tol 1e-9")


def test_02_small_energy_expansion():
    ratios = {}
    for lam in (-0.5, 0.5, 1.0, 2.0):
        rep = small_h_check(PotentialSystem(lam), [1e-2, 1e-3])
        ratios[lam] = abs(rep.residual[0] / rep.residual[1])
    ok = all(50.0 <= r <= 200.0 for r in ratios.values())
    _report(2, "small-energy-expansion", ok,
            "residual ratios 1e-2/1e-3: "
            + ", ".join(f"lam={k:g}: {v:.1f}" for k, v in ratios.items()))


def test_03_bracket_inequalities():
    worst = math.inf
    for lam in (0.5, 1.0, 2.0, 4.0, -0.5, -0.9):
        direction = 1.0 if lam > 0 else -1.0
        for br in two_pi_brackets(PotentialSystem(lam), 10):
            worst = min(worst, direction * (br.T_lo - TWO_PI))
            worst = min(worst, direction * (TWO_PI - br.T_hi))
    _report(3, "bracket-inequalities", worst >= -1e-8,
            f"worst signed slack = {worst:.3e} over 6 couplings x 10 brackets, tol -1e-8")


def test_04_two_pi_levels():
    s1 = PotentialSystem(1.0)
    brackets = two_pi_brackets(s1, 10)
    levels = find_two_pi_levels(s1, brackets)
    increasing = all(b > a for a, b in zip(levels, levels[1:]))
    worst = max(abs(period_at_energy(s1, h).T - TWO_PI) for h in levels)
    one_each = all(any(br.h_lo < h < br.h_hi for h in levels) for br in brackets)
    ok = len(levels) >= 10 and increasing and worst <= 1e-9 and one_each
    _report(4, "two-pi-levels", ok,
            f"{len(levels)} levels, increasing={increasing}, "
            f"max |T - 2*pi| = {worst:.3e}, one per bracket={one_each}")


def test_05_critical_periods():
    s1 = PotentialSystem(1.0)
    crit = find_critical_periods(s1, 21 * PI)
    kinds = [c.kind for c in crit]
    alternate = all(a != b for a, b in zip(kinds, kinds[1:]))
    levels = find_two_pi_levels(s1, two_pi_brackets(s1, 10))
    level_amps = [energy_to_amplitude(s1, h) for h in levels]
    amps = [c.xi_star for c in crit]
    interleaved = all(any(a < x < b for x in amps)
                      for a, b in zip(level_amps, level_amps[1:]))
    ok = len(crit) >= 9 and alternate and interleaved
    _report(5, "critical-periods", ok,
            f"{len(crit)} extrema on (0, 21*pi], alternating={alternate}, "
            f"one between each consecutive 2*pi-level pair={interleaved}")


def test_06_bessel_identity():
    worst_id = max(abs(variational_integral(float(x)) - TWO_PI * j1(float(x)).value)
                   for x in np.linspace(0.0, 20.0, 200))
    worst_xm = max(abs(j1_series(float(x)).value - j1_integral(float(x)).value)
                   for x in np.linspace(0.0, 12.0, 500))
    ok = worst_id <= 1e-10 and worst_xm <= 1e-12
    _report(6, "bessel-identity", ok,
            f"identity gap {worst_id:.3e} (tol 1e-10), "
            f"series/integral gap {worst_xm:.3e} (tol 1e-12)")


def test_07_variational_derivative():
    limit = lam_derivative_at_zero(1e-3).value
    limit_ok = abs(limit + PI) <= 1e-4

    grid = np.arange(0.5, 12.0 + 1e-9, 0.25)
    vals = [lam_derivative_at_zero(float(x)).value for x in grid]
    zeros = []
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0.0:
            a, b = float(grid[i]), float(grid[i + 1])
            pos = vals[i] > 0.0
            for _ in range(30):
                m = 0.5 * (a + b)
                if (lam_derivative_at_zero(m).value > 0.0) == pos:
                    a = m
                else:
                    b = m
            zeros.append(0.5 * (a + b))
    targets = [z for z in j1_zeros(4) if z <= 12.0]
    match = (len(zeros) == len(targets)
             and all(abs(z - t) <= 1e-3 for z, t in zip(zeros, targets)))
    _report(7, "variational-derivative", limit_ok and match,
            f"limit at xi->0: {limit:.6f} (-pi +- 1e-4), "
            f"{len(zeros)} zeros vs J1 zeros, matched={match}")


def test_08_oracle_agreement():
    worst_rel = 0.0
    worst_drift = 0.0
    for lam in (-0.5, 0.5, 1.0, 2.0, 4.0):
        sys = PotentialSystem(lam)
        for xi in (0.1, 0.7, 3.0, 10.0, 25.0, 40.0):
            quad = period_at_amplitude(sys, xi)
            ode = orbit_period(sys, xi, tol=1e-11)
            worst_rel = max(worst_rel, abs(quad.T - ode.T) / quad.T)
            h = float(sys.G(xi))
            drift = energy_drift(sys, xi, tol=1e-11)
            worst_drift = max(worst_drift, drift / (1e-8 * (1 + h)))
    ok = worst_rel <= 1e-7 and worst_drift <= 1.0
    _report(8, "oracle-agreement", ok,
            f"max rel period gap = {worst_rel:.3e} (tol 1e-7), "
            f"max drift/bound = {worst_drift:.3f} over 30 samples")


def test_09_nilpotent_blowup():
    sn = PotentialSystem(-1.0)
    hs = np.array([1e-10, 1e-8, 1e-6, 1e-4])
    ts = np.array([period_at_energy(sn, float(h)).T for h in hs])
    decreasing = bool(np.all(np.diff(ts) < 0.0))
    slope = float(np.polyfit(np.log(hs), np.log(ts), 1)[0])
    ok = decreasing and ts[1] > 500.0 and abs(slope + 0.25) <= 0.02
    _report(9, "nilpotent-blowup", ok,
            f"decreasing={decreasing}, T(1e-8) = {ts[1]:.1f} (> 500), "
            f"log-log slope = {slope:.4f} (-0.25 +- 0.02)")


def test_10_opial_witness():
    s1 = PotentialSystem(1.0)
    x = np.linspace(TWO_PI / 501, TWO_PI - TWO_PI / 501, 500)
    all_negative = bool(np.all(opial_indicator(s1, x) < 0.0))
    zeros = opial_sign_changes(s1, 20.0)
    d1 = min(abs(z - TWO_PI) for z in zeros)
    d2 = min(abs(z - 2 * TWO_PI) for z in zeros)
    ok = all_negative and d1 <= 1e-10 and d2 <= 1e-10
    _report(10, "opial-witness", ok,
            f"indicator < 0 on 500-point grid of (0, 2*pi): {all_negative}; "
            f"zero offsets at 2*pi, 4*pi: {d1:.1e}, {d2:.1e} (tol 1e-10)")
