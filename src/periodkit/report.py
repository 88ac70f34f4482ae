"""Desk-scale verification pipeline and deterministic serialization.

run_verify chains the whole toolkit for one parameter value: the edge,
bracket inequalities, 2*pi-level localization, critical-period detection
with alternation/interleaving checks, the link dT/dlam = -2*pi*J1(xi)/xi
at lam = 0 between the period integral and the J1 series, and spot
agreement between the quadrature and ODE routes.  Every check lands in a
named pass/fail map with a numeric margin (positive = slack to spare), and
the report is produced even when a check fails.

This module also owns the payload format: sample_dicts for period
samples, field_records for brackets and critical periods, one CSV writer
and one JSON writer, used by report_to_dict and by every CLI subcommand
alike.  Every JSON payload echoes the period engine's tolerance under
"config" (CONFIG).
Serialized output is deterministic: floats are written in round-trip-exact
shortest decimal form, rows are sorted canonically, and no timestamps enter
the payload (run metadata belongs in a sidecar file, see the CLI).
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (TWO_PI, CriticalPeriod, TwoPiBracket, _search, opial_indicator,
                       opial_sign_changes, small_h_check, two_pi_brackets)
from .bessel import _series
from .errors import DegenerateIsochronous, SignViolation
from .model import PotentialSystem, require_valid
from .oracle import orbit_periods
from .quadrature import (REL_TOL, PeriodSample, coupling_slopes, period_samples,
                         require_converged)

# Bound on the small-h check's remainder R - c2*h^2, in units of c2's size
# times h^2 * h/scale: valid couplings read at most ~0.5.
SMALL_H_REMAINDER = 5.0

CHECK_NAMES = ("small-h", "opial", "bessel-link", "oracle-agreement", "alternation",
               "sign-brackets")


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    lam: float
    k_max: int
    brackets: list[TwoPiBracket]
    two_pi_levels: list[float]
    critical_periods: list[CriticalPeriod]
    checks: dict[str, CheckResult]
    tool_version: str

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def _check_small_h(sys) -> CheckResult:
    # the center expansion holds for h small against (1+lam)^2; there the
    # residual R(h) = T - T(0+) - T'(0+)*h is c2*h^2 + O(h^3), c2 in closed
    # form (center_curvature).  R less c2*h^2, beyond its err_est, is read
    # against the size of c2's two terms (which vanishes only at lam = 0,
    # c2 at 8/27 too) times h^2 and h/scale: about 0.5 at most on
    # valid couplings, 100 and more where T(0+) is off by 1e-8 of itself or
    # T'(0+) by 1%.  The residual ratio is shown, not judged: ~100 only
    # where c2 is not near 0.
    scale = min(1.0, (1.0 + sys.lam) ** 2)
    rep = small_h_check(sys, [1e-2 * scale, 1e-3 * scale])
    noise = [(h, r, e) for h, r, e in zip(rep.h, rep.residual, rep.err_est) if abs(r) <= e]
    if noise:
        margin = min(abs(r) - e for _, r, e in noise)
        return CheckResult(False, margin, "; ".join(
            f"residual {r:.3e} at h={h:g} within its err_est {e:.3e}" for h, r, e in noise))
    c2, size = sys.center_curvature()
    worst = max(max(abs(r - c2 * h * h) - e, 0.0) / (size * h * h * (h / scale))
                for h, r, e in zip(rep.h, rep.residual, rep.err_est))
    ratio = abs(rep.residual[0] / rep.residual[1])
    return CheckResult(worst <= SMALL_H_REMAINDER, SMALL_H_REMAINDER - worst,
                       f"residual ratio 1e-2/1e-3 = {ratio:.2f} (~100 unless c2 is near 0); "
                       f"remainder past c2*h^2, c2 = {c2:.4e}, reads {worst:.3f} (pass <= "
                       f"{SMALL_H_REMAINDER:g}), energies scaled by {scale:.3g}")


def _check_opial(sys) -> CheckResult:
    least, dist = _opial_reference()
    slack = abs(sys.lam) * least
    margin = min(slack, 1e-10 - dist)
    return CheckResult(slack > 0.0 and dist <= 1e-10, margin,
                       f"one-signed slack on (0, 2*pi) = {slack:.3e}, "
                       f"zero offset at 2k*pi = {dist:.3e}")


@functools.cache
def _opial_reference() -> tuple[float, float]:
    """The least of -indicator/lam on 300 points of (0, 2*pi) and the
    farthest of 2*pi and 4*pi from its nearest zero, which no coupling
    enters: lam only scales the indicator, and a product with |lam| rounds
    monotonically, so |lam| times the least is the least of the products."""
    x = np.linspace(1e-3, TWO_PI - 1e-3, 300)
    least = float(np.min(-opial_indicator(PotentialSystem(1.0), x)))
    zeros = opial_sign_changes(PotentialSystem(1.0), 2.0 * TWO_PI + 0.5)
    return least, max(min(abs(z - TWO_PI) for z in zeros),
                      min(abs(z - 2.0 * TWO_PI) for z in zeros))


@functools.cache
def _check_bessel_link() -> CheckResult:
    """dT/dlam at lam = 0 from the coupling integrand against -2*pi*J1(xi)/xi
    from the power series, two codes that share only the engine loop; no
    coupling enters, so it runs once per process."""
    xs = np.linspace(0.2, 12.0, 60)
    slopes = coupling_slopes(PotentialSystem(0.0), xs)[0]
    gap = float(np.max(np.abs(slopes + TWO_PI * _series(xs)[0] / xs)))
    return CheckResult(gap <= 1e-12, 1e-12 - gap,
                       f"max |dT/dlam + 2*pi*J1(xi)/xi| at lam=0 = {gap:.3e} "
                       f"on {xs.size} amplitudes in [0.2, 12]")


def _check_oracle(sys, xi_max) -> CheckResult:
    # the quadrature against orbit_periods: each quarter period as the sum
    # of its 12 arcs' times, seeded on the orbit by energy conservation, all
    # 120 arcs one stacked DOP853 run, each orbit in its own time unit, and
    # one Hénon run onto their sections; orbit_period, one run from (xi, 0),
    # is the route with no seed
    amps = np.geomspace(0.3, max(1.0, min(33.0, xi_max - 1.0)), 10)
    quads = period_samples(sys, amps)
    odes = orbit_periods(sys, amps, tol=1e-11)
    worst = max(abs(require_converged(q).T - o.T) / q.T for q, o in zip(quads, odes))
    return CheckResult(worst <= 1e-7, 1e-7 - worst,
                       f"max rel gap quadrature/ODE = {worst:.3e} on 10 samples")


def _check_alternation(criticals, levels, k_max) -> CheckResult:
    # order and gaps on T - 2*pi from the deviation integral: T rounds at the
    # ulp of 2*pi, which at tiny |lam| is all of the gap
    kinds = [c.kind for c in criticals]
    devs = [c.dev_star for c in criticals]
    alternates = all(kinds[i] != kinds[i + 1] for i in range(len(kinds) - 1))
    ordered = all((devs[i] > devs[i + 1]) == (kinds[i] == "max") for i in range(len(devs) - 1))
    enough = len(criticals) >= max(k_max - 1, 1)

    interleaved = all(
        any(a < c.h_star < b for c in criticals)
        for a, b in zip(levels, levels[1:]))

    gaps = [abs(a - b) for a, b in zip(devs, devs[1:])]
    margin = min(gaps) if gaps else 0.0
    ok = alternates and ordered and enough and interleaved
    return CheckResult(ok, margin if ok else -1.0,
                       f"{len(criticals)} extrema, alternating={alternates}, "
                       f"interleaved with {len(levels)} levels={interleaved}")


def _check_sign_brackets(sys, brackets) -> CheckResult:
    # each end's deviation must clear its error estimate on the side its
    # inequality requires: exactly when its resolved sign is that side
    direction = 1 if sys.lam > 0.0 else -1
    slack = min(min(direction * br.dev_lo - br.err_lo, -direction * br.dev_hi - br.err_hi)
                for br in brackets)
    return CheckResult(slack > 0.0, slack,
                       f"worst deviation beyond its err_est on the required side = "
                       f"{slack:.3e} over {len(brackets)} brackets")


def run_verify(lam: float, k_max: int) -> VerifyReport:
    """Run the whole pipeline for one parameter value.

    lam must be nonzero (the linear center is degenerate for every check
    that hunts sign changes) with its edge past the window the searches
    need, asked first; k_max is capped at 20 to keep desk-scale runtimes.  A
    critical-period search that does not converge fails the alternation
    check, with no critical periods, instead of raising.
    """
    if lam == 0.0:
        raise DegenerateIsochronous(
            "lam = 0 is the isochronous linear center; nothing to verify")
    if not (1 <= k_max <= 20):
        raise ValueError(f"k_max must lie in [1, 20], got {k_max}")

    sys = PotentialSystem(lam)
    xi_max = (2.0 * k_max + 1.0) * math.pi
    require_valid(sys, xi_max + 1.0)  # the searches' window, before any check

    # small-h next: it refuses the nilpotent center before any quadrature
    checks: dict[str, CheckResult] = {"small-h": _check_small_h(sys)}

    brackets: list[TwoPiBracket] = []
    try:
        brackets = two_pi_brackets(sys, k_max)
        checks["sign-brackets"] = _check_sign_brackets(sys, brackets)
    except SignViolation as exc:
        checks["sign-brackets"] = CheckResult(False, -math.inf, str(exc))

    # the levels and the extrema in one search; near LAM_C a slope integral
    # at a nearly double turning point does not converge, which leaves no
    # extrema to check
    levels, criticals, failure = _search(sys, brackets, xi_max)
    checks["alternation"] = (
        _check_alternation(criticals, levels, k_max) if failure is None else
        CheckResult(False, -math.inf, f"critical-period search failed: {failure}"))

    checks["opial"] = _check_opial(sys)
    checks["bessel-link"] = _check_bessel_link()
    checks["oracle-agreement"] = _check_oracle(sys, xi_max)

    ordered = {name: checks[name] for name in CHECK_NAMES}
    return VerifyReport(lam=lam, k_max=k_max, brackets=brackets,
                        two_pi_levels=levels, critical_periods=criticals,
                        checks=ordered, tool_version=__version__)


# ---------------------------------------------------------------------------
# deterministic serialization

def fmt_float(x: float) -> str:
    """Shortest decimal that round-trips to the same double; integral values
    drop the trailing '.0' (so 2*pi prints as 6.283185307179586)."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".periodkit-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


SAMPLE_FIELDS = ("lambda", "xi", "h", "T", "T_err", "method")
# a scan keeps the samples that did not converge, each row marked
SCAN_FIELDS = SAMPLE_FIELDS + ("converged",)
# the other records' fields are attributes of the same name
BRACKET_FIELDS = ("k", "h_lo", "h_hi", "T_lo", "T_hi", "sign_lo", "sign_hi", "degenerate")
CRITICAL_FIELDS = ("xi_star", "h_star", "T_star", "kind", "refine_err")
CONFIG = {"rel_tol": REL_TOL}


def sample_dicts(samples: list[PeriodSample], fields=SAMPLE_FIELDS) -> list[dict]:
    """Payload records of period samples, in ascending amplitude, with the
    fields SAMPLE_FIELDS or SCAN_FIELDS."""
    return [dict(zip(fields, (s.lam, s.xi, s.h, s.T, s.err_est, s.method, s.converged)))
            for s in sorted(samples, key=lambda s: s.xi)]


def field_records(items, fields) -> list[dict]:
    """Payload records of brackets or critical periods: each item's
    attributes named by fields."""
    return [{name: getattr(item, name) for name in fields} for item in items]


def csv_table(header, records) -> str:
    """CSV with the given header and one line per record (a dict holding
    every header field); numbers in fmt_float form, strings as they are,
    booleans as JSON writes them (true, false)."""
    lines = [",".join(header)]
    for r in records:
        lines.append(",".join(v if isinstance(v, str) else json.dumps(v) if isinstance(v, bool)
                              else fmt_float(v) for v in (r[name] for name in header)))
    return "\n".join(lines) + "\n"


def samples_to_csv(samples: list[PeriodSample], fields=SAMPLE_FIELDS) -> str:
    return csv_table(fields, sample_dicts(samples, fields))


def to_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def report_to_dict(report: VerifyReport) -> dict:
    return {
        "lambda": report.lam,
        "k_max": report.k_max,
        "tool_version": report.tool_version,
        "config": CONFIG,
        "passed": report.passed,
        "checks": {
            name: {"passed": c.passed, "margin": c.margin, "detail": c.detail}
            for name, c in report.checks.items()
        },
        "brackets": field_records(report.brackets, BRACKET_FIELDS),
        "two_pi_levels": list(report.two_pi_levels),
        "critical_periods": field_records(report.critical_periods, CRITICAL_FIELDS),
    }


def report_to_json(report: VerifyReport) -> str:
    return to_json(report_to_dict(report))
