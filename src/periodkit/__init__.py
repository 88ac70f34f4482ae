"""periodkit: the period function of the planar center x'' + x + lam*sin(x) = 0.

Computes T along the period annulus by singular-endpoint quadrature, checks
it against an independent ODE oracle, locates critical periods and the
energy levels where T = 2*pi, and carries a self-contained Bessel-J1 toolbox
whose zeros govern the first-order behavior of T in the coupling.
"""

__version__ = "0.1.0"

from .analysis import (CriticalPeriod, LowEnergyReport, TwoPiBracket,
                       find_critical_periods, find_two_pi_levels,
                       lam_derivative_at_zero, opial_indicator,
                       opial_sign_changes, scan_period, small_h_check,
                       two_pi_brackets)
from .bessel import (BesselEval, j1, j1_integral, j1_series, j1_zeros,
                     variational_integral)
from .errors import (AmbiguousBracket, BracketFailure, DegenerateIsochronous,
                     EventMissed, NoConvergence, NonMonotoneEnergy,
                     PeriodkitError, RangeExceeded, SignViolation,
                     ToleranceUnmet)
from .model import PotentialSystem, energy_to_amplitude
from .oracle import OrbitTrace, energy_drift, orbit_period, orbit_trace
from .quadrature import (DerivativeEstimate, PeriodSample, period_at_amplitude,
                         period_at_energy, period_derivative, period_slope)
from .report import CheckResult, VerifyReport, run_verify

__all__ = [
    "AmbiguousBracket", "BesselEval", "BracketFailure", "CheckResult",
    "CriticalPeriod", "DegenerateIsochronous", "DerivativeEstimate",
    "EventMissed", "LowEnergyReport", "NoConvergence",
    "NonMonotoneEnergy", "OrbitTrace", "PeriodSample",
    "PeriodkitError", "PotentialSystem", "RangeExceeded",
    "SignViolation", "ToleranceUnmet", "TwoPiBracket",
    "VerifyReport", "energy_drift", "energy_to_amplitude",
    "find_critical_periods", "find_two_pi_levels",
    "j1", "j1_integral", "j1_series", "j1_zeros", "lam_derivative_at_zero",
    "opial_indicator", "opial_sign_changes", "orbit_period", "orbit_trace",
    "period_at_amplitude", "period_at_energy", "period_derivative",
    "period_slope", "run_verify", "scan_period", "small_h_check",
    "two_pi_brackets", "variational_integral",
]
