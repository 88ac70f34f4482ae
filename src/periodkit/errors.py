"""Exception and warning types shared across the toolkit."""


class PeriodkitError(Exception):
    """Base class for all toolkit errors."""


class NonMonotoneEnergy(PeriodkitError):
    """Raised when g(x) <= 0 is detected at a probe point x > 0 inside a
    search bracket, i.e. the potential is not strictly increasing there and
    the orbit family around the origin does not extend that far."""

    def __init__(self, msg, x=None):
        super().__init__(msg)
        self.x = x


class NoConvergence(PeriodkitError):
    """Quadrature failed to meet its tolerance: its rounding floor exceeds
    it, its differences stopped shrinking, or it passed the node budget.
    Also raised by model._brent past its iteration cap.

    Carries the best available estimate so callers that scan many points can
    record the value and flag it instead of aborting; the message names it
    and its error estimate.
    """

    def __init__(self, msg, best=None, err_est=None, sample=None):
        if best is not None:
            msg = f"{msg}; best estimate {best!r} with err_est {err_est:.3e}"
        super().__init__(msg)
        self.best = best
        self.err_est = err_est
        self.sample = sample


class RangeExceeded(PeriodkitError):
    """Argument outside the validated range of a series evaluation."""


class BracketFailure(PeriodkitError):
    """A root bracket did not contain a sign change even after widening."""


class SignViolation(PeriodkitError):
    """A measured period contradicts the proven bracket inequality by more
    than 10x the quadrature error.  Not recoverable; indicates a defect."""


class DegenerateIsochronous(PeriodkitError):
    """lam = 0 requested for an operation that hunts zeros of a function
    which is identically zero there (the linear center has constant period)."""


class EventMissed(PeriodkitError):
    """The orbit integration never crossed the negative-x half of the
    Poincare section y = 0; the starting point is not on an orbit around
    the origin (diagnostic for an invalid parameter/amplitude pair)."""


class ToleranceUnmet(PeriodkitError):
    """The ODE integrator stalled before reaching the requested tolerance."""


class AmbiguousBracket(UserWarning):
    """A derivative sign change was skipped because |T'| sat below its own
    error estimate at both bracket ends (reported, not refined)."""
