"""Exception and warning types shared across the toolkit."""


class PeriodkitError(Exception):
    """Base class for all toolkit errors."""


class NonMonotoneEnergy(PeriodkitError):
    """The orbit family around the origin does not reach that far: the
    period integrand's w <= 0, an energy at or above the edge's level, or
    amplitudes past the edge (require_valid).  x, where given, is the edge."""

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
    """A bracket held no sign change even after widening, met a NaN while
    refined, or reached the refinement's cap of REFINE_MAXITER calls."""


class SignViolation(PeriodkitError):
    """A measured period contradicts the proven bracket inequality by more
    than 10x the quadrature error.  Not recoverable; indicates a defect."""


class DegenerateIsochronous(PeriodkitError):
    """lam = 0 requested for an operation that hunts zeros of a function
    which is identically zero there (the linear center has constant period)."""


class EventMissed(PeriodkitError):
    """An orbit did not reach the section x = 0: its y fell through 0 while
    x > 0, so it does not enclose the origin, or no crossing came within
    MAX_EVENT_TIME/2 (an invalid parameter/amplitude pair)."""


class ToleranceUnmet(PeriodkitError):
    """A compiled DOP853 run failed (istate < 0), e.g. on its step budget."""


class AmbiguousBracket(UserWarning):
    """A derivative sign change was skipped because |T'| sat below its own
    error estimate at both bracket ends (reported, not refined)."""
