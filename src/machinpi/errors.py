"""Exception hierarchy shared across the package.

One class per CLI exit code, 3 to 8 (see machinpi.cli); a failure that
callers branch on more finely is a subclass of its code's class, so the
CLI maps each code through that one base.  Bad arguments are ValueError
(exit 2), like any other usage error.
"""


class MachinPiError(Exception):
    """Base class for all package-specific errors."""


class RecordParseError(MachinPiError):
    """Record file unreadable: bad JSON, wrong schema, missing fields, or
    sidecar content hash mismatch."""


class UnverifiedFormula(MachinPiError):
    """A formula failed exact verification and was not explicitly allowed."""


class NotExactlyVerifiable(UnverifiedFormula):
    """Exact verification cannot run: the coefficients sum too large for
    the branch check, or a Gaussian power is over machin.MAX_POWER_BITS."""


class PrecisionExhausted(MachinPiError):
    """The working precision cannot certify the result: retries ran out,
    or cancellation left an interval negative under a square root or
    straddling zero as a divisor."""


class AmbiguousRounding(PrecisionExhausted):
    """An interval straddles a rounding boundary; raise precision and retry."""


class InsufficientReference(PrecisionExhausted):
    """Reference constant has fewer validated digits than the measurement
    could produce."""


class DegenerateSecondTerm(MachinPiError):
    """The first term already accounts for pi/4 (or pi/4 minus a right angle).

    No meaningful second arctangent term exists.  Reported as a distinct
    outcome rather than a failure.
    """


class DigitCountMismatch(MachinPiError):
    """Stored digit counts disagree with the stored value."""


class EpsilonTooLarge(MachinPiError):
    """The rounding residual is not small relative to the selected rational.

    The construction requires the residual to be well under the value it
    perturbs; we enforce a ratio below 1/10.
    """
