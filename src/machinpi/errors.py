"""Exception hierarchy shared across the package.

Every failure mode that callers are expected to branch on gets its own
class.  The CLI maps classes to exit codes by kind, so some share one:
the four precision failures (PrecisionExhausted, AmbiguousRounding,
NegativeOperand, DivisorStraddlesZero) exit 5, and UnverifiedFormula and
NotExactlyVerifiable exit 4 (see machinpi.cli).
"""


class MachinPiError(Exception):
    """Base class for all package-specific errors."""


class NegativeOperand(MachinPiError):
    """Square root requested on an interval that is entirely negative.

    Signals precision exhaustion upstream: a quantity known to be
    non-negative came out negative after cancellation.
    """


class DivisorStraddlesZero(MachinPiError):
    """Division requested by an interval containing zero.

    Signals catastrophic cancellation upstream.
    """


class PrecisionExhausted(MachinPiError):
    """Retries at increasing working precision ran out."""


class AmbiguousRounding(MachinPiError):
    """An interval straddles a rounding boundary; raise precision and retry."""


class EpsilonTooLarge(MachinPiError):
    """The rounding residual is not small relative to the selected rational.

    The construction requires the residual to be well under the value it
    perturbs; we enforce a ratio below 1/10.
    """


class DegenerateSecondTerm(MachinPiError):
    """The first term already accounts for pi/4 (or pi/4 minus a right angle).

    No meaningful second arctangent term exists.  Reported as a distinct
    outcome rather than a failure.
    """


class NotExactlyVerifiable(MachinPiError):
    """Exact verification cannot run: the coefficients sum too large for
    the branch check, or a Gaussian power is over machin.MAX_POWER_BITS."""


class DivergentArgument(MachinPiError):
    """Series argument outside the convergence domain."""


class ZeroArgument(MachinPiError):
    """Series is undefined at argument zero."""


class UnverifiedFormula(MachinPiError):
    """A formula failed exact verification and was not explicitly allowed."""


class InsufficientReference(MachinPiError):
    """Reference constant has fewer validated digits than the measurement
    could produce."""


class RecordParseError(MachinPiError):
    """Record file unreadable: bad JSON, wrong schema, missing fields, or
    sidecar content hash mismatch."""


class DigitCountMismatch(MachinPiError):
    """Stored digit counts disagree with the stored value."""
