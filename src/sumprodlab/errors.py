"""Exception types shared across the package.

Every error raised deliberately by this package derives from LabError, so
callers (and the CLI) can distinguish "the input broke a contract" from a
genuine bug.  Guard errors (TooLarge, InfeasibleSize) signal that a requested
computation would exceed the configured size budget, not that it is wrong.
"""


class LabError(Exception):
    """Base class for package-specific errors."""


class ZeroDenominator(LabError):
    """A rational was constructed with denominator zero."""


class NotInvertible(LabError):
    """Multiplicative inverse requested for a non-invertible residue."""


class MixedKinds(LabError):
    """Rational and mod-p elements (or residues of different p) were mixed."""


class IndexOutOfRange(LabError):
    """A coset index outside 0..n-1 was requested."""


class TooLarge(LabError):
    """A size guard was exceeded (module-level)."""


class RestrictNotSubset(LabError):
    """A restriction set was not a subset of the difference set."""


class DimensionMismatch(LabError):
    """Vector/matrix dimensions do not agree."""


class NotPrime(LabError):
    """A modulus that must be prime is not."""


class OrderDoesNotDivide(LabError):
    """Requested subgroup order does not divide the group order."""


class CrossCheckMismatch(LabError):
    """Two independent routes to the same count disagreed."""


class BadSpec(LabError):
    """A family specification string or parameter set is invalid."""


class UnknownCheck(LabError):
    """An unregistered check id was requested."""


class InfeasibleSize(LabError):
    """A harness-level construction would exceed its size budget."""


class DegenerateInput(LabError):
    """Input too small or structurally degenerate for the procedure."""


class IoFailure(LabError):
    """A report or set file could not be read, parsed, or written."""
