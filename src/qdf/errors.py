"""Exception types shared across the toolkit.

Every error raised on a violated precondition derives from QdfError, so
callers (and the CLI) can distinguish "you asked for something invalid"
from genuine bugs.
"""


class QdfError(ValueError):
    """Base class for all precondition violations in this package."""


class EvenDegreeError(QdfError):
    """The extension degree n must be odd."""


class ReduciblePolynomialError(QdfError):
    """A supplied modulus polynomial factors over GF(2)."""


class ZeroInverseError(QdfError):
    """Multiplicative inverse of zero requested."""


class NotADivisorError(QdfError):
    """Subfield degree does not divide the extension degree."""


class AllZeroCoefficientsError(QdfError):
    """The identically-zero equation 0 = 0 has no meaningful root set."""


class ForbiddenSeedError(QdfError):
    """Block/hexagon seeds must avoid 0 and 1."""


class DegenerateTError(QdfError):
    """Quotient values 0 and 1 never occur in a difference list."""


class WrongResidueError(QdfError):
    """Operation requires n divisible by 3 (equivalently n = 3 mod 6 for odd n)."""


class MalformedFamilyError(QdfError):
    """A family file's n, modulus or lambda is not an integer, its blocks are
    not a list, or a block row is not 7 hex elements in canonical slot order."""
