"""Exception types shared across the package.

Every error raised deliberately by this library derives from
:class:`KubotaMetaError`, so callers can catch one base class at the
CLI boundary and still distinguish the precise failure underneath.
"""


class KubotaMetaError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(KubotaMetaError):
    """The residue characteristic supplied is not a prime number."""


class EvenResidueCharUnsupported(KubotaMetaError):
    """p = 2 requested; only odd residue characteristic is supported."""


class DIsSquare(KubotaMetaError):
    """The requested d is already a square, so adjoining sqrt(d) gives no extension."""


class ZeroElement(KubotaMetaError):
    """Zero passed where a nonzero field element is required."""


class FieldMismatch(KubotaMetaError):
    """Operands belong to different fields."""


class BaseFieldInput(KubotaMetaError):
    """A quadratic extension is required; a base field was supplied."""


class NotFRational(KubotaMetaError):
    """Matrix entries must all lie in the base field."""


class LevelTooSmall(KubotaMetaError):
    """Character sum did not stabilize at the requested truncation level."""


class NotASign(KubotaMetaError):
    """Quotient expected to be +1 or -1 landed elsewhere."""


class NotDiscrete(KubotaMetaError):
    """Operation only defined for discrete-series twist models."""


class NotACoset(KubotaMetaError):
    """Support set is not a coset of an order-2 subgroup of the class group."""


class MinusOneNotSquare(KubotaMetaError):
    """Operation requires -1 to be a square in the field."""


class MinusOneIsSquare(KubotaMetaError):
    """Operation requires -1 to be a non-square in the field."""


class NotRamifiedClass(KubotaMetaError):
    """Square class with odd valuation required."""


class NotNilpotent(KubotaMetaError):
    """Matrix is not nilpotent (needs trace 0 and determinant 0)."""


class ZeroMatrix(KubotaMetaError):
    """The zero matrix has no orbit invariant."""


class ParseError(KubotaMetaError):
    """Malformed field spec, element literal, or matrix literal."""
