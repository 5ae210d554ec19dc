"""Exception types shared across the package."""


class FqwilsonError(Exception):
    """Base class for package-specific errors."""


class NotPrime(FqwilsonError):
    """A claimed prime characteristic failed the primality check."""


class NotMonic(FqwilsonError):
    """A monic polynomial was required."""


class Reducible(FqwilsonError):
    """A modulus or claimed prime turned out to be reducible."""


class DivisionByZero(FqwilsonError, ZeroDivisionError):
    """Inversion of zero or division by the zero polynomial."""


class NotDivisible(FqwilsonError):
    """An exact division left a nonzero remainder."""


class FieldMismatch(FqwilsonError):
    """Operands belong to incompatible fields."""


class BoundExceeded(FqwilsonError):
    """An exact computation was refused because it exceeds a guard."""


class ZeroC(FqwilsonError):
    """A perturbation constant must be a nonzero field element."""


class EquivalenceViolation(FqwilsonError):
    """Two provably equivalent computations disagreed."""


class TheoremViolation(FqwilsonError):
    """A computation contradicts a proved statement."""


class SchemaVersionMismatch(FqwilsonError):
    """A persisted artifact carries an unknown or corrupt schema."""
