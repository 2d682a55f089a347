"""Exception types shared across the package."""


class TraceCCError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(TraceCCError):
    pass


class EvenCharacteristic(TraceCCError):
    pass


class ReducibleModulus(TraceCCError):
    pass


class FieldMismatch(TraceCCError):
    pass


class DivisionByZero(TraceCCError, ZeroDivisionError):
    pass


class ZeroLeadingCoefficient(TraceCCError):
    pass


class DegenerateSet(TraceCCError):
    pass


class OddDegree(TraceCCError):
    pass


class UnsupportedDegree(TraceCCError):
    pass


class ZeroCode(TraceCCError):
    pass


class IdentityViolation(TraceCCError):
    """A computed value breaks an identity that every finite field or linear code obeys."""


class DuplicateWords(TraceCCError):
    pass


class CompositionLengthMismatch(TraceCCError):
    pass
