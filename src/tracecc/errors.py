"""Exception types shared across the package."""


class TraceCCError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(TraceCCError, ValueError):
    """Input the constructions are not defined for; the CLI exits 2 on it, as on any ValueError."""


class NotPrime(ParameterError):
    pass


class EvenCharacteristic(ParameterError):
    pass


class ReducibleModulus(ParameterError):
    pass


class FieldMismatch(TraceCCError):
    pass


class DivisionByZero(TraceCCError, ZeroDivisionError):
    pass


class ZeroLeadingCoefficient(TraceCCError):
    pass


class DegenerateSet(ParameterError):
    pass


class OddDegree(ParameterError):
    pass


class UnsupportedDegree(ParameterError):
    pass


class ZeroCode(TraceCCError):
    pass


class IdentityViolation(TraceCCError):
    """A computed value breaks an identity that every finite field or linear code obeys."""


class DuplicateWords(TraceCCError):
    pass


class CompositionLengthMismatch(TraceCCError):
    pass
