"""Exception types shared across the package."""


class AslatticeError(Exception):
    """Base class for all library errors."""


class DuplicateLabel(AslatticeError):
    pass


class UnknownLabel(AslatticeError):
    pass


class CycleDetected(AslatticeError):
    pass


class MalformedPoset(AslatticeError):
    """A poset document whose fields have the wrong shape or type."""


class CapacityExceeded(AslatticeError):
    pass


class NotAntichain(AslatticeError):
    pass


class DimensionMismatch(AslatticeError):
    pass


class MissingRelation(AslatticeError):
    pass


class NonTermination(AslatticeError):
    pass


class AxiomViolation(AslatticeError):
    pass


class BudgetExceeded(AslatticeError):
    pass


class PreconditionViolated(AslatticeError):
    pass


class InvalidCertificate(AslatticeError):
    pass
