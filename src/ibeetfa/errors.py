"""Exception types shared across the package."""


class IbeetfaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(IbeetfaError):
    """Operands have incompatible shapes."""


class ParameterError(IbeetfaError):
    """A scalar parameter or parameter set violates its constraints.

    ``violations`` carries the named constraint failures when the error
    comes from the parameter validator.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else []


class KeyMismatch(ParameterError):
    """Key material does not belong to the public parameters in use.

    Only the public parameters can tell: a key preimage that does not
    solve F_ID @ e == U for them, a coset map or gadget trapdoor that does
    not fit their F'_ID or F_ID (another system's key, or a key file
    changed within range).
    The CLI reports it as a load error of the key.
    """


class SingularMatrix(IbeetfaError):
    """A matrix that must be nonsingular (over the rationals) is not."""


class SamplingError(IbeetfaError):
    """A sampling routine was called outside its supported regime."""


class FormatError(IbeetfaError):
    """A serialized artifact is malformed or inconsistent."""
