"""The vqkit exception hierarchy and the type checks that config and
argument validation share."""
import math
import numbers


class VQKitError(Exception):
    """Base class for all vqkit errors."""


class ContractViolation(VQKitError):
    """An operation was called with arguments that violate its contract."""


class NumericFailure(VQKitError):
    """A computation produced NaN/Inf or otherwise failed numerically."""


class DegenerateInput(VQKitError):
    """Input is degenerate for the requested operation (e.g. zero-norm vector under cosine)."""


class ConfigError(VQKitError):
    """Experiment configuration is malformed or contains unknown keys."""


def is_int(value) -> bool:
    """An integer that is not a bool (bool subclasses int)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A finite real number that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))
