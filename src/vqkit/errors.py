"""The vqkit exception hierarchy and the type checks that config and
argument validation share."""
import dataclasses
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


def strict_keys(raw, allowed, name: str) -> dict:
    """`raw` itself when it is a dict whose keys all lie in `allowed`;
    otherwise a ContractViolation naming `name`."""
    if not isinstance(raw, dict):
        raise ContractViolation(f"{name} must be an object, got {type(raw).__name__}")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ContractViolation(f"unknown {name} keys: {sorted(unknown)}")
    return raw


def from_strict_dict(cls, raw, name: str):
    """`cls(**raw)` for a dataclass `cls`, when `raw` passes `strict_keys` and
    sets every field that has no default; otherwise a ContractViolation."""
    strict_keys(raw, cls.__dataclass_fields__, name)
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in raw
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ContractViolation(f"{name} keys missing: {missing}")
    return cls(**raw)
