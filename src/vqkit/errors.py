"""The vqkit exception hierarchy, and the value kinds and checks that config
and argument validation share."""
import numbers
import sys


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
    """A real number within the float range (so neither NaN, an infinity nor
    an integer too large for a float) that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# A kind is a (what, test) pair: the values `test` accepts, as `what` names them.
INT = ("an integer in [1, float max]", lambda v: is_int(v) and is_finite_number(v) and v >= 1)
COUNT = ("an integer in [0, float max]", lambda v: is_int(v) and is_finite_number(v) and v >= 0)
# an array size: numpy can hold an array of any two of them (2^56 float64s)
SIZE = ("an integer in [1, 2^28]", lambda v: is_int(v) and 1 <= v <= 2 ** 28)
REAL = ("a finite number", is_finite_number)
NONNEG = ("a finite number >= 0", lambda v: is_finite_number(v) and v >= 0)
FRACTION = ("a number in (0, 1]", lambda v: is_finite_number(v) and 0 < v <= 1)
UNIT = ("a number in [0, 1]", lambda v: is_finite_number(v) and 0 <= v <= 1)
BOOL = ("true or false", lambda v: isinstance(v, bool))


def one_of(*choices):
    """The kind of a string equal to one of the strings `choices`."""
    return f"one of {choices}", lambda v: isinstance(v, str) and v in choices


def list_of(kind, *, distinct=False):
    """The kind of a non-empty list of `kind` values, all different when
    `distinct`."""
    what, test = kind
    return (f"a non-empty list of {'distinct ' if distinct else ''}values, each {what}",
            lambda v: (isinstance(v, list) and len(v) > 0 and all(map(test, v))
                       and (not distinct or len(set(v)) == len(v))))


def check_kinds(values: dict, kinds: dict, name: str) -> None:
    """A ContractViolation for the first key of `kinds` that `values` sets to a
    value its kind does not accept."""
    for key, (what, test) in kinds.items():
        if key in values and not test(values[key]):
            raise ContractViolation(f"{name}.{key} must be {what}, got {values[key]!r}")


def strict_keys(raw, allowed, name: str, required=()) -> dict:
    """`raw` itself when it is a dict whose keys all lie in `allowed` and
    include every `required` key; otherwise a ContractViolation naming `name`."""
    if not isinstance(raw, dict):
        raise ContractViolation(f"{name} must be an object, got {type(raw).__name__}")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ContractViolation(f"unknown {name} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ContractViolation(f"{name} keys missing: {missing}")
    return raw


def from_strict_dict(cls, raw, name: str):
    """`cls(**raw)` for a dataclass `cls` when `raw` passes `strict_keys`;
    otherwise a ContractViolation."""
    return cls(**strict_keys(raw, cls.__dataclass_fields__, name))
