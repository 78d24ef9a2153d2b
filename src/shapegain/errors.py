"""Exception hierarchy and input-file checks shared across the package.

The CLI maps these onto exit codes: parameter/usage problems exit 1,
numerical failures exit 2, I/O problems (plain OSError) exit 3. The checks
below turn malformed input files into ParameterError.
"""

import contextlib
import json
import math
import numbers
from dataclasses import fields


class ShapegainError(Exception):
    """Base class for all package errors."""


class ParameterError(ShapegainError, ValueError):
    """Invalid argument or configuration value."""


class DegenerateInputError(ParameterError):
    """Input is structurally valid but degenerate (e.g. all-zero constellation)."""


class CapabilityError(ParameterError):
    """Request exceeds a documented capability limit (e.g. oracle size cap)."""


class UnboundedOptimumError(ParameterError):
    """No finite optimum exists for the requested optimization."""


class FramingError(ParameterError):
    """Bit stream length incompatible with the symbol framing."""


class NumericalError(ShapegainError, ArithmeticError):
    """A computation produced non-finite values."""


def load_json(path):
    """Parse a JSON input file; keys starting with "_" are comments at any depth.

    Contents that do not decode (invalid UTF-8, invalid JSON, nesting too
    deep to parse) raise ParameterError; failing to open or read the file
    stays an OSError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_hook=lambda obj: {
                k: v for k, v in obj.items() if not k.startswith("_")})
        except (ValueError, RecursionError) as exc:
            raise ParameterError(f"{path}: not valid JSON: {exc}") from exc


def build_section(name: str, build, doc):
    """build(**doc); a non-object doc, or a TypeError or ValueError from
    build (an unknown key, a wrongly typed value), is a bad-section error."""
    if not isinstance(doc, dict):
        raise ParameterError(f"bad {name} config: expected an object, "
                             f"got {type(doc).__name__}")
    try:
        return build(**doc)
    except ParameterError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad {name} config: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a double
        return False


def int_tuple(name: str, value) -> tuple:
    """A list of integers as a tuple; anything else raises ParameterError."""
    if not isinstance(value, (list, tuple)) or not all(_is_int(v) for v in value):
        raise ParameterError(f"{name} must be a list of integers")
    return tuple(value)


def float_tuple(name: str, value) -> tuple:
    """A list of finite JSON numbers (int, float) as a tuple of floats, else ParameterError."""
    if not isinstance(value, (list, tuple)) or not {type(v) for v in value} <= {int, float}:
        raise ParameterError(f"{name} must be a list of numbers")
    if not all(map(_is_finite, value)):
        raise ParameterError(f"{name} must be a list of finite numbers")
    return tuple(map(float, value))


def check_value(name: str, kind: str, value) -> None:
    """Reject a value of kind "int" that is not an integer, or of kind
    "float" that is not a finite number; JSON true/false are not numbers."""
    if kind == "int" and not _is_int(value):
        raise ParameterError(f"{name} must be an integer, got {type(value).__name__}")
    if kind == "float" and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ParameterError(f"{name} must be a number, got {type(value).__name__}")
    if kind == "float" and not _is_finite(value):
        raise ParameterError(f"{name} must be finite, got {value}")


def check_field_types(obj) -> None:
    """check_value on each field of a dataclass with postponed annotations,
    the annotation ("int", "float") naming the kind."""
    for f in fields(obj):
        check_value(f.name, f.type, getattr(obj, f.name))


@contextlib.contextmanager
def reading(what: str, doc, keys, optional=()):
    """Require doc to be an object with every key of keys and no key but
    these and optional ones; a ParameterError, or an integer too large for
    a double, raised then or in the block becomes "malformed {what}: ..."."""
    try:
        if not isinstance(doc, dict):
            raise ParameterError(f"expected an object, got {type(doc).__name__}")
        unknown, missing = set(doc) - set(keys) - set(optional), set(keys) - set(doc)
        if unknown or missing:
            raise ParameterError(f"unknown keys {sorted(unknown, key=str)}, "
                                 f"missing keys {sorted(missing)}")
        yield
    except (ParameterError, OverflowError) as exc:
        raise ParameterError(f"malformed {what}: {exc}") from exc
