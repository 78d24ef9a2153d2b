"""Exception hierarchy and input-file checks shared across the package.

The CLI maps these onto exit codes: parameter/usage problems exit 1,
numerical failures exit 2, I/O problems (plain OSError) exit 3. The checks
below turn malformed input files into ParameterError.
"""

import json
import math
import numbers
import re
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
    deep to parse) raise ParameterError, and so does an object that repeats
    a key other than a comment; failing to open or read the file stays an
    OSError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_json_object)
        except (ValueError, RecursionError) as exc:  # a ParameterError is a ValueError
            reason = exc if isinstance(exc, ParameterError) else f"not valid JSON: {exc}"
            raise ParameterError(f"{path}: {reason}") from exc


def _json_object(pairs: list) -> dict:
    """A decoded JSON object without its comments; a repeated key raises."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParameterError(f"repeated key {key!r}")
        if not key.startswith("_"):
            obj[key] = value
    return obj


# what Python says when a call's keywords do not bind: the key is quoted
_UNKNOWN_KEY = re.compile(
    r"got (?:an unexpected keyword|multiple values for) argument '(.*?)'(?=$|\.)")
_MISSING_KEY = re.compile(r"missing \d+ required (?:positional|keyword-only) arguments?: '(\w+)'")


def build_section(name: str, build, doc):
    """build(**doc), the one reader of a JSON object: a non-object doc, or a
    ParameterError, TypeError, ValueError or OverflowError from build (an
    unknown or missing key, a wrongly typed or out-of-range value), is a
    "bad {name}: ..." ParameterError. A key that build or the constructor it
    passes the keys to does not take, or binds itself, is an "unknown key
    'k'", one that it requires a "missing key 'k'"; any other TypeError
    keeps its text."""
    try:
        if not isinstance(doc, dict):
            raise ParameterError(f"expected an object, got {type(doc).__name__}")
        return build(**doc)
    except TypeError as exc:
        raise ParameterError(f"bad {name}: {_key_error(str(exc), doc) or exc}") from exc
    except (ValueError, OverflowError) as exc:  # ParameterError is a ValueError
        raise ParameterError(f"bad {name}: {exc}") from exc


def _key_error(text: str, doc: dict):
    """The message for a TypeError text that names a key of doc as
    unexpected ("unknown key 'k'") or one not in doc as missing ("missing
    key 'k'"), else None."""
    unknown, missing = _UNKNOWN_KEY.search(text), _MISSING_KEY.search(text)
    if unknown and unknown[1] in doc:
        return f"unknown key {unknown[1]!r}"
    if missing and missing[1] not in doc:
        return f"missing key {missing[1]!r}"
    return None


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


def _as_written(value, want) -> bool:
    """value equals want and has its JSON type, a float also read as an
    integer; lists compare element by element."""
    if isinstance(want, list):
        return (isinstance(value, list) and len(value) == len(want)
                and all(map(_as_written, value, want)))
    kinds = (int, float) if type(want) is float else (type(want),)
    return type(value) in kinds and value == want


def check_written(doc: dict, written: dict) -> None:
    """Require doc to hold, key by key, what the writer wrote for the
    object read from it: equal values, a boolean only where one was written."""
    for key, want in written.items():
        if not _as_written(doc[key], want):
            raise ParameterError(f"{key} is {doc[key]!r} but would be written as {want!r}")
