"""The package's one exception class, and the field checks that every
validated type runs on construction and on reading a file."""

import dataclasses
import math
import sys

import numpy as np


class FormatError(ValueError):
    """A file, config or spec is malformed; the message names it. Every other
    error is the builtin that sets its exit code: ValueError for bad input,
    OSError for I/O, ArithmeticError for a numerical failure."""


# ---------------------------------------------------------------------------
# Field checks. Each validated type writes its rules once, as a table of
# (field, test, description[, error]) entries checked in its __post_init__;
# `Checked.from_json` runs the same table on a JSON object, and
# `Checked.to_json` writes that object.

_FLOAT_MAX = sys.float_info.max

# the largest array, in bytes, that a file header or a synthetic spec may ask for
MAX_BYTES = 4 << 30

# the rule on a dim d (an int >= 1): a d x d float64 matrix fits in MAX_BYTES
DIM_FITS = (lambda v: 8 * v * v <= MAX_BYTES,
            f"small enough for a d x d float64 matrix to fit in {MAX_BYTES >> 30} GiB")

# the rule on a seed, which names random streams (see `linalg.stream`)
SEED = (lambda v: is_int(v, 0), "an int >= 0")


def is_int(v, lo: int, hi: float = math.inf) -> bool:
    """An int in [lo, hi). bool is an int subclass, but `true` is not a count."""
    return type(v) is int and lo <= v < hi


def is_real(v, lo: float = -_FLOAT_MAX) -> bool:
    """A finite number >= lo: NaN fails both bounds, and +-inf and ints too
    large for a float fail one."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and lo <= v <= _FLOAT_MAX)


def check(key: str, value, test, what: str, error=ValueError) -> None:
    """Raise `error` naming `key` unless test(value). An array is shown by
    its shape."""
    if not test(value):
        got = (f"an array of shape {value.shape}" if isinstance(value, np.ndarray)
               else repr(value))
        raise error(f"{key} must be {what}, got {got}")


def bad_squares(rows, name: str, dtype, rotated: bool = False) -> Exception:
    """The error of an input `rows` whose sums of (rotated) squares are not
    finite: ValueError if it holds NaN or +-inf, else ArithmeticError."""
    if not np.isfinite(rows).all():
        return ValueError(f"{name} contains non-finite entries")
    return ArithmeticError(f"the sum of {'rotated ' * rotated}{name}'s squares "
                           f"overflows {dtype}")


def located(e: Exception, where: str) -> Exception:
    """An exception whose message is `where: ` then `e`'s, to raise from `e`:
    of the builtin base that sets its exit code, since a class such as
    UnicodeEncodeError cannot be built from one message."""
    return next(base(f"{where}: {e}") for base in (ArithmeticError, OSError, ValueError)
                if isinstance(e, base))


def check_fields(obj, rules) -> None:
    """Check each rule of a table on its field of `obj`, in order, so a rule
    may rely on the ones before it."""
    for key, *rule in rules:
        check(key, getattr(obj, key), *rule)


def _json_value(v):
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v.to_json() if isinstance(v, Checked) else v


class Checked:
    """Mixin for a dataclass whose __post_init__ checks its rule table."""

    def to_json(self) -> dict:
        """The JSON object `from_json` reads back: every init field, nested
        validated values as their own objects and tuples as lists. Array
        fields are left out; files store arrays as tensors."""
        return {f.name: _json_value(getattr(self, f.name))
                for f in dataclasses.fields(self)
                if f.init and not isinstance(getattr(self, f.name), np.ndarray)}

    @classmethod
    def from_json(cls, obj, where: str, **parsed):
        """The instance a JSON object describes, its keys being the fields;
        `where` names the file and the object. An absent required field reads
        as None, and `parsed` supplies fields already built from the file.
        An unknown field, or any rule the construction breaks, raises
        FormatError naming `where` and the field."""
        if not isinstance(obj, dict):
            raise FormatError(f"{where} must be a JSON object, got {obj!r}")
        fields = [f for f in dataclasses.fields(cls) if f.init]
        unknown = sorted(set(obj) - {f.name for f in fields})
        if unknown:
            raise FormatError(f"{where}: unknown field(s) {unknown}")
        required = {f.name: None for f in fields if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING}
        try:
            return cls(**required | obj | parsed)
        except ValueError as e:
            raise FormatError(f"{where}: {e}") from e
