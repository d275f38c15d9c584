"""Exception hierarchy shared across the toolkit.

Three top-level families map onto the CLI exit codes: configuration
problems (2), data problems (3), and numerical divergence during model
fitting (4). Everything derives from :class:`AgentSynthError` so callers
can catch toolkit errors without swallowing genuine bugs. :func:`expect`
is the JSON type check of configuration objects (:func:`expect_fields`),
schemas, and the model and report files the package reads back (:func:`read_fields`).
"""

import reprlib


class AgentSynthError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(AgentSynthError):
    """Invalid experiment configuration or generator specification."""


class DataError(AgentSynthError):
    """Bad input data: out-of-range values, unknown categories, missing
    cells, empty pools, degenerate columns, incomparable distributions."""


class SchemaError(DataError):
    """Schema declaration is inconsistent, or data does not match the schema
    (wrong width, wrong column names, unresolved bins)."""


class DivergenceError(AgentSynthError):
    """A model fit produced non-finite values (loss or gradients)."""


class StaleCacheError(AgentSynthError):
    """A backward pass was given a cache that does not match the network."""


class ExactSearchLimitError(ConfigError):
    """Exact structure search was requested above its variable cap; use
    greedy_search instead."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_list(value, item) -> bool:
    return isinstance(value, list) and all(map(item, value))


JSON_TYPES = {
    "an integer": _is_int,  # true and false are not integers
    "a non-negative integer": lambda v: _is_int(v) and v >= 0,
    "a number": _is_real,
    "a number or null": lambda v: v is None or _is_real(v),
    "true or false": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "an object or a string": lambda v: isinstance(v, (dict, str)),
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "a list of integers": lambda v: _is_list(v, _is_int),
    "an integer or a list of integers": lambda v: _is_int(v) or _is_list(v, _is_int),
    "a list of numbers": lambda v: _is_list(v, _is_real),
    "a list of number lists": lambda v: _is_list(v, lambda x: _is_list(x, _is_real)),
    "a list of names": lambda v: _is_list(v, lambda x: isinstance(x, str)),
    "a list of integer lists": lambda v: _is_list(v, lambda x: _is_list(x, _is_int)),
    "an object or null": lambda v: v is None or isinstance(v, dict),
}


def expect(value, need: str, what: str, error: type = ConfigError):
    """``value`` if it is of the JSON type ``need`` (a key of
    ``JSON_TYPES``), else ``error`` naming ``what`` and the value, abridged."""
    if not JSON_TYPES[need](value):
        raise error(f"{what} must be {need}, got {reprlib.repr(value)}")
    return value


def expect_fields(doc, fields: dict, what: str, prefix: str = "", error: type = ConfigError):
    """``doc`` if it is an object whose keys are all in ``fields``, a ``{key:
    JSON type}`` table, with values of those types; else ``error`` naming
    ``what``, its unknown keys and ``fields``, or ``prefix`` + the key (:func:`expect`)."""
    expect(doc, "an object", what, error)
    unknown = [key for key in doc if key not in fields]
    if unknown:
        raise error(f"{what} has unknown keys {unknown}; it accepts {list(fields)}")
    for key, value in doc.items():
        expect(value, fields[key], prefix + key, error)
    return doc


def read_format(doc, fmt: str, what: str) -> None:
    """A DataError unless ``doc`` is an object whose ``format`` is ``fmt``."""
    if expect(doc, "an object", what, DataError).get("format") != fmt:
        raise DataError(f"not {what}: {doc.get('format')!r}")


def read_fields(doc, fields: dict, what: str, prefix: str = "") -> list:
    """The values in ``doc`` of the keys of ``fields``, a ``{key: JSON type}`` table; other keys
    are ignored. A DataError names ``what`` and a missing key, or ``prefix`` + the key."""
    missing = [key for key in fields if key not in expect(doc, "an object", what, DataError)]
    if missing:
        raise DataError(f"{what} lacks {missing[0]!r}")
    return [expect(doc[key], need, prefix + key, DataError) for key, need in fields.items()]


def read_rows(rows, what: str) -> list:
    """``rows`` if it is a list of number lists all as long as the first, else a DataError."""
    for i, row in enumerate(expect(rows, "a list of number lists", what, DataError)):
        if len(row) != len(rows[0]):
            raise DataError(f"{what} row {i} has length {len(row)}, not {len(rows[0])} like row 0")
    return rows
