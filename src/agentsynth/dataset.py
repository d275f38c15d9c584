"""Schemas, agent pools, and the encode/decode machinery.

A population sample is a table of mixed numerical and categorical
attributes. The :class:`Schema` pins, per attribute, how raw values map to
a numeric representation: categorical values become one-hot blocks and
numerical values are either discretized into uniform bins and one-hot
encoded (``discretize-all`` mode) or kept continuous and standardized to
zero mean / unit standard deviation (``mixed`` mode). All generators and
metrics in the toolkit work through this module, so encoding decisions are
made exactly once.

An :class:`AgentPool` stores ``codes`` (rows x variables: the category
index, or the bin of a numerical value clamped into the outermost bins)
and ``numeric`` (float64, the raw values of the numerical variables in
schema order). The codes are held in the narrowest unsigned integer dtype
that holds every code of the schema (:func:`code_dtype`: one byte per code
up to width 256), and every constructor writes them in that dtype
directly. Every stage, and the CSV reader and writer, work on these arrays
column by column; ``AgentPool.rows`` rebuilds Python records. Arithmetic
on codes (flat bin ids, one-hot column indices, radices) widens them
first, since it would wrap in the pool's dtype.

Everything here is immutable after construction and all operations are
pure functions, safe to call from concurrent workers.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, SchemaError, expect, expect_fields

NUMERICAL_KINDS = ("numerical-int", "numerical-cont")
CATEGORICAL_KINDS = ("categorical", "binary")
VARIABLE_KINDS = NUMERICAL_KINDS + CATEGORICAL_KINDS
MODES = ("discretize-all", "mixed")
PROVENANCES = ("train", "validation", "test", "generated")
# guard on the size of a materialized table: a BN's conditional table, or the
# joint of the variables a projection or the VAE's selection names
MAX_TABLE_CELLS = 1 << 22


@dataclass(frozen=True)
class VariableSpec:
    """One attribute: a name, a kind, and its bins or categories.

    Numerical variables always carry bin edges; the bins drive one-hot
    encoding in ``discretize-all`` mode and frequency tables in both modes.
    """

    name: str
    kind: str
    bin_edges: tuple[float, ...] | None = None
    categories: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in VARIABLE_KINDS:
            raise SchemaError(f"variable {self.name!r}: unknown kind {self.kind!r}")
        if self.is_numerical:
            if self.categories is not None:
                raise SchemaError(f"variable {self.name!r}: numerical variables take bins, not categories")
            if self.bin_edges is None or len(self.bin_edges) < 3:
                raise SchemaError(f"variable {self.name!r}: numerical variables need at least 2 bins")
            edges = np.asarray(self.bin_edges, dtype=float)
            if not np.isfinite(edges).all():
                raise SchemaError(f"variable {self.name!r}: bin edges must be finite")
            if not np.all(np.diff(edges) > 0):
                raise SchemaError(f"variable {self.name!r}: bin edges must be strictly ascending")
        else:
            if self.bin_edges is not None:
                raise SchemaError(f"variable {self.name!r}: categorical variables take categories, not bins")
            if self.categories is None or len(self.categories) < 2:
                raise SchemaError(f"variable {self.name!r}: needs at least 2 categories")
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"variable {self.name!r}: duplicate categories")
            if "" in self.categories:  # an empty CSV cell is a missing value
                raise SchemaError(f"variable {self.name!r}: a category cannot be empty")
            if self.kind == "binary" and len(self.categories) != 2:
                raise SchemaError(f"variable {self.name!r}: binary variables take exactly 2 categories")

    @property
    def is_numerical(self) -> bool:
        return self.kind in NUMERICAL_KINDS

    @property
    def n_values(self) -> int:
        """Number of discrete values (categories, or bins for numericals)."""
        if self.is_numerical:
            return len(self.bin_edges) - 1
        return len(self.categories)

    @property
    def one_hot_width(self) -> int:
        return self.n_values


@dataclass(frozen=True)
class Schema:
    """Ordered variable declarations plus the encoding mode."""

    variables: tuple[VariableSpec, ...]
    mode: str = "discretize-all"

    def __post_init__(self):
        if self.mode not in MODES:
            raise SchemaError(f"unknown schema mode {self.mode!r}")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate variable names in schema")
        if not self.variables:
            raise SchemaError("schema has no variables")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def numerical(self) -> tuple[int, ...]:
        """Indices of the numerical variables: the order of a pool's
        ``numeric`` columns."""
        return tuple(j for j, v in enumerate(self.variables) if v.is_numerical)

    @property
    def value_counts(self) -> tuple[int, ...]:
        """Per-variable discrete value counts (bins count for numericals)."""
        return tuple(v.n_values for v in self.variables)

    def is_one_hot(self, var: VariableSpec) -> bool:
        """Whether this variable occupies a one-hot block in the encoding."""
        return (not var.is_numerical) or self.mode == "discretize-all"

    @property
    def encoded_width(self) -> int:
        return sum(v.one_hot_width if self.is_one_hot(v) else 1 for v in self.variables)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SchemaError(f"no variable named {name!r} in schema") from None

    def columns(self, names, setting: str) -> list[int]:
        """Indices of ``names``, the value of configuration ``setting``, by
        default the first four variables; a ConfigError unless it names at
        least one variable of the schema, each once, and their joint has at
        most ``MAX_TABLE_CELLS`` bins."""
        if names is None:
            columns = list(range(min(4, self.n_variables)))
        elif (not names or not all(isinstance(name, str) for name in names)
                or len(set(names)) != len(names) or not set(names) <= set(self.names)):
            raise ConfigError(f"{setting} must name distinct schema variables, got {list(names)}")
        else:
            columns = [self.index(name) for name in names]
        bins = math.prod(self.value_counts[j] for j in columns)
        if bins > MAX_TABLE_CELLS:
            raise ConfigError(
                f"the joint of {setting} {[self.names[j] for j in columns]} has {bins} bins, "
                f"more than {MAX_TABLE_CELLS}; name fewer or narrower variables (by default "
                f"{setting} is the first four variables)")
        return columns


def code_dtype(value_counts) -> np.dtype:
    """The narrowest unsigned integer dtype that holds a code of every width
    in ``value_counts``: uint8 up to width 256, uint16 up to 65,536, uint32
    above."""
    return np.min_scalar_type(max(value_counts) - 1)


@dataclass(frozen=True, eq=False)
class AgentPool:
    """A set of agent records tied to a schema, tagged by provenance. The
    pool keeps read-only copies of ``codes``, in the schema's
    :func:`code_dtype`, and of ``numeric``, and derives the numerical
    columns of ``codes`` from ``numeric``. Every code must lie in ``[0,
    width)`` (a DataError naming the variable otherwise). The constructors
    in this module hand over arrays they built for the pool instead
    (:meth:`_adopt`), and pools derived from a pool share or take its rows."""

    schema: Schema
    codes: np.ndarray
    numeric: np.ndarray
    provenance: str = "train"

    def __post_init__(self):
        self._settle(_copy_codes(self.codes, self.schema), np.array(self.numeric, dtype=float))

    @classmethod
    def _adopt(cls, schema: Schema, codes: np.ndarray, numeric: np.ndarray,
               provenance: str, derived: bool = False) -> "AgentPool":
        """A pool that owns ``codes`` (in the schema's code dtype) and
        ``numeric`` (float64) without copying them: arrays no one else
        writes to. ``derived`` says that the numerical columns of ``codes``
        already hold the bins of ``numeric`` (rows of an existing pool)."""
        pool = cls.__new__(cls)
        object.__setattr__(pool, "schema", schema)
        object.__setattr__(pool, "provenance", provenance)
        pool._settle(codes, numeric, derived)
        return pool

    def _settle(self, codes: np.ndarray, numeric: np.ndarray, derived: bool = False) -> None:
        """Check the provenance and the arrays' shapes, derive the numerical
        codes unless ``derived``, and keep the arrays read-only."""
        if self.provenance not in PROVENANCES:
            raise SchemaError(f"unknown provenance {self.provenance!r}")
        schema = self.schema
        if codes.ndim != 2 or codes.shape[1] != schema.n_variables \
                or numeric.shape != (len(codes), len(schema.numerical)):
            raise SchemaError(f"pool arrays of shapes {codes.shape} and {numeric.shape} "
                              "do not fit the schema")
        if not derived:
            for j, values in zip(schema.numerical, numeric.T):
                codes[:, j] = discretize_clamped(values, schema.variables[j])
        codes.flags.writeable = numeric.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "numeric", numeric)

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[Sequence],
                  provenance: str = "train") -> "AgentPool":
        """A pool from Python records of known categories and numbers (which
        may lie outside the bins)."""
        rows = list(rows)
        if any(len(row) != schema.n_variables for row in rows):
            raise DataError(f"every record needs {schema.n_variables} values")
        cells = list(zip(*rows)) or [()] * schema.n_variables
        parsed = [np.asarray(column, dtype=float) if var.is_numerical
                  else _category_codes(var, column)
                  for var, column in zip(schema.variables, cells)]
        return _assemble(schema, parsed, list(map(_first_bad, parsed, cells)), provenance)

    def __len__(self) -> int:
        return self.codes.shape[0]

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The records as tuples of Python values: the category, an ``int``
        per ``numerical-int`` value and a ``float`` per ``numerical-cont``
        value. Rebuilt on every access; for tests and demos."""
        return tuple(zip(*_python_columns(self)))

    def with_provenance(self, provenance: str) -> "AgentPool":
        """This pool under ``provenance``; the two share their arrays."""
        return AgentPool._adopt(self.schema, self.codes, self.numeric, provenance, derived=True)

    def take(self, index, provenance: str) -> "AgentPool":
        """The rows at ``index`` (indices or a slice), under ``provenance``:
        the copy that indexing makes, or a view of this pool's arrays."""
        return AgentPool._adopt(self.schema, self.codes[index], self.numeric[index], provenance,
                                derived=True)

    def validate(self, strict_numeric: bool = True) -> int:
        """Check every numerical value against its spec.

        Numerical values must be finite; values outside the outermost bin
        edges raise when ``strict_numeric`` and are merely counted otherwise
        (generated mixed-mode agents may overshoot the observed range).
        Returns the number of flagged out-of-range numerical values.
        """
        return sum(_check_numeric(self.schema.variables[j], values, strict_numeric)
                   for j, values in zip(self.schema.numerical, self.numeric.T))


def _python_columns(pool: AgentPool) -> list[list]:
    """Each variable's values as ``AgentPool.rows`` holds them."""
    numeric = iter(pool.numeric.T)
    return [_python_values(var, next(numeric)) if var.is_numerical
            else _category_values(var, pool.codes[:, j])
            for j, var in enumerate(pool.schema.variables)]


def _python_values(var: VariableSpec, values: np.ndarray) -> list:
    """Raw numerical values as Python numbers: integral values of a
    ``numerical-int`` variable as ``int``, everything else as ``float``."""
    if var.kind != "numerical-int":
        return values.tolist()
    return [int(v) if v.is_integer() else v for v in values.tolist()]


def _check_numeric(var: VariableSpec, values: np.ndarray, strict: bool = True,
                   nan_outside: bool = False) -> int:
    """Raise for the first non-finite value, or with ``strict`` for the
    first one that is non-finite or out of range (reported as out of range
    with ``nan_outside``); returns the number of out-of-range values."""
    lo, hi = var.bin_edges[0], var.bin_edges[-1]
    outside = ~((values >= lo) & (values <= hi))
    stop = outside if strict else ~np.isfinite(values)
    if stop.any():
        i = int(np.argmax(stop))
        (shown,) = _python_values(var, values[i:i + 1])
        if nan_outside or math.isfinite(values[i]):
            raise DataError(f"variable {var.name!r}: value {shown!r} outside [{lo}, {hi}]")
        raise DataError(f"variable {var.name!r}: missing or non-finite value {shown!r}")
    return int(outside.sum())


def _first_bad(values: np.ndarray, cells: Sequence):
    """The first of ``cells`` whose parsed value is no category (-1 among
    codes) or no finite number; None when there is none."""
    bad = ~np.isfinite(values) if values.dtype.kind == "f" else values < 0
    return cells[int(np.argmax(bad))] if bad.any() else None


def _copy_codes(codes, schema: Schema) -> np.ndarray:
    """A copy of a caller's code matrix in the schema's code dtype. Every
    code is checked against its width first (:func:`check_codes`), since
    narrowing would wrap a code outside it."""
    arr = np.asarray(codes)
    if arr.ndim != 2 or arr.shape[1] != schema.n_variables:
        raise SchemaError(f"a code matrix of shape {arr.shape} does not fit the schema")
    check_codes(arr, schema.value_counts, names=schema.names)
    return arr.astype(code_dtype(schema.value_counts))


def _assemble(schema: Schema, parsed: list[np.ndarray], first_bad: list,
              provenance: str, strict_numeric: bool | None = None) -> AgentPool:
    """A pool from parsed columns (floats, or category codes with -1 for an
    unknown category, whose first cell is in ``first_bad``). Unknown
    categories and, unless ``strict_numeric`` is None, bad numbers raise
    variable by variable."""
    codes = np.zeros((len(parsed[0]), schema.n_variables), dtype=code_dtype(schema.value_counts))
    for j, (var, values) in enumerate(zip(schema.variables, parsed)):
        if var.is_numerical:
            if strict_numeric is not None:
                _check_numeric(var, values, strict_numeric)
        elif first_bad[j] is not None:
            raise DataError(f"variable {var.name!r}: unknown category {first_bad[j]!r}")
        else:
            codes[:, j] = values
    numeric = np.array([parsed[j] for j in schema.numerical], dtype=float)
    return AgentPool._adopt(schema, codes, numeric.reshape(len(numeric), len(codes)).T,
                            provenance)


@dataclass(frozen=True)
class ColumnBlock:
    """Maps a contiguous encoded column range back to a schema variable."""

    name: str
    start: int
    stop: int
    kind: str  # "one-hot" | "numeric"


@dataclass(frozen=True)
class EncodedMatrix:
    """Numeric matrix form of a pool: one-hot blocks plus standardized
    numerics, with enough bookkeeping to invert the encoding."""

    values: np.ndarray
    blocks: tuple[ColumnBlock, ...]
    standardization: dict[str, tuple[float, float]]
    schema: Schema

    def __len__(self) -> int:
        return self.values.shape[0]


def schema_blocks(schema: Schema) -> tuple[ColumnBlock, ...]:
    """Encoded column layout implied by a schema: one block per variable."""
    blocks, col = [], 0
    for var in schema.variables:
        if schema.is_one_hot(var):
            blocks.append(ColumnBlock(var.name, col, col + var.one_hot_width, "one-hot"))
            col += var.one_hot_width
        else:
            blocks.append(ColumnBlock(var.name, col, col + 1, "numeric"))
            col += 1
    return tuple(blocks)


def build_uniform_edges(column: Sequence[float], k: int) -> np.ndarray:
    """k+1 equally spaced bin edges spanning the observed [min, max]."""
    if k < 2:
        raise DataError(f"need at least 2 bins, got {k}")
    arr = np.asarray(column, dtype=float)
    if arr.size == 0:
        raise DataError("cannot build bins from an empty column")
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        raise DataError(f"degenerate column: all values equal {lo}")
    return np.linspace(lo, hi, k + 1)


def discretize(value: float, spec: VariableSpec) -> int:
    """Bin index of a numerical value; the last bin is closed on the right."""
    if not spec.is_numerical:
        raise SchemaError(f"variable {spec.name!r} is not numerical")
    values = np.array([value], dtype=float)
    _check_numeric(spec, values, nan_outside=True)
    return int(discretize_clamped(values, spec)[0])


def discretize_clamped(values, spec: VariableSpec) -> np.ndarray:
    """Vectorized bin assignment with out-of-range values clamped into the
    first/last bin. Used for frequency tables over generated pools, whose
    numerical values may legitimately overshoot the observed range."""
    edges = np.asarray(spec.bin_edges)
    idx = np.searchsorted(edges, np.asarray(values, dtype=float), side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


def _category_codes(var: VariableSpec, values: Sequence) -> np.ndarray:
    """Category index of each value, -1 for a value that is no category, in
    the narrowest signed dtype that holds -1 and every index (the one of
    ``-len(categories)``)."""
    index = {c: i for i, c in enumerate(var.categories)}
    return np.fromiter(map(index.get, values, repeat(-1)),
                       np.min_scalar_type(-len(var.categories)), len(values))


def _category_values(var: VariableSpec, codes: np.ndarray) -> list:
    return np.array(var.categories, dtype=object)[codes].tolist()


def pool_to_codes(pool: AgentPool) -> np.ndarray:
    """Integer code matrix (N, n_variables): category index per categorical
    variable, bin index per numerical variable. A numerical value outside
    the outermost edges is a DataError; ``pool.codes`` holds the same
    matrix with such values clamped into the outermost bins."""
    for j, values in zip(pool.schema.numerical, pool.numeric.T):
        _check_numeric(pool.schema.variables[j], values, nan_outside=True)
    return pool.codes


def _bin_values(variables: Sequence[VariableSpec], codes: np.ndarray,
                rng: np.random.Generator | None) -> np.ndarray:
    """Raw values for an (N, len(variables)) block of bin codes: a uniform
    draw inside each bin when an RNG is supplied, the bin midpoint
    otherwise. Draws are taken in row-major order, one per cell. Integer
    kinds are rounded (half to even) into the bin when the bin holds an
    integer."""
    if not variables:
        return np.empty((len(codes), 0))
    codes = np.asarray(codes).reshape(-1, len(variables))
    edges = [np.asarray(var.bin_edges, dtype=float) for var in variables]
    lo = np.column_stack([e[:-1][codes[:, k]] for k, e in enumerate(edges)])
    hi = np.column_stack([e[1:][codes[:, k]] for k, e in enumerate(edges)])
    values = rng.uniform(lo, hi) if rng is not None else 0.5 * (lo + hi)
    for k, var in enumerate(variables):
        if var.kind == "numerical-int":
            lo_int, hi_int = np.ceil(lo[:, k]), np.floor(hi[:, k])
            v = np.rint(values[:, k])
            values[:, k] = np.where(lo_int <= hi_int, np.clip(v, lo_int, hi_int), v)
    return values


def codes_to_pool(codes: np.ndarray, schema: Schema, provenance: str = "generated",
                  rng: np.random.Generator | None = None) -> AgentPool:
    """Inverse of :func:`pool_to_codes`; numerical bins become raw values via
    :func:`_bin_values`, drawn row by row. A code outside ``[0, width)`` is
    a DataError naming its variable, a matrix of another width a
    SchemaError."""
    arr = _copy_codes(codes, schema)
    numerical = list(schema.numerical)
    numeric = _bin_values([schema.variables[j] for j in numerical], arr[:, numerical], rng)
    return AgentPool._adopt(schema, arr, numeric, provenance)


def encode_pool(pool: AgentPool,
                standardization: dict[str, tuple[float, float]] | None = None) -> EncodedMatrix:
    """One-hot encode a pool, standardizing continuous numerics.

    When ``standardization`` is None the (mean, std) pairs are computed from
    this pool; training encodings do that once and the resulting statistics
    are reused verbatim for validation/test/generated pools.
    """
    schema = pool.schema
    if schema.mode == "discretize-all":
        pool_to_codes(pool)  # numerical one-hot blocks need in-range values
    n_rows = len(pool)
    out = np.zeros((n_rows, schema.encoded_width), dtype=float)
    blocks = schema_blocks(schema)
    hot = [j for j, block in enumerate(blocks) if block.kind == "one-hot"]
    # the addition widens the codes: a column index can exceed their dtype
    columns = pool.codes[:, hot] + np.array([blocks[j].start for j in hot], dtype=np.intp)
    out[np.arange(n_rows)[:, None], columns] = 1.0
    stats: dict[str, tuple[float, float]] = {}
    for j, values in zip(schema.numerical, pool.numeric.T):
        if blocks[j].kind == "numeric":
            var = schema.variables[j]
            out[:, blocks[j].start], stats[var.name] = standardize_column(
                var, values, standardization)
    return EncodedMatrix(out, blocks, stats, schema)


def standardize_column(var: VariableSpec, column: Sequence[float],
                       standardization: dict[str, tuple[float, float]] | None = None
                       ) -> tuple[np.ndarray, tuple[float, float]]:
    """A continuous numeric column as ``(x - mean) / std``, plus its (mean,
    std): the pair ``standardization`` holds for the variable, else the
    column's own statistics."""
    arr = np.ascontiguousarray(column, dtype=float)  # sums in one order for any layout
    if standardization is None:
        mean = float(arr.mean()) if arr.size else 0.0
        std = float(arr.std()) if arr.size else 1.0
        if std == 0.0:
            raise DataError(f"degenerate column: variable {var.name!r} is constant")
    else:
        try:
            mean, std = standardization[var.name]
        except KeyError:
            raise SchemaError(
                f"standardization statistics missing for variable {var.name!r}") from None
    return (arr - mean) / std, (mean, std)


def decode_rows(matrix: EncodedMatrix | Iterable[EncodedMatrix],
                rng: np.random.Generator | None = None) -> AgentPool:
    """Materialize agents from an encoded (possibly soft) matrix, or from
    the consecutive row blocks of one (at least one), decoded block by block.

    One-hot blocks are hardened by argmax (ties break to the lowest index),
    standardized numerics are de-standardized. A numerical one-hot block
    becomes a value inside its bin (:func:`_bin_values`); those draws come
    after the last row block, variable by variable over all rows, so a
    block-wise decode draws what a whole one does. The result always
    carries ``generated`` provenance.
    """
    codes, numeric = [], []
    for part in [matrix] if isinstance(matrix, EncodedMatrix) else matrix:
        schema, blocks = part.schema, part.blocks
        if part.values.ndim != 2 or part.values.shape[1] != schema.encoded_width:
            raise SchemaError(f"matrix width {part.values.shape[-1]} does not match "
                              f"schema width {schema.encoded_width}")
        codes.append(matrix_to_codes(part))
        values = np.empty((len(schema.numerical), len(part)))  # one-hot rows: drawn below
        for k, j in enumerate(schema.numerical):
            var, block = schema.variables[j], blocks[j]
            if block.kind == "numeric":
                mean, std = part.standardization[var.name]
                values[k] = part.values[:, block.start] * std + mean
                if var.kind == "numerical-int":
                    np.rint(values[k], out=values[k])
        numeric.append(values)
    codes, numeric = np.concatenate(codes), np.concatenate(numeric, axis=1)
    for k, j in enumerate(schema.numerical):
        if blocks[j].kind == "one-hot":
            numeric[k] = _bin_values([schema.variables[j]], codes[:, j], rng)[:, 0]
    return AgentPool._adopt(schema, codes, numeric.T, "generated")


def matrix_to_codes(matrix: EncodedMatrix) -> np.ndarray:
    """Codes straight from an encoded matrix: argmax per one-hot block,
    clamped bin assignment for de-standardized numerics."""
    schema = matrix.schema
    codes = np.empty((matrix.values.shape[0], schema.n_variables),
                     dtype=code_dtype(schema.value_counts))
    for j, (block, var) in enumerate(zip(matrix.blocks, schema.variables)):
        sub = matrix.values[:, block.start:block.stop]
        if block.kind == "one-hot":
            codes[:, j] = np.argmax(sub, axis=1)
        else:
            mean, std = matrix.standardization[var.name]
            codes[:, j] = discretize_clamped(sub[:, 0] * std + mean, var)
    return codes


SPLITS = ("train", "validation", "test")


def split_pool(pool: AgentPool, train_frac: float, val_frac_of_train: float,
               seed: int) -> tuple[AgentPool, AgentPool, AgentPool]:
    """Shuffle and split into disjoint train/validation/test pools, the
    rows :func:`split_rows` gives each."""
    return tuple(pool.take(rows, name) for rows, name in
                 zip(split_rows(len(pool), train_frac, val_frac_of_train, seed), SPLITS))


def split_rows(n: int, train_frac: float, val_frac_of_train: float,
               seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of an ``n``-row pool that form its train, validation and
    test pools, in their shuffled order.

    ``train_frac`` of the rows form the original training block; of that
    block, ``val_frac_of_train`` is carved out for validation and the
    remainder is the actual training set. Everything else is the test set.
    """
    if not (0.0 < train_frac < 1.0) or not (0.0 < val_frac_of_train < 1.0):
        raise DataError("split fractions must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_block = round(n * train_frac)
    n_val = round(n_block * val_frac_of_train)
    n_train = n_block - n_val
    n_test = n - n_block
    if min(n_train, n_val, n_test) < 1:
        raise DataError(
            f"pool of {n} rows too small for fractions {train_frac}/{val_frac_of_train}")
    return order[:n_train], order[n_train:n_block], order[n_block:]


# ---------------------------------------------------------------------------
# discrete-table primitives: subset counts, category draws, distinct rows

# Elements per chunk of flat bin ids in view_counts. Chunks of 64k ids ran
# faster than 1M on a 20-variable trivariate view (37 ms against 54 ms per
# 10,000-row pool), because they stay in cache.
VIEW_CHUNK = 1 << 16


def check_codes(codes: np.ndarray, value_counts, columns=None,
                names=None) -> tuple[np.ndarray, np.ndarray]:
    """DataError unless ``codes`` is an integer matrix with one column per
    value count and every code in the columns that ``columns`` names
    (default: all) lies in ``[0, value_counts[j])``. Unchecked, a cast would
    truncate a float code, numpy indexing would count a -1 as the last
    value, a bincount would count a code past the width in a neighbouring
    cell, and narrowing would wrap it. The error names the variable by its
    index, or by ``names[j]`` when given. Returns the checked columns,
    sorted, and their codes."""
    if codes.dtype.kind not in "iu":
        raise DataError(f"codes must be integers, got dtype {codes.dtype}")
    if len(value_counts) != codes.shape[1]:
        raise DataError(f"{codes.shape[1]} code columns but {len(value_counts)} value counts")
    # the sorted distinct columns, without np.unique, which imports numpy.ma
    chosen = np.zeros(codes.shape[1], dtype=bool)
    chosen[slice(None) if columns is None else np.asarray(columns)] = True
    cols = np.flatnonzero(chosen)
    sub = codes if len(cols) == codes.shape[1] else codes[:, cols]
    outside = (sub < 0) | (sub >= np.asarray(value_counts)[cols])
    if outside.any():
        j = int(cols[np.argmax(outside.any(axis=0))])
        raise DataError(f"variable {j if names is None else repr(names[j])}: "
                        f"codes outside [0, {value_counts[j]})")
    return cols, sub


def view_counts(codes: np.ndarray, value_counts: tuple[int, ...],
                subsets) -> tuple[np.ndarray, np.ndarray]:
    """Bin counts of every subset of a view, concatenated, in
    ``np.min_scalar_type(n)`` for ``n`` rows, plus the subset offsets:
    subset ``s`` owns ``counts[offsets[s]:offsets[s + 1]]``, the table over
    the subset's values in C order.

    All subsets have the same size. Every row gets one flat id per subset,
    ``codes[:, a] * w_b * w_c + codes[:, b] * w_c + codes[:, c] + offsets[s]``
    for a triplet, and one ``bincount`` per chunk of subsets counts them;
    chunks hold at most about ``VIEW_CHUNK`` ids. Codes of the counted
    columns outside ``[0, width)`` are a DataError (:func:`check_codes`).
    """
    n = codes.shape[0]
    if n == 0:
        raise DataError("frequency distribution of an empty pool")
    subs = np.asarray(subsets, dtype=np.intp).reshape(len(subsets), -1)
    if subs.shape[1] == 0:
        raise DataError("frequency distribution needs a non-empty variable subset")
    cols, counted = check_codes(codes, value_counts, subs)
    widths = np.asarray(value_counts, dtype=np.int64)[subs]
    strides = np.ones_like(widths)
    for p in range(subs.shape[1] - 2, -1, -1):
        strides[:, p] = strides[:, p + 1] * widths[:, p + 1]
    offsets = np.concatenate(([0], np.cumsum(widths.prod(axis=1))))
    dtype = np.int32 if offsets[-1] < 2 ** 31 else np.int64
    codes_t = np.ascontiguousarray(counted.T, dtype=dtype)
    subs = np.searchsorted(cols, subs)  # rows of codes_t
    strides, starts = strides.astype(dtype), offsets[:-1].astype(dtype)
    counts = np.empty(offsets[-1], dtype=np.min_scalar_type(n))
    step = max(1, VIEW_CHUNK // n)
    for s0 in range(0, len(subs), step):
        s1 = min(s0 + step, len(subs))
        ids = codes_t[subs[s0:s1, 0]] * strides[s0:s1, :1]
        for p in range(1, subs.shape[1]):
            ids += codes_t[subs[s0:s1, p]] * strides[s0:s1, p:p + 1]
        ids += starts[s0:s1, None] - starts[s0]
        counts[offsets[s0]:offsets[s1]] = np.bincount(
            ids.ravel(), minlength=offsets[s1] - offsets[s0])
    return counts, offsets


def draw_categories(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One category per uniform by inverse CDF over the last axis of
    ``probs`` (which broadcasts against ``uniforms[..., None]``): the number
    of cumulative sums below ``u`` times the total. The count is capped at
    the last category, so even a uniform of 1 or more gives a valid index."""
    cum = np.cumsum(probs, -1)
    return np.minimum((uniforms[..., None] * cum[..., -1:] > cum).sum(-1), cum.shape[-1] - 1)


def row_blocks(n: int, size: int) -> Iterator[slice]:
    """``n`` rows as the slices of ``k = max(1, n // size)`` near-equal
    blocks, the first ``n % k`` one row longer (those of ``np.array_split``).
    No block is shorter than ``size`` rows unless all ``n`` are: BLAS
    multiplies very few rows with other kernels (one row with gemv), whose
    rounding can differ from the whole batch's (batches of 18 rows and more
    have matched it), so products taken block by block are those of one
    whole product."""
    k = max(1, n // size)
    q, r = divmod(n, k)
    for b in range(k):
        yield slice(b * q + min(b, r), (b + 1) * q + min(b + 1, r))


def distinct_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a matrix in lexicographic order, and the distinct
    row of every input row (:func:`row_groups`)."""
    first, inverse = row_groups(codes)
    return codes[first], inverse


def row_groups(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The groups of equal rows of a matrix, in lexicographic order of
    their rows: the index of each group's first row, and the group of every
    row.

    Rows of non-negative integers, signed or unsigned, are compared as
    their :func:`mixed_radix_keys` (radix ``max + 1`` per column), and the
    rows are a lexsort over those few keys. Other rows (those of a matrix
    with a negative entry, say float rows viewed as int64 bits) are a
    lexsort over the columns.
    """
    if codes.size and codes.dtype.kind in "iu" and codes.min() >= 0:
        keys = mixed_radix_keys(codes, [m + 1 for m in codes.max(axis=0).tolist()])
    else:
        keys = list(codes.T)
    order = np.lexsort(keys[::-1]) if keys else np.arange(len(codes))
    same = np.ones(len(codes), dtype=bool)  # row equal to the one before it in order
    same[0:1] = False
    for key in keys:
        ordered = key[order]
        same[1:] &= ordered[1:] == ordered[:-1]
    inverse = np.empty(len(codes), dtype=np.intp)
    inverse[order] = np.cumsum(~same) - 1
    return order[~same], inverse


def mixed_radix_keys(codes: np.ndarray, radix) -> list[np.ndarray]:
    """The rows of a matrix of non-negative integers as int64 mixed-radix
    keys, column ``j`` a digit in radix ``radix[j]`` (above its largest
    entry), the first column the most significant: runs of consecutive
    columns whose radix product fits in int64 become one key each. Keys
    compare as their rows do in lexicographic order, and there is one key
    per row exactly when the product of all radixes fits in int64."""
    keys, size = [], 2 ** 63
    for j, r in enumerate(radix):
        if size * r < 2 ** 63:  # the column joins the current key, in place
            keys[-1] *= r
            keys[-1] += codes[:, j]
            size *= r
        else:
            keys.append(codes[:, j].astype(np.int64))
            size = r
    return keys


# ---------------------------------------------------------------------------
# schema and pool serialization

# Pool CSV files are read in blocks of whole lines of at least this many
# characters, and written in blocks of this many rows: one Python string
# per cell exists only for the block at hand, so memory follows the file's
# size and the pool's arrays, not the number of cells.
CSV_READ_BLOCK = 1 << 16
CSV_WRITE_BLOCK = 1 << 10


def read_json(path):
    """The JSON document in the file at ``path``; a file that does not hold
    valid JSON is a DataError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
            raise DataError(f"{path}: not valid JSON: {exc}") from None


def schema_to_json(schema: Schema) -> dict:
    variables = []
    for var in schema.variables:
        entry: dict = {"name": var.name, "kind": var.kind}
        if var.is_numerical:
            entry["bin_edges"] = list(var.bin_edges)
        else:
            entry["categories"] = list(var.categories)
        variables.append(entry)
    return {"mode": schema.mode, "variables": variables}


# the keys a schema document and each of its variable entries take, and
# their JSON types; schema_to_json writes no other
SCHEMA_FIELDS = {"mode": "a string", "variables": "a list"}
VARIABLE_FIELDS = {"name": "a string", "kind": "a string", "categories": "a list of names",
                   "bin_edges": "a list of numbers", "bins": "an integer"}
# the keys of VARIABLE_FIELDS each kind of variable takes
KIND_FIELDS = {**dict.fromkeys(NUMERICAL_KINDS, ["name", "kind", "bin_edges", "bins"]),
               **dict.fromkeys(CATEGORICAL_KINDS, ["name", "kind", "categories"])}


def _variable_entries(doc) -> list[dict]:
    """The variable entries of a schema document, each an object with a
    name and a kind, holding only keys of ``VARIABLE_FIELDS`` that its kind
    takes (``KIND_FIELDS``) and not both ``bins`` and ``bin_edges``."""
    if not isinstance(doc, dict) or "variables" not in doc:
        raise SchemaError("schema document lacks a 'variables' list")
    expect(doc["variables"], "a list", "schema 'variables'", SchemaError)
    expect_fields(doc, SCHEMA_FIELDS, "the schema document", "schema ", SchemaError)
    for entry in doc["variables"]:
        if not isinstance(entry, dict) or entry.get("name") is None or entry.get("kind") is None:
            raise SchemaError(f"schema entry missing name/kind: {entry!r}")
        what = f"variable {entry['name']!r}"
        expect_fields(entry, VARIABLE_FIELDS, what, f"{what}: ", SchemaError)
        if "bins" in entry and "bin_edges" in entry:
            raise SchemaError(f"{what} holds both 'bins' and 'bin_edges'; it takes one of them")
        accepted = KIND_FIELDS.get(entry["kind"], VARIABLE_FIELDS)  # VariableSpec rejects others
        for key in entry:
            if key not in accepted:
                raise SchemaError(f"{what} is {entry['kind']} and holds {key!r}; "
                                  f"it accepts {accepted}")
    return doc["variables"]


def schema_from_json(doc: dict, columns: dict[str, Sequence[float]] | None = None) -> Schema:
    """Build a schema from its JSON document.

    Numerical entries may declare explicit ``bin_edges`` (a list of
    numbers) or just an integer bin count ``bins``; the latter needs the
    raw data ``columns`` to resolve edges over the observed range.
    """
    entries = _variable_entries(doc)
    mode = doc.get("mode", "discretize-all")
    variables = []
    for entry in entries:
        name, kind = entry["name"], entry["kind"]
        if kind in NUMERICAL_KINDS:
            if "bin_edges" in entry:
                edges = tuple(map(float, entry["bin_edges"]))
            elif "bins" in entry:
                if columns is None or name not in columns:
                    raise SchemaError(
                        f"variable {name!r} declares a bin count; raw data is needed to resolve edges")
                edges = tuple(build_uniform_edges(columns[name], entry["bins"]))
            else:
                raise SchemaError(f"numerical variable {name!r} needs 'bin_edges' or 'bins'")
            variables.append(VariableSpec(name, kind, bin_edges=edges))
        elif "categories" in entry:
            variables.append(VariableSpec(name, kind, categories=tuple(entry["categories"])))
        else:
            raise SchemaError(f"categorical variable {name!r} needs 'categories'")
    return Schema(tuple(variables), mode)


def write_pool_csv(pool: AgentPool, path, parts: dict | None = None) -> None:
    """Write a pool as the bytes ``csv.writer`` writes for ``pool.rows``
    under a header of the variable names; a generated pool has a trailing
    ``provenance`` column. A number is ``str`` of its value, so a float is
    its ``repr``, and each category is quoted once per schema. Each block
    of ``CSV_WRITE_BLOCK`` rows is one join over its columns; it holds no
    empty cell, which ``csv.writer`` would quote in a one-column row,
    because a category cannot be ``""``.

    ``parts`` maps more paths to row indices of the pool, and each of those
    files gets the bytes written for ``pool.take(rows)`` under the same
    provenance. Every row is formatted once: its line is kept until the
    parts are written."""
    schema = pool.schema
    fields = [None if var.is_numerical
              else np.array(list(map(_csv_field, var.categories)), dtype=object)
              for var in schema.variables]
    header = list(schema.names) + (["provenance"] if pool.provenance == "generated" else [])
    kept = np.empty(len(pool) if parts else 0, dtype=object)  # lines, indexed by row
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(pool), CSV_WRITE_BLOCK):
            lines = _csv_lines(pool, fields, slice(start, start + CSV_WRITE_BLOCK))
            write_csv_lines(fh, lines)
            if parts:
                kept[start:start + len(lines)] = lines
    for part, rows in (parts or {}).items():
        with open(part, "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            for start in range(0, len(rows), CSV_WRITE_BLOCK):
                write_csv_lines(fh, kept[rows[start:start + CSV_WRITE_BLOCK]])


def _csv_lines(pool: AgentPool, fields: list, rows: slice) -> list[str]:
    """The CSV lines, without line ends, of a block of a pool's rows;
    ``fields[j]`` holds the CSV cell of each category of variable ``j``
    (None for a numerical variable)."""
    numeric = iter(pool.numeric[rows].T)
    columns = [list(map(str, _python_values(var, next(numeric)))) if var.is_numerical
               else field[pool.codes[rows, j]].tolist()
               for j, (var, field) in enumerate(zip(pool.schema.variables, fields))]
    if pool.provenance == "generated":
        columns.append(repeat(pool.provenance))
    return list(map(",".join, zip(*columns)))


def write_csv_lines(fh, lines: Iterable[str]) -> None:
    """Write a non-empty block of lines as one join, each ended by
    ``\\r\\n`` as ``csv.writer`` ends it."""
    fh.write("\r\n".join(lines))
    fh.write("\r\n")


def _csv_field(text: str) -> str:
    """``text`` as a CSV cell: quoted, with every ``"`` doubled, when it
    holds a comma, a quote or a line end."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _parse_column(var: VariableSpec, cells: Sequence[str]) -> np.ndarray | None:
    """A column's float values (``3`` or ``3.0`` for ``numerical-int``), or
    its category codes with -1 for an unknown category; None when a cell
    does not parse."""
    if not var.is_numerical:
        return None if "" in cells else _category_codes(var, cells)
    try:
        values = np.array(list(map(float, cells)), dtype=float)
    except ValueError:
        return None
    integral = np.isfinite(values) & (values == np.floor(values))
    return values if var.kind == "numerical-cont" or integral.all() else None


def _split_blocks(text: str, names: Sequence[str]) -> Iterator[list[list[str]] | None]:
    """Yield the cells of the first ``len(names)`` columns of a CSV file's
    text, one list per column, for one block of whole lines after the
    header at a time: the fewest lines that hold ``CSV_READ_BLOCK``
    characters, or the rest of the file. A header-only file is one empty
    block. The text is split at line ends and commas where that is how the
    ``csv`` module reads it: no quote or NUL, one line end throughout
    (``\\n`` or ``\\r\\n``), no blank line, and every line as many cells as
    the header, which starts with ``names``. Where it is not, the last item
    yielded is None.

    The line check is vectorized per block: of the commas and line ends in
    the block, in file order and with a line end after the last line,
    exactly every n-th must be a line end."""
    eol = "\r\n" if "\r" in text else "\n"
    if not text or '"' in text or "\0" in text or text.startswith(eol) or eol * 2 in text:
        yield None
        return
    end = text.find(eol)
    header = text if end < 0 else text[:end]
    if "\r" in header or "\n" in header or header.split(",")[:len(names)] != list(names):
        yield None  # a lone "\r" or "\n" among "\r\n" line ends, or another header
        return
    n, start = header.count(",") + 1, len(header) + len(eol)
    if start >= len(text):
        yield [[] for _ in names]
    while start < len(text):
        stop = text.find(eol, start + CSV_READ_BLOCK - len(eol))
        stop = len(text) if stop < 0 else stop + len(eol)
        block = text[start:stop]
        flat = block.replace(eol, ",")
        if "\r" in flat or "\n" in flat:  # a lone "\r" or "\n" among "\r\n" line ends
            yield None
            return
        closed = block.endswith(eol)
        raw = np.frombuffer(block.encode(), dtype=np.uint8)
        is_end = raw[(raw == ord(",")) | (raw == ord("\n"))] == ord("\n")
        if not closed:
            is_end = np.append(is_end, True)
        if len(is_end) % n or not np.array_equal(np.flatnonzero(is_end),
                                                 np.arange(n - 1, len(is_end), n)):
            yield None
            return
        cells = flat.split(",")
        if closed:
            cells.pop()  # the empty string after the last line end
        yield [cells[j::n] for j in range(len(names))]
        start = stop


def _read_records(path, text: str, names: Sequence[str]) -> list[list[str]]:
    """The records of a CSV file's text, read by the ``csv`` module; the
    header must start with ``names``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty CSV") from None
    if header[:len(names)] != list(names):
        raise SchemaError(f"{path}: header {header!r} does not match schema {list(names)!r}")
    return list(reader)


def _first_cell_error(path, schema: Schema, records: list[list[str]],
                      columns: list[int]) -> DataError:
    """The first short row, or unparsable cell of ``columns``, in file order."""
    for line_no, cells in enumerate(records, start=2):
        if len(cells) < schema.n_variables:
            return DataError(
                f"{path}:{line_no}: expected {schema.n_variables} cells, got {len(cells)}")
        for j in columns:
            var, cell = schema.variables[j], cells[j]
            if _parse_column(var, [cell]) is None:
                need = "an integer" if var.kind == "numerical-int" else "a number"
                return DataError(f"{path}:{line_no}: " + (
                    f"missing value for {var.name!r}" if cell == "" else
                    f"{var.name!r} needs {need}, got {cell!r}"))


def _read_columns(path, schema: Schema) -> tuple[list[np.ndarray], list[str | None]]:
    """Each variable's parsed values (:func:`_parse_column`) in a CSV file,
    and its first cell that is no category or no finite number (None when
    there is none). The file is split and parsed block by block
    (:func:`_split_blocks`), and the blocks' values concatenated. A file
    that cannot be split, or whose blocks do not all parse, is read whole
    by the ``csv`` module, and its first short row or unparsable cell in
    file order raises."""
    with open(path, newline="") as fh:
        text = fh.read()
    blocks, first_bad = [], [None] * schema.n_variables
    for cells in _split_blocks(text, schema.names):
        parsed = None if cells is None else list(map(_parse_column, schema.variables, cells))
        if parsed is None or any(values is None for values in parsed):
            break
        first_bad = [bad if bad is not None else _first_bad(values, column)
                     for bad, values, column in zip(first_bad, parsed, cells)]
        blocks.append(parsed)
    else:  # join each column, freeing the text and then each column's pieces
        del text
        pieces = [list(column) for column in zip(*blocks)]
        del blocks
        return [np.concatenate(pieces.pop(0)) for _ in schema.variables], first_bad
    del blocks
    records = _read_records(path, text, schema.names)
    # zip(*records) stops at the shortest row
    cells = list(zip(*records)) if records else [()] * schema.n_variables
    parsed = [_parse_column(var, column) for var, column in zip(schema.variables, cells)]
    failed = [j for j, values in enumerate(parsed) if values is None]
    if len(cells) < schema.n_variables:  # a short row: every column is suspect
        failed = range(schema.n_variables)
    if failed:
        raise _first_cell_error(path, schema, records, failed)
    return parsed, list(map(_first_bad, parsed, cells))


def read_pool_csv(path, schema: Schema, provenance: str = "train") -> AgentPool:
    """Read a pool from CSV, parsing and validating against the schema.

    Rows with missing cells are rejected. Numerical range violations raise
    for source data and are merely flagged for generated pools.
    """
    return _assemble(schema, *_read_columns(path, schema), provenance,
                     strict_numeric=provenance != "generated")


def ingest_csv(data_path, schema_doc: dict) -> AgentPool:
    """Load source micro-data: resolve any declared bin counts against the
    observed columns, then strictly validate every row. Each column is
    parsed once: kinds and categories do not depend on the bin edges, so a
    provisional schema parses the file."""
    binned = {entry["name"]: j for j, entry in enumerate(_variable_entries(schema_doc))
              if entry["kind"] in NUMERICAL_KINDS and "bins" in entry}
    schema = schema_from_json(schema_doc, columns=dict.fromkeys(binned, (0.0, 1.0)))
    parsed, first_bad = _read_columns(data_path, schema)
    for name, j in binned.items():
        finite = np.isfinite(parsed[j])
        if not finite.all():
            raise DataError(f"{data_path}:{int(np.argmin(finite)) + 2}: column {name!r} declares "
                            f"a bin count and holds {first_bad[j]!r}; bins need finite values")
    schema = schema_from_json(schema_doc, columns={name: parsed[j] for name, j in binned.items()})
    return _assemble(schema, parsed, first_bad, "train", strict_numeric=True)
