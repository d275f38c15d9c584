"""Schemas, agent pools, and the encode/decode machinery.

A population sample is a table of mixed numerical and categorical
attributes. The :class:`Schema` pins, per attribute, how raw values map to
a numeric representation: categorical values become one-hot blocks and
numerical values are either discretized into uniform bins and one-hot
encoded (``discretize-all`` mode) or kept continuous and standardized to
zero mean / unit standard deviation (``mixed`` mode). All generators and
metrics in the toolkit work through this module, so encoding decisions are
made exactly once.

Everything here is immutable after construction and all operations are
pure functions, safe to call from concurrent workers.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import DataError, SchemaError

NUMERICAL_KINDS = ("numerical-int", "numerical-cont")
CATEGORICAL_KINDS = ("categorical", "binary")
VARIABLE_KINDS = NUMERICAL_KINDS + CATEGORICAL_KINDS
MODES = ("discretize-all", "mixed")
PROVENANCES = ("train", "validation", "test", "generated")


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
            if not np.all(np.diff(edges) > 0):
                raise SchemaError(f"variable {self.name!r}: bin edges must be strictly ascending")
        else:
            if self.bin_edges is not None:
                raise SchemaError(f"variable {self.name!r}: categorical variables take categories, not bins")
            if self.categories is None or len(self.categories) < 2:
                raise SchemaError(f"variable {self.name!r}: needs at least 2 categories")
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"variable {self.name!r}: duplicate categories")
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


@dataclass(frozen=True)
class AgentPool:
    """A set of agent records tied to a schema, tagged by provenance."""

    schema: Schema
    rows: tuple[tuple, ...]
    provenance: str = "train"

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise SchemaError(f"unknown provenance {self.provenance!r}")

    def __len__(self) -> int:
        return len(self.rows)

    def with_provenance(self, provenance: str) -> "AgentPool":
        return AgentPool(self.schema, self.rows, provenance)

    def validate(self, strict_numeric: bool = True) -> int:
        """Check every value against its spec.

        Categorical values must be known categories. Numerical values must
        be finite; values outside the outermost bin edges raise when
        ``strict_numeric`` and are merely counted otherwise (generated
        mixed-mode agents may overshoot the observed range). Returns the
        number of flagged out-of-range numerical values.
        """
        flagged = 0
        for var_idx, var in enumerate(self.schema.variables):
            if var.is_numerical:
                lo, hi = var.bin_edges[0], var.bin_edges[-1]
                for row in self.rows:
                    value = row[var_idx]
                    if value is None or not math.isfinite(float(value)):
                        raise DataError(f"variable {var.name!r}: missing or non-finite value {value!r}")
                    if not (lo <= float(value) <= hi):
                        if strict_numeric:
                            raise DataError(
                                f"variable {var.name!r}: value {value!r} outside [{lo}, {hi}]")
                        flagged += 1
            else:
                allowed = set(var.categories)
                for row in self.rows:
                    if row[var_idx] not in allowed:
                        raise DataError(
                            f"variable {var.name!r}: unknown category {row[var_idx]!r}")
        return flagged


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
    edges = spec.bin_edges
    v = float(value)
    if v < edges[0] or v > edges[-1]:
        raise DataError(
            f"variable {spec.name!r}: value {value!r} outside [{edges[0]}, {edges[-1]}]")
    if v == edges[-1]:
        return len(edges) - 2
    # searchsorted(right) gives the count of edges <= v, so subtract 1
    return int(np.searchsorted(np.asarray(edges), v, side="right")) - 1


def discretize_clamped(values, spec: VariableSpec) -> np.ndarray:
    """Vectorized bin assignment with out-of-range values clamped into the
    first/last bin. Used for frequency tables over generated pools, whose
    numerical values may legitimately overshoot the observed range."""
    edges = np.asarray(spec.bin_edges)
    idx = np.searchsorted(edges, np.asarray(values, dtype=float), side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


def _category_index(var: VariableSpec) -> dict:
    return {c: i for i, c in enumerate(var.categories)}


def _variable_codes(var: VariableSpec, column: Sequence, clamp: bool = False) -> np.ndarray:
    """Codes of one variable's raw values: the category index, or the bin
    index. Out-of-range numerical values are clamped into the edge bins when
    ``clamp``; otherwise the first one raises (as :func:`discretize` would)."""
    if not var.is_numerical:
        try:
            return np.fromiter(map(_category_index(var).__getitem__, column), np.int64,
                               len(column))
        except KeyError as exc:
            raise DataError(
                f"variable {var.name!r}: unknown category {exc.args[0]!r}") from None
    if clamp:
        return discretize_clamped(column, var)
    values = np.asarray(column, dtype=float)
    lo, hi = var.bin_edges[0], var.bin_edges[-1]
    outside = ~((values >= lo) & (values <= hi))
    if outside.any():
        value = column[int(np.argmax(outside))]
        raise DataError(f"variable {var.name!r}: value {value!r} outside [{lo}, {hi}]")
    # searchsorted(right) counts the edges <= v; the last bin is closed on the right
    codes = np.searchsorted(np.asarray(var.bin_edges), values, side="right") - 1
    return np.minimum(codes, var.n_values - 1)


def _columns_of(pool: AgentPool):
    """The pool's columns as lists, built one at a time."""
    return (list(map(itemgetter(j), pool.rows)) for j in range(pool.schema.n_variables))


def _category_values(var: VariableSpec, codes: np.ndarray) -> list:
    return np.array(var.categories, dtype=object)[codes].tolist()


def pool_to_codes(pool: AgentPool, clamp: bool = False) -> np.ndarray:
    """Integer code matrix (N, n_variables): category index per categorical
    variable, bin index per numerical variable."""
    codes = np.empty((len(pool.rows), pool.schema.n_variables), dtype=np.int64)
    for j, (var, column) in enumerate(zip(pool.schema.variables, _columns_of(pool))):
        codes[:, j] = _variable_codes(var, column, clamp)
    return codes


def _bin_values(variables: Sequence[VariableSpec], codes: np.ndarray,
                rng: np.random.Generator | None) -> list[list]:
    """Raw values for an (N, len(variables)) block of bin codes, one list per
    variable: a uniform draw inside each bin when an RNG is supplied, the bin
    midpoint otherwise. Draws are taken in row-major order, one per cell.
    Integer kinds are rounded (half to even) into the bin when the bin holds
    an integer."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, len(variables))
    edges = [np.asarray(var.bin_edges, dtype=float) for var in variables]
    lo = np.column_stack([e[:-1][codes[:, k]] for k, e in enumerate(edges)])
    hi = np.column_stack([e[1:][codes[:, k]] for k, e in enumerate(edges)])
    values = rng.uniform(lo, hi) if rng is not None else 0.5 * (lo + hi)
    columns = []
    for k, var in enumerate(variables):
        v = values[:, k]
        if var.kind == "numerical-int":
            lo_int, hi_int = np.ceil(lo[:, k]), np.floor(hi[:, k])
            v = np.where(lo_int <= hi_int, np.clip(np.rint(v), lo_int, hi_int), np.rint(v))
            columns.append(v.astype(np.int64).tolist())
        else:
            columns.append(v.tolist())
    return columns


def codes_to_pool(codes: np.ndarray, schema: Schema, provenance: str = "generated",
                  rng: np.random.Generator | None = None) -> AgentPool:
    """Inverse of :func:`pool_to_codes`; numerical bins become raw values via
    :func:`_bin_values`, drawn row by row."""
    arr = np.asarray(codes, dtype=np.int64).reshape(-1, schema.n_variables)
    columns: list = [None] * schema.n_variables
    numeric = [j for j, var in enumerate(schema.variables) if var.is_numerical]
    if numeric:
        drawn = _bin_values([schema.variables[j] for j in numeric], arr[:, numeric], rng)
        for j, column in zip(numeric, drawn):
            columns[j] = column
    for j, var in enumerate(schema.variables):
        if not var.is_numerical:
            columns[j] = _category_values(var, arr[:, j])
    return AgentPool(schema, tuple(zip(*columns)), provenance)


def encode_pool(pool: AgentPool,
                standardization: dict[str, tuple[float, float]] | None = None) -> EncodedMatrix:
    """One-hot encode a pool, standardizing continuous numerics.

    When ``standardization`` is None the (mean, std) pairs are computed from
    this pool; training encodings do that once and the resulting statistics
    are reused verbatim for validation/test/generated pools.
    """
    schema = pool.schema
    n_rows = len(pool.rows)
    out = np.zeros((n_rows, schema.encoded_width), dtype=float)
    blocks = schema_blocks(schema)
    stats: dict[str, tuple[float, float]] = {}
    for var, block, column in zip(schema.variables, blocks, _columns_of(pool)):
        if block.kind == "one-hot":
            idx = _variable_codes(var, column)
            if n_rows:
                out[np.arange(n_rows), block.start + idx] = 1.0
        else:
            arr = np.asarray(column, dtype=float)
            if standardization is None:
                mean = float(arr.mean()) if n_rows else 0.0
                std = float(arr.std()) if n_rows else 1.0
                if std == 0.0:
                    raise DataError(f"degenerate column: variable {var.name!r} is constant")
            else:
                try:
                    mean, std = standardization[var.name]
                except KeyError:
                    raise SchemaError(
                        f"standardization statistics missing for variable {var.name!r}") from None
            stats[var.name] = (mean, std)
            out[:, block.start] = (arr - mean) / std
    return EncodedMatrix(out, blocks, stats, schema)


def decode_rows(matrix: EncodedMatrix, rng: np.random.Generator | None = None) -> AgentPool:
    """Materialize agents from an encoded (possibly soft) matrix.

    One-hot blocks are hardened by argmax (ties break to the lowest index),
    standardized numerics are de-standardized. The result always carries
    ``generated`` provenance.
    """
    schema = matrix.schema
    if matrix.values.ndim != 2 or matrix.values.shape[1] != schema.encoded_width:
        raise SchemaError(
            f"matrix width {matrix.values.shape[-1]} does not match schema width {schema.encoded_width}")
    n_rows = matrix.values.shape[0]
    columns = []
    for block, var in zip(matrix.blocks, schema.variables):
        sub = matrix.values[:, block.start:block.stop]
        if block.kind == "one-hot":
            idx = np.argmax(sub, axis=1)
            if var.is_numerical:
                columns.extend(_bin_values([var], idx, rng))
            else:
                columns.append(_category_values(var, idx))
        else:
            mean, std = matrix.standardization[var.name]
            raw = sub[:, 0] * std + mean
            if var.kind == "numerical-int":
                columns.append([int(round(v)) for v in raw])
            else:
                columns.append(raw.tolist())
    rows = tuple(zip(*columns)) if n_rows else ()
    return AgentPool(schema, tuple(rows), "generated")


def matrix_to_codes(matrix: EncodedMatrix) -> np.ndarray:
    """Codes straight from an encoded matrix: argmax per one-hot block,
    clamped bin assignment for de-standardized numerics."""
    schema = matrix.schema
    codes = np.empty((matrix.values.shape[0], schema.n_variables), dtype=np.int64)
    for j, (block, var) in enumerate(zip(matrix.blocks, schema.variables)):
        sub = matrix.values[:, block.start:block.stop]
        if block.kind == "one-hot":
            codes[:, j] = np.argmax(sub, axis=1)
        else:
            mean, std = matrix.standardization[var.name]
            codes[:, j] = discretize_clamped(sub[:, 0] * std + mean, var)
    return codes


def split_pool(pool: AgentPool, train_frac: float, val_frac_of_train: float,
               seed: int) -> tuple[AgentPool, AgentPool, AgentPool]:
    """Shuffle and split into disjoint train/validation/test pools.

    ``train_frac`` of the rows form the original training block; of that
    block, ``val_frac_of_train`` is carved out for validation and the
    remainder is the actual training set. Everything else is the test set.
    """
    if not (0.0 < train_frac < 1.0) or not (0.0 < val_frac_of_train < 1.0):
        raise DataError("split fractions must lie strictly between 0 and 1")
    n = len(pool.rows)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_block = round(n * train_frac)
    n_val = round(n_block * val_frac_of_train)
    n_train = n_block - n_val
    n_test = n - n_block
    if min(n_train, n_val, n_test) < 1:
        raise DataError(
            f"pool of {n} rows too small for fractions {train_frac}/{val_frac_of_train}")
    rows = pool.rows
    pick = lambda idx: tuple(rows[i] for i in idx)
    return (
        AgentPool(pool.schema, pick(order[:n_train]), "train"),
        AgentPool(pool.schema, pick(order[n_train:n_block]), "validation"),
        AgentPool(pool.schema, pick(order[n_block:]), "test"),
    )


# ---------------------------------------------------------------------------
# schema and pool serialization


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


def schema_from_json(doc: dict, columns: dict[str, Sequence[float]] | None = None) -> Schema:
    """Build a schema from its JSON document.

    Numerical entries may declare explicit ``bin_edges`` or just a bin count
    ``bins``; the latter needs the raw data ``columns`` to resolve edges over
    the observed range.
    """
    if "variables" not in doc:
        raise SchemaError("schema document lacks a 'variables' list")
    mode = doc.get("mode", "discretize-all")
    variables = []
    for entry in doc["variables"]:
        name = entry.get("name")
        kind = entry.get("kind")
        if name is None or kind is None:
            raise SchemaError(f"schema entry missing name/kind: {entry!r}")
        if kind in NUMERICAL_KINDS:
            if "bin_edges" in entry:
                edges = tuple(float(e) for e in entry["bin_edges"])
            elif "bins" in entry:
                if columns is None or name not in columns:
                    raise SchemaError(
                        f"variable {name!r} declares a bin count; raw data is needed to resolve edges")
                edges = tuple(build_uniform_edges(columns[name], int(entry["bins"])))
            else:
                raise SchemaError(f"numerical variable {name!r} needs 'bin_edges' or 'bins'")
            variables.append(VariableSpec(name, kind, bin_edges=edges))
        else:
            cats = entry.get("categories")
            if cats is None:
                raise SchemaError(f"categorical variable {name!r} needs 'categories'")
            variables.append(VariableSpec(name, kind, categories=tuple(str(c) for c in cats)))
    return Schema(tuple(variables), mode)


_FORMATTERS = {"numerical-int": lambda v: str(int(v)), "numerical-cont": lambda v: repr(float(v))}


def write_pool_csv(pool: AgentPool, path) -> None:
    """Write a pool as CSV with the schema's header; generated pools carry a
    trailing provenance column."""
    with_prov = pool.provenance == "generated"
    columns = [list(map(_FORMATTERS.get(var.kind, str), column))
               for var, column in zip(pool.schema.variables, zip(*pool.rows))]
    if with_prov:
        columns.append([pool.provenance] * len(pool.rows))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(pool.schema.names) + (["provenance"] if with_prov else []))
        writer.writerows(zip(*columns))


def _parse_int(cell: str) -> int:
    """``3`` or ``3.0`` -> 3; ValueError for a cell that is not integral."""
    value = float(cell)
    if not value.is_integer():
        raise ValueError(cell)
    return int(value)


def read_pool_csv(path, schema: Schema, provenance: str = "train",
                  strict_numeric: bool | None = None) -> AgentPool:
    """Read a pool from CSV, parsing and validating against the schema.

    Rows with missing cells are rejected. Numerical range violations raise
    for source data and are merely flagged for generated pools.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty CSV") from None
        names = list(schema.names)
        if header[:len(names)] != names:
            raise SchemaError(f"{path}: header {header!r} does not match schema {names!r}")
        rows = []
        for line_no, cells in enumerate(reader, start=2):
            if len(cells) < len(names):
                raise DataError(f"{path}:{line_no}: expected {len(names)} cells, got {len(cells)}")
            row = []
            for var, cell in zip(schema.variables, cells):
                if cell == "":
                    raise DataError(f"{path}:{line_no}: missing value for {var.name!r}")
                if var.kind == "numerical-int":
                    try:
                        row.append(_parse_int(cell))
                    except ValueError:
                        raise DataError(f"{path}:{line_no}: {var.name!r} needs an integer, "
                                        f"got {cell!r}") from None
                elif var.kind == "numerical-cont":
                    try:
                        row.append(float(cell))
                    except ValueError:
                        raise DataError(f"{path}:{line_no}: {var.name!r} needs a number, "
                                        f"got {cell!r}") from None
                else:
                    row.append(cell)
            rows.append(tuple(row))
    pool = AgentPool(schema, tuple(rows), provenance)
    if strict_numeric is None:
        strict_numeric = provenance != "generated"
    pool.validate(strict_numeric=strict_numeric)
    return pool


def ingest_csv(data_path, schema_doc: dict) -> AgentPool:
    """Load source micro-data: resolve any declared bin counts against the
    observed columns, then parse and strictly validate every row."""
    with open(data_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{data_path}: empty CSV") from None
        raw_rows = [cells for cells in reader]
    declared = [entry["name"] for entry in schema_doc.get("variables", [])]
    if header[:len(declared)] != declared:
        raise SchemaError(f"{data_path}: header {header!r} does not match schema {declared!r}")
    columns: dict[str, list[float]] = {}
    for j, entry in enumerate(schema_doc.get("variables", [])):
        if entry.get("kind") in NUMERICAL_KINDS and "bins" in entry:
            try:
                columns[entry["name"]] = [float(cells[j]) for cells in raw_rows]
            except (ValueError, IndexError):
                raise DataError(
                    f"{data_path}: non-numeric or missing cell in column {entry['name']!r}") from None
    schema = schema_from_json(schema_doc, columns=columns)
    return read_pool_csv(data_path, schema, provenance="train")
