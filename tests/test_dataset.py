"""Encoding, discretization, and splitting."""

import csv
import itertools
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from agentsynth import dataset
from agentsynth.dataset import (
    AgentPool,
    EncodedMatrix,
    Schema,
    VariableSpec,
    build_uniform_edges,
    codes_to_pool,
    decode_rows,
    discretize,
    discretize_clamped,
    encode_pool,
    ingest_csv,
    matrix_to_codes,
    pool_to_codes,
    read_pool_csv,
    schema_blocks,
    schema_from_json,
    schema_to_json,
    split_pool,
    write_pool_csv,
)
from agentsynth.errors import ConfigError, DataError, SchemaError

from conftest import categorical_schema, pool_from_codes, random_categorical_pool


def _num_var(name="age", edges=(0.0, 10.0, 20.0, 30.0), kind="numerical-int"):
    return VariableSpec(name, kind, bin_edges=tuple(edges))


class TestDiscretize:
    def test_interior_value(self):
        assert discretize(15, _num_var()) == 1

    def test_last_bin_right_closed(self):
        assert discretize(30, _num_var()) == 2

    def test_left_edge(self):
        assert discretize(0, _num_var()) == 0

    def test_out_of_range_raises(self):
        with pytest.raises(DataError, match="age"):
            discretize(31, _num_var())
        with pytest.raises(DataError):
            discretize(-0.5, _num_var())

    def test_matches_brute_force_scan(self, rng):
        # Oracle: walk every interval and check membership directly.
        ages = rng.uniform(18, 81, size=400)
        edges = build_uniform_edges(ages, 8)
        var = VariableSpec("age", "numerical-cont", bin_edges=tuple(edges))
        for v in ages:
            expected = None
            for b in range(8):
                last = b == 7
                if edges[b] <= v < edges[b + 1] or (last and v == edges[8]):
                    expected = b
                    break
            assert discretize(v, var) == expected

    def test_clamped_assignment(self):
        var = _num_var()
        idx = discretize_clamped([-5.0, 15.0, 99.0], var)
        assert idx.tolist() == [0, 1, 2]


class TestBuildUniformEdges:
    def test_simple_spacing(self):
        edges = build_uniform_edges(np.arange(101.0), 4)
        assert edges.tolist() == [0.0, 25.0, 50.0, 75.0, 100.0]

    def test_two_bins(self):
        assert build_uniform_edges([-1.0, 1.0], 2).tolist() == [-1.0, 0.0, 1.0]

    def test_matches_linspace_oracle(self, rng):
        for _ in range(25):
            col = rng.normal(size=rng.integers(2, 50)) * rng.uniform(0.1, 50)
            k = int(rng.integers(2, 12))
            if col.min() == col.max():
                continue
            expected = np.linspace(col.min(), col.max(), k + 1)
            np.testing.assert_allclose(build_uniform_edges(col, k), expected, atol=1e-12)

    def test_constant_column_raises(self):
        with pytest.raises(DataError, match="degenerate"):
            build_uniform_edges([3.0, 3.0, 3.0], 4)


class TestOneHotEncode:
    def test_household_size_example(self):
        var = VariableSpec("HousehNumPers", "categorical",
                           categories=("1", "2", "3", "4", "5+"))
        schema = Schema((var,), "discretize-all")
        pool = AgentPool.from_rows(schema, (("2",),), "train")
        enc = encode_pool(pool)
        assert enc.values.tolist() == [[0.0, 1.0, 0.0, 0.0, 0.0]]

    def test_single_row_single_one(self):
        schema = categorical_schema([3])
        pool = pool_from_codes(schema, [[2]])
        enc = encode_pool(pool)
        assert enc.values.sum() == 1.0
        assert enc.values[0, 2] == 1.0

    def test_roundtrip_on_random_categorical_pools(self, rng):
        for _ in range(10):
            widths = [int(w) for w in rng.integers(2, 6, size=rng.integers(1, 5))]
            pool = random_categorical_pool(rng, widths, n_rows=int(rng.integers(1, 40)))
            decoded = decode_rows(encode_pool(pool))
            assert decoded.rows == pool.rows
            assert decoded.provenance == "generated"

    def test_block_row_sums_exactly_one(self, rng):
        pool = random_categorical_pool(rng, [3, 4, 2], 50)
        enc = encode_pool(pool)
        for block in enc.blocks:
            sums = enc.values[:, block.start:block.stop].sum(axis=1)
            assert np.all(sums == 1.0)

    def test_unknown_category_raises(self):
        schema = categorical_schema([3])
        with pytest.raises(DataError, match="unknown category 'weird'"):
            encode_pool(AgentPool.from_rows(schema, (("weird",),)))


class TestMixedEncoding:
    def _mixed_pool(self, rng, n=200):
        schema = Schema(
            (
                VariableSpec("income", "numerical-cont",
                             bin_edges=tuple(np.linspace(0, 100, 11))),
                VariableSpec("sex", "binary", categories=("f", "m")),
            ),
            "mixed",
        )
        rows = tuple(
            (float(rng.uniform(0, 100)), rng.choice(["f", "m"])) for _ in range(n)
        )
        return AgentPool.from_rows(schema, rows, "train")

    def test_train_standardization_is_zero_mean_unit_std(self, rng):
        pool = self._mixed_pool(rng)
        enc = encode_pool(pool)
        col = enc.values[:, 0]
        assert abs(col.mean()) < 1e-9
        assert abs(col.std() - 1.0) < 1e-9

    def test_stats_reused_verbatim(self, rng):
        train = self._mixed_pool(rng)
        other = self._mixed_pool(rng, n=50)
        enc_train = encode_pool(train)
        enc_other = encode_pool(other, standardization=enc_train.standardization)
        assert enc_other.standardization == enc_train.standardization
        # de-standardizing with train stats recovers the raw values
        mean, std = enc_train.standardization["income"]
        raw = np.array([row[0] for row in other.rows])
        np.testing.assert_allclose(enc_other.values[:, 0] * std + mean, raw, atol=1e-9)

    def test_destandardize_matches_hand_inversion(self, rng):
        train = self._mixed_pool(rng)
        enc = encode_pool(train)
        mean, std = enc.standardization["income"]
        z = rng.normal(size=7)
        values = np.zeros((7, train.schema.encoded_width))
        values[:, 0] = z
        values[:, 1] = 1.0  # pick category "f"
        soft = EncodedMatrix(values, enc.blocks, enc.standardization, train.schema)
        decoded = decode_rows(soft)
        expected = mean + z * std
        np.testing.assert_allclose([row[0] for row in decoded.rows], expected, atol=1e-12)

    def test_constant_numeric_column_raises(self):
        schema = Schema(
            (VariableSpec("v", "numerical-cont", bin_edges=(0.0, 1.0, 2.0)),
             VariableSpec("c", "binary", categories=("a", "b"))),
            "mixed",
        )
        pool = AgentPool.from_rows(schema, ((1.0, "a"), (1.0, "b")), "train")
        with pytest.raises(DataError, match="degenerate"):
            encode_pool(pool)


class TestDecodeRows:
    def test_soft_block_argmax(self):
        schema = categorical_schema([3])
        values = np.array([[0.1, 0.7, 0.2]])
        matrix = EncodedMatrix(values, encode_pool(pool_from_codes(schema, [[0]])).blocks,
                               {}, schema)
        decoded = decode_rows(matrix)
        assert decoded.rows == (("c1",),)

    def test_argmax_tie_breaks_low(self):
        schema = categorical_schema([3])
        values = np.array([[0.4, 0.4, 0.2]])
        matrix = EncodedMatrix(values, encode_pool(pool_from_codes(schema, [[0]])).blocks,
                               {}, schema)
        assert decode_rows(matrix).rows == (("c0",),)

    def test_width_mismatch_raises(self):
        schema = categorical_schema([3])
        blocks = encode_pool(pool_from_codes(schema, [[0]])).blocks
        matrix = EncodedMatrix(np.zeros((1, 5)), blocks, {}, schema)
        with pytest.raises(SchemaError, match="width"):
            decode_rows(matrix)


class TestSplit:
    def test_documented_fractions(self, rng):
        pool = random_categorical_pool(rng, [4, 3], 100)
        train, val, test = split_pool(pool, 0.2, 0.25, seed=7)
        assert (len(train), len(val), len(test)) == (15, 5, 80)
        assert train.provenance == "train"
        assert val.provenance == "validation"
        assert test.provenance == "test"

    def test_deterministic_for_fixed_seed(self, rng):
        pool = random_categorical_pool(rng, [4, 3], 60)
        a = split_pool(pool, 0.3, 0.5, seed=11)
        b = split_pool(pool, 0.3, 0.5, seed=11)
        for x, y in zip(a, b):
            assert x.rows == y.rows

    def test_multiset_union_equals_input(self, rng):
        pool = random_categorical_pool(rng, [4, 3, 2], 83)
        train, val, test = split_pool(pool, 0.25, 0.3, seed=3)
        combined = sorted(train.rows + val.rows + test.rows)
        assert combined == sorted(pool.rows)

    def test_too_small_pool_raises(self, rng):
        pool = random_categorical_pool(rng, [2], 3)
        with pytest.raises(DataError, match="too small"):
            split_pool(pool, 0.1, 0.5, seed=0)


class TestSerialization:
    def test_schema_json_roundtrip(self):
        schema = Schema(
            (
                VariableSpec("age", "numerical-int", bin_edges=(0.0, 40.0, 80.0)),
                VariableSpec("edu", "categorical", categories=("low", "mid", "high")),
            ),
            "mixed",
        )
        assert schema_from_json(schema_to_json(schema)) == schema

    def test_bins_resolution_needs_columns(self):
        doc = {"mode": "discretize-all",
               "variables": [{"name": "age", "kind": "numerical-int", "bins": 4}]}
        with pytest.raises(SchemaError, match="resolve"):
            schema_from_json(doc)
        schema = schema_from_json(doc, columns={"age": [0.0, 100.0]})
        assert schema.variables[0].bin_edges == (0.0, 25.0, 50.0, 75.0, 100.0)

    @pytest.mark.parametrize("entry, message", [
        ({"name": 7, "kind": "binary", "categories": ["0", "1"]},
         "^variable 7: name must be a string, got 7$"),
        ({"name": "x", "kind": "binary", "categories": [0, 1]},
         r"^variable 'x': categories must be a list of names, got \[0, 1\]$"),
        ({"name": "x", "kind": "categorical", "categories": [1, None, True]},
         r"^variable 'x': categories must be a list of names, got \[1, None, True\]$"),
        ({"name": "x", "kind": "numerical-int", "bin_edges": [0, 1, 2], "bns": 2},
         r"^variable 'x' has unknown keys \['bns'\]; it accepts \['name', 'kind', "
         r"'categories', 'bin_edges', 'bins'\]$"),
        ({"name": "x", "kind": "numerical-int", "bin_edges": [0, 1, 2], "bins": 2},
         "^variable 'x' holds both 'bins' and 'bin_edges'; it takes one of them$"),
        # a key of the other kind of variable is refused, not dropped
        ({"name": "x", "kind": "numerical-int", "categories": ["a", "b"],
          "bin_edges": [0, 1, 2]},
         r"^variable 'x' is numerical-int and holds 'categories'; it accepts \['name', "
         r"'kind', 'bin_edges', 'bins'\]$"),
        ({"name": "x", "kind": "numerical-cont", "bins": 2, "categories": ["a", "b"]},
         r"^variable 'x' is numerical-cont and holds 'categories'; it accepts \['name', "
         r"'kind', 'bin_edges', 'bins'\]$"),
        ({"name": "x", "kind": "binary", "categories": ["a", "b"], "bins": 3},
         r"^variable 'x' is binary and holds 'bins'; it accepts \['name', 'kind', "
         r"'categories'\]$"),
        ({"name": "x", "kind": "binary", "bin_edges": [0, 1, 2], "categories": ["a", "b"]},
         r"^variable 'x' is binary and holds 'bin_edges'; it accepts \['name', 'kind', "
         r"'categories'\]$"),
        ({"name": "x", "kind": "categorical", "categories": ["a", "b", "c"], "bins": 3},
         r"^variable 'x' is categorical and holds 'bins'; it accepts \['name', 'kind', "
         r"'categories'\]$"),
        ({"name": "x", "kind": "categorical", "categories": ["a", "b"], "bin_edges": [0, 1, 2]},
         r"^variable 'x' is categorical and holds 'bin_edges'; it accepts \['name', 'kind', "
         r"'categories'\]$"),
    ])
    def test_variable_entry_is_read_as_written(self, entry, message):
        with pytest.raises(SchemaError, match=message):
            schema_from_json({"variables": [entry]}, columns={"x": [0.0, 2.0]})

    def test_unknown_schema_key_is_schema_error(self):
        doc = {"mdoe": "mixed", "variables": [{"name": "x", "kind": "binary",
                                               "categories": ["0", "1"]}]}
        with pytest.raises(SchemaError, match=r"^the schema document has unknown keys "
                           r"\['mdoe'\]; it accepts \['mode', 'variables'\]$"):
            schema_from_json(doc)

    def test_pool_csv_roundtrip(self, rng, tmp_path):
        pool = random_categorical_pool(rng, [3, 4], 30)
        path = tmp_path / "pool.csv"
        write_pool_csv(pool, path)
        back = read_pool_csv(path, pool.schema, provenance="train")
        assert back.rows == pool.rows

    def test_generated_pool_carries_provenance_column(self, rng, tmp_path):
        pool = random_categorical_pool(rng, [2, 2], 5, provenance="generated")
        path = tmp_path / "gen.csv"
        write_pool_csv(pool, path)
        first = path.read_text().splitlines()[0]
        assert first.endswith("provenance")

    def test_missing_value_rejected(self, tmp_path):
        schema = categorical_schema([2])
        path = tmp_path / "bad.csv"
        path.write_text("x00\nc0\n\n")  # blank row has an empty cell
        with pytest.raises(DataError):
            read_pool_csv(path, schema)

    def test_integer_cells_parse_exactly(self, tmp_path):
        schema = Schema((_num_var(),), "discretize-all")
        path = tmp_path / "ints.csv"
        path.write_text("age\n3\n3.0\n")
        assert read_pool_csv(path, schema).rows == ((3,), (3,))

    @pytest.mark.parametrize("cell", ["3.7", "1e-3", "nan", "x"])
    @pytest.mark.parametrize("provenance", ["train", "generated"])
    def test_non_integral_int_cell_rejected(self, tmp_path, cell, provenance):
        schema = Schema((_num_var(),), "discretize-all")
        path = tmp_path / "ints.csv"
        path.write_text(f"age\n4\n{cell}\n")
        with pytest.raises(DataError, match=r"ints\.csv:3: 'age'"):
            read_pool_csv(path, schema, provenance=provenance)

    @pytest.mark.parametrize("provenance", ["train", "generated"])
    def test_non_numeric_cont_cell_rejected(self, tmp_path, provenance):
        schema = Schema((_num_var("w", kind="numerical-cont"),), "discretize-all")
        path = tmp_path / "conts.csv"
        path.write_text("w\n4.5\nabc\n")
        with pytest.raises(DataError, match=r"conts\.csv:3: 'w' needs a number, got 'abc'"):
            read_pool_csv(path, schema, provenance=provenance)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cont_cell_reaches_finite_check(self, tmp_path, cell):
        schema = Schema((_num_var("w", kind="numerical-cont"),), "discretize-all")
        path = tmp_path / "conts.csv"
        path.write_text(f"w\n4.5\n{cell}\n")
        with pytest.raises(DataError, match="non-finite"):
            read_pool_csv(path, schema, provenance="generated")

    def test_ingest_rejects_non_integral_int_cell(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("age\n10\n20.5\n30\n")
        doc = {"mode": "discretize-all",
               "variables": [{"name": "age", "kind": "numerical-int", "bins": 2}]}
        with pytest.raises(DataError, match=r"data\.csv:3: 'age'"):
            ingest_csv(csv_path, doc)

    def test_ingest_resolves_bins_from_observed_range(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("age,sex\n10,f\n20,m\n30,f\n50,m\n")
        doc = {"mode": "discretize-all", "variables": [
            {"name": "age", "kind": "numerical-int", "bins": 4},
            {"name": "sex", "kind": "binary", "categories": ["f", "m"]},
        ]}
        pool = ingest_csv(csv_path, doc)
        assert pool.schema.variables[0].bin_edges == (10.0, 20.0, 30.0, 40.0, 50.0)
        assert len(pool) == 4


class TestSchemaColumns:
    @pytest.mark.parametrize("widths, names, columns", [
        ([64, 64, 64, 16, 64], None, [0, 1, 2, 3]),  # 2^22 bins
        ([64, 64, 64, 17, 2], ["x00", "x01", "x02", "x04"], [0, 1, 2, 4]),
    ])
    def test_joint_of_max_table_cells_is_accepted(self, widths, names, columns):
        assert categorical_schema(widths).columns(names, "projection") == columns

    def test_default_projection_past_the_guard_is_rejected(self):
        # 64 * 64 * 64 * 17 bins, one width past 2^22
        schema = categorical_schema([64, 64, 64, 17, 2])
        with pytest.raises(ConfigError, match=r"projection \['x00', 'x01', 'x02', 'x03'\] "
                           r"has 4456448 bins, more than 4194304; name fewer or narrower "
                           r"variables \(by default projection is the first four variables\)"):
            schema.columns(None, "projection")


class TestRowBlocks:
    @pytest.mark.parametrize("size", [1, 7, 1024])
    @pytest.mark.parametrize("n", [0, 1, 17, 1023, 1024, 1025, 2047, 2048, 10000])
    def test_partition_of_array_split(self, n, size):
        blocks = list(dataset.row_blocks(n, size))
        expected = np.array_split(np.arange(n), max(1, n // size))
        assert [np.arange(n)[rows].tolist() for rows in blocks] == [
            block.tolist() for block in expected]
        assert all(rows.step is None for rows in blocks)


class TestCodes:
    def test_codes_roundtrip(self, rng):
        pool = random_categorical_pool(rng, [3, 5], 40)
        codes = pool_to_codes(pool)
        from agentsynth.dataset import codes_to_pool
        back = codes_to_pool(codes, pool.schema, provenance="generated")
        assert back.rows == pool.rows

    def test_matrix_to_codes_matches_pool_codes(self, rng):
        pool = random_categorical_pool(rng, [3, 4, 2], 25)
        enc = encode_pool(pool)
        np.testing.assert_array_equal(matrix_to_codes(enc), pool_to_codes(pool))


def _mixed_schema():
    """Categoricals around numerics, including bins that hold no integer
    (0.4-0.8) and bins whose midpoints round half to even."""
    return Schema((
        VariableSpec("sex", "binary", categories=("f", "m")),
        _num_var("age", (0.0, 0.4, 0.8, 2.5, 7.0, 12.0)),
        VariableSpec("region", "categorical", categories=("n", "e", "s", "w")),
        _num_var("income", (-3.0, -0.5, 1.25, 8.0), kind="numerical-cont"),
        _num_var("kids", (0.0, 1.0, 3.0, 5.0)),
    ), "discretize-all")


def _reference_bin_value(var, bin_idx, rng):
    """The per-cell row materialization that codes_to_pool vectorizes."""
    lo, hi = var.bin_edges[bin_idx], var.bin_edges[bin_idx + 1]
    v = rng.uniform(lo, hi) if rng is not None else 0.5 * (lo + hi)
    if var.kind == "numerical-int":
        lo_int, hi_int = math.ceil(lo), math.floor(hi)
        if lo_int <= hi_int:
            return int(min(max(round(v), lo_int), hi_int))
        return int(round(v))
    return float(v)


def _reference_codes_to_pool(codes, schema, rng):
    rows = []
    for r in range(codes.shape[0]):
        rows.append(tuple(
            _reference_bin_value(var, int(codes[r, j]), rng) if var.is_numerical
            else var.categories[int(codes[r, j])]
            for j, var in enumerate(schema.variables)))
    return AgentPool.from_rows(schema, tuple(rows), "generated")


def _random_codes(rng, schema, n_rows):
    return np.column_stack([rng.integers(0, w, size=n_rows) for w in schema.value_counts])


class TestRowMaterialization:
    @pytest.mark.parametrize("n_rows", [0, 1, 257])
    def test_codes_to_pool_matches_per_cell_reference(self, n_rows):
        schema = _mixed_schema()
        codes = _random_codes(np.random.default_rng(5), schema, n_rows)
        fast_rng, slow_rng = np.random.default_rng(11), np.random.default_rng(11)
        fast = codes_to_pool(codes, schema, rng=fast_rng)
        slow = _reference_codes_to_pool(codes, schema, slow_rng)
        assert fast.rows == slow.rows
        assert [type(v) for row in fast.rows for v in row] == \
            [type(v) for row in slow.rows for v in row]
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    def test_codes_to_pool_midpoints_without_rng(self):
        schema = _mixed_schema()
        codes = _random_codes(np.random.default_rng(6), schema, 64)
        assert codes_to_pool(codes, schema).rows == \
            _reference_codes_to_pool(codes, schema, None).rows

    def test_decode_rows_matches_per_cell_reference(self):
        # decode_rows materializes column by column
        schema = _mixed_schema()
        matrix = encode_pool(codes_to_pool(_random_codes(np.random.default_rng(7), schema, 90),
                                           schema))
        codes = matrix_to_codes(matrix)
        fast_rng, slow_rng = np.random.default_rng(3), np.random.default_rng(3)
        decoded = decode_rows(matrix, rng=fast_rng)
        columns = [[_reference_bin_value(var, int(c), slow_rng) for c in codes[:, j]]
                   if var.is_numerical else [var.categories[int(c)] for c in codes[:, j]]
                   for j, var in enumerate(schema.variables)]
        assert decoded.rows == tuple(zip(*columns))
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    @pytest.mark.parametrize("provenance", ["train", "generated"])
    def test_pool_csv_bytes_match_row_writer(self, tmp_path, provenance):
        schema = _mixed_schema()
        codes = _random_codes(np.random.default_rng(8), schema, 120)
        pool = codes_to_pool(codes, schema, rng=np.random.default_rng(9)).with_provenance(provenance)
        path = tmp_path / "pool.csv"
        write_pool_csv(pool, path)
        expected = tmp_path / "expected.csv"
        _reference_write_pool_csv(pool, expected)
        assert path.read_bytes() == expected.read_bytes()
        assert read_pool_csv(path, schema, provenance=provenance).rows == pool.rows


# ---------------------------------------------------------------------------
# per-value references for pool_to_codes, encode_pool and decode_rows


def _reference_value_codes(var, column):
    if var.is_numerical:
        return [discretize(v, var) for v in column]
    lookup = {c: i for i, c in enumerate(var.categories)}
    try:
        return [lookup[v] for v in column]
    except KeyError as exc:
        raise DataError(f"variable {var.name!r}: unknown category {exc.args[0]!r}") from None


def _reference_pool_to_codes(pool, clamp=False):
    codes = np.empty((len(pool.rows), pool.schema.n_variables), dtype=np.int64)
    for j, var in enumerate(pool.schema.variables):
        column = [row[j] for row in pool.rows]
        if var.is_numerical and clamp:
            codes[:, j] = discretize_clamped(column, var)
        else:
            codes[:, j] = _reference_value_codes(var, column)
    return codes


def _reference_encode_pool(pool, standardization=None):
    schema = pool.schema
    n_rows = len(pool.rows)
    out = np.zeros((n_rows, schema.encoded_width))
    stats = {}
    for j, (var, block) in enumerate(zip(schema.variables, schema_blocks(schema))):
        column = [row[j] for row in pool.rows]
        if block.kind == "one-hot":
            idx = np.array(_reference_value_codes(var, column), dtype=np.int64)
            out[np.arange(n_rows), block.start + idx] = 1.0
        else:
            arr = np.asarray(column, dtype=float)
            if standardization is None:
                mean, std = float(arr.mean()), float(arr.std())
            else:
                mean, std = standardization[var.name]
            stats[var.name] = (mean, std)
            out[:, block.start] = (arr - mean) / std
    return out, stats


def _error_of(fn, *args):
    with pytest.raises(DataError) as info:
        fn(*args)
    return str(info.value)


def _mixed_mode(schema):
    return Schema(schema.variables, "mixed")


class TestRowToCodeLookup:
    @pytest.mark.parametrize("mode", ["discretize-all", "mixed"])
    @pytest.mark.parametrize("n_rows", [0, 1, 300])
    def test_codes_and_encoding_match_per_value_reference(self, mode, n_rows):
        schema = Schema(_mixed_schema().variables, mode)
        codes = _random_codes(np.random.default_rng(12), schema, n_rows)
        pool = codes_to_pool(codes, schema, rng=np.random.default_rng(13))
        # values on the outer edges: the last bin is closed on the right
        if n_rows:
            pool = AgentPool.from_rows(schema, pool.rows + (("m", 12.0, "w", 8.0, 5),
                                                            ("f", 0.0, "n", -3.0, 0)), "train")
        np.testing.assert_array_equal(pool_to_codes(pool), _reference_pool_to_codes(pool))
        np.testing.assert_array_equal(pool.codes, _reference_pool_to_codes(pool, clamp=True))
        if n_rows:
            enc = encode_pool(pool)
            values, stats = _reference_encode_pool(pool)
            np.testing.assert_array_equal(enc.values, values)
            assert enc.standardization == stats
            other = codes_to_pool(codes[:7], schema, rng=np.random.default_rng(14))
            again = encode_pool(other, enc.standardization)
            values, stats = _reference_encode_pool(other, enc.standardization)
            np.testing.assert_array_equal(again.values, values)
            assert again.standardization == stats

    @pytest.mark.parametrize("bad", [
        # (row index, variable index, value): the first bad value is reported
        [(3, 1, 12.5)],
        [(5, 1, -0.25), (2, 4, 9)],
        [(4, 4, 7), (6, 4, -1)],
        [(1, 3, 8.000001)],
        [(2, 0, "x"), (1, 2, "q")],
        [(0, 2, "north")],
        [(7, 0, 1)],
    ])
    def test_errors_match_per_value_reference(self, bad):
        schema = _mixed_schema()
        codes = _random_codes(np.random.default_rng(15), schema, 9)
        rows = [list(row) for row in codes_to_pool(codes, schema, rng=np.random.default_rng(16)).rows]
        for r, j, value in bad:
            rows[r][j] = value
        rows = tuple(map(tuple, rows))
        # the references read raw records; an unknown category already
        # stops AgentPool.from_rows
        expected = _error_of(_reference_pool_to_codes, SimpleNamespace(schema=schema, rows=rows))
        pool = lambda schema: AgentPool.from_rows(schema, rows, "generated")
        assert _error_of(lambda: pool_to_codes(pool(schema))) == expected
        assert _error_of(lambda: encode_pool(pool(schema))) == expected
        mixed = _mixed_mode(schema)
        categorical = [j for j, var in enumerate(schema.variables) if not var.is_numerical]
        if any(j in categorical for _, j, _ in bad):
            assert _error_of(lambda: encode_pool(pool(mixed))) == _error_of(
                _reference_encode_pool, SimpleNamespace(schema=mixed, rows=rows))
        else:
            # mixed mode keeps numerics continuous: nothing is out of range
            encode_pool(pool(mixed))

    def test_nan_is_out_of_range(self):
        schema = _mixed_schema()
        pool = AgentPool.from_rows(schema, (("m", float("nan"), "w", 8.0, 5),), "generated")
        with pytest.raises(DataError, match="'age': value nan outside"):
            pool_to_codes(pool)

    def test_scalar_discretize_rejects_nan(self):
        var = _num_var("age", (0.0, 1.0, 2.0))
        with pytest.raises(DataError, match="'age': value nan outside"):
            discretize(float("nan"), var)

    def test_decode_rows_matches_per_value_reference(self):
        schema = _mixed_mode(_mixed_schema())
        train = codes_to_pool(_random_codes(np.random.default_rng(17), schema, 80), schema,
                              rng=np.random.default_rng(18))
        enc = encode_pool(train)
        soft = enc.values + np.random.default_rng(19).normal(scale=0.3, size=enc.values.shape)
        matrix = EncodedMatrix(soft, enc.blocks, enc.standardization, schema)
        columns = []
        for block, var in zip(matrix.blocks, schema.variables):
            sub = soft[:, block.start:block.stop]
            if block.kind == "one-hot":
                columns.append([var.categories[int(i)] for i in np.argmax(sub, axis=1)])
            else:
                mean, std = enc.standardization[var.name]
                raw = sub[:, 0] * std + mean
                columns.append([int(round(v)) for v in raw] if var.kind == "numerical-int"
                               else [float(v) for v in raw])
        decoded = decode_rows(matrix)
        assert decoded.rows == tuple(zip(*columns))
        assert [type(v) for row in decoded.rows for v in row] == \
            [type(v) for row in zip(*columns) for v in row]


# ---------------------------------------------------------------------------
# the column-wise CSV reader and writer against the row-by-row ones they replaced


def _reference_read_pool_csv(path, schema, provenance="train"):
    """Rows parsed cell by cell, then validated variable by variable, as the
    row-by-row reader did; a defect raises the DataError it raised."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = []
        for line_no, cells in enumerate(reader, start=2):
            if len(cells) < schema.n_variables:
                raise DataError(
                    f"{path}:{line_no}: expected {schema.n_variables} cells, got {len(cells)}")
            row = []
            for var, cell in zip(schema.variables, cells):
                if cell == "":
                    raise DataError(f"{path}:{line_no}: missing value for {var.name!r}")
                try:
                    if var.kind == "numerical-int":
                        value = float(cell)
                        if not value.is_integer():
                            raise ValueError(cell)
                        row.append(int(value))
                    else:
                        row.append(float(cell) if var.kind == "numerical-cont" else cell)
                except ValueError:
                    need = "an integer" if var.kind == "numerical-int" else "a number"
                    raise DataError(f"{path}:{line_no}: {var.name!r} needs {need}, "
                                    f"got {cell!r}") from None
            rows.append(tuple(row))
    for j, var in enumerate(schema.variables):
        for row in rows:
            value = row[j]
            if not var.is_numerical:
                if value not in var.categories:
                    raise DataError(f"variable {var.name!r}: unknown category {value!r}")
                continue
            lo, hi = var.bin_edges[0], var.bin_edges[-1]
            if not math.isfinite(value):
                raise DataError(f"variable {var.name!r}: missing or non-finite value {value!r}")
            if provenance != "generated" and not lo <= value <= hi:
                raise DataError(f"variable {var.name!r}: value {value!r} outside [{lo}, {hi}]")
    return tuple(rows)


def _reference_write_pool_csv(pool, path):
    """The row-by-row writer: each value formatted on its own."""
    extra = ["provenance"] if pool.provenance == "generated" else []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(pool.schema.names) + extra)
        for row in pool.rows:
            writer.writerow([str(int(v)) if var.kind == "numerical-int"
                             else repr(float(v)) if var.kind == "numerical-cont"
                             else str(v) for var, v in zip(pool.schema.variables, row)]
                            + [pool.provenance] * len(extra))


def _outcome(read, *args):
    try:
        return read(*args)
    except (DataError, csv.Error) as exc:  # csv.Error: a NUL, before Python 3.11
        return f"{type(exc).__name__}: {exc}"


# (row, column, cell) edits of a valid 12-row file of _mixed_schema();
# (row, None, None) cuts that row short
CSV_DEFECTS = [
    [(4, None, None)],
    [(3, 2, "")],
    [(5, 1, "3.5")],
    [(2, 3, "abc")],
    [(6, 3, "nan")],
    [(7, 2, "north")],
    [(1, 4, "9")],
    [(8, 1, "x"), (3, 3, "12.5e")],
    [(3, 4, "x"), (3, 1, "")],
    [(2, 2, "zz"), (5, 1, "99")],
    [(6, 0, "q"), (2, None, None)],
    [(7, None, None), (3, 4, "1.5")],
    [(4, 3, "inf"), (1, 1, "-1")],
    [(9, 0, "m "), (10, 3, "1e9")],
]
CSV_DEFECT_IDS = ["short-row", "empty-cell", "non-integer-int", "non-number-cont", "nan",
                  "unknown-category", "out-of-range", "two-parse-errors", "same-row-parse-errors",
                  "category-and-range", "category-and-short-row", "short-row-after-parse-error",
                  "inf-and-range", "space-and-overshoot"]


class TestColumnarCsv:
    @pytest.mark.parametrize("defects", CSV_DEFECTS, ids=CSV_DEFECT_IDS)
    @pytest.mark.parametrize("provenance", ["train", "generated"])
    def test_defects_match_row_by_row_reader(self, tmp_path, defects, provenance):
        schema = _mixed_schema()
        pool = codes_to_pool(_random_codes(np.random.default_rng(21), schema, 12), schema,
                             rng=np.random.default_rng(22))
        path = tmp_path / "pool.csv"
        write_pool_csv(pool, path)
        lines = path.read_text().splitlines()
        for row, column, cell in defects:
            cells = lines[row + 1].split(",")
            if column is None:
                cells = cells[:3]
            else:
                cells[column] = cell
            lines[row + 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        expected = _outcome(_reference_read_pool_csv, path, schema, provenance)
        actual = _outcome(lambda: read_pool_csv(path, schema, provenance=provenance).rows)
        assert actual == expected

    @pytest.mark.parametrize("n_rows", [0, 1, 60])
    @pytest.mark.parametrize("provenance", ["train", "generated"])
    @pytest.mark.parametrize("mode", ["discretize-all", "mixed"])
    def test_round_trip_every_kind(self, tmp_path, mode, provenance, n_rows):
        schema = Schema(_mixed_schema().variables, mode)
        pool = codes_to_pool(_random_codes(np.random.default_rng(23), schema, n_rows), schema,
                             provenance, rng=np.random.default_rng(24))
        if provenance == "generated" and n_rows:
            # generated values may overshoot the outermost edges
            pool = AgentPool.from_rows(schema, pool.rows + (("m", 13, "w", 9.5, -1),),
                                       provenance)
        path, expected = tmp_path / "pool.csv", tmp_path / "expected.csv"
        write_pool_csv(pool, path)
        _reference_write_pool_csv(pool, expected)
        assert path.read_bytes() == expected.read_bytes()
        back = read_pool_csv(path, schema, provenance=provenance)
        assert back.rows == pool.rows == _reference_read_pool_csv(path, schema, provenance)
        assert [type(v) for row in back.rows for v in row] == \
            [type(v) for row in pool.rows for v in row]
        np.testing.assert_array_equal(back.codes, pool.codes)
        np.testing.assert_array_equal(back.numeric, pool.numeric)
        assert (back.provenance, len(back)) == (provenance, len(pool))

    def test_ingest_reads_the_file_once(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("age,sex\n10,f\n20,m\n30,f\n50,m\n")
        doc = {"mode": "discretize-all", "variables": [
            {"name": "age", "kind": "numerical-int", "bins": 4},
            {"name": "sex", "kind": "binary", "categories": ["f", "m"]}]}
        opened = []
        real_open = open
        monkeypatch.setattr("builtins.open", lambda *a, **k: opened.append(a[0]) or
                            real_open(*a, **k))
        pool = ingest_csv(csv_path, doc)
        assert opened == [csv_path]
        assert pool.rows == ((10, "f"), (20, "m"), (30, "f"), (50, "m"))


def _counting_csv_reader(monkeypatch):
    """Count the files handed to the ``csv`` module's reader."""
    calls, real_reader = [], csv.reader
    monkeypatch.setattr("agentsynth.dataset.csv.reader",
                        lambda *a, **k: calls.append(1) or real_reader(*a, **k))
    return calls


def _tokenizer_schema():
    return Schema((
        VariableSpec("sex", "binary", categories=("f", "m")),
        _num_var("age"),
        VariableSpec("town", "categorical", categories=("a", "b,c", "d\ne", "\0")),
    ), "discretize-all")


# (file text, provenance, whether the csv module reads it)
TOKENIZER_FILES = [
    ("sex,age,town\nf,3,a\nm,12,a\n", "train", False),
    ("sex,age,town\r\nf,3,a\r\nm,12,a\r\n", "train", False),
    ("sex,age,town\nf,3,a\nm,12,a", "train", False),
    ("sex,age,town\r\nf,3,a\r\nm,12,a", "train", False),
    ("sex,age,town\n", "train", False),
    ("sex,age,town", "train", False),
    ("sex,age,town\nf,3,a\n\nm,12,a\n", "train", True),
    ("sex,age,town\nf,3,a\nm,12,a\n\n", "train", True),
    ("sex,age,town\r\nf,3,a\r\n\r\n", "train", True),
    ("sex,age,town\r\nf,3,a\nm,12,a\r\n", "train", True),
    ("sex,age,town\nf,3,a\r\nm,12,a\n", "train", True),
    ("sex,age,town\rf,3,a\rm,12,a\r", "train", True),
    ("sex,age,town\r\nf,3,a\rm,12,a\r\n", "train", True),
    ("sex,age,town\nf,3\nm,12,a,a\n", "train", True),
    ("sex,age,town\nf,3,a,a\nm,12\n", "train", True),
    ("sex,age,town\nf,3,a,a\nm,12,a,a\n", "train", True),
    ('sex,age,town\nf,3,"b,c"\nm,12,a\n', "train", True),
    ('sex,age,town\nf,3,"d\ne"\r\nm,12,a\n', "train", True),
    ('sex,age,town\nf,3,"a\nm,12,a\n', "train", True),
    ("sex,age,town\nf,3,\0\nm,12,a\n", "train", True),
    ("sex,age,town\nf,3,a\0\nm,12,a\n", "train", True),
    ("sex,age,town,provenance\nf,3,a,generated\nm,99,a,generated\n", "generated", False),
    ("sex,age,town,provenance\nf,3,a,generated\nm,99,a\n", "generated", True),
    ("sex,age,town\nf,3,a\nm,1x,a\n", "train", True),
    ("sex,age,town\nf,3,a\nm,,a\n", "train", True),
    ("sex,age,town\nf,3,a\nm,12,zz\n", "train", False),
    ("sex,age,town\nf,3,a\nm,99,a\n", "train", False),
    ("sex,age,town,x\ny\r\nf,3,a,1\r\n", "train", True),
    ("sex,age,town,x\ry\r\nf,3,a,1\r\n", "train", True),
]
TOKENIZER_IDS = ["lf", "crlf", "lf-unclosed", "crlf-unclosed", "header-only", "header-unclosed",
                 "blank-line", "blank-last-line", "crlf-blank-last-line",
                 "crlf-then-lf", "lf-then-crlf", "lone-cr", "crlf-and-lone-cr",
                 "short-then-long", "long-then-short", "every-row-long", "quoted-comma",
                 "quoted-line-end", "open-quote", "nul-category", "nul-in-cell",
                 "provenance-column", "missing-provenance-cell", "non-number", "empty-cell",
                 "unknown-category", "out-of-range", "lone-lf-in-crlf-header",
                 "lone-cr-in-crlf-header"]


class TestColumnTokenizer:
    @pytest.mark.parametrize("text, provenance, by_csv_module", TOKENIZER_FILES,
                             ids=TOKENIZER_IDS)
    def test_outcome_matches_row_by_row_reader(self, tmp_path, monkeypatch, text, provenance,
                                               by_csv_module):
        schema = _tokenizer_schema()
        path = tmp_path / "pool.csv"
        path.write_bytes(text.encode())
        expected = _outcome(_reference_read_pool_csv, path, schema, provenance)
        calls = _counting_csv_reader(monkeypatch)
        actual = _outcome(lambda: read_pool_csv(path, schema, provenance=provenance).rows)
        assert actual == expected
        assert bool(calls) == by_csv_module

    @pytest.mark.parametrize("text, header", [
        ("sex,age\nf,3\n", "['sex', 'age']"),
        ("sex,age\r\nf,3\nm\r\n", "['sex', 'age']"),
        ("\nsex,age,town\nf,3,a\n", "[]"),
    ], ids=["split", "csv-module", "blank-header-line"])
    def test_header_mismatch_is_schema_error(self, tmp_path, text, header):
        path = tmp_path / "pool.csv"
        path.write_bytes(text.encode())
        with pytest.raises(SchemaError, match=re.escape(f"header {header} does not match")):
            read_pool_csv(path, _tokenizer_schema())

    def test_empty_file_is_data_error(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty CSV"):
            read_pool_csv(path, _tokenizer_schema())


AWKWARD_CATEGORIES = ("a,b", 'say "hi"', "cr\rhere", "lf\nhere", "crlf\r\n", " lead",
                      "trail ", "tab\there", "né", "東京", '"', ",", "plain")


class TestJoinWriter:
    @pytest.mark.parametrize("provenance", ["train", "generated"])
    @pytest.mark.parametrize("variables", [
        (VariableSpec("town", "categorical", categories=AWKWARD_CATEGORIES),),
        (VariableSpec("town", "categorical", categories=AWKWARD_CATEGORIES),
         _num_var("age, years"),
         VariableSpec("sex", "binary", categories=(" f", "m ")),
         _num_var('"w"', kind="numerical-cont"),
         VariableSpec("note", "categorical", categories=("x\ty", "ü", 'q"'))),
    ], ids=["one-column", "many-columns"])
    def test_bytes_match_row_writer_and_round_trip(self, tmp_path, variables, provenance):
        schema = Schema(variables, "discretize-all")
        codes = _random_codes(np.random.default_rng(31), schema, 80)
        codes[:len(AWKWARD_CATEGORIES), 0] = np.arange(len(AWKWARD_CATEGORIES))
        pool = codes_to_pool(codes, schema, provenance, rng=np.random.default_rng(32))
        path, expected = tmp_path / "pool.csv", tmp_path / "expected.csv"
        write_pool_csv(pool, path)
        _reference_write_pool_csv(pool, expected)
        assert path.read_bytes() == expected.read_bytes()
        back = read_pool_csv(path, schema, provenance=provenance)
        assert back.rows == pool.rows == _reference_read_pool_csv(path, schema, provenance)

    @pytest.mark.parametrize("categories", [("", "a"), ("a", "")])
    def test_empty_category_is_schema_error(self, categories):
        with pytest.raises(SchemaError, match="'x': a category cannot be empty"):
            VariableSpec("x", "categorical", categories=categories)
        doc = {"variables": [{"name": "x", "kind": "categorical", "categories": list(categories)}]}
        with pytest.raises(SchemaError, match="'x': a category cannot be empty"):
            schema_from_json(doc)


class TestFastPathIsTaken:
    """Files that write_pool_csv writes are read without the csv module, so
    a silent fallback cannot erase the split reader's speed."""

    @pytest.fixture(autouse=True)
    def no_csv_reader(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the csv module's reader was called")
        monkeypatch.setattr("agentsynth.dataset.csv.reader", refuse)

    @pytest.mark.parametrize("provenance", ["train", "generated"])
    @pytest.mark.parametrize("mode", ["discretize-all", "mixed"])
    def test_read_pool_csv(self, tmp_path, mode, provenance):
        schema = Schema(_mixed_schema().variables, mode)
        pool = codes_to_pool(_random_codes(np.random.default_rng(41), schema, 200), schema,
                             provenance, rng=np.random.default_rng(42))
        path = tmp_path / "pool.csv"
        write_pool_csv(pool, path)
        assert read_pool_csv(path, schema, provenance=provenance).rows == pool.rows

    @pytest.mark.parametrize("bins", [False, True], ids=["bin-edges", "bin-counts"])
    @pytest.mark.parametrize("mode", ["discretize-all", "mixed"])
    def test_ingest_csv(self, tmp_path, mode, bins):
        schema = Schema(_mixed_schema().variables, mode)
        pool = codes_to_pool(_random_codes(np.random.default_rng(43), schema, 200), schema,
                             "train", rng=np.random.default_rng(44))
        path = tmp_path / "pool.csv"
        write_pool_csv(pool, path)
        doc = schema_to_json(schema)
        if bins:
            for entry in doc["variables"]:
                if "bin_edges" in entry:
                    entry["bins"] = len(entry.pop("bin_edges")) - 1
        assert ingest_csv(path, doc).rows == pool.rows


class TestIngestBinsColumns:
    @pytest.mark.parametrize("text, message", [
        ("sex,age\nf,10\nm\nf,30\n", r"data\.csv:3: expected 2 cells, got 1"),
        ("sex,age\nf,10\nm,20\nf,abc\n", r"data\.csv:4: 'age' needs a number, got 'abc'"),
        ("sex,age\nf,10\nm,\nf,30\n", r"data\.csv:3: missing value for 'age'"),
        ("sex,age\nf,10\n,20\nf,1x\n", r"data\.csv:3: missing value for 'sex'"),
        ("sex,age\nf,10\nm,nan\nf,30\n", r"data\.csv:3: column 'age' declares a bin count "
                                         r"and holds 'nan'"),
    ], ids=["short-row", "non-number", "empty-bins-cell", "first-defect-in-file-order", "nan"])
    def test_bins_column_defects_name_their_line(self, tmp_path, text, message):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(text)
        doc = {"mode": "mixed", "variables": [
            {"name": "sex", "kind": "binary", "categories": ["f", "m"]},
            {"name": "age", "kind": "numerical-cont", "bins": 4}]}
        with pytest.raises(DataError, match=message):
            ingest_csv(csv_path, doc)


# ---------------------------------------------------------------------------
# the pool CSV reader and writer in blocks of a few lines


@pytest.fixture
def csv_blocks(monkeypatch):
    """``set_blocks(read, write)`` sets the reader's block (characters) and
    the writer's block (rows); the returned list collects the row count of
    every block the reader splits, or None where it gives the file up."""
    split = []
    real_split = dataset._split_blocks

    def counting(text, names):
        for cells in real_split(text, names):
            split.append(None if cells is None else len(cells[0]))
            yield cells

    def set_blocks(read, write=3):
        monkeypatch.setattr(dataset, "CSV_READ_BLOCK", read)
        monkeypatch.setattr(dataset, "CSV_WRITE_BLOCK", write)
        return split

    monkeypatch.setattr(dataset, "_split_blocks", counting)
    return set_blocks


def _body(lines, eol="\n", closed=True):
    return "sex,age,town" + eol + eol.join(lines) + (eol if closed else "")


class TestBlockwiseCsv:
    @pytest.mark.parametrize("block", [1, 9, 16])
    @pytest.mark.parametrize("text, provenance, by_csv_module", TOKENIZER_FILES,
                             ids=TOKENIZER_IDS)
    def test_tokenizer_files_match_row_by_row_reader(self, tmp_path, monkeypatch, csv_blocks,
                                                     block, text, provenance, by_csv_module):
        csv_blocks(block)
        schema = _tokenizer_schema()
        path = tmp_path / "pool.csv"
        path.write_bytes(text.encode())
        expected = _outcome(_reference_read_pool_csv, path, schema, provenance)
        calls = _counting_csv_reader(monkeypatch)
        actual = _outcome(lambda: read_pool_csv(path, schema, provenance=provenance).rows)
        assert actual == expected
        assert bool(calls) == by_csv_module

    @pytest.mark.parametrize("block", [1, 40])
    @pytest.mark.parametrize("defects", CSV_DEFECTS, ids=CSV_DEFECT_IDS)
    def test_defects_match_row_by_row_reader(self, tmp_path, csv_blocks, block, defects):
        csv_blocks(block)
        schema = _mixed_schema()
        pool = codes_to_pool(_random_codes(np.random.default_rng(21), schema, 12), schema,
                             rng=np.random.default_rng(22))
        path = tmp_path / "pool.csv"
        write_pool_csv(pool, path)
        lines = path.read_text().splitlines()
        for row, column, cell in defects:
            cells = lines[row + 1].split(",")
            if column is None:
                cells = cells[:3]
            else:
                cells[column] = cell
            lines[row + 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        expected = _outcome(_reference_read_pool_csv, path, schema)
        assert _outcome(lambda: read_pool_csv(path, schema).rows) == expected

    # lines of 6 characters (7 with "\r\n"), so blocks hold whole lines
    # exactly where the block size is a multiple of the line length
    @pytest.mark.parametrize("eol, closed, block, split", [
        ("\n", True, 12, [2, 2]),
        ("\n", True, 13, [3, 1]),
        ("\n", True, 4, [1, 1, 1, 1]),
        ("\n", True, 1000, [4]),
        ("\n", False, 12, [2, 2]),
        ("\n", False, 4, [1, 1, 1, 1]),
        ("\r\n", True, 14, [2, 2]),
        ("\r\n", True, 15, [3, 1]),
        ("\r\n", True, 4, [1, 1, 1, 1]),
        ("\r\n", False, 14, [2, 2]),
    ], ids=["boundary-at-last-line-end", "short-last-block", "lines-longer-than-a-block",
            "one-block", "unclosed", "unclosed-lines-longer-than-a-block",
            "crlf-boundary-at-last-line-end", "crlf-short-last-block",
            "crlf-lines-longer-than-a-block", "crlf-unclosed"])
    def test_blocks_cut_at_line_ends(self, tmp_path, csv_blocks, eol, closed, block, split):
        path = tmp_path / "pool.csv"
        path.write_bytes(_body(["f,3,a", "m,9,a", "f,4,a", "m,1,a"], eol, closed).encode())
        seen = csv_blocks(block)
        schema = _tokenizer_schema()
        assert read_pool_csv(path, schema).rows == _reference_read_pool_csv(path, schema)
        assert seen == split

    @pytest.mark.parametrize("read_block", [1, 24, dataset.CSV_READ_BLOCK])
    @pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 4], ids=lambda n: f"{n}-rows")
    @pytest.mark.parametrize("provenance", ["train", "generated"])
    def test_round_trip_around_the_write_block(self, tmp_path, csv_blocks, provenance, n_rows,
                                               read_block):
        # a write block of 3 rows: pools of 0, 1, block - 1, block, block + 1
        seen = csv_blocks(read_block, write=3)
        schema = _mixed_schema()
        pool = codes_to_pool(_random_codes(np.random.default_rng(25), schema, n_rows), schema,
                             provenance, rng=np.random.default_rng(26))
        path, expected = tmp_path / "pool.csv", tmp_path / "expected.csv"
        write_pool_csv(pool, path)
        _reference_write_pool_csv(pool, expected)
        assert path.read_bytes() == expected.read_bytes()
        back = read_pool_csv(path, schema, provenance=provenance)
        assert back.rows == pool.rows == _reference_read_pool_csv(path, schema, provenance)
        np.testing.assert_array_equal(back.numeric, pool.numeric)
        if read_block == 1:  # one block per line, and one empty block without lines
            assert seen == [1] * n_rows or (n_rows, seen) == (0, [0])

    def test_first_unknown_category_in_a_later_block(self, tmp_path, csv_blocks):
        seen = csv_blocks(20)
        lines = ["f,3,a"] * 30
        lines[24], lines[27] = "m,3,zz", "m,3,qq"
        path = tmp_path / "pool.csv"
        path.write_text(_body(lines))
        schema = _tokenizer_schema()
        expected = _outcome(_reference_read_pool_csv, path, schema)
        assert expected == "DataError: variable 'town': unknown category 'zz'"
        assert _outcome(lambda: read_pool_csv(path, schema).rows) == expected
        assert len(seen) > 5 and None not in seen

    @pytest.mark.parametrize("cell", ["inf", "nan", "-Infinity"])
    def test_non_finite_bins_cell_in_a_later_block(self, tmp_path, csv_blocks, cell):
        seen = csv_blocks(16)
        lines = ["f,10"] * 30
        lines[21], lines[26] = f"m,{cell}", "m,nan"
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("sex,age\n" + "\n".join(lines) + "\n")
        doc = {"mode": "mixed", "variables": [
            {"name": "sex", "kind": "binary", "categories": ["f", "m"]},
            {"name": "age", "kind": "numerical-cont", "bins": 4}]}
        with pytest.raises(DataError, match=re.escape(
                f"data.csv:23: column 'age' declares a bin count and holds {cell!r}")):
            ingest_csv(csv_path, doc)
        assert len(seen) > 5 and None not in seen


def _survey_pool(n_rows):
    """A pool shaped like a survey: ten categoricals of five values, three
    continuous numerics and a count, in mixed mode."""
    rng = np.random.default_rng(51)
    schema = Schema(tuple(
        VariableSpec(f"cat{j}", "categorical", categories=tuple(f"v{v}" for v in range(5)))
        for j in range(10)) + tuple(
        _num_var(f"num{k}", np.linspace(-6.0, 6.0, 9), kind="numerical-cont") for k in range(3))
        + (_num_var("count", np.linspace(0.0, 80.0, 9)),), "mixed")
    return codes_to_pool(_random_codes(rng, schema, n_rows), schema, "train", rng=rng)


class TestCsvMemory:
    """Traced allocations (tracemalloc counts every allocation, so peaks
    are the same on every run) follow the file and the pool's arrays, not
    the number of cells."""

    @staticmethod
    def _traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_read_and_write_peaks_follow_the_file_size(self, tmp_path):
        pool = _survey_pool(20_000)
        path = tmp_path / "pool.csv"
        _, write_peak = self._traced_peak(lambda: write_pool_csv(pool, path))
        size = path.stat().st_size
        back, read_peak = self._traced_peak(lambda: read_pool_csv(path, pool.schema))
        np.testing.assert_array_equal(back.numeric, pool.numeric)
        # one str per cell for the whole pool took 6.6x (write) and 14x (read)
        assert write_peak < size
        assert read_peak < 6 * size

    def test_read_peak_holds_no_second_copy_of_the_pool(self, tmp_path, monkeypatch):
        """The reader hands its arrays to the pool: against a pool that
        copies them, the peak of assembling the pool from the parsed columns
        falls by at least one code matrix. The peak is taken from the start
        of the assembly: with one-byte codes the whole read peaks earlier,
        while it splits the text."""
        pool = _survey_pool(20_000)
        path = tmp_path / "pool.csv"
        write_pool_csv(pool, path)
        assemble = dataset._assemble

        def traced_from_here(*args, **kwargs):
            tracemalloc.reset_peak()
            return assemble(*args, **kwargs)

        monkeypatch.setattr(dataset, "_assemble", traced_from_here)
        _, adopting = self._traced_peak(lambda: read_pool_csv(path, pool.schema))
        monkeypatch.setattr(AgentPool, "_adopt", classmethod(
            lambda cls, schema, codes, numeric, provenance, derived=False:
            cls(schema, codes, numeric, provenance)))
        _, copying = self._traced_peak(lambda: read_pool_csv(path, pool.schema))
        assert copying - adopting >= pool.codes.nbytes


class TestPoolArrays:
    """The public constructor copies the caller's arrays; the constructors
    in this module hand over the arrays they built, and pools made from a
    pool share or take its rows. Every pool's arrays are read-only."""

    @staticmethod
    def _arrays(rng, n_rows=40):
        schema = _mixed_schema()
        codes = _random_codes(rng, schema, n_rows)
        numeric = np.column_stack([rng.uniform(var.bin_edges[0] - 1, var.bin_edges[-1] + 1,
                                               n_rows)
                                   for var in schema.variables if var.is_numerical])
        return schema, codes, numeric

    @staticmethod
    def _assert_derived(pool):
        for k, j in enumerate(pool.schema.numerical):
            np.testing.assert_array_equal(
                pool.codes[:, j], discretize_clamped(pool.numeric[:, k], pool.schema.variables[j]))

    def test_public_constructor_copies(self, rng):
        schema, codes, numeric = self._arrays(rng)
        before = codes.copy(), numeric.copy()
        pool = AgentPool(schema, codes, numeric)
        assert codes.flags.writeable and numeric.flags.writeable
        assert not pool.codes.flags.writeable and not pool.numeric.flags.writeable
        assert not np.shares_memory(pool.codes, codes)
        assert not np.shares_memory(pool.numeric, numeric)
        np.testing.assert_array_equal(codes, before[0])
        np.testing.assert_array_equal(numeric, before[1])
        self._assert_derived(pool)

    def test_with_provenance_and_slices_share_the_arrays(self, rng):
        pool = AgentPool(*self._arrays(rng))
        other = pool.with_provenance("test")
        assert other.provenance == "test" and pool.provenance == "train"
        assert other.codes is pool.codes and other.numeric is pool.numeric
        part = pool.take(slice(5, 17), "generated")
        assert np.shares_memory(part.codes, pool.codes)
        assert np.shares_memory(part.numeric, pool.numeric)
        assert not part.codes.flags.writeable and not part.numeric.flags.writeable
        np.testing.assert_array_equal(part.codes, pool.codes[5:17])
        self._assert_derived(part)

    def test_take_keeps_the_one_copy_indexing_makes(self, rng):
        pool = AgentPool(*self._arrays(rng, 20_000))
        index = rng.permutation(len(pool))
        tracemalloc.start()
        try:
            part = pool.take(index, "generated")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.shares_memory(part.codes, pool.codes)
        assert not part.codes.flags.writeable and not part.numeric.flags.writeable
        np.testing.assert_array_equal(part.numeric, pool.numeric[index])
        self._assert_derived(part)
        # a pool that copied the indexed rows again would peak at twice this
        assert peak < 1.5 * (pool.codes.nbytes + pool.numeric.nbytes)

    def test_built_arrays_are_handed_over(self, rng, tmp_path):
        schema, codes, numeric = self._arrays(rng)
        before = codes.copy()
        generated = codes_to_pool(codes, schema, rng=rng)
        # the caller's codes are copied once, never written to
        assert codes.flags.writeable and not np.shares_memory(generated.codes, codes)
        np.testing.assert_array_equal(codes, before)
        decoded = decode_rows(encode_pool(generated), rng=rng)
        path = tmp_path / "pool.csv"
        write_pool_csv(generated, path)
        back = read_pool_csv(path, schema, provenance="generated")
        for pool in (generated, decoded, back):
            assert not pool.codes.flags.writeable and not pool.numeric.flags.writeable
            self._assert_derived(pool)
        np.testing.assert_array_equal(back.codes, generated.codes)
        np.testing.assert_array_equal(back.numeric, generated.numeric)


# (width of the widest variable, the dtype every pool of the schema holds)
WIDEST = [(256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)]


def _wide_schema(width, mode="discretize-all"):
    """A binary, a continuous, a ``width``-category and a 4-category variable."""
    return Schema((
        VariableSpec("sex", "binary", categories=("f", "m")),
        _num_var("income", (-3.0, -0.5, 1.25, 8.0), kind="numerical-cont"),
        VariableSpec("big", "categorical", categories=tuple(f"b{v}" for v in range(width))),
        VariableSpec("region", "categorical", categories=("n", "e", "s", "w")),
    ), mode)


def _extreme_codes(rng, schema, n_rows):
    """Random int64 codes in which every variable takes its first and last value."""
    codes = _random_codes(rng, schema, n_rows)
    codes[0], codes[1] = 0, np.asarray(schema.value_counts) - 1
    return codes


def _int64_pool(pool):
    """``pool`` with its codes stored as int64, as every pool stored them
    before codes were narrowed: the reference the narrow paths must match."""
    return AgentPool._adopt(pool.schema, pool.codes.astype(np.int64), pool.numeric,
                            pool.provenance, derived=True)


class TestCodeDtype:
    """Every pool holds its codes in the narrowest unsigned dtype for its
    schema's widest variable, whichever constructor built it."""

    @pytest.mark.parametrize("width, dtype", WIDEST)
    def test_pool_constructors(self, rng, tmp_path, width, dtype):
        schema = _wide_schema(width)
        assert dataset.code_dtype(schema.value_counts) == dtype
        codes = _extreme_codes(rng, schema, 12)
        generated = codes_to_pool(codes, schema, rng=rng)
        path = tmp_path / "pool.csv"
        write_pool_csv(generated, path)
        pools = {
            "codes_to_pool": generated,
            "constructor": AgentPool(schema, codes, generated.numeric),
            "from_rows": AgentPool.from_rows(schema, generated.rows),
            "read_pool_csv": read_pool_csv(path, schema, provenance="generated"),
            "ingest_csv": ingest_csv(path, schema_to_json(schema)),
            "decode_rows": decode_rows(encode_pool(generated), rng=rng),
            "with_provenance": generated.with_provenance("test"),
        }
        for name, pool in pools.items():
            assert pool.codes.dtype == dtype, name
            np.testing.assert_array_equal(pool.codes, codes, err_msg=name)
        part = generated.take([1, 0, 1], "test")
        assert part.codes.dtype == dtype
        np.testing.assert_array_equal(part.codes, codes[[1, 0, 1]])

    @pytest.mark.parametrize("width, dtype", WIDEST)
    def test_generators_and_samplers(self, rng, width, dtype):
        from agentsynth import baselines, gibbs, vae
        from agentsynth.synthdata import SyntheticGeneratorSpec, synth_generate

        schema = _wide_schema(width)
        train = codes_to_pool(_extreme_codes(rng, schema, 30), schema, "train", rng=rng)
        pools = {
            "latent-class": synth_generate(SyntheticGeneratorSpec(
                "latent-class", 30, n_variables=3, category_width=(2, width, 3))),
            "latent-class numerics": synth_generate(SyntheticGeneratorSpec(
                "latent-class", 30, n_variables=2, numeric_variables=1, numeric_bins=width)),
            "bn-ground-truth": synth_generate(SyntheticGeneratorSpec(
                "bn-ground-truth", 30, n_variables=2, category_width=(2, width))),
            "marginal-sampler": baselines.marginal_sample(baselines.fit_marginals(train), 20, 1),
            "resample-training": baselines.resample_training(train, 20, 1),
            "gibbs": gibbs.run_chain(train, gibbs.ChainConfig(20, warmup=3, thinning=1))[0],
            "vae": vae.sample(vae.build_vae(schema, (3,), 2, 1.0, rng), 5, 2),
        }
        for name, pool in pools.items():
            assert pool.codes.dtype == dtype, name
            assert (pool.codes.max(axis=0) < np.asarray(pool.schema.value_counts)).all(), name
        toy = synth_generate(SyntheticGeneratorSpec("toy-appendix-a", 10))
        assert toy.codes.dtype == np.uint8


class TestCodesOutsideTheirWidth:
    """A code outside ``[0, width)`` is a DataError naming the variable, before
    narrowing could wrap it; unchecked, -1 read back as the last value."""

    @pytest.mark.parametrize("bad", [-1, 3, 5])
    def test_categorical_code(self, bad):
        schema = categorical_schema([2, 3])
        codes = np.array([[0, 0], [1, bad]])
        message = r"variable 'x01': codes outside \[0, 3\)"
        with pytest.raises(DataError, match=message):
            codes_to_pool(codes, schema)
        with pytest.raises(DataError, match=message):
            AgentPool(schema, codes, np.empty((2, 0)))

    def test_float_codes(self):
        # a cast to the code dtype would truncate 1.9 to 1
        schema = categorical_schema([2, 3])
        codes = np.array([[0.0, 1.9], [1.0, 0.2]])
        for make in (lambda: codes_to_pool(codes, schema),
                     lambda: AgentPool(schema, codes, np.empty((2, 0)))):
            with pytest.raises(DataError, match="codes must be integers, got dtype float64"):
                make()

    def test_first_column(self):
        with pytest.raises(DataError, match=r"variable 'x00': codes outside \[0, 3\)"):
            codes_to_pool([[-1, 0], [2, 1]], categorical_schema([3, 2]))

    def test_numerical_bin(self, rng):
        schema = _mixed_schema()
        codes = _random_codes(rng, schema, 5)
        codes[3, 1] = -1
        with pytest.raises(DataError, match=r"variable 'age': codes outside \[0, 5\)"):
            codes_to_pool(codes, schema, rng=rng)

    def test_a_code_of_256_does_not_wrap_to_0(self):
        schema = categorical_schema([2, 256])
        with pytest.raises(DataError, match=r"variable 'x01': codes outside \[0, 256\)"):
            codes_to_pool([[0, 256]], schema)
        pool = codes_to_pool([[1, 255]], schema)
        assert pool.codes.dtype == np.uint8
        assert pool.rows == (("c1", "c255"),)

    def test_shape_that_does_not_fit_the_schema(self):
        with pytest.raises(SchemaError, match="does not fit the schema"):
            AgentPool(categorical_schema([2, 3]), np.zeros((4, 3), dtype=int), np.empty((4, 0)))

    @pytest.mark.parametrize("shape", [(5, 4), (5, 1), (10,), (0,)])
    def test_codes_of_another_width_are_schema_error(self, shape):
        # reshaped to the schema's width, 5 rows of 4 codes would be 10 rows of 2
        with pytest.raises(SchemaError, match=re.escape(f"of shape {shape} does not fit")):
            codes_to_pool(np.zeros(shape, dtype=int), categorical_schema([2, 3]))


class TestNarrowCodesMatchTheInt64Path:
    """Each consumer of pool codes gives, on the narrow codes, what it gives
    on the same codes as int64: arithmetic on codes widens them first."""

    @pytest.mark.parametrize("top", [255, 256])
    def test_distinct_rows(self, rng, monkeypatch, top):
        codes = rng.integers(0, top + 1, size=(500, 3))
        codes[7, 1] = top
        narrow = codes.astype(dataset.code_dtype([top + 1]))

        lexsort = np.lexsort

        def one_key_lexsort(keys):
            assert len(keys) == 1 and keys[0].dtype == np.int64, "not one mixed-radix key"
            return lexsort(keys)

        # both go through the mixed-radix key
        monkeypatch.setattr(dataset.np, "lexsort", one_key_lexsort)
        rows, inverse = dataset.distinct_rows(narrow)
        wide_rows, wide_inverse = dataset.distinct_rows(codes)
        assert rows.dtype == narrow.dtype
        np.testing.assert_array_equal(rows, wide_rows)
        np.testing.assert_array_equal(inverse, wide_inverse)

    @pytest.mark.parametrize("width", [256, 257])
    @pytest.mark.parametrize("mode", ["discretize-all", "mixed"])
    def test_encoding_counts_kernel_and_csv(self, rng, tmp_path, width, mode):
        from agentsynth.metrics import nearest_sample_stats

        schema = _wide_schema(width, mode)
        pool = codes_to_pool(_extreme_codes(rng, schema, 300), schema, "train", rng=rng)
        other = codes_to_pool(_extreme_codes(rng, schema, 200), schema, rng=rng)
        wide, wide_other = _int64_pool(pool), _int64_pool(other)
        np.testing.assert_array_equal(encode_pool(pool).values, encode_pool(wide).values)
        subsets = list(itertools.combinations(range(schema.n_variables), 3))
        for got, want in zip(dataset.view_counts(pool.codes, schema.value_counts, subsets),
                             dataset.view_counts(wide.codes, schema.value_counts, subsets)):
            np.testing.assert_array_equal(got, want)
        assert nearest_sample_stats(other, pool) == nearest_sample_stats(wide_other, wide)
        write_pool_csv(other, tmp_path / "narrow.csv")
        write_pool_csv(wide_other, tmp_path / "wide.csv")
        assert (tmp_path / "narrow.csv").read_bytes() == (tmp_path / "wide.csv").read_bytes()
