"""Encoding, discretization, and splitting."""

import csv
import math

import numpy as np
import pytest

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
from agentsynth.errors import DataError, SchemaError

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
        pool = AgentPool(schema, (("2",),), "train")
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
        pool = AgentPool.__new__(AgentPool)
        object.__setattr__(pool, "schema", schema)
        object.__setattr__(pool, "rows", (("weird",),))
        object.__setattr__(pool, "provenance", "train")
        with pytest.raises(DataError, match="unknown category"):
            encode_pool(pool)


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
        return AgentPool(schema, rows, "train")

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
        pool = AgentPool(schema, ((1.0, "a"), (1.0, "b")), "train")
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
    return AgentPool(schema, tuple(rows), "generated")


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
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            extra = ["provenance"] if provenance == "generated" else []
            writer.writerow(list(schema.names) + extra)
            for row in pool.rows:
                writer.writerow([str(int(v)) if var.kind == "numerical-int"
                                 else repr(float(v)) if var.kind == "numerical-cont"
                                 else str(v) for var, v in zip(schema.variables, row)]
                                + ([provenance] if extra else []))
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
            pool = AgentPool(schema, pool.rows + (("m", 12.0, "w", 8.0, 5),
                                                  ("f", 0.0, "n", -3.0, 0)), "train")
        np.testing.assert_array_equal(pool_to_codes(pool), _reference_pool_to_codes(pool))
        np.testing.assert_array_equal(pool_to_codes(pool, clamp=True),
                                      _reference_pool_to_codes(pool, clamp=True))
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
        pool = AgentPool(schema, tuple(map(tuple, rows)), "generated")
        expected = _error_of(_reference_pool_to_codes, pool)
        assert _error_of(pool_to_codes, pool) == expected
        assert _error_of(encode_pool, pool) == expected
        mixed = AgentPool(_mixed_mode(schema), pool.rows, "generated")
        categorical = [j for j, var in enumerate(schema.variables) if not var.is_numerical]
        if any(j in categorical for _, j, _ in bad):
            assert _error_of(encode_pool, mixed) == _error_of(_reference_encode_pool, mixed)
        else:
            # mixed mode keeps numerics continuous: nothing is out of range
            encode_pool(mixed)

    def test_nan_is_out_of_range(self):
        schema = _mixed_schema()
        pool = AgentPool(schema, (("m", float("nan"), "w", 8.0, 5),), "generated")
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
