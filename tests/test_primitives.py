"""The discrete-table primitives in ``dataset`` and the samplers' RNG arguments."""

import math

import numpy as np
import pytest

from agentsynth import vae
from agentsynth.baselines import fit_marginals, marginal_sample, resample_training
from agentsynth.bayesnet import (Dag, ancestral_sample, chow_liu, fit_cpts, mdl_score,
                                 mutual_information)
from agentsynth.dataset import (Schema, VariableSpec, codes_to_pool, distinct_rows,
                                draw_categories, row_groups, view_counts)
from agentsynth.errors import DataError
from agentsynth.metrics import cramers_v_from_codes, frequency_distribution_from_codes

from conftest import categorical_schema


def _repeated_rows(rng, n_rows, n_cols, low, high):
    """Rows drawn with repetition from 40 random rows of codes in [low, high)."""
    base = rng.integers(low, high, size=(40, n_cols))
    return base[rng.integers(0, 40, size=n_rows)]


# every entry point that counts code tables, called on a two-variable code matrix
_COUNTERS = {
    "view_counts": lambda codes, widths: view_counts(codes, widths, [(0, 1)]),
    "fit_cpts": lambda codes, widths: fit_cpts(Dag(2, ((), (0,))), codes, widths),
    "mutual_information": lambda codes, widths: mutual_information(codes, widths, 0, 1),
    "chow_liu": chow_liu,
    "mdl_score": lambda codes, widths: mdl_score(Dag(2, ((), (0,))), codes, widths),
    "frequency_distribution_from_codes":
        lambda codes, widths: frequency_distribution_from_codes(codes, widths, (0, 1)),
    "cramers_v_from_codes": lambda codes, widths: cramers_v_from_codes(codes, widths, 0, 1),
}


class TestCodeRange:
    @pytest.mark.parametrize("bad", [-1, 2])
    @pytest.mark.parametrize("counter", list(_COUNTERS))
    def test_code_outside_the_width_is_data_error(self, counter, bad):
        # numpy indexing would count -1 as the last value, and a flat
        # table id would count the width as the next cell's value
        codes = np.array([[0, bad], [1, 0]])
        with pytest.raises(DataError, match=r"variable 1: codes outside \[0, 2\)"):
            _COUNTERS[counter](codes, (2, 2))

    @pytest.mark.parametrize("counter", list(_COUNTERS))
    def test_float_codes_are_data_error(self, counter):
        # a cast would truncate 0.7 to 0 and count the rows in the wrong cells
        codes = np.array([[0.7, 1.2], [1.9, 0.1], [0.2, 1.5]])
        with pytest.raises(DataError, match="codes must be integers, got dtype float64"):
            _COUNTERS[counter](codes, (2, 2))

    def test_value_counts_must_match_the_columns(self):
        with pytest.raises(DataError, match="3 code columns but 2 value counts"):
            view_counts(np.zeros((4, 3), dtype=int), (2, 2), [(0, 1)])


class TestDistinctRows:
    @pytest.mark.parametrize("n_rows,n_cols,low,high,path", [
        (300, 5, 0, 4, "key"),
        (300, 62, 0, 2, "key"),  # a radix product of 2^62 still fits in int64
        (300, 63, 0, 2, "lexsort"),  # 2^63 does not
        (300, 70, 0, 2, "lexsort"),
        (1, 4, 0, 3, "key"),
        (1, 70, 1, 2, "lexsort"),
        (6, 0, 0, 2, "lexsort"),
        (0, 3, 0, 2, "lexsort"),
    ])
    def test_matches_numpy_unique(self, rng, n_rows, n_cols, low, high, path):
        codes = _repeated_rows(rng, n_rows, n_cols, low, high)
        radix = codes.max(axis=0) + 1 if codes.size else []
        fits = len(radix) > 0 and math.prod(np.asarray(radix).tolist()) < 2 ** 63
        assert fits == (path == "key")
        rows, inverse = distinct_rows(codes)
        expected, expected_inverse = np.unique(codes, axis=0, return_inverse=True)
        np.testing.assert_array_equal(rows, expected)
        np.testing.assert_array_equal(inverse, expected_inverse.reshape(-1))
        np.testing.assert_array_equal(rows[inverse], codes)

    def test_float_rows_match_numpy_unique(self, rng):
        # the nearest-sample kernel's (tuple, numerics) rows, negative values included
        matrix = _repeated_rows(rng, 200, 3, -2, 2) * 0.75
        rows, inverse = distinct_rows(matrix)
        expected, expected_inverse = np.unique(matrix, axis=0, return_inverse=True)
        np.testing.assert_array_equal(rows, expected)
        np.testing.assert_array_equal(inverse, expected_inverse.reshape(-1))


def _groups_oracle(matrix):
    """row_groups by Python sets: each group's first row index and every
    row's group, the groups in lexicographic order of their rows."""
    rows = list(map(tuple, matrix.tolist()))
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(row, i)
    rank = {row: g for g, row in enumerate(sorted(first))}
    return [first[row] for row in sorted(first)], [rank[row] for row in rows]


def _float_bits(rng):
    """float64 rows as int64 bits: repeats, negative values, rows that
    differ only in the sign of a zero, and rows one ulp apart."""
    values = _repeated_rows(rng, 200, 3, -3, 3) * 0.5
    values[:4] = [[0.0, 1.0, -2.5], [-0.0, 1.0, -2.5], [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]]
    values[4] = values[5] = values[6]
    values[5, 2] = np.nextafter(values[5, 2], np.inf)
    values[6, 0] = np.nextafter(values[6, 0], -np.inf)
    return values.view(np.int64)


class TestRowGroups:
    @pytest.mark.parametrize("make", [
        # as radix-(2, 2) digits both rows would be 0 * 2 + 1 = 1 * 2 - 1
        lambda rng: np.array([[0, 1], [1, -1]]),
        lambda rng: _repeated_rows(rng, 300, 5, -4, 4).astype(np.int8),
        lambda rng: _repeated_rows(rng, 300, 3, -2 ** 62, 2 ** 62).astype(np.int64),
        lambda rng: np.vstack([_repeated_rows(rng, 50, 2, -3, 3),
                               [[-2 ** 63, 2 ** 63 - 1], [2 ** 63 - 1, -2 ** 63]]]),
        lambda rng: _repeated_rows(rng, 300, 6, 0, 256).astype(np.uint8),
        _float_bits,
    ], ids=["negative-digit", "int8", "int64", "int64-extremes", "uint8", "float64-bits"])
    def test_matches_a_set_oracle(self, rng, make):
        matrix = make(rng)
        first, inverse = row_groups(matrix)
        expected_first, expected_inverse = _groups_oracle(matrix)
        assert first.tolist() == expected_first
        assert inverse.tolist() == expected_inverse


class TestDrawCategories:
    def test_counts_cumulative_sums_below_the_scaled_uniform(self):
        probs = np.array([0.2, 0.0, 0.5, 0.3])
        u = np.array([0.0, 0.1999, 0.2, 0.2001, 0.69, 0.71, 0.9999])
        np.testing.assert_array_equal(draw_categories(probs, u), [0, 0, 0, 2, 2, 3, 3])

    def test_unnormalized_rows_scale_by_their_total(self):
        probs = np.array([[1.0, 3.0], [5.0, 5.0]])
        np.testing.assert_array_equal(draw_categories(probs, np.array([0.3, 0.3])), [1, 0])

    def test_top_uniform_lands_on_the_last_category(self):
        # ten 0.1s sum to 0.9999999999999999, and u * total stays below it
        probs = np.full(10, 0.1)
        assert draw_categories(probs, np.array([np.nextafter(1.0, 0.0)]))[0] == 9

    def test_index_is_capped_at_the_last_category(self):
        # a uniform past 1 exceeds every cumulative sum
        assert draw_categories(np.array([0.5, 0.5]), np.array([1.5])).tolist() == [1]

    def test_batched_heads_broadcast(self, rng):
        probs = rng.dirichlet(np.ones(3), size=(5, 4))
        u = rng.random((5, 4))
        out = draw_categories(probs, u)
        assert out.shape == (5, 4)
        for r in range(5):
            for h in range(4):
                assert out[r, h] == draw_categories(probs[r, h], u[r, h:h + 1])[0]


def _samplers():
    """Each sampler that takes ``rng_or_seed``, as a function of that argument
    returning comparable output."""
    rng = np.random.default_rng(3)
    age = VariableSpec("age", "numerical-cont", bin_edges=(0.0, 1.0, 2.0, 3.0))
    schema = Schema(categorical_schema([3, 2, 4]).variables + (age,), "discretize-all")
    codes = np.column_stack([rng.integers(0, w, size=60) for w in schema.value_counts])
    pool = codes_to_pool(codes, schema, "train", rng)
    dag = chow_liu(pool.codes, schema.value_counts)
    cpts = fit_cpts(dag, pool.codes, schema.value_counts)
    model = vae.build_vae(schema, (4,), 2, 1.0, rng)
    marginals = fit_marginals(pool)
    return {
        "ancestral_sample": lambda r: ancestral_sample(dag, cpts, 40, r).tolist(),
        "marginal_sample": lambda r: marginal_sample(marginals, 40, r).rows,
        "resample_training": lambda r: resample_training(pool, 40, r).rows,
        "vae.sample": lambda r: vae.sample(model, 40, r, harden="sample").rows,
    }


@pytest.mark.parametrize("sampler", ["ancestral_sample", "marginal_sample",
                                     "resample_training", "vae.sample"])
def test_generator_and_its_seed_draw_the_same(sampler):
    draw = _samplers()[sampler]
    gen = np.random.default_rng(11)
    assert draw(gen) == draw(11)
    # the passed generator itself advanced
    assert gen.bit_generator.state != np.random.default_rng(11).bit_generator.state
