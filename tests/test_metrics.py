"""Frequency views, SRMSE, Cramer's V, diversity, PCA, evaluation reports."""

import csv
import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from agentsynth import dataset, metrics
from agentsynth.dataset import (
    AgentPool,
    Schema,
    VariableSpec,
    encode_pool,
)
from agentsynth.errors import ConfigError, DataError
from agentsynth.metrics import (
    DiversityStats,
    EvalReport,
    FrequencyDistribution,
    _pool_vectors,
    _srmse_vec,
    codes_for_pool,
    corr_r2,
    cramers_v,
    cramers_v_from_codes,
    evaluate,
    frequency_distribution,
    frequency_distribution_from_codes,
    nearest_sample_stats,
    pca_fit,
    pca_project,
    report_from_dict,
    report_to_dict,
    report_to_json,
    srmse,
    view_counts,
    view_subsets,
    write_pca_csv,
    write_report_csv,
    write_scatter_csv,
)

from conftest import categorical_schema, pool_from_codes, random_categorical_pool, toy_pool
from oracles import pca_csv_from_npy, scatter_csv_from_npy


class TestFrequencyDistribution:
    def test_toy_joint(self):
        pool = toy_pool(5)
        fd = frequency_distribution(pool, (0, 1))
        assert fd.n_bins == 4
        grid = fd.freqs.reshape(2, 2)
        assert grid[0, 0] == 0.5
        assert grid[1, 1] == 0.5
        assert grid[0, 1] == 0.0
        assert grid[1, 0] == 0.0

    def test_single_binary_balanced(self):
        fd = frequency_distribution(toy_pool(10), (0,))
        np.testing.assert_array_equal(fd.freqs, [0.5, 0.5])

    def test_matches_counting_oracle(self, rng):
        # Oracle: count combinations with explicit python loops
        pool = random_categorical_pool(rng, [3, 2, 4], 120)
        subset = (0, 2)
        fd = frequency_distribution(pool, subset)
        counts = {}
        for row in pool.rows:
            key = (row[0], row[2])
            counts[key] = counts.get(key, 0) + 1
        for a, ca in enumerate(pool.schema.variables[0].categories):
            for b, cb in enumerate(pool.schema.variables[2].categories):
                expected = counts.get((ca, cb), 0) / 120
                assert abs(fd.freqs.reshape(3, 4)[a, b] - expected) < 1e-12

    def test_empty_pool_and_empty_subset_rejected(self, rng):
        pool = random_categorical_pool(rng, [2], 0)
        with pytest.raises(DataError):
            frequency_distribution(pool, (0,))
        with pytest.raises(DataError):
            frequency_distribution(random_categorical_pool(rng, [2], 5), ())


def _per_subset_freqs(codes, value_counts, subsets):
    return np.concatenate([frequency_distribution_from_codes(codes, value_counts, sub).freqs
                           for sub in subsets])


class TestViewCounts:
    WIDTHS = (2, 3, 4, 3, 2)

    def _codes(self, rng, n_rows):
        return np.column_stack([rng.integers(0, w, size=n_rows) for w in self.WIDTHS])

    @pytest.mark.parametrize("n_rows", [1, 7, 300])
    @pytest.mark.parametrize("chunk", [1, 50, dataset.VIEW_CHUNK])
    def test_equals_per_subset_frequencies(self, rng, monkeypatch, n_rows, chunk):
        # a chunk of 1 puts one subset in each chunk, 50 splits a view into
        # several chunks with a remainder
        monkeypatch.setattr(dataset, "VIEW_CHUNK", chunk)
        codes = self._codes(rng, n_rows)
        for subsets in view_subsets(len(self.WIDTHS), (4, 1, 2, 0)).values():
            counts, offsets = view_counts(codes, self.WIDTHS, subsets)
            assert counts.dtype == np.min_scalar_type(n_rows)
            assert counts.sum() == n_rows * len(subsets)
            np.testing.assert_array_equal(
                counts / n_rows, _per_subset_freqs(codes, self.WIDTHS, subsets))
            sizes = [int(np.prod([self.WIDTHS[i] for i in sub])) for sub in subsets]
            np.testing.assert_array_equal(offsets, np.concatenate(([0], np.cumsum(sizes))))

    def test_unobserved_bins_count_zero(self, rng, monkeypatch):
        monkeypatch.setattr(dataset, "VIEW_CHUNK", 80)
        codes = self._codes(rng, 40)
        codes[:, 2] = np.minimum(codes[:, 2], 1)  # values 2 and 3 never occur
        subsets = list(itertools.combinations(range(5), 3))
        counts, _ = view_counts(codes, self.WIDTHS, subsets)
        np.testing.assert_array_equal(counts / 40, _per_subset_freqs(codes, self.WIDTHS, subsets))
        assert (counts == 0).any()

    def test_empty_pool_rejected(self):
        with pytest.raises(DataError, match="empty pool"):
            view_counts(np.zeros((0, 2), dtype=int), (2, 2), [(0, 1)])


class TestPoolVectors:
    def test_views_and_pairwise_match_single_subset_oracles(self, rng):
        widths = (2, 3, 4, 3)
        codes = np.column_stack([rng.integers(0, w, size=200) for w in widths])
        codes[:, 1] = 2  # a constant column: Cramer's V is undefined on its pairs
        subsets = view_subsets(len(widths), (3, 0, 2))
        vectors, pairwise = _pool_vectors(codes, widths, subsets)
        assert list(vectors) == list(subsets)
        for view, subs in subsets.items():
            assert vectors[view].dtype == np.uint8  # every view, the projected one too
            np.testing.assert_array_equal(vectors[view] / len(codes),
                                          _per_subset_freqs(codes, widths, subs))
        counted = frequency_distribution_from_codes(codes, widths, (3, 0, 2)).counts
        assert (vectors["projected"] == counted).all() and len(counted) == 4 * 2 * 3
        expected = [cramers_v_from_codes(codes, widths, i, j)
                    for i, j in itertools.combinations(range(len(widths)), 2)]
        assert [None if np.isnan(v) else v for v in pairwise.tolist()] == expected
        assert expected.count(None) == 3

    def test_no_pairwise_for_one_variable(self, rng):
        codes = rng.integers(0, 3, size=(20, 1))
        vectors, pairwise = _pool_vectors(codes, (3,), view_subsets(1, (0,)))
        assert pairwise is None and list(vectors) == ["marginal", "projected"]


def _views_by_view_counts(codes, widths):
    """The marginal, bivariate and trivariate views of ``codes`` counted by
    dataset.view_counts, in the narrow dtype the report keeps."""
    out = np.min_scalar_type(len(codes))
    return {view: view_counts(codes, widths, list(itertools.combinations(range(len(widths)), k))
                              )[0].astype(out)
            for view, k in (("marginal", 1), ("bivariate", 2), ("trivariate", 3))
            if k <= len(widths)}


def _product_views_of(codes, widths):
    rows, inverse = dataset.distinct_rows(codes)
    return metrics._product_views(rows, np.bincount(inverse), widths)


def _assert_same_views(got, want):
    assert list(got) == list(want)
    for view in want:
        assert got[view].dtype == want[view].dtype, view
        assert np.array_equal(got[view], want[view]), view


class TestProductViews:
    """The one-hot products count every view exactly as view_counts does."""

    @pytest.mark.parametrize("n_vars", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("block", [7, 64, metrics.ONEHOT_BLOCK])
    def test_equal_view_counts_on_random_pools(self, rng, monkeypatch, n_vars, block):
        # small blocks split every (variable, value) segment of rows
        monkeypatch.setattr(metrics, "ONEHOT_BLOCK", block)
        for _ in range(3):
            widths = tuple(rng.integers(2, 6, size=n_vars).tolist())
            n = int(rng.integers(1, 120))
            codes = np.column_stack([rng.integers(0, w, size=n) for w in widths])
            # repeat some rows, so that rows of weight 1 and above 1 mix
            codes = np.concatenate([codes, codes[rng.integers(0, n, size=n // 2)]])
            codes = codes.astype(np.uint8)
            _assert_same_views(_product_views_of(codes, widths),
                               _views_by_view_counts(codes, widths))

    def test_one_row_and_all_duplicate_pools(self):
        widths = (2, 5, 3, 4)
        row = np.array([[1, 4, 0, 3]], dtype=np.uint8)
        for codes in (row, np.repeat(row, 300, axis=0)):
            _assert_same_views(_product_views_of(codes, widths),
                               _views_by_view_counts(codes, widths))

    @pytest.mark.parametrize("mode", ["discretize-all", "mixed"])
    def test_binned_numerics(self, rng, monkeypatch, mode):
        """Numerical variables are counted by their clamped bins in either
        schema mode, and _pool_vectors gives the same vectors by both
        kernels."""
        schema = dataclasses.replace(_mixed_schema((3, 2, 4), 2), mode=mode)
        pool = _mixed_pool(rng, schema, 300)
        widths, subsets = schema.value_counts, view_subsets(5, (0, 3, 4))
        _assert_same_views(_product_views_of(pool.codes, widths),
                           _views_by_view_counts(pool.codes, widths))
        kept = {}
        for products in (True, False):
            monkeypatch.setattr(metrics, "_products_pay", lambda *args, use=products: use)
            kept[products] = _pool_vectors(pool.codes, widths, subsets)
        _assert_same_views(kept[True][0], kept[False][0])
        assert np.array_equal(kept[True][1], kept[False][1], equal_nan=True)

    @pytest.mark.parametrize("total", [2 ** 24, 2 ** 24 + 2])
    def test_weight_total_from_two_to_the_24_runs_in_float64(self, total):
        """A bin of 2^24 + 1 rows has no float32; the products switch to
        float64 at a total weight of 2^24."""
        widths = (2, 3, 2)
        rows = np.array([[0, 1, 1], [1, 1, 1], [1, 2, 0]], dtype=np.uint8)
        weights = np.array([2 ** 24 - 1, total - 2 ** 24, 1])
        rows, weights = rows[weights > 0], weights[weights > 0]
        got = metrics._product_views(rows, weights, widths)
        # the counts of the expanded pool: each row's one-row counts, times its weight
        want = {view: sum(w * vec.astype(np.int64) for w, vec in zip(
                    weights, (_views_by_view_counts(row[None], widths)[view] for row in rows)))
                for view in ("marginal", "bivariate", "trivariate")}
        for view in want:
            assert got[view].dtype == np.min_scalar_type(total) == np.uint32
            assert np.array_equal(got[view], want[view]), view
        # bin (1, 1) of pair (1, 2) holds the first two rows: 2^24 + 1 of them
        assert got["bivariate"].max() == total - 1

    def test_kernel_choice_follows_the_cost_estimate(self):
        # 20 variables of width 4 (lc20): C_a**2 sums to 39,520 against 1,330
        # subsets; 14 variables of widths 5 and 8 (mixed-staged), padded to
        # 8, to 52,416 against 455
        assert metrics._products_pay(10_000, 10_000, (4,) * 20)
        assert metrics._products_pay(10_000, 136, (4,) * 20)
        assert not metrics._products_pay(45_000, 25_377, (5,) * 10 + (8,) * 4)


class TestCramersVPairs:
    def test_equals_the_table_function(self, rng):
        """Tables of every shape, with empty rows and columns and constant
        variables: each pair's V is _cramers_v_table's, bit for bit, NaN
        where it is None."""
        for trial in range(12):
            widths = tuple(rng.integers(2, 6, size=5).tolist())
            n = int(rng.integers(2, 400))
            codes = np.column_stack([rng.integers(0, w, size=n) for w in widths])
            codes[:, 1] = np.minimum(codes[:, 1], 1)  # values 2 and up never occur
            codes[:, trial % 5] = 0 if trial % 3 == 0 else codes[:, trial % 5]  # a constant
            pairs = list(itertools.combinations(range(5), 2))
            counts, offsets = view_counts(codes, widths, pairs)
            got = metrics._cramers_v_pairs(counts.astype(np.min_scalar_type(n)), widths, n)
            want = [metrics._cramers_v_table(
                        counts[offsets[s]:offsets[s + 1]].reshape(widths[i], widths[j])
                        .astype(float), n) for s, (i, j) in enumerate(pairs)]
            assert [None if np.isnan(v) else v for v in got.tolist()] == want
            assert None in want or trial % 3


def test_pool_vectors_peak_stays_below_the_int64_trivariate_view():
    """A 10,000-row pool of 60 variables of width 4: its trivariate view
    has 2.19M bins, 17.5 MB as int64 counts, which _pool_vectors never
    holds (the traced peak is the same on every run)."""
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 4, size=(10_000, 60)).astype(np.uint8)
    subsets = view_subsets(60, (0, 1, 2, 3))
    bins = 64 * len(subsets["trivariate"])
    tracemalloc.start()
    try:
        vectors, _ = _pool_vectors(codes, (4,) * 60, subsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vectors["trivariate"].dtype == np.uint16 and len(vectors["trivariate"]) == bins
    assert peak < 8 * bins, f"peak {peak / 2 ** 20:.1f} MB"


def test_view_counts_kernel_peak_stays_below_the_int64_trivariate_view():
    """A 10,000-row pool of 12 variables of width 16, nearly every row
    distinct, goes to view_counts: its trivariate view has 901k bins, 7.2 MB
    as int64 counts, which view_counts counts straight into uint16."""
    rng = np.random.default_rng(6)
    codes = rng.integers(0, 16, size=(10_000, 12)).astype(np.uint8)
    subsets = view_subsets(12, (0, 1, 2, 3))
    bins = 16 ** 3 * len(subsets["trivariate"])
    assert not metrics._products_pay(10_000, len(dataset.distinct_rows(codes)[0]), (16,) * 12)
    tracemalloc.start()
    try:
        vectors, _ = _pool_vectors(codes, (16,) * 12, subsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vectors["trivariate"].dtype == np.uint16 and len(vectors["trivariate"]) == bins
    assert peak < 8 * bins, f"peak {peak / 2 ** 20:.1f} MB"


class TestSrmse:
    def test_identical_is_zero(self):
        p = FrequencyDistribution((0,), (4,), np.array([0.25, 0.25, 0.25, 0.25]))
        assert srmse(p, p) == 0.0

    def test_two_bin_hand_case(self):
        p = FrequencyDistribution((0,), (2,), np.array([0.5, 0.5]))
        q = FrequencyDistribution((0,), (2,), np.array([0.75, 0.25]))
        assert abs(srmse(q, p) - 0.5) < 1e-15

    def test_four_bin_hand_case(self):
        p = FrequencyDistribution((0,), (4,), np.array([0.5, 0.5, 0.0, 0.0]))
        q = FrequencyDistribution((0,), (4,), np.array([0.25, 0.25, 0.25, 0.25]))
        assert abs(srmse(q, p) - 1.0) < 1e-15

    def test_symmetric_on_normalized_inputs(self, rng):
        for _ in range(20):
            a = rng.random(6)
            b = rng.random(6)
            p = FrequencyDistribution((0,), (6,), a / a.sum())
            q = FrequencyDistribution((0,), (6,), b / b.sum())
            assert abs(srmse(p, q) - srmse(q, p)) < 1e-12

    def test_matches_brute_force_oracle(self, rng):
        # Oracle: scalar-loop RMSE divided by scalar-loop mean
        for _ in range(100):
            k = int(rng.integers(2, 12))
            a = rng.random(k)
            b = rng.random(k)
            a /= a.sum()
            b /= b.sum()
            sq = 0.0
            for x, y in zip(a, b):
                sq += (x - y) ** 2
            rmse = (sq / k) ** 0.5
            mean = sum(b) / k
            p = FrequencyDistribution((0,), (k,), a)
            q = FrequencyDistribution((0,), (k,), b)
            assert abs(srmse(p, q) - rmse / mean) < 1e-10

    def test_is_the_report_formula(self, rng):
        # the views in report.json are scored by _srmse_vec on the vectors
        for _ in range(50):
            k = int(rng.integers(2, 40))
            a, b = rng.random(k), rng.random(k)
            p_hat = FrequencyDistribution((0, 1), (k, 1), a / a.sum())
            p = FrequencyDistribution((0, 1), (k, 1), b / b.sum())
            assert srmse(p_hat, p) == _srmse_vec(p_hat.freqs, p.freqs)

    def test_bin_space_mismatch_rejected(self):
        p = FrequencyDistribution((0,), (2,), np.array([0.5, 0.5]))
        q = FrequencyDistribution((1,), (2,), np.array([0.5, 0.5]))
        with pytest.raises(DataError, match="incomparable"):
            srmse(p, q)


class TestCorrR2:
    def test_identical_is_one_one(self):
        p = FrequencyDistribution((0,), (3,), np.array([0.6, 0.3, 0.1]))
        corr, r2 = corr_r2(p, p)
        assert abs(corr - 1.0) < 1e-12
        assert abs(r2 - 1.0) < 1e-12

    def test_reversed_vector_matches_hand_statistics(self):
        ref = np.array([0.6, 0.3, 0.1])
        q = FrequencyDistribution((0,), (3,), ref)
        # the reversed vector, and constant ones: a constant prediction has
        # no correlation, and an R^2 of at most 0
        for pred in (ref[::-1].copy(), np.full(3, 1 / 3), np.full(3, 0.5)):
            corr, r2 = corr_r2(FrequencyDistribution((0,), (3,), pred), q)
            # hand computation of Pearson correlation and R^2
            mref = ref.mean()
            mpred = pred.mean()
            num = float(np.sum((ref - mref) * (pred - mpred)))
            den = float(np.sqrt(np.sum((ref - mref) ** 2) * np.sum((pred - mpred) ** 2)))
            ss_res = float(np.sum((ref - pred) ** 2))
            ss_tot = float(np.sum((ref - mref) ** 2))
            if den == 0.0:
                assert corr is None
            else:
                assert abs(corr - num / den) < 1e-12
            assert abs(r2 - (1 - ss_res / ss_tot)) < 1e-12

    def test_uniform_reference_flagged_undefined(self):
        uniform = FrequencyDistribution((0,), (4,), np.full(4, 0.25))
        other = FrequencyDistribution((0,), (4,), np.array([0.4, 0.3, 0.2, 0.1]))
        corr, r2 = corr_r2(other, uniform)
        assert corr is None
        assert r2 is None


class TestCramersV:
    def test_perfect_dependence_is_one(self):
        assert cramers_v(toy_pool(100), 0, 1) == 1.0

    def test_exact_independence_is_zero(self):
        codes = np.array(list(itertools.product(range(2), range(3))) * 10)
        v = cramers_v_from_codes(codes, (2, 3), 0, 1)
        assert abs(v) < 1e-12

    def test_matches_chi_square_oracle(self, rng):
        # Oracle: explicit chi-square over a random 3x4 contingency table
        codes = np.column_stack([rng.integers(0, 3, 500), rng.integers(0, 4, 500)])
        v = cramers_v_from_codes(codes, (3, 4), 0, 1)
        table = np.zeros((3, 4))
        for i, j in codes:
            table[i, j] += 1
        n = table.sum()
        chi2 = 0.0
        for i in range(3):
            for j in range(4):
                e = table[i].sum() * table[:, j].sum() / n
                chi2 += (table[i, j] - e) ** 2 / e
        expected = (chi2 / (n * min(3 - 1, 4 - 1))) ** 0.5
        assert abs(v - expected) < 1e-10

    def test_symmetric_and_bounded(self, rng):
        codes = np.column_stack([rng.integers(0, 3, 400), rng.integers(0, 3, 400)])
        a = cramers_v_from_codes(codes, (3, 3), 0, 1)
        b = cramers_v_from_codes(codes, (3, 3), 1, 0)
        assert abs(a - b) < 1e-12
        assert 0.0 <= a <= 1.0

    def test_constant_variable_flagged(self):
        codes = np.column_stack([np.zeros(50, dtype=int), np.arange(50) % 3])
        assert cramers_v_from_codes(codes, (2, 3), 0, 1) is None


class TestNearestSampleStats:
    def test_exact_copy_is_zero_zero(self, rng):
        pool = random_categorical_pool(rng, [3, 2, 4], 60)
        stats = nearest_sample_stats(pool.with_provenance("generated"), pool)
        assert stats.mu_ns == 0.0
        assert stats.sigma_ns == 0.0

    def test_single_block_flip_distance(self, rng):
        # one row differing in exactly one one-hot block: squared distance 2.
        # The first variable is constant in training, so flipping it yields a
        # row whose nearest neighbor differs in exactly that block.
        schema = categorical_schema([3, 2, 4])
        codes = np.column_stack([
            np.zeros(40, dtype=int),
            rng.integers(0, 2, 40),
            rng.integers(0, 4, 40),
        ])
        pool = pool_from_codes(schema, codes)
        n_cols = schema.encoded_width
        base = pool.rows[0]
        flipped = (schema.variables[0].categories[1],) + base[1:]
        from agentsynth.dataset import AgentPool
        gen = AgentPool.from_rows(schema, (flipped,), "generated")
        stats = nearest_sample_stats(gen, pool)
        assert abs(stats.mu_ns - np.sqrt(2 / n_cols)) < 1e-12

    def test_empty_training_pool_rejected(self, rng):
        from agentsynth.dataset import AgentPool
        pool = random_categorical_pool(rng, [2, 2], 5)
        empty = AgentPool.from_rows(pool.schema, (), "train")
        with pytest.raises(DataError):
            nearest_sample_stats(pool.with_provenance("generated"), empty)


def _discretized_schema():
    return Schema((
        VariableSpec("a", "categorical", categories=("x", "y", "z")),
        VariableSpec("b", "numerical-cont", bin_edges=(0.0, 1.0, 2.5, 4.0)),
        VariableSpec("c", "binary", categories=("0", "1")),
        VariableSpec("d", "numerical-int", bin_edges=(0.0, 2.0, 5.0, 9.0, 12.0)),
    ), "discretize-all")


def _encoded(generated, train, standardization=None):
    train_m = encode_pool(train, standardization)
    gen_m = encode_pool(generated, standardization or train_m.standardization)
    return gen_m.values, train_m.values, train_m.blocks


def _stats(dist):
    return DiversityStats(float(dist.mean()), float(dist.std()))


def _gram_oracle(generated, train, standardization=None):
    """The encoded-space Gram formula ||g||^2 + ||t||^2 - 2 g.t, with rows
    that replicate a training row set to zero by byte identity."""
    g, t, _ = _encoded(generated, train, standardization)
    return _stats(_gram_distances(g, t))


def _gram_distances(g, t):
    """:func:`_gram_oracle`'s distance of each encoded row of ``g``."""
    sq = np.sum(g * g, axis=1)[:, None] + np.sum(t * t, axis=1)[None, :] - 2.0 * g @ t.T
    dist = np.sqrt(np.maximum(sq.min(axis=1), 0.0) / t.shape[1])
    copies = {row.tobytes() for row in t}
    dist[[row.tobytes() in copies for row in g]] = 0.0
    return dist


def _direct_oracle(generated, train, standardization=None):
    """Every pair by direct differences: 2 x mismatched one-hot blocks plus
    the squared numeric differences, summed column by column."""
    g, t, blocks = _encoded(generated, train, standardization)
    dist = np.empty(len(g))
    for k, row in enumerate(g):
        mismatches, numeric = np.zeros(len(t)), np.zeros(len(t))
        for b in blocks:
            if b.kind == "one-hot":
                mismatches += (t[:, b.start:b.stop] != row[b.start:b.stop]).any(axis=1)
            else:
                d = row[b.start] - t[:, b.start]
                numeric += d * d
        dist[k] = np.sqrt((2.0 * mismatches + numeric).min() / t.shape[1])
    return _stats(dist)


def _mixed_schema(widths, n_numeric):
    categoricals = tuple(VariableSpec(f"x{i}", "categorical",
                                      categories=tuple(f"c{v}" for v in range(w)))
                         for i, w in enumerate(widths))
    numerics = tuple(VariableSpec(f"n{i}", "numerical-cont", bin_edges=(0.0, 1.0, 2.0, 4.0))
                     for i in range(n_numeric))
    return Schema(categoricals + numerics, "mixed")


def _mixed_pool(rng, schema, n, provenance="train", constant_categories=False, coarse=None):
    """Random rows. Unless ``coarse`` is given, about half the numeric
    columns take few distinct values, so that rows repeat. Numerics may
    overshoot the bins, as generated ones do."""
    columns = []
    for var in schema.variables:
        if var.is_numerical:
            few = rng.random() < 0.5 if coarse is None else coarse
            values = rng.integers(0, 5, size=n) * 0.75 if few else rng.uniform(-0.5, 4.5, n)
            columns.append(values.tolist())
        else:
            codes = np.zeros(n, dtype=int) if constant_categories \
                else rng.integers(0, var.n_values, size=n)
            columns.append([var.categories[c] for c in codes])
    return AgentPool.from_rows(schema, tuple(zip(*columns)), provenance)


def _with_copies(rng, pool, source, n, provenance):
    picks = rng.integers(0, len(source), size=n)
    return AgentPool.from_rows(pool.schema, pool.rows + tuple(source.rows[i] for i in picks),
                               provenance)


def _mixed_case(case, seed):
    """(generated, train, standardization) of one kernel test case."""
    rng = np.random.default_rng(seed)
    if case == "numeric-only":
        schema = _mixed_schema((), int(rng.integers(1, 4)))
    else:
        widths = tuple(int(w) for w in rng.integers(2, 5, size=int(rng.integers(1, 4))))
        schema = _mixed_schema(widths, int(rng.integers(1, 4)))
    one_tuple = case == "one-tuple"
    train = _mixed_pool(rng, schema, int(rng.integers(2, 50)), constant_categories=one_tuple)
    train = _with_copies(rng, train, train, 10, "train")  # duplicates in the reference
    fresh = _mixed_pool(rng, schema, 40, "generated", constant_categories=one_tuple)
    if case == "exact-copies":
        empty = AgentPool.from_rows(schema, (), "generated")
        return _with_copies(rng, empty, train, 60, "generated"), train, None
    generated = _with_copies(rng, fresh, train, 20, "generated")
    generated = _with_copies(rng, generated, generated, 20, "generated")
    if case == "one-row":
        # a single row has no spread of its own: standardize with other rows
        return generated, AgentPool.from_rows(schema, train.rows[:1], "train"), \
            encode_pool(train).standardization
    return generated, train, None


def _changed_copies(rng, train, changes):
    """A generated pool of one row per entry of ``changes``: a random
    training row with that many codes changed (:func:`_changed_codes`)."""
    codes = _changed_codes(rng, train.codes, train.schema.value_counts, changes)
    return pool_from_codes(train.schema, codes, "generated")


def _changed_codes(rng, codes, widths, changes):
    """One row per entry of ``changes``: a random row of ``codes`` with that
    many codes changed, each in a different variable of width 2 or more,
    to another of the variable's values."""
    widths = np.asarray(widths)
    rows = codes[rng.integers(0, len(codes), size=len(changes))].astype(np.int64)
    for row, k in zip(rows, changes):
        for j in rng.permutation(np.flatnonzero(widths > 1))[:k]:
            row[j] = (row[j] + rng.integers(1, widths[j])) % widths[j]
    return rows


@pytest.fixture
def small_chunks(monkeypatch):
    # every case spans many mismatch chunks and pair batches
    monkeypatch.setattr(metrics, "MATCH_CHUNK", 7)
    monkeypatch.setattr(metrics, "PAIR_CHUNK", 5)


@pytest.mark.usefixtures("small_chunks")
class TestNearestSampleKernel:
    @pytest.mark.parametrize("case, seed", [
        *[("random", s) for s in range(8)],
        *[(c, s) for c in ("exact-copies", "one-row", "numeric-only", "one-tuple")
          for s in range(3)],
    ])
    def test_mixed_schema_equals_direct_oracle(self, case, seed):
        generated, train, standardization = _mixed_case(case, seed)
        stats = nearest_sample_stats(generated, train, standardization)
        assert stats == _direct_oracle(generated, train, standardization)
        gram = _gram_oracle(generated, train, standardization)
        np.testing.assert_allclose([stats.mu_ns, stats.sigma_ns],
                                   [gram.mu_ns, gram.sigma_ns], rtol=1e-12, atol=0.0)
        if case == "exact-copies":
            assert (stats.mu_ns, stats.sigma_ns) == (0.0, 0.0)


@pytest.mark.usefixtures("small_chunks")
class TestHammingNearestSample:
    """On ``discretize-all`` schemas the kernel is the Hamming distance on
    codes and equals the Gram oracle (the float path it replaced) bit for
    bit: every entry there is a small integer."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_float_path_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        widths = tuple(int(w) for w in rng.integers(2, 5, size=int(rng.integers(2, 7))))
        train = random_categorical_pool(rng, widths, int(rng.integers(1, 80)))
        # half the generated rows copy training rows, so exact zeros occur
        fresh = random_categorical_pool(rng, widths, 60)
        copies = rng.integers(0, len(train), size=60)
        generated = AgentPool.from_rows(
            train.schema, fresh.rows + tuple(train.rows[i] for i in copies), "generated")
        assert nearest_sample_stats(generated, train) == _gram_oracle(generated, train)

    def test_binned_numerics_equal_float_path(self, rng):
        from agentsynth.dataset import codes_to_pool

        schema = _discretized_schema()
        make = lambda n: codes_to_pool(
            np.column_stack([rng.integers(0, w, size=n) for w in schema.value_counts]),
            schema, rng=rng)
        train, generated = make(50), make(120)
        assert nearest_sample_stats(generated, train) == _gram_oracle(generated, train)

    def test_wide_product_space_uses_row_unique(self, rng):
        # 4**32 bins do not fit one int64 key per row, so the key lookup is
        # skipped and every tuple, one-mismatch copies too, takes the product
        widths = (4,) * 32
        train = random_categorical_pool(rng, widths, 30)
        generated = AgentPool.from_rows(
            train.schema, random_categorical_pool(rng, widths, 20).rows + train.rows[:10],
            "generated")
        assert nearest_sample_stats(generated, train) == _gram_oracle(generated, train)
        generated = _changed_copies(rng, train, (1,) * 20 + (2,) * 10)
        assert metrics._within_one(generated.codes, train.codes, widths) is None
        assert nearest_sample_stats(generated, train) == _gram_oracle(generated, train)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_and_two_mismatch_copies(self, seed):
        rng = np.random.default_rng(seed)
        widths = tuple(int(w) for w in rng.integers(2, 6, size=int(rng.integers(3, 8))))
        train = random_categorical_pool(rng, widths, int(rng.integers(20, 80)))
        generated = _changed_copies(rng, train, (0,) * 10 + (1,) * 40 + (2,) * 30)
        assert nearest_sample_stats(generated, train) == _gram_oracle(generated, train)

    def test_one_variable_schema(self, rng):
        train = random_categorical_pool(rng, (6,), 4)
        generated = pool_from_codes(train.schema, np.arange(6)[:, None], "generated")
        assert nearest_sample_stats(generated, train) == _gram_oracle(generated, train)

    def test_one_row_reference_pool(self, rng):
        train = random_categorical_pool(rng, (3, 4, 2, 5), 1)
        generated = _changed_copies(rng, train, (0,) * 3 + (1,) * 20 + (2,) * 10 + (3,) * 5)
        assert nearest_sample_stats(generated, train) == _gram_oracle(generated, train)

    def test_variable_of_width_one(self, rng):
        # a schema's variables take two values or more, but the kernel takes
        # any widths: its rows here are codes one-hot encoded by the test
        widths = (3, 1, 4, 1, 2)
        train = np.column_stack([rng.integers(0, w, size=25) for w in widths])
        generated = _changed_codes(rng, train, widths, (0,) * 10 + (1,) * 30 + (2,) * 20)
        one_hot = lambda codes: np.hstack([np.eye(w)[codes[:, j]] for j, w in enumerate(widths)])
        rows = lambda codes: metrics._KernelRows(codes, widths, np.empty((len(codes), 0)))
        np.testing.assert_array_equal(metrics._nearest_distances(rows(generated), rows(train)),
                                      _gram_distances(one_hot(generated), one_hot(train)))

    @pytest.mark.parametrize("seed", range(4))
    def test_within_one_equals_brute_force_counts(self, seed):
        # the lookup's counts: the smallest mismatch count where it is 0 or 1
        rng = np.random.default_rng(seed)
        widths = tuple(int(w) for w in rng.integers(1, 5, size=int(rng.integers(1, 7))))
        n = int(rng.integers(1, 40))
        train = np.column_stack([rng.integers(0, w, size=n) for w in widths])
        generated = _changed_codes(rng, train, widths, (0,) * 5 + (1,) * 30 + (2,) * 20)
        gen_tuples = dataset.distinct_rows(generated)[0]
        tuples = dataset.distinct_rows(train)[0]
        least = (gen_tuples[:, None, :] != tuples[None, :, :]).sum(axis=2).min(axis=1)
        np.testing.assert_array_equal(metrics._within_one(gen_tuples, tuples, widths),
                                      np.where(least <= 1, least, -1))

    def test_pure_replicator_is_exactly_zero(self, rng):
        train = random_categorical_pool(rng, [3, 4, 2, 5], 40)
        picks = rng.integers(0, 40, size=500)
        generated = AgentPool.from_rows(train.schema, tuple(train.rows[i] for i in picks),
                                        "generated")
        stats = nearest_sample_stats(generated, train)
        assert (stats.mu_ns, stats.sigma_ns) == (0.0, 0.0)

    def test_code_width_mismatch_rejected(self, rng):
        # pools of different schemas, here of different code widths
        train = random_categorical_pool(rng, [2, 2, 2], 3)
        generated = random_categorical_pool(rng, [2, 2], 3).with_provenance("generated")
        with pytest.raises(DataError, match="one schema"):
            nearest_sample_stats(generated, train)


def test_nearest_sample_memory_is_bounded():
    """One shared categorical tuple puts every training row in one group,
    the worst case for the pair batches; a Gram block over these rows
    would need about 370 MB."""
    rng = np.random.default_rng(3)
    schema = _mixed_schema((3,), 2)
    train = _mixed_pool(rng, schema, 30_000, constant_categories=True, coarse=False)
    generated = _mixed_pool(rng, schema, 2_000, "generated", constant_categories=True,
                            coarse=False)
    tracemalloc.start()
    try:
        nearest_sample_stats(generated, train)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


class TestPca:
    def test_collinear_data_one_component(self, rng):
        t = rng.normal(size=200)
        data = np.column_stack([t, 3.0 * t])
        model = pca_fit(data)
        assert model.explained_variances[0] / model.explained_variances.sum() > 0.999

    def test_orthonormal_components(self, rng):
        data = rng.normal(size=(100, 6))
        model = pca_fit(data)
        gram = model.components.T @ model.components
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-9)

    def test_variances_nonincreasing_and_trace_preserved(self, rng):
        data = rng.normal(size=(80, 5)) @ rng.normal(size=(5, 5))
        model = pca_fit(data)
        assert np.all(np.diff(model.explained_variances) <= 1e-12)
        cov = np.cov(data, rowvar=False)
        assert abs(model.explained_variances.sum() - np.trace(cov)) < 1e-8

    def test_matches_characteristic_polynomial_oracle(self, rng):
        # Oracle: eigenvalues of a 3x3 covariance from its characteristic
        # polynomial lambda^3 - tr lambda^2 + m lambda - det
        for _ in range(10):
            data = rng.normal(size=(50, 3)) * rng.uniform(0.5, 3.0, size=3)
            cov = np.cov(data, rowvar=False)
            tr = np.trace(cov)
            m = (
                cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
                + cov[0, 0] * cov[2, 2] - cov[0, 2] * cov[2, 0]
                + cov[1, 1] * cov[2, 2] - cov[1, 2] * cov[2, 1]
            )
            det = np.linalg.det(cov)
            roots = np.roots([1.0, -tr, m, -det])
            expected = np.sort(roots.real)[::-1]
            model = pca_fit(data)
            np.testing.assert_allclose(model.explained_variances, expected, atol=1e-8)

    def test_projection_shape_and_consistency(self, rng):
        data = rng.normal(size=(60, 4))
        model = pca_fit(data)
        coords = pca_project(model, data, 2)
        assert coords.shape == (60, 2)
        manual = (data - data.mean(0)) @ model.components[:, :2]
        np.testing.assert_allclose(coords, manual, atol=1e-12)

    def test_too_few_rows_rejected(self):
        with pytest.raises(DataError):
            pca_fit(np.ones((1, 3)))


class TestEvaluate:
    def test_method_equal_to_test_scores_perfectly(self, rng):
        pool = random_categorical_pool(rng, [3, 2, 2, 3], 300, provenance="test")
        train = random_categorical_pool(rng, [3, 2, 2, 3], 100)
        report = evaluate({"echo": pool.with_provenance("generated")}, pool, train)
        row = report.rows["echo"]
        for vm in row.views.values():
            assert vm.srmse == 0.0
            assert abs(vm.corr - 1.0) < 1e-12
            assert abs(vm.r2 - 1.0) < 1e-12
        assert row.pairwise.srmse == 0.0

    def test_report_structure_mirrors_reference_layout(self, rng):
        test = random_categorical_pool(rng, [2, 3, 2, 2], 200, provenance="test")
        train = random_categorical_pool(rng, [2, 3, 2, 2], 80)
        report = evaluate(
            {"vae": train.with_provenance("generated"),
             "gibbs": train.with_provenance("generated")},
            test, train)
        assert report.method_names == ["vae", "gibbs", "training-set"]
        doc = report_to_dict(report)
        for name in report.method_names:
            assert list(doc["rows"][name]["views"]) == [
                "marginal", "bivariate", "trivariate", "projected"]
            assert "mu_ns" in doc["rows"][name]
        assert EvalReport.COLUMNS == ("Marg.", "Bivar.", "Trivar.", "Basic",
                                      "Pair.", "mu_NS", "sigma_NS")

    def test_csv_columns(self, rng, tmp_path):
        test = random_categorical_pool(rng, [2, 2, 2], 100, provenance="test")
        train = random_categorical_pool(rng, [2, 2, 2], 50)
        report = evaluate({}, test, train)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        header = path.read_text().splitlines()[0]
        assert header == "Model,Marg.,Bivar.,Trivar.,Basic,Pair.,mu_NS,sigma_NS"

    def test_json_serializable(self, rng):
        test = random_categorical_pool(rng, [2, 2], 50, provenance="test")
        train = random_categorical_pool(rng, [2, 2], 30)
        report = evaluate({}, test, train, metadata={"seed": 1})
        text = report_to_json(report)
        assert '"training-set"' in text

    def test_report_keeps_each_view_vector(self, rng):
        test = random_categorical_pool(rng, [2, 3, 2, 4], 120, provenance="test")
        train = random_categorical_pool(rng, [2, 3, 2, 4], 60)
        gen = random_categorical_pool(rng, [2, 3, 2, 4], 90, provenance="generated")
        report = evaluate({"g": gen}, test, train, projection=(3, 1))
        subsets = view_subsets(4, (3, 1))
        # no output reads the training-set row's vectors, so none are kept
        assert list(report.vectors) == ["g"]
        assert (report.test_size, report.sizes) == (120, {"g": 90})
        for view, subs in subsets.items():
            np.testing.assert_array_equal(
                report.vectors["g"][view] / report.sizes["g"],
                _per_subset_freqs(codes_for_pool(gen), (2, 3, 2, 4), subs))
        for view, subs in subsets.items():
            np.testing.assert_array_equal(
                report.test_vectors[view] / report.test_size,
                _per_subset_freqs(codes_for_pool(test), (2, 3, 2, 4), subs))
        assert set(report_to_dict(report)) == {"methods", "rows", "metadata"}
        assert "vectors" not in report_to_json(report)

    def test_projection_by_index_name_or_default(self, rng):
        test = random_categorical_pool(rng, [2, 3, 2, 4, 2], 120, provenance="test")
        train = random_categorical_pool(rng, [2, 3, 2, 4, 2], 60)
        by_index = evaluate({}, test, train, projection=(3, 1))
        by_name = evaluate({}, test, train, projection=["x03", "x01"])
        assert by_index.rows == by_name.rows
        np.testing.assert_array_equal(by_index.test_vectors["projected"],
                                      by_name.test_vectors["projected"])
        default = evaluate({}, test, train).test_vectors["projected"]
        np.testing.assert_array_equal(
            default, evaluate({}, test, train, projection=[0, 1, 2, 3]).test_vectors["projected"])
        assert len(default) == 2 * 3 * 2 * 4

    @pytest.mark.parametrize("projection", [
        [99], [5], [-1], [0, 0], [1, "x01"], [1.5], [True], ["nope"], [], [[0]]])
    def test_projection_out_of_range_repeated_or_not_an_index(self, rng, projection):
        test = random_categorical_pool(rng, [2, 3, 2, 4, 2], 40, provenance="test")
        train = random_categorical_pool(rng, [2, 3, 2, 4, 2], 30)
        with pytest.raises(ConfigError, match="projection must name distinct schema variables"):
            evaluate({}, test, train, projection=projection)

    def test_report_document_round_trip_is_byte_identical(self, rng):
        test = random_categorical_pool(rng, [2, 3, 2], 80, provenance="test")
        train = random_categorical_pool(rng, [2, 3, 2], 40)
        gen = random_categorical_pool(rng, [2, 3, 2], 60, provenance="generated")
        text = report_to_json(evaluate({"g": gen}, test, train, metadata={"seed": 1}))
        assert report_to_json(report_from_dict(json.loads(text))) == text

    @pytest.mark.parametrize("doc, message", [
        ({}, "^the report lacks 'methods'$"),
        ([], r"the report must be an object, got \[\]"),
    ])
    def test_empty_report_document_is_data_error(self, doc, message):
        with pytest.raises(DataError, match=message):
            report_from_dict(doc)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda d: d.update(methods="g"), "report methods must be a list of names"),
        (lambda d: d.update(rows=[]), "report rows must be an object"),
        (lambda d: d["rows"].pop("g"), "^report rows lacks 'g'$"),
        (lambda d: d["rows"].update(g=[]), r"^report row g must be an object, got \[\]$"),
        (lambda d: d["rows"]["g"].update(views=[]), "'g' views must be an object"),
        (lambda d: d["rows"]["g"]["views"].update(marginal=0.1),
         "'g' view 'marginal' must be an object"),
        (lambda d: d["rows"]["g"]["views"]["marginal"].update(srmse="0.1"),
         "'g' view 'marginal' srmse must be a number"),
        (lambda d: d["rows"]["g"]["views"]["marginal"].update(corr=[]),
         "'g' view 'marginal' corr must be a number or null"),
        (lambda d: d["rows"]["g"].update(pairwise_cramers_v=1),
         "'g' pairwise_cramers_v must be an object"),
        (lambda d: d["rows"]["g"].update(mu_ns=None), "'g' mu_ns must be a number, got None"),
        (lambda d: d["rows"]["g"].update(sigma_ns=True), "'g' sigma_ns must be a number"),
        (lambda d: d.update(metadata=[]), "report metadata must be an object"),
    ])
    def test_report_document_of_another_shape_is_data_error(self, rng, corrupt, message):
        test = random_categorical_pool(rng, [2, 3, 2], 80, provenance="test")
        train = random_categorical_pool(rng, [2, 3, 2], 40)
        gen = random_categorical_pool(rng, [2, 3, 2], 60, provenance="generated")
        doc = json.loads(report_to_json(evaluate({"g": gen}, test, train)))
        corrupt(doc)
        with pytest.raises(DataError, match=message):
            report_from_dict(doc)

    @pytest.mark.parametrize("entry, key, what", [
        *((lambda d: d, key, "the report") for key in ("methods", "rows", "metadata")),
        *((lambda d: d["rows"]["g"], key, "report row 'g'")
          for key in ("views", "pairwise_cramers_v", "mu_ns", "sigma_ns")),
        *((lambda d: d["rows"]["g"]["views"]["marginal"], key, "'g' view 'marginal'")
          for key in ("srmse", "corr", "r2")),
        *((lambda d: d["rows"]["g"]["pairwise_cramers_v"], key, "'g' pairwise_cramers_v")
          for key in ("srmse", "corr", "r2")),
    ])
    def test_report_document_missing_key_is_named(self, rng, entry, key, what):
        test = random_categorical_pool(rng, [2, 3, 2], 80, provenance="test")
        train = random_categorical_pool(rng, [2, 3, 2], 40)
        gen = random_categorical_pool(rng, [2, 3, 2], 60, provenance="generated")
        doc = json.loads(report_to_json(evaluate({"g": gen}, test, train)))
        del entry(doc)[key]
        with pytest.raises(DataError, match=f"^{what} lacks '{key}'$"):
            report_from_dict(doc)

    def test_report_rows_keep_their_names_when_a_method_repeats(self):
        row = {"views": {"marginal": {"srmse": 0.1, "corr": None, "r2": None}},
               "pairwise_cramers_v": None, "mu_ns": 0.2, "sigma_ns": 0.1}
        report = report_from_dict({"methods": ["g", "g", "h"], "metadata": {},
                                   "rows": {"g": row, "h": {**row, "mu_ns": 0.9}}})
        assert [report.rows[name].diversity.mu_ns for name in ("g", "h")] == [0.2, 0.9]

    def test_out_of_range_generated_numeric_is_clamped_like_the_views(self, rng):
        # read_pool_csv lets generated values overshoot the bins; every
        # metric, mu_NS included, puts them in the outermost bin
        from agentsynth.dataset import codes_to_pool

        schema = _discretized_schema()
        make = lambda n: codes_to_pool(
            np.column_stack([rng.integers(0, w, size=n) for w in schema.value_counts]),
            schema, rng=rng)
        test, train, gen = make(80).with_provenance("test"), make(40), make(60)
        over = AgentPool.from_rows(
            schema, tuple((a, b + 10.0, c, d) for a, b, c, d in gen.rows), "generated")
        clamped = AgentPool.from_rows(
            schema, tuple((a, 4.0, c, d) for a, b, c, d in gen.rows), "generated")
        report = evaluate({"over": over, "clamped": clamped}, test, train)
        assert report.rows["over"] == report.rows["clamped"]

    def test_mixed_schema_diversity_equals_direct_oracle(self, rng):
        from agentsynth.dataset import codes_to_pool

        schema = Schema(_discretized_schema().variables, "mixed")
        make = lambda n, prov: codes_to_pool(
            np.column_stack([rng.integers(0, w, size=n) for w in schema.value_counts]),
            schema, rng=rng).with_provenance(prov)
        test, train, gen = make(80, "test"), make(40, "train"), make(60, "generated")
        report = evaluate({"g": gen}, test, train)
        assert report.rows["g"].diversity == _direct_oracle(gen, train)
        # the training-set row is scored against the test pool, with the
        # training pool's standardization
        assert report.rows["training-set"].diversity == _direct_oracle(
            train, test, encode_pool(train).standardization)


def _csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path.read_bytes()


AWKWARD = [0.0, -0.0, 1.0, 1 / 3, 1e-300, 5e-324, 1.7976931348623157e308, float("inf"),
           -float("inf"), float("nan"), 1 / 3, 0.1 + 0.2, -2.5e-7]


class TestNarrowViewCounts:
    @pytest.mark.parametrize("n", [255, 256, 65_535, 65_536])
    def test_counts_in_the_narrowest_dtype_give_the_float_path(self, rng, tmp_path, n):
        """The report keeps each view's counts in np.min_scalar_type(n); the
        scores, and the frequencies of the scatter file's counts, equal
        those of int64 counts / n."""
        widths = (2, 3, 2, 2)
        schema = categorical_schema(widths)

        def make(rows, provenance):
            codes = np.column_stack([rng.integers(0, w, size=rows) for w in widths])
            codes[:, 1:] = 0  # every view but the projected one has a bin of all n rows
            return dataset.codes_to_pool(codes, schema, provenance=provenance)

        test, gen = make(n, "test"), make(n, "generated")
        report = evaluate({"g": gen}, test, make(50, "train"))
        for view, subs in view_subsets(4, (0, 1, 2, 3)).items():
            kept = report.test_vectors[view], report.vectors["g"][view]
            assert [vec.dtype for vec in kept] == [np.min_scalar_type(n)] * 2
            if view != "projected":
                assert kept[0].max() == n
            test_freqs, gen_freqs = (_per_subset_freqs(pool.codes, widths, subs)
                                     for pool in (test, gen))
            assert report.rows["g"].views[view].srmse == _srmse_vec(gen_freqs, test_freqs)
            write_scatter_csv(list(kept), tmp_path / "s.npy")
            counts = np.load(tmp_path / "s.npy")
            assert counts.dtype == np.min_scalar_type(n)
            np.testing.assert_array_equal(counts / n, np.column_stack((test_freqs, gen_freqs)))


def _scatter_oracle(path, test_vec, pool_vecs):
    """The bytes of a former per-view scatter file, row by row through
    csv.writer from float frequencies."""
    return _csv_writer_bytes(
        path, ["bin_id", "test_frequency", *pool_vecs],
        [[b, repr(float(test_vec[b])), *(repr(float(vec[b])) for vec in pool_vecs.values())]
         for b in range(len(test_vec))])


def _rebuilt_scatter_bytes(directory, test, pools):
    """Write a view's count columns ``(counts, n)`` (the test split's, then
    one per pool by name) with write_scatter_csv and their columns.json,
    and return the bytes of the former CSV rebuilt from them."""
    write_scatter_csv([vec for vec, _ in [test, *pools.values()]], directory / "v.npy")
    (directory / "columns.json").write_text(json.dumps(
        [{"split": "test", "rows": test[1]},
         *({"pool": name, "rows": n} for name, (_, n) in pools.items())]))
    scatter_csv_from_npy(directory, "v", directory / "v.csv")
    return (directory / "v.csv").read_bytes()


class TestArtifactBytes:
    @staticmethod
    def _view(rng):
        """A view's columns ``(counts, n)`` as int64: the test split of 3
        rows, and pools of 10,000 rows, of one row and of 70,000 rows."""
        test = (np.array([0, 3, 1, 2, 3, 0] + rng.integers(0, 4, 40).tolist()), 3)
        pools = {"vae": (rng.integers(0, 10_001, len(test[0])), 10_000),
                 "bn": (rng.integers(0, 2, len(test[0])), 1),
                 "marginal-sampler": (np.full(len(test[0]), 70_000 // 3), 70_000)}
        return test, pools

    def test_scatter_is_the_count_matrix(self, rng, tmp_path):
        """The file np.save writes for the view's Fortran-order count matrix,
        in the dtype of the largest pool (uint32 for 70,000 rows)."""
        test, pools = self._view(rng)
        columns = [vec.astype(np.min_scalar_type(n)) for vec, n in [test, *pools.values()]]
        write_scatter_csv(columns, tmp_path / "s.npy")
        matrix = np.asfortranarray(np.column_stack(columns).astype(np.uint32))
        np.save(tmp_path / "e.npy", matrix)
        assert (tmp_path / "s.npy").read_bytes() == (tmp_path / "e.npy").read_bytes()
        counts = np.load(tmp_path / "s.npy")
        assert counts.dtype == np.uint32
        np.testing.assert_array_equal(counts, matrix)

    def test_scatter_equals_csv_writer(self, rng, tmp_path):
        """The former CSV rebuilt from the narrow counts is the one csv.writer
        wrote from the int64 counts' float frequencies."""
        test, pools = self._view(rng)
        narrow = lambda vec, n: (vec.astype(np.min_scalar_type(n)), n)
        rebuilt = _rebuilt_scatter_bytes(
            tmp_path, narrow(*test), {name: narrow(*column) for name, column in pools.items()})
        assert rebuilt == _scatter_oracle(tmp_path / "e.csv", test[0] / test[1],
                                          {name: vec / n for name, (vec, n) in pools.items()})

    def test_scatter_count_columns_equal_csv_writer(self, rng, tmp_path):
        """Columns in their pools' own dtypes (uint16 and uint8) are written
        in their common dtype, and each rebuilt cell is the repr of that
        pool's count over its own rows."""
        sizes = {"test": 7_500, "vae": 10_000, "gibbs": 255}
        views = {name: rng.integers(0, n + 1, size=3_000).astype(np.min_scalar_type(n))
                 for name, n in sizes.items()}
        views["test"][:3] = [0, sizes["test"], 1]
        columns = {name: (views[name], n) for name, n in sizes.items()}
        rebuilt = _rebuilt_scatter_bytes(tmp_path, columns.pop("test"), columns)
        assert np.load(tmp_path / "v.npy").dtype == np.uint16
        assert rebuilt == _scatter_oracle(
            tmp_path / "e.csv", views["test"] / sizes["test"],
            {"vae": views["vae"] / sizes["vae"], "gibbs": views["gibbs"] / sizes["gibbs"]})

    def test_scatter_and_pca_over_several_write_blocks(self, rng, tmp_path):
        """Files longer than the dataset.CSV_WRITE_BLOCK rows that the stage
        encodes and projects at a time: counts of three pools, and
        coordinates with awkward values across a block boundary, rebuild to
        the CSVs csv.writer wrote."""
        rows = 2 * dataset.CSV_WRITE_BLOCK + 3
        test = (rng.integers(0, 9, rows).astype(np.uint8), 8)
        late = rng.permutation(test[0]).astype(np.uint16) * 1000
        late[dataset.CSV_WRITE_BLOCK + 5:dataset.CSV_WRITE_BLOCK + 105] = np.arange(100)
        pools = {"vae": (rng.permutation(test[0]), 8), "gibbs": (late, 9_000)}
        freqs = {name: vec / n for name, (vec, n) in pools.items()}
        assert _rebuilt_scatter_bytes(tmp_path, test, pools) == _scatter_oracle(
            tmp_path / "e.csv", test[0] / test[1], freqs)
        coords = rng.normal(size=(rows, 2))
        coords[dataset.CSV_WRITE_BLOCK - 4:dataset.CSV_WRITE_BLOCK + 9, 1] = AWKWARD
        write_pca_csv(coords, tmp_path / "p.npy")
        pca_csv_from_npy(tmp_path / "p.npy", tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_bytes() == _csv_writer_bytes(
            tmp_path / "e.csv", ["pc1", "pc2"], [[repr(float(v)) for v in row] for row in coords])

    @pytest.mark.parametrize("n", [1, 17, 1025, 2051])
    def test_projected_column_equals_the_float_frequencies(self, rng, tmp_path, n):
        """The projected view is the single-subset counts in the narrow
        dtype, and its column's counts over n are its float frequencies."""
        widths = (3, 4, 2, 5)
        codes = np.column_stack([rng.integers(0, w, size=n) for w in widths])
        vectors, _ = _pool_vectors(codes, widths, view_subsets(4, (2, 0, 3)))
        single = frequency_distribution_from_codes(codes, widths, (2, 0, 3))
        assert vectors["projected"].dtype == np.min_scalar_type(n)
        assert (vectors["projected"] == single.counts).all()
        write_scatter_csv([vectors["projected"]], tmp_path / "s.npy")
        column = np.load(tmp_path / "s.npy")[:, 0]
        assert [repr(x) for x in (column / n).tolist()] == [repr(x) for x in single.freqs.tolist()]

    @staticmethod
    def _coords(rng, shape):
        coords = rng.normal(size=shape)
        if coords.size >= len(AWKWARD):
            coords.flat[:len(AWKWARD)] = AWKWARD
        return coords

    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (25, 5)])
    def test_pca_file_holds_the_coordinates_bit_for_bit(self, rng, tmp_path, shape):
        """Signed zeros, NaN and infinities keep their bits."""
        coords = self._coords(rng, shape)
        write_pca_csv(coords, tmp_path / "p.npy")
        written = np.load(tmp_path / "p.npy")
        assert (written.dtype, written.shape) == (np.float64, shape)
        np.testing.assert_array_equal(written.view(np.int64), coords.view(np.int64))

    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (25, 5)])
    def test_pca_equals_csv_writer(self, rng, tmp_path, shape):
        """The former CSV rebuilt from the file is the one csv.writer wrote."""
        coords = self._coords(rng, shape)
        write_pca_csv(coords, tmp_path / "p.npy")
        pca_csv_from_npy(tmp_path / "p.npy", tmp_path / "p.csv")
        expected = _csv_writer_bytes(
            tmp_path / "e.csv", [f"pc{k + 1}" for k in range(shape[1])],
            [[repr(float(v)) for v in row] for row in coords])
        assert (tmp_path / "p.csv").read_bytes() == expected

    def test_signed_zeros_keep_their_own_lines(self, tmp_path):
        """-0.0 == 0.0 as floats, but their bits and their reprs differ, so
        rows that differ only in a zero's sign keep their own lines."""
        coords = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]])
        write_pca_csv(coords, tmp_path / "p.npy")
        assert np.signbit(np.load(tmp_path / "p.npy")).tolist() == np.signbit(coords).tolist()
        pca_csv_from_npy(tmp_path / "p.npy", tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_text().splitlines()[1:] == [
            "0.0,1.0", "-0.0,1.0", "0.0,1.0", "-0.0,1.0", "0.0,-0.0"]
