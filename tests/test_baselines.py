"""Marginal sampler and training-set resampler."""

import numpy as np
import pytest

from agentsynth.baselines import fit_marginals, marginal_sample, resample_training
from agentsynth.dataset import AgentPool, pool_to_codes
from agentsynth.errors import DataError
from agentsynth.metrics import frequency_distribution, nearest_sample_stats, srmse

from conftest import categorical_schema, pool_from_codes, random_categorical_pool, toy_pool


class TestMarginalSample:
    def test_single_variable_matches_training_marginal(self, rng):
        # chi-square GOF, dof=2, p=0.01 critical value 9.21
        schema = categorical_schema([3])
        codes = rng.choice(3, size=5000, p=[0.6, 0.3, 0.1])[:, None]
        pool = pool_from_codes(schema, codes)
        model = fit_marginals(pool)
        out = marginal_sample(model, 10 ** 5, rng)
        draws = np.bincount(pool_to_codes(out)[:, 0], minlength=3)
        expected = np.bincount(codes[:, 0], minlength=3) / 5000 * 10 ** 5
        chi2 = float(np.sum((draws - expected) ** 2 / expected))
        assert chi2 < 9.21

    def test_probability_vectors_normalized(self, rng):
        pool = random_categorical_pool(rng, [3, 4, 2], 500)
        model = fit_marginals(pool)
        for p in model.probs:
            assert abs(p.sum() - 1.0) < 1e-12

    def test_toy_produces_all_four_combinations(self, rng):
        model = fit_marginals(toy_pool(500))
        out = marginal_sample(model, 10 ** 4, rng)
        counts = {}
        for row in out.rows:
            counts[row] = counts.get(row, 0) + 1
        assert set(counts) == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}
        for combo, c in counts.items():
            assert abs(c / 10 ** 4 - 0.25) < 0.02

    def test_zero_count(self, rng):
        model = fit_marginals(toy_pool(5))
        assert len(marginal_sample(model, 0, rng)) == 0

    def test_equals_inline_inverse_cdf_reference(self, rng):
        # reference: the bincount marginals and the inline draw used before
        # dataset.view_counts and dataset.draw_categories
        pool = random_categorical_pool(rng, [3, 4, 2], 300)
        model = fit_marginals(pool)
        codes = pool_to_codes(pool)
        ref_rng = np.random.default_rng(8)
        expected = np.zeros((400, 3), dtype=np.int64)
        for j, width in enumerate(pool.schema.value_counts):
            counts = np.bincount(codes[:, j], minlength=width).astype(float)
            np.testing.assert_array_equal(model.probs[j], counts / counts.sum())
            cum = np.cumsum(model.probs[j])
            expected[:, j] = np.minimum((ref_rng.random((400, 1)) * cum[-1] > cum).sum(axis=1),
                                        width - 1)
        out_rng = np.random.default_rng(8)
        np.testing.assert_array_equal(marginal_sample(model, 400, out_rng).codes, expected)
        assert out_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_marginal_view_converges_but_bivariate_stays_off(self, rng):
        # on perfectly correlated data the product of marginals misses the joint
        pool = toy_pool(1000)
        model = fit_marginals(pool)
        out = marginal_sample(model, 10 ** 5, rng)
        marg = max(
            srmse(frequency_distribution(out, (j,)), frequency_distribution(pool, (j,)))
            for j in range(2)
        )
        biv = srmse(frequency_distribution(out, (0, 1)), frequency_distribution(pool, (0, 1)))
        assert marg < 0.05
        assert biv > 10 * marg

    def test_empty_pool_rejected(self):
        schema = categorical_schema([2])
        with pytest.raises(DataError):
            fit_marginals(AgentPool.from_rows(schema, (), "train"))


class TestResampleTraining:
    def test_every_row_is_a_training_row_and_ns_zero(self, rng):
        pool = random_categorical_pool(rng, [3, 3, 2], 200)
        out = resample_training(pool, 500, rng)
        train_rows = set(pool.rows)
        assert all(row in train_rows for row in out.rows)
        stats = nearest_sample_stats(out, pool)
        assert stats.mu_ns == 0.0
        assert stats.sigma_ns == 0.0

    def test_bootstrap_distinct_fraction(self, rng):
        # with n draws from n distinct rows the expected distinct fraction
        # is 1 - (1 - 1/n)^n ~ 1 - 1/e
        n = 4000
        schema = categorical_schema([n])
        pool = pool_from_codes(schema, np.arange(n)[:, None])
        out = resample_training(pool, n, rng)
        distinct = len(set(out.rows)) / n
        assert abs(distinct - (1 - 1 / np.e)) < 0.02

    def test_fixed_seed_reproducible(self, rng):
        pool = random_categorical_pool(rng, [4, 2], 100)
        assert resample_training(pool, 50, 17).rows == resample_training(pool, 50, 17).rows

    def test_empty_pool_rejected(self):
        schema = categorical_schema([2])
        with pytest.raises(DataError):
            resample_training(AgentPool.from_rows(schema, (), "train"), 10, 0)
