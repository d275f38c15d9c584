"""Benchmark generators: toy, latent-class, BN ground truth."""

import itertools

import numpy as np
import pytest

from agentsynth.dataset import pool_to_codes
from agentsynth.errors import ConfigError
from agentsynth.metrics import cramers_v
from agentsynth.synthdata import (
    SyntheticGeneratorSpec,
    bn_ground_truth_model,
    spec_from_json,
    synth_generate,
)

from oracles import joint_distribution


class TestToyGenerator:
    def test_only_two_prototypes_with_binomial_counts(self):
        spec = SyntheticGeneratorSpec("toy-appendix-a", size=1000, seed=42)
        pool = synth_generate(spec)
        counts = {}
        for row in pool.rows:
            counts[row] = counts.get(row, 0) + 1
        assert set(counts) <= {("0", "0"), ("1", "1")}
        # 4 sigma binomial tolerance around 500
        assert abs(counts[("0", "0")] - 500) < 4 * np.sqrt(1000 * 0.25)

    def test_balanced_option_exact(self):
        spec = SyntheticGeneratorSpec("toy-appendix-a", size=1000, seed=0, balanced=True)
        pool = synth_generate(spec)
        counts = {}
        for row in pool.rows:
            counts[row] = counts.get(row, 0) + 1
        assert counts[("0", "0")] == 500
        assert counts[("1", "1")] == 500


def _reference_latent_class(spec):
    """The latent-class generator's draws with the inline inverse-CDF draw
    it used before dataset.draw_categories: the categorical codes, the
    numeric values and the generator after the last draw."""
    rng = np.random.default_rng(spec.seed)
    widths, s = spec.widths(), spec.dependence
    conditionals = []
    for w in widths:
        anchors = rng.integers(0, w, size=spec.n_classes)
        probs = np.full((spec.n_classes, w), (1.0 - s) / w)
        probs[np.arange(spec.n_classes), anchors] += s
        conditionals.append(probs)
    classes = rng.integers(0, spec.n_classes, size=spec.size)
    codes = np.zeros((spec.size, len(widths)), dtype=np.int64)
    for j, probs in enumerate(conditionals):
        cum = np.cumsum(probs[classes], axis=1)
        codes[:, j] = np.minimum((rng.random((spec.size, 1)) * cum[:, -1:] > cum).sum(axis=1),
                                 widths[j] - 1)
    numeric = np.empty((spec.size, spec.numeric_variables))
    for k in range(spec.numeric_variables):
        means = rng.uniform(-2.0, 2.0, size=spec.n_classes) * (1.0 + 2.0 * s)
        numeric[:, k] = rng.normal(means[classes], 1.0)
    return codes, numeric, rng


class TestLatentClassGenerator:
    def test_equals_inline_inverse_cdf_reference(self, monkeypatch):
        spec = SyntheticGeneratorSpec("latent-class", size=500, seed=6, n_variables=4,
                                      n_classes=3, category_width=(2, 3, 4, 3),
                                      numeric_variables=1)
        codes, numeric, ref_rng = _reference_latent_class(spec)
        made, default_rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: made.append(default_rng(seed)) or made[-1])
        pool = synth_generate(spec)
        np.testing.assert_array_equal(pool.codes[:, :4], codes)
        np.testing.assert_array_equal(pool.numeric, numeric)
        assert len(made) == 1
        assert made[0].bit_generator.state == ref_rng.bit_generator.state

    def test_single_class_is_independent(self):
        spec = SyntheticGeneratorSpec("latent-class", size=10 ** 4, seed=3,
                                      n_variables=5, n_classes=1, category_width=3)
        pool = synth_generate(spec)
        for i, j in itertools.combinations(range(5), 2):
            assert cramers_v(pool, i, j) < 0.05

    def test_many_classes_induce_dependence(self):
        spec = SyntheticGeneratorSpec("latent-class", size=5000, seed=3,
                                      n_variables=6, n_classes=4,
                                      category_width=4, dependence=0.9)
        pool = synth_generate(spec)
        vs = [cramers_v(pool, i, j) for i, j in itertools.combinations(range(6), 2)]
        assert max(vs) > 0.5

    def test_deterministic_and_valid(self):
        spec = SyntheticGeneratorSpec("latent-class", size=300, seed=9,
                                      n_variables=4, category_width=3)
        a = synth_generate(spec)
        b = synth_generate(spec)
        assert a.rows == b.rows
        a.validate()

    def test_numeric_variables_supported(self):
        spec = SyntheticGeneratorSpec("latent-class", size=400, seed=2,
                                      n_variables=3, numeric_variables=2)
        pool = synth_generate(spec)
        assert pool.schema.n_variables == 5
        assert pool.schema.variables[3].is_numerical
        pool.validate()
        codes = pool_to_codes(pool)
        assert codes.shape == (400, 5)


class TestBnGroundTruth:
    def test_empirical_joint_matches_analytic(self):
        spec = SyntheticGeneratorSpec("bn-ground-truth", size=10 ** 5, seed=7,
                                      n_variables=3, category_width=3)
        pool = synth_generate(spec)
        dag, cpts = bn_ground_truth_model(spec)
        analytic = joint_distribution(dag, cpts)
        codes = pool_to_codes(pool)
        empirical = np.zeros(analytic.shape)
        np.add.at(empirical, tuple(codes.T), 1.0)
        empirical /= codes.shape[0]
        tv = 0.5 * np.abs(analytic - empirical).sum()
        assert tv < 0.01

    def test_parent_cap_respected(self):
        spec = SyntheticGeneratorSpec("bn-ground-truth", size=10, seed=1,
                                      n_variables=8, category_width=2, max_parents=2)
        dag, _ = bn_ground_truth_model(spec)
        assert all(len(p) <= 2 for p in dag.parents)


class TestSpecParsing:
    def test_json_roundtrip(self):
        doc = {"kind": "latent-class", "size": 100, "seed": 4,
               "n_variables": 3, "category_width": [2, 3, 4]}
        spec = spec_from_json(doc)
        assert spec.widths() == (2, 3, 4)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            spec_from_json({"kind": "toy-appendix-a", "size": 5, "frobnicate": 1})

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticGeneratorSpec("latent-class", size=10, dependence=1.5)
        with pytest.raises(ConfigError):
            SyntheticGeneratorSpec("latent-class", size=-1)
        with pytest.raises(ConfigError):
            SyntheticGeneratorSpec("nope", size=10)
