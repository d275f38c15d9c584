"""VAE: latent parameterization, loss, training, sampling."""

import numpy as np
import pytest

from agentsynth.dataset import (
    AgentPool,
    Schema,
    VariableSpec,
    encode_pool,
)
from agentsynth.errors import ConfigError, DataError, SchemaError
from agentsynth.neural import forward, parameters
from agentsynth.vae import (
    LatentParams,
    TrainConfig,
    build_vae,
    decode,
    encode,
    evaluate_loss,
    load_checkpoint,
    loss,
    loss_and_grads,
    reparameterize,
    sample,
    save_checkpoint,
    train,
    vae_from_dict,
    write_training_log,
)

from conftest import categorical_schema, random_categorical_pool


def _mixed_schema():
    return Schema(
        (
            VariableSpec("age", "numerical-cont", bin_edges=(0.0, 25.0, 50.0, 75.0, 100.0)),
            VariableSpec("size", "categorical", categories=("1", "2", "3")),
            VariableSpec("sex", "binary", categories=("f", "m")),
            VariableSpec("income", "numerical-cont", bin_edges=(0.0, 50.0, 100.0)),
        ),
        "mixed",
    )


def _mixed_pool(rng, n=64):
    schema = _mixed_schema()
    rows = tuple(
        (float(rng.uniform(0, 100)), rng.choice(["1", "2", "3"]),
         rng.choice(["f", "m"]), float(rng.uniform(0, 100)))
        for _ in range(n)
    )
    return AgentPool(schema, rows, "train")


class TestEncode:
    def test_zero_encoder_gives_zero_latents(self, rng):
        schema = categorical_schema([3, 2])
        model = build_vae(schema, (4,), 5, 1.0, rng)
        for layer in model.encoder.layers:
            layer.weights = np.zeros_like(layer.weights)
            layer.biases = np.zeros_like(layer.biases)
        lp = encode(model, rng.normal(size=5))
        assert np.all(lp.mean == 0.0)
        assert np.all(lp.log_variance == 0.0)

    def test_two_heads_of_latent_width(self, rng):
        schema = categorical_schema([3, 2])
        model = build_vae(schema, (8,), 5, 1.0, rng)
        lp = encode(model, rng.normal(size=5))
        assert lp.mean.shape == (5,)
        assert lp.log_variance.shape == (5,)

    def test_matches_forward_oracle(self, rng):
        schema = categorical_schema([3, 2])
        model = build_vae(schema, (4,), 2, 1.0, rng)
        x = rng.normal(size=5)
        out, _ = forward(model.encoder, x)
        lp = encode(model, x)
        np.testing.assert_allclose(np.concatenate([lp.mean, lp.log_variance]), out, atol=1e-12)

    def test_width_mismatch_rejected(self, rng):
        schema = categorical_schema([3, 2])
        model = build_vae(schema, (4,), 2, 1.0, rng)
        with pytest.raises(SchemaError):
            encode(model, np.zeros(7))

    def test_decoder_mirrors_encoder(self, rng):
        schema = categorical_schema([3, 2])
        model = build_vae(schema, (16, 8), 2, 1.0, rng)
        enc_widths = [l.weights.shape[0] for l in model.encoder.layers[:-1]]
        dec_widths = [l.weights.shape[0] for l in model.decoder.layers[:-1]]
        assert dec_widths == list(reversed(enc_widths))


class TestReparameterize:
    def test_zero_epsilon_returns_mean(self):
        lp = LatentParams(np.array([1.0, -2.0]), np.array([0.3, 0.7]))
        np.testing.assert_array_equal(reparameterize(lp, np.zeros(2)), lp.mean)

    def test_vanishing_variance(self):
        lp = LatentParams(np.array([0.5]), np.array([-50.0]))
        z = reparameterize(lp, np.array([3.0]))
        assert abs(z[0] - 0.5) < 1e-10

    def test_monte_carlo_mean(self, rng):
        mu, lv = 0.7, -0.4
        n = 10 ** 5
        lp = LatentParams(np.full((n, 1), mu), np.full((n, 1), lv))
        z = reparameterize(lp, rng.standard_normal((n, 1)))
        tol = 4 * np.exp(lv / 2) / np.sqrt(n)
        assert abs(z.mean() - mu) < tol


class TestLoss:
    def test_kl_zero_for_standard_normal(self, rng):
        schema = categorical_schema([2])
        model = build_vae(schema, (), 3, 1.0, rng)
        x = np.array([[1.0, 0.0]])
        lp = LatentParams(np.zeros((1, 3)), np.zeros((1, 3)))
        terms = loss(model, x, np.array([[0.5, 0.5]]), lp)
        assert terms.kl == 0.0

    def test_kl_half_for_unit_mean(self, rng):
        schema = categorical_schema([2])
        model = build_vae(schema, (), 1, 1.0, rng)
        lp = LatentParams(np.array([[1.0]]), np.array([[0.0]]))
        terms = loss(model, np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]), lp)
        assert abs(terms.kl - 0.5) < 1e-15

    def test_perfect_one_hot_reconstruction(self, rng):
        schema = categorical_schema([4])
        model = build_vae(schema, (), 2, 1.0, rng)
        x = np.array([[0.0, 1.0, 0.0, 0.0]])
        lp = LatentParams(np.zeros((1, 2)), np.zeros((1, 2)))
        terms = loss(model, x, x.copy(), lp)
        assert terms.categorical == 0.0

    def test_kl_nonnegative_property(self, rng):
        schema = categorical_schema([2])
        model = build_vae(schema, (), 4, 1.0, rng)
        x = np.array([[1.0, 0.0]])
        xh = np.array([[0.5, 0.5]])
        for _ in range(200):
            lp = LatentParams(rng.normal(scale=3, size=(1, 4)),
                              rng.normal(scale=2, size=(1, 4)))
            assert loss(model, x, xh, lp).kl >= 0.0

    def test_total_combines_terms_with_beta(self, rng):
        pool = _mixed_pool(rng, n=8)
        enc = encode_pool(pool)
        model = build_vae(pool.schema, (6,), 2, 0.37, rng)
        eps = rng.standard_normal((8, 2))
        terms = evaluate_loss(model, enc.values, eps)
        assert abs(terms.total - (terms.numeric + terms.categorical + 0.37 * terms.kl)) < 1e-12


class TestGradients:
    def test_full_loss_matches_finite_differences(self, rng):
        # Oracle: central differences of the complete objective, epsilon fixed.
        pool = _mixed_pool(rng, n=6)
        enc = encode_pool(pool)
        model = build_vae(pool.schema, (5,), 2, 0.5, rng)
        eps = rng.standard_normal((6, 2))
        _, enc_grads, dec_grads = loss_and_grads(model, enc.values, eps)
        grads = enc_grads + dec_grads
        params = parameters(model.encoder) + parameters(model.decoder)
        h = 1e-5
        worst = 0.0
        for k, p in enumerate(params):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up = evaluate_loss(model, enc.values, eps).total
                p[idx] = orig - h
                down = evaluate_loss(model, enc.values, eps).total
                p[idx] = orig
                fd = (up - down) / (2 * h)
                err = abs(grads[k][idx] - fd) / max(abs(grads[k][idx]) + abs(fd), 1e-6)
                worst = max(worst, err)
        assert worst < 1e-4


class TestTrain:
    def test_zero_epochs_returns_unchanged(self, rng):
        pool = random_categorical_pool(rng, [3, 2], 20)
        enc = encode_pool(pool)
        model = build_vae(pool.schema, (4,), 2, 1.0, rng)
        result = train(model, enc, enc, TrainConfig(epochs=0))
        for before, after in zip(parameters(model.encoder), parameters(result.model.encoder)):
            np.testing.assert_array_equal(before, after)

    def test_overfits_single_repeated_row(self, rng):
        schema = categorical_schema([3, 4, 2])
        row = ("c1", "c3", "c0")
        pool = AgentPool(schema, (row,) * 32, "train")
        enc = encode_pool(pool)
        model = build_vae(schema, (8,), 2, 0.01, rng)
        eps0 = np.zeros((32, 2))
        before = evaluate_loss(model, enc.values, eps0).total
        config = TrainConfig(epochs=300, batch_size=32, seed=5, learning_rate=0.01)
        result = train(model, enc, enc, config)
        after = evaluate_loss(result.model, enc.values, eps0).total
        assert after < before / 10

    def test_loss_trend_downward(self, rng):
        pool = random_categorical_pool(rng, [3, 3, 2], 120)
        enc = encode_pool(pool)
        model = build_vae(pool.schema, (8,), 3, 0.1, rng)
        result = train(model, enc, enc, TrainConfig(epochs=30, batch_size=32, seed=1,
                                                    learning_rate=0.005))
        assert result.history[-1]["total"] < result.history[0]["total"]

    def test_fixed_seed_reproducible(self, rng):
        pool = random_categorical_pool(rng, [3, 2], 40)
        enc = encode_pool(pool)
        model = build_vae(pool.schema, (4,), 2, 1.0, np.random.default_rng(3))
        config = TrainConfig(epochs=5, batch_size=16, seed=11)
        r1 = train(model, enc, enc, config)
        r2 = train(model, enc, enc, config)
        for a, b in zip(parameters(r1.model.decoder), parameters(r2.model.decoder)):
            np.testing.assert_array_equal(a, b)

    def test_grid_search_selects_and_records(self, rng):
        pool = random_categorical_pool(rng, [3, 2, 2, 2], 80)
        enc = encode_pool(pool)
        model = build_vae(pool.schema, (4,), 2, 1.0, rng)
        config = TrainConfig(epochs=3, batch_size=32, seed=2,
                             hidden_options=[(4,), (6,)], latent_options=[2],
                             beta_options=[0.1], selection_samples=200)
        result = train(model, enc, enc, config)
        assert len(result.grid_records) == 2
        assert result.selection_score == min(r["selection_srmse"] for r in result.grid_records)

    def test_partial_grid_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(hidden_options=[(4,)]).grid()


class TestSample:
    def test_zero_count_empty_pool(self, rng):
        schema = categorical_schema([3, 2])
        model = build_vae(schema, (4,), 2, 1.0, rng)
        pool = sample(model, 0, 7)
        assert len(pool) == 0
        assert pool.provenance == "generated"

    def test_values_stay_in_schema(self, rng):
        pool = _mixed_pool(rng, n=64)
        enc = encode_pool(pool)
        model = build_vae(pool.schema, (6,), 2, 1.0, rng)
        model.standardization = dict(enc.standardization)
        out = sample(model, 200, 13)
        out.validate(strict_numeric=False)
        for row in out.rows:
            assert row[1] in ("1", "2", "3")
            assert row[2] in ("f", "m")
            assert np.isfinite(row[0]) and np.isfinite(row[3])

    def test_fixed_seed_reproducible(self, rng):
        schema = categorical_schema([3, 2])
        model = build_vae(schema, (4,), 2, 1.0, rng)
        assert sample(model, 50, 21).rows == sample(model, 50, 21).rows

    def test_softmax_sampling_mode(self, rng):
        schema = categorical_schema([3])
        model = build_vae(schema, (), 1, 1.0, rng)
        pool = sample(model, 500, 3, harden="sample")
        seen = {row[0] for row in pool.rows}
        assert seen <= {"c0", "c1", "c2"}
        assert len(seen) > 1  # softmax draws spread over categories


class TestCheckpoint:
    def test_roundtrip_preserves_sampling(self, rng, tmp_path):
        pool = _mixed_pool(rng, n=32)
        enc = encode_pool(pool)
        model = build_vae(pool.schema, (5,), 2, 0.5, rng)
        model.standardization = dict(enc.standardization)
        path = tmp_path / "vae.json"
        save_checkpoint(model, path, extra={"selection_score": 0.25})
        restored = load_checkpoint(path)
        assert sample(restored, 40, 9).rows == sample(model, 40, 9).rows
        assert restored.beta == model.beta
        assert restored.schema == model.schema

    def test_training_log_cells_are_plain_floats(self, rng, tmp_path):
        pool = random_categorical_pool(rng, [3, 2], 40)
        enc = encode_pool(pool)
        model = build_vae(pool.schema, (4,), 2, 0.5, rng)
        result = train(model, enc, enc, TrainConfig(epochs=3, batch_size=16, seed=2))
        path = tmp_path / "log.csv"
        write_training_log(result.history, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(result.history)
        for line, row in zip(lines[1:], result.history):
            cells = line.split(",")
            assert [float(c) for c in cells[2:]] == [
                row[k] for k in ("numeric", "categorical", "kl", "total")]

    def test_rejects_foreign_documents(self):
        with pytest.raises(DataError):
            vae_from_dict({"format": "something-else"})
