"""VAE: latent parameterization, loss, training, sampling."""

import tracemalloc

import numpy as np
import pytest

from agentsynth.dataset import (
    AgentPool,
    EncodedMatrix,
    Schema,
    VariableSpec,
    decode_rows,
    draw_categories,
    encode_pool,
    matrix_to_codes,
)
from agentsynth import metrics
from agentsynth import vae as vae_module
from agentsynth.errors import ConfigError, DataError, DivergenceError, SchemaError
from agentsynth.neural import (
    backward,
    forward,
    mlp_to_dict,
    parameters,
    rmsprop_init,
    rmsprop_step,
    softmax,
)
from agentsynth.vae import (
    LatentParams,
    TrainConfig,
    build_vae,
    decode,
    encode,
    load_checkpoint,
    loss_and_grads,
    sample,
    save_checkpoint,
    train,
    vae_from_dict,
    vae_to_dict,
    write_training_log,
)

from conftest import categorical_schema, random_categorical_pool
from oracles import (PROB_FLOOR, encoded_spans, evaluate_loss, loss, per_head_forward,
                     reparameterize, rmsprop_per_block)


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
    return AgentPool.from_rows(schema, rows, "train")


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
        model = build_vae(pool.schema, (4,), 2, 1.0, np.random.default_rng(4))
        config = TrainConfig(hidden=(4,), latent_dim=2, beta=1.0, epochs=0)
        result = train(enc, pool, config, np.random.default_rng(4))
        for before, after in zip(parameters(model.encoder), parameters(result.model.encoder)):
            np.testing.assert_array_equal(before, after)

    def test_builds_the_architecture_of_its_config(self, rng):
        pool = random_categorical_pool(rng, [3, 2, 4], 30)  # 9 encoded columns
        config = TrainConfig(hidden=(7, 5), latent_dim=3, beta=0.37, epochs=1, batch_size=16)
        model = train(encode_pool(pool), pool, config, 0).model
        assert [layer.weights.shape for layer in model.encoder.layers] == \
            [(7, 9), (5, 7), (6, 5)]
        assert [layer.weights.shape for layer in model.decoder.layers] == \
            [(5, 3), (7, 5), (9, 7)]
        assert (model.latent_dim, model.beta) == (3, 0.37)

    def test_initial_weights_follow_the_generator(self, rng):
        pool = random_categorical_pool(rng, [3, 2], 20)
        enc = encode_pool(pool)
        config = TrainConfig(hidden=(4,), latent_dim=2, epochs=2, batch_size=8)
        untrained = TrainConfig(hidden=(4,), latent_dim=2, epochs=0)
        assert vae_to_dict(train(enc, pool, config, 5).model) == \
            vae_to_dict(train(enc, pool, config, np.random.default_rng(5)).model)
        assert vae_to_dict(train(enc, pool, untrained, 5).model) != \
            vae_to_dict(train(enc, pool, untrained, 6).model)

    def test_grid_leaves_the_generator_undrawn(self, rng):
        pool = random_categorical_pool(rng, [3, 2], 20)
        config = TrainConfig(epochs=1, batch_size=8, hidden_options=[(4,)], latent_options=[2],
                             beta_options=[0.5], selection_samples=20)
        generator = np.random.default_rng(9)
        train(encode_pool(pool), pool, config, generator)
        assert generator.random() == np.random.default_rng(9).random()

    def test_overfits_single_repeated_row(self, rng):
        schema = categorical_schema([3, 4, 2])
        row = ("c1", "c3", "c0")
        pool = AgentPool.from_rows(schema, (row,) * 32, "train")
        enc = encode_pool(pool)
        model = build_vae(schema, (8,), 2, 0.01, np.random.default_rng(2))
        eps0 = np.zeros((32, 2))
        before = evaluate_loss(model, enc.values, eps0).total
        config = TrainConfig(hidden=(8,), latent_dim=2, beta=0.01, epochs=300, batch_size=32,
                             seed=5, learning_rate=0.01)
        result = train(enc, pool, config, np.random.default_rng(2))
        after = evaluate_loss(result.model, enc.values, eps0).total
        assert after < before / 10

    def test_loss_trend_downward(self, rng):
        pool = random_categorical_pool(rng, [3, 3, 2], 120)
        enc = encode_pool(pool)
        config = TrainConfig(hidden=(8,), latent_dim=3, beta=0.1, epochs=30, batch_size=32,
                             seed=1, learning_rate=0.005)
        result = train(enc, pool, config, rng)
        assert result.history[-1]["total"] < result.history[0]["total"]

    def test_fixed_seed_reproducible(self, rng):
        pool = random_categorical_pool(rng, [3, 2], 40)
        enc = encode_pool(pool)
        config = TrainConfig(hidden=(4,), latent_dim=2, beta=1.0, epochs=5, batch_size=16,
                             seed=11)
        r1 = train(enc, pool, config, 3)
        r2 = train(enc, pool, config, 3)
        for a, b in zip(parameters(r1.model.decoder), parameters(r2.model.decoder)):
            np.testing.assert_array_equal(a, b)

    def test_grid_search_selects_and_records(self, rng):
        pool = random_categorical_pool(rng, [3, 2, 2, 2], 80)
        enc = encode_pool(pool)
        config = TrainConfig(epochs=3, batch_size=32, seed=2,
                             hidden_options=[(4,), (6,)], latent_options=[2],
                             beta_options=[0.1], selection_samples=200)
        result = train(enc, pool, config, rng)
        assert len(result.grid_records) == 2
        assert result.selection_score == min(r["selection_srmse"] for r in result.grid_records)

    def test_selection_scores_against_the_validation_codes(self, rng):
        """The validation joint is binned from the validation pool's own
        values. Under these training incomes' mean and std, the standardized
        round trip of a validation income on the bin edge 50 lands just
        below it, in the first bin."""
        schema = _mixed_schema()
        train_pool = AgentPool.from_rows(schema, tuple(
            (age, "1", "f", income) for age, income in zip((10.0, 20.0, 30.0, 40.0),
                                                           (8.0, 3.0, 16.0, 5.0))), "train")
        validation = AgentPool.from_rows(schema, ((20.0, "2", "m", 50.0),), "validation")
        enc = encode_pool(train_pool)
        round_trip = matrix_to_codes(encode_pool(validation, enc.standardization))
        assert (validation.codes[0, 3], round_trip[0, 3]) == (1, 0)
        config = TrainConfig(epochs=1, batch_size=4, seed=6, hidden_options=[(4,)],
                             latent_options=[2], beta_options=[0.5],
                             selection_variables=["income"], selection_samples=51)
        result = train(enc, validation, config, rng)
        # the selection draw of the only grid point, on its third substream
        select = np.random.default_rng(np.random.SeedSequence(6, spawn_key=(0,)).spawn(3)[2])
        generated = metrics.frequency_distribution_from_codes(
            sample(result.model, 51, select).codes, schema.value_counts, (3,))

        def score(codes):
            return metrics.srmse(generated, metrics.frequency_distribution_from_codes(
                codes, schema.value_counts, (3,)))

        assert result.selection_score == score(validation.codes) != score(round_trip)

    def test_architecture_is_checked_and_held_as_a_tuple(self):
        assert TrainConfig(hidden=[4, 3]).hidden == (4, 3)
        assert (TrainConfig().hidden, TrainConfig().latent_dim, TrainConfig().beta) == \
            ((50,), 10, 0.5)
        with pytest.raises(ConfigError, match="layer widths must be >= 1"):
            TrainConfig(hidden=[4, 0])
        with pytest.raises(ConfigError, match="beta must be positive"):
            TrainConfig(beta=0.0)

    def test_partial_grid_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(hidden_options=[(4,)]).grid()

    @pytest.mark.parametrize("hidden, latent, beta", [
        ([(4,)], [2], [0.5, -1.0]),
        ([(4,), (0,)], [2], [0.5]),
        ([(4,)], [2, 0], [0.5]),
        ([], [2], [0.5]),
    ], ids=["beta", "hidden-width", "latent-width", "no-hidden-option"])
    def test_invalid_grid_point_rejected(self, hidden, latent, beta):
        # grid() runs before any training, so every point is checked there
        with pytest.raises(ConfigError):
            TrainConfig(hidden_options=hidden, latent_options=latent, beta_options=beta).grid()


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

    @pytest.mark.parametrize("harden", ["argmax", "sample"])
    def test_grouped_heads_sample_the_per_head_pool(self, monkeypatch, harden):
        # width-8 and width-9 heads, each width twice and apart, over several
        # decode blocks: the pool is the one a per-head softmax draws (a
        # rounding change shows in test_neural's bit test before it moves
        # an argmax or an inverse-CDF draw here)
        rng = np.random.default_rng(8)
        model = build_vae(categorical_schema([8, 9, 3, 8, 9]), (12,), 3, 0.5, rng)
        model.decoder.layers[-1].weights *= 6.0
        pool = sample(model, 3000, 17, harden=harden)
        monkeypatch.setattr(vae_module, "forward", per_head_forward)
        want = sample(model, 3000, 17, harden=harden)
        np.testing.assert_array_equal(pool.codes, want.codes)

    def test_softmax_sampling_mode(self, rng):
        schema = categorical_schema([3])
        model = build_vae(schema, (), 1, 1.0, rng)
        pool = sample(model, 500, 3, harden="sample")
        seen = {row[0] for row in pool.rows}
        assert seen <= {"c0", "c1", "c2"}
        assert len(seen) > 1  # softmax draws spread over categories


def _reference_sample_hardened(model, count, seed):
    """Softmax hardening one one-hot block at a time, as vae.sample did
    before it drew every head of one width at once."""
    rng = np.random.default_rng(seed)
    out = decode(model, rng.standard_normal((count, model.latent_dim)))
    for start, stop, one_hot in encoded_spans(model.schema):
        if not one_hot:
            continue
        probs = out[:, start:stop]
        cum = np.cumsum(probs, axis=1)
        idx = ((rng.random((count, 1)) * cum[:, -1:]) > cum).sum(axis=1)
        hard = np.zeros_like(probs)
        hard[np.arange(count), np.minimum(idx, probs.shape[1] - 1)] = 1.0
        out[:, start:stop] = hard
    matrix = EncodedMatrix(out, dict(model.standardization), model.schema)
    return decode_rows(matrix, rng=rng), rng


class TestGroupedHardening:
    @pytest.mark.parametrize("mode", ["mixed", "discretize-all"])
    def test_matches_per_block_reference(self, rng, mode):
        # heads of widths 3 and 2 interleave; in discretize-all mode the two
        # numerics add width-2 heads between them
        schema = Schema(_interleaved_schema().variables, mode)
        train_pool = AgentPool.from_rows(schema, _interleaved_pool(rng, 40).rows)
        model = build_vae(schema, (5,), 3, 1.0, rng)
        model.standardization = dict(encode_pool(train_pool).standardization)
        slow, slow_rng = _reference_sample_hardened(model, 300, 31)
        fast_rng = np.random.default_rng(31)
        fast = sample(model, 300, fast_rng, harden="sample")
        assert fast.rows == slow.rows
        np.testing.assert_array_equal(fast.codes, slow.codes)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
        assert len({row[0] for row in fast.rows}) > 1  # the draws spread


def _one_shot_sample(model, count, seed, harden):
    """vae.sample decoding the whole batch at once: z, then one hardening
    uniform per row and softmax head (head after head), then the bin draws
    of decode_rows."""
    rng = np.random.default_rng(seed)
    schema = model.schema
    out = decode(model, rng.standard_normal((count, model.latent_dim)))
    if harden == "sample":
        hot = [(start, stop) for start, stop, one_hot in encoded_spans(schema) if one_hot]
        for (start, stop), uniforms in zip(hot, rng.random((len(hot), count))):
            probs = out[:, start:stop]
            hard = np.zeros_like(probs)
            hard[np.arange(count), draw_categories(probs, uniforms)] = 1.0
            out[:, start:stop] = hard
    matrix = EncodedMatrix(out, dict(model.standardization), schema)
    return decode_rows(matrix, rng=rng), rng


def _trained_shape_model(rng, mode, hidden, latent_dim):
    schema = Schema(_interleaved_schema().variables, mode)
    train_pool = AgentPool.from_rows(schema, _interleaved_pool(rng, 40).rows)
    model = build_vae(schema, hidden, latent_dim, 1.0, rng)
    model.standardization = dict(encode_pool(train_pool).standardization)
    return model


def _assert_same_sample(model, count, harden, seed=17):
    expected, expected_rng = _one_shot_sample(model, count, seed, harden)
    sample_rng = np.random.default_rng(seed)
    pool = sample(model, count, sample_rng, harden=harden)
    np.testing.assert_array_equal(pool.codes, expected.codes)
    np.testing.assert_array_equal(pool.numeric.view(np.int64), expected.numeric.view(np.int64))
    assert sample_rng.random() == expected_rng.random()


class TestBlockwiseSample:
    @pytest.mark.parametrize("count", [0, 1, 7, 8, 50])
    @pytest.mark.parametrize("harden", ["argmax", "sample"])
    @pytest.mark.parametrize("mode", ["mixed", "discretize-all"])
    def test_blocks_of_seven_match_one_shot_decode(self, monkeypatch, mode, harden, count):
        # discretize-all draws the numerics inside their bins after decoding
        model = _trained_shape_model(np.random.default_rng(5), mode, (5,), 3)
        monkeypatch.setattr(vae_module, "ROW_BLOCK", 7)
        decoded, real_decode = [], vae_module.decode
        monkeypatch.setattr(vae_module, "decode",
                            lambda m, z: decoded.append(len(z)) or real_decode(m, z))
        _assert_same_sample(model, count, harden)
        # count // 7 near-equal blocks, none shorter than 7 rows unless the
        # whole count is
        assert sum(decoded) == count and len(decoded) == max(1, count // 7)
        assert min(decoded) >= min(count, 7)

    @pytest.mark.parametrize("harden", ["argmax", "sample"])
    def test_default_blocks_match_one_shot_decode_of_a_wide_model(self, harden):
        # the benchmark's decoder widths, over three blocks
        model = _trained_shape_model(np.random.default_rng(6), "mixed", (64,), 8)
        _assert_same_sample(model, 3 * vae_module.ROW_BLOCK + 5, harden)

    @pytest.mark.parametrize("harden", ["argmax", "sample"])
    @pytest.mark.parametrize("mode", ["mixed", "discretize-all"])
    def test_traced_peak_does_not_grow_with_the_count(self, mode, harden):
        # tracemalloc counts every allocation, so peaks are the same on every
        # run. Besides the pool's arrays, only z and the hardening uniforms,
        # drawn whole before decoding, may grow with the count; decoding the
        # whole batch at once took 67 MB more at 50k rows than at 5k.
        model = _trained_shape_model(np.random.default_rng(6), mode, (64,), 8)
        heads = sum(head.kind == "softmax" for head in model.decoder.heads)
        rest = []
        for count in (5_000, 50_000):
            tracemalloc.start()
            try:
                pool = sample(model, count, 3, harden=harden)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            drawn = 8 * count * (model.latent_dim + (heads if harden == "sample" else 0))
            rest.append(peak - pool.codes.nbytes - pool.numeric.nbytes - drawn)
        assert rest[1] <= 1.1 * rest[0]


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
        config = TrainConfig(hidden=(4,), latent_dim=2, beta=0.5, epochs=3, batch_size=16, seed=2)
        result = train(enc, pool, config, rng)
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


def _reference_loss_and_grads(model, x, eps):
    """Reference for the fused step: neural.forward/backward with the
    per-block loss on probabilities and the floored -x/p gradient through
    the softmax Jacobian. The two agree wherever no probability falls below
    PROB_FLOOR."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_rows = x.shape[0]
    d = model.latent_dim
    enc_out, enc_cache = forward(model.encoder, x)
    mu, lv = enc_out[:, :d], enc_out[:, d:]
    sigma = np.exp(lv / 2.0)
    x_hat, dec_cache = forward(model.decoder, mu + sigma * eps)
    terms = loss(model, x, x_hat, LatentParams(mu, lv))
    d_hat = np.zeros_like(x_hat)
    col = 0
    for head in model.decoder.heads:
        sl = slice(col, col + head.width)
        col += head.width
        if head.kind == "linear":
            d_hat[:, sl] = (x_hat[:, sl] - x[:, sl]) / n_rows
        else:
            safe = np.maximum(x_hat[:, sl], PROB_FLOOR)
            d_hat[:, sl] = np.where(x_hat[:, sl] > PROB_FLOOR, -x[:, sl] / safe, 0.0) / n_rows
    dec_grads, dz = backward(model.decoder, dec_cache, d_hat)
    d_mu = dz + model.beta * mu / n_rows
    d_lv = dz * eps * 0.5 * sigma + model.beta * 0.5 * (np.exp(lv) - 1.0) / n_rows
    enc_grads, _ = backward(model.encoder, enc_cache, np.concatenate([d_mu, d_lv], axis=1))
    return terms, enc_grads, dec_grads


def _interleaved_schema():
    """Numeric and one-hot blocks of different widths, with equal-width
    heads apart from each other, so their group is gathered by index."""
    return Schema((
        VariableSpec("a", "categorical", categories=("1", "2", "3")),
        VariableSpec("age", "numerical-cont", bin_edges=(0.0, 50.0, 100.0)),
        VariableSpec("b", "categorical", categories=("x", "y", "z")),
        VariableSpec("sex", "binary", categories=("f", "m")),
        VariableSpec("income", "numerical-cont", bin_edges=(0.0, 50.0, 100.0)),
        VariableSpec("c", "categorical", categories=("p", "q", "r")),
        VariableSpec("owner", "binary", categories=("n", "y")),
    ), "mixed")


def _interleaved_pool(rng, n):
    rows = tuple(
        (rng.choice(["1", "2", "3"]), float(rng.uniform(0, 100)), rng.choice(["x", "y", "z"]),
         rng.choice(["f", "m"]), float(rng.uniform(0, 100)), rng.choice(["p", "q", "r"]),
         rng.choice(["n", "y"]))
        for _ in range(n))
    return AgentPool.from_rows(_interleaved_schema(), rows, "train")


def _assert_close(actual, expected, rtol=1e-12):
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    assert np.max(np.abs(actual - expected), initial=0.0) <= rtol * scale


class TestFusedStep:
    @pytest.mark.parametrize("case", ["lc20", "interleaved", "one-row"])
    def test_matches_reference(self, case):
        rng = np.random.default_rng(31)
        if case == "lc20":
            pool = random_categorical_pool(rng, [4] * 20, 64)
            model = build_vae(pool.schema, (64,), 8, 0.5, rng)
        else:
            pool = _interleaved_pool(rng, 48)
            model = build_vae(pool.schema, (7, 5), 3, 0.37, rng)
        x = encode_pool(pool).values[:1 if case == "one-row" else None]
        eps = rng.standard_normal((len(x), model.latent_dim))
        terms, enc_grads, dec_grads = loss_and_grads(model, x, eps)
        ref_terms, ref_enc, ref_dec = _reference_loss_and_grads(model, x, eps)
        for name in ("total", "numeric", "categorical", "kl"):
            _assert_close(getattr(terms, name), getattr(ref_terms, name))
        assert len(enc_grads) == len(ref_enc) and len(dec_grads) == len(ref_dec)
        for got, want in zip(enc_grads + dec_grads, ref_enc + ref_dec):
            assert got.shape == want.shape
            _assert_close(got, want)
        assert evaluate_loss(model, x, eps) == terms

    def test_layout_groups_heads_by_width(self, rng):
        lc20 = build_vae(categorical_schema([4] * 20), (8,), 2, 1.0, rng).layout
        assert [(g.columns, g.count, g.width) for g in lc20.groups] == [(slice(0, 80), 20, 4)]
        assert lc20.numeric is None
        mixed = build_vae(_interleaved_schema(), (4,), 2, 1.0, rng).layout
        by_width = {g.width: g for g in mixed.groups}
        # columns: a 0-2, age 3, b 4-6, sex 7-8, income 9, c 10-12, owner 13-14
        np.testing.assert_array_equal(by_width[3].columns, [0, 1, 2, 4, 5, 6, 10, 11, 12])
        np.testing.assert_array_equal(by_width[2].columns, [7, 8, 13, 14])
        assert (by_width[3].count, by_width[2].count) == (3, 2)
        np.testing.assert_array_equal(mixed.numeric, [3, 9])

    def test_saturated_head_keeps_learning(self, rng):
        # one head's true class sits 60 nats below the others' logit, so
        # its probability (~1e-26) is under PROB_FLOOR
        schema = categorical_schema([4, 3])
        model = build_vae(schema, (5,), 2, 1.0, rng)
        last = model.decoder.layers[-1]
        last.weights[...] = 0.0
        last.biases[...] = [60.0, 0.0, 0.0, 0.0, 0.5, -0.5, 0.0]
        x = np.array([[0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0]] * 2)
        eps = rng.standard_normal((2, 2))
        terms, _, dec_grads = loss_and_grads(model, x, eps)
        logits = last.biases
        s = np.concatenate([softmax(logits[:4]), softmax(logits[4:])])
        assert s[3] < PROB_FLOOR
        # with zero output weights every row's logits are the biases, so the
        # bias gradient is the batch sum of (s - x) / B
        _assert_close(dec_grads[-1], s - x[0])
        assert dec_grads[-1][3] < -0.99
        _, _, ref_dec = _reference_loss_and_grads(model, x, eps)
        np.testing.assert_array_equal(ref_dec[-1][:4], 0.0)
        lse = lambda v: v.max() + np.log(np.sum(np.exp(v - v.max())))
        expected = (lse(logits[:4]) - logits[3]) + (lse(logits[4:]) - logits[5])
        assert np.isfinite(terms.categorical)
        _assert_close(terms.categorical, expected)
        assert terms.categorical > 60.0 > -np.log(PROB_FLOOR)


class TestPackedParameters:
    def _model_and_batch(self, rng):
        pool = _interleaved_pool(rng, 24)
        model = build_vae(pool.schema, (6,), 2, 0.5, rng)
        return model, encode_pool(pool).values

    def test_three_steps_bit_equal_to_per_block_update(self, rng):
        model, x = self._model_and_batch(rng)
        lr, rho, eps_rms = 0.01, 0.9, 1e-8
        blocks = [p.copy() for p in parameters(model.encoder) + parameters(model.decoder)]
        accs = [np.zeros_like(p) for p in blocks]
        listed = [p.copy() for p in blocks]
        listed_accs = [np.zeros_like(p) for p in blocks]
        state = rmsprop_init(model.packed.values, lr)
        for _ in range(3):
            _, enc_grads, dec_grads = loss_and_grads(
                model, x, rng.standard_normal((len(x), 2)))
            grads = [g.copy() for g in enc_grads + dec_grads]
            for k, g in enumerate(grads):
                # the per-block update as a plain formula
                accs[k] = rho * accs[k] + (1.0 - rho) * g * g
                blocks[k] = blocks[k] - lr * g / np.sqrt(accs[k] + eps_rms)
            rmsprop_per_block(listed, grads, listed_accs, lr)
            rmsprop_step(model.packed.values, model.packed.grads, state)
            current = parameters(model.encoder) + parameters(model.decoder)
            for got, per_block, via_list in zip(current, blocks, listed):
                np.testing.assert_array_equal(got, per_block)
                np.testing.assert_array_equal(got, via_list)

    def test_in_place_edit_is_seen_by_forward(self, rng):
        model, x = self._model_and_batch(rng)
        eps = rng.standard_normal((len(x), 2))
        for p in parameters(model.encoder) + parameters(model.decoder):
            assert np.shares_memory(p, model.packed.values)
        before = encode(model, x).mean.copy()
        loss_before = evaluate_loss(model, x, eps).total
        parameters(model.encoder)[1][0] += 1.0
        assert not np.array_equal(encode(model, x).mean, before)
        assert evaluate_loss(model, x, eps).total != loss_before

    def test_non_finite_gradient_names_grid_point_epoch_and_block(self, rng, monkeypatch):
        model, x = self._model_and_batch(rng)
        pool = _interleaved_pool(rng, 24)
        enc = encode_pool(pool)
        real = vae_module.loss_and_grads
        calls = []

        def poisoned(m, batch, eps):
            terms, enc_grads, dec_grads = real(m, batch, eps)
            calls.append(1)
            if len(calls) == 3:
                # the first element of a block and a later one
                dec_grads[1][0] = dec_grads[1][2] = np.nan
            return terms, enc_grads, dec_grads

        monkeypatch.setattr(vae_module, "loss_and_grads", poisoned)
        n_enc = len(parameters(model.encoder))
        with pytest.raises(DivergenceError,
                           match=rf"grid point 0, epoch 1: non-finite gradient in "
                                 rf"parameter block {n_enc + 1}$"):
            train(enc, pool, TrainConfig(hidden=(6,), latent_dim=2, beta=0.5, epochs=3,
                                         batch_size=12, seed=4), rng)


class TestCheckpointValidation:
    def _doc(self, rng):
        pool = _interleaved_pool(rng, 16)
        model = build_vae(pool.schema, (5,), 2, 0.5, rng)
        model.standardization = dict(encode_pool(pool).standardization)
        return vae_to_dict(model)

    def test_valid_document_loads(self, rng):
        doc = self._doc(rng)
        assert vae_to_dict(vae_from_dict(doc)) == doc

    @pytest.mark.parametrize("corrupt, message", [
        (lambda d: d["decoder"]["layers"][-1]["biases"].pop(), "biases"),
        (lambda d: d["decoder"]["layers"][0]["weights"].pop(), r"layer 0: weights \(4, 2\)"),
        (lambda d: [d["decoder"]["layers"][0][k].pop() for k in ("weights", "biases")],
         "layer 1: input width 5 does not match the 4 outputs of layer 0"),
        (lambda d: d["decoder"]["layers"][0]["weights"][0].pop(),
         "^VAE decoder layer 0: weights row 1 has length 2, not 1 like row 0$"),
        (lambda d: d["decoder"]["heads"].pop(), "heads cover"),
        (lambda d: d["decoder"]["heads"][0].update(kind="linear"), "mirror the schema"),
        (lambda d: d["decoder"]["heads"][0].update(kind="sigmoid"), "bad head"),
        (lambda d: [row.pop() for row in d["encoder"]["layers"][0]["weights"]],
         "encoder input width"),
        (lambda d: d["encoder"]["heads"][0].update(width=3), "heads cover"),
        (lambda d: d.update(latent_dim=3), "latent width 3"),
        (lambda d: d.pop("schema"), "lacks 'schema'"),
        (lambda d: d["decoder"].pop("heads"), "^VAE decoder lacks 'heads'$"),
        # values of the wrong JSON type are rejected, not coerced
        (lambda d: d.update(latent_dim="two"), "VAE latent_dim must be an integer, got 'two'"),
        (lambda d: d.update(latent_dim=2.0), "VAE latent_dim must be an integer"),
        (lambda d: d.update(beta="0.5"), "VAE beta must be a number"),
        (lambda d: d.update(beta=-0.5), "beta must be positive"),
        (lambda d: d.update(encoder=[]), r"VAE encoder must be an object, got \[\]"),
        (lambda d: d.update(decoder="net"), "VAE decoder must be an object"),
        (lambda d: d["decoder"]["heads"][0].update(width=3.0), "head width must be an integer"),
        # one (mean, std) pair of finite numbers per continuous variable
        (lambda d: d["standardization"].pop("income"), "^VAE standardization lacks 'income'$"),
        (lambda d: d["standardization"].update(income=None),
         "standardization of 'income' must be a list of numbers, got None"),
        (lambda d: d.pop("standardization"), "^a VAE checkpoint lacks 'standardization'$"),
        (lambda d: d.update(standardization=[]), "VAE standardization must be an object"),
        (lambda d: d["standardization"]["age"].append(1.0), "'age' must be a .mean, std. pair"),
        (lambda d: d["standardization"]["age"].__setitem__(1, float("nan")),
         "'age' must be a .mean, std. pair of finite numbers"),
        (lambda d: d["standardization"]["age"].__setitem__(0, "50"),
         "standardization of 'age' must be a list of numbers"),
    ])
    def test_inconsistent_document_is_data_error(self, rng, corrupt, message):
        doc = self._doc(rng)
        corrupt(doc)
        with pytest.raises(DataError, match=message):
            vae_from_dict(doc)

    @pytest.mark.parametrize("key", ["schema", "encoder", "decoder", "latent_dim", "beta",
                                     "standardization"])
    def test_missing_key_is_named(self, rng, key):
        doc = self._doc(rng)
        del doc[key]
        with pytest.raises(DataError, match=f"^a VAE checkpoint lacks '{key}'$"):
            vae_from_dict(doc)

    def test_format_is_checked_before_the_keys(self):
        with pytest.raises(DataError, match="^not a VAE checkpoint: 'agentsynth-bn'$"):
            vae_from_dict({"format": "agentsynth-bn"})

    @pytest.mark.parametrize("doc", [[], "vae", None, 3])
    def test_document_that_is_no_object_is_data_error(self, doc):
        with pytest.raises(DataError, match="a VAE checkpoint must be an object"):
            vae_from_dict(doc)

    def test_encoder_of_another_schema_is_rejected(self, rng):
        doc = self._doc(rng)
        other = build_vae(categorical_schema([3, 3]), (5,), 2, 0.5, rng)
        doc["encoder"] = mlp_to_dict(other.encoder)
        with pytest.raises(DataError, match="encoder input width 6"):
            vae_from_dict(doc)
