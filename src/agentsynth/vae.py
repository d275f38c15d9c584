"""Variational autoencoder over encoded agent pools.

The encoder maps an encoded row to the mean and log-variance of a Gaussian
latent; a reparameterized draw z = mu + exp(logvar/2) * eps feeds the
decoder, whose heads mirror the schema: linear outputs for continuous
numerics, softmax blocks for one-hot variables. The objective per row is

    0.5 * sum_num (x - xhat)^2                      reconstruction, numeric
  - sum_cat sum_j x_j log xhat_j                    reconstruction, categorical
  + beta * ( -0.5 * sum (1 + lv - mu^2 - e^lv) )    Gaussian KL to N(0, I)

averaged over the minibatch. Training uses RMSprop; hyperparameters can be
searched on a grid, with the winner picked by validation SRMSE of the
projected joint over a designated variable subset. Sampling draws
z ~ N(0, I), decodes, hardens categorical blocks, and de-standardizes
numerics into raw agent records.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .dataset import (
    AgentPool,
    EncodedMatrix,
    Schema,
    decode_rows,
    matrix_to_codes,
    schema_blocks,
    schema_from_json,
    schema_to_json,
)
from .errors import ConfigError, DataError, DivergenceError, SchemaError
from .neural import (
    Head,
    Mlp,
    backward,
    forward,
    init_mlp,
    mlp_from_dict,
    mlp_to_dict,
    parameters,
    rmsprop_init,
    rmsprop_step,
    set_parameters,
)

PROB_FLOOR = 1e-12
CHECKPOINT_FORMAT = "agentsynth-vae"
CHECKPOINT_VERSION = 1


@dataclass
class VaeModel:
    encoder: Mlp
    decoder: Mlp
    latent_dim: int
    beta: float
    schema: Schema
    standardization: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        if self.beta <= 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")


@dataclass(frozen=True)
class LatentParams:
    mean: np.ndarray
    log_variance: np.ndarray


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    learning_rate: float = 0.001
    rho: float = 0.9
    epsilon: float = 1e-8
    # grid search: None means "train the given model as-is"
    hidden_options: list[tuple[int, ...]] | None = None
    latent_options: list[int] | None = None
    beta_options: list[float] | None = None
    # model selection
    selection_variables: list[str] | None = None
    selection_samples: int | None = None
    harden: str = "argmax"  # or "sample": draw categories from the softmax

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.harden not in ("argmax", "sample"):
            raise ConfigError(f"unknown hardening rule {self.harden!r}")

    def grid(self) -> list[tuple[tuple[int, ...], int, float]] | None:
        opts = (self.hidden_options, self.latent_options, self.beta_options)
        if all(o is None for o in opts):
            return None
        if any(o is None for o in opts):
            raise ConfigError("grid search needs hidden, latent, and beta options together")
        return [
            (tuple(h), int(d), float(b))
            for h, d, b in itertools.product(self.hidden_options,
                                             self.latent_options,
                                             self.beta_options)
        ]


@dataclass
class TrainResult:
    model: VaeModel
    history: list[dict]
    grid_records: list[dict]
    selection_score: float | None


def decoder_heads(schema: Schema) -> tuple[Head, ...]:
    """Decoder output heads mirroring the schema's encoded blocks."""
    heads = []
    for var, block in zip(schema.variables, schema_blocks(schema)):
        if block.kind == "one-hot":
            heads.append(Head("softmax", var.one_hot_width))
        else:
            heads.append(Head("linear", 1))
    return tuple(heads)


def build_vae(schema: Schema, hidden: tuple[int, ...], latent_dim: int, beta: float,
              rng: np.random.Generator) -> VaeModel:
    """Encoder n -> hidden -> (mu, logvar); decoder with the mirrored stack."""
    n = schema.encoded_width
    encoder = init_mlp(n, tuple(hidden),
                       (Head("linear", latent_dim), Head("linear", latent_dim)), rng)
    decoder = init_mlp(latent_dim, tuple(reversed(hidden)), decoder_heads(schema), rng)
    return VaeModel(encoder, decoder, latent_dim, beta, schema)


def clone_model(model: VaeModel) -> VaeModel:
    return VaeModel(
        mlp_from_dict(mlp_to_dict(model.encoder)),
        mlp_from_dict(mlp_to_dict(model.decoder)),
        model.latent_dim,
        model.beta,
        model.schema,
        dict(model.standardization),
    )


def encode(model: VaeModel, x) -> LatentParams:
    """Deterministic map from encoded rows to latent Gaussian parameters."""
    arr = np.asarray(x, dtype=float)
    width = arr.shape[-1] if arr.ndim else 0
    if width != model.schema.encoded_width:
        raise SchemaError(
            f"input width {width} does not match schema width {model.schema.encoded_width}")
    out, _ = forward(model.encoder, arr)
    d = model.latent_dim
    return LatentParams(out[..., :d], out[..., d:])


def reparameterize(lp: LatentParams, epsilon: np.ndarray) -> np.ndarray:
    """z = mu + exp(logvar / 2) * eps."""
    eps = np.asarray(epsilon, dtype=float)
    if eps.shape != np.shape(lp.mean):
        raise DataError(f"epsilon shape {eps.shape} does not match latent shape {np.shape(lp.mean)}")
    return lp.mean + np.exp(lp.log_variance / 2.0) * eps


def decode(model: VaeModel, z) -> np.ndarray:
    out, _ = forward(model.decoder, np.asarray(z, dtype=float))
    return out


@dataclass(frozen=True)
class LossTerms:
    total: float
    numeric: float
    categorical: float
    kl: float


def loss(model: VaeModel, x, x_hat, lp: LatentParams) -> LossTerms:
    """Minibatch-mean loss split into its three terms."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x_hat = np.atleast_2d(np.asarray(x_hat, dtype=float))
    mu = np.atleast_2d(lp.mean)
    lv = np.atleast_2d(lp.log_variance)
    n_rows = x.shape[0]
    numeric = 0.0
    categorical = 0.0
    for block in schema_blocks(model.schema):
        sub_x = x[:, block.start:block.stop]
        sub_h = x_hat[:, block.start:block.stop]
        if block.kind == "numeric":
            numeric += 0.5 * np.sum((sub_x - sub_h) ** 2)
        else:
            categorical += -np.sum(sub_x * np.log(np.maximum(sub_h, PROB_FLOOR)))
    kl = -0.5 * np.sum(1.0 + lv - mu ** 2 - np.exp(lv))
    numeric /= n_rows
    categorical /= n_rows
    kl /= n_rows
    total = numeric + categorical + model.beta * kl
    return LossTerms(float(total), float(numeric), float(categorical), float(kl))


def evaluate_loss(model: VaeModel, x, eps) -> LossTerms:
    """Full forward pass with a fixed epsilon; used by gradient audits."""
    lp = encode(model, x)
    z = reparameterize(lp, eps)
    x_hat = decode(model, z)
    return loss(model, x, x_hat, lp)


def loss_and_grads(model: VaeModel, x: np.ndarray, eps: np.ndarray
                   ) -> tuple[LossTerms, list[np.ndarray], list[np.ndarray]]:
    """Loss terms plus gradients for every encoder and decoder parameter.

    The reconstruction gradient flows through the decoder into z, then via
    the reparameterization into both latent heads; the KL gradient hits the
    heads directly.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_rows = x.shape[0]
    d = model.latent_dim
    enc_out, enc_cache = forward(model.encoder, x)
    mu, lv = enc_out[:, :d], enc_out[:, d:]
    sigma = np.exp(lv / 2.0)
    z = mu + sigma * eps
    x_hat, dec_cache = forward(model.decoder, z)
    terms = loss(model, x, x_hat, LatentParams(mu, lv))
    if not np.isfinite(terms.total):
        raise DivergenceError("non-finite loss")
    # d(loss)/d(x_hat), already scaled for the batch mean
    d_hat = np.zeros_like(x_hat)
    for block in schema_blocks(model.schema):
        sl = slice(block.start, block.stop)
        if block.kind == "numeric":
            d_hat[:, sl] = (x_hat[:, sl] - x[:, sl]) / n_rows
        else:
            safe = np.maximum(x_hat[:, sl], PROB_FLOOR)
            d_hat[:, sl] = np.where(x_hat[:, sl] > PROB_FLOOR,
                                    -x[:, sl] / safe, 0.0) / n_rows
    dec_grads, dz = backward(model.decoder, dec_cache, d_hat)
    d_mu = dz + model.beta * mu / n_rows
    d_lv = dz * eps * 0.5 * sigma + model.beta * 0.5 * (np.exp(lv) - 1.0) / n_rows
    enc_grads, _ = backward(model.encoder, enc_cache, np.concatenate([d_mu, d_lv], axis=1))
    return terms, enc_grads, dec_grads


def _train_single(model: VaeModel, train: EncodedMatrix, config: TrainConfig,
                  rng: np.random.Generator, grid_index: int = 0) -> tuple[VaeModel, list[dict]]:
    model = clone_model(model)
    model.standardization = dict(train.standardization)
    if config.epochs == 0:
        return model, []
    x_all = train.values
    n = x_all.shape[0]
    if n == 0:
        raise DataError("cannot train on an empty pool")
    params = parameters(model.encoder) + parameters(model.decoder)
    n_enc = len(parameters(model.encoder))
    state = rmsprop_init(params, config.learning_rate, config.rho, config.epsilon)
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        sums = np.zeros(4)
        n_batches = 0
        for start in range(0, n, config.batch_size):
            batch = x_all[order[start:start + config.batch_size]]
            eps = rng.standard_normal((batch.shape[0], model.latent_dim))
            try:
                terms, enc_grads, dec_grads = loss_and_grads(model, batch, eps)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"grid point {grid_index}, epoch {epoch}: {exc}") from None
            params, state = rmsprop_step(params, enc_grads + dec_grads, state)
            set_parameters(model.encoder, params[:n_enc])
            set_parameters(model.decoder, params[n_enc:])
            sums += (terms.numeric, terms.categorical, terms.kl, terms.total)
            n_batches += 1
        history.append({
            "grid_index": grid_index,
            "epoch": epoch,
            "numeric": sums[0] / n_batches,
            "categorical": sums[1] / n_batches,
            "kl": sums[2] / n_batches,
            "total": sums[3] / n_batches,
        })
    return model, history


def _selection_srmse(model: VaeModel, validation: EncodedMatrix, config: TrainConfig,
                     rng: np.random.Generator) -> float:
    """Validation SRMSE of the projected joint over the selection variables,
    computed on hardened samples."""
    schema = model.schema
    names = config.selection_variables or list(schema.names[:4])
    subset = tuple(schema.index(n) for n in names)
    count = config.selection_samples or max(1000, len(validation))
    pool = sample(model, count, rng, harden=config.harden)
    val_codes = matrix_to_codes(validation)
    gen = metrics.frequency_distribution_from_codes(
        metrics.codes_for_pool(pool), schema.value_counts, subset)
    ref = metrics.frequency_distribution_from_codes(
        val_codes, schema.value_counts, subset)
    return metrics.srmse(gen, ref)


def train(model: VaeModel, train_matrix: EncodedMatrix, validation: EncodedMatrix,
          config: TrainConfig) -> TrainResult:
    """Fit the model, optionally grid-searching architectures.

    Without a grid the passed model trains as-is. With a grid, one model per
    (hidden stack, latent dim, beta) point is built and trained on an
    independent RNG substream, and the point minimizing validation SRMSE of
    the selection-variable joint wins.
    """
    grid = config.grid()
    if grid is None:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
        trained, history = _train_single(model, train_matrix, config, rng)
        return TrainResult(trained, history, [], None)
    best = None
    all_history: list[dict] = []
    records = []
    for gi, (hidden, latent_dim, beta) in enumerate(grid):
        seq = np.random.SeedSequence(config.seed, spawn_key=(gi,))
        rng_init, rng_train, rng_select = [np.random.default_rng(s) for s in seq.spawn(3)]
        candidate = build_vae(model.schema, hidden, latent_dim, beta, rng_init)
        trained, history = _train_single(candidate, train_matrix, config, rng_train, gi)
        all_history.extend(history)
        score = _selection_srmse(trained, validation, config, rng_select)
        records.append({"grid_index": gi, "hidden": list(hidden),
                        "latent_dim": latent_dim, "beta": beta, "selection_srmse": score})
        if best is None or score < best[0]:
            best = (score, trained)
    return TrainResult(best[1], all_history, records, best[0])


def sample(model: VaeModel, count: int, rng_or_seed, harden: str = "argmax") -> AgentPool:
    """Draw agents: z ~ N(0, I) through the decoder, hardened to raw records.

    Categorical blocks are hardened by argmax by default; ``harden="sample"``
    draws from the softmax instead. Numerics are de-standardized with the
    training statistics. The pool carries ``generated`` provenance.
    """
    if harden not in ("argmax", "sample"):
        raise ConfigError(f"unknown hardening rule {harden!r}")
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) \
        else np.random.default_rng(rng_or_seed)
    schema = model.schema
    blocks = schema_blocks(schema)
    if count == 0:
        return AgentPool(schema, (), "generated")
    z = rng.standard_normal((count, model.latent_dim))
    out = decode(model, z)
    if harden == "sample":
        for block in blocks:
            if block.kind != "one-hot":
                continue
            probs = out[:, block.start:block.stop]
            cum = np.cumsum(probs, axis=1)
            draws = (rng.random((count, 1)) * cum[:, -1:]) > cum
            idx = draws.sum(axis=1)
            hard = np.zeros_like(probs)
            hard[np.arange(count), np.minimum(idx, probs.shape[1] - 1)] = 1.0
            out[:, block.start:block.stop] = hard
    matrix = EncodedMatrix(out, blocks, dict(model.standardization), schema)
    return decode_rows(matrix, rng=rng)


def write_training_log(history: list[dict], path) -> None:
    """CSV of (grid point, epoch, numeric, categorical, kl, total)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["grid_index", "epoch", "numeric", "categorical", "kl", "total"])
        for row in history:
            losses = [repr(float(row[k])) for k in ("numeric", "categorical", "kl", "total")]
            writer.writerow([row["grid_index"], row["epoch"], *losses])


def vae_to_dict(model: VaeModel, extra: dict | None = None) -> dict:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "encoder": mlp_to_dict(model.encoder),
        "decoder": mlp_to_dict(model.decoder),
        "latent_dim": model.latent_dim,
        "beta": model.beta,
        "schema": schema_to_json(model.schema),
        "standardization": {k: list(v) for k, v in model.standardization.items()},
    }
    if extra:
        doc.update(extra)
    return doc


def vae_from_dict(doc: dict) -> VaeModel:
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"not a VAE checkpoint: {doc.get('format')!r}")
    schema = schema_from_json(doc["schema"])
    model = VaeModel(
        mlp_from_dict(doc["encoder"]),
        mlp_from_dict(doc["decoder"]),
        int(doc["latent_dim"]),
        float(doc["beta"]),
        schema,
        {k: (float(v[0]), float(v[1])) for k, v in doc.get("standardization", {}).items()},
    )
    return model


def save_checkpoint(model: VaeModel, path, extra: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(vae_to_dict(model, extra), fh)


def load_checkpoint(path) -> VaeModel:
    with open(path) as fh:
        return vae_from_dict(json.load(fh))
