"""Variational autoencoder over encoded agent pools.

The encoder maps an encoded row to the mean and log-variance of a Gaussian
latent; a reparameterized draw z = mu + exp(logvar/2) * eps feeds the
decoder, whose heads mirror the schema: linear outputs for continuous
numerics, softmax blocks for one-hot variables. The objective per row is

    0.5 * sum_num (x - xhat)^2                      reconstruction, numeric
  - sum_cat sum_j x_j log xhat_j                    reconstruction, categorical
  + beta * ( -0.5 * sum (1 + lv - mu^2 - e^lv) )    Gaussian KL to N(0, I)

averaged over the minibatch. The training step works on the decoder's
logits: the categorical term is one log-softmax over all heads of one
width at once, so it is exact however small a probability gets, and its
gradient is the fused softmax cross-entropy ``(softmax - x) / batch`` on
the logits, which then enters the layer recurrence of
:func:`neural.backward_layers`. The decoder's heads are grouped by width
once per model, with :func:`neural.head_layout`, the grouping that
:func:`neural.forward` applies its softmax by; the step lays each group
out as contiguous ``(width, batch, heads)`` planes. Encoder and decoder
parameters live in one flat vector that RMSprop updates as a single block.
A :class:`TrainConfig` holds a VAE method's settings, its architecture
included. Hyperparameters can be searched on a grid, with the winner picked
by the SRMSE of the projected joint over a designated variable subset
against the validation pool's codes. Sampling draws z ~ N(0, I), decodes it
block by block, hardens categorical blocks, and de-standardizes numerics
into raw agent records.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .dataset import (
    AgentPool,
    EncodedMatrix,
    Schema,
    decode_rows,
    draw_categories,
    matrix_to_codes,  # unused here; perfbench/layers.py wraps this name on this module
    read_json,
    row_blocks,
    schema_blocks,
    schema_from_json,
    schema_to_json,
)
from .errors import (ConfigError, DataError, DivergenceError, SchemaError, expect, read_fields,
                     read_format)
from .neural import (
    Head,
    HeadLayout,
    Mlp,
    PackedParameters,
    backward,  # unused here; the benchmark harness wraps vae.backward
    backward_layers,
    forward,
    forward_layers,
    head_layout,
    init_mlp,
    mlp_from_dict,
    mlp_to_dict,
    pack_parameters,
    rmsprop_init,
    rmsprop_step,
)

# Rows per block that sample() decodes at a time, so the decoder's
# activations exist for one block only. The count is cut into the
# dataset.row_blocks of this size, none shorter than it, so the draws are
# those of one whole decode. A 10,000-row draw decodes in blocks of about
# 1,100 rows, whose temporaries in a 64-wide decoder take 2.7 MB (the
# 5,000-row blocks of 4,096-row blocking took 12.1 MB), and each BLAS call
# still multiplies a large batch.
SAMPLE_BLOCK = 1 << 10
CHECKPOINT_FORMAT = "agentsynth-vae"
CHECKPOINT_VERSION = 1


@dataclass
class VaeModel:
    """Encoder, decoder and their settings.

    Construction packs both networks' parameters into ``packed`` (a copy:
    the layers then hold views into one flat vector) and builds the decoder
    head ``layout``; the training step uses both.
    """

    encoder: Mlp
    decoder: Mlp
    latent_dim: int
    beta: float
    schema: Schema
    standardization: dict[str, tuple[float, float]] = field(default_factory=dict)
    packed: PackedParameters = field(init=False, repr=False, compare=False)
    layout: HeadLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_architecture((), self.latent_dim, self.beta)
        self.packed = pack_parameters((self.encoder, self.decoder))
        self.layout = head_layout(self.decoder.heads)


@dataclass(frozen=True)
class LatentParams:
    mean: np.ndarray
    log_variance: np.ndarray


@dataclass
class TrainConfig:
    # the architecture a method's model is built with (a grid builds its own)
    hidden: tuple[int, ...] = (50,)
    latent_dim: int = 10
    beta: float = 0.5
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    learning_rate: float = 0.001
    # grid search: None means "train the given model as-is"
    hidden_options: list[tuple[int, ...]] | None = None
    latent_options: list[int] | None = None
    beta_options: list[float] | None = None
    # model selection
    selection_variables: list[str] | None = None
    selection_samples: int | None = None
    harden: str = "argmax"  # or "sample": draw categories from the softmax

    def __post_init__(self):
        self.hidden = tuple(self.hidden)
        check_architecture(self.hidden, self.latent_dim, self.beta)
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.harden not in ("argmax", "sample"):
            raise ConfigError(f"unknown hardening rule {self.harden!r}")
        if self.selection_samples is not None and self.selection_samples < 1:
            raise ConfigError("selection_samples must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate}")
        self.grid()

    def grid(self) -> list[tuple[tuple[int, ...], int, float]] | None:
        opts = (self.hidden_options, self.latent_options, self.beta_options)
        if all(o is None for o in opts):
            return None
        if any(o is None for o in opts):
            raise ConfigError("grid search needs hidden, latent, and beta options together")
        grid = [
            (tuple(h), int(d), float(b))
            for h, d, b in itertools.product(self.hidden_options,
                                             self.latent_options,
                                             self.beta_options)
        ]
        if not grid:
            raise ConfigError("grid search needs at least one value per option")
        for point in grid:
            check_architecture(*point)
        return grid


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


def check_architecture(hidden, latent_dim: int, beta: float) -> None:
    """ConfigError unless all layer widths are >= 1 and beta is positive and
    finite."""
    if latent_dim < 1 or any(width < 1 for width in hidden):
        raise ConfigError(f"layer widths must be >= 1, got hidden {list(hidden)} "
                          f"and latent_dim {latent_dim}")
    if not 0 < beta < np.inf:
        raise ConfigError(f"beta must be positive and finite, got {beta}")


def build_vae(schema: Schema, hidden: tuple[int, ...], latent_dim: int, beta: float,
              rng: np.random.Generator) -> VaeModel:
    """Encoder n -> hidden -> (mu, logvar); decoder with the mirrored stack."""
    check_architecture(hidden, latent_dim, beta)
    n = schema.encoded_width
    encoder = init_mlp(n, tuple(hidden),
                       (Head("linear", latent_dim), Head("linear", latent_dim)), rng)
    decoder = init_mlp(latent_dim, tuple(reversed(hidden)), decoder_heads(schema), rng)
    return VaeModel(encoder, decoder, latent_dim, beta, schema)


def clone_model(model: VaeModel) -> VaeModel:
    """A copy sharing no arrays with ``model``: the new layer objects start
    on the old arrays and packing copies them into the clone's own buffer."""
    def layers_of(mlp: Mlp) -> Mlp:
        return Mlp([replace(layer) for layer in mlp.layers], mlp.heads)

    return VaeModel(
        layers_of(model.encoder),
        layers_of(model.decoder),
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


def decode(model: VaeModel, z) -> np.ndarray:
    out, _ = forward(model.decoder, np.asarray(z, dtype=float))
    return out


@dataclass(frozen=True)
class LossTerms:
    total: float
    numeric: float
    categorical: float
    kl: float


@dataclass
class _StepState:
    """What the forward half of a training step leaves for the backward."""

    terms: LossTerms
    enc_inputs: list[np.ndarray]
    enc_out: np.ndarray
    dec_inputs: list[np.ndarray]
    logits: np.ndarray
    d_logits: np.ndarray
    eps: np.ndarray
    sigma: np.ndarray
    variance: np.ndarray


def _forward_loss(model: VaeModel, x, eps) -> _StepState:
    """Encoder, reparameterization and decoder on a batch, the loss from
    the decoder's logits, and the loss gradient at those logits.

    Targets in a one-hot block sum to one per row (encoded pools do), which
    makes ``(softmax - x) / batch`` the exact logit gradient.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise DataError("non-finite network input")
    if x.shape[1] != model.encoder.input_width:
        raise DataError(
            f"input width {x.shape[1]} does not match network input {model.encoder.input_width}")
    n_rows = x.shape[0]
    d = model.latent_dim
    eps = np.asarray(eps, dtype=float)
    enc_inputs, enc_out = forward_layers(model.encoder, x)
    mu, lv = enc_out[:, :d], enc_out[:, d:]
    sigma = np.exp(lv / 2.0)
    dec_inputs, logits = forward_layers(model.decoder, mu + sigma * eps)
    layout = model.layout
    d_logits = np.empty_like(logits)
    numeric = 0.0
    if layout.numeric is not None:
        diff = logits[:, layout.numeric] - x[:, layout.numeric]
        numeric = 0.5 * np.sum(diff ** 2)
        d_logits[:, layout.numeric] = diff / n_rows
    categorical = 0.0
    for group in layout.groups:
        # (width, batch, heads), contiguous: the reductions over a head's
        # values then add or compare whole planes; numpy's reduction over a
        # short last axis pays a fixed cost per head and row, several times
        # the arithmetic
        shape = (n_rows, group.count, group.width)
        heads = np.ascontiguousarray(logits[:, group.columns].reshape(shape).transpose(2, 0, 1))
        target = np.ascontiguousarray(x[:, group.columns].reshape(shape).transpose(2, 0, 1))
        shifted = heads - heads.max(axis=0)
        e = np.exp(shifted)
        norm = e.sum(axis=0)
        categorical -= np.vdot(target, shifted - np.log(norm))
        grad = e / norm
        grad -= target
        grad /= n_rows
        d_logits[:, group.columns] = grad.transpose(1, 2, 0).reshape(n_rows, -1)
    variance = np.exp(lv)
    kl = -0.5 * np.sum(1.0 + lv - mu ** 2 - variance)
    numeric /= n_rows
    categorical /= n_rows
    kl /= n_rows
    total = numeric + categorical + model.beta * kl
    terms = LossTerms(float(total), float(numeric), float(categorical), float(kl))
    return _StepState(terms, enc_inputs, enc_out, dec_inputs, logits, d_logits,
                      eps, sigma, variance)


def loss_and_grads(model: VaeModel, x: np.ndarray, eps: np.ndarray
                   ) -> tuple[LossTerms, list[np.ndarray], list[np.ndarray]]:
    """Loss terms plus gradients for every encoder and decoder parameter.

    The logit gradient flows through the decoder into z, then via the
    reparameterization into both latent heads; the KL gradient hits the
    heads directly. The gradients are written into ``model.packed.grads``
    and returned as its views, ordered like :func:`neural.parameters`; the
    next call on the same model overwrites them.
    """
    step = _forward_loss(model, x, eps)
    if not np.isfinite(step.terms.total):
        raise DivergenceError("non-finite loss")
    n_rows = step.logits.shape[0]
    d = model.latent_dim
    mu, lv = step.enc_out[:, :d], step.enc_out[:, d:]
    n_enc = 2 * len(model.encoder.layers)
    enc_grads = model.packed.grad_blocks[:n_enc]
    dec_grads = model.packed.grad_blocks[n_enc:]
    _, d_pre = backward_layers(model.decoder, step.dec_inputs, step.logits, step.d_logits,
                               dec_grads)
    dz = d_pre @ model.decoder.layers[0].weights
    d_mu = dz + model.beta * mu / n_rows
    d_lv = dz * step.eps * 0.5 * step.sigma + model.beta * 0.5 * (step.variance - 1.0) / n_rows
    backward_layers(model.encoder, step.enc_inputs, step.enc_out,
                    np.concatenate([d_mu, d_lv], axis=1), enc_grads)
    return step.terms, enc_grads, dec_grads


# a diverging step overflows; the DivergenceError it raises then says so in one line
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    packed = model.packed
    state = rmsprop_init(packed.values, config.learning_rate)
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        sums = np.zeros(4)
        n_batches = 0
        for start in range(0, n, config.batch_size):
            batch = x_all[order[start:start + config.batch_size]]
            eps = rng.standard_normal((batch.shape[0], model.latent_dim))
            try:
                terms, _, _ = loss_and_grads(model, batch, eps)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"grid point {grid_index}, epoch {epoch}: {exc}") from None
            try:
                rmsprop_step(packed.values, packed.grads, state)
            except DivergenceError:
                raise DivergenceError(
                    f"grid point {grid_index}, epoch {epoch}: non-finite gradient in "
                    f"parameter block {packed.first_nonfinite_block()}") from None
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


def _selection_srmse(model: VaeModel, validation: AgentPool, config: TrainConfig,
                     subset: tuple[int, ...], rng: np.random.Generator) -> float:
    """Validation SRMSE of the projected joint over the selection variables
    ``subset``, computed on hardened samples."""
    schema = model.schema
    count = config.selection_samples or max(1000, len(validation))  # None or >= 1
    pool = sample(model, count, rng, harden=config.harden)
    gen = metrics.frequency_distribution_from_codes(
        metrics.codes_for_pool(pool), schema.value_counts, subset)
    ref = metrics.frequency_distribution_from_codes(
        validation.codes, schema.value_counts, subset)
    return metrics.srmse(gen, ref)


def train(model: VaeModel, train_matrix: EncodedMatrix, validation: AgentPool,
          config: TrainConfig) -> TrainResult:
    """Fit the model, optionally grid-searching architectures.

    Without a grid the passed model trains as-is. With a grid, one model per
    (hidden stack, latent dim, beta) point is built and trained on an
    independent RNG substream, and the point minimizing the SRMSE of the
    selection-variable joint against the ``validation`` pool's codes wins.
    """
    grid = config.grid()
    subset = tuple(model.schema.columns(config.selection_variables, "selection_variables"))
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
        score = _selection_srmse(trained, validation, config, subset, rng_select)
        records.append({"grid_index": gi, "hidden": list(hidden),
                        "latent_dim": latent_dim, "beta": beta, "selection_srmse": score})
        if best is None or score < best[0]:
            best = (score, trained)
    return TrainResult(best[1], all_history, records, best[0])


def sample(model: VaeModel, count: int, rng_or_seed,
           harden: str = TrainConfig.harden) -> AgentPool:
    """Draw agents: z ~ N(0, I) through the decoder, hardened to raw records.

    Categorical blocks are hardened by argmax by default; ``harden="sample"``
    draws from the softmax instead. Numerics are de-standardized with the
    training statistics. The pool carries ``generated`` provenance.
    """
    if harden not in ("argmax", "sample"):
        raise ConfigError(f"unknown hardening rule {harden!r}")
    rng = np.random.default_rng(rng_or_seed)
    schema = model.schema
    blocks = schema_blocks(schema)
    z = rng.standard_normal((count, model.latent_dim))
    # one uniform per row and softmax head, drawn head after head in schema
    # order; row h of ``uniforms`` belongs to the h-th head
    widths = [head.width for head in model.decoder.heads if head.kind == "softmax"]
    uniforms = rng.random((len(widths), count)) if harden == "sample" else None

    def decoded():
        for rows in row_blocks(count, SAMPLE_BLOCK):
            out = decode(model, z[rows])
            if harden == "sample":
                for group in model.layout.groups:
                    heads = [h for h, width in enumerate(widths) if width == group.width]
                    shape = (len(out), group.count, group.width)
                    idx = draw_categories(out[:, group.columns].reshape(shape),
                                          uniforms[heads, rows].T)
                    hard = np.zeros(shape)
                    np.put_along_axis(hard, idx[:, :, None], 1.0, axis=2)
                    out[:, group.columns] = hard.reshape(len(out), group.count * group.width)
            yield EncodedMatrix(out, blocks, dict(model.standardization), schema)

    return decode_rows(decoded(), rng=rng)


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
    """Inverse of :func:`vae_to_dict`; raises DataError for a checkpoint
    whose values have the wrong JSON type, whose networks do not fit its
    schema and latent width, or that lacks a (mean, std) pair of finite
    numbers for a standardized numeric."""
    read_format(doc, CHECKPOINT_FORMAT, "a VAE checkpoint")
    schema, encoder, decoder, latent_dim, beta, stats = read_fields(doc, {
        "schema": "an object", "encoder": "an object", "decoder": "an object",
        "latent_dim": "an integer", "beta": "a number", "standardization": "an object"},
        "a VAE checkpoint", "VAE ")
    schema = schema_from_json(schema)
    encoder, decoder = mlp_from_dict(encoder, "VAE encoder"), mlp_from_dict(decoder, "VAE decoder")
    if encoder.input_width != schema.encoded_width:
        raise DataError(f"encoder input width {encoder.input_width} does not match "
                        f"schema width {schema.encoded_width}")
    if encoder.heads != (Head("linear", latent_dim),) * 2:
        raise DataError(f"encoder heads {encoder.heads} are not two linear heads "
                        f"of latent width {latent_dim}")
    if decoder.input_width != latent_dim:
        raise DataError(f"decoder input width {decoder.input_width} does not match "
                        f"latent width {latent_dim}")
    if decoder.heads != decoder_heads(schema):
        raise DataError("decoder heads do not mirror the schema's encoded blocks")
    standardization = {}
    for var in schema.variables:
        if not schema.is_one_hot(var):  # a standardized numeric
            if var.name not in stats:
                raise DataError(f"VAE standardization lacks {var.name!r}")
            pair = expect(stats[var.name], "a list of numbers",
                          f"standardization of {var.name!r}", DataError)
            if len(pair) != 2 or not np.isfinite(pair).all():
                raise DataError(f"standardization of {var.name!r} must be a (mean, std) pair "
                                f"of finite numbers, got {pair}")
            standardization[var.name] = (float(pair[0]), float(pair[1]))
    try:
        return VaeModel(encoder, decoder, latent_dim, float(beta), schema, standardization)
    except ConfigError as exc:  # a beta that is not positive and finite
        raise DataError(f"VAE checkpoint: {exc}") from None


def save_checkpoint(model: VaeModel, path, extra: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(vae_to_dict(model, extra), fh)


def load_checkpoint(path) -> VaeModel:
    return vae_from_dict(read_json(path))
