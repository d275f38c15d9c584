"""Reference implementations that only the tests use."""

import csv
import json
from pathlib import Path

import numpy as np

from agentsynth.bayesnet import MAX_TABLE_CELLS, CptSet, Dag
from agentsynth.errors import DataError
from agentsynth.gibbs import ConditionalTable
from agentsynth.neural import ForwardCache, Mlp, backward_layers, forward_layers, softmax
from agentsynth.vae import LatentParams, LossTerms, VaeModel, _forward_loss

# probabilities below this are floored before the log in :func:`loss`
PROB_FLOOR = 1e-12


def joint_distribution(dag: Dag, cpts: CptSet) -> np.ndarray:
    """Exact joint of a Bayesian network over the full product space, one
    cell at a time, for small variable counts."""
    counts = cpts.value_counts
    size = int(np.prod(counts))
    if size > MAX_TABLE_CELLS:
        raise DataError(f"joint of {size} cells is too large to enumerate")
    joint = np.zeros(counts)
    for combo in np.ndindex(*counts):
        p = 1.0
        for node in range(dag.n_nodes):
            pa = dag.parents[node]
            if pa:
                parent_widths = [counts[q] for q in pa]
                row = int(np.ravel_multi_index([np.array([combo[q]]) for q in pa],
                                               parent_widths)[0])
            else:
                row = 0
            p *= cpts.tables[node][row, combo[node]]
        joint[combo] = p
    return joint


def rmsprop_per_block(params: list[np.ndarray], grads: list[np.ndarray],
                      accumulators: list[np.ndarray], learning_rate: float,
                      rho: float = 0.9, epsilon: float = 1e-8) -> None:
    """RMSprop over a list of parameter blocks, one block at a time and in
    place: acc <- rho*acc + (1-rho)*g^2; p <- p - lr*g/sqrt(acc+eps)."""
    for p, g, acc in zip(params, grads, accumulators):
        t = (1.0 - rho) * g
        t *= g
        acc *= rho
        acc += t
        np.sqrt(np.add(acc, epsilon, out=t), out=t)
        step = learning_rate * g
        step /= t
        p -= step


class UnreachableContextError(DataError):
    """A Gibbs chain reached a context with no estimated conditional."""


def gibbs_step(row: tuple, tables: list[ConditionalTable],
               rng: np.random.Generator) -> tuple:
    """One systematic scan by lookup in the tables of
    ``gibbs.estimate_conditionals``: update every variable in schema order,
    each conditioned on the freshest values of all the others.

    A draw at or past the last cumulative probability, which can round
    below 1, picks the last value with positive probability.
    """
    current = list(row)
    for i, table in enumerate(tables):
        ctx = tuple(current[:i] + current[i + 1:])
        probs = table.table.get(ctx)
        if probs is None:
            raise UnreachableContextError(
                f"variable {i}: context {ctx} never observed in training")
        value = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        if value == len(probs):
            value = int(np.flatnonzero(probs)[-1])
        current[i] = value
    return tuple(current)


def encoded_spans(schema) -> list[tuple[int, int, bool]]:
    """Each variable's encoded columns as ``(start, stop, one_hot)``, one
    variable after the other: a categorical variable, or a numerical one
    in a discretize-all schema, spans a column per category or bin; a
    numerical one in a mixed schema spans its one standardized column."""
    spans, col = [], 0
    for var in schema.variables:
        if var.categories is not None:
            one_hot, width = True, len(var.categories)
        elif schema.mode == "discretize-all":
            one_hot, width = True, len(var.bin_edges) - 1
        else:
            one_hot, width = False, 1
        spans.append((col, col + width, one_hot))
        col += width
    return spans


def reparameterize(lp: LatentParams, epsilon: np.ndarray) -> np.ndarray:
    """z = mu + exp(logvar / 2) * eps."""
    eps = np.asarray(epsilon, dtype=float)
    if eps.shape != np.shape(lp.mean):
        raise DataError(f"epsilon shape {eps.shape} does not match latent shape {np.shape(lp.mean)}")
    return lp.mean + np.exp(lp.log_variance / 2.0) * eps


def loss(model: VaeModel, x, x_hat, lp: LatentParams) -> LossTerms:
    """Minibatch-mean VAE loss split into its three terms, from post-head
    outputs: ``x_hat`` holds probabilities in the one-hot blocks, floored at
    ``PROB_FLOOR`` before the log. The training step computes the same
    objective exactly from logits (:func:`evaluate_loss`)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x_hat = np.atleast_2d(np.asarray(x_hat, dtype=float))
    mu = np.atleast_2d(lp.mean)
    lv = np.atleast_2d(lp.log_variance)
    n_rows = x.shape[0]
    numeric = 0.0
    categorical = 0.0
    for start, stop, one_hot in encoded_spans(model.schema):
        sub_x = x[:, start:stop]
        sub_h = x_hat[:, start:stop]
        if not one_hot:
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
    """Full forward pass with a fixed epsilon; used by gradient audits.
    The same objective that ``vae.loss_and_grads`` differentiates, without
    touching the model's gradient buffers."""
    return _forward_loss(model, x, eps).terms


def _head_slices(mlp: Mlp):
    col = 0
    for head in mlp.heads:
        yield head, slice(col, col + head.width)
        col += head.width


def per_head_forward(mlp: Mlp, x) -> tuple[np.ndarray, ForwardCache]:
    """``neural.forward`` with the softmax applied one head at a time."""
    arr = np.asarray(x, dtype=float)
    squeezed = arr.ndim == 1
    inputs, logits = forward_layers(mlp, arr[None, :] if squeezed else arr)
    out = logits.copy()
    for head, sl in _head_slices(mlp):
        if head.kind == "softmax":
            out[:, sl] = softmax(logits[:, sl])
    cache = ForwardCache(inputs, logits, out, squeezed)
    return (out[0] if squeezed else out), cache


def per_head_backward(mlp: Mlp, cache: ForwardCache, output_grad
                      ) -> tuple[list[np.ndarray], np.ndarray]:
    """``neural.backward`` with the softmax Jacobian applied one head at a
    time."""
    g = np.atleast_2d(np.asarray(output_grad, dtype=float))
    d_logits = np.empty_like(g)
    for head, sl in _head_slices(mlp):
        if head.kind == "softmax":
            s = cache.outputs[:, sl]
            d_logits[:, sl] = s * (g[:, sl] - np.sum(g[:, sl] * s, axis=1, keepdims=True))
        else:
            d_logits[:, sl] = g[:, sl]
    grads, d_pre = backward_layers(mlp, cache.inputs, cache.logits, d_logits)
    d_input = d_pre @ mlp.layers[0].weights
    return grads, (d_input[0] if cache.squeezed else d_input)


# ---------------------------------------------------------------------------
# the plot data as CSV, as ``run`` wrote it before it wrote arrays


def former_scatter_csv(path, names, freqs) -> None:
    """A view's former ``scatter/<view>.csv``, row by row through
    ``csv.writer``: ``bin_id``, ``test_frequency`` and then a column per
    pool named ``names``, each cell the ``repr`` of a bin's frequency in
    ``freqs`` (the test split's first)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_id", "test_frequency", *names])
        writer.writerows([b, *map(repr, row)]
                         for b, row in enumerate(zip(*(f.tolist() for f in freqs))))


def former_pca_csv(path, coords) -> None:
    """A pool's former ``pca/<pool>.csv``, row by row through
    ``csv.writer``: ``pc1``... and each coordinate's ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"pc{k + 1}" for k in range(coords.shape[1])])
        writer.writerows(list(map(repr, row)) for row in coords.tolist())


def scatter_csv_from_npy(scatter: Path, view: str, path) -> None:
    """Rebuild the former ``scatter/<view>.csv`` from ``<view>.npy`` and
    ``columns.json`` in the directory ``scatter``."""
    columns = json.loads((Path(scatter) / "columns.json").read_text())
    counts = np.load(Path(scatter) / f"{view}.npy")
    assert columns[0] == {"split": "test", "rows": columns[0]["rows"]}
    assert counts.shape[1] == len(columns) and counts.dtype.kind == "u"
    former_scatter_csv(path, [column["pool"] for column in columns[1:]],
                       [counts[:, j] / column["rows"] for j, column in enumerate(columns)])


def pca_csv_from_npy(npy: Path, path) -> None:
    """Rebuild a former ``pca/<pool>.csv`` from ``pca/<pool>.npy``."""
    coords = np.load(npy)
    assert coords.dtype == np.float64 and coords.ndim == 2
    former_pca_csv(path, coords)
