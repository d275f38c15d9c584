"""Minimal dense-network substrate: forward evaluation, reverse-mode
gradients, and the RMSprop optimizer, which steps one packed parameter
vector (:func:`pack_parameters`) with fixed decay ``RMSPROP_RHO`` and
``RMSPROP_EPSILON``.

Networks are stacks of fully connected layers, tanh on hidden layers and a
linear output layer whose columns are carved into heads: plain linear
blocks for numeric outputs and softmax blocks for categorical ones.
:func:`head_layout` groups the softmax heads by width, and forward() and
backward() apply the softmax and its Jacobian once per width group, on the
``(rows * heads, width)`` view of the group's columns; each (row, head)
pair is reduced over its own contiguous values, so the result has the bits
of a loop over single heads. The layout is deliberately small and explicit
so gradients can be audited against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DivergenceError, StaleCacheError, read_fields, read_format, read_rows

CHECKPOINT_FORMAT = "agentsynth-mlp"
CHECKPOINT_VERSION = 1


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray   # (out,)
    activation: str      # "tanh" | "linear"

    def __post_init__(self):
        if self.activation not in ("tanh", "linear"):
            raise DataError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class Head:
    kind: str   # "linear" | "softmax"
    width: int


@dataclass
class Mlp:
    layers: list[DenseLayer]
    heads: tuple[Head, ...]

    @property
    def input_width(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_width(self) -> int:
        return self.layers[-1].weights.shape[0]


@dataclass(frozen=True)
class HeadGroup:
    """All softmax heads of one width: ``columns`` lists their output
    columns head after head, so ``logits[:, columns]`` reshapes to
    ``(rows, count, width)``. It is a slice (and the reshape a view) when
    the heads are adjacent, an index array otherwise."""

    columns: slice | np.ndarray
    count: int
    width: int


@dataclass(frozen=True)
class HeadLayout:
    """Output columns grouped by head: the softmax heads by width, and the
    linear-head columns."""

    groups: tuple[HeadGroup, ...]
    numeric: slice | np.ndarray | None  # the linear-head columns


def _columns(cols: list[int]) -> slice | np.ndarray:
    if cols == list(range(cols[0], cols[0] + len(cols))):
        return slice(cols[0], cols[0] + len(cols))
    return np.array(cols)


def head_layout(heads: tuple[Head, ...]) -> HeadLayout:
    """Group softmax heads by width and collect the linear-head columns."""
    by_width: dict[int, list[int]] = {}
    numeric: list[int] = []
    col = 0
    for head in heads:
        span = list(range(col, col + head.width))
        if head.kind == "softmax":
            by_width.setdefault(head.width, []).extend(span)
        else:
            numeric.extend(span)
        col += head.width
    groups = tuple(HeadGroup(_columns(cols), len(cols) // width, width)
                   for width, cols in by_width.items())
    return HeadLayout(groups, _columns(numeric) if numeric else None)


@dataclass
class ForwardCache:
    """Activations recorded by forward(), consumed by backward()."""

    inputs: list[np.ndarray]    # per layer: input batch
    logits: np.ndarray          # output layer activations, before the heads
    outputs: np.ndarray         # post-head outputs
    squeezed: bool              # input arrived as a single vector


def init_mlp(input_width: int, hidden: tuple[int, ...], heads: tuple[Head, ...],
             rng: np.random.Generator) -> Mlp:
    """Glorot-uniform weights, zero biases, tanh hiddens, linear output."""
    output_width = sum(h.width for h in heads)
    widths = [input_width, *hidden, output_width]
    layers = []
    for l in range(len(widths) - 1):
        fan_in, fan_out = widths[l], widths[l + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        activation = "tanh" if l < len(widths) - 2 else "linear"
        layers.append(DenseLayer(weights, np.zeros(fan_out), activation))
    return Mlp(layers, tuple(heads))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-logit subtraction for overflow safety."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward_layers(mlp: Mlp, a: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Layer recurrence of forward() on a 2-D batch, without checks or heads.

    Returns each layer's input and the output layer's activations (the
    logits the heads act on).
    """
    inputs = []
    for layer in mlp.layers:
        inputs.append(a)
        z = a @ layer.weights.T + layer.biases
        a = np.tanh(z) if layer.activation == "tanh" else z
    return inputs, a


def forward(mlp: Mlp, x) -> tuple[np.ndarray, ForwardCache]:
    """Evaluate the network on a vector or a batch.

    Returns the post-head outputs and a cache for backward(). Softmax heads
    produce strictly positive blocks summing to one per row.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DataError("non-finite network input")
    squeezed = arr.ndim == 1
    a = arr[None, :] if squeezed else arr
    if a.shape[1] != mlp.input_width:
        raise DataError(f"input width {a.shape[1]} does not match network input {mlp.input_width}")
    inputs, logits = forward_layers(mlp, a)
    out = logits.copy()
    for group in head_layout(mlp.heads).groups:
        heads = logits[:, group.columns].reshape(-1, group.width)
        out[:, group.columns] = softmax(heads).reshape(len(out), group.count * group.width)
    cache = ForwardCache(inputs, logits, out, squeezed)
    return (out[0] if squeezed else out), cache


def backward(mlp: Mlp, cache: ForwardCache, output_grad) -> tuple[list[np.ndarray], np.ndarray]:
    """Reverse-mode gradients for every weight and bias.

    ``output_grad`` is the loss gradient with respect to the post-head
    outputs. Returns flat parameter gradients ordered like
    :func:`parameters` plus the gradient with respect to the input batch.
    """
    g = np.asarray(output_grad, dtype=float)
    if g.ndim == 1:
        g = g[None, :]
    if len(cache.inputs) != len(mlp.layers) or g.shape != cache.outputs.shape:
        raise StaleCacheError(
            f"cache shape {cache.outputs.shape} does not match gradient {g.shape} / network")
    # push through the heads: softmax needs its Jacobian, linear passes through
    d_logits = g.copy()
    for group in head_layout(mlp.heads).groups:
        s = cache.outputs[:, group.columns].reshape(-1, group.width)
        gs = g[:, group.columns].reshape(-1, group.width)
        d_logits[:, group.columns] = (s * (gs - np.sum(gs * s, axis=1, keepdims=True))
                                      ).reshape(len(g), group.count * group.width)
    grads, d_pre = backward_layers(mlp, cache.inputs, cache.logits, d_logits)
    d_input = d_pre @ mlp.layers[0].weights
    return grads, (d_input[0] if cache.squeezed else d_input)


def backward_layers(mlp: Mlp, inputs: list[np.ndarray], logits: np.ndarray,
                    d_logits: np.ndarray, grads: list[np.ndarray] | None = None
                    ) -> tuple[list[np.ndarray], np.ndarray]:
    """Layer recurrence of backward(), entered with the loss gradient at the
    logits (the output layer's activations).

    Gradients are written into ``grads`` (arrays shaped like
    :func:`parameters`) when given, else into new arrays. Returns them and
    the gradient at the first layer's pre-activation; multiply that by the
    first layer's weights for the gradient at the network input.
    """
    if grads is None:
        grads = [np.empty_like(p) for p in parameters(mlp)]
    d_act = d_logits
    last = len(mlp.layers) - 1
    for l in range(last, -1, -1):
        layer = mlp.layers[l]
        if layer.activation == "tanh":
            # tanh' = 1 - tanh^2, and tanh of this layer is the next layer's input
            act = logits if l == last else inputs[l + 1]
            d_pre = d_act * (1.0 - act ** 2)
        else:
            d_pre = d_act
        np.matmul(d_pre.T, inputs[l], out=grads[2 * l])
        np.sum(d_pre, axis=0, out=grads[2 * l + 1])
        if l:
            d_act = d_pre @ layer.weights
    return grads, d_pre


def parameters(mlp: Mlp) -> list[np.ndarray]:
    """Flat parameter list [W0, b0, W1, b1, ...]."""
    out = []
    for layer in mlp.layers:
        out.append(layer.weights)
        out.append(layer.biases)
    return out


def set_parameters(mlp: Mlp, arrays: list[np.ndarray]) -> None:
    for layer, (w, b) in zip(mlp.layers, zip(arrays[0::2], arrays[1::2])):
        layer.weights = w
        layer.biases = b


@dataclass
class PackedParameters:
    """Parameters of several networks in one contiguous float64 vector.

    ``values`` backs every weight and bias (the layers hold views into it);
    ``grads`` is a matching buffer and ``grad_blocks`` its views, ordered
    like :func:`parameters` over the networks in turn.
    """

    values: np.ndarray
    grads: np.ndarray
    grad_blocks: list[np.ndarray]
    ends: np.ndarray  # end offset of each block in the flat vectors

    def first_nonfinite_block(self) -> int:
        """Index of the first block whose gradient is not finite."""
        first = int(np.argmin(np.isfinite(self.grads)))
        return int(np.searchsorted(self.ends, first, side="right"))


def pack_parameters(mlps) -> PackedParameters:
    """Copy the parameters of ``mlps`` into one flat vector and rebind every
    layer to views of it; the arrays the layers held before are not shared."""
    arrays = [p for mlp in mlps for p in parameters(mlp)]
    ends = np.cumsum([p.size for p in arrays])
    values, grads = np.empty(int(ends[-1])), np.zeros(int(ends[-1]))

    def views(flat):
        return [flat[end - p.size:end].reshape(p.shape) for p, end in zip(arrays, ends)]

    value_blocks = views(values)
    for block, p in zip(value_blocks, arrays):
        block[...] = p
    offset = 0
    for mlp in mlps:
        count = 2 * len(mlp.layers)
        set_parameters(mlp, value_blocks[offset:offset + count])
        offset += count
    return PackedParameters(values, grads, views(grads), ends)


RMSPROP_RHO = 0.9  # decay of the squared-gradient average
RMSPROP_EPSILON = 1e-8  # added under the square root


@dataclass
class RmspropState:
    learning_rate: float
    accumulator: np.ndarray


def rmsprop_init(values: np.ndarray, learning_rate: float = 0.001) -> RmspropState:
    """Optimizer state for the packed parameter vector ``values``
    (:attr:`PackedParameters.values`)."""
    return RmspropState(learning_rate, np.zeros_like(values))


def rmsprop_step(values: np.ndarray, grads: np.ndarray, state: RmspropState) -> None:
    """One update of ``values`` and ``state.accumulator``, in place:
    acc <- rho*acc + (1-rho)*g^2; p <- p - lr*g/sqrt(acc+eps).

    Raises DivergenceError, before anything changes, where ``grads`` is not
    finite; :meth:`PackedParameters.first_nonfinite_block` names the block.
    """
    if not np.isfinite(grads).all():
        raise DivergenceError("non-finite gradient")
    acc = state.accumulator
    # rho*acc + (1-rho)*g*g and p - lr*g/sqrt(acc+eps), operation for
    # operation in the same order (bit-identical), on two temporaries
    t = (1.0 - RMSPROP_RHO) * grads
    t *= grads
    acc *= RMSPROP_RHO
    acc += t
    np.sqrt(np.add(acc, RMSPROP_EPSILON, out=t), out=t)
    step = state.learning_rate * grads
    step /= t
    values -= step


def mlp_to_dict(mlp: Mlp) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "layers": [
            {"weights": layer.weights.tolist(), "biases": layer.biases.tolist(),
             "activation": layer.activation}
            for layer in mlp.layers
        ],
        "heads": [{"kind": h.kind, "width": h.width} for h in mlp.heads],
    }


def mlp_from_dict(doc: dict, name: str = "MLP") -> Mlp:
    """Inverse of :func:`mlp_to_dict`; raises DataError, naming the network
    ``name``, for a document whose shapes do not chain from layer to layer
    or whose heads do not tile the output layer."""
    read_format(doc, CHECKPOINT_FORMAT, "an MLP checkpoint")
    layer_docs, heads = read_fields(doc, {"layers": "a list", "heads": "a list"}, name, f"{name} ")
    layers = []
    for l, entry in enumerate(layer_docs):
        what = f"{name} layer {l}"
        weights, biases, activation = read_fields(entry, {
            "weights": "a list of number lists", "biases": "a list of numbers",
            "activation": "a string"}, what, f"{what}: ")
        w = np.asarray(read_rows(weights, f"{what}: weights"), dtype=float)
        b = np.asarray(biases, dtype=float)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise DataError(f"{what}: weights {w.shape} and biases {b.shape} do not match")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise DataError(f"{what}: non-finite parameters")
        if layers and w.shape[1] != layers[-1].weights.shape[0]:
            raise DataError(f"{what}: input width {w.shape[1]} does not match the "
                            f"{layers[-1].weights.shape[0]} outputs of layer {l - 1}")
        layers.append(DenseLayer(w, b, activation))
    if not layers:
        raise DataError(f"{name} has no layers")
    heads = tuple(Head(*read_fields(h, {"kind": "a string", "width": "an integer"},
                                    f"{name} head {i}", f"{name} head "))
                  for i, h in enumerate(heads))
    for head in heads:
        if head.kind not in ("linear", "softmax") or head.width < 1:
            raise DataError(f"{name}: bad head {head}")
    mlp = Mlp(layers, heads)
    if sum(h.width for h in heads) != mlp.output_width:
        raise DataError(f"{name} heads cover {sum(h.width for h in heads)} of "
                        f"{mlp.output_width} output columns")
    return mlp
