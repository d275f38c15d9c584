"""Dense network forward/backward and RMSprop."""

import numpy as np
import pytest

from agentsynth.errors import DataError, DivergenceError, StaleCacheError
from agentsynth.neural import (
    RMSPROP_EPSILON,
    RMSPROP_RHO,
    DenseLayer,
    Head,
    Mlp,
    backward,
    backward_layers,
    forward,
    head_layout,
    init_mlp,
    mlp_from_dict,
    mlp_to_dict,
    pack_parameters,
    parameters,
    rmsprop_init,
    rmsprop_step,
    softmax,
)

from oracles import per_head_backward, per_head_forward, rmsprop_per_block


def _random_net(rng, input_width=4, hidden=(5,), heads=(Head("linear", 2), Head("softmax", 3))):
    return init_mlp(input_width, hidden, heads, rng)


class TestForward:
    def test_zero_network_gives_zero_hiddens(self, rng):
        net = _random_net(rng, heads=(Head("linear", 2),))
        for layer in net.layers:
            layer.weights = np.zeros_like(layer.weights)
            layer.biases = np.zeros_like(layer.biases)
        y, cache = forward(net, np.ones(4))
        assert np.all(y == 0.0)
        assert np.all(cache.inputs[1] == 0.0)

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(np.zeros((1, 3))), np.full((1, 3), 1 / 3))

    def test_matches_straight_line_oracle(self, rng):
        # Oracle: re-evaluate the two-layer network with bare matrix algebra.
        net = _random_net(rng, input_width=6, hidden=(4,),
                          heads=(Head("linear", 1), Head("softmax", 3)))
        x = rng.normal(size=6)
        w0, b0 = net.layers[0].weights, net.layers[0].biases
        w1, b1 = net.layers[1].weights, net.layers[1].biases
        h = np.tanh(w0 @ x + b0)
        z = w1 @ h + b1
        expected = np.concatenate([z[:1], np.exp(z[1:]) / np.exp(z[1:]).sum()])
        y, _ = forward(net, x)
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_softmax_blocks_sum_to_one(self, rng):
        net = _random_net(rng)
        y, _ = forward(net, rng.normal(size=(20, 4)) * 30)
        s = y[:, 2:].sum(axis=1)
        np.testing.assert_allclose(s, 1.0, atol=1e-9)
        assert np.all(y[:, 2:] > 0)

    def test_non_finite_input_raises(self, rng):
        net = _random_net(rng)
        with pytest.raises(DataError, match="non-finite"):
            forward(net, np.array([1.0, np.nan, 0.0, 0.0]))

    def test_deterministic(self, rng):
        net = _random_net(rng)
        x = rng.normal(size=(5, 4))
        y1, _ = forward(net, x)
        y2, _ = forward(net, x)
        np.testing.assert_array_equal(y1, y2)


class TestBackward:
    def test_zero_output_gradient(self, rng):
        net = _random_net(rng)
        _, cache = forward(net, rng.normal(size=(3, 4)))
        grads, dx = backward(net, cache, np.zeros((3, 5)))
        assert all(np.all(g == 0.0) for g in grads)
        assert np.all(dx == 0.0)

    def test_single_linear_neuron(self):
        # y = w x + b, loss = y: dL/dw = x, dL/db = 1
        net = Mlp([DenseLayer(np.array([[2.0]]), np.array([0.5]), "linear")],
                  (Head("linear", 1),))
        x = np.array([3.0])
        _, cache = forward(net, x)
        grads, dx = backward(net, cache, np.array([1.0]))
        assert grads[0].item() == 3.0
        assert grads[1].item() == 1.0
        assert dx.item() == 2.0

    def test_matches_finite_differences(self, rng):
        # Oracle: central differences of a scalar loss through the full net.
        net = _random_net(rng, input_width=3, hidden=(4, 3),
                          heads=(Head("linear", 2), Head("softmax", 3)))
        x = rng.normal(size=(2, 3))
        target = rng.normal(size=(2, 5))

        def loss_value(n):
            y, _ = forward(n, x)
            return 0.5 * np.sum((y - target) ** 2)

        y, cache = forward(net, x)
        grads, _ = backward(net, cache, y - target)
        params = parameters(net)
        h = 1e-5
        worst = 0.0
        for k, p in enumerate(params):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up = loss_value(net)
                p[idx] = orig - h
                down = loss_value(net)
                p[idx] = orig
                fd = (up - down) / (2 * h)
                err = abs(grads[k][idx] - fd) / max(abs(grads[k][idx]) + abs(fd), 1e-6)
                worst = max(worst, err)
        assert worst < 1e-4

    def test_layer_recurrence_from_logits(self, rng):
        # with linear heads the post-head gradient is the logit gradient
        net = _random_net(rng, input_width=3, hidden=(4, 3),
                          heads=(Head("linear", 2), Head("linear", 1)))
        x = rng.normal(size=(5, 3))
        g = rng.normal(size=(5, 3))
        _, cache = forward(net, x)
        grads, dx = backward(net, cache, g)
        out = [np.full_like(p, np.nan) for p in parameters(net)]
        same, d_pre = backward_layers(net, cache.inputs, cache.logits, g, out)
        assert same is out
        for a, b in zip(out, grads):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(d_pre @ net.layers[0].weights, dx)

    def test_tanh_output_layer_matches_finite_differences(self, rng):
        net = _random_net(rng, input_width=3, hidden=(4,), heads=(Head("softmax", 3),))
        net.layers[-1].activation = "tanh"
        x = rng.normal(size=(2, 3))
        target = rng.normal(size=(2, 3))

        def loss_value():
            y, _ = forward(net, x)
            return 0.5 * np.sum((y - target) ** 2)

        y, cache = forward(net, x)
        grads, _ = backward(net, cache, y - target)
        h = 1e-6
        for k, p in enumerate(parameters(net)):
            for idx in np.ndindex(p.shape):
                orig = p[idx]
                p[idx] = orig + h
                up = loss_value()
                p[idx] = orig - h
                down = loss_value()
                p[idx] = orig
                assert abs(grads[k][idx] - (up - down) / (2 * h)) < 1e-7

    def test_stale_cache_rejected(self, rng):
        net = _random_net(rng)
        _, cache = forward(net, rng.normal(size=(3, 4)))
        with pytest.raises(StaleCacheError):
            backward(net, cache, np.zeros((2, 5)))


HEAD_WIDTHS = (2, 3, 4, 5, 8, 9, 16, 33)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestGroupedHeads:
    """forward and backward apply the softmax and its Jacobian once per width
    group; outputs and gradients keep the bits of a loop over single heads
    (the oracle), which is what keeps sampled pools byte-identical."""

    def _net(self, rng, repeats):
        # each width once (every group one head, its columns a slice) or
        # twice with other heads between (index-array columns); a linear
        # head after every softmax head
        heads = tuple(head for _ in range(repeats) for width in HEAD_WIDTHS
                      for head in (Head("softmax", width), Head("linear", 1 + width % 2)))
        net = init_mlp(6, (7,), heads, rng)
        net.layers[-1].weights *= 8.0  # logits spread over several nats
        return net

    @pytest.mark.parametrize("repeats", [1, 2])
    @pytest.mark.parametrize("rows", [None, 1, 41])
    def test_bits_equal_the_per_head_loop(self, rng, repeats, rows):
        net = self._net(rng, repeats)
        layout = head_layout(net.heads)
        assert sorted(g.width for g in layout.groups) == sorted(HEAD_WIDTHS)
        assert all(isinstance(g.columns, slice if repeats == 1 else np.ndarray)
                   for g in layout.groups)
        x = rng.normal(size=6 if rows is None else (rows, 6))
        y, cache = forward(net, x)
        want_y, want_cache = per_head_forward(net, x)
        assert y.shape == want_y.shape == ((net.output_width,) if rows is None
                                           else (rows, net.output_width))
        np.testing.assert_array_equal(_bits(y), _bits(want_y))
        g = rng.normal(size=y.shape)
        grads, dx = backward(net, cache, g)
        want_grads, want_dx = per_head_backward(net, want_cache, g)
        assert dx.shape == want_dx.shape == x.shape
        for got, want in zip([*grads, dx], [*want_grads, want_dx]):
            np.testing.assert_array_equal(_bits(got), _bits(want))


class TestRmsprop:
    def test_zero_gradient_leaves_parameters(self):
        values = np.array([1.0, -2.0])
        state = rmsprop_init(values)
        rmsprop_step(values, np.zeros(2), state)
        np.testing.assert_array_equal(values, [1.0, -2.0])

    def test_first_step_hand_value(self):
        # acc = 0.1, step = -0.001/sqrt(0.1 + 1e-8)
        values = np.array([0.0])
        state = rmsprop_init(values, learning_rate=0.001)
        rmsprop_step(values, np.array([1.0]), state)
        assert (RMSPROP_RHO, RMSPROP_EPSILON) == (0.9, 1e-8)
        assert abs(state.accumulator.item() - 0.1) < 1e-15
        assert abs(values.item() - (-0.001 / np.sqrt(0.1 + 1e-8))) < 1e-12
        assert abs(values.item() - (-0.0031623)) < 1e-6

    def test_two_steps_decrease_quadratic(self):
        # loss(p) = 0.5 p^2 on a scalar; gradient is p
        p = np.array([2.0])
        state = rmsprop_init(p, learning_rate=0.05)
        losses = [0.5 * p.item() ** 2]
        for _ in range(2):
            rmsprop_step(p, p.copy(), state)
            losses.append(0.5 * p.item() ** 2)
        assert losses[1] < losses[0]
        assert losses[2] < losses[1]

    def test_updates_in_place(self):
        values = np.array([1.0, -2.0, 0.5])
        state = rmsprop_init(values)
        accumulator = state.accumulator
        assert rmsprop_step(values, np.array([1.0, 1.0, -1.0]), state) is None
        assert state.accumulator is accumulator and (accumulator > 0).all()
        assert values[0] < 1.0 and values[2] > 0.5

    def test_non_finite_gradient_changes_nothing(self):
        values = np.zeros(5)
        state = rmsprop_init(values)
        with pytest.raises(DivergenceError, match="non-finite gradient"):
            rmsprop_step(values, np.array([1.0, 1.0, 0.0, np.inf, 0.0]), state)
        assert not values.any() and not state.accumulator.any()

    def test_packed_step_equals_the_per_block_reference(self):
        """50 steps on blocks shaped like a 60-column VAE's (hidden 100,
        latent 4), one block's gradient all zeros throughout: the packed
        step writes the bits of the per-block update."""
        rng = np.random.default_rng(3)
        encoder = init_mlp(60, (100,), (Head("linear", 8),), rng)
        decoder = init_mlp(4, (100,), (Head("softmax", 60),), rng)
        packed = pack_parameters([encoder, decoder])
        blocks = [p.copy() for p in parameters(encoder) + parameters(decoder)]
        state, accumulators = rmsprop_init(packed.values, 0.01), [np.zeros_like(p) for p in blocks]
        for _ in range(50):
            for k, g in enumerate(packed.grad_blocks):
                g[...] = 0.0 if k == 3 else rng.normal(scale=10.0 ** rng.integers(-6, 2),
                                                       size=g.shape)
            rmsprop_per_block(blocks, packed.grad_blocks, accumulators, 0.01)
            rmsprop_step(packed.values, packed.grads, state)
        for got, want in zip(parameters(encoder) + parameters(decoder), blocks):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(
            state.accumulator.view(np.int64),
            np.concatenate([a.ravel() for a in accumulators]).view(np.int64))
        assert not accumulators[3].any()


class TestCheckpoint:
    def test_roundtrip(self, rng):
        net = _random_net(rng)
        restored = mlp_from_dict(mlp_to_dict(net))
        x = rng.normal(size=(4, 4))
        y1, _ = forward(net, x)
        y2, _ = forward(restored, x)
        np.testing.assert_allclose(y1, y2, atol=1e-15)
        assert restored.heads == net.heads


    @pytest.mark.parametrize("corrupt, message", [
        (lambda d: d["layers"][0]["biases"].pop(), r"layer 0: weights \(5, 4\) and biases \(4,\)"),
        (lambda d: d["layers"][1]["weights"][0].pop(),
         "^MLP layer 1: weights row 1 has length 5, not 4 like row 0$"),
        (lambda d: [row.pop() for row in d["layers"][1]["weights"]],
         "layer 1: input width 4 does not match the 5 outputs of layer 0"),
        (lambda d: d["heads"].pop(), "heads cover 2 of 5 output columns"),
        (lambda d: d["heads"][0].update(width=0), "bad head"),
        (lambda d: d.update(layers=[]), "no layers"),
        (lambda d: d["layers"][0].pop("activation"), "^MLP layer 0 lacks 'activation'$"),
        (lambda d: d["layers"][1]["biases"].__setitem__(2, float("nan")),
         "layer 1: non-finite parameters"),
        (lambda d: d["layers"][1]["biases"].__setitem__(2, "0.5"),
         "layer 1: biases must be a list of numbers"),
        (lambda d: d["layers"][0]["weights"][1].__setitem__(0, True),
         "layer 0: weights must be a list of number lists"),
        (lambda d: d["layers"][0].update(activation=1), "layer 0: activation must be a string"),
        (lambda d: d["layers"].__setitem__(1, []), "layer 1 must be an object"),
        (lambda d: d["heads"][0].update(width="2"), "head width must be an integer"),
        (lambda d: d.update(heads={}), "MLP heads must be a list"),
        (lambda d: d["heads"].__setitem__(0, "softmax"),
         "^MLP head 0 must be an object, got 'softmax'$"),
    ])
    def test_inconsistent_document_is_data_error(self, rng, corrupt, message):
        doc = mlp_to_dict(_random_net(rng))
        corrupt(doc)
        with pytest.raises(DataError, match=message):
            mlp_from_dict(doc)

    @pytest.mark.parametrize("entry, key, what", [
        *((lambda d: d, key, "MLP") for key in ("layers", "heads")),
        *((lambda d: d["layers"][1], key, "MLP layer 1")
          for key in ("weights", "biases", "activation")),
        *((lambda d: d["heads"][1], key, "MLP head 1") for key in ("kind", "width")),
    ])
    def test_missing_key_is_named(self, rng, entry, key, what):
        doc = mlp_to_dict(_random_net(rng))
        del entry(doc)[key]
        with pytest.raises(DataError, match=f"^{what} lacks '{key}'$"):
            mlp_from_dict(doc)

    def test_document_that_is_no_object_is_data_error(self):
        with pytest.raises(DataError, match="an MLP checkpoint must be an object"):
            mlp_from_dict([])


class TestTrainingReproducibility:
    def test_fixed_seed_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(99)
            net = _random_net(rng, heads=(Head("linear", 2),))
            packed = pack_parameters([net])
            state = rmsprop_init(packed.values)
            x = rng.normal(size=(8, 4))
            t = rng.normal(size=(8, 2))
            for _ in range(25):
                y, cache = forward(net, x)
                grads, _ = backward(net, cache, (y - t) / len(x))
                packed.grads[...] = np.concatenate([g.ravel() for g in grads])
                rmsprop_step(packed.values, packed.grads, state)
            return packed.values

        np.testing.assert_array_equal(run(), run())
