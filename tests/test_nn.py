import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from azsl import nn
from conftest import grad_check, params_allclose, peak_bytes


def small_net(seed=0, role=nn.ROLE_TEACHER):
    specs = [
        nn.LayerSpec(5, 7, nn.ACT_LEAKY_RELU, 0.2),
        nn.LayerSpec(7, 6, nn.ACT_LEAKY_RELU, 0.2),
        nn.LayerSpec(6, 3, nn.ACT_IDENTITY),
    ]
    return nn.mlp_init(specs, role, seed)


class TestInit:
    def test_full_scale_teacher_shape(self):
        specs = [
            nn.LayerSpec(2048, 1024, nn.ACT_LEAKY_RELU),
            nn.LayerSpec(1024, 512, nn.ACT_LEAKY_RELU),
            nn.LayerSpec(512, 10, nn.ACT_IDENTITY),
        ]
        params = nn.mlp_init(specs, nn.ROLE_TEACHER, seed=1)
        assert params.in_dim == 2048 and params.out_dim == 10
        assert [w.shape for w in params.weights] == [(2048, 1024), (1024, 512), (512, 10)]
        bound = math.sqrt(6.0 / (2048 + 1024))
        assert np.abs(params.weights[0]).max() <= bound
        assert all((b == 0).all() for b in params.biases)

    def test_generator_shape(self):
        specs = [nn.LayerSpec(36, 4096, nn.ACT_LEAKY_RELU), nn.LayerSpec(4096, 2048, nn.ACT_RELU)]
        params = nn.mlp_init(specs, nn.ROLE_GENERATOR, seed=2)
        assert params.layers[-1].activation == nn.ACT_RELU

    def test_deterministic(self):
        a = small_net(seed=42)
        b = small_net(seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert not params_allclose(small_net(seed=1), small_net(seed=2))

    def test_chain_mismatch_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            nn.mlp_init([nn.LayerSpec(4, 5), nn.LayerSpec(6, 2)], nn.ROLE_TEACHER, 0)

    def test_bad_layer_spec(self):
        with pytest.raises(ValueError):
            nn.LayerSpec(0, 3)
        with pytest.raises(ValueError):
            nn.LayerSpec(3, 3, "tanh")
        with pytest.raises(ValueError):
            nn.LayerSpec(3, 3, nn.ACT_LEAKY_RELU, slope=1.5)


class TestForward:
    def test_zero_net_zero_logits(self):
        params = small_net()
        for w in params.weights:
            w[:] = 0.0
        for b in params.biases:
            b[:] = 0.0
        out, _ = nn.mlp_forward(params, np.random.default_rng(0).normal(size=(4, 5)))
        assert np.array_equal(out, np.zeros((4, 3)))

    def test_batch_row_independence(self):
        params = small_net()
        row = np.random.default_rng(1).normal(size=(1, 5))
        single, _ = nn.mlp_forward(params, row)
        double, _ = nn.mlp_forward(params, np.vstack([row, row]))
        assert np.array_equal(double[0], double[1])
        # across batch shapes BLAS may pick different kernels; equality up to fp noise
        assert np.allclose(double[0], single[0], rtol=0, atol=1e-12)

    def test_matches_straight_line_recomputation(self):
        # independent oracle: per-element affine + activation in plain python
        params = small_net(seed=9)
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(3, 5))
        out, _ = nn.mlp_forward(params, batch)

        def act(v, spec):
            if spec.activation == nn.ACT_LEAKY_RELU:
                return v if v > 0 else spec.slope * v
            if spec.activation == nn.ACT_RELU:
                return max(v, 0.0)
            return v

        for r in range(3):
            x = list(batch[r])
            for spec, w, b in zip(params.layers, params.weights, params.biases):
                x = [
                    act(sum(x[i] * w[i, j] for i in range(spec.in_dim)) + b[j], spec)
                    for j in range(spec.out_dim)
                ]
            assert np.allclose(out[r], x, atol=1e-12, rtol=0)

    def test_row_permutation_equivariance(self):
        params = small_net(seed=4)
        rng = np.random.default_rng(6)
        batch = rng.normal(size=(8, 5))
        perm = rng.permutation(8)
        out, _ = nn.mlp_forward(params, batch)
        out_p, _ = nn.mlp_forward(params, batch[perm])
        assert np.array_equal(out[perm], out_p)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="cols"):
            nn.mlp_forward(small_net(), np.zeros((2, 4)))

    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    # under one block, exactly one block, and two full blocks plus part of a third
    @pytest.mark.parametrize("rows", [12, nn.ACTIVATE_BLOCK_ROWS, 2 * nn.ACTIVATE_BLOCK_ROWS + 37])
    def test_uncached_output_is_the_cached_output_bit_for_bit(self, activation, rows):
        specs = [nn.LayerSpec(6, 9, activation), nn.LayerSpec(9, 5, activation), nn.LayerSpec(5, 4, activation)]
        params = nn.mlp_init(specs, nn.ROLE_GENERATOR, seed=17)
        params.biases[1][::2] = -0.0
        rng = np.random.default_rng(18)
        x = rng.normal(size=(rows, 6))
        # +0.0 and -0.0 rows and columns, in the first block and in the last
        for at in (0, rows - 4):
            x[at] = 0.0
            x[at + 1] = -0.0
            x[at + 2, ::2] = -0.0
            x[at + 3, 1::2] = 0.0
        assert (x < 0).any() and np.signbit(x[1]).all() and np.signbit(x[rows - 3]).all()
        before = x.copy()
        cached, cache = nn.mlp_forward(params, x)
        uncached, none = nn.mlp_forward(params, x, cache=False)
        assert cache is not None and none is None
        assert np.array_equal(uncached.view(np.uint64), cached.view(np.uint64))
        assert np.array_equal(x.view(np.uint64), before.view(np.uint64))  # the input is never written

    def test_uncached_forward_holds_one_layer_at_a_time(self):
        # a 2000-row quota request through a (128, 64) teacher: each layer's
        # activation is written over its pre-activation, so the peak is the
        # widest layer's input and output (2.0 + 1.0 MB) plus one block of
        # the leaky ReLU's temporary; the bound adds 10% (measured 3.2 MB on
        # x86-64; a separate activation array per layer took it to 4.1 MB)
        params = nn.mlp_init(nn.classifier_specs(64, 20, (128, 64)), nn.ROLE_TEACHER, 0)
        rows = 2000
        x = np.abs(np.random.default_rng(19).normal(size=(rows, 64)))
        (out, _), peak = peak_bytes(nn.mlp_forward, params, x, cache=False)
        assert out.shape == (rows, 20)
        block = 8 * nn.ACTIVATE_BLOCK_ROWS * 128
        assert peak < 1.1 * (8 * rows * (128 + 64) + block)

    def test_cached_forward_holds_one_array_per_layer(self):
        # the same pass with a cache: the cache keeps each layer's activation,
        # written over its pre-activation, so the pass holds one 2000-row array
        # per layer (2.0 + 1.0 + 0.3 MB); the bound adds 10% (measured 3.5 MB
        # on x86-64; keeping each pre-activation beside it took 6.5 MB)
        params = nn.mlp_init(nn.classifier_specs(64, 20, (128, 64)), nn.ROLE_TEACHER, 0)
        rows = 2000
        x = np.random.default_rng(20).normal(size=(rows, 64))
        (out, cache), peak = peak_bytes(nn.mlp_forward, params, x)
        assert out.shape == (rows, 20) and len(cache.acts) == 4
        assert peak < 1.1 * 8 * rows * (128 + 64 + 20)


class TestSoftmax:
    def test_uniform_logits(self):
        probs = nn.softmax(np.zeros((3, 5)))
        assert np.allclose(probs, 0.2, atol=1e-15)

    def test_shift_invariance(self):
        logits = np.random.default_rng(0).normal(size=(4, 6))
        shifted = logits + np.array([[10.0], [-3.0], [0.5], [1e6]])
        assert np.allclose(nn.softmax(logits), nn.softmax(shifted), atol=1e-12)

    def test_closed_form_pair(self):
        probs = nn.softmax(np.array([[0.0, math.log(3.0)]]))
        assert np.allclose(probs, [[0.25, 0.75]], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(-300, 300),  # keep exp(shifted) above the underflow floor
        )
    )
    def test_rows_sum_to_one(self, logits):
        probs = nn.softmax(logits)
        assert np.all(probs > 0) and np.all(probs < 1 + 1e-12)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestLosses:
    def test_ce_perfect_prediction(self):
        probs = np.eye(4)[[0, 2, 3]]
        # exact one-hot: clamp away the log(0) columns by mixing epsilon
        probs = probs * (1 - 1e-15) + 1e-15 / 4
        value, _ = nn.loss_ce(probs, [0, 2, 3])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_ce_uniform(self):
        c = 7
        value, _ = nn.loss_ce(np.full((3, c), 1.0 / c), [0, 1, 2])
        assert value == pytest.approx(math.log(c), abs=1e-12)

    def test_ce_grad_finite_difference(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        _, grad = nn.loss_ce(nn.softmax(logits), labels)
        eps = 1e-6
        for _ in range(50):
            i, j = rng.integers(0, 5), rng.integers(0, 4)
            hi = logits.copy()
            hi[i, j] += eps
            lo = logits.copy()
            lo[i, j] -= eps
            num = (nn.loss_ce(nn.softmax(hi), labels)[0] - nn.loss_ce(nn.softmax(lo), labels)[0]) / (2 * eps)
            assert abs(grad[i, j] - num) / max(abs(num), abs(grad[i, j]), 1e-6) < 1e-5

    def test_ce_label_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            nn.loss_ce(np.full((2, 3), 1 / 3), [0, 3])

    def test_mse_identities(self):
        a = np.random.default_rng(0).normal(size=(3, 4))
        assert nn.loss_mse(a, a)[0] == 0.0
        assert nn.loss_mse(a + 1.0, a)[0] == pytest.approx(1.0, abs=1e-12)

    def test_mse_grad_finite_difference(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        _, grad = nn.loss_mse(pred, target)
        eps = 1e-6
        for _ in range(40):
            i, j = rng.integers(0, 4), rng.integers(0, 3)
            hi = pred.copy()
            hi[i, j] += eps
            lo = pred.copy()
            lo[i, j] -= eps
            num = (nn.loss_mse(hi, target)[0] - nn.loss_mse(lo, target)[0]) / (2 * eps)
            assert abs(grad[i, j] - num) / max(abs(num), 1e-6) < 1e-6

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            nn.loss_mse(np.zeros((2, 3)), np.zeros((3, 2)))


class TestBackward:
    def test_zero_upstream(self):
        params = small_net()
        batch = np.random.default_rng(0).normal(size=(4, 5))
        out, cache = nn.mlp_forward(params, batch)
        grads, input_grad = nn.mlp_backward(params, cache, np.zeros_like(out))
        assert all((g == 0).all() for g in grads.weights + grads.biases)
        assert (input_grad == 0).all()

    def test_single_linear_layer_closed_form(self):
        params = nn.mlp_init([nn.LayerSpec(4, 3, nn.ACT_IDENTITY)], nn.ROLE_CLASSIFIER, 1)
        batch = np.random.default_rng(1).normal(size=(5, 4))
        _, cache = nn.mlp_forward(params, batch)
        upstream = np.random.default_rng(2).normal(size=(5, 3))
        grads, input_grad = nn.mlp_backward(params, cache, upstream)
        assert np.array_equal(input_grad, upstream @ params.weights[0].T)
        assert np.allclose(grads.weights[0], batch.T @ upstream, atol=1e-14)

    def test_finite_difference_params_and_input(self):
        params = small_net(seed=11)
        rng = np.random.default_rng(7)
        batch = rng.normal(size=(6, 5))
        target = rng.normal(size=(6, 3))

        def closure(p):
            out, cache = nn.mlp_forward(p, batch)
            value, grad_out = nn.loss_mse(out, target)
            grads, _ = nn.mlp_backward(p, cache, grad_out)
            return value, grads

        assert grad_check(params, closure, n_samples=200, seed=0) < 1e-4

        out, cache = nn.mlp_forward(params, batch)
        _, grad_out = nn.loss_mse(out, target)
        _, input_grad = nn.mlp_backward(params, cache, grad_out)
        eps = 1e-5
        for _ in range(60):
            i, j = rng.integers(0, 6), rng.integers(0, 5)
            hi = batch.copy()
            hi[i, j] += eps
            lo = batch.copy()
            lo[i, j] -= eps
            num = (
                nn.loss_mse(nn.mlp_forward(params, hi)[0], target)[0]
                - nn.loss_mse(nn.mlp_forward(params, lo)[0], target)[0]
            ) / (2 * eps)
            assert abs(input_grad[i, j] - num) / max(abs(num), abs(input_grad[i, j]), 1e-6) < 1e-4

    def test_stale_cache_rejected(self):
        params = small_net(seed=0)
        other = nn.mlp_init([nn.LayerSpec(5, 3, nn.ACT_IDENTITY)], nn.ROLE_TEACHER, 0)
        _, cache = nn.mlp_forward(other, np.zeros((2, 5)))
        with pytest.raises(ValueError, match="cache"):
            nn.mlp_backward(params, cache, np.zeros((2, 3)))

    @pytest.mark.parametrize("make", [
        lambda: small_net(seed=21),
        lambda: nn.mlp_init(
            [nn.LayerSpec(6, 9, nn.ACT_LEAKY_RELU, 0.2), nn.LayerSpec(9, 4, nn.ACT_RELU)], nn.ROLE_GENERATOR, 22
        ),
    ])
    def test_partial_backward_equals_full(self, make):
        params = make()
        rng = np.random.default_rng(23)
        out, cache = nn.mlp_forward(params, rng.normal(size=(11, params.in_dim)))
        upstream = rng.normal(size=out.shape)
        full_grads, full_input = nn.mlp_backward(params, cache, upstream)
        grads, no_input = nn.mlp_backward(params, cache, upstream, input_grad=False)
        no_grads, input_grad = nn.mlp_backward(params, cache, upstream, param_grads=False)
        assert no_input is None and no_grads is None
        assert np.array_equal(input_grad, full_input)
        for a, b in zip(grads.weights + grads.biases, full_grads.weights + full_grads.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(grads.buffer, full_grads.buffer)

    def test_grads_are_views_of_one_flat_buffer(self):
        params = small_net(seed=24)
        out, cache = nn.mlp_forward(params, np.ones((3, 5)))
        grads, _ = nn.mlp_backward(params, cache, np.ones_like(out))
        arrays = grads.weights + grads.biases
        assert all(a.base is grads.buffer for a in arrays)
        assert np.array_equal(grads.buffer, np.concatenate([a.ravel() for a in arrays]))


def where_leaky(z, slope):
    """Leaky ReLU as it was, with np.where."""
    return np.where(z > 0.0, z, slope * z)


def where_leaky_vjp(g, z, slope):
    """Its vector-Jacobian product as it was, with np.where."""
    return np.where(z > 0.0, g, g * slope)


def where_forward(params, x):
    """mlp_forward as it was: inputs, preactivations and output."""
    inputs, preacts = [], []
    for spec, w, b in zip(params.layers, params.weights, params.biases):
        inputs.append(x)
        z = x @ w
        z += b
        preacts.append(z)
        if spec.activation == nn.ACT_LEAKY_RELU:
            x = where_leaky(z, spec.slope)
        elif spec.activation == nn.ACT_RELU:
            x = np.maximum(z, 0.0)
        else:
            x = z
    return x, inputs, preacts


def where_backward(params, inputs, preacts, g):
    """mlp_backward as it was: weight grads, bias grads and the input grad."""
    gw, gb = [], []
    for i in range(len(params.layers) - 1, -1, -1):
        spec, z = params.layers[i], preacts[i]
        if spec.activation == nn.ACT_LEAKY_RELU:
            gz = where_leaky_vjp(g, z, spec.slope)
        elif spec.activation == nn.ACT_RELU:
            gz = g * (z > 0.0)
        else:
            gz = g
        gw.insert(0, inputs[i].T @ gz)
        gb.insert(0, gz.sum(axis=0))
        g = gz @ params.weights[i].T
    return gw, gb, g


def assert_same_bits(a, b):
    """Equal float64 bit patterns: the sign of zero and of nan included."""
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestLeakyRelu:
    """The branch-free leaky ReLU is the np.where form bit for bit, sign of zero included."""

    SPECIAL = [0.0, -0.0, 1e-310, -1e-310, 5e-324, -5e-324, 2.2250738585072014e-308,
               np.inf, -np.inf, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0,
               np.nan, -np.nan]

    def values(self, seed):
        rng = np.random.default_rng(seed)
        spread = rng.normal(size=200) * 10.0 ** rng.uniform(-300, 300, size=200)
        return np.concatenate([self.SPECIAL, spread])

    @pytest.mark.parametrize("slope", [0.2, 0.01, 0.99])
    def test_forward_and_vjp_match_where(self, slope):
        spec = nn.LayerSpec(1, 1, nn.ACT_LEAKY_RELU, slope)
        # every z against every g
        z, g = np.meshgrid(self.values(1), self.values(2), indexing="ij")
        a = nn._activate(z.copy(), spec)  # written over its argument
        assert_same_bits(a, where_leaky(z, slope))
        assert_same_bits(nn._activation_vjp(g, a, spec), where_leaky_vjp(g, z, slope))

    @pytest.mark.parametrize(
        "activation, slope",
        [(nn.ACT_LEAKY_RELU, 0.2), (nn.ACT_LEAKY_RELU, 0.01), (nn.ACT_LEAKY_RELU, 0.99),
         (nn.ACT_RELU, 0.2), (nn.ACT_IDENTITY, 0.2)],
    )
    def test_vjp_from_the_activation_is_the_where_form_from_the_preactivation(self, activation, slope):
        # the backward pass keeps no pre-activation: the slope read from the
        # activation must be the one np.where reads from z, for every z and g
        spec = nn.LayerSpec(1, 1, activation, slope)
        z, g = np.meshgrid(self.values(3), self.values(4), indexing="ij")
        with np.errstate(invalid="ignore"):  # inf * 0
            if activation == nn.ACT_LEAKY_RELU:
                want = np.where(z > 0.0, g, g * slope)
            elif activation == nn.ACT_RELU:
                want = np.where(z > 0.0, g, g * 0.0)
            else:
                want = g
            assert_same_bits(nn._activation_vjp(g, nn._activate(z.copy(), spec), spec), want)

    def test_generator_forward_and_backward_match_where(self):
        specs = [nn.LayerSpec(36, 256, nn.ACT_LEAKY_RELU, 0.2), nn.LayerSpec(256, 64, nn.ACT_RELU)]
        params = nn.mlp_init(specs, nn.ROLE_GENERATOR, 31)
        rng = np.random.default_rng(32)
        batch = rng.normal(size=(64, 36))
        batch[5] = 0.0  # preactivations of exactly zero
        batch[9] = -0.0
        out, cache = nn.mlp_forward(params, batch)
        ref_out, ref_inputs, ref_preacts = where_forward(params, batch)
        assert_same_bits(out, ref_out)
        assert len(cache.acts) == len(ref_inputs) + 1 and cache.acts[-1] is out
        for a, ref_a in zip(cache.acts, ref_inputs + [ref_out]):
            assert_same_bits(a, ref_a)
        upstream = rng.normal(size=out.shape)
        upstream[3] = -0.0
        grads, input_grad = nn.mlp_backward(params, cache, upstream)
        ref_gw, ref_gb, ref_input = where_backward(params, ref_inputs, ref_preacts, upstream)
        for got, want in zip((*grads.weights, *grads.biases, input_grad), ref_gw + ref_gb + [ref_input]):
            assert_same_bits(got, want)


def per_array_adam_step(params, grads, state):
    """adam_step as it was before the moments were flat: one pass per array."""
    state["step"] += 1
    t = state["step"]
    c1 = 1.0 - 0.9**t
    c2 = 1.0 - 0.999**t
    for a, g, m, v in zip(params.weights + params.biases, grads.weights + grads.biases, state["m"], state["v"]):
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        a -= state["lr"] * (m / c1) / (np.sqrt(v / c2) + 1e-8)


class TestAdam:
    def test_zero_grads_no_motion(self):
        params = small_net(seed=3)
        before = params.copy()
        state = nn.AdamState.for_params(params, lr=1e-3)
        nn.adam_step(params, nn.MlpGrads.zeros_like(params), state)
        assert state.step == 1
        assert params_allclose(params, before)

    def test_first_step_is_signed_lr(self):
        params = nn.mlp_init([nn.LayerSpec(1, 1, nn.ACT_IDENTITY)], nn.ROLE_CLASSIFIER, 0)
        w0 = params.weights[0][0, 0]
        grads = nn.MlpGrads.zeros_like(params)
        grads.weights[0][0, 0] = 0.37
        state = nn.AdamState.for_params(params, lr=1e-5)
        nn.adam_step(params, grads, state)
        delta = params.weights[0][0, 0] - w0
        assert delta < 0
        assert abs(delta) == pytest.approx(1e-5, rel=1e-3)

    def test_matches_hand_rolled_scalar_trace(self):
        # independent oracle: textbook Adam recurrence on one parameter
        params = nn.mlp_init([nn.LayerSpec(1, 1, nn.ACT_IDENTITY)], nn.ROLE_CLASSIFIER, 5)
        target = 2.0
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        state = nn.AdamState.for_params(params, lr=lr)

        w = params.weights[0][0, 0]
        m = v = 0.0
        for t in range(1, 4):
            g = 2.0 * (w - target)  # d/dw (w - target)^2
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)

            g_arr = nn.MlpGrads.zeros_like(params)
            g_arr.weights[0][0, 0] = 2.0 * (params.weights[0][0, 0] - target)
            nn.adam_step(params, g_arr, state)
        assert params.weights[0][0, 0] == pytest.approx(w, abs=1e-12)

    def test_shape_mismatch(self):
        params = small_net()
        grads = nn.MlpGrads.zeros_like(nn.mlp_init([nn.LayerSpec(5, 2)], nn.ROLE_TEACHER, 0))
        with pytest.raises(ValueError, match="another net"):
            nn.adam_step(params, grads, nn.AdamState.for_params(params))

    def test_finite_grads_never_nan(self):
        params = small_net(seed=1)
        state = nn.AdamState.for_params(params, lr=1e-3)
        rng = np.random.default_rng(0)
        grads = nn.MlpGrads.zeros_like(params)
        for _ in range(20):
            grads.buffer[:] = rng.normal(size=grads.buffer.size) * 1e6
            nn.adam_step(params, grads, state)
        assert np.isfinite(params.buffer).all()


    @pytest.mark.parametrize("specs", [
        nn.classifier_specs(64, 20, hidden=(128, 64)),  # student
        [nn.LayerSpec(36, 256, nn.ACT_LEAKY_RELU, 0.2), nn.LayerSpec(256, 64, nn.ACT_RELU)],  # generator
    ])
    def test_flat_step_equals_per_array_adam(self, specs):
        params = nn.mlp_init(specs, nn.ROLE_STUDENT, 31)
        expect = params.copy()
        state = nn.AdamState.for_params(params, lr=1e-3)
        ref_state = {
            "step": 0, "lr": 1e-3,
            "m": [np.zeros_like(a) for a in expect.weights + expect.biases],
            "v": [np.zeros_like(a) for a in expect.weights + expect.biases],
        }
        rng = np.random.default_rng(32)
        for _ in range(200):
            out, cache = nn.mlp_forward(params, np.abs(rng.normal(size=(8, params.in_dim))))
            grads, _ = nn.mlp_backward(params, cache, rng.normal(size=out.shape), input_grad=False)
            per_array_adam_step(expect, grads, ref_state)
            nn.adam_step(params, grads, state)
        for a, b in zip(params.weights + params.biases, expect.weights + expect.biases):
            assert np.array_equal(a, b)


class TestClassifierSpecs:
    def test_leaky_hidden_layers_and_linear_head(self):
        specs = nn.classifier_specs(5, 3, hidden=(7, 6), slope=0.1)
        assert [(s.in_dim, s.out_dim, s.activation) for s in specs] == [
            (5, 7, nn.ACT_LEAKY_RELU), (7, 6, nn.ACT_LEAKY_RELU), (6, 3, nn.ACT_IDENTITY),
        ]
        assert [s.slope for s in specs[:-1]] == [0.1, 0.1]

    def test_no_hidden_layers_is_one_linear_layer(self):
        assert nn.classifier_specs(5, 3, hidden=()) == [nn.LayerSpec(5, 3, nn.ACT_IDENTITY)]


class TestFitMinibatch:
    def test_epoch_terms_are_row_weighted_when_last_batch_is_short(self):
        params = small_net(seed=4)
        x = np.ones((10, 5))
        per_row = np.arange(10.0)

        def loss(logits, idx):
            return float(per_row[idx].mean()), np.zeros_like(logits)

        history = nn.fit_minibatch(params, x, loss, 2, 4, lambda epoch: np.arange(10), lr=1e-3)
        # batches of 4, 4 and 2 rows: batch means 1.5, 5.5 and 8.5 average to
        # 5.1666... unweighted; weighted by rows they give the mean of all rows
        assert history == [4.5, 4.5]
        assert all(type(value) is float for value in history)

    def test_order_called_once_per_epoch_in_order(self):
        params = small_net(seed=5)
        calls = []

        def order(epoch):
            calls.append(epoch)
            return np.random.default_rng(epoch).permutation(9)

        def loss(logits, idx):
            return 0.0, np.zeros_like(logits)

        nn.fit_minibatch(params, np.ones((9, 5)), loss, 3, 4, order, lr=1e-3)
        assert calls == [0, 1, 2]

    def test_student_fit_equals_the_hand_written_loop(self):
        from azsl.client import VerifiedBatch, train_student
        from azsl.config import ExperimentConfig
        from azsl.seeding import rng_for

        rng = np.random.default_rng(8)
        x = np.abs(rng.normal(size=(37, 5)))
        targets = nn.softmax(rng.normal(size=(37, 3)))
        verified = VerifiedBatch(x, targets.argmax(axis=1), targets, 1.0)
        cfg = ExperimentConfig(t_s=4, batch_size=8, lr=1e-2, seed=3)

        # the student distillation loop as it was written out before fit_minibatch
        expect = small_net(seed=6, role=nn.ROLE_STUDENT)
        state = nn.AdamState.for_params(expect, lr=cfg.lr)
        expect_trace = []
        n = len(verified)
        for epoch in range(cfg.t_s):
            order = rng_for(cfg.client_seed, "student-epoch", epoch).permutation(n)
            epoch_mse = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                t = verified.teacher_softmax[idx]
                logits, cache = nn.mlp_forward(expect, verified.features[idx])
                probs = nn.softmax(logits)
                mse, grad_probs = nn.loss_mse(probs, t)
                grads, _ = nn.mlp_backward(expect, cache, nn.softmax_vjp(probs, grad_probs))
                nn.adam_step(expect, grads, state)
                epoch_mse += mse * len(idx)
            expect_trace.append({"phase": "student", "epoch": epoch, "mse": epoch_mse / n})

        got, trace = train_student(small_net(seed=6, role=nn.ROLE_STUDENT), verified, cfg)
        assert trace == expect_trace
        assert all(np.array_equal(a, b) for a, b in zip(got.weights + got.biases, expect.weights + expect.biases))


class TestGradCheck:
    def make_linear_regression(self):
        params = nn.mlp_init([nn.LayerSpec(6, 1, nn.ACT_IDENTITY)], nn.ROLE_CLASSIFIER, 2)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 6))
        y = rng.normal(size=(30, 1))

        def closure(p):
            out, cache = nn.mlp_forward(p, x)
            value, grad_out = nn.loss_mse(out, y)
            grads, _ = nn.mlp_backward(p, cache, grad_out)
            return value, grads

        return params, closure

    def test_linear_regression_tight(self):
        params, closure = self.make_linear_regression()
        assert grad_check(params, closure, n_samples=200) < 1e-6

    def test_leaky_network(self):
        params = small_net(seed=13)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 5)) + 0.3  # keep preactivations off the kinks
        labels = rng.integers(0, 3, size=20)

        def closure(p):
            out, cache = nn.mlp_forward(p, x)
            value, grad_logits = nn.loss_ce(nn.softmax(out), labels)
            grads, _ = nn.mlp_backward(p, cache, grad_logits)
            return value, grads

        assert grad_check(params, closure, n_samples=250, seed=3) < 1e-4

    def test_detects_corrupted_gradient(self):
        params, closure = self.make_linear_regression()

        def corrupted(p):
            value, grads = closure(p)
            grads.weights[0][0, 0] *= 2.0
            return value, grads

        assert grad_check(params, corrupted, n_samples=200) > 1e-1


# The fitting step as it was before the per-step checks moved out of it: test-local
# copies of the old adam_step, loss_ce/ce_loss_on pair, student loss and fit loop.
def parent_adam_step(params, grads, state):
    arrays = params.weights + params.biases
    garrays = grads.weights + grads.biases
    if len(garrays) != len(arrays):
        raise ValueError(f"{len(garrays)} grad arrays for {len(arrays)} params")
    for a, ga in zip(arrays, garrays):
        if a.shape != ga.shape:
            raise ValueError(f"grad shape {ga.shape} does not match param {a.shape}")
    g = grads.buffer
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    m, v = state.m, state.v
    tmp, update = state.scratch
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=tmp)
    v *= state.beta2
    np.multiply(g, 1.0 - state.beta2, out=tmp)
    v += np.multiply(tmp, g, out=tmp)
    np.divide(m, c1, out=update)
    update *= state.lr
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    update /= tmp
    start = 0
    for a in arrays:
        a -= update[start : start + a.size].reshape(a.shape)
        start += a.size


def parent_loss_ce(probs, labels):
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (p.shape[0],):
        raise ValueError("rows/labels")
    if y.size and (y.min() < 0 or y.max() >= p.shape[1]):
        raise ValueError("label out of range")
    n = p.shape[0]
    value = float(-np.log(p[np.arange(n), y]).mean())
    grad = p.copy()
    grad[np.arange(n), y] -= 1.0
    return value, grad / n


def parent_ce_loss_on(labels):
    def loss(logits, idx):
        value, grad_logits = parent_loss_ce(nn.softmax(logits), labels[idx])
        return (value,), grad_logits

    return loss


def parent_loss_mse(a, b):
    diff = a - b
    return float((diff * diff).mean()), 2.0 * diff / diff.size


def parent_student_loss(teacher_softmax):
    def loss(logits, idx):
        probs = nn.softmax(logits)
        mse, grad_probs = parent_loss_mse(probs, teacher_softmax[idx])
        return (mse,), nn.softmax_vjp(probs, grad_probs)

    return loss


def parent_fit_minibatch(params, X, loss, epochs, batch_size, order, lr):
    state = nn.AdamState.for_params(params, lr=lr)
    n = len(X)
    history = []
    for epoch in range(epochs):
        perm = order(epoch)
        sums = []
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            logits, cache = nn.mlp_forward(params, X[idx])
            terms, grad_logits = loss(logits, idx)
            grads, _ = nn.mlp_backward(params, cache, grad_logits, input_grad=False)
            parent_adam_step(params, grads, state)
            sums = sums or [0.0] * len(terms)
            for k, value in enumerate(terms):
                sums[k] += value * len(idx)
        history.append(tuple(s / n for s in sums))
    return history


def assert_params_same_bits(got, want):
    for a, b in zip(got.weights + got.biases, want.weights + want.biases, strict=True):
        assert_same_bits(a, b)


class TestLeanFitStep:
    """The fitting step is the old one bit for bit, past the step where Adam's c1 reaches 1.0."""

    def test_bias_correction_reaches_one_at_step_356(self):
        assert 1.0 - 0.9**355 != 1.0
        assert 1.0 - 0.9**356 == 1.0

    def test_adam_400_steps_on_teacher_shape(self):
        params = nn.mlp_init(nn.classifier_specs(64, 15, hidden=(128, 64)), nn.ROLE_TEACHER, 41)
        expect = params.copy()
        state = nn.AdamState.for_params(params, lr=1e-3)
        ref_state = nn.AdamState.for_params(expect, lr=1e-3)
        grads = nn.MlpGrads.empty_like(params)
        rng = np.random.default_rng(42)
        for _ in range(400):
            x = rng.normal(size=(64, 64))
            upstream = rng.normal(size=(64, 15))
            _, cache = nn.mlp_forward(params, x)
            assert nn.mlp_backward(params, cache, upstream, input_grad=False, out=grads)[0] is grads
            nn.adam_step(params, grads, state)
            _, ref_cache = nn.mlp_forward(expect, x)
            ref_grads, _ = nn.mlp_backward(expect, ref_cache, upstream, input_grad=False)
            parent_adam_step(expect, ref_grads, ref_state)
        assert state.step == 400
        assert_params_same_bits(params, expect)
        assert_same_bits(state.m, ref_state.m)
        assert_same_bits(state.v, ref_state.v)

    @pytest.mark.parametrize("rows", [1, 7, 37, 64, 100])
    def test_ce_loss_on_equals_loss_ce(self, rows):
        rng = np.random.default_rng(rows)
        labels = rng.integers(0, 15, size=300)
        logits = rng.normal(size=(rows, 15)) * 4.0
        idx = rng.permutation(300)[:rows]
        value, grad = nn.ce_loss_on(labels, 15)(logits, idx)
        want_value, want_grad = parent_loss_ce(nn.softmax(logits), labels[idx])
        assert value == want_value
        assert_same_bits(grad, want_grad)
        got_value, got_grad = nn.loss_ce(nn.softmax(logits), labels[idx])
        assert got_value == want_value
        assert_same_bits(got_grad, want_grad)

    def test_ce_loss_on_checks_labels_once_when_built(self):
        with pytest.raises(ValueError, match="out of range"):
            nn.ce_loss_on(np.array([0, 3]), 3)
        with pytest.raises(ValueError, match="out of range"):
            nn.ce_loss_on(np.array([-1, 0]), 3)

    def test_train_teacher_equals_the_old_loop(self, toy_dataset, toy_split):
        from azsl.seeding import rng_for
        from azsl.server import train_teacher

        got = train_teacher(toy_dataset, toy_split, epochs=37, batch_size=12, seed=4, hidden=(16, 8), lr=1e-3)
        feats = toy_dataset.features[toy_split.teacher_train]
        head_labels = got.head_index(toy_dataset.labels[toy_split.teacher_train])
        assert 37 * -(-len(feats) // 12) >= 400
        expect = nn.mlp_init(
            nn.classifier_specs(toy_dataset.d_x, len(toy_split.teacher_classes), (16, 8)), nn.ROLE_TEACHER, 4
        )
        rng = rng_for(4, "teacher-batches")
        history = parent_fit_minibatch(
            expect, feats, parent_ce_loss_on(head_labels), 37, 12, lambda _epoch: rng.permutation(len(feats)), 1e-3
        )
        assert got.loss_trace == [value for (value,) in history]
        assert_params_same_bits(got.params, expect)

    def test_train_inductive_classifier_equals_the_old_loop(self, toy_dataset):
        from azsl.client import generate, generator_specs, train_inductive_classifier
        from azsl.config import ExperimentConfig
        from azsl.seeding import derive_seed, rng_for

        sem = toy_dataset.semantics
        gen = nn.mlp_init(generator_specs(4, sem.d_a, toy_dataset.d_x, hidden=(16,)), nn.ROLE_GENERATOR, 5)
        cfg = ExperimentConfig(t_s=58, batch_size=12, per_class_count=20, noise_dim=4, lr=1e-3, seed=2)
        classes = np.arange(sem.n_classes)
        got = train_inductive_classifier(gen, sem, cfg)

        batch = generate(gen, sem, classes, 20, derive_seed(cfg.noise_seed, "classifier-noise"))
        assert 58 * -(-len(batch.features) // 12) >= 400
        expect = nn.mlp_init(
            nn.classifier_specs(toy_dataset.d_x, len(classes), hidden=()),
            nn.ROLE_CLASSIFIER,
            derive_seed(cfg.client_seed, "classifier-init"),
        )
        parent_fit_minibatch(
            expect, batch.features, parent_ce_loss_on(np.searchsorted(classes, batch.cond_labels)), 58, 12,
            lambda epoch: rng_for(cfg.client_seed, "classifier-epoch", epoch).permutation(len(batch.features)), 1e-3,
        )
        assert_params_same_bits(got, expect)

    def test_train_student_equals_the_old_loss_and_loop(self):
        from azsl.client import VerifiedBatch, train_student
        from azsl.config import ExperimentConfig
        from azsl.seeding import rng_for

        rng = np.random.default_rng(43)
        x = np.abs(rng.normal(size=(37, 5)))
        targets = nn.softmax(rng.normal(size=(37, 3)) * 3.0)
        targets[0] = [1.0, 0.0, 0.0]  # a one-hot target row
        verified = VerifiedBatch(x, targets.argmax(axis=1), targets, 1.0)
        cfg = ExperimentConfig(t_s=80, batch_size=8, lr=1e-2, seed=3)
        got, trace = train_student(small_net(seed=6, role=nn.ROLE_STUDENT), verified, cfg)

        expect = small_net(seed=6, role=nn.ROLE_STUDENT)
        history = parent_fit_minibatch(
            expect, x, parent_student_loss(targets), 80, 8,
            lambda epoch: rng_for(cfg.client_seed, "student-epoch", epoch).permutation(37), 1e-2,
        )
        assert 80 * 5 >= 400
        assert trace == [{"phase": "student", "epoch": epoch, "mse": mse} for epoch, (mse,) in enumerate(history)]
        assert_params_same_bits(got, expect)


class TestLeanFitGuards:
    def test_cache_gone_stale_after_a_layer_change_raises(self):
        # the specs are a tuple: replacing one after the buffer was laid out is
        # refused, so the net and the cache made from it stay in step
        params = small_net(seed=44)
        _, cache = nn.mlp_forward(params, np.ones((2, 5)))
        with pytest.raises(TypeError):
            params.layers[-1] = nn.LayerSpec(6, 4)
        assert params.out_dim == 3 and nn.mlp_forward(params, np.ones((2, 5)))[0].shape == (2, 3)
        grads, _ = nn.mlp_backward(params, cache, np.zeros((2, 3)))
        assert grads.buffer.size == params.buffer.size

    def test_backward_into_out_returns_out_with_fresh_values(self):
        params = small_net(seed=45)
        rng = np.random.default_rng(46)
        out_buf = nn.MlpGrads.empty_like(params)
        _, cache = nn.mlp_forward(params, rng.normal(size=(6, 5)))
        upstream = rng.normal(size=(6, 3))
        got, input_grad = nn.mlp_backward(params, cache, upstream, out=out_buf)
        want, want_input = nn.mlp_backward(params, cache, upstream)
        assert got is out_buf
        assert_same_bits(got.buffer, want.buffer)
        assert_same_bits(input_grad, want_input)

    def test_wrong_shape_raises_after_good_steps(self):
        params = small_net(seed=47)
        state = nn.AdamState.for_params(params, lr=1e-3)
        grads = nn.MlpGrads.zeros_like(params)
        for _ in range(3):
            nn.adam_step(params, grads, state)
        bad = nn.MlpGrads.zeros_like(nn.mlp_init([nn.LayerSpec(5, 2)], nn.ROLE_TEACHER, 0))
        with pytest.raises(ValueError, match="another net"):
            nn.adam_step(params, bad, state)
        with pytest.raises(TypeError):
            grads.weights[0] = np.zeros((2, 2))  # the very grads object it stepped with
        nn.adam_step(params, grads, state)
        assert state.step == 4


class TestOneBuffer:
    """Parameters live in one flat buffer, weights first, then biases; the arrays are views of it."""

    def test_given_arrays_are_copied(self):
        rng = np.random.default_rng(50)
        weights = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]
        biases = [rng.normal(size=4), rng.normal(size=2)]
        specs = [nn.LayerSpec(3, 4, nn.ACT_LEAKY_RELU), nn.LayerSpec(4, 2)]
        params = nn.MlpParams(nn.ROLE_STUDENT, specs, weights, biases, seed=0)
        before = params.buffer.copy()
        for a in weights + biases:
            a += 1.0
        assert_same_bits(params.buffer, before)
        assert all(not np.shares_memory(a, params.buffer) for a in weights + biases)

    def test_arrays_are_views_of_the_buffer_weights_then_biases(self):
        params = small_net(seed=51)
        arrays = params.weights + params.biases
        assert all(a.base is params.buffer for a in arrays)
        assert params.n_params() == params.buffer.size == 5 * 7 + 7 * 6 + 6 * 3 + 7 + 6 + 3
        assert_same_bits(params.buffer, np.concatenate([a.ravel() for a in arrays]))
        params.buffer[0] = 9.0
        params.buffer[5 * 7] = 8.0
        params.buffer[-1] = -9.0
        assert params.weights[0][0, 0] == 9.0 and params.weights[1][0, 0] == 8.0
        assert params.biases[-1][-1] == -9.0

    def test_arrays_cannot_be_rebound(self):
        params = small_net()
        grads = nn.MlpGrads.zeros_like(params)
        for arrays in (params.weights, params.biases, grads.weights, grads.biases):
            with pytest.raises(TypeError):
                arrays[0] = np.zeros_like(arrays[0])

    def test_copy_owns_a_new_buffer(self):
        params = small_net(seed=52)
        dup = params.copy()
        assert not np.shares_memory(dup.buffer, params.buffer)
        assert all(a.base is dup.buffer for a in dup.weights + dup.biases)
        assert_same_bits(dup.buffer, params.buffer)
        dup.weights[0][0, 0] += 1.0
        assert not params_allclose(dup, params)

    def test_wire_round_trip_keeps_the_buffer_bits(self):
        from azsl import wire

        params = small_net(seed=53)
        params.biases[0][0] = -0.0
        got = wire.decode_params(wire.encode_params(params))
        assert got.buffer.tobytes() == params.buffer.tobytes()
        assert got.layers == params.layers

    def test_adam_rejects_grads_of_another_net_with_the_same_count(self):
        params = small_net(seed=54)
        other = nn.mlp_init([nn.LayerSpec(36, 3)], nn.ROLE_TEACHER, 0)  # 36 * 3 + 3 == 111
        assert other.n_params() == params.n_params()
        state = nn.AdamState.for_params(params, lr=1e-3)
        before = params.copy()
        with pytest.raises(ValueError, match="another net"):
            nn.adam_step(params, nn.MlpGrads.zeros_like(other), state)
        assert state.step == 0
        assert_same_bits(params.buffer, before.buffer)

    def test_adam_step_allocates_no_parameter_sized_arrays(self):
        specs = [nn.LayerSpec(36, 256, nn.ACT_LEAKY_RELU, 0.2), nn.LayerSpec(256, 64, nn.ACT_RELU)]
        params = nn.mlp_init(specs, nn.ROLE_GENERATOR, 55)
        grads = nn.MlpGrads.zeros_like(params)
        grads.buffer[:] = np.random.default_rng(56).normal(size=grads.buffer.size)
        state = nn.AdamState.for_params(params, lr=1e-3)
        nn.adam_step(params, grads, state)

        def five_steps():
            for _ in range(5):
                nn.adam_step(params, grads, state)

        _, peak = peak_bytes(five_steps)
        assert peak < params.buffer.nbytes / 10
