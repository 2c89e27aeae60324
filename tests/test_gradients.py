"""Analytic gradients against central finite differences.

Per-op checks contract each kernel's backward pass against an elementwise
64-bit probe of f(x) = <forward(x), C> for a fixed random cotangent C.
The end-to-end checks sweep every parameter tensor of the tiny fixture
graphs. Tolerances: 1e-6 per op, 1e-5 through a whole graph.
"""

import numpy as np
import pytest

import lmnet.ops as ops
from lmnet.gradcheck import (
    DATA_SEEDS,
    DROPOUT_SEED,
    check_graph_gradients,
    fixture_batch,
    fixture_graph,
    relative_error,
)
from lmnet.model import Variant, loss_fn
from lmnet.seeding import derive_rng

from oracles import fd_gradient

PER_OP_TOL = 1e-6
GRAPH_TOL = 1e-5


def smooth(rng, shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=shape)


# -- convolution ------------------------------------------------------------

def test_conv_gradients_weights_bias_input():
    rng = np.random.default_rng(20)
    x = smooth(rng, (1, 2, 6, 6))
    weights = smooth(rng, (3, 2, 3, 3))
    bias = smooth(rng, (3,))
    cotangent = smooth(rng, (1, 3, 6, 6))

    def params():
        return ops.ConvParams(weights, bias, 2)

    gx, gw, gb = ops.conv2d_backward(x, params(), cotangent)
    fd_x = fd_gradient(lambda: float((ops.conv2d(x, params()) * cotangent).sum()), x)
    fd_w = fd_gradient(lambda: float((ops.conv2d(x, params()) * cotangent).sum()), weights)
    fd_b = fd_gradient(lambda: float((ops.conv2d(x, params()) * cotangent).sum()), bias)
    assert relative_error(gx, fd_x) < PER_OP_TOL
    assert relative_error(gw, fd_w) < PER_OP_TOL
    assert relative_error(gb, fd_b) < PER_OP_TOL


@pytest.mark.parametrize("dilation", [1, 3, 5])
def test_conv_gradients_across_dilations(dilation):
    rng = np.random.default_rng(21 + dilation)
    x = smooth(rng, (2, 3, 8, 8))
    weights = smooth(rng, (2, 3, 3, 3))
    bias = smooth(rng, (2,))
    cotangent = smooth(rng, (2, 2, 8, 8))
    p = ops.ConvParams(weights, bias, dilation)
    gx, gw, gb = ops.conv2d_backward(x, p, cotangent)
    fd_w = fd_gradient(lambda: float((ops.conv2d(x, p) * cotangent).sum()), weights)
    fd_x = fd_gradient(lambda: float((ops.conv2d(x, p) * cotangent).sum()), x)
    assert relative_error(gw, fd_w) < PER_OP_TOL
    assert relative_error(gx, fd_x) < PER_OP_TOL


@pytest.mark.parametrize("dilation,with_skip", [(1, True), (2, True), (1, False)])
def test_fused_decoder_gradients(dilation, with_skip):
    rng = np.random.default_rng(24 + dilation)
    low = smooth(rng, (2, 3, 3, 4))
    skip = smooth(rng, (2, 2, 6, 8)) if with_skip else None
    weights = smooth(rng, (2, 5 if with_skip else 3, 3, 3))
    bias = smooth(rng, (2,))
    cotangent = smooth(rng, (2, 2, 6, 8))
    p = ops.ConvParams(weights, bias, dilation)

    def value():
        product = ops.skip_conv2d(skip, p) if with_skip else None
        return float((ops.upsample_conv2d(low, p, product) * cotangent).sum())

    g_low, g_skip, gw, gb = ops.upsample_conv2d_backward(low, skip, p, cotangent)
    assert relative_error(g_low, fd_gradient(value, low)) < PER_OP_TOL
    assert relative_error(gw, fd_gradient(value, weights)) < PER_OP_TOL
    assert relative_error(gb, fd_gradient(value, bias)) < PER_OP_TOL
    if with_skip:
        assert relative_error(g_skip, fd_gradient(value, skip)) < PER_OP_TOL
    else:
        assert g_skip is None


# -- batch normalization ----------------------------------------------------

def _bn_args(rng, c):
    """(gamma, beta, running_mean, running_var) for c channels."""
    return (rng.uniform(0.7, 1.3, c), rng.normal(0.0, 0.2, c),
            rng.normal(0.0, 0.5, c), rng.uniform(0.5, 2.0, c))


def test_batchnorm_train_gradients():
    rng = np.random.default_rng(30)
    x = smooth(rng, (3, 2, 4, 4), -2.0, 2.0)
    args = _bn_args(rng, 2)
    cotangent = smooth(rng, x.shape)

    def value():
        out = ops.batchnorm(x, *args, "train")[0]
        return float((out * cotangent).sum())

    cache = ops.batchnorm(x, *args, "train")[1]
    gx, ggamma, gbeta = ops.batchnorm_backward(cache, cotangent)
    assert relative_error(gx, fd_gradient(value, x)) < PER_OP_TOL
    assert relative_error(ggamma, fd_gradient(value, args[0])) < PER_OP_TOL
    assert relative_error(gbeta, fd_gradient(value, args[1])) < PER_OP_TOL


def test_batchnorm_eval_gradient_is_plain_affine(frozen_bn):
    """The frozen_bn fixture's adjoint is the exact gradient of eval batch
    norm, where the running statistics are constants."""
    rng = np.random.default_rng(31)
    x = smooth(rng, (2, 3, 4, 4))
    args = _bn_args(rng, 3)
    cotangent = smooth(rng, x.shape)

    def value():
        out = ops.batchnorm(x, *args, "eval")[0]
        return float((out * cotangent).sum())

    cache = ops.batchnorm(x, *args, "train")[1]
    gx, ggamma, gbeta = ops.batchnorm_backward(cache, cotangent)
    assert relative_error(gx, fd_gradient(value, x)) < PER_OP_TOL
    assert relative_error(ggamma, fd_gradient(value, args[0])) < PER_OP_TOL
    assert relative_error(gbeta, fd_gradient(value, args[1])) < PER_OP_TOL


# -- pointwise ops ----------------------------------------------------------

def test_relu_gradient_away_from_kink():
    rng = np.random.default_rng(40)
    x = smooth(rng, (2, 2, 4, 4), -1.0, 1.0)
    x[np.abs(x) < 0.05] = 0.1  # keep the probe off the kink
    cotangent = smooth(rng, x.shape)
    out = ops.relu(x, np.empty_like(x))
    gx = ops.relu_backward(cotangent, out)
    fd = fd_gradient(lambda: float((ops.relu(x, np.empty_like(x)) * cotangent).sum()), x)
    assert relative_error(gx, fd) < PER_OP_TOL


def test_sigmoid_gradient():
    rng = np.random.default_rng(41)
    x = smooth(rng, (2, 2, 4, 4), -3.0, 3.0)
    cotangent = smooth(rng, x.shape)
    out = ops.sigmoid(x)
    gx = ops.sigmoid_backward(cotangent, out)
    fd = fd_gradient(lambda: float((ops.sigmoid(x) * cotangent).sum()), x)
    assert relative_error(gx, fd) < PER_OP_TOL


def test_maxpool_gradient_away_from_ties():
    rng = np.random.default_rng(42)
    x = smooth(rng, (2, 2, 6, 6))
    x += np.arange(x.size).reshape(x.shape) * 1e-2  # break all ties by > fd step
    cotangent = smooth(rng, (2, 2, 3, 3))
    gx = ops.maxpool2_backward(cotangent, x, ops.maxpool2(x))
    fd = fd_gradient(lambda: float((ops.maxpool2(x) * cotangent).sum()), x)
    assert relative_error(gx, fd) < PER_OP_TOL


def test_upsample_gradient():
    rng = np.random.default_rng(43)
    x = smooth(rng, (1, 3, 3, 4))
    cotangent = smooth(rng, (1, 3, 6, 8))
    gx = ops.upsample_nearest2_backward(cotangent)
    fd = fd_gradient(lambda: float((ops.upsample_nearest2(x) * cotangent).sum()), x)
    assert relative_error(gx, fd) < PER_OP_TOL


def test_dropout_gradient_with_frozen_mask():
    rng = np.random.default_rng(44)
    x = smooth(rng, (1, 2, 6, 6))
    cotangent = smooth(rng, x.shape)
    mask = ops.dropout(x, 0.5, np.random.default_rng(99)) != 0  # x has no zero

    def value():
        out = ops.dropout(x, 0.5, np.random.default_rng(99))
        assert np.array_equal(out != 0, mask)  # same seed, same mask, every call
        return float((out * cotangent).sum())

    gx = ops.dropout_backward(cotangent, mask, 0.5)
    assert relative_error(gx, fd_gradient(value, x)) < PER_OP_TOL


# -- losses -----------------------------------------------------------------

def test_bce_gradient_inside_clamp_band():
    rng = np.random.default_rng(45)
    pred = rng.uniform(0.2, 0.8, (2, 1, 4, 4))
    target = (rng.random(pred.shape) > 0.5).astype(np.float64)
    _, grad = ops.bce_loss(pred, target)
    fd = fd_gradient(lambda: ops.bce_loss(pred, target)[0], pred)
    assert relative_error(grad, fd) < PER_OP_TOL


# -- whole graphs -----------------------------------------------------------

@pytest.mark.parametrize("variant", list(Variant))
def test_fixture_point_clears_kinks_and_pool_ties(variant, monkeypatch):
    """The FD fixtures must sit a safe margin away from every non-smooth point.

    If a refactor drifts the fixture onto a relu kink or a pool tie, the
    end-to-end checks would start failing for reasons unrelated to the
    backward math. This probe fails first with a clearer message.
    """
    margins = {"relu": np.inf, "pool_gap": np.inf}
    real_relu, real_pool = ops.relu, ops.maxpool2

    def spy_relu(x, out=None):
        margins["relu"] = min(margins["relu"], float(np.min(np.abs(x))))
        return real_relu(x, out)

    def spy_pool(x):
        n, c, h, w = x.shape
        win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
        s = np.sort(win.reshape(-1, 4), axis=1)
        live = s[:, 3] > 0  # windows whose winner is dead contribute nothing
        if live.any():
            gap = float(np.min(s[live, 3] - s[live, 2]))
            margins["pool_gap"] = min(margins["pool_gap"], gap)
        return real_pool(x)

    monkeypatch.setattr(ops, "relu", spy_relu)
    monkeypatch.setattr(ops, "maxpool2", spy_pool)
    graph = fixture_graph(variant)
    x, _ = fixture_batch(graph, DATA_SEEDS[variant])
    graph.forward(x, "train", rng=derive_rng(DROPOUT_SEED, 1))
    assert margins["relu"] > 2e-3, f"{variant.value}: relu margin {margins['relu']}"
    assert margins["pool_gap"] > 2e-3, f"{variant.value}: pool gap {margins['pool_gap']}"


@pytest.mark.parametrize("variant", list(Variant))
def test_fixture_point_gives_every_weight_a_gradient(variant):
    """A relu dead on the whole fixture batch zeroes every gradient behind
    it, and finite differences then agree with the analytic zeros without
    testing any backward pass there."""
    graph = fixture_graph(variant)
    x, targets = fixture_batch(graph, DATA_SEEDS[variant])
    pred, cache = graph.forward(x, "train", rng=derive_rng(DROPOUT_SEED, 1))
    grads = graph.backward(cache, loss_fn("bce")(pred, targets)[1])
    dead = [name for name, g in grads.items() if name.endswith(".w") and not np.any(g)]
    assert not dead, f"{variant.value}: zero gradients for {dead}"


@pytest.mark.parametrize("variant", list(Variant))
def test_end_to_end_gradients(variant):
    errors = check_graph_gradients(variant)
    worst = max(errors.values())
    offenders = {k: v for k, v in errors.items() if v >= GRAPH_TOL}
    assert worst < GRAPH_TOL, f"{variant.value}: {offenders}"


def test_the_frozen_fixtures_adjoints_match_their_forwards(frozen_bn, no_dropout):
    """Under frozen_bn and no_dropout, each patched adjoint is the gradient of
    its patched forward: a no_dropout that passed activations through but left
    the adjoint scaling by 1/(1-rate) would miss by about 0.75."""
    errors = check_graph_gradients(Variant.PROPOSED)
    offenders = {k: v for k, v in errors.items() if v >= GRAPH_TOL}
    assert max(errors.values()) < GRAPH_TOL, offenders


def test_relative_error_floor_suppresses_noise_on_zero_grads():
    a = np.zeros(4)
    b = np.full(4, 1e-9)
    assert relative_error(a, b) < 1e-5  # 1e-9 / 1e-3 floor
    assert relative_error(np.array([2.0]), np.array([1.0])) == 0.5
