"""Central finite-difference verification of every analytic gradient.

Runs a tiny 64-bit graph so a full parameter sweep stays under a few
seconds. Comparisons happen at a "generic" parameter point: after normal
initialization the biases and batch-norm offsets are drawn from continuous
distributions, because the zero-heavy init point parks whole channels
exactly on the relu kink where finite differences measure one-sided slopes
and disagree with the (correct) analytic subgradient. The fixture seeds
below were chosen so the smallest pre-relu magnitude and the smallest
pool-window runner-up gap both clear 2e-3, two orders above the probe
step, and so no layer's relu is dead on the whole batch: every weight
tensor then has a non-zero gradient and is checked against a slope.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import (
    INPUT_CHANNELS, GraphConfig, ModelGraph, Variant, build_model, init_parameters, loss_fn,
)
from .seeding import derive_rng

TINY_CONFIG = GraphConfig(channel_sequence=(2, 2, 3, 3))
TINY_SIDE = 8  # the fixture batch's height and width: one POOL_GRID

INIT_SEED = 59
POINT_SEED = 1030
DROPOUT_SEED = 7

# Per-variant input/target seeds with validated kink clearance.
DATA_SEEDS = {
    Variant.PLAIN: 22,
    Variant.DILATION: 21,
    Variant.RESIDUAL: 3,
    Variant.PROPOSED: 21,
}


def relative_error(analytic: np.ndarray, numeric: np.ndarray,
                   floor: float = 1e-3) -> float:
    """max |a - n| over max(|a|, |n|, floor), elementwise maxima per tensor.

    The floor keeps genuinely zero gradients (conv biases under batch norm)
    from turning rounding noise into large ratios.
    """
    num = float(np.max(np.abs(analytic - numeric))) if analytic.size else 0.0
    den = max(
        float(np.max(np.abs(analytic))) if analytic.size else 0.0,
        float(np.max(np.abs(numeric))) if numeric.size else 0.0,
        floor,
    )
    return num / den


def fixture_graph(variant) -> ModelGraph:
    """64-bit tiny graph at the generic parameter point."""
    graph = build_model(variant, TINY_CONFIG, dtype=np.float64)
    init_parameters(graph, INIT_SEED)
    r = np.random.default_rng(POINT_SEED)
    for name in graph.params:
        if name.endswith(".b") or name.endswith(".beta"):
            graph.params[name] = r.normal(0.0, 0.2, graph.params[name].shape)
        elif name.endswith(".gamma"):
            graph.params[name] = r.uniform(0.7, 1.3, graph.params[name].shape)
    return graph


def fixture_batch(graph: ModelGraph, data_seed: int):
    """Deterministic input and binary target for the fixture graph."""
    x = np.random.default_rng(data_seed).random((2, INPUT_CHANNELS, TINY_SIDE, TINY_SIDE)) + 0.1
    rng = derive_rng(DROPOUT_SEED, 1)
    pred, _ = graph.forward(x, "train", rng=rng)
    targets = (np.random.default_rng(data_seed + 2).random(pred.shape) > 0.5)
    return x, targets.astype(np.float64)


def check_graph_gradients(variant, step: float = 1e-5) -> dict:
    """Max relative error per parameter tensor, analytic vs central FD."""
    if not step > 0:
        raise ConfigError(f"eps (the finite-difference step) must be > 0, got {step}")
    graph = fixture_graph(variant)
    x, targets = fixture_batch(graph, DATA_SEEDS[graph.variant])
    lossf = loss_fn("bce")

    def value() -> float:
        rng = derive_rng(DROPOUT_SEED, 1)
        pred, _ = graph.forward(x, "train", rng=rng)
        return lossf(pred, targets)[0]

    rng = derive_rng(DROPOUT_SEED, 1)
    pred, cache = graph.forward(x, "train", rng=rng)
    _, grad_pred = lossf(pred, targets)
    analytic = graph.backward(cache, grad_pred)

    errors = {}
    for name in sorted(graph.params):
        p = graph.params[name]
        fd = np.zeros_like(p)
        flat = p.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = value()
            flat[i] = keep - step
            lo = value()
            flat[i] = keep
            fd_flat[i] = (hi - lo) / (2.0 * step)
        errors[name] = relative_error(analytic[name], fd)
    return errors
