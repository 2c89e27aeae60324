"""Network family structure, initialization, forward semantics, and config
validation."""

import importlib.util
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import lmnet.checkpoint
import lmnet.data
import lmnet.imgio
import lmnet.model
import lmnet.ops
import lmnet.train
from lmnet import ops
from lmnet.errors import ConfigError, ShapeError
from lmnet.model import (
    GraphConfig,
    Variant,
    build_model,
    closed_form_param_count,
    init_parameters,
    parse_variant,
    replace_input_size,
)
from lmnet.seeding import derive_rng

from conftest import TINY_GRAPH
from oracles import conv2d_backward_scatter, upsample_conv2d_backward_composed

SKIP_WIRING = ((5, 3), (6, 2), (7, 1))  # (decoder layer, encoder activation) pairs

# authoritative totals for the default configuration
PARAM_TOTALS = {
    Variant.PLAIN: 396_560,
    Variant.DILATION: 398_030,
    Variant.RESIDUAL: 469_595,
    Variant.PROPOSED: 471_515,
}

SMALL = GraphConfig(input_size=(16, 16))  # default widths, cheap spatial size


def built(variant, config=SMALL, seed=0):
    graph = build_model(variant, config)
    init_parameters(graph, seed)
    return graph


# -- structure --------------------------------------------------------------

@pytest.mark.parametrize("variant", list(Variant))
def test_every_variant_has_nine_conv_layers(variant):
    plan = built(variant).plan
    assert len(plan.stages) == 9
    assert [s.index for s in plan.stages] == list(range(1, 10))
    assert all(spec.layer == s.index for s in plan.stages for spec in s.convs)


@pytest.mark.parametrize("variant,kernels", [
    (Variant.PLAIN, 1), (Variant.DILATION, 3),
    (Variant.RESIDUAL, 1), (Variant.PROPOSED, 3),
])
def test_parallel_first_layer_kernels(variant, kernels):
    first = built(variant).plan.stages[0]
    assert len(first.convs) == kernels
    dilations = [s.dilation for s in first.convs]
    assert dilations == ([2, 3, 5] if kernels == 3 else [1])


@pytest.mark.parametrize("variant,skips", [
    (Variant.PLAIN, ()), (Variant.DILATION, ()),
    (Variant.RESIDUAL, SKIP_WIRING), (Variant.PROPOSED, SKIP_WIRING),
])
def test_skip_wiring(variant, skips):
    plan = built(variant).plan
    assert tuple((s.index, s.skip) for s in plan.stages if s.skip) == skips
    assert [s.pre for s in plan.stages] == [""] + ["pool"] * 3 + ["upsample"] * 3 + [""] * 2


@pytest.mark.parametrize("variant", list(Variant))
def test_common_structure(variant):
    graph = built(variant)
    convs = graph.plan.all_convs
    assert tuple(sorted({s.layer for s in convs if s.has_bn})) == (1, 2, 3, 4)
    assert graph.config.dropout_schedule == ((4, 0.1), (5, 0.5), (6, 0.3))
    assert [s.act for s in graph.plan.stages] == ["relu"] * 8 + ["sigmoid"]
    l8, l9 = convs[-2:]
    assert (l8.kernel, l8.in_channels, l8.out_channels) == (1, 5, 5)
    assert (l9.kernel, l9.in_channels, l9.out_channels) == (1, 5, 1)
    widths = [s.out_channels for s in convs if s.has_bn]
    assert widths[-3:] == [13, 89, 233]
    assert all(w == 5 for w in widths[:-3])
    assert GraphConfig().input_size == (192, 192)


def decoder_inputs(variant):
    stages = built(variant).plan.stages
    return [s.convs[0].in_channels for s in stages if s.pre == "upsample"]


def test_skip_variants_widen_decoder_inputs():
    assert decoder_inputs(Variant.DILATION) == [233, 89, 13]
    assert decoder_inputs(Variant.PROPOSED) == [233 + 89, 89 + 13, 13 + 15]
    assert decoder_inputs(Variant.RESIDUAL) == [233 + 89, 89 + 13, 13 + 5]


# -- parameter counts -------------------------------------------------------

@pytest.mark.parametrize("variant", list(Variant))
def test_graph_walk_count_matches_closed_form_and_table(variant):
    graph = built(variant)
    walked = graph.param_count()
    assert walked == closed_form_param_count(variant, SMALL)
    assert walked == PARAM_TOTALS[variant]
    assert sum(n for _, n in graph.layer_param_counts()) == walked


def test_count_ordering_and_small_layers():
    assert PARAM_TOTALS[Variant.PROPOSED] > PARAM_TOTALS[Variant.PLAIN]
    graph = built(Variant.PROPOSED)
    per_layer = {spec.name: n for spec, n in graph.layer_param_counts()}
    assert per_layer["l9"] == 5 * 1 * 1 * 1 + 1
    assert graph.params["l8.w"].shape == (5, 5, 1, 1)


def test_counts_scale_with_custom_channels():
    cfg = GraphConfig(input_size=(16, 16), channel_sequence=(2, 2, 3, 3))
    graph = build_model(Variant.PLAIN, cfg)
    assert graph.param_count() == closed_form_param_count(Variant.PLAIN, cfg)


# -- initialization ---------------------------------------------------------

def test_init_is_seed_deterministic():
    a = built(Variant.PROPOSED, seed=3)
    b = built(Variant.PROPOSED, seed=3)
    c = built(Variant.PROPOSED, seed=4)
    for k in a.params:
        npt.assert_array_equal(a.params[k], b.params[k])
    assert not np.array_equal(a.params["l2.w"], c.params["l2.w"])


def test_init_values_agree_across_dtypes():
    f32 = init_parameters(build_model(Variant.RESIDUAL, SMALL), 7)
    f64 = init_parameters(build_model(Variant.RESIDUAL, SMALL, dtype=np.float64), 7)
    for k in f32.params:
        npt.assert_array_equal(f32.params[k], f64.params[k].astype(np.float32))


def test_init_weight_scale_is_fan_in_kaiming():
    graph = built(Variant.PROPOSED, seed=1)
    w = graph.params["l2.w"]  # fan-in 15 * 9
    expected = np.sqrt(2.0 / (15 * 9))
    assert abs(w.std() / expected - 1.0) < 0.1
    npt.assert_array_equal(graph.params["l2.b"], 0.0)
    npt.assert_array_equal(graph.params["l2.gamma"], 1.0)
    npt.assert_array_equal(graph.stats["l2.running_var"], 1.0)


# -- forward ----------------------------------------------------------------

def test_eval_forward_shapes_and_range():
    graph = built(Variant.PROPOSED)
    x = np.zeros((1, 3, 16, 16), dtype=np.float32)
    pred, _ = graph.forward(x, "eval")
    assert pred.shape == (1, 1, 16, 16)
    assert pred.dtype == np.float32
    assert np.all(pred > 0) and np.all(pred < 1)


def test_activation_shape_chain_narrows_to_the_bottleneck():
    graph = build_model(Variant.PROPOSED, TINY_GRAPH, dtype=np.float64)
    init_parameters(graph, 0)
    x = np.random.default_rng(0).random((2, 3, 8, 8))
    pred, cache = graph.forward(x, "train", rng=np.random.default_rng(1))
    acts = [rec.act for rec in cache.stages]
    assert acts[0].shape == (2, 6, 8, 8)   # three branches of 2 channels
    assert acts[1].shape == (2, 2, 4, 4)
    assert acts[2].shape == (2, 3, 2, 2)
    assert acts[3].shape == (2, 3, 1, 1)   # 8x8 input, three halvings
    assert acts[4].shape == (2, 3, 2, 2)
    assert acts[5].shape == (2, 2, 4, 4)
    assert acts[6].shape == (2, 2, 8, 8)
    assert acts[7].shape == (2, 2, 8, 8)
    assert acts[8] is pred


def test_variants_compute_different_functions():
    x = np.random.default_rng(2).random((1, 3, 16, 16)).astype(np.float32)
    preds = {}
    for variant in Variant:
        preds[variant] = built(variant, seed=0).forward(x, "eval")[0]
    assert not np.array_equal(preds[Variant.PLAIN], preds[Variant.PROPOSED])
    assert not np.array_equal(preds[Variant.DILATION], preds[Variant.PROPOSED])


def test_eval_forward_is_deterministic_and_pure():
    graph = built(Variant.PROPOSED)
    x = np.random.default_rng(3).random((2, 3, 16, 16)).astype(np.float32)
    before = {k: v.copy() for k, v in graph.stats.items()}
    p1, _ = graph.forward(x, "eval")
    p2, _ = graph.forward(x, "eval")
    npt.assert_array_equal(p1, p2)
    for k in before:
        npt.assert_array_equal(graph.stats[k], before[k])


def test_train_forward_updates_running_stats():
    x = np.random.default_rng(4).random((2, 3, 16, 16)).astype(np.float32)
    graph = built(Variant.PLAIN)
    before = {k: v.copy() for k, v in graph.stats.items()}
    graph.forward(x, "train", rng=np.random.default_rng(0))
    assert not np.array_equal(graph.stats["l1.running_mean"], before["l1.running_mean"])


def test_frozen_train_without_dropout_equals_eval(frozen_bn):
    cfg = GraphConfig(input_size=(16, 16), dropout_schedule=())
    graph = init_parameters(build_model(Variant.PROPOSED, cfg), 0)
    x = np.random.default_rng(5).random((2, 3, 16, 16)).astype(np.float32)
    train_pred, _ = graph.forward(x, "train")
    eval_pred, _ = graph.forward(x, "eval")
    npt.assert_array_equal(train_pred, eval_pred)


def test_forward_validation():
    graph = built(Variant.PLAIN)
    x = np.zeros((1, 3, 16, 16), dtype=np.float32)
    with pytest.raises(ShapeError, match="at least 2"):
        graph.forward(x, "train", rng=np.random.default_rng(0))
    with pytest.raises(ShapeError, match="does not match configured input"):
        graph.forward(np.zeros((1, 3, 8, 8), np.float32), "eval")
    with pytest.raises(ValueError, match="mode"):
        graph.forward(x, "predict")
    with pytest.raises(ValueError, match="rng"):
        graph.forward(np.zeros((2, 3, 16, 16), np.float32), "train")


def test_backward_validation():
    graph = built(Variant.PLAIN)
    x = np.random.default_rng(6).random((2, 3, 16, 16)).astype(np.float32)
    grad = np.ones((2, 1, 16, 16), np.float32)
    for not_a_cache in (None, {}, [grad]):
        with pytest.raises(ValueError, match="cache returned by a forward call"):
            graph.backward(not_a_cache, grad)
    _, eval_cache = graph.forward(x, "eval")
    with pytest.raises(ValueError, match="train-mode forward"):
        graph.backward(eval_cache, grad)
    _, cache = graph.forward(x, "train", rng=np.random.default_rng(0))
    with pytest.raises(ShapeError, match="does not match prediction"):
        graph.backward(cache, np.ones((2, 1, 8, 8), np.float32))


@pytest.mark.parametrize("variant", list(Variant))
def test_backward_matches_the_scatter_oracle_adjoints(variant, monkeypatch):
    graph = built(variant).astype(np.float64)
    x = np.random.default_rng(3).random((2, 3, 16, 16))
    pred, cache = graph.forward(x, "train", rng=derive_rng(7, 1))
    grad_pred = np.random.default_rng(4).standard_normal(pred.shape)
    got = graph.backward(cache, grad_pred)
    monkeypatch.setattr(ops, "conv2d_backward", conv2d_backward_scatter)
    monkeypatch.setattr(ops, "upsample_conv2d_backward", upsample_conv2d_backward_composed)
    want = graph.backward(cache, grad_pred)
    assert got.keys() == want.keys() == graph.params.keys()
    for name in got:
        # a conv bias ahead of batchnorm has an exactly zero gradient, so its
        # rounding noise is measured against the scale of its layer's weights
        layer = name.rsplit(".", 1)[0]
        ref = f"{layer}.w" if name.endswith(".b") and f"{layer}.gamma" in want else name
        scale = np.max(np.abs(want[ref]))
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name


@pytest.mark.parametrize("variant", list(Variant))
def test_conv_calls_carry_the_plan_keys_a_call_site_tracer_needs(variant, monkeypatch):
    # a tracer outside the package wraps conv2d and conv2d_backward as
    # call(x, params, *rest) and names each call's layer by its
    # (c_out, c_in, k, dilation); a call with keywords or with a key no
    # plan spec has (a weight slice, say) breaks it
    graph = built(variant)
    keys = {(s.out_channels, s.in_channels, s.kernel, s.dilation) for s in graph.plan.all_convs}
    seen = []

    def positional(fn):
        def call(x, params, *rest):
            seen.append((params.out_channels, params.in_channels, params.kernel_size,
                         params.dilation))
            return fn(x, params, *rest)
        return call

    for name in ("conv2d", "conv2d_backward"):
        monkeypatch.setattr(ops, name, positional(getattr(ops, name)))
    x = np.random.default_rng(5).random((2, 3, 16, 16)).astype(np.float32)
    pred, cache = graph.forward(x, "train", rng=derive_rng(7, 1))
    graph.backward(cache, np.ones_like(pred))
    graph.forward(x, "eval")
    assert seen and set(seen) <= keys


def test_the_benchmark_tracer_finds_every_name_and_restores_each():
    # perfbench/tracing.py patches the package's call sites by name, so a
    # renamed or removed one fails instrument; restore must put back the
    # very objects it replaced
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = {"ops": lmnet.ops, "LOSSES": lmnet.ops.LOSSES, "model": lmnet.model,
              "ModelGraph": lmnet.model.ModelGraph, "train": lmnet.train,
              "checkpoint": lmnet.checkpoint, "data": lmnet.data, "imgio": lmnet.imgio}

    def snapshot():
        return {label: dict(o if isinstance(o, dict) else vars(o)) for label, o in owners.items()}

    before = snapshot()
    restore = tracing.instrument(tracing.Tracer(), tracing.conv_specs(built(Variant.PROPOSED)))
    try:
        patched = {f"{label}.{name}" for label, names in snapshot().items()
                   for name, obj in names.items() if obj is not before[label].get(name)}
    finally:
        restore()
    assert {"ops.conv2d", "ops.conv2d_backward", "ops.upsample_nearest2", "LOSSES.bce",
            "ModelGraph.forward", "train.adam_step", "imgio.read_rgb"} <= patched
    after = snapshot()
    for label, names in before.items():
        assert after[label].keys() == names.keys(), label
        assert all(after[label][name] is obj for name, obj in names.items()), label


def test_single_unit_channel_sequence_still_runs():
    cfg = GraphConfig(input_size=(8, 8), channel_sequence=(1, 1, 1, 1))
    graph = init_parameters(build_model(Variant.PROPOSED, cfg), 0)
    pred, _ = graph.forward(np.zeros((1, 3, 8, 8), np.float32), "eval")
    assert pred.shape == (1, 1, 8, 8)


def test_replace_input_size_shares_parameters():
    graph = built(Variant.PROPOSED, SMALL)
    bigger = replace_input_size(graph, (32, 32))
    assert bigger.config.input_size == (32, 32)
    assert graph.config.input_size == (16, 16)
    assert bigger.params["l2.w"] is graph.params["l2.w"]
    pred, _ = bigger.forward(np.zeros((1, 3, 32, 32), np.float32), "eval")
    assert pred.shape == (1, 1, 32, 32)


# -- config validation ------------------------------------------------------

def test_variant_parsing():
    assert parse_variant("Proposed") is Variant.PROPOSED
    assert parse_variant(Variant.PLAIN) is Variant.PLAIN
    with pytest.raises(ConfigError) as err:
        parse_variant("resnet")
    for name in ("plain", "dilation", "residual", "proposed"):
        assert name in str(err.value)


def test_variant_feature_flags():
    assert not Variant.PLAIN.has_pyramid and not Variant.PLAIN.has_skips
    assert Variant.DILATION.has_pyramid and not Variant.DILATION.has_skips
    assert not Variant.RESIDUAL.has_pyramid and Variant.RESIDUAL.has_skips
    assert Variant.PROPOSED.has_pyramid and Variant.PROPOSED.has_skips


@pytest.mark.parametrize("bad,fragment", [
    (dict(input_size=(100, 192)), "divisible by 8"),
    (dict(channel_sequence=(5, 13, 89)), "4 entries"),
    (dict(channel_sequence=(5, 13, 0, 233)), ">= 1"),
    (dict(dilation_rates=(2, 3)), "3 entries"),
    (dict(dropout_schedule=((9, 0.1),)), "outside activation range"),
    (dict(dropout_schedule=((4, 1.0),)), "outside [0, 1)"),
    (dict(loss="dice"), "loss"),
    (dict(bn_momentum=0.0), "bn_momentum"),
    (dict(bn_epsilon=0.0), "bn_epsilon"),
])
def test_config_violations_are_named(bad, fragment):
    cfg = GraphConfig(**bad)
    with pytest.raises(ConfigError, match="invalid graph configuration"):
        build_model(Variant.PROPOSED, cfg)
    assert any(fragment in v for v in cfg.violations(Variant.PROPOSED))


def test_dilation_rule_only_binds_pyramid_variants():
    cfg = GraphConfig(dilation_rates=(2, 3))
    assert cfg.violations(Variant.PLAIN) == []
    assert cfg.violations(Variant.DILATION) != []
