"""Network family structure, initialization, forward semantics, and config
validation."""

import importlib.util
import threading
import tracemalloc
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
    tile_plan,
)
from lmnet.seeding import derive_rng

from conftest import TINY_GRAPH, InlineExecutor
from oracles import (
    conv2d_backward_scatter,
    eval_forward_composed,
    upsample_conv2d_backward_composed,
)

SKIP_WIRING = ((5, 3), (6, 2), (7, 1))  # (decoder layer, encoder activation) pairs

# authoritative totals for the default configuration
PARAM_TOTALS = {
    Variant.PLAIN: 396_560,
    Variant.DILATION: 398_030,
    Variant.RESIDUAL: 469_595,
    Variant.PROPOSED: 471_515,
}

def built(variant, config=None, seed=0):
    graph = build_model(variant, config)
    init_parameters(graph, seed)
    return graph


def off_defaults(graph, rng):
    """Biases, gamma, beta and the running statistics moved off their 0/1
    defaults, so every batch norm operation changes values."""
    for tensors in (graph.params, graph.stats):
        for name, value in tensors.items():
            if not name.endswith(".w"):
                tensors[name] = (value + rng.uniform(0.1, 0.9, value.shape)).astype(value.dtype)
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
    drops = tuple((s.index, s.drop) for s in graph.plan.stages if s.drop)
    assert drops == ((4, 0.1), (5, 0.5), (6, 0.3))
    assert [s.act for s in graph.plan.stages] == ["relu"] * 8 + ["sigmoid"]
    l8, l9 = convs[-2:]
    assert (l8.kernel, l8.in_channels, l8.out_channels) == (1, 5, 5)
    assert (l9.kernel, l9.in_channels, l9.out_channels) == (1, 5, 1)
    widths = [s.out_channels for s in convs if s.has_bn]
    assert widths[-3:] == [13, 89, 233]
    assert all(w == 5 for w in widths[:-3])


@pytest.mark.parametrize("variant", list(Variant))
def test_only_relu_stages_drop(variant):
    """backward gates a dropping stage once, on act > 0: dropout's keep mask
    and relu's gate together, which holds only after a relu."""
    assert all(s.act == "relu" for s in built(variant).plan.stages if s.drop)


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
    assert walked == closed_form_param_count(variant)
    assert walked == PARAM_TOTALS[variant]
    assert sum(n for _, n in graph.layer_param_counts()) == walked


def test_count_ordering_and_small_layers():
    assert PARAM_TOTALS[Variant.PROPOSED] > PARAM_TOTALS[Variant.PLAIN]
    graph = built(Variant.PROPOSED)
    per_layer = {spec.name: n for spec, n in graph.layer_param_counts()}
    assert per_layer["l9"] == 5 * 1 * 1 * 1 + 1
    assert graph.params["l8.w"].shape == (5, 5, 1, 1)


def test_counts_scale_with_custom_channels():
    cfg = GraphConfig(channel_sequence=(2, 2, 3, 3))
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
    f32 = init_parameters(build_model(Variant.RESIDUAL), 7)
    f64 = init_parameters(build_model(Variant.RESIDUAL, dtype=np.float64), 7)
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
    pred, cache = graph.forward(x, "eval")
    assert cache is None  # an eval forward keeps no records for backward
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", list(Variant))
def test_eval_forward_is_its_kernels_composed_bit_for_bit(variant, dtype):
    """Batch norm and relu in place and each activation let go after its last
    reader change no bit, and write none of the caller's arrays: the batch,
    the parameters and the running statistics keep their bytes."""
    rng = np.random.default_rng(12)
    graph = off_defaults(built(variant, seed=4).astype(dtype),
                         rng)
    batch = rng.random((2, 3, 32, 48)).astype(dtype)

    def arrays():
        return {"batch": batch.tobytes(), **{k: v.tobytes() for k, v in graph.params.items()},
                **{k: v.tobytes() for k, v in graph.stats.items()}}

    before = arrays()
    pred, cache = graph.forward(batch, "eval")
    assert cache is None
    assert arrays() == before
    want = eval_forward_composed(graph, batch)[-1]
    assert pred.dtype == want.dtype == dtype
    assert pred.tobytes() == want.tobytes()


def test_an_eval_forward_holds_each_activation_until_its_last_reader(monkeypatch):
    """proposed at n = 1 on a 512x512 input, with blocks of 2^18 floats so
    they stay small beside the activations. When a stage's activation is
    formed, numpy's traced arrays are it and the skip products of the skip
    activations that a later stage reads, nothing more. A skip's product,
    the conv of the skip with its reader's skip weights, has the reader's
    activation shape and becomes that activation. The peak stays below the
    widest moment's arrays (activation 1 and its product as stage 2 pools
    it, the pooled output and the max-pool's one temporary of that size)
    plus four blocks. Both also count the output array, which the forward
    allocates before the stage loop runs. A dead activation kept, a skip
    activation kept beside its product, a batch norm cache kept, a tap
    matrix kept or a whole sample padded crosses one of the two bounds."""
    monkeypatch.setattr(ops, "BLOCK_ELEMS", 1 << 18)
    side = 512
    graph = built(Variant.PROPOSED)
    batch = np.random.default_rng(6).random((1, 3, side, side)).astype(np.float32)
    formed = []  # (activation bytes, numpy's traced bytes) at each activation
    arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def spy(act):
        def call(x, *rest):
            traces = tracemalloc.take_snapshot().filter_traces(arrays).traces
            formed.append((x.nbytes, sum(trace.size for trace in traces)))
            return act(x, *rest)
        return call

    for name in ("relu", "sigmoid"):
        monkeypatch.setattr(ops, name, spy(getattr(ops, name)))
    tracemalloc.start()
    try:
        graph.forward(batch, "eval")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = {i: nbytes for i, (nbytes, _) in enumerate(formed, 1)}
    output = size[len(formed)]  # the prediction has the last activation's shape
    reader = {stage.skip: stage.index for stage in graph.plan.stages if stage.skip}
    for i, (nbytes, traced) in enumerate(formed, 1):
        live = output + nbytes + sum(size[r] for j, r in reader.items() if j < i < r)
        assert live <= traced < live + (64 << 10), f"stage {i}"
    widest = size[1] + 2 * (size[1] // 4) + size[reader[1]]
    assert peak < output + widest + 4 * 4 * ops.BLOCK_ELEMS


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", list(Variant))
def test_a_batched_eval_forward_is_its_samples_forwarded_alone(variant, dtype):
    """An eval forward runs each sample alone (3 small ones as units, side
    by side): a 3-sample batch gives the bits of forwarding each sample
    alone, and those of one stage loop over the whole batch, since eval
    batch norm reads running statistics and every kernel computes a sample
    on its own."""
    rng = np.random.default_rng(14)
    graph = off_defaults(built(variant, seed=5).astype(dtype),
                         rng)
    batch = rng.random((3, 3, 32, 48)).astype(dtype)
    pred, _ = graph.forward(batch, "eval")
    alone = np.concatenate([graph.forward(batch[i:i + 1], "eval")[0] for i in range(3)])
    with ops._one_blas_thread():  # the count an eval forward holds
        whole, _ = graph._stages(batch, "eval", None)
    assert pred.dtype == alone.dtype == whole.dtype == dtype
    assert pred.tobytes() == alone.tobytes() == whole.tobytes()


def test_a_batched_tiled_eval_forward_is_its_samples_forwarded_alone(monkeypatch):
    """Above a budget of 2^14 pixels each sample of a 3 x 176x208 batch runs
    in its own tiles, with the bits of forwarding it alone."""
    monkeypatch.setattr(lmnet.model, "TILE_PIXELS", 1 << 14)
    h, w = 176, 208
    rng = np.random.default_rng(15)
    graph = off_defaults(built(Variant.PROPOSED, seed=6), rng)
    batch = rng.random((3, 3, h, w)).astype(np.float32)
    assert len(tile_plan(h, w, graph.plan.halo, 1 << 14)) > 1
    pred, _ = graph.forward(batch, "eval")
    alone = np.concatenate([graph.forward(batch[i:i + 1], "eval")[0] for i in range(3)])
    assert pred.tobytes() == alone.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_forward_of_8bit_levels_has_the_bits_of_their_scaled_floats(dtype, monkeypatch):
    """A uint8 batch is scaled as imgio.read_rgb scales 8-bit levels, to
    float32 and then the graph's dtype: an eval forward's small samples as
    units, one sample alone, the tiles of larger samples (a budget of 2^14
    pixels) and a train forward each give the bits of forwarding the
    scaled batch."""
    monkeypatch.setattr(lmnet.model, "TILE_PIXELS", 1 << 14)
    rng = np.random.default_rng(16)
    graph = off_defaults(built(Variant.PROPOSED, seed=7).astype(dtype), rng)
    for shape in ((3, 3, 32, 48), (1, 3, 32, 48), (2, 3, 176, 208)):
        levels = rng.integers(0, 256, shape, dtype=np.uint8)
        scaled = lmnet.imgio.to_float(levels).astype(dtype)
        got, want = (graph.forward(x, "eval")[0] for x in (levels, scaled))
        assert got.dtype == dtype and got.tobytes() == want.tobytes(), shape
    got, want = (graph.forward(x, "train", rng=derive_rng(7, 1))[0] for x in (levels, scaled))
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_an_eval_forward_peak_does_not_grow_with_the_batch(monkeypatch):
    """proposed, float32, 96x96: besides the output array, the traced peak
    of a 10-sample eval forward stays within 5% of WORKERS times that of a
    WORKERS-sample batch whose units run one after another in the caller's
    thread. So at most WORKERS samples are in flight, whatever the batch
    size; one stage loop over the whole batch peaks about three times as
    high. (Two units side by side peak at up to twice one's, as their peaks
    meet or miss.)"""
    side = 96
    graph = built(Variant.PROPOSED)

    def held(n):
        batch = np.random.default_rng(7).random((n, 3, side, side)).astype(np.float32)
        tracemalloc.start()
        try:
            pred, _ = graph.forward(batch, "eval")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - pred.nbytes

    batched = held(10)
    monkeypatch.setattr(ops, "_pool", InlineExecutor)
    assert batched <= 1.05 * ops.WORKERS * held(ops.WORKERS)


# -- overlap-tile eval forward -------------------------------------------------

def tile_grid(plan):
    """(row bands, columns) of a tile plan."""
    return (len({rows[0].start for rows, _ in plan}), len({cols[0].start for _, cols in plan}))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", list(Variant))
def test_a_tiled_eval_forward_is_the_whole_image_stage_loop(variant, dtype, monkeypatch):
    """A 2 x 176x208 batch over a budget of 2^14 pixels runs as a grid of
    tiles, both axes cut, each with its halo. Its output is the whole-image
    stage loop's within 1e-6: equal in exact arithmetic, while a tile's
    narrower matmuls may round differently."""
    h, w = 176, 208
    rng = np.random.default_rng(12)
    graph = off_defaults(built(variant, seed=4).astype(dtype),
                         rng)
    batch = rng.random((2, 3, h, w)).astype(dtype)
    assert h * w <= lmnet.model.TILE_PIXELS
    whole, _ = graph.forward(batch, "eval")
    monkeypatch.setattr(lmnet.model, "TILE_PIXELS", 1 << 14)
    bands, cols = tile_grid(tile_plan(h, w, graph.plan.halo, 1 << 14))
    assert bands > 1 and cols > 1
    tiled, cache = graph.forward(batch, "eval")
    assert cache is None
    assert tiled.dtype == whole.dtype == dtype and tiled.shape == whole.shape
    assert np.max(np.abs(tiled - whole)) <= 1e-6


@pytest.mark.parametrize("variant", list(Variant))
def test_no_output_moves_beyond_the_plan_radius(variant):
    """float64, 128x128: a one-pixel change moves outputs within plan.radius
    of it along each axis, and for some of five pixels exactly that far, so
    the derived radius is the measured one. The halo rounds it up to
    POOL_GRID: 40 pixels for proposed, whose radius is 33."""
    side = 128
    graph = built(variant, seed=3).astype(np.float64)
    batch = np.random.default_rng(1).random((1, 3, side, side))
    base = graph.forward(batch, "eval")[0][0, 0]
    reach = 0
    for y, x in [(64, 64), (63, 63), (60, 61), (57, 70), (64, 71)]:
        moved = batch.copy()
        moved[0, :, y, x] += 0.5
        where = np.argwhere(graph.forward(moved, "eval")[0][0, 0] != base)
        reach = max(reach, int(np.abs(where - [y, x]).max()))
    radius, halo = graph.plan.radius, graph.plan.halo
    assert reach == radius
    assert halo % lmnet.model.POOL_GRID == 0 and radius <= halo < radius + lmnet.model.POOL_GRID
    if variant is Variant.PROPOSED:
        assert (radius, halo) == (33, 40)


def test_a_tiled_eval_forward_peak_does_not_grow_with_the_scene(monkeypatch):
    """proposed, float32, n = 1, a budget of 2^15 pixels: besides the output
    array, the traced peak of a 512x512 forward stays within 5% of a 256x512
    one's, where a whole-image forward's doubles with the scene."""
    monkeypatch.setattr(lmnet.model, "TILE_PIXELS", 1 << 15)
    held = []
    for h, w in [(256, 512), (512, 512)]:
        graph = built(Variant.PROPOSED)
        batch = np.random.default_rng(6).random((1, 3, h, w)).astype(np.float32)
        tracemalloc.start()
        try:
            pred, _ = graph.forward(batch, "eval")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held.append(peak - pred.nbytes)
    assert held[1] <= 1.05 * held[0]


def test_a_tile_plan_covers_the_input_once_within_the_budget():
    """Interiors on POOL_GRID cover the input once; each extent is its
    interior widened by the halo and clipped to the input, within the
    budget. A 768x768 scene at 2^19 pixels and proposed's 40-pixel halo runs
    as two full-width bands of 424 rows; an input within the budget as one
    tile."""
    h, w, halo, budget = 232, 312, 40, 1 << 14
    plan = tile_plan(h, w, halo, budget)
    cover = np.zeros((h, w), dtype=int)
    for (rows, ext_rows), (cols, ext_cols) in plan:
        for inner, ext, size in ((rows, ext_rows, h), (cols, ext_cols, w)):
            assert inner.start % lmnet.model.POOL_GRID == 0 < inner.stop - inner.start
            assert ext == slice(max(inner.start - halo, 0), min(inner.stop + halo, size))
        assert (ext_rows.stop - ext_rows.start) * (ext_cols.stop - ext_cols.start) <= budget
        cover[rows, cols] += 1
    assert (cover == 1).all()
    bands = tile_plan(768, 768, 40, 1 << 19)
    assert [(r, c) for (_, r), (_, c) in bands] == [
        (slice(0, 424), slice(0, 768)), (slice(344, 768), slice(0, 768))]
    assert tile_plan(64, 64, 40, 64 * 64) == [((slice(0, 64),) * 2, (slice(0, 64),) * 2)]


@pytest.mark.parametrize("h, w, budget", [(232, 312, 1 << 14), (96, 400, 1 << 13),
                                          (400, 96, 1 << 13), (320, 448, 1 << 16)])
def test_a_tile_plan_computes_the_fewest_pixels_of_any_grid(h, w, budget):
    """Of every grid of near-equal bands and columns within the budget, the
    plan's computes the fewest pixels, and of equals has the fewest columns."""
    halo = 40

    def extents(size, parts):
        spans = lmnet.model._spans(size, parts, halo)
        return [ext.stop - ext.start for _, ext in spans]

    best = None
    for bands in range(1, h // 8 + 1):
        for cols in range(1, w // 8 + 1):
            rows_ext, cols_ext = extents(h, bands), extents(w, cols)
            if max(rows_ext) * max(cols_ext) <= budget:
                key = (sum(rows_ext) * sum(cols_ext), cols)
                best = key if best is None else min(best, key)
    plan = tile_plan(h, w, halo, budget)
    pixels = sum((r.stop - r.start) * (c.stop - c.start) for (_, r), (_, c) in plan)
    assert (pixels, tile_grid(plan)[1]) == best


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("variant", [Variant.DILATION, Variant.PROPOSED])
def test_pyramid_stage_writes_the_bits_of_concatenating_its_kernels(variant, mode,
                                                                    monkeypatch):
    """Stage 1 of a pyramid variant writes each kernel's batch norm output
    into its channel slice of one array: the pre-activation the stage's relu
    reads has the bits of concatenating the kernels' outputs. A train
    forward's first relu reads the whole batch. An eval forward gets sample
    0 alone: a batch of small samples runs as units, on kernels bound in
    ops._unit_kernels, whose relu calls the spy does not see."""
    rng = np.random.default_rng(13)
    graph = off_defaults(built(variant, seed=2), rng)
    batch = rng.random((2, 3, 16, 24)).astype(np.float32)
    zs = []
    for spec in graph.plan.stages[0].convs:
        p = {k.split(".", 1)[1]: v for k, v in {**graph.params, **graph.stats}.items()
             if k.split(".", 1)[0] == spec.name}
        z = ops.conv2d(batch, ops.ConvParams(p["w"], p["b"], spec.dilation))
        zs.append(ops.batchnorm(z, p["gamma"], p["beta"], p["running_mean"],
                                p["running_var"], mode)[0])
    want = np.concatenate(zs, axis=1)
    if mode == "eval":
        want = want[:1]
    seen = []
    relu = ops.relu
    monkeypatch.setattr(ops, "relu", lambda x, *out: seen.append(x.copy()) or relu(x, *out))
    graph.forward(batch if mode == "train" else batch[:1], mode, rng=np.random.default_rng(0))
    assert seen[0].dtype == want.dtype
    assert seen[0].tobytes() == want.tobytes()


def test_train_forward_updates_running_stats():
    x = np.random.default_rng(4).random((2, 3, 16, 16)).astype(np.float32)
    graph = built(Variant.PLAIN)
    before = {k: v.copy() for k, v in graph.stats.items()}
    graph.forward(x, "train", rng=np.random.default_rng(0))
    assert not np.array_equal(graph.stats["l1.running_mean"], before["l1.running_mean"])


def test_frozen_train_without_dropout_equals_eval(frozen_bn, no_dropout):
    cfg = GraphConfig()
    graph = init_parameters(build_model(Variant.PROPOSED, cfg), 0)
    x = np.random.default_rng(5).random((2, 3, 16, 16)).astype(np.float32)
    train_pred, _ = graph.forward(x, "train", rng=np.random.default_rng(0))
    eval_pred, _ = graph.forward(x, "eval")
    npt.assert_array_equal(train_pred, eval_pred)


def test_only_a_train_forward_drops(monkeypatch):
    """ops.dropout runs after the plan's dropping stages, at their rates, and
    only in train mode; every dropping stage is a relu stage."""
    rates = []
    dropout = ops.dropout
    monkeypatch.setattr(ops, "dropout",
                        lambda x, rate, rng: rates.append(rate) or dropout(x, rate, rng))
    graph = built(Variant.PROPOSED)
    x = np.random.default_rng(3).random((2, 3, 16, 16)).astype(np.float32)
    graph.forward(x, "eval")
    assert rates == []
    graph.forward(x, "train", rng=np.random.default_rng(0))
    assert rates == [0.1, 0.5, 0.3]
    assert all(s.act == "relu" for s in graph.plan.stages if s.drop)


@pytest.mark.parametrize("shape,needle", [
    ((1, 4, 16, 16), r"batch shape \(1, 4, 16, 16\) does not match the input \(n, 3, h, w\)"),
    ((1, 3, 100, 192), "input size 100x192 must be at least 8 and divisible by 8"),
    ((1, 3, 0, 0), "input size 0x0 must be at least 8"),
    ((2, 3, 4, 192), "input size 4x192 must be at least 8"),
], ids=["4-channels", "100x192", "0x0", "4x192"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_forward_refuses_a_batch_off_the_input_shape(shape, needle, mode):
    graph = built(Variant.PLAIN)
    with pytest.raises(ShapeError, match=needle):
        graph.forward(np.zeros(shape, np.float32), mode, rng=np.random.default_rng(0))


def test_forward_validation():
    graph = built(Variant.PLAIN)
    x = np.zeros((1, 3, 16, 16), dtype=np.float32)
    with pytest.raises(ShapeError, match="at least 2"):
        graph.forward(x, "train", rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="mode"):
        graph.forward(x, "predict")
    with pytest.raises(ValueError, match="rng"):
        graph.forward(np.zeros((2, 3, 16, 16), np.float32), "train")


def test_backward_validation():
    graph = built(Variant.PLAIN)
    x = np.random.default_rng(6).random((2, 3, 16, 16)).astype(np.float32)
    grad = np.ones((2, 1, 16, 16), np.float32)
    _, eval_cache = graph.forward(x, "eval")
    assert eval_cache is None
    for not_a_cache in (eval_cache, {}, [grad]):
        with pytest.raises(ValueError, match="needs the cache returned by a train-mode forward"):
            graph.backward(not_a_cache, grad)
    _, cache = graph.forward(x, "train", rng=np.random.default_rng(0))
    with pytest.raises(ShapeError, match="does not match prediction"):
        graph.backward(cache, np.ones((2, 1, 8, 8), np.float32))


def test_backward_consumes_its_cache():
    """A refused grad_pred leaves the cache whole; a backward that runs lets
    every record go, and a second backward on that cache is refused."""
    graph = built(Variant.PROPOSED)
    x = np.random.default_rng(6).random((2, 3, 16, 16)).astype(np.float32)
    pred, cache = graph.forward(x, "train", rng=np.random.default_rng(0))
    grad = np.ones_like(pred)
    with pytest.raises(ShapeError):
        graph.backward(cache, grad[:, :, :8])
    assert len(graph.backward(cache, grad)) == len(graph.params)
    assert cache.stages == []
    with pytest.raises(ValueError, match="already consumed this cache"):
        graph.backward(cache, grad)


def test_a_train_backward_lets_each_record_go_after_its_last_reader(monkeypatch):
    """proposed, float32, 8 samples at 96x96. While stage i's adjoint runs
    (from its activation adjoint to the next one), the traced peak stays
    within what backward started with besides the records, plus the record
    bytes of stages 1..i, the parameter gradients, and one stage's working
    set: four arrays the size of activation 1, the widest (its pending skip
    cotangent, the stage's cotangents and column matrices). Keeping every
    record to the end of backward crosses the bound from stage 4 on."""
    side, n = 96, 8
    graph = built(Variant.PROPOSED)
    batch = np.random.default_rng(6).random((n, 3, side, side)).astype(np.float32)
    peaks = []  # traced peak since the previous call, at each activation adjoint

    def spy(adjoint):
        def call(g, *rest):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return adjoint(g, *rest)
        return call

    for name in ("relu_backward", "sigmoid_backward", "dropout_backward"):
        monkeypatch.setattr(ops, name, spy(getattr(ops, name)))
    tracemalloc.start()
    try:
        pred, cache = graph.forward(batch, "train", rng=derive_rng(7, 1))
        grad = np.ones_like(pred)
        del pred
        # each record array, counted once, at the lowest stage that reads it
        owner = {}
        for i, rec in enumerate(cache.stages, 1):
            for a in [rec.conv_in, rec.act] + [c["xhat"] for c in rec.bn]:
                if a is not None and a is not batch:
                    owner.setdefault(id(a), (i, a.nbytes))
        held = [0] * 10  # held[i]: bytes whose last reader is stage i's adjoint
        for i, nbytes in owner.values():
            held[i] += nbytes
        act1 = cache.stages[0].act.nbytes
        before = tracemalloc.get_traced_memory()[0] - sum(held)  # all but the records
        tracemalloc.reset_peak()
        graph.backward(cache, grad)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    grads = sum(p.nbytes for p in graph.params.values())
    stage_peaks = peaks[1:]  # peaks[0] covers the loss side, before stage 9's adjoint
    assert len(stage_peaks) == 9
    for i, peak in zip(range(9, 0, -1), stage_peaks):
        bound = before + sum(held[1:i + 1]) + grads + 4 * act1
        assert peak <= bound, f"stage {i}: {peak - bound} bytes over"

def test_a_stage_backward_lets_each_batchnorm_cache_go_as_it_is_read(monkeypatch):
    """proposed, 4 x 64x64: on entry to each of stage 1's three batchnorm
    adjoints the traced memory is one xhat lower than on entry to the last,
    since the cache that adjoint read has gone with it."""
    side = 64
    graph = built(Variant.PROPOSED)
    batch = np.random.default_rng(6).random((4, 3, side, side)).astype(np.float32)
    entries = []  # (xhat bytes, traced bytes) at each batchnorm adjoint
    adjoint = ops.batchnorm_backward

    def spy(cache, grad):
        entries.append((cache["xhat"].nbytes, tracemalloc.get_traced_memory()[0]))
        return adjoint(cache, grad)

    monkeypatch.setattr(ops, "batchnorm_backward", spy)
    tracemalloc.start()  # before the forward, so freeing its xhat shows
    try:
        pred, cache = graph.forward(batch, "train", rng=derive_rng(7, 1))
        grad = np.ones_like(pred)
        del pred
        graph.backward(cache, grad)
    finally:
        tracemalloc.stop()
    assert len(entries) == 6  # stages 4, 3, 2, then stage 1's three kernels
    stage1 = entries[3:]
    for (xhat, before), (_, after) in zip(stage1, stage1[1:]):
        assert abs((before - after) - xhat) <= 16 << 10


@pytest.mark.parametrize("variant", list(Variant))
def test_backward_matches_the_scatter_oracle_adjoints(variant, monkeypatch):
    graph = built(variant).astype(np.float64)
    x = np.random.default_rng(3).random((2, 3, 16, 16))
    pred, cache = graph.forward(x, "train", rng=derive_rng(7, 1))
    grad_pred = np.random.default_rng(4).standard_normal(pred.shape)
    got = graph.backward(cache, grad_pred)
    monkeypatch.setattr(ops, "conv2d_backward", conv2d_backward_scatter)
    monkeypatch.setattr(ops, "upsample_conv2d_backward", upsample_conv2d_backward_composed)
    # backward consumed the cache; the same rng gives the same records again
    _, cache = graph.forward(x, "train", rng=derive_rng(7, 1))
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


def test_the_benchmark_tracer_finds_every_name_and_restores_each(monkeypatch):
    # perfbench/tracing.py patches the package's call sites by name, so a
    # renamed or removed one fails instrument; restore must put back the
    # very objects it replaced. Its spans assume one thread: a train step on
    # the kernels' workers, and an eval forward of 3 small samples that runs
    # them as units on the pool and in the calling thread, record each span
    # on the calling thread, and no two spans with one parent overlap
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = {"ops": lmnet.ops, "LOSSES": lmnet.ops.LOSSES, "model": lmnet.model,
              "ModelGraph": lmnet.model.ModelGraph, "train": lmnet.train,
              "checkpoint": lmnet.checkpoint, "data": lmnet.data, "imgio": lmnet.imgio}

    class ThreadTracer(tracing.Tracer):
        def span(self, *args, **kwargs):
            threads.append(threading.get_ident())
            return super().span(*args, **kwargs)

    def snapshot():
        return {label: dict(o if isinstance(o, dict) else vars(o)) for label, o in owners.items()}

    monkeypatch.setattr(ops, "WORKERS", 2)
    monkeypatch.setattr(ops, "TASK_ELEMS", 1)  # every kernel on the workers
    graph = built(Variant.PROPOSED)
    batch = np.random.default_rng(5).random((3, 3, 16, 16)).astype(np.float32)
    threads = []
    tracer = ThreadTracer()
    before = snapshot()
    restore = tracing.instrument(tracer, tracing.conv_specs(graph))
    try:
        patched = {f"{label}.{name}" for label, names in snapshot().items()
                   for name, obj in names.items() if obj is not before[label].get(name)}
        pred, cache = graph.forward(batch, "train", rng=derive_rng(7, 1))
        graph.backward(cache, np.ones_like(pred))
        assert ops.WORKERS * 16 * 16 <= lmnet.model.TILE_PIXELS  # the samples run as units
        graph.forward(batch, "eval")
    finally:
        restore()
    assert {"ops.conv2d", "ops.conv2d_backward", "ops.upsample_nearest2", "LOSSES.bce",
            "ModelGraph.forward", "train.adam_step", "imgio.read_rgb"} <= patched
    after = snapshot()
    for label, names in before.items():
        assert after[label].keys() == names.keys(), label
        assert all(after[label][name] is obj for name, obj in names.items()), label
    names = {name for name, *_ in tracer.spans}
    assert {"model.forward", "model.backward", "ops.conv2d.bwd", "ops.batchnorm.bwd"} <= names
    assert set(threads) == {threading.get_ident()} and len(threads) == len(tracer.spans)
    siblings = {}
    for _, start, end, parent, _ in tracer.spans:
        siblings.setdefault(parent, []).append((start, end))
    for spans in siblings.values():
        spans.sort()
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))


def test_single_unit_channel_sequence_still_runs():
    cfg = GraphConfig(channel_sequence=(1, 1, 1, 1))
    graph = init_parameters(build_model(Variant.PROPOSED, cfg), 0)
    pred, _ = graph.forward(np.zeros((1, 3, 8, 8), np.float32), "eval")
    assert pred.shape == (1, 1, 8, 8)


def test_one_graph_forwards_any_size_on_the_pooling_grid():
    graph = built(Variant.PROPOSED)
    for h, w in ((8, 8), (16, 16), (32, 24), (24, 40)):
        x = np.random.default_rng(h * w).random((2, 3, h, w)).astype(np.float32)
        for mode in ("train", "eval"):
            pred, _ = graph.forward(x, mode, rng=np.random.default_rng(0))
            assert pred.shape == (2, 1, h, w)


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
    (dict(channel_sequence=(5, 13, 89)), "4 entries"),
    (dict(channel_sequence=(5, 13, 0, 233)), ">= 1"),
    (dict(channel_sequence=(5, 13, 89, 233, 1)), "4 entries, got 5"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
])
def test_config_violations_are_named(bad, fragment):
    cfg = GraphConfig(**bad)
    with pytest.raises(ConfigError, match="invalid graph configuration"):
        build_model(Variant.PROPOSED, cfg)
    assert any(fragment in v for v in cfg.violations())
