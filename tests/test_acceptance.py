"""End-to-end acceptance checks, one test per numbered criterion.

Every test here carries the `acceptance` marker; the terminal summary
prints one PASS/FAIL line per criterion (wired up in conftest). The rest
of the suite covers the same ground in finer grain; this module states
the headline guarantees in one place, with their runtime bounds.

Set LMNET_ACCEPT_FULL=1 to also run the overfit experiment at the full
192x192 working size (several minutes); by default a 64x64 scale model
of the same experiment runs, with the same quality thresholds.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

import lmnet.ops as ops
from lmnet import imgio
from lmnet.checkpoint import load_any, save_checkpoint
from lmnet.data import (
    TARGET_SIZE,
    load_index,
    load_pair,
    prepare_dataset,
    tile_image,
    write_synthetic_dataset,
)
from lmnet.gradcheck import check_graph_gradients, relative_error
from lmnet.metrics import confusion, render_table
from lmnet.model import (
    GraphConfig,
    Variant,
    build_model,
    closed_form_param_count,
    init_parameters,
)
from lmnet.train import TrainConfig, evaluate, train

from oracles import (
    confusion_naive,
    conv2d_naive,
    fd_gradient,
    maxpool2_naive,
    maxpool2_scatter,
    tile_naive,
)

SMALL_GRAPH = GraphConfig(channel_sequence=(2, 2, 3, 3))

# The overfit recipe: 16 images, batches of 4, 75 epochs = 300 optimizer
# steps. adam_eps is raised to 1e-2 because at this scale the default
# 1e-8 lets the first bias-corrected update saturate the output sigmoid,
# from which the clamped cross-entropy cannot recover.
OVERFIT = dict(epochs=75, batch_size=4, micro_batch=4, lr=0.005,
               adam_eps=1e-2, seed=0)


def _small_cfg(variant, index, out_dir, **overrides):
    base = dict(
        variant=variant, graph=SMALL_GRAPH,
        index_path=index.root / "index.tsv", out_dir=out_dir,
        epochs=1, batch_size=4, micro_batch=2, quiet=True,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def overfit_run(overfit_dataset, tmp_path_factory):
    """Train the overfit model once; criteria 4 and 5 both read it."""
    out = tmp_path_factory.mktemp("accept-overfit")
    cfg = TrainConfig(
        variant=Variant.PROPOSED, graph=GraphConfig(),
        index_path=overfit_dataset.root / "index.tsv", out_dir=out,
        quiet=True, **OVERFIT,
    )
    start = time.perf_counter()
    graph, history = train(cfg)
    elapsed = time.perf_counter() - start
    return graph, history, elapsed


@pytest.mark.acceptance(1, "kernel oracle suite")
def test_kernels_match_their_oracles_exactly():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    dilations = itertools.cycle((1, 2, 3, 5))

    for _ in range(50):  # convolution, integer-valued so equality is exact
        cin, cout = (int(v) for v in rng.integers(1, 4, 2))
        k = int(rng.choice([1, 3, 5]))
        h, w = (int(v) for v in rng.integers(3, 9, 2))
        x = rng.integers(-4, 5, (2, cin, h, w)).astype(np.float64)
        weights = rng.integers(-3, 4, (cout, cin, k, k)).astype(np.float64)
        bias = rng.integers(-2, 3, cout).astype(np.float64)
        d = next(dilations)
        got = ops.conv2d(x, ops.ConvParams(weights, bias, d))
        assert np.array_equal(got, conv2d_naive(x, weights, bias, d))

    cot_rng = np.random.default_rng(102)  # pool cotangents, off the config stream
    for _ in range(50):  # pooling, including tied windows; the adjoint fills +0
        c = int(rng.integers(1, 4))
        h, w = (2 * int(v) for v in rng.integers(1, 7, 2))
        x = rng.integers(-9, 10, (2, c, h, w)).astype(np.float64)
        out = ops.maxpool2(x)
        naive_out, naive_arg = maxpool2_naive(x)
        assert np.array_equal(out, naive_out)
        cot = cot_rng.integers(-9, 10, out.shape).astype(np.float64)
        got = ops.maxpool2_backward(cot, x, out)
        assert got.tobytes() == maxpool2_scatter(cot, naive_arg, x.shape).tobytes()

    for _ in range(50):  # confusion counting
        shape = (int(rng.integers(1, 4)), 1,
                 int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        pred = rng.random(shape)
        target = (rng.random(shape) > 0.5).astype(np.float64)
        threshold = float(rng.uniform(0.2, 0.8))
        c = confusion(pred, target, threshold)
        assert (c.tp, c.fp, c.tn, c.fn) == confusion_naive(pred, target, threshold)

    for _ in range(50):  # tiling
        t = int(rng.integers(2, 6))
        rows, cols = (int(v) for v in rng.integers(1, 4, 2))
        image = (rng.integers(0, 256, (3, rows * t, cols * t)) / 255.0).astype(np.float32)
        mask = (rng.random((rows * t, cols * t)) > 0.5).astype(np.float32)
        tiles = tile_image(image, mask, t)
        assert len(tiles) == rows * cols
        for (ti, tm), ni, nm in zip(tiles, tile_naive(image, t), tile_naive(mask, t)):
            assert np.array_equal(ti, ni)
            assert np.array_equal(tm, nm)

    assert time.perf_counter() - start < 60.0


@pytest.mark.acceptance(2, "gradient suite")
def test_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = {}

    x = rng.uniform(-1, 1, (1, 2, 6, 6))
    weights = rng.uniform(-1, 1, (3, 2, 3, 3))
    bias = rng.uniform(-1, 1, 3)
    cot = rng.uniform(-1, 1, (1, 3, 6, 6))
    p = ops.ConvParams(weights, bias, 2)
    gx, gw, gb = ops.conv2d_backward(x, p, cot)
    value = lambda: float((ops.conv2d(x, p) * cot).sum())
    worst["conv.x"] = relative_error(gx, fd_gradient(value, x))
    worst["conv.w"] = relative_error(gw, fd_gradient(value, weights))
    worst["conv.b"] = relative_error(gb, fd_gradient(value, bias))

    x = rng.uniform(-2, 2, (3, 2, 4, 4))
    gamma, beta = rng.uniform(0.7, 1.3, 2), rng.normal(0.0, 0.2, 2)
    stats = (np.zeros(2), np.ones(2))
    cot = rng.uniform(-1, 1, x.shape)

    def bn_value():
        out = ops.batchnorm(x, gamma, beta, *stats, "train")[0]
        return float((out * cot).sum())

    cache = ops.batchnorm(x, gamma, beta, *stats, "train")[1]
    gx, ggamma, gbeta = ops.batchnorm_backward(cache, cot)
    worst["bn.x"] = relative_error(gx, fd_gradient(bn_value, x))
    worst["bn.gamma"] = relative_error(ggamma, fd_gradient(bn_value, gamma))
    worst["bn.beta"] = relative_error(gbeta, fd_gradient(bn_value, beta))

    x = rng.uniform(-1, 1, (2, 2, 4, 4))
    x[np.abs(x) < 0.05] = 0.1  # probe away from the kink
    cot = rng.uniform(-1, 1, x.shape)
    gx = ops.relu_backward(cot, ops.relu(x, np.empty_like(x)))
    worst["relu"] = relative_error(
        gx, fd_gradient(lambda: float((ops.relu(x, np.empty_like(x)) * cot).sum()), x))

    x = rng.uniform(-3, 3, (2, 2, 4, 4))
    cot = rng.uniform(-1, 1, x.shape)
    gx = ops.sigmoid_backward(cot, ops.sigmoid(x))
    worst["sigmoid"] = relative_error(
        gx, fd_gradient(lambda: float((ops.sigmoid(x) * cot).sum()), x))

    x = rng.uniform(-1, 1, (2, 2, 6, 6))
    x += np.arange(x.size).reshape(x.shape) * 1e-2  # no ties near the probe
    cot = rng.uniform(-1, 1, (2, 2, 3, 3))
    gx = ops.maxpool2_backward(cot, x, ops.maxpool2(x))
    worst["maxpool"] = relative_error(
        gx, fd_gradient(lambda: float((ops.maxpool2(x) * cot).sum()), x))

    x = rng.uniform(-1, 1, (1, 3, 3, 4))
    cot = rng.uniform(-1, 1, (1, 3, 6, 8))
    gx = ops.upsample_nearest2_backward(cot)
    worst["upsample"] = relative_error(
        gx, fd_gradient(lambda: float((ops.upsample_nearest2(x) * cot).sum()), x))

    a = rng.uniform(-1, 1, (2, 2, 3, 3))
    b = rng.uniform(-1, 1, (2, 3, 3, 3))
    cot = rng.uniform(-1, 1, (2, 5, 3, 3))
    ga, gb_ = ops.split_channels(cot, 2)
    value = lambda: float((ops.concat_channels(a, b) * cot).sum())
    worst["concat.a"] = relative_error(ga, fd_gradient(value, a))
    worst["concat.b"] = relative_error(gb_, fd_gradient(value, b))

    x = rng.uniform(-1, 1, (1, 2, 6, 6))
    cot = rng.uniform(-1, 1, x.shape)
    mask = ops.dropout(x, 0.5, np.random.default_rng(99)) != 0  # x has no zero

    def drop_value():  # same seed every call keeps the mask frozen
        out = ops.dropout(x, 0.5, np.random.default_rng(99))
        assert np.array_equal(out != 0, mask)
        return float((out * cot).sum())

    worst["dropout"] = relative_error(ops.dropout_backward(cot, mask, 0.5),
                               fd_gradient(drop_value, x))

    pred = rng.uniform(0.2, 0.8, (2, 1, 4, 4))
    target = (rng.random(pred.shape) > 0.5).astype(np.float64)
    _, grad = ops.bce_loss(pred, target)
    worst["bce"] = relative_error(grad, fd_gradient(lambda: ops.bce_loss(pred, target)[0], pred))

    bad = {k: v for k, v in worst.items() if v >= 1e-6}
    assert not bad, bad

    errors = check_graph_gradients(Variant.PROPOSED)
    offenders = {k: v for k, v in errors.items() if v >= 1e-5}
    assert not offenders, offenders
    assert time.perf_counter() - start < 120.0


@pytest.mark.acceptance(3, "architecture conformance")
def test_structural_facts_hold_for_every_variant():
    for variant in Variant:
        config = GraphConfig()
        graph = build_model(variant, config)
        stages = graph.plan.stages
        convs = graph.plan.all_convs
        assert len(stages) == 9
        assert config.channel_sequence == (5, 13, 89, 233)
        assert TARGET_SIZE == (192, 192)
        assert all(s.out_channels == 5 for s in stages[0].convs)
        pooled = tuple(s.convs[0].out_channels for s in stages if s.pre == "pool")
        assert pooled == (13, 89, 233)
        assert tuple(sorted({s.layer for s in convs if s.has_bn})) == (1, 2, 3, 4)
        drops = tuple((s.index, s.drop) for s in stages if s.drop)
        assert drops == ((4, 0.1), (5, 0.5), (6, 0.3))
        assert tuple(s.kernel for s in convs[-2:]) == (1, 1)
        if variant.has_pyramid:
            assert len(stages[0].convs) == 3
            assert tuple(s.dilation for s in stages[0].convs) == (2, 3, 5)
        else:
            assert len(stages[0].convs) == 1
        skips = tuple((s.index, s.skip) for s in stages if s.skip)
        if variant.has_skips:
            assert len(skips) == 3
        else:
            assert skips == ()


@pytest.mark.acceptance(4, "synthetic overfit")
def test_overfit_reaches_the_quality_bar(overfit_run, overfit_dataset):
    graph, history, elapsed = overfit_run
    assert len(history.steps) <= 300
    rep = evaluate(graph, overfit_dataset, "train", micro_batch=4)
    assert rep.loss < 0.05, rep
    assert rep.iou > 0.9, rep
    assert elapsed < 300.0


@pytest.mark.skipif(os.environ.get("LMNET_ACCEPT_FULL") != "1",
                    reason="set LMNET_ACCEPT_FULL=1 for the full-size overfit run")
@pytest.mark.acceptance(4, "synthetic overfit")
def test_overfit_at_full_working_size(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept-full")
    index = write_synthetic_dataset(root / "data", {"train": 16, "val": 4},
                                    size=192, seed=11)
    cfg = TrainConfig(
        variant=Variant.PROPOSED, graph=GraphConfig(),
        index_path=index.root / "index.tsv", out_dir=root / "run",
        quiet=True, **OVERFIT,
    )
    start = time.perf_counter()
    graph, history = train(cfg)
    elapsed = time.perf_counter() - start
    assert len(history.steps) <= 300
    rep = evaluate(graph, index, "train", micro_batch=4)
    assert rep.loss < 0.05, rep
    assert rep.iou > 0.9, rep
    assert elapsed < 1800.0


@pytest.mark.acceptance(5, "ablation smoke")
def test_every_variant_trains_and_reports(tiny_dataset, overfit_run, tmp_path):
    rows = []
    for variant in Variant:
        graph, history = train(
            _small_cfg(variant, tiny_dataset, tmp_path / variant.value))
        assert all(np.isfinite(loss) for _, _, loss in history.steps)
        label = variant.value.capitalize()
        rows.append((label, evaluate(graph, tiny_dataset, "train", micro_batch=4)))
        rows.append((label, evaluate(graph, tiny_dataset, "test", micro_batch=4)))
    table = render_table(rows)
    for token in ("Method", "Train/Test", "Loss", "Accuracy", "IoU",
                  "Precision", "Recall"):
        assert token in table
    for variant in Variant:
        assert variant.value.capitalize() in table

    _, history, _ = overfit_run
    first20 = [loss for _, _, loss in history.steps[:20]]
    assert len(first20) == 20
    assert all(np.isfinite(v) for v in first20)
    # a trend claim, not a value claim: later early-phase losses sit lower
    assert np.mean(first20[15:]) < np.mean(first20[:5])


@pytest.mark.acceptance(6, "determinism")
def test_identical_runs_and_resume_are_bit_exact(tiny_dataset, tmp_path):
    files = ("history_train.csv", "history_val.csv",
             "model.ckpt", "best.ckpt", "last.ckpt")

    def run(out, epochs, resume=False):
        train(_small_cfg(Variant.PROPOSED, tiny_dataset, out,
                         epochs=epochs, seed=3, resume=resume))

    run(tmp_path / "a", 2)
    run(tmp_path / "b", 2)
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name

    run(tmp_path / "c", 1)
    run(tmp_path / "c", 2, resume=True)
    for name in files:
        assert (tmp_path / "c" / name).read_bytes() == \
            (tmp_path / "a" / name).read_bytes(), name


@pytest.mark.acceptance(7, "round trips")
def test_tiling_and_checkpoint_round_trips(tmp_path):
    # A scene through `prepare` and back: nine 512x512 tiles (tile sides on
    # the pooling grid, target = tile, so nothing is resampled) read back by
    # their r/c names and joined must equal the scene's 8-bit levels exactly.
    rng = np.random.default_rng(77)
    image = rng.integers(0, 256, (3, 1536, 1536)).astype(np.float32) / np.float32(255)
    mask = (rng.random((1536, 1536)) > 0.5).astype(np.float32)
    raw = tmp_path / "raw"
    for sub in ("images", "masks"):
        (raw / "train" / sub).mkdir(parents=True)
    imgio.write_rgb(raw / "train/images/scene.ppm", image)
    imgio.write_gray(raw / "train/masks/scene.ppm", mask)
    prepare_dataset(raw, tmp_path / "prepared", tile=512, target=(512, 512),
                    min_fg=0.0, max_fg=1.0)
    index = load_index(tmp_path / "prepared" / "index.tsv")
    assert len(index.records) == 9
    tiles = {r.image: load_pair(index, r) for r in index.records}
    grid = [[tiles[f"train/images/scene_r{r}c{c}.png"] for c in range(3)]
            for r in range(3)]
    back_image = np.block([[t_image for t_image, _ in row] for row in grid])
    back_mask = np.block([[t_mask for _, t_mask in row] for row in grid])
    assert back_image.dtype == np.uint8
    assert np.array_equal(imgio.to_float(back_image), image)
    assert np.array_equal(back_mask, mask)

    graph = build_model(Variant.PROPOSED, SMALL_GRAPH)
    init_parameters(graph)
    x = rng.random((2, 3, 16, 16)).astype(np.float32)
    before, _ = graph.forward(x, "eval")
    first, second = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_checkpoint(graph, first)
    loaded = load_any(first)
    save_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    after, _ = loaded.forward(x, "eval")
    assert np.array_equal(before, after)


@pytest.mark.acceptance(8, "step-count law")
def test_six_hundred_images_ten_epochs_thirty_steps(tmp_path):
    index = write_synthetic_dataset(
        tmp_path / "data", {"train": 600, "val": 4}, size=16, seed=2)
    _, history = train(TrainConfig(
        variant=Variant.PLAIN, graph=SMALL_GRAPH,
        index_path=index.root / "index.tsv", out_dir=tmp_path / "run",
        epochs=10, batch_size=200, micro_batch=200, quiet=True,
    ))
    assert math.ceil(600 / 200) * 10 == 30
    assert len(history.steps) == 30
    assert history.steps[-1][0] == 30


@pytest.mark.acceptance(9, "parameter census")
def test_two_independent_counters_agree_and_the_net_is_small():
    config = GraphConfig()
    totals = {}
    for variant in Variant:
        walk = build_model(variant, config).param_count()
        assert walk == closed_form_param_count(variant, config), variant
        totals[variant] = walk
    assert totals[Variant.PROPOSED] == 471_515
    vgg16 = 138_000_000  # the usual point of comparison for compactness
    assert totals[Variant.PROPOSED] * 100 < vgg16


@pytest.mark.acceptance(10, "throughput sanity")
def test_single_image_forward_is_subsecond():
    graph = build_model(Variant.PROPOSED, GraphConfig())
    init_parameters(graph)
    x = np.random.default_rng(5).random((1, 3, 192, 192)).astype(np.float32)
    graph.forward(x, "eval")  # first call pays allocation warm-up
    best = min(_timed_forward(graph, x) for _ in range(5))
    assert best < 1.0, f"forward took {best:.3f}s"


def _timed_forward(graph, x):
    start = time.perf_counter()
    graph.forward(x, "eval")
    return time.perf_counter() - start
