"""Training loop mechanics: micro-batching, determinism, resume, abort."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import lmnet.ops as ops
from lmnet import imgio
from lmnet.checkpoint import (
    DEPLOY_MAGIC,
    load_any,
    load_training_checkpoint,
    save_training_checkpoint,
)
from lmnet.data import DatasetIndex, IndexRecord, write_synthetic_dataset
from lmnet.errors import ConfigError, DataError, TrainAbortedError
from lmnet.model import (
    GraphConfig,
    Variant,
    build_model,
    init_parameters,
    loss_fn,
)
from lmnet.seeding import derive_rng
from lmnet.train import (
    BEST_CKPT,
    FINAL_CKPT,
    LAST_CKPT,
    TRAIN_CSV,
    TrainConfig,
    VAL_CSV,
    _accumulate_batch,
    _micro_slices,
    evaluate,
    train,
)

from conftest import mixed_index

TRAIN_GRAPH = GraphConfig(channel_sequence=(2, 2, 3, 3))


def make_cfg(tiny_dataset, out_dir, **kw):
    base = dict(
        variant=Variant.PROPOSED, graph=TRAIN_GRAPH,
        index_path=tiny_dataset.root / "index.tsv", out_dir=out_dir,
        epochs=2, batch_size=4, micro_batch=2, seed=0, quiet=True,
    )
    base.update(kw)
    return TrainConfig(**base)


# -- micro-batch slicing ----------------------------------------------------

@pytest.mark.parametrize("n,micro,want", [
    (9, 4, [(0, 4), (4, 9)]),       # trailing singleton folds backward
    (8, 4, [(0, 4), (4, 8)]),
    (4, 4, [(0, 4)]),
    (1, 4, [(0, 1)]),               # nothing to fold into
    (5, 2, [(0, 2), (2, 5)]),
    (7, 3, [(0, 3), (3, 7)]),
    (6, 2, [(0, 2), (2, 4), (4, 6)]),
])
def test_micro_slices(n, micro, want):
    got = _micro_slices(n, micro)
    assert got == want
    assert got[0][0] == 0 and got[-1][1] == n
    assert all(a < b for a, b in got)


# -- gradient accumulation --------------------------------------------------

def _graph64():
    return init_parameters(build_model(Variant.PROPOSED, TRAIN_GRAPH, dtype=np.float64), 0)


def test_accumulated_micro_batches_equal_one_full_batch(frozen_bn, no_dropout):
    """With per-sample-independent forwards (frozen statistics, no dropout)
    the weighted micro-batch sum must reproduce the full-batch gradient."""
    rng = np.random.default_rng(8)
    images = rng.random((8, 3, 16, 16))
    masks = (rng.random((8, 1, 16, 16)) > 0.5).astype(np.float64)
    lossf = loss_fn("bce")

    graph = _graph64()
    cfg = TrainConfig(
        variant=Variant.PROPOSED, graph=graph.config, index_path="unused",
        out_dir="unused", micro_batch=3,
    )
    grads, loss = _accumulate_batch(graph, images, masks, lossf, cfg, 0, 0)

    whole = _graph64()
    pred, cache = whole.forward(images, "train", rng=np.random.default_rng(0))
    ref_loss, grad_pred = lossf(pred, masks)
    ref = whole.backward(cache, grad_pred)

    assert loss == pytest.approx(ref_loss, rel=1e-12)
    for name in ref:
        npt.assert_allclose(grads[name], ref[name], rtol=1e-9, atol=1e-15,
                            err_msg=name)


def test_single_micro_batch_is_bitwise_plain_sgd_step_input():
    rng = np.random.default_rng(9)
    images = rng.random((4, 3, 16, 16))
    masks = (rng.random((4, 1, 16, 16)) > 0.5).astype(np.float64)
    lossf = loss_fn("bce")

    graph = _graph64()
    cfg = TrainConfig(
        variant=Variant.PROPOSED, graph=graph.config, index_path="unused",
        out_dir="unused", micro_batch=4, seed=3,
    )
    grads, loss = _accumulate_batch(graph, images, masks, lossf, cfg, 1, 2)

    ref_graph = _graph64()
    pred, cache = ref_graph.forward(images, "train", rng=derive_rng(3, 1, 1, 2, 0))
    ref_loss, grad_pred = lossf(pred, masks)
    ref = ref_graph.backward(cache, grad_pred)
    assert loss == ref_loss  # k/n with k == n is exact
    for name in ref:
        npt.assert_array_equal(grads[name], ref[name], err_msg=name)


# -- the full loop ----------------------------------------------------------

def test_step_count_follows_the_ceiling_law(tiny_dataset, tmp_path):
    cfg = make_cfg(tiny_dataset, tmp_path / "run", epochs=2, batch_size=3,
                   micro_batch=3)
    graph, history = train(cfg)
    # 8 train images, batches of 3 -> 3 steps per epoch, 2 epochs
    assert [s for s, _, _ in history.steps] == [1, 2, 3, 4, 5, 6]
    assert [e for _, e, _ in history.steps] == [0, 0, 0, 1, 1, 1]
    assert all(np.isfinite(l) for _, _, l in history.steps)
    assert len(history.val) == 2

    rows = (tmp_path / "run" / TRAIN_CSV).read_text().splitlines()
    assert rows[0] == "step,epoch,loss"
    assert len(rows) == 7
    assert float(rows[1].split(",")[2]) == history.steps[0][2]

    val_rows = (tmp_path / "run" / VAL_CSV).read_text().splitlines()
    assert val_rows[0] == "epoch,loss,accuracy,iou,precision,recall"
    assert len(val_rows) == 3


def test_outputs_include_all_three_checkpoints(tiny_dataset, tmp_path):
    cfg = make_cfg(tiny_dataset, tmp_path / "run", epochs=1)
    graph, _ = train(cfg)
    out = tmp_path / "run"
    for name in (FINAL_CKPT, BEST_CKPT):
        assert (out / name).read_bytes()[:4] == DEPLOY_MAGIC
    final = load_any(out / FINAL_CKPT)
    best = load_any(out / BEST_CKPT)
    resumable, adam, meta = load_training_checkpoint(out / LAST_CKPT)
    for k in graph.params:
        npt.assert_array_equal(final.params[k], graph.params[k])
        npt.assert_array_equal(best.params[k], graph.params[k])
        npt.assert_array_equal(resumable.params[k], graph.params[k])
    assert adam.t == 2  # 8 images / batch 4, one epoch
    assert meta["epochs_done"] == "1"
    # no step count beside adam_t: a resume takes the optimizer step from it
    assert sorted(meta) == ["adam_eps", "batch_size", "best_val_loss", "beta1", "beta2",
                            "epochs_done", "micro_batch", "train_seed"]


def test_identical_runs_are_byte_identical(tiny_dataset, tmp_path):
    seen = []
    for name in ("a", "b"):
        cfg = make_cfg(tiny_dataset, tmp_path / name, epochs=2)
        train(cfg)
        seen.append({
            f: (tmp_path / name / f).read_bytes()
            for f in (TRAIN_CSV, VAL_CSV, LAST_CKPT, BEST_CKPT, FINAL_CKPT)
        })
    for f in seen[0]:
        assert seen[0][f] == seen[1][f], f


def test_resumed_run_matches_uninterrupted_run(tiny_dataset, tmp_path):
    whole = make_cfg(tiny_dataset, tmp_path / "whole", epochs=4)
    train(whole)

    split_cfg = make_cfg(tiny_dataset, tmp_path / "split", epochs=2)
    train(split_cfg)
    resumed = make_cfg(tiny_dataset, tmp_path / "split", epochs=4, resume=True)
    graph, history = train(resumed)
    assert [e for _, e, _ in history.steps] == [2, 2, 3, 3]  # only the new work

    for f in (TRAIN_CSV, VAL_CSV, LAST_CKPT, BEST_CKPT, FINAL_CKPT):
        assert (tmp_path / "whole" / f).read_bytes() == \
            (tmp_path / "split" / f).read_bytes(), f


# Adam settings with more significant digits than a 9-digit rendering keeps.
# On this data, cutting them to 9 digits changes no byte of a resume into a
# 2-epoch run, but it does change a resume into a 3-epoch run.
LONG_FLOATS = dict(epochs=3, beta2=0.99912345678, adam_eps=1.234567891e-2)


@pytest.mark.parametrize("crash_in,settings", [
    ("evaluate", {}), ("save_training_checkpoint", {}), ("evaluate", LONG_FLOATS),
    ("save_checkpoint", {}),
], ids=["evaluate", "save_training_checkpoint", "evaluate-long-floats", "model.ckpt"])
def test_resume_after_a_crash_matches_uninterrupted_run(
        tiny_dataset, tmp_path, monkeypatch, crash_in, settings):
    """A crash in epoch 2's evaluate or last.ckpt write, or just before
    model.ckpt is written (after last.ckpt records the final epoch)."""
    import lmnet.train as train_mod

    artifacts = (TRAIN_CSV, VAL_CSV, LAST_CKPT, BEST_CKPT, FINAL_CKPT)
    settings = {"epochs": 2, **settings}
    train(make_cfg(tiny_dataset, tmp_path / "whole", **settings))

    original = getattr(train_mod, crash_in)
    calls = []

    def crashing(*args, **kw):
        calls.append(1)
        if (Path(args[1]).name == FINAL_CKPT if crash_in == "save_checkpoint"
                else len(calls) == 2):
            raise RuntimeError("simulated crash")
        return original(*args, **kw)

    monkeypatch.setattr(train_mod, crash_in, crashing)
    with pytest.raises(RuntimeError, match="simulated crash"):
        train(make_cfg(tiny_dataset, tmp_path / "split", **settings))
    monkeypatch.setattr(train_mod, crash_in, original)

    train(make_cfg(tiny_dataset, tmp_path / "split", resume=True, **settings))
    for f in artifacts:
        assert (tmp_path / "whole" / f).read_bytes() == \
            (tmp_path / "split" / f).read_bytes(), f


def test_resume_may_change_the_learning_rate(tiny_dataset, tmp_path, monkeypatch):
    import lmnet.train as train_mod

    train(make_cfg(tiny_dataset, tmp_path / "run", epochs=1))
    step = train_mod.adam_step
    rates = []

    def recording_step(*args, lr, **kw):
        rates.append(lr)
        return step(*args, lr=lr, **kw)

    monkeypatch.setattr(train_mod, "adam_step", recording_step)
    _, history = train(make_cfg(tiny_dataset, tmp_path / "run", resume=True, lr=1e-3))
    assert len(history.steps) == 2  # 8 images in batches of 4, epoch 1 only
    assert rates == [1e-3, 1e-3]


def test_a_checkpoint_with_unread_meta_keys_resumes_byte_exact(tiny_dataset, tmp_path):
    artifacts = (TRAIN_CSV, VAL_CSV, LAST_CKPT, BEST_CKPT, FINAL_CKPT)
    train(make_cfg(tiny_dataset, tmp_path / "whole", epochs=2))
    train(make_cfg(tiny_dataset, tmp_path / "split", epochs=1))
    # earlier builds also wrote lr, epochs and threshold, which no resume reads
    last = tmp_path / "split" / LAST_CKPT
    graph, adam, meta = load_training_checkpoint(last)
    save_training_checkpoint(graph, adam, {**meta, "lr": 0.005, "epochs": 1,
                                           "threshold": 0.5}, last)
    assert b"\nlr=0.005\n" in last.read_bytes()

    train(make_cfg(tiny_dataset, tmp_path / "split", epochs=2, resume=True))
    for f in artifacts:
        assert (tmp_path / "whole" / f).read_bytes() == \
            (tmp_path / "split" / f).read_bytes(), f


def test_resume_with_different_graph_is_refused(tiny_dataset, tmp_path):
    train(make_cfg(tiny_dataset, tmp_path / "run", epochs=1))
    other = make_cfg(
        tiny_dataset, tmp_path / "run", epochs=2, resume=True,
        graph=replace(TRAIN_GRAPH, channel_sequence=(3, 3, 4, 4)),
    )
    with pytest.raises(ConfigError, match="different graph configuration"):
        train(other)


@pytest.mark.parametrize("field,value,key", [
    ("seed", 1, "train_seed"),
    ("batch_size", 2, "batch_size"),
    ("micro_batch", 3, "micro_batch"),
    ("beta1", 0.8, "beta1"),
    ("beta2", 0.99, "beta2"),
    ("beta2", 0.999000000001, "beta2"),  # the same as 0.999 to 9 digits
    ("adam_eps", 1e-2, "adam_eps"),
])
def test_resume_with_different_run_settings_is_refused(
        tiny_dataset, tmp_path, field, value, key):
    run = tmp_path / "run"
    train(make_cfg(tiny_dataset, run, epochs=1))
    before = {f.name: f.read_bytes() for f in run.iterdir()}
    other = make_cfg(tiny_dataset, run, epochs=2, resume=True, **{field: value})
    with pytest.raises(ConfigError, match=f"trained with {key}="):
        train(other)
    assert {f.name: f.read_bytes() for f in run.iterdir()} == before


def test_fully_trained_run_resumes_to_a_no_op(tiny_dataset, tmp_path, capsys):
    cfg = make_cfg(tiny_dataset, tmp_path / "run", epochs=1)
    train(cfg)
    before = (tmp_path / "run" / TRAIN_CSV).read_bytes()
    again = make_cfg(tiny_dataset, tmp_path / "run", epochs=1, resume=True,
                     quiet=False)
    _, history = train(again)
    assert history.steps == [] and history.val == []
    assert "nothing to do" in capsys.readouterr().out
    assert (tmp_path / "run" / TRAIN_CSV).read_bytes() == before


def test_non_finite_gradients_abort_with_step_number(tiny_dataset, tmp_path,
                                                     monkeypatch):
    def poisoned(pred, target):
        return 0.5, np.full_like(pred, np.nan)

    monkeypatch.setitem(ops.LOSSES, "bce", poisoned)
    cfg = make_cfg(tiny_dataset, tmp_path / "run", epochs=1)
    with pytest.raises(TrainAbortedError, match="optimizer step 1 rejected") as err:
        train(cfg)
    assert err.value.step == 1
    # aborted before the first epoch completed, so no resume point exists
    assert not (tmp_path / "run" / LAST_CKPT).exists()


def test_train_config_violations_are_collected(tiny_dataset, tmp_path):
    cfg = make_cfg(tiny_dataset, tmp_path / "run", epochs=0, batch_size=0,
                   micro_batch=5, lr=-1.0, threshold=1.5, log_every=0,
                   beta1=1.5, beta2=1.0, adam_eps=float("nan"), seed=-1)
    with pytest.raises(ConfigError) as err:
        train(cfg)
    text = str(err.value)
    for frag in ("epochs", "batch_size", "micro_batch", "lr", "threshold",
                 "log_every", "beta1 must be in [0, 1), got 1.5",
                 "beta2 must be in [0, 1), got 1.0",
                 "adam_eps must be positive and finite, got nan",
                 "seed must be >= 0, got -1"):
        assert frag in text


def test_train_requires_both_splits(tmp_path):
    index = write_synthetic_dataset(tmp_path / "d", {"train": 2}, 16, seed=0)
    cfg = TrainConfig(
        variant=Variant.PROPOSED, graph=TRAIN_GRAPH,
        index_path=index.root / "index.tsv", out_dir=tmp_path / "run",
        epochs=1, batch_size=2, micro_batch=2, quiet=True,
    )
    with pytest.raises(ConfigError, match="split 'val' is empty"):
        train(cfg)


def test_train_checks_every_val_tile_before_writing(tmp_path):
    # 16x16 train tiles; the first val tile is 24x24 and the second 16x16
    index = mixed_index(tmp_path / "mix", [("a", {"train": 4}, 16), ("b", {"val": 1}, 24),
                                           ("c", {"val": 1}, 16)])
    cfg = TrainConfig(
        variant=Variant.PROPOSED, graph=TRAIN_GRAPH,
        index_path=index, out_dir=tmp_path / "run",
        epochs=1, batch_size=4, micro_batch=2, quiet=True,
    )
    with pytest.raises(DataError, match=r"c/val/images/synth_00000\.png is 16x16, but the "
                                        r"first image of split 'val', .*b/val/images/"
                                        r"synth_00000\.png, is 24x24"):
        train(cfg)
    assert not (tmp_path / "run").exists()


# -- evaluation -------------------------------------------------------------

def test_evaluate_is_deterministic_and_counts_samples(tiny_dataset):
    graph = init_parameters(build_model(Variant.PROPOSED, TRAIN_GRAPH), 0)
    a = evaluate(graph, tiny_dataset, "val", micro_batch=3)
    b = evaluate(graph, tiny_dataset, "val", micro_batch=2)
    assert a.split == "val" and a.samples == 4
    # pooled counts and sample-weighted loss do not depend on batching
    assert a.loss == pytest.approx(b.loss, rel=1e-6)
    assert (a.accuracy, a.iou, a.precision, a.recall) == \
        (b.accuracy, b.iou, b.precision, b.recall)
    c = evaluate(graph, tiny_dataset, "val", micro_batch=3)
    assert (a.loss, a.accuracy, a.iou) == (c.loss, c.accuracy, c.iou)


def test_evaluate_reads_no_header_and_names_a_tile_of_the_wrong_size(
        tmp_path, monkeypatch):
    # the graph forwards any size; a split's tiles share the first one's
    small = write_synthetic_dataset(tmp_path / "a", {"val": 3}, 16, seed=0)
    big = write_synthetic_dataset(tmp_path / "b", {"val": 1}, 24, seed=1)
    bad = IndexRecord(f"b/{big.records[0].image}", f"b/{big.records[0].mask}", "val")
    index = DatasetIndex(tmp_path, [IndexRecord(f"a/{r.image}", f"a/{r.mask}", r.split)
                                    for r in small.records] + [bad])
    calls = []
    monkeypatch.setattr(imgio, "image_size", lambda path: calls.append(path))
    graph = init_parameters(build_model(Variant.PROPOSED, TRAIN_GRAPH), 0)
    wrong = (f"{tmp_path / bad.image} is 24x24, but the first image of split 'val', "
             f"{tmp_path / index.records[0].image}, is 16x16")
    with pytest.raises(DataError, match=re.escape(wrong)):
        evaluate(graph, index, "val", micro_batch=2)
    assert calls == []


def test_evaluate_empty_split_is_a_config_error(tmp_path):
    index = write_synthetic_dataset(tmp_path, {"train": 2, "val": 1}, 16, seed=0)
    graph = init_parameters(build_model(Variant.PROPOSED, TRAIN_GRAPH), 0)
    with pytest.raises(ConfigError, match="'test' is empty"):
        evaluate(graph, index, "test")
