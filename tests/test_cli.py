"""Command-line behavior: flag resolution, exit codes, end-to-end runs.

Most tests call main(argv) in process; a few run a child python to cover
the packaging entry point and the process exit code.
"""

import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from lmnet import cli, imgio
from lmnet.checkpoint import (
    TRAIN_MAGIC,
    _serialize,
    load_any,
    load_training_checkpoint,
    save_checkpoint,
    save_training_checkpoint,
)
from lmnet.cli import _resolve, main
from lmnet.data import build_index, save_index, synth_pair, write_synthetic_dataset
from lmnet.metrics import DEFAULT_THRESHOLD
from lmnet.model import (
    GraphConfig,
    ModelGraph,
    Variant,
    build_model,
    init_parameters,
)
from lmnet.optim import adam_init
from lmnet.seeding import derive_rng
from lmnet.train import TrainConfig

from conftest import TINY_GRAPH, checkpoint_offsets, declare_first_tensor, mixed_index, seal

TINY_CHANNELS = "2,2,3,3"
REPO = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def trained_run(tiny_dataset, tmp_path_factory, capsys):
    """One CLI training run on the 16x16 synthetic dataset, shared per test."""
    out = tmp_path_factory.mktemp("cli-run")
    code = main([
        "train", "--index", str(tiny_dataset.root / "index.tsv"),
        "--out", str(out / "run"), "--variant", "proposed",
        "--epochs", "1", "--batch", "4", "--micro-batch", "2",
        "--channels", TINY_CHANNELS, "--quiet",
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return out / "run", captured.out


# -- parameter census -------------------------------------------------------

def test_params_prints_census_and_matching_totals(capsys):
    code, out, _ = run_cli(capsys, "params", "--variant", "proposed")
    assert code == 0
    assert "resolved config (params):" in out
    lines = out.splitlines()
    totals = [l for l in lines if l.startswith("total")]
    assert len(totals) == 2
    assert all(l.rstrip().endswith("471515") for l in totals)
    assert any(l.startswith("l1b0") for l in lines)
    assert any(l.startswith("l9") for l in lines)


def test_params_unknown_variant_exits_1_listing_choices(capsys):
    code, _, err = run_cli(capsys, "params", "--variant", "unet")
    assert code == 1
    for name in ("plain", "dilation", "residual", "proposed"):
        assert name in err


def test_params_accepts_custom_channels(capsys):
    code, out, _ = run_cli(
        capsys, "params", "--variant", "plain", "--channels", TINY_CHANNELS,
    )
    assert code == 0
    assert "channels=2,2,3,3" in out


def test_params_echoes_the_default_dilations(capsys):
    """The pyramid rates are the plan's, not a setting: the census prints
    them per first-layer kernel, and the echoed config has no key for them."""
    code, out, _ = run_cli(capsys, "params", "--variant", "proposed")
    assert code == 0
    assert echoed_config(out) == (
        "# resolved config (params):\n  channels=5,13,89,233\n  variant=proposed\n")
    rates = [line.split()[3] for line in out.splitlines() if line.startswith("l1b")]
    assert rates == ["2", "3", "5"]


def test_train_defaults_are_the_config_classes_defaults():
    """Every train option but the three required ones sets a TrainConfig or
    GraphConfig field, and defaults to that field's default."""
    _, resolved = _resolve(["train", "--index", "i", "--out", "o", "--variant", "plain"])
    option_of = {"batch_size": "batch", "channel_sequence": "channels"}
    checked = set()
    for cls in (TrainConfig, GraphConfig):
        for f in fields(cls):
            option = option_of.get(f.name, f.name)
            if option in resolved and f.default is not MISSING:
                assert resolved[option] == f.default, option
                checked.add(option)
    assert checked == set(resolved) - {"index", "out", "variant"}


# -- training ---------------------------------------------------------------

def test_train_smoke_writes_checkpoints(trained_run):
    run_dir, out = trained_run
    assert "training complete: 2 optimizer steps" in out
    for name in ("model.ckpt", "best.ckpt", "last.ckpt",
                 "history_train.csv", "history_val.csv"):
        assert (run_dir / name).is_file(), name


def test_train_reads_headers_in_its_checks_only(tiny_dataset, tmp_path, capsys, monkeypatch):
    """A header is read by the up-front split checks only, never again by a
    pass over the train split or a validation."""
    calls = []
    image_size = imgio.image_size
    monkeypatch.setattr(imgio, "image_size", lambda path: calls.append(path) or image_size(path))
    code, _, err = run_cli(
        capsys, "train", "--index", str(tiny_dataset.root / "index.tsv"),
        "--out", str(tmp_path / "run"), "--variant", "plain", "--epochs", "3",
        "--batch", "4", "--micro-batch", "2", "--channels", TINY_CHANNELS, "--quiet",
    )
    assert code == 0, err
    # 8 train and 4 val pairs: train() reads all 24 files, and the 3
    # validations none again
    assert len(calls) == 24


def test_train_invalid_lr_fails_before_touching_the_run_dir(
        tiny_dataset, tmp_path, capsys):
    out_dir = tmp_path / "never"
    code, _, err = run_cli(
        capsys, "train", "--index", str(tiny_dataset.root / "index.tsv"),
        "--out", str(out_dir), "--variant", "plain", "--lr", "-1",
        "--channels", TINY_CHANNELS,
    )
    assert code == 1
    assert "lr" in err
    assert not out_dir.exists()


def test_train_negative_seed_fails_before_touching_the_run_dir(
        tiny_dataset, tmp_path, capsys):
    out_dir = tmp_path / "never"
    code, _, err = run_cli(
        capsys, "train", "--index", str(tiny_dataset.root / "index.tsv"),
        "--out", str(out_dir), "--variant", "plain", "--seed", "-1",
        "--channels", TINY_CHANNELS,
    )
    assert code == 1
    assert err.count("seed must be >= 0") == 1  # the train and graph seeds, reported once
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("flag,value,needle", [
    ("--channels", "5,13,89", "channel_sequence needs exactly 4 entries, got 3"),
])
def test_train_graph_error_fails_before_touching_the_run_dir(
        flag, value, needle, tiny_dataset, tmp_path, capsys):
    out_dir = tmp_path / "never"
    code, _, err = run_cli(
        capsys, "train", "--index", str(tiny_dataset.root / "index.tsv"),
        "--out", str(out_dir), "--variant", "proposed", flag, value,
    )
    assert code == 1
    assert needle in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_train_non_numeric_flag_exits_1(tiny_dataset, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "train", "--index", str(tiny_dataset.root / "index.tsv"),
        "--out", str(tmp_path / "x"), "--variant", "plain",
        "--epochs", "three",
    )
    assert code == 1
    assert "epochs" in err


# -- evaluation -------------------------------------------------------------

def test_eval_prints_table_and_kv_block(trained_run, tiny_dataset, capsys):
    run_dir, _ = trained_run
    code, out, _ = run_cli(
        capsys, "eval", "--ckpt", str(run_dir / "model.ckpt"),
        "--index", str(tiny_dataset.root / "index.tsv"), "--split", "val",
    )
    assert code == 0
    assert "Method" in out and "Train/Test" in out and "IoU" in out
    assert "Proposed" in out
    assert "split=val" in out
    assert "samples=4" in out
    loss_line = next(l for l in out.splitlines() if l.startswith("loss="))
    float(loss_line.split("=", 1)[1])  # repr round-trips


def test_eval_missing_checkpoint_exits_2(tiny_dataset, tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "eval", "--ckpt", str(tmp_path / "ghost.ckpt"),
        "--index", str(tiny_dataset.root / "index.tsv"),
    )
    assert code == 2
    assert "cannot read checkpoint" in err
    assert "Method" not in out  # no partial table was printed


def test_a_missing_checkpoint_is_named_once(tiny_dataset, tmp_path, capsys):
    ckpt = tmp_path / "nope.ckpt"
    code, _, err = run_cli(
        capsys, "eval", "--ckpt", str(ckpt),
        "--index", str(tiny_dataset.root / "index.tsv"),
    )
    assert code == 2
    assert err.count("nope.ckpt") == 1, err
    assert "No such file or directory" in err


@pytest.mark.parametrize("damage", ["not-utf8", "huge-payload"])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_malformed_checkpoint_exits_2_with_one_line(command, damage, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(init_parameters(build_model(Variant.PLAIN, TINY_GRAPH)), ckpt)
    blob = ckpt.read_bytes()
    if damage == "not-utf8":
        at = checkpoint_offsets(blob)["config"] + 4
        ckpt.write_bytes(seal(blob[:at] + b"\xff" + blob[at + 1:-4]))
    else:
        ckpt.write_bytes(declare_first_tensor(blob, (2**21, 2**20)))
    imgio.write_rgb(tmp_path / "x.png", np.zeros((3, 8, 8), np.float32))
    rest = {"eval": ["--index", str(tmp_path / "index.tsv")],
            "predict": ["--image", str(tmp_path / "x.png"), "--out", str(tmp_path / "p")]}
    code, _, err = run_cli(capsys, command, "--ckpt", str(ckpt), *rest[command])
    assert code == 2
    assert err.count("error:") == 1 and "Traceback" not in err


@pytest.mark.parametrize("shape,why", [
    ((0,) * 70, "declares 70 dimensions; no tensor has more than 4"),
    ((0, 5), r"declares a zero dimension in shape \(0, 5\)"),
], ids=["ndim-70", "zero-dim"])
def test_a_corrupt_tensor_header_is_refused_by_name(shape, why, tmp_path, capsys):
    """A tensor header declaring more dimensions than any tensor has, or a
    zero dimension, needs a 0-byte payload, which any file holds. predict
    refuses it as a broken checkpoint, naming the tensor, and writes
    nothing. Unbounded, 70 dimensions reach numpy's reshape, whose ValueError
    is no LmnetError and ends in a traceback."""
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(init_parameters(build_model(Variant.PLAIN, TINY_GRAPH)), ckpt)
    ckpt.write_bytes(declare_first_tensor(ckpt.read_bytes(), shape))
    imgio.write_rgb(tmp_path / "x.png", np.zeros((3, 8, 8), np.float32))
    code, _, err = run_cli(capsys, "predict", "--ckpt", str(ckpt),
                           "--image", str(tmp_path / "x.png"), "--out", str(tmp_path / "p"))
    assert code == 2, err
    assert re.fullmatch(f"error: {re.escape(str(ckpt))}: tensor l1.b {why}\n", err), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "x.png"]


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_checkpoint_holding_nan_writes_no_output(command, tiny_dataset, tmp_path, capsys):
    graph = init_parameters(build_model(Variant.PLAIN, TINY_GRAPH))
    graph.params["l9.b"] = np.full_like(graph.params["l9.b"], np.nan)
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(graph, ckpt)
    rest = {"eval": ["--index", str(tiny_dataset.root / "index.tsv")],
            "predict": ["--image", str(tiny_dataset.image_path(tiny_dataset.records[0])),
                        "--out", str(tmp_path / "p")]}
    code, out, err = run_cli(capsys, command, "--ckpt", str(ckpt), *rest[command])
    assert code == 2
    assert err == f"error: {ckpt}: tensor l9.b holds a non-finite value\n"
    assert "loss=" not in out and "Method" not in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nan.ckpt"]


def test_eval_scores_a_split_of_another_size(trained_run, tmp_path, capsys):
    # the checkpoint was trained on 16x16 tiles; the graph holds no input size
    run_dir, _ = trained_run
    other = write_synthetic_dataset(tmp_path / "big", {"val": 2}, 32, seed=1)
    code, out, err = run_cli(
        capsys, "eval", "--ckpt", str(run_dir / "model.ckpt"),
        "--index", str(other.root / "index.tsv"), "--split", "val",
    )
    assert code == 0, err
    assert "samples=2" in out


def test_eval_size_mismatch_is_explained(trained_run, tmp_path, capsys):
    # the split's tiles share the first one's size; the checkpoint's is not asked
    run_dir, _ = trained_run
    index = mixed_index(tmp_path / "mix", [("a", {"val": 2}, 16), ("b", {"val": 1}, 24)])
    code, out, err = run_cli(capsys, "eval", "--ckpt", str(run_dir / "model.ckpt"),
                             "--index", str(index), "--split", "val")
    assert code == 1
    root = tmp_path / "mix"
    assert err == (f"error: {root / 'b/val/images/synth_00000.png'} is 24x24, but the "
                   f"first image of split 'val', {root / 'a/val/images/synth_00000.png'}, "
                   "is 16x16; re-prepare the data to one tile size\n")
    assert "Method" not in out


def off_grid_index(root) -> Path:
    """A hand-written index of 20x20 tiles, off the pooling grid, which the
    synthetic writer refuses to make."""
    for split in ("train", "val", "test"):
        for i in range(4):
            image, mask = synth_pair(20, derive_rng(0, i))
            for sub, write, pixels in (("images", imgio.write_rgb, image),
                                       ("masks", imgio.write_gray, mask)):
                path = root / split / sub / f"t{i}.png"
                path.parent.mkdir(parents=True, exist_ok=True)
                write(path, pixels)
    save_index(build_index(root), root / "index.tsv")
    return root / "index.tsv"


def test_train_refuses_tiles_off_the_pooling_grid_with_exit_1(tmp_path, capsys):
    index = off_grid_index(tmp_path / "odd")
    code, out, err = run_cli(
        capsys, "train", "--index", str(index), "--out", str(tmp_path / "run"),
        "--variant", "plain", "--channels", TINY_CHANNELS, "--batch", "4",
        "--micro-batch", "2", "--epochs", "1",
    )
    assert code == 1
    assert err == (f"error: {tmp_path / 'odd/train/images/t0.png'}: tile size 20x20 must be "
                   "at least 8 and divisible by 8 (three 2x poolings)\n")
    assert "step " not in out
    assert not (tmp_path / "run").exists()


def test_eval_refuses_tiles_off_the_pooling_grid_with_exit_1(trained_run, tmp_path, capsys):
    run_dir, _ = trained_run
    index = off_grid_index(tmp_path / "odd")
    code, out, err = run_cli(capsys, "eval", "--ckpt", str(run_dir / "model.ckpt"),
                             "--index", str(index))
    assert code == 1
    assert err == (f"error: {tmp_path / 'odd/test/images/t0.png'}: tile size 20x20 must be "
                   "at least 8 and divisible by 8 (three 2x poolings)\n")
    assert "Method" not in out


def test_train_takes_val_tiles_of_another_size(tmp_path, capsys):
    # 16x16 train tiles, 24x24 val tiles: validation is an eval forward, which
    # takes any size on the pooling grid
    index = mixed_index(tmp_path / "mix", [("a", {"train": 4}, 16), ("b", {"val": 2}, 24)])
    code, out, err = run_cli(
        capsys, "train", "--index", str(index), "--out", str(tmp_path / "run"),
        "--variant", "plain", "--channels", TINY_CHANNELS, "--batch", "4",
        "--micro-batch", "2", "--epochs", "2", "--quiet",
    )
    assert code == 0, err
    rows = (tmp_path / "run" / "history_val.csv").read_text().splitlines()
    assert len(rows) == 1 + 2


def test_train_names_the_first_image_when_train_tiles_differ_in_size(tmp_path, capsys):
    # the first train tile sets the split's size
    root = tmp_path / "mix"
    index = mixed_index(root, [("a", {"train": 2}, 16), ("b", {"train": 2}, 24)])
    code, _, err = run_cli(
        capsys, "train", "--index", str(index), "--out", str(tmp_path / "run"),
        "--variant", "plain", "--channels", TINY_CHANNELS, "--epochs", "1",
    )
    assert code == 1
    assert err == (f"error: {root / 'b/train/images/synth_00000.png'} is 24x24, but the "
                   f"first image of split 'train', {root / 'a/train/images/synth_00000.png'}, "
                   "is 16x16; re-prepare the data to one tile size\n")
    assert not (tmp_path / "run").exists()


# -- prediction -------------------------------------------------------------

def test_predict_is_reproducible(trained_run, tiny_dataset, tmp_path, capsys):
    run_dir, _ = trained_run
    image = tiny_dataset.image_path(tiny_dataset.records[0])
    outputs = []
    for name in ("one", "two"):
        prefix = tmp_path / name
        code, out, _ = run_cli(
            capsys, "predict", "--ckpt", str(run_dir / "model.ckpt"),
            "--image", str(image), "--out", str(prefix),
        )
        assert code == 0
        assert f"{prefix}_prob.png" in out
        outputs.append((
            (tmp_path / f"{name}_prob.png").read_bytes(),
            (tmp_path / f"{name}_mask.png").read_bytes(),
        ))
    assert outputs[0] == outputs[1]
    mask = imgio.read_gray(tmp_path / "one_mask.png")
    assert set(np.unique(mask)) <= {0.0, 1.0}


def test_predict_crops_to_the_pooling_grid(trained_run, tmp_path, capsys):
    run_dir, _ = trained_run
    image = tmp_path / "odd.png"
    imgio.write_rgb(image, np.random.default_rng(0).random((3, 20, 21)).astype(np.float32))
    code, out, _ = run_cli(
        capsys, "predict", "--ckpt", str(run_dir / "model.ckpt"),
        "--image", str(image), "--out", str(tmp_path / "o"),
    )
    assert code == 0
    assert "center-cropped to 16x16" in out
    assert imgio.read_gray(tmp_path / "o_prob.png").shape == (16, 16)


@pytest.mark.parametrize("shape", [(3, 24, 32), (3, 27, 35)])
def test_predict_forwards_the_decoded_scene_itself(trained_run, tmp_path, capsys, monkeypatch,
                                                   shape):
    # the forward reads the 8-bit scene read_rgb decoded, or its center
    # crop (a strided view), without a copy, on the graph load_any returned
    # for 16x16 tiles, not a rebuilt one; the maps, of the cropped size, are
    # byte for byte those of a forward of a contiguous copy of the float32
    # scene read_rgb decodes by default
    run_dir, _ = trained_run
    ckpt, image = run_dir / "model.ckpt", tmp_path / "scene.png"
    imgio.write_rgb(image, np.random.default_rng(3).random(shape).astype(np.float32))
    decoded, loaded, batches = [], [], []
    read_rgb, forward = imgio.read_rgb, ModelGraph.forward
    monkeypatch.setattr(imgio, "read_rgb",
                        lambda *args: decoded.append(read_rgb(*args)) or decoded[-1])
    monkeypatch.setattr(cli, "load_any", lambda path: loaded.append(load_any(path)) or loaded[-1])
    monkeypatch.setattr(ModelGraph, "forward", lambda graph, batch, mode:
                        batches.append((graph, batch)) or forward(graph, batch, mode))
    code, _, err = run_cli(capsys, "predict", "--ckpt", str(ckpt), "--image", str(image),
                           "--out", str(tmp_path / "cli"))
    assert code == 0, err
    (graph, batch), = batches
    assert graph is loaded[0]
    assert decoded[0].dtype == np.uint8 and np.shares_memory(batch, decoded[0])
    top, left = (shape[1] - 24) // 2, (shape[2] - 32) // 2
    scene = read_rgb(image)
    copy = scene[:, top:top + 24, left:left + 32][None].astype(np.float32)  # a copy
    prob = forward(load_any(ckpt), copy, "eval")[0][0, 0]
    imgio.write_gray(tmp_path / "ref_prob.png", prob)
    imgio.write_gray(tmp_path / "ref_mask.png", (prob >= DEFAULT_THRESHOLD).astype(np.float32))
    for kind in ("prob", "mask"):
        assert imgio.read_gray(tmp_path / f"cli_{kind}.png").shape == (24, 32)
        assert (tmp_path / f"cli_{kind}.png").read_bytes() == \
            (tmp_path / f"ref_{kind}.png").read_bytes()


def test_predict_rejects_microscopic_images(trained_run, tmp_path, capsys):
    run_dir, _ = trained_run
    image = tmp_path / "dot.png"
    imgio.write_rgb(image, np.zeros((3, 4, 4), np.float32))
    code, _, err = run_cli(
        capsys, "predict", "--ckpt", str(run_dir / "model.ckpt"),
        "--image", str(image), "--out", str(tmp_path / "d"),
    )
    assert code == 1
    assert "too small" in err
    assert "its crop 0x0 must be at least 8" in err


# -- preparation ------------------------------------------------------------

def _raw_scene(tmp_path):
    raw = tmp_path / "raw"
    (raw / "train" / "images").mkdir(parents=True)
    (raw / "train" / "masks").mkdir(parents=True)
    rng = np.random.default_rng(1)
    imgio.write_rgb(raw / "train/images/s.png",
                    rng.random((3, 16, 16)).astype(np.float32))
    mask = np.zeros((16, 16), dtype=np.float32)
    mask[:4, :4] = 1.0  # tile r0c0 fraction 0.25; others empty
    imgio.write_gray(raw / "train/masks/s.png", mask)
    return raw


def test_prepare_reports_counts_and_writes_index(tmp_path, capsys):
    raw = _raw_scene(tmp_path)
    out = tmp_path / "prepared"
    code, text, _ = run_cli(
        capsys, "prepare", "--input-dir", str(raw), "--output-dir", str(out),
        "--tile-size", "8", "--target-size", "8",
    )
    assert code == 0
    assert "train: kept 1, rejected 3" in text
    assert "index written to" in text
    assert (out / "index.tsv").is_file()
    assert (out / "rejects.tsv").is_file()


def test_prepare_refuses_to_clobber_without_overwrite(tmp_path, capsys):
    raw = _raw_scene(tmp_path)
    out = tmp_path / "prepared"
    args = ("prepare", "--input-dir", str(raw), "--output-dir", str(out),
            "--tile-size", "8", "--target-size", "8")
    assert run_cli(capsys, *args)[0] == 0
    code, _, err = run_cli(capsys, *args)
    assert code == 1 and "overwrite" in err
    assert run_cli(capsys, *args, "--overwrite")[0] == 0


def test_prepare_checks_every_scene_before_removing_or_writing(tmp_path, capsys):
    raw = tmp_path / "raw"
    rng = np.random.default_rng(2)
    for split in ("train", "val"):
        (raw / split / "images").mkdir(parents=True)
        (raw / split / "masks").mkdir(parents=True)

    def scene(split, name, side):
        imgio.write_rgb(raw / f"{split}/images/{name}.png",
                        rng.random((3, side, side)).astype(np.float32))
        imgio.write_gray(raw / f"{split}/masks/{name}.png",
                         (rng.random((side, side)) < 0.5).astype(np.float32))

    scene("train", "a", 64)
    scene("val", "b", 64)
    out = tmp_path / "prepared"
    args = ("prepare", "--input-dir", str(raw), "--output-dir", str(out),
            "--tile-size", "32", "--target-size", "32", "--min-fg", "0", "--max-fg", "1")
    assert run_cli(capsys, *args)[0] == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert len(before) == 2 * 8 + 2  # 8 tile pairs, index.tsv and rejects.tsv
    scene("train", "c", 60)
    code, _, err = run_cli(capsys, *args, "--overwrite")
    assert code == 1
    assert "train/images/c.png: height 60 is not divisible by tile size 32" in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    fresh = tmp_path / "fresh"
    assert run_cli(capsys, *args[:3], "--output-dir", str(fresh), *args[5:])[0] == 1
    assert not fresh.exists()


def test_prepare_refuses_a_tile_below_the_target_before_removing_anything(tmp_path, capsys):
    raw = _raw_scene(tmp_path)
    out = tmp_path / "prepared"
    args = ("prepare", "--input-dir", str(raw), "--output-dir", str(out), "--tile-size", "8")
    assert run_cli(capsys, *args, "--target-size", "8")[0] == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert out / "index.tsv" in before and out / "train/images/s_r0c0.png" in before
    code, _, err = run_cli(capsys, *args, "--target-size", "16", "--overwrite")
    assert code == 1
    assert "tile size 8 is below target size 16x16" in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_prepare_missing_input_exits_1(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "prepare", "--input-dir", str(tmp_path / "none"),
        "--output-dir", str(tmp_path / "out"),
    )
    assert code == 1
    assert "does not exist" in err


# -- gradcheck --------------------------------------------------------------

def test_gradcheck_passes_for_the_plain_variant(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--variant", "plain")
    assert code == 0
    assert "worst" in out
    assert "FAIL" not in out
    assert out.count("pass") >= 10  # one line per parameter tensor


# -- config files and environment -------------------------------------------

def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# comment\nvariant=plain\nchannels={TINY_CHANNELS}\n")
    code, out, _ = run_cli(capsys, "params", "--config", str(cfg))
    assert code == 0
    assert "variant=plain" in out
    assert "channels=2,2,3,3" in out

    code, out, _ = run_cli(capsys, "params", "--config", str(cfg),
                           "--variant", "residual")
    assert code == 0
    assert "variant=residual" in out


def test_config_file_stray_keys_exit_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant=plain\nlearning_rate=0.1\n")
    code, _, err = run_cli(capsys, "params", "--config", str(cfg))
    assert code == 1
    assert "learning_rate" in err
    code, _, err = run_cli(capsys, "params", "--config", str(tmp_path / "no.cfg"))
    assert code == 1


def test_config_file_with_a_byte_order_mark_reads_its_first_key(tmp_path, capsys):
    # editors on Windows often save UTF-8 with a leading byte-order mark
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfvariant=plain\n")
    code, out, err = run_cli(capsys, "params", "--config", str(cfg))
    assert (code, err) == (0, "")
    assert "variant=plain" in out


def test_usage_errors_exit_1_not_2(capsys):
    code, _, err = run_cli(capsys, "params", "--variant", "plain", "--bogus")
    assert code == 1
    assert "usage:" in err and "--bogus" in err
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage:" in err
    proc = console_script("params", "--bogus")
    assert proc.returncode == 1
    assert "usage:" in proc.stderr and "--bogus" in proc.stderr


@pytest.mark.parametrize("argv,needle,echoed", [
    (["params", "--variant", "plain", "--bogus"], "--bogus", False),
    (["train", "--index", "i", "--out", "o", "--variant", "plain",
      "--epochs", "three"], "--epochs", False),
    (["params", "--variant", "plain", "--channels", "2,x"], "--channels", False),
    (["params", "--config", "{bad_cfg}"], "--channels", False),
    (["prepare", "--input-dir", "raw"], "--output-dir is required", False),
    ([], "command", False),
    # found by the handler, after the resolved config is echoed
    (["predict", "--ckpt", "{tmp}/m.ckpt", "--image", "{tmp}/x.png",
      "--out", "{tmp}/nodir/x"], "nodir", True),
    (["params", "--config", "{tmp}/lines.cfg"], "{tmp}/lines.cfg: line 3", False),
    (["eval", "--ckpt", "{tmp}/m.ckpt", "--index", "i", "--threshold", "1.5"],
     "--threshold", False),
    (["predict", "--ckpt", "{tmp}/m.ckpt", "--image", "{tmp}/x.png",
      "--out", "{tmp}/p", "--threshold", "-1"], "--threshold", False),
    # train-mode batch norm needs every batch to hold at least 2 samples
    (["train", "--index", "{tmp}/three/index.tsv", "--out", "{tmp}/run",
      "--variant", "plain", "--channels", "2,2,3,3", "--batch", "2",
      "--micro-batch", "2"], "train split of 3 tiles in batches of 2", True),
    (["train", "--index", "{tmp}/three/index.tsv", "--out", "{tmp}/run",
      "--variant", "plain", "--micro-batch", "1"], "micro_batch must be in [2,", True),
    (["train", "--index", "{tmp}/three/index.tsv", "--out", "{tmp}/run",
      "--variant", "plain", "--batch", "1"], "batch_size must be >= 2", True),
    (["eval", "--ckpt", "{tmp}/m.ckpt", "--index", "{tmp}/binary.tsv"],
     "{tmp}/binary.tsv: index is not UTF-8", True),
    (["eval", "--ckpt", "{tmp}/m.ckpt", "--index", "{tmp}/three/index.tsv",
      "--split", "train", "--micro-batch", "0"], "micro_batch must be >= 1", True),
    (["eval", "--ckpt", "{tmp}/m.ckpt", "--index", "{tmp}/three/index.tsv",
      "--split", "foo"], "unknown split 'foo'; expected one of train, val, test", True),
    # Adam settings that would break the first update
    (["train", "--index", "{tmp}/three/index.tsv", "--out", "{tmp}/run",
      "--variant", "plain", "--adam-eps", "0"], "adam_eps must be positive and finite", True),
    (["train", "--index", "{tmp}/three/index.tsv", "--out", "{tmp}/run",
      "--variant", "plain", "--adam-eps", "-1"], "adam_eps must be positive and finite", True),
    # the loss and the pyramid rates are fixed by the plan, not settings
    (["train", "--index", "{tmp}/three/index.tsv", "--out", "{tmp}/run",
      "--variant", "proposed", "--loss", "mse"], "unrecognized arguments: --loss mse", False),
    (["train", "--index", "{tmp}/three/index.tsv", "--out", "{tmp}/run",
      "--variant", "proposed", "--dilations", "1,2,3"],
     "unrecognized arguments: --dilations 1,2,3", False),
    (["params", "--variant", "proposed", "--dilations", "1,2,3"],
     "unrecognized arguments: --dilations 1,2,3", False),
    (["train", "--config", "{tmp}/graph.cfg", "--index", "{tmp}/three/index.tsv",
      "--out", "{tmp}/run"], "config file keys not valid here: dilations, loss", False),
    # so are Adam's decay rates, the validation threshold, the log cadence and
    # gradcheck's step: valid values of the removed flags are refused
    (["train", "--index", "{tmp}/three/index.tsv", "--out", "{tmp}/run",
      "--variant", "plain", "--beta1", "0.8"], "unrecognized arguments: --beta1 0.8", False),
    (["train", "--index", "{tmp}/three/index.tsv", "--out", "{tmp}/run",
      "--variant", "plain", "--beta2", "0.99"], "unrecognized arguments: --beta2 0.99", False),
    (["train", "--index", "{tmp}/three/index.tsv", "--out", "{tmp}/run",
      "--variant", "plain", "--threshold", "0.3"],
     "unrecognized arguments: --threshold 0.3", False),
    (["train", "--index", "{tmp}/three/index.tsv", "--out", "{tmp}/run",
      "--variant", "plain", "--log-every", "2"], "unrecognized arguments: --log-every 2", False),
    (["gradcheck", "--variant", "plain", "--eps", "1e-6"],
     "unrecognized arguments: --eps 1e-6", False),
    (["train", "--config", "{tmp}/train.cfg", "--index", "{tmp}/three/index.tsv",
      "--out", "{tmp}/run"], "config file keys not valid here: beta1, log_every, threshold",
     False),
    (["gradcheck", "--config", "{tmp}/gradcheck.cfg"], "config file keys not valid here: eps",
     False),
], ids=["unknown-flag", "bad-int", "bad-ints", "bad-config-value",
        "missing-required", "missing-command", "unwritable-out",
        "malformed-config-line", "eval-threshold", "predict-threshold",
        "last-batch-of-one", "micro-batch-of-one", "batch-of-one",
        "non-utf8-index", "eval-micro-batch-0", "eval-unknown-split",
        "zero-adam-eps", "negative-adam-eps",
        "loss-flag", "dilations-flag", "params-dilations-flag", "graph-config-keys",
        "beta1-flag", "beta2-flag", "train-threshold-flag", "log-every-flag",
        "gradcheck-eps-flag", "train-config-keys", "gradcheck-config-keys"])
def test_bad_input_is_one_error_line(argv, needle, echoed, tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("variant=plain\nchannels=2,x\n")
    (tmp_path / "lines.cfg").write_text("# census\nvariant=plain\nchannels 2,2,3,3\n")
    (tmp_path / "graph.cfg").write_text("variant=proposed\nloss=bce\ndilations=2,3,5\n")
    (tmp_path / "train.cfg").write_text("variant=plain\nbeta1=0.9\nlog_every=1\nthreshold=0.5\n")
    (tmp_path / "gradcheck.cfg").write_text("variant=plain\neps=1e-5\n")
    (tmp_path / "binary.tsv").write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\ttest\n")
    save_checkpoint(init_parameters(build_model(Variant.PLAIN, TINY_GRAPH)),
                    tmp_path / "m.ckpt")
    imgio.write_rgb(tmp_path / "x.png", np.zeros((3, 8, 8), np.float32))
    write_synthetic_dataset(tmp_path / "three", {"train": 3, "val": 1}, 16, seed=0)
    argv = [a.format(bad_cfg=bad_cfg, tmp=tmp_path) for a in argv]
    needle = needle.format(tmp=tmp_path)
    code, out, err = run_cli(capsys, *argv)
    proc = console_script(*argv)
    for code, err in ((code, err), (proc.returncode, proc.stderr)):
        assert code == 1
        assert needle in err
        assert err.count("error:") == 1
        assert "Traceback" not in err
    assert ("resolved config" in out) == echoed
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("missing", ["adam_t", "train_seed"])
def test_resume_from_incomplete_checkpoint_metadata_exits_2(
        missing, tiny_dataset, tmp_path, capsys):
    graph = init_parameters(build_model(Variant.PROPOSED, TINY_GRAPH))
    last = tmp_path / "run" / "last.ckpt"
    last.parent.mkdir()
    if missing == "adam_t":  # no optimizer state in the metadata at all
        last.write_bytes(_serialize(TRAIN_MAGIC, graph, "epochs_done=1\n", None))
    else:
        save_training_checkpoint(graph, adam_init(graph.params), {"epochs_done": 1}, last)
    code, _, err = run_cli(
        capsys, "train", "--index", str(tiny_dataset.root / "index.tsv"),
        "--out", str(last.parent), "--variant", "proposed",
        "--channels", TINY_CHANNELS, "--resume", "--quiet",
    )
    assert code == 2
    assert err.count("error:") == 1
    assert str(last) in err and "is missing" in err and missing in err
    assert [p.name for p in last.parent.iterdir()] == ["last.ckpt"]  # no CSVs


@pytest.mark.parametrize("key", ["epochs_done", "best_val_loss"])
def test_resume_from_unparseable_checkpoint_metadata_exits_2(
        key, trained_run, tiny_dataset, capsys):
    run, _ = trained_run
    last = run / "last.ckpt"
    graph, adam, meta = load_training_checkpoint(last)
    meta[key] = "x"
    save_training_checkpoint(graph, adam, meta, last)
    for name in ("history_train.csv", "history_val.csv"):
        (run / name).unlink()
    code, _, err = run_cli(
        capsys, "train", "--index", str(tiny_dataset.root / "index.tsv"),
        "--out", str(run), "--variant", "proposed", "--epochs", "2",
        "--batch", "4", "--micro-batch", "2", "--channels", TINY_CHANNELS,
        "--resume", "--quiet",
    )
    assert code == 2
    assert err.count("error:") == 1 and "Traceback" not in err
    assert str(last) in err and f"unparseable {key}=x" in err
    assert not list(run.glob("*.csv"))


def echoed_config(out):
    """The resolved-config block a command prints, exactly as printed."""
    lines = out.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("# resolved config"))
    end = start + 1
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    return "\n".join(lines[start:end]) + "\n"


def test_echoed_config_is_a_valid_config_file(tiny_dataset, tmp_path, capsys):
    index = str(tiny_dataset.root / "index.tsv")
    run = tmp_path / "run"
    image = str(tiny_dataset.image_path(tiny_dataset.records[0]))
    commands = [
        ["prepare", "--input-dir", str(_raw_scene(tmp_path)),
         "--output-dir", str(tmp_path / "prepared"), "--tile-size", "8",
         "--target-size", "8,8", "--overwrite"],
        ["train", "--index", index, "--out", str(run), "--variant", "proposed",
         "--epochs", "1", "--batch", "4", "--micro-batch", "2",
         "--channels", TINY_CHANNELS, "--adam-eps", "1e-2", "--quiet"],
        ["eval", "--ckpt", str(run / "model.ckpt"), "--index", index,
         "--split", "val"],
        ["predict", "--ckpt", str(run / "model.ckpt"), "--image", image,
         "--out", str(tmp_path / "pred"), "--threshold", "0.25"],
        ["params", "--variant", "plain", "--channels", TINY_CHANNELS],
        ["gradcheck", "--variant", "plain"],
    ]
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        block = echoed_config(out)
        assert "None" not in block
        cfg = tmp_path / f"{argv[0]}.cfg"
        cfg.write_text(block)
        assert _resolve([argv[0], "--config", str(cfg)]) == _resolve(argv)


def readme_commands():
    """Every `lmnet ...` command line in README.md's code blocks."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = text.split("```")[1::2]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(l)[1:] for l in lines if l.startswith("lmnet ")]


def test_readme_commands_resolve():
    commands = readme_commands()
    assert {argv[0] for argv in commands} >= {"prepare", "train", "eval", "predict"}
    for argv in commands:
        command, resolved = _resolve(argv)
        assert command == argv[0]


# -- installed entry point --------------------------------------------------

def child_env():
    """Environment for a child python that finds `lmnet` in this checkout.

    pytest's `pythonpath` setting reaches only this process, so the source
    directory is put first on the child's PYTHONPATH.
    """
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def console_script(*args):
    """Run the `lmnet` console script that pyproject.toml declares.

    An installed launcher on PATH is run as is. Without one, the declared
    `module:function` target is run the way pip's generated launcher runs it.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["lmnet"]
    launcher = shutil.which("lmnet")
    if launcher:
        argv = [launcher, *args]
    else:
        module, func = target.split(":")
        argv = [sys.executable, "-c",
                f"import sys; from {module} import {func}; sys.exit({func}())",
                *args]
    return subprocess.run(
        argv, capture_output=True, text=True, timeout=120, env=child_env()
    )


def test_console_script_is_wired():
    proc = console_script("--help")
    assert proc.returncode == 0
    for sub in ("prepare", "train", "eval", "predict", "params", "gradcheck"):
        assert sub in proc.stdout


def test_console_script_runs_a_real_command():
    proc = console_script("params", "--variant", "dilation")
    assert proc.returncode == 0
    assert "398030" in proc.stdout


def test_module_failure_propagates_exit_code():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from lmnet.cli import main; sys.exit(main(sys.argv[1:]))",
         "gradcheck", "--variant", "nope"],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 1
    assert "unknown variant 'nope'" in proc.stderr
    assert "Traceback" not in proc.stderr
