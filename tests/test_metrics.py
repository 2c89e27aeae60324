"""Confusion counting, derived scores, and report rendering."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lmnet.errors import ShapeError
from lmnet.metrics import (
    ConfusionCounts,
    confusion,
    render_kv,
    render_table,
    report,
)

from oracles import confusion_naive


def test_all_confident_positives():
    pred = np.full((1, 1, 2, 2), 0.9)
    target = np.ones((1, 1, 2, 2))
    c = confusion(pred, target)
    assert (c.tp, c.fp, c.tn, c.fn) == (4, 0, 0, 0)


def test_threshold_ties_count_as_positive():
    c = confusion(np.array([0.5]), np.array([1.0]))
    assert c.tp == 1
    c = confusion(np.array([0.5]), np.array([0.0]))
    assert c.fp == 1
    c = confusion(np.array([0.49999]), np.array([1.0]))
    assert c.fn == 1


def test_hand_worked_scores():
    # tp=2 fp=1 fn=1 tn=0
    pred = np.array([0.9, 0.8, 0.7, 0.1])
    target = np.array([1.0, 1.0, 0.0, 1.0])
    rep = report(confusion(pred, target), mean_loss=0.25, split="Test", samples=4)
    assert rep.accuracy == pytest.approx(0.5)
    assert rep.iou == pytest.approx(2 / 4)
    assert rep.precision == pytest.approx(2 / 3)
    assert rep.recall == pytest.approx(2 / 3)
    assert rep.loss == 0.25
    assert rep.degenerate == ()


def test_all_negative_split_is_degenerate_not_nan():
    pred = np.full(8, 0.1)
    target = np.zeros(8)
    rep = report(confusion(pred, target), 0.0, "val")
    assert rep.accuracy == 1.0
    assert rep.iou == 0.0 and rep.precision == 0.0 and rep.recall == 0.0
    assert set(rep.degenerate) == {"iou", "precision", "recall"}
    assert "degenerate=" in render_kv(rep)


def test_counting_matches_naive_oracle_on_100_random_batches():
    rng = np.random.default_rng(12)
    for case in range(100):
        shape = (int(rng.integers(1, 3)), 1,
                 int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        pred = rng.random(shape)
        target = (rng.random(shape) > 0.5).astype(np.float64)
        thr = float(rng.choice([0.3, 0.5, 0.7]))
        c = confusion(pred, target, thr)
        assert (c.tp, c.fp, c.tn, c.fn) == confusion_naive(pred, target, thr), f"case {case}"


def test_raising_threshold_never_adds_positives():
    rng = np.random.default_rng(13)
    pred = rng.random((2, 1, 16, 16))
    target = (rng.random(pred.shape) > 0.6).astype(np.float64)
    positives = [
        confusion(pred, target, t).tp + confusion(pred, target, t).fp
        for t in np.linspace(0.1, 0.9, 9)
    ]
    assert positives == sorted(positives, reverse=True)


def test_iou_is_bounded_by_precision_and_recall():
    rng = np.random.default_rng(14)
    for _ in range(20):
        pred = rng.random((1, 1, 10, 10))
        target = (rng.random(pred.shape) > 0.5).astype(np.float64)
        rep = report(confusion(pred, target), 0.0, "x")
        assert rep.iou <= rep.precision + 1e-12
        assert rep.iou <= rep.recall + 1e-12


def test_counts_addition_pools():
    a = ConfusionCounts(tp=1, fp=2, tn=3, fn=4)
    b = ConfusionCounts(tp=10, fp=20, tn=30, fn=40)
    c = a + b
    assert (c.tp, c.fp, c.tn, c.fn) == (11, 22, 33, 44)
    assert c.total == 110


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1)


def test_validation_errors():
    with pytest.raises(ShapeError):
        confusion(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="binary"):
        confusion(np.zeros(4), np.array([0.0, 0.5, 1.0, 1.0]))


def test_confusion_of_a_binary_target_loads_no_numpy_ma():
    # numpy's first np.unique of a process imports numpy.ma, about 1.1 MB that
    # an evaluate's first batch would carry in its memory peak
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import sys; import numpy as np; from lmnet.metrics import confusion; "
              "confusion(np.full((1, 1, 4, 4), 0.7, np.float32), np.eye(4)[None, None]); "
              "print('numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True, timeout=120)
    assert run.stdout.strip() == "False"


def _rep(split, loss, acc, iou, prec, rec):
    c = ConfusionCounts(tp=1, tn=1)
    r = report(c, loss, split, samples=2)
    r.accuracy, r.iou, r.precision, r.recall = acc, iou, prec, rec
    return r


def test_table_layout():
    rows = [
        ("Proposed", _rep("Train", 0.0642, 0.9921, 0.8413, 0.9034, 0.9241)),
        ("Proposed", _rep("Test", 0.1468, 0.3824, 0.1324, 0.1721, 0.0803)),
    ]
    text = render_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["Method", "Train/Test", "Loss", "Accuracy",
                                "IoU", "Precision", "Recall"]
    assert set(lines[1]) == {"-"}
    assert lines[2].startswith("Proposed")
    assert lines[3].startswith("  ")  # repeated method label is blanked
    assert "0.1468" in lines[3] and "0.0803" in lines[3]
    assert "Test" in lines[3]
    assert text.endswith("\n")
    # every printed line fits the rule width
    assert all(len(l) <= len(lines[1]) for l in lines)


def test_table_distinct_methods_both_labelled():
    rows = [
        ("Plain", _rep("Test", 0.5, 0.5, 0.5, 0.5, 0.5)),
        ("Residual", _rep("Test", 0.4, 0.6, 0.5, 0.5, 0.5)),
    ]
    lines = render_table(rows).splitlines()
    assert lines[2].startswith("Plain")
    assert lines[3].startswith("Residual")


def test_kv_block_round_trips_floats_exactly():
    rep = report(ConfusionCounts(tp=3, fp=1, tn=5, fn=1), 1 / 3, "val", samples=7)
    text = render_kv(rep)
    fields = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert fields["split"] == "val"
    assert int(fields["samples"]) == 7
    assert float(fields["loss"]) == 1 / 3  # repr round-trip
    assert float(fields["iou"]) == 3 / 5
