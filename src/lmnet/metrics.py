"""Binary segmentation metrics: pooled confusion counts and derived scores.

Counts are micro-averaged: accumulate tp/fp/tn/fn over every pixel of a
split, then divide once. That makes the result independent of how the split
was batched. A 0/0 ratio is reported as 0.0 and the metric's name is added
to the report's `degenerate` tuple instead of raising or propagating NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kvtext
from .errors import ShapeError

DEFAULT_THRESHOLD = 0.5


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative count {name}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            tp=self.tp + other.tp, fp=self.fp + other.fp,
            tn=self.tn + other.tn, fn=self.fn + other.fn,
        )


def confusion(pred, target, threshold: float = DEFAULT_THRESHOLD) -> ConfusionCounts:
    """Count pixel outcomes over a batch.

    A pixel is predicted positive iff pred >= threshold (ties go positive).
    `target` must be binary (exactly 0 or 1).
    """
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(
            f"prediction shape {pred.shape} does not match target shape {target.shape}"
        )
    if not ((target == 0) | (target == 1)).all():  # np.unique would import numpy.ma
        raise ValueError(f"target mask is not binary; found values {np.unique(target)[:8]}")
    pos = pred >= threshold
    tru = target >= 0.5
    tp = int(np.count_nonzero(pos & tru))
    fp = int(np.count_nonzero(pos & ~tru))
    fn = int(np.count_nonzero(~pos & tru))
    tn = int(np.count_nonzero(~pos & ~tru))
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


@dataclass
class MetricsReport:
    split: str
    samples: int
    loss: float
    accuracy: float
    iou: float
    precision: float
    recall: float
    degenerate: tuple = field(default_factory=tuple)


def _ratio(num: int, den: int, name: str, degenerate: list) -> float:
    if den == 0:
        degenerate.append(name)
        return 0.0
    return num / den


def report(counts: ConfusionCounts, mean_loss: float, split: str,
           samples: int = 0) -> MetricsReport:
    """Derive the five reported scores from pooled counts."""
    deg: list = []
    accuracy = _ratio(counts.tp + counts.tn, counts.total, "accuracy", deg)
    precision = _ratio(counts.tp, counts.tp + counts.fp, "precision", deg)
    recall = _ratio(counts.tp, counts.tp + counts.fn, "recall", deg)
    iou = _ratio(counts.tp, counts.tp + counts.fp + counts.fn, "iou", deg)
    return MetricsReport(
        split=split, samples=samples, loss=float(mean_loss),
        accuracy=accuracy, iou=iou, precision=precision, recall=recall,
        degenerate=tuple(deg),
    )


_COLUMNS = ("Loss", "Accuracy", "IoU", "Precision", "Recall")


def _row_values(rep: MetricsReport):
    return (rep.loss, rep.accuracy, rep.iou, rep.precision, rep.recall)


def render_table(rows) -> str:
    """Aligned plain-text table; one row per (method label, report) pair.

    Columns: Method | Train/Test | Loss | Accuracy | IoU | Precision | Recall,
    scores printed to four decimals. Consecutive rows with the same method
    label leave the label blank after the first, matching the usual grouped
    presentation.
    """
    header = ["Method", "Train/Test", *_COLUMNS]
    printed: list[list[str]] = []
    last_method = None
    for method, rep in rows:
        label = "" if method == last_method else method
        last_method = method
        printed.append([label, rep.split] + [f"{v:.4f}" for v in _row_values(rep)])
    widths = [max(len(header[i]), *(len(r[i]) for r in printed)) if printed
              else len(header[i]) for i in range(len(header))]

    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    rule = "-" * len(fmt(header))
    lines = [fmt(header), rule]
    lines.extend(fmt(r) for r in printed)
    return "\n".join(lines) + "\n"


def render_kv(rep: MetricsReport) -> str:
    """Machine-readable block: one metric per line, `key=value`, keys sorted.
    `degenerate` is left out when empty."""
    return kvtext.write(dict(
        split=rep.split, samples=rep.samples, loss=rep.loss, accuracy=rep.accuracy,
        iou=rep.iou, precision=rep.precision, recall=rep.recall,
        degenerate=rep.degenerate or None))
