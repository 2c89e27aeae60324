"""Training loop: gradient accumulation, Adam, validation, checkpoints.

One optimizer step is taken per logical batch. The batch is processed in
micro-batches whose gradients are summed and divided by the true sample
count, so the update equals a single full-batch step except that batch-norm
statistics are computed per micro-batch (a stated deviation, bounded memory
being the point). A trailing micro-batch of exactly one sample is folded
into its predecessor, and a configuration that would leave a batch of one
sample is refused: batch statistics never come from a single image.

Everything random derives from the run seed through fixed namespaces:
shuffle order from (seed, 0, epoch), dropout from (seed, 1, epoch, batch,
micro). Resuming from the per-epoch checkpoint therefore reproduces the
original run bit for bit.

Outputs in the run directory:
  history_train.csv  one row per optimizer step: step, epoch, loss
  history_val.csv    one row per epoch: epoch, loss, accuracy, iou,
                     precision, recall
  last.ckpt          training checkpoint, written every epoch (resume point)
  best.ckpt          deployment checkpoint at the best validation loss
  model.ckpt         deployment checkpoint from the final epoch
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kvtext
from .checkpoint import (
    config_text,
    load_training_checkpoint,
    pop_meta,
    save_checkpoint,
    save_training_checkpoint,
)
from .data import DatasetIndex, batch_iter, check_split, load_index
from .errors import ConfigError, NonFiniteGradientError, TrainAbortedError
from .metrics import DEFAULT_THRESHOLD, ConfusionCounts, MetricsReport, confusion, report
from .model import GraphConfig, ModelGraph, Variant, build_model, init_parameters, loss_fn
from .optim import BETA1, BETA2, adam_init, adam_step
from .seeding import derive_rng

TRAIN_CSV = "history_train.csv"
VAL_CSV = "history_val.csv"
LAST_CKPT = "last.ckpt"
BEST_CKPT = "best.ckpt"
FINAL_CKPT = "model.ckpt"


@dataclass
class TrainConfig:
    variant: Variant
    graph: GraphConfig
    index_path: Path
    out_dir: Path
    epochs: int = 10
    batch_size: int = 200
    micro_batch: int = 10
    lr: float = 0.005
    adam_eps: float = 1e-8
    seed: int = 0
    resume: bool = False
    quiet: bool = False

    def violations(self) -> list:
        out = []
        if self.epochs < 1:
            out.append(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            out.append(f"batch_size must be >= 2, got {self.batch_size}")
        if not 2 <= self.micro_batch <= self.batch_size:
            out.append(
                f"micro_batch must be in [2, batch_size], got {self.micro_batch}"
            )
        if not (self.lr > 0 and math.isfinite(self.lr)):
            out.append(f"lr must be positive and finite, got {self.lr}")
        if not (self.adam_eps > 0 and math.isfinite(self.adam_eps)):
            out.append(f"adam_eps must be positive and finite, got {self.adam_eps}")
        if self.seed < 0:
            out.append(f"seed must be >= 0, got {self.seed}")
        return out


@dataclass
class TrainHistory:
    steps: list = field(default_factory=list)  # (step, epoch, loss)
    val: list = field(default_factory=list)    # (epoch, MetricsReport)


def _micro_slices(n: int, micro: int) -> list:
    """Slice bounds covering range(n); a trailing singleton joins its neighbor."""
    bounds = list(range(0, n, micro)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def _accumulate_batch(graph: ModelGraph, images, masks, lossf, cfg: TrainConfig,
                      epoch: int, batch_idx: int):
    """Forward/backward over micro-batches; returns (mean grads, mean loss)."""
    n = images.shape[0]
    acc = None
    loss_sum = 0.0
    for micro_idx, (lo, hi) in enumerate(_micro_slices(n, cfg.micro_batch)):
        rng = derive_rng(cfg.seed, 1, epoch, batch_idx, micro_idx)
        pred, cache = graph.forward(images[lo:hi], "train", rng=rng)
        loss, grad_pred = lossf(pred, masks[lo:hi])
        del pred  # backward lets each record go after its last reader
        grads = graph.backward(cache, grad_pred)
        k = hi - lo
        loss_sum += loss * k
        if acc is None:
            acc = {name: g * k for name, g in grads.items()}
        else:
            for name, g in grads.items():
                acc[name] += g * k
    mean_grads = {name: g / n for name, g in acc.items()}
    return mean_grads, loss_sum / n


def evaluate(graph: ModelGraph, index: DatasetIndex, split: str,
             threshold: float = DEFAULT_THRESHOLD, micro_batch: int = 10) -> MetricsReport:
    """Eval-mode forward over a whole split: mean loss + pooled confusion.

    The split may have any tile size on the pooling grid, the one the graph
    was trained at or another. No header is read: a tile off that grid, or
    of another size than the split's first, is refused as it is decoded,
    before its batch is forwarded.
    """
    if micro_batch < 1:
        raise ConfigError(f"micro_batch must be >= 1, got {micro_batch}")
    lossf = loss_fn("bce")
    counts = ConfusionCounts()
    loss_sum = 0.0
    n = 0
    for images, masks in batch_iter(index, split, micro_batch, shuffle=False):
        pred, _ = graph.forward(images, "eval")
        loss = lossf(pred, masks)[0]  # its gradient goes at once
        k = images.shape[0]
        loss_sum += loss * k
        n += k
        counts = counts + confusion(pred, masks, threshold)
        del images, masks, pred  # not held while the next batch is read
    return report(counts, loss_sum / n, split, samples=n)


def _resume_settings(cfg: TrainConfig) -> dict:
    """What a bit-exact resume depends on beyond the graph, by metadata key.
    lr is not among them, so a resume may change it."""
    return {
        "train_seed": cfg.seed,
        "batch_size": cfg.batch_size,
        "micro_batch": cfg.micro_batch,
        # optim's constants, still recorded: checkpoints keep their bytes, and a
        # last.ckpt an earlier build wrote at other betas is refused, not replayed
        "beta1": BETA1,
        "beta2": BETA2,
        "adam_eps": float(cfg.adam_eps),
    }


def _train_meta(cfg: TrainConfig, epochs_done: int, best: float) -> dict:
    return {**_resume_settings(cfg), "epochs_done": epochs_done, "best_val_loss": float(best)}


def _check_resume_settings(cfg: TrainConfig, meta: dict, path: Path) -> None:
    """Refuse to resume with settings that would break the bit-exact replay."""
    for key, requested in _resume_settings(cfg).items():
        recorded = pop_meta(meta, key, type(requested), path)
        if requested != recorded:
            remedy = "" if key in ("beta1", "beta2") else "change the flags or "  # no beta flag
            raise ConfigError(
                f"{path} was trained with {key}={kvtext.render(recorded)}, not "
                f"{kvtext.render(requested)}; {remedy}start a fresh run directory"
            )


def _open_csv(path: Path, header: str, keep_rows):
    """Open a history CSV for appending. With `keep_rows=None` the file starts
    afresh; otherwise rows past the first `keep_rows` (written after the
    resume point, by an epoch that did not finish) are cut off first."""
    if keep_rows is None or not path.is_file():
        fh = open(path, "w", encoding="utf-8", newline="")
        fh.write(header + "\n")
        fh.flush()
        return fh
    with open(path, "rb+") as fh:
        for _ in range(keep_rows + 1):  # the header, then the rows
            fh.readline()
        fh.truncate(fh.tell())
    return open(path, "a", encoding="utf-8", newline="")


def train(cfg: TrainConfig):
    """Run the full regime; returns (graph, TrainHistory)."""
    # each distinct problem once: a negative --seed fails both configs
    problems = dict.fromkeys(cfg.violations() + cfg.graph.violations())
    if problems:
        raise ConfigError("; ".join(problems))
    index = load_index(cfg.index_path)
    # an empty split, or one whose tiles are off the pooling grid or of two sizes, fails
    # before anything is written; validation is an eval forward, which takes any size,
    # so the two splits may differ
    check_split(index, "train")
    check_split(index, "val")
    n_train = len(index.split_records("train"))
    if n_train % cfg.batch_size == 1:
        raise ConfigError(
            f"a train split of {n_train} tiles in batches of {cfg.batch_size} leaves a last "
            "batch of one sample; train-mode batch norm needs 2 (change either number)")

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    last_path = out / LAST_CKPT

    resuming = cfg.resume and last_path.is_file()
    if resuming:
        graph, adam, meta = load_training_checkpoint(last_path)
        want = config_text(cfg.variant, cfg.graph)
        have = config_text(graph.variant, graph.config)
        if want != have:
            raise ConfigError(
                f"{last_path} was trained with a different graph configuration; "
                "change the flags or start a fresh run directory"
            )
        _check_resume_settings(cfg, meta, last_path)
        start_epoch = pop_meta(meta, "epochs_done", int, last_path)
        step = adam.t  # one Adam step per optimizer step, counted once
        best = pop_meta(meta, "best_val_loss", float, last_path)
    else:
        graph = build_model(cfg.variant, cfg.graph, dtype=np.float32)
        init_parameters(graph)
        adam = adam_init(graph.params)
        start_epoch, step, best = 0, 0, math.inf

    history = TrainHistory()
    if start_epoch >= cfg.epochs:
        if not cfg.quiet:
            print(f"nothing to do: {start_epoch} epochs already trained")
        save_checkpoint(graph, out / FINAL_CKPT)  # a crash may have come before it
        return graph, history

    lossf = loss_fn("bce")
    train_fh = _open_csv(out / TRAIN_CSV, "step,epoch,loss",
                         step if resuming else None)
    val_fh = _open_csv(out / VAL_CSV, "epoch,loss,accuracy,iou,precision,recall",
                       start_epoch if resuming else None)
    try:
        for epoch in range(start_epoch, cfg.epochs):
            batches = batch_iter(index, "train", cfg.batch_size, seed=cfg.seed, epoch=epoch)
            for batch_idx, (images, masks) in enumerate(batches):
                grads, loss = _accumulate_batch(
                    graph, images, masks, lossf, cfg, epoch, batch_idx
                )
                try:
                    adam_step(graph.params, grads, adam, lr=cfg.lr, eps=cfg.adam_eps)
                except NonFiniteGradientError as exc:
                    raise TrainAbortedError(
                        f"optimizer step {step + 1} rejected: {exc}", step=step + 1
                    ) from exc
                step += 1
                history.steps.append((step, epoch, loss))
                train_fh.write(f"{step},{epoch},{loss!r}\n")
                train_fh.flush()
                if not cfg.quiet:
                    print(f"step {step}  epoch {epoch}  loss {loss:.6f}", flush=True)

            val = evaluate(graph, index, "val", micro_batch=cfg.micro_batch)
            history.val.append((epoch, val))
            val_fh.write(
                f"{epoch},{val.loss!r},{val.accuracy!r},{val.iou!r},"
                f"{val.precision!r},{val.recall!r}\n"
            )
            val_fh.flush()
            if not cfg.quiet:
                print(
                    f"epoch {epoch}  val loss {val.loss:.6f}  iou {val.iou:.4f}",
                    flush=True,
                )
            if val.loss < best:
                best = val.loss
                save_checkpoint(graph, out / BEST_CKPT)
            save_training_checkpoint(
                graph, adam, _train_meta(cfg, epoch + 1, best), last_path
            )
    finally:
        train_fh.close()
        val_fh.close()

    save_checkpoint(graph, out / FINAL_CKPT)
    return graph, history
