"""The three workloads: set-up, one timed operation, and output checks.

Every workload runs the `proposed` variant at the default graph
configuration. An operation is what a user waits for:

  train-192      one `train()` call that trains one more epoch (one
                 optimizer step of two accumulated micro-batches), validates
                 and writes its checkpoints, resuming from the previous call
  eval-192       `load_any` of a checkpoint, then `evaluate` over a split
  predict-scene  the steps of `lmnet predict`: read a scene, resize the
                 graph to it, eval forward, threshold, write both maps

The first operation of a run is the untimed memory pass (see run.py); the
later ones are timed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from lmnet import checkpoint, data, imgio, model, train

from inputs import TILE, write_dataset, write_scene

VARIANT = "proposed"
THRESHOLD = 0.5
MICRO_BATCH = 10
# Parameter init, shuffle order and dropout masks are fixed; --seed varies
# the inputs. The losses then differ across seeds only by what the data
# changes, which keeps final_loss within its bound across seeds.
MODEL_SEED = 0

# float32 against the same checkpoint cast to float64: the gap is rounding
# through nine conv layers, far below these; a wrong kernel is far above.
LOSS_RTOL = 1e-5
IOU_ATOL = 1e-3
PROB_ATOL = 1e-5


def _graph():
    """Parameters from MODEL_SEED; the run seed only changes the inputs."""
    return model.init_parameters(model.build_model(VARIANT, model.GraphConfig(seed=MODEL_SEED)))


def _warm(graph) -> None:
    """One single-tile eval forward: starts the BLAS threads, faults in code."""
    graph.forward(np.zeros((1, 3, TILE, TILE), dtype=graph.dtype), "eval")


class TrainTiles:
    name = "train-192"
    samples_per_op = 20   # one optimizer step: batch 20 = 2 micro-batches of 10
    val_tiles = 4
    size = (TILE, TILE)

    def setup(self, work: Path, seed: int) -> None:
        self.index = write_dataset(
            work / "data", {"train": self.samples_per_op, "val": self.val_tiles},
            TILE, seed)
        self.out = work / "run"
        self.epochs = 0
        _warm(_graph())

    def op(self):
        self.epochs += 1
        cfg = train.TrainConfig(
            variant=model.parse_variant(VARIANT), graph=model.GraphConfig(seed=MODEL_SEED),
            index_path=self.index, out_dir=self.out, epochs=self.epochs,
            batch_size=self.samples_per_op, micro_batch=MICRO_BATCH, adam_eps=1e-2,
            seed=MODEL_SEED, resume=True, quiet=True)
        _, history = train.train(cfg)
        return [loss for _, _, loss in history.steps] + [v.loss for _, v in history.val]

    def final_loss(self, results) -> float:
        # the step after the first Adam update, whatever the number of calls
        return results[1][0]

    def check(self, results) -> list:
        """Per operation: every step loss and validation loss is finite."""
        return [bool(r) and all(math.isfinite(x) for x in r) for r in results]


class EvalTiles:
    name = "eval-192"
    samples_per_op = 20
    size = (TILE, TILE)

    def setup(self, work: Path, seed: int) -> None:
        self.index = data.load_index(write_dataset(
            work / "data", {"test": self.samples_per_op}, TILE, seed))
        self.ckpt = work / "model.ckpt"
        checkpoint.save_checkpoint(_graph(), self.ckpt)
        _warm(checkpoint.load_any(self.ckpt))

    def op(self):
        graph = checkpoint.load_any(self.ckpt)
        return train.evaluate(graph, self.index, "test", THRESHOLD, MICRO_BATCH)

    def final_loss(self, results) -> float:
        return results[-1].loss

    def check(self, results) -> list:
        """Every report is finite and equal to the first; the first agrees
        with a float64 evaluation of the same checkpoint."""
        ref = train.evaluate(checkpoint.load_any(self.ckpt).astype(np.float64),
                             self.index, "test", THRESHOLD, MICRO_BATCH)
        first = results[0]
        agrees = (abs(first.loss - ref.loss) <= LOSS_RTOL * abs(ref.loss)
                  and abs(first.iou - ref.iou) <= IOU_ATOL)
        return [agrees and math.isfinite(r.loss) and r == first for r in results]


class PredictScene:
    name = "predict-scene"
    samples_per_op = 1
    side = 4 * TILE   # 768: about 0.6M pixels per plane
    size = (side, side)

    def setup(self, work: Path, seed: int) -> None:
        work.mkdir(parents=True)
        self.scene = work / "scene.ppm"
        self.truth = work / "scene_mask.pgm"
        write_scene(np.random.default_rng(seed), self.side, self.scene, self.truth)
        self.out_prob = work / "pred_prob.pgm"
        self.out_mask = work / "pred_mask.pgm"
        ckpt = work / "model.ckpt"
        checkpoint.save_checkpoint(_graph(), ckpt)
        self.graph = checkpoint.load_any(ckpt)
        _warm(self.graph)

    def op(self):
        image = imgio.read_rgb(self.scene)
        graph = model.replace_input_size(self.graph, image.shape[1:])
        pred, _ = graph.forward(image[None].astype(graph.dtype), "eval")
        prob = pred[0, 0]
        mask = (prob >= THRESHOLD).astype(np.float32)
        imgio.write_gray(self.out_prob, prob)
        imgio.write_gray(self.out_mask, mask)
        return prob, mask

    def final_loss(self, results) -> float:
        prob = results[-1][0]
        truth = (imgio.read_gray(self.truth) >= 0.5).astype(prob.dtype)
        return model.loss_fn("bce")(prob[None, None], truth[None, None])[0]

    def check(self, results) -> list:
        """Per operation: prob finite in [0, 1], mask == prob >= threshold,
        and prob equal to the first operation's. The first prob agrees with
        a float64 forward; the files on disk hold the last maps."""
        image = imgio.read_rgb(self.scene)
        g64 = model.replace_input_size(self.graph.astype(np.float64), image.shape[1:])
        ref = g64.forward(image[None].astype(np.float64), "eval")[0][0, 0]
        first = results[0][0]
        agrees = float(np.max(np.abs(first - ref))) <= PROB_ATOL
        prob, mask = results[-1]
        on_disk = (np.array_equal(imgio.read_gray(self.out_prob), _as_8bit(prob))
                   and np.array_equal(imgio.read_gray(self.out_mask), mask))
        ok = []
        for p, m in results:
            ok.append(agrees and on_disk and bool(np.isfinite(p).all())
                      and 0.0 <= float(p.min()) and float(p.max()) <= 1.0
                      and np.array_equal(m, (p >= THRESHOLD).astype(np.float32))
                      and np.array_equal(p, first))
        return ok


def _as_8bit(prob) -> np.ndarray:
    """What a PGM round trip of `prob` must read back as."""
    u8 = np.rint(np.clip(prob.astype(np.float64), 0.0, 1.0) * 255.0).astype(np.uint8)
    return u8.astype(np.float32) / np.float32(255.0)


WORKLOADS = {w.name: w for w in (TrainTiles, EvalTiles, PredictScene)}
