"""Seeded byte mutation of every file kind a user hands in: a checkpoint of
either kind, a PNG or PPM image, an index.tsv and a `--config` file. Each
mutant has 1-3 bytes of its head changed; its reader must either load it or
raise an LmnetError, never another exception (which the CLI would show as a
traceback)."""

import numpy as np
import pytest

from lmnet import imgio, kvtext
from lmnet.checkpoint import (
    load_any,
    load_training_checkpoint,
    save_checkpoint,
    save_training_checkpoint,
)
from lmnet.cli import _resolve
from lmnet.data import load_index, write_synthetic_dataset
from lmnet.errors import LmnetError
from lmnet.model import Variant, build_model, init_parameters
from lmnet.optim import adam_init

from conftest import TINY_GRAPH

HEAD = 600  # bytes a mutation may touch: headers, text blocks and the first tensors
MUTANTS = 250  # per file kind


def _graph():
    return init_parameters(build_model(Variant.PROPOSED, TINY_GRAPH), 0)


def _deploy_checkpoint(path):
    save_checkpoint(_graph(), path)


def _training_checkpoint(path):
    graph = _graph()
    meta = {"epochs_done": 1, "step": 2, "best_val_loss": 0.5}
    save_training_checkpoint(graph, adam_init(graph.params), meta, path)


def _image(path):
    imgio.write_rgb(path, np.random.default_rng(3).random((3, 8, 8)))


def _index(path):
    write_synthetic_dataset(path.parent, {"train": 2, "val": 1, "test": 1}, size=8, seed=1)


def _train_config(path):
    """The resolved config `lmnet train` echoes, itself a valid --config file."""
    argv = ["train", "--index", "i", "--out", "o", "--variant", "proposed"]
    path.write_text(kvtext.write(_resolve(argv)[1]), encoding="utf-8")


def resolve_train(path):
    return _resolve(["train", "--config", str(path)])


CASES = {  # id -> (file name, writer, readers)
    "deploy-ckpt": ("m.ckpt", _deploy_checkpoint, (load_any,)),
    "train-ckpt": ("last.ckpt", _training_checkpoint, (load_training_checkpoint,)),
    "png": ("x.png", _image, (imgio.read_rgb, imgio.image_size)),
    "ppm": ("x.ppm", _image, (imgio.read_rgb, imgio.image_size)),
    "index": ("index.tsv", _index, (load_index,)),
    "config": ("train.cfg", _train_config, (resolve_train,)),
}


def _mutants(blob: bytes, seed: int):
    """(positions, mutant) pairs: 1-3 bytes of the head XORed with nonzero values."""
    rng = np.random.default_rng(seed)
    head = min(len(blob), HEAD)
    for _ in range(MUTANTS):
        data = bytearray(blob)
        positions = rng.integers(0, head, rng.integers(1, 4))
        for pos in positions:
            data[pos] ^= int(rng.integers(1, 256))
        yield positions.tolist(), bytes(data)


@pytest.mark.parametrize("case", list(CASES))
def test_a_mutated_file_loads_or_raises_an_lmnet_error(case, tmp_path):
    name, write, readers = CASES[case]
    original = tmp_path / name
    write(original)
    mutant = original.with_name(f"mutant{original.suffix}")  # beside the files it names
    escaped = []
    for positions, data in _mutants(original.read_bytes(), seed=list(CASES).index(case)):
        mutant.write_bytes(data)
        for read in readers:
            try:
                read(mutant)
            except LmnetError:
                pass
            except Exception as exc:  # any other exception is what this test looks for
                escaped.append(f"{read.__name__} at bytes {positions}: {exc!r}")
    assert not escaped, f"{len(escaped)} mutants escaped, e.g. " + "; ".join(escaped[:3])
