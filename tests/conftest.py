import struct
import zlib
from concurrent.futures import Future

import numpy as np
import pytest

from lmnet import ops
from lmnet.checkpoint import TRAIN_MAGIC
from lmnet.data import DatasetIndex, IndexRecord, save_index, write_synthetic_dataset
from lmnet.model import GraphConfig

# Results of acceptance-marked tests, printed as one line each in the
# terminal summary: number -> (label, passed).
_acceptance_results = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(n, label): marks one acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call":
        marker = item.get_closest_marker("acceptance")
        if marker:
            n, label = marker.args
            _acceptance_results[n] = (label, rep.passed)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n in sorted(_acceptance_results):
        label, passed = _acceptance_results[n]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {n} {label}: {status}")


TINY_GRAPH = GraphConfig(channel_sequence=(2, 2, 3, 3))


def seal(body: bytes) -> bytes:
    """A checkpoint's bytes before its CRC-32, here edited or cut, followed
    by their CRC-32: a file the reader parses rather than refuses as damaged."""
    return body + zlib.crc32(body).to_bytes(4, "little")


def checkpoint_offsets(blob: bytes) -> dict:
    """Offsets in a checkpoint file of each text block's u32 length and of
    the first tensor's u16 name length."""
    offsets = {"config": 6}
    pos = 10 + int.from_bytes(blob[6:10], "little")
    if blob[:4] == TRAIN_MAGIC:
        offsets["metadata"] = pos
        pos += 4 + int.from_bytes(blob[pos:pos + 4], "little")
    offsets["tensor name"] = pos + 4  # after the u32 tensor count
    return offsets


def declare_first_tensor(blob: bytes, shape: tuple) -> bytes:
    """The checkpoint with its first tensor's header declaring a float32
    `shape`, sealed again; the payload is unchanged, so the reader takes the
    bytes that shape needs from what follows."""
    name = checkpoint_offsets(blob)["tensor name"]
    head = name + 2 + int.from_bytes(blob[name:name + 2], "little")
    end = head + 2 + 4 * blob[head + 1]
    header = struct.pack(f"<BB{len(shape)}I", 0, len(shape), *shape)
    return seal(blob[:head] + header + blob[end:-4])


def mixed_index(root, parts):
    """The path of an index over synthetic layouts written under `root`, one
    per (sub, counts, size) part."""
    records = []
    for sub, counts, size in parts:
        part = write_synthetic_dataset(root / sub, counts, size, seed=0)
        records += [IndexRecord(f"{sub}/{r.image}", f"{sub}/{r.mask}", r.split)
                    for r in part.records]
    save_index(DatasetIndex(root=root, records=records), root / "index.tsv")
    return root / "index.tsv"


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """16x16 synthetic prepared layout: 8 train / 4 val / 4 test."""
    root = tmp_path_factory.mktemp("tiny-data")
    index = write_synthetic_dataset(
        root, {"train": 8, "val": 4, "test": 4}, size=16, seed=5
    )
    return index


@pytest.fixture(scope="session")
def overfit_dataset(tmp_path_factory):
    """64x64 synthetic prepared layout for the overfit experiment."""
    root = tmp_path_factory.mktemp("overfit-data")
    return write_synthetic_dataset(root, {"train": 16, "val": 4}, size=64, seed=11)


def frozen_batchnorm_backward(cache, grad_out):
    """The adjoint of batch norm with constant statistics, the affine map
    gamma * (x - mean) * inv_std + beta: (grad_input, grad_gamma, grad_beta)."""
    dxhat = grad_out * cache["gamma"].reshape(1, -1, 1, 1)
    return (dxhat * cache["inv_std"].reshape(1, -1, 1, 1),
            (grad_out * cache["xhat"]).sum(axis=(0, 2, 3)), grad_out.sum(axis=(0, 2, 3)))


@pytest.fixture
def frozen_bn(monkeypatch):
    """Batch norm normalizes with the stored running statistics and leaves
    them untouched, in train mode too, so every sample's forward is
    independent of the rest of its batch. Its output has the eval bits, and
    its cache feeds frozen_batchnorm_backward, which replaces the adjoint."""
    batchnorm = ops.batchnorm

    def frozen(x, gamma, beta, mean, var, mode, out=None):
        inv_std = 1.0 / np.sqrt(var + np.asarray(ops.BN_EPSILON, dtype=x.dtype))
        # formed before batchnorm writes `out`, which may be x itself
        xhat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
        out = batchnorm(x, gamma, beta, mean, var, "eval", out)[0]
        return out, {"xhat": xhat, "inv_std": inv_std, "gamma": gamma}, mean, var

    monkeypatch.setattr(ops, "batchnorm", frozen)
    monkeypatch.setattr(ops, "batchnorm_backward", frozen_batchnorm_backward)


@pytest.fixture
def no_dropout(monkeypatch):
    """Dropout passes every activation through unchanged, so a train-mode
    forward draws nothing from its rng. Its adjoint is then the bare gate it
    is handed (backward passes act > 0, which is the relu gate) and scales
    nothing: a backward takes dropout from the plan, so patching the forward
    alone would leave gradients scaled by 1/(1-rate)."""
    monkeypatch.setattr(ops, "dropout", lambda x, rate, rng: x)
    monkeypatch.setattr(ops, "dropout_backward", lambda g, keep, rate: g * keep)


class InlineExecutor:
    """A worker pool that runs each submitted call at once, in the caller's thread."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future


@pytest.fixture
def inline_workers(monkeypatch):
    """The kernels split their work as two workers would, at any size, and
    run each part in the caller's thread, in order."""
    monkeypatch.setattr(ops, "WORKERS", 2)
    monkeypatch.setattr(ops, "TASK_ELEMS", 1)
    monkeypatch.setattr(ops, "_pool", InlineExecutor)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
