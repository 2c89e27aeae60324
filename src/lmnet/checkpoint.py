"""Binary checkpoint serialization.

Two file kinds share one layout and differ by magic:

  "LMKN"  deployment: config text + parameter/statistic tensors
  "LMKT"  training: adds a metadata text block, which holds the Adam step
          count as adam_t, and the Adam moment tensors

Layout (all integers little-endian):
  magic        4 bytes
  version      u16 (currently 4)
  config text  u32 length + UTF-8 payload
  [meta text   u32 length + UTF-8 payload, training kind only]
  tensor table u32 count, then per tensor:
               u16 name length + UTF-8 name, u8 dtype code (0=f32, 1=f64),
               u8 rank (at most 4), u32 per dim (none 0), then the raw
               little-endian data, prod(shape) * itemsize bytes
  crc          u32 zlib.crc32 of every preceding byte

The config text holds the variant and GraphConfig's two fields,
channel_sequence and seed; the rest of the graph is fixed by its plan. A
tensor's payload size follows from its dtype and shape. The magic, the
version and then the CRC-32 are checked before any text or tensor is
parsed, so a file of another version is refused by its number.

Text blocks are canonical `kvtext` blocks: one key=value per line, keys
sorted lexicographically, floats rendered by `repr` so that they read back
exactly. Tensors are written sorted by name. The result is byte-reproducible:
save, load, save produces identical files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import struct
import zlib

import numpy as np

from . import kvtext
from .errors import CheckpointError
from .model import GraphConfig, ModelGraph, Variant, build_model, parse_variant
from .optim import AdamState

DEPLOY_MAGIC = b"LMKN"
TRAIN_MAGIC = b"LMKT"
VERSION = 4
MAX_NDIM = 4  # a conv weight (c_out, c_in, k, k) has the most dimensions

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_FIELDS = dataclasses.fields(GraphConfig)


def config_text(variant: Variant, config: GraphConfig) -> str:
    """Canonical textual form of a graph configuration plus its variant."""
    # each value as it reads back, so that parsing and rendering again gives
    # the same text whatever the types held (a list for a tuple, a numpy scalar)
    pairs = {f.name: _decode(f, kvtext.render(getattr(config, f.name))) for f in _FIELDS}
    return kvtext.write({"variant": variant.value, **pairs})


def _decode(f, text: str):
    return kvtext.ints(text) if isinstance(f.default, tuple) else type(f.default)(text)


def parse_config_text(text: str):
    """Inverse of config_text; returns (variant, GraphConfig)."""
    pairs = parse_kv_text(text)
    required = {f.name for f in _FIELDS} | {"variant"}
    missing = required - set(pairs)
    if missing:
        raise CheckpointError(f"config text missing keys: {sorted(missing)}")
    unknown = set(pairs) - required
    if unknown:
        raise CheckpointError(f"config text has unknown keys: {sorted(unknown)}")
    try:
        variant = parse_variant(pairs["variant"])
        config = GraphConfig(**{f.name: _decode(f, pairs[f.name]) for f in _FIELDS})
    except ValueError as exc:
        raise CheckpointError(f"unparseable config text: {exc}") from exc
    return variant, config


def parse_kv_text(text: str) -> dict:
    """Checkpoint text block to a dict of strings."""
    try:
        return kvtext.read(text)
    except ValueError as exc:
        raise CheckpointError(f"malformed checkpoint text: {exc}") from None


def _write_text_block(buf, text: str) -> None:
    data = text.encode("utf-8")
    buf.write(struct.pack("<I", len(data)))
    buf.write(data)


def _write_tensors(buf, tensors: dict) -> None:
    buf.write(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        code = _DTYPE_CODES.get(arr.dtype)
        if code is None:
            raise CheckpointError(f"tensor {name} has unsupported dtype {arr.dtype}")
        nameb = name.encode("utf-8")
        buf.write(struct.pack("<H", len(nameb)))
        buf.write(nameb)
        payload = arr.astype(_CODE_DTYPES[code], copy=False).tobytes()
        buf.write(struct.pack("<BB", code, arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(payload)


def _read_exact(buf, n: int, what: str, where: str = "tensor table") -> bytes:
    """The next n bytes; a declared length past the end of `buf` is
    refused before anything is read, so it never sizes an allocation."""
    here = buf.tell()
    if n > buf.seek(0, os.SEEK_END) - here:
        raise CheckpointError(f"truncated {where}: unexpected end of file in {what}")
    buf.seek(here)
    return buf.read(n)


def _utf8(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def _read_text_block(buf, what: str) -> str:
    where = f"{what} text"
    (length,) = struct.unpack("<I", _read_exact(buf, 4, "its length", where))
    return _utf8(_read_exact(buf, length, "its payload", where), where)


def _read_tensors(buf) -> dict:
    (count,) = struct.unpack("<I", _read_exact(buf, 4, "tensor count"))
    tensors = {}
    for _ in range(count):
        (namelen,) = struct.unpack("<H", _read_exact(buf, 2, "tensor name"))
        name = _utf8(_read_exact(buf, namelen, "tensor name"), "tensor name")
        code, ndim = struct.unpack("<BB", _read_exact(buf, 2, f"tensor {name} header"))
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"tensor {name} has unknown dtype code {code}")
        if ndim > MAX_NDIM:
            raise CheckpointError(
                f"tensor {name} declares {ndim} dimensions; no tensor has more than {MAX_NDIM}"
            )
        shape = struct.unpack(
            f"<{ndim}I", _read_exact(buf, 4 * ndim, f"tensor {name} shape")
        )
        if 0 in shape:
            raise CheckpointError(f"tensor {name} declares a zero dimension in shape {shape}")
        dtype = _CODE_DTYPES[code]
        payload = _read_exact(buf, math.prod(shape) * dtype.itemsize, f"tensor {name} payload")
        tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    return tensors


def _serialize(magic: bytes, graph: ModelGraph, meta_text: str | None,
               extra_tensors: dict | None) -> bytes:
    buf = io.BytesIO()
    buf.write(magic)
    buf.write(struct.pack("<H", VERSION))
    _write_text_block(buf, config_text(graph.variant, graph.config))
    if meta_text is not None:
        _write_text_block(buf, meta_text)
    tensors = dict(graph.params)
    tensors.update(graph.stats)
    if extra_tensors:
        tensors.update(extra_tensors)
    _write_tensors(buf, tensors)
    buf.write(struct.pack("<I", zlib.crc32(buf.getbuffer())))
    return buf.getvalue()


def _open_body(blob: bytes) -> tuple:
    """A checkpoint file's magic and a stream over its bytes between the
    version and the CRC-32, once the magic, version and CRC-32 are checked."""
    buf = io.BytesIO(blob)
    magic = buf.read(4)
    if magic not in (DEPLOY_MAGIC, TRAIN_MAGIC):
        raise CheckpointError(
            f"bad magic {magic!r}; not a checkpoint written by this package"
        )
    (version,) = struct.unpack("<H", _read_exact(buf, 2, "version", "checkpoint header"))
    if version != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (this build reads {VERSION})"
        )
    if zlib.crc32(memoryview(blob)[:-4]) != int.from_bytes(blob[-4:], "little"):
        raise CheckpointError("CRC-32 mismatch: the file is damaged or truncated")
    return magic, io.BytesIO(blob[buf.tell():-4])


def _take(tensors: dict, name: str, shape: tuple) -> np.ndarray:
    """tensors[name], which must exist and have `shape`."""
    if name not in tensors:
        raise CheckpointError(f"checkpoint is missing tensor {name}")
    if tensors[name].shape != shape:
        raise CheckpointError(
            f"tensor {name} has shape {tensors[name].shape}, the graph expects {shape}"
        )
    return tensors[name]


def _graph_from(variant, config, tensors: dict) -> ModelGraph:
    """A graph holding the file's parameters and statistics, in the dtype of
    the first of them; every other tensor, Adam moments included, must have
    that dtype too. Every tensor must be finite and every running variance
    non-negative."""
    first = next((name for name in tensors if not name.startswith("adam.")),
                 next(iter(tensors), None))
    dtype = np.float32 if first is None else tensors[first].dtype
    for name, t in tensors.items():
        if t.dtype != dtype:
            raise CheckpointError(
                f"tensor {name} is {t.dtype} but tensor {first} is {dtype}; "
                "every tensor of a checkpoint has one dtype"
            )
        if not np.isfinite(t).all():
            raise CheckpointError(f"tensor {name} holds a non-finite value")
        if name.endswith(".running_var") and (t < 0).any():
            raise CheckpointError(f"tensor {name} holds a negative variance")
    graph = build_model(variant, config, dtype=dtype)
    for store in (graph.params, graph.stats):
        for name in store:
            store[name] = _take(tensors, name, store[name].shape)
    return graph


def _read_file(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from exc


def _write(path, data: bytes) -> None:
    """Write through a fsynced temp file in the same directory and an atomic
    rename, so a crash leaves either the previous file or the new one."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def pop_meta(meta: dict, key: str, kind, path):
    """Remove `key` from a training checkpoint's metadata, parsed by `kind`."""
    if key not in meta:
        raise CheckpointError(f"{path}: training metadata is missing {key}")
    text = meta.pop(key)
    try:
        return kind(text)
    except ValueError:
        raise CheckpointError(
            f"{path}: training metadata has unparseable {key}={text}") from None


@contextlib.contextmanager
def _naming(path):
    """Prefix `path` to a CheckpointError raised in the block."""
    try:
        yield
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _load(path, training: bool):
    """Read a checkpoint into (graph, AdamState, meta); the last two are None
    for the deployment kind, which `training` refuses. An error in reading
    the file or in matching it to the graph names the path once, as its
    prefix."""
    blob = _read_file(path)
    with _naming(path):
        magic, body = _open_body(blob)
        if training and magic != TRAIN_MAGIC:
            raise CheckpointError("this is a deployment checkpoint and carries no optimizer state")
        variant, config = parse_config_text(_read_text_block(body, "config"))
        if magic == TRAIN_MAGIC:
            meta = parse_kv_text(_read_text_block(body, "metadata"))
        tensors = _read_tensors(body)
        if body.read(1):
            raise CheckpointError("trailing bytes after tensor table")
        graph = _graph_from(variant, config, tensors)
        if magic == DEPLOY_MAGIC:
            return graph, None, None
    adam = AdamState(t=pop_meta(meta, "adam_t", int, path))
    with _naming(path):
        for name, p in graph.params.items():
            for store, prefix in ((adam.m, "adam.m."), (adam.v, "adam.v.")):
                store[name] = _take(tensors, prefix + name, p.shape)
    return graph, adam, meta


def save_checkpoint(graph: ModelGraph, path) -> None:
    """Write a deployment checkpoint (parameters and running statistics)."""
    _write(path, _serialize(DEPLOY_MAGIC, graph, None, None))


def save_training_checkpoint(graph: ModelGraph, adam: AdamState, meta: dict, path) -> None:
    """Write a resumable checkpoint: graph, Adam state, and run metadata."""
    meta = {**meta, "adam_t": int(adam.t)}
    extra = {f"adam.m.{name}": m for name, m in adam.m.items()}
    extra.update((f"adam.v.{name}", v) for name, v in adam.v.items())
    _write(path, _serialize(TRAIN_MAGIC, graph, kvtext.write(meta), extra))


def load_training_checkpoint(path):
    """Read a training checkpoint; returns (graph, AdamState, meta dict)."""
    return _load(path, True)


def load_any(path) -> ModelGraph:
    """Load either checkpoint kind, returning just the graph."""
    return _load(path, False)[0]
