"""Binary checkpoint serialization.

Two file kinds share one layout and differ by magic:

  "LMKN"  deployment: config text + parameter/statistic tensors
  "LMKT"  training: adds a metadata text block and the Adam moment tensors

Layout (all integers little-endian):
  magic        4 bytes
  version      u16 (currently 1)
  config text  u32 length + UTF-8 payload
  [meta text   u32 length + UTF-8 payload, training kind only]
  tensor table u32 count, then per tensor:
               u16 name length + UTF-8 name, u8 dtype code (0=f32, 1=f64),
               u8 rank, u32 per dim, u64 payload bytes, raw little-endian data

Text blocks are canonical: one key=value per line, keys sorted
lexicographically, floats rendered with 9 significant digits. Tensors are
written sorted by name. The result is byte-reproducible: save, load, save
produces identical files.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct

import numpy as np

from .errors import CheckpointError
from .model import GraphConfig, ModelGraph, Variant, build_model, parse_variant
from .optim import AdamState

DEPLOY_MAGIC = b"LMKN"
TRAIN_MAGIC = b"LMKT"
VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def render_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def render_kv_text(pairs: dict) -> str:
    return "".join(f"{k}={render_value(pairs[k])}\n" for k in sorted(pairs))


def config_text(variant: Variant, config: GraphConfig) -> str:
    """Canonical textual form of a graph configuration plus its variant."""
    h, w = config.input_size
    pairs = {
        "variant": variant.value,
        "input_size": f"{int(h)},{int(w)}",
        "input_channels": int(config.input_channels),
        "channel_sequence": ",".join(str(int(c)) for c in config.channel_sequence),
        "dilation_rates": ",".join(str(int(d)) for d in config.dilation_rates),
        "dropout_schedule": ",".join(
            f"{int(i)}:{render_value(float(r))}" for i, r in config.dropout_schedule
        ),
        "loss": config.loss,
        "bn_momentum": float(config.bn_momentum),
        "bn_epsilon": float(config.bn_epsilon),
        "seed": int(config.seed),
    }
    return render_kv_text(pairs)


def parse_config_text(text: str):
    """Inverse of config_text; returns (variant, GraphConfig)."""
    pairs = parse_kv_text(text)
    required = {
        "variant", "input_size", "input_channels", "channel_sequence",
        "dilation_rates", "dropout_schedule", "loss", "bn_momentum",
        "bn_epsilon", "seed",
    }
    missing = required - set(pairs)
    if missing:
        raise CheckpointError(f"config text missing keys: {sorted(missing)}")
    unknown = set(pairs) - required
    if unknown:
        raise CheckpointError(f"config text has unknown keys: {sorted(unknown)}")
    try:
        variant = parse_variant(pairs["variant"])
        size = tuple(int(s) for s in pairs["input_size"].split(","))
        sched = tuple(
            (int(p.split(":")[0]), float(p.split(":")[1]))
            for p in pairs["dropout_schedule"].split(",") if p
        )
        config = GraphConfig(
            input_size=size,
            input_channels=int(pairs["input_channels"]),
            channel_sequence=tuple(int(c) for c in pairs["channel_sequence"].split(",")),
            dilation_rates=tuple(
                int(d) for d in pairs["dilation_rates"].split(",") if d
            ),
            dropout_schedule=sched,
            loss=pairs["loss"],
            bn_momentum=float(pairs["bn_momentum"]),
            bn_epsilon=float(pairs["bn_epsilon"]),
            seed=int(pairs["seed"]),
        )
    except (ValueError, IndexError) as exc:
        raise CheckpointError(f"unparseable config text: {exc}") from exc
    return variant, config


def parse_kv_text(text: str) -> dict:
    """Inverse of render_kv_text; values stay strings."""
    pairs = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise CheckpointError(f"malformed checkpoint text line {line!r}")
        k, _, v = line.partition("=")
        pairs[k] = v
    return pairs


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
        buf.write(struct.pack("<Q", len(payload)))
        buf.write(payload)


def _read_exact(buf, n: int, what: str) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated tensor table: unexpected end of file in {what}")
    return data


def _read_text_block(buf, what: str) -> str:
    (length,) = struct.unpack("<I", _read_exact(buf, 4, what))
    return _read_exact(buf, length, what).decode("utf-8")


def _read_tensors(buf) -> dict:
    (count,) = struct.unpack("<I", _read_exact(buf, 4, "tensor count"))
    tensors = {}
    for _ in range(count):
        (namelen,) = struct.unpack("<H", _read_exact(buf, 2, "tensor name"))
        name = _read_exact(buf, namelen, "tensor name").decode("utf-8")
        code, ndim = struct.unpack("<BB", _read_exact(buf, 2, f"tensor {name} header"))
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"tensor {name} has unknown dtype code {code}")
        shape = struct.unpack(
            f"<{ndim}I", _read_exact(buf, 4 * ndim, f"tensor {name} shape")
        )
        (nbytes,) = struct.unpack("<Q", _read_exact(buf, 8, f"tensor {name} size"))
        dtype = _CODE_DTYPES[code]
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes != expected:
            raise CheckpointError(
                f"truncated tensor table: tensor {name} declares {nbytes} bytes "
                f"but shape {shape} needs {expected}"
            )
        payload = _read_exact(buf, nbytes, f"tensor {name} payload")
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
    return buf.getvalue()


def _read_header(buf, path) -> bytes:
    magic = buf.read(4)
    if magic not in (DEPLOY_MAGIC, TRAIN_MAGIC):
        raise CheckpointError(
            f"{path}: bad magic {magic!r}; not a checkpoint written by this package"
        )
    (version,) = struct.unpack("<H", _read_exact(buf, 2, "version"))
    if version != VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} (this build reads {VERSION})"
        )
    return magic


def _graph_from(variant, config, tensors: dict) -> ModelGraph:
    dtypes = {t.dtype for t in tensors.values()}
    dtype = np.float64 if dtypes == {np.dtype(np.float64)} else np.float32
    graph = build_model(variant, config, dtype=dtype)
    for store in (graph.params, graph.stats):
        for name in store:
            if name not in tensors:
                raise CheckpointError(f"checkpoint is missing tensor {name}")
            if tensors[name].shape != store[name].shape:
                raise CheckpointError(
                    f"tensor {name} has shape {tensors[name].shape}, "
                    f"the graph expects {store[name].shape}"
                )
            store[name] = tensors[name]
    return graph


def _open(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


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


_KIND_MISMATCH = {
    DEPLOY_MAGIC: "{path} is a training checkpoint; use load_training_checkpoint",
    TRAIN_MAGIC: "{path} is a deployment checkpoint and carries no optimizer state",
}


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


def _load(path, want):
    """Read a checkpoint of kind `want` (a magic, or None for either) into
    (graph, AdamState, meta); the last two are None for the deployment kind."""
    with _open(path) as fh:
        magic = _read_header(fh, path)
        if want is not None and magic != want:
            raise CheckpointError(_KIND_MISMATCH[want].format(path=path))
        variant, config = parse_config_text(_read_text_block(fh, "config"))
        if magic == TRAIN_MAGIC:
            meta = parse_kv_text(_read_text_block(fh, "metadata"))
        tensors = _read_tensors(fh)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after tensor table")
    if magic == DEPLOY_MAGIC:
        return _graph_from(variant, config, tensors), None, None
    graph = _graph_from(
        variant, config, {k: v for k, v in tensors.items() if not k.startswith("adam.")}
    )
    adam = AdamState(
        lr=pop_meta(meta, "lr", float, path),
        beta1=pop_meta(meta, "beta1", float, path),
        beta2=pop_meta(meta, "beta2", float, path),
        eps=pop_meta(meta, "adam_eps", float, path),
        t=pop_meta(meta, "adam_t", int, path),
    )
    for name in graph.params:
        for store, prefix in ((adam.m, "adam.m."), (adam.v, "adam.v.")):
            key = prefix + name
            if key not in tensors:
                raise CheckpointError(f"training checkpoint is missing tensor {key}")
            store[name] = tensors[key]
    return graph, adam, meta


def save_checkpoint(graph: ModelGraph, path) -> None:
    """Write a deployment checkpoint (parameters and running statistics)."""
    _write(path, _serialize(DEPLOY_MAGIC, graph, None, None))


def load_checkpoint(path) -> ModelGraph:
    """Read a deployment checkpoint back into a freshly built graph."""
    return _load(path, DEPLOY_MAGIC)[0]


def save_training_checkpoint(graph: ModelGraph, adam: AdamState, meta: dict, path) -> None:
    """Write a resumable checkpoint: graph, Adam state, and run metadata."""
    meta = dict(meta)
    meta.update(
        lr=float(adam.lr), beta1=float(adam.beta1), beta2=float(adam.beta2),
        adam_eps=float(adam.eps), adam_t=int(adam.t),
    )
    extra = {}
    for name, m in adam.m.items():
        extra[f"adam.m.{name}"] = m
    for name, v in adam.v.items():
        extra[f"adam.v.{name}"] = v
    _write(path, _serialize(TRAIN_MAGIC, graph, render_kv_text(meta), extra))


def load_training_checkpoint(path):
    """Read a training checkpoint; returns (graph, AdamState, meta dict)."""
    return _load(path, TRAIN_MAGIC)


def load_any(path) -> ModelGraph:
    """Load either checkpoint kind, returning just the graph."""
    return _load(path, None)[0]
