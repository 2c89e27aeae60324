"""Binary checkpoint round trips, byte reproducibility, and corruption
diagnostics."""

import os
import re

import numpy as np
import numpy.testing as npt
import pytest

from lmnet.checkpoint import (
    TRAIN_MAGIC,
    _serialize,
    config_text,
    load_any,
    load_training_checkpoint,
    parse_config_text,
    save_checkpoint,
    save_training_checkpoint,
)
from lmnet.errors import CheckpointError
from lmnet.model import GraphConfig, Variant, build_model, init_parameters
from lmnet.optim import adam_init, adam_step

from conftest import TINY_GRAPH, checkpoint_offsets, declare_first_tensor, seal


def tiny_graph(variant=Variant.PROPOSED, seed=0, dtype=np.float32):
    graph = build_model(variant, TINY_GRAPH, dtype=dtype)
    return init_parameters(graph, seed)


def trained_state(graph):
    """A couple of optimizer steps so moments and t are non-trivial."""
    adam = adam_init(graph.params)
    rng = np.random.default_rng(5)
    for _ in range(3):
        grads = {k: rng.normal(size=v.shape).astype(v.dtype)
                 for k, v in graph.params.items()}
        adam_step(graph.params, grads, adam, lr=0.01, eps=1e-8)
    return adam


def test_deploy_round_trip_restores_everything(tmp_path):
    graph = tiny_graph()
    graph.stats["l2.running_mean"] = np.full(2, 0.25, np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint(graph, path)
    back = load_any(path)
    assert back.variant is Variant.PROPOSED
    assert back.config == graph.config
    assert back.dtype == np.float32
    assert set(back.params) == set(graph.params)
    for k in graph.params:
        npt.assert_array_equal(back.params[k], graph.params[k])
    for k in graph.stats:
        npt.assert_array_equal(back.stats[k], graph.stats[k])


def test_save_load_save_is_byte_identical(tmp_path):
    graph = tiny_graph(seed=2)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(graph, first)
    save_checkpoint(load_any(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_predictions_survive_the_round_trip(tmp_path):
    graph = tiny_graph(seed=4)
    x = np.random.default_rng(0).random((2, 3, 8, 8)).astype(np.float32)
    before, _ = graph.forward(x, "eval")
    save_checkpoint(graph, tmp_path / "m.ckpt")
    after, _ = load_any(tmp_path / "m.ckpt").forward(x, "eval")
    npt.assert_array_equal(before, after)


def test_training_round_trip_restores_optimizer_and_meta(tmp_path):
    graph = tiny_graph(Variant.RESIDUAL, seed=1)
    adam = trained_state(graph)
    path = tmp_path / "t.ckpt"
    save_training_checkpoint(graph, adam, {"epochs_done": 3, "note": "x"}, path)
    back, adam2, meta = load_training_checkpoint(path)
    for k in graph.params:
        npt.assert_array_equal(back.params[k], graph.params[k])
        npt.assert_array_equal(adam2.m[k], adam.m[k])
        npt.assert_array_equal(adam2.v[k], adam.v[k])
    assert adam2.t == adam.t == 3
    assert meta["epochs_done"] == "3"
    assert meta["note"] == "x"
    assert "adam_t" not in meta  # the step count is lifted out of the meta dict


def test_training_save_is_reproducible(tmp_path):
    graph = tiny_graph(seed=3)
    adam = trained_state(graph)
    save_training_checkpoint(graph, adam, {"epochs_done": 1}, tmp_path / "a")
    save_training_checkpoint(graph, adam, {"epochs_done": 1}, tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_kind_mismatch_both_directions(tmp_path):
    graph = tiny_graph()
    save_checkpoint(graph, tmp_path / "d.ckpt")
    save_training_checkpoint(graph, adam_init(graph.params), {}, tmp_path / "t.ckpt")
    with pytest.raises(CheckpointError, match="deployment checkpoint"):
        load_training_checkpoint(tmp_path / "d.ckpt")
    # the permissive loader takes either
    assert load_any(tmp_path / "d.ckpt").variant is Variant.PROPOSED
    assert load_any(tmp_path / "t.ckpt").variant is Variant.PROPOSED


def test_missing_file_is_a_checkpoint_error(tmp_path):
    for load in (load_training_checkpoint, load_any):
        with pytest.raises(CheckpointError, match="cannot read"):
            load(tmp_path / "nope.ckpt")


@pytest.mark.parametrize("kind", ["deploy", "training"])
def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch, kind):
    path = tmp_path / "last.ckpt"

    def save(graph):
        if kind == "deploy":
            save_checkpoint(graph, path)
        else:
            save_training_checkpoint(graph, adam_init(graph.params), {"epochs_done": 1}, path)

    save(tiny_graph(seed=0))
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(CheckpointError, match="cannot write"):
        save(tiny_graph(seed=1))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["last.ckpt"]


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"ZZZZ" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_any(path)

    graph = tiny_graph()
    save_checkpoint(graph, path)
    blob = bytearray(path.read_bytes())
    # version 1 held the dropout and batch-norm settings, version 2 an input
    # size and no CRC-32, version 3 the dilation rates, the loss and each
    # tensor's payload size; each is refused by its number, before the CRC-32
    for version in (1, 2, 3, 99):
        blob[4:6] = version.to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
            load_any(path)


def test_truncation_and_trailing_bytes(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(tiny_graph(), path)
    body = path.read_bytes()[:-4]

    path.write_bytes(seal(body[: len(body) // 2]))
    with pytest.raises(CheckpointError, match="truncated tensor table"):
        load_any(path)

    path.write_bytes(seal(body + b"junk"))
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_any(path)


@pytest.mark.parametrize("damage", ["payload-bit", "crc-byte", "cut", "junk"])
def test_a_damaged_file_fails_its_crc(tmp_path, damage):
    # a flipped bit in a tensor payload parses as another model; the CRC-32
    # refuses it, and a cut or extended file, before any text is parsed
    path = tmp_path / "x.ckpt"
    save_checkpoint(tiny_graph(), path)
    blob = bytearray(path.read_bytes())
    if damage == "payload-bit":
        blob[-8] ^= 0x01
    elif damage == "crc-byte":
        blob[-1] ^= 0xFF
    elif damage == "cut":
        blob = blob[:-1]
    else:
        blob += b"junk"
    path.write_bytes(bytes(blob))
    for load in (load_any, load_training_checkpoint):
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: CRC-32 mismatch"):
            load(path)


def training_file(tmp_path):
    graph = tiny_graph()
    path = tmp_path / "t.ckpt"
    save_training_checkpoint(graph, trained_state(graph), {"epochs_done": 1}, path)
    return path, path.read_bytes()


@pytest.mark.parametrize("cut,where", [
    ("version", "checkpoint header"),
    ("config length", "config text"),
    ("config payload", "config text"),
    ("metadata payload", "metadata text"),
])
def test_truncation_before_the_tensor_table_names_where_it_is(tmp_path, cut, where):
    path, blob = training_file(tmp_path)
    at = {"version": 5, "config length": 8, "config payload": 20,
          "metadata payload": checkpoint_offsets(blob)["metadata"] + 6}[cut]
    # the version is read before the CRC-32; a cut after it is sealed, so that
    # the parser reaches it
    path.write_bytes(blob[:at] if cut == "version" else seal(blob[:at]))
    with pytest.raises(CheckpointError, match=f"truncated {where}") as info:
        load_any(path)
    assert "tensor table" not in str(info.value)


@pytest.mark.parametrize("kind", ["deploy", "training"])
def test_every_cut_names_the_file_exactly_once(tmp_path, kind):
    graph = tiny_graph(Variant.PLAIN)
    path = tmp_path / "cut.ckpt"
    if kind == "deploy":
        save_checkpoint(graph, path)
        load = load_any
    else:
        save_training_checkpoint(graph, trained_state(graph), {"epochs_done": 1}, path)
        load = load_training_checkpoint
    blob = path.read_bytes()
    name = checkpoint_offsets(blob)["tensor name"]
    head = name + 2 + int.from_bytes(blob[name:name + 2], "little")
    payload = head + 2 + 4 * blob[head + 1]
    # every byte of the header, text blocks and first tensor header, then a
    # stride through the tensor table; each cut as it is (a CRC-32 mismatch)
    # and sealed (which the parser refuses)
    for at in [*range(payload + 1), *range(payload + 1, len(blob), 61)]:
        for data in (blob[:at], seal(blob[:at])):
            path.write_bytes(data)
            with pytest.raises(CheckpointError) as info:
                load(path)
            assert str(info.value).count(str(path)) == 1, (at, str(info.value))


@pytest.mark.parametrize("block", ["config", "metadata", "tensor name"])
def test_text_that_is_not_utf8_is_a_checkpoint_error(tmp_path, block):
    path, blob = training_file(tmp_path)
    at = checkpoint_offsets(blob)[block] + (2 if block == "tensor name" else 4)
    path.write_bytes(seal(blob[:at] + b"\xff" + blob[at + 1:-4]))
    for load in (load_training_checkpoint, load_any):
        with pytest.raises(CheckpointError, match=f"{block}( text)? is not UTF-8"):
            load(path)


@pytest.mark.parametrize("shape", [(2**21, 2**20), (3, 2**30, 2**30)],
                         ids=["2^43-bytes", "over-2^63-bytes"])
def test_a_payload_past_the_end_of_the_file_is_never_read(tmp_path, shape):
    path = tmp_path / "x.ckpt"
    save_checkpoint(tiny_graph(), path)
    path.write_bytes(declare_first_tensor(path.read_bytes(), shape))
    with pytest.raises(CheckpointError, match="truncated tensor table"):
        load_any(path)


def test_an_adam_moment_must_have_its_parameters_shape(tmp_path):
    graph = tiny_graph()
    adam = trained_state(graph)
    adam.m["l2.b"] = np.zeros(1, np.float32)
    save_training_checkpoint(graph, adam, {"epochs_done": 1}, tmp_path / "t.ckpt")
    for load in (load_training_checkpoint, load_any):
        with pytest.raises(CheckpointError, match=r"adam\.m\.l2\.b has shape \(1,\)"):
            load(tmp_path / "t.ckpt")


@pytest.mark.parametrize("meta,needle", [
    ("epochs_done=1\n", "missing adam_t"),
    ("adam_t=x\nepochs_done=1\n", "unparseable adam_t=x"),
], ids=["missing", "unparseable"])
def test_bad_optimizer_metadata_is_a_checkpoint_error(tmp_path, meta, needle):
    path = tmp_path / "t.ckpt"
    path.write_bytes(_serialize(TRAIN_MAGIC, tiny_graph(), meta, None))
    for load in (load_training_checkpoint, load_any):
        with pytest.raises(CheckpointError, match=needle):
            load(path)


@pytest.mark.parametrize("name", ["l4.w", "l2.running_var"])
def test_a_tensor_of_another_dtype_is_refused(tmp_path, name):
    # read as a float32 graph, such a file would give float64 eval outputs
    graph = tiny_graph()
    store = graph.params if name in graph.params else graph.stats
    store[name] = store[name].astype(np.float64)
    save_checkpoint(graph, tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match=rf"tensor {name} is float64 but tensor "
                                              r"l1b0\.b is float32"):
        load_any(tmp_path / "m.ckpt")


def test_adam_moments_of_another_dtype_are_refused(tmp_path):
    # float64 moments would turn float32 parameters float64 at the next step
    graph = tiny_graph()
    adam = trained_state(graph)
    adam.m = {k: m.astype(np.float64) for k, m in adam.m.items()}
    save_training_checkpoint(graph, adam, {"epochs_done": 1}, tmp_path / "t.ckpt")
    for load in (load_training_checkpoint, load_any):
        with pytest.raises(CheckpointError, match=r"tensor adam\.m\.l1b0\.b is float64"):
            load(tmp_path / "t.ckpt")


@pytest.mark.parametrize("name,value,needle", [
    ("l2.running_var", -0.5, "a negative variance"),
    ("l2.running_var", np.nan, "a non-finite value"),
    ("l9.b", np.nan, "a non-finite value"),
    ("l4.gamma", np.inf, "a non-finite value"),
    ("l1b1.running_mean", -np.inf, "a non-finite value"),
])
def test_a_non_finite_tensor_or_negative_variance_is_refused(tmp_path, name, value, needle):
    graph = tiny_graph()
    store = graph.params if name in graph.params else graph.stats
    store[name] = store[name].copy()
    store[name][0] = value
    path = tmp_path / "m.ckpt"
    save_checkpoint(graph, path)
    with pytest.raises(CheckpointError,
                       match=rf"^{re.escape(str(path))}: tensor {name} holds {needle}$"):
        load_any(path)


@pytest.mark.parametrize("moment", ["m", "v"])
def test_a_non_finite_adam_moment_is_refused(tmp_path, moment):
    graph = tiny_graph()
    adam = trained_state(graph)
    getattr(adam, moment)["l3.w"][0, 0, 0, 0] = np.nan
    save_training_checkpoint(graph, adam, {"epochs_done": 1}, tmp_path / "t.ckpt")
    for load in (load_training_checkpoint, load_any):
        with pytest.raises(CheckpointError,
                           match=rf"tensor adam\.{moment}\.l3\.w holds a non-finite value"):
            load(tmp_path / "t.ckpt")


def test_missing_tensor_is_reported_by_name(tmp_path):
    graph = tiny_graph()
    removed = graph.params.pop("l8.b")
    path = tmp_path / "x.ckpt"
    save_checkpoint(graph, path)
    graph.params["l8.b"] = removed
    with pytest.raises(CheckpointError, match="missing tensor l8.b"):
        load_any(path)


def test_config_text_round_trip():
    cfg = GraphConfig(channel_sequence=(4, 8, 16, 32), seed=9)
    text = config_text(Variant.DILATION, cfg)
    variant, back = parse_config_text(text)
    assert variant is Variant.DILATION
    assert back == cfg
    assert text == config_text(variant, back)
    assert "channel_sequence=4,8,16,32" in text
    keys = [line.partition("=")[0] for line in text.splitlines()]
    assert keys == ["channel_sequence", "seed", "variant"]  # sorted


def test_config_text_rejects_missing_and_unknown_keys():
    text = config_text(Variant.PLAIN, GraphConfig())
    pruned = "\n".join(l for l in text.splitlines() if not l.startswith("seed="))
    with pytest.raises(CheckpointError, match="missing keys.*seed"):
        parse_config_text(pruned)
    with pytest.raises(CheckpointError, match="unknown keys.*surprise"):
        parse_config_text(text + "surprise=1\n")
    # format 3's graph settings that the plan now fixes
    for key in ("dilation_rates=2,3,5", "loss=bce"):
        with pytest.raises(CheckpointError, match=f"unknown keys.*{key.partition('=')[0]}"):
            parse_config_text(text + key + "\n")
    with pytest.raises(CheckpointError, match="malformed"):
        parse_config_text("variant proposed\n")


def test_float64_graphs_keep_their_precision(tmp_path):
    graph = tiny_graph(dtype=np.float64, seed=6)
    path = tmp_path / "wide.ckpt"
    save_checkpoint(graph, path)
    back = load_any(path)
    assert back.dtype == np.float64
    npt.assert_array_equal(back.params["l4.w"], graph.params["l4.w"])
