"""Spans recorded from outside the package, around its public calls.

`instrument(tracer)` replaces each traced function at the attribute where
its caller looks it up (for example `lmnet.ops.conv2d`, which `model.py`
calls as `ops.conv2d`, or `lmnet.train.adam_step`, which `train.py`
imported by name) and returns a function that puts every original back.
Nothing inside `src/` is changed.

A span is (name, start, end, parent, attrs). Self time is a span's duration
minus the time its direct children cover; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import lmnet.checkpoint
import lmnet.data
import lmnet.imgio
import lmnet.model
import lmnet.ops
import lmnet.train

LAYERS = ("ops", "model", "optim", "data", "imgio", "metrics", "checkpoint", "train")

POINTWISE = ("relu", "relu_backward", "sigmoid", "sigmoid_backward",
             "dropout", "dropout_backward")


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, attrs]
        self._stack = []

    def span(self, name, fn, *args, attrs=None, **kwargs):
        """Call fn inside a span; attrs may be a callable of the result."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        rec[4] = attrs(out) if callable(attrs) else attrs
        return out

    def self_times(self) -> list:
        """Self seconds per span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def conv_specs(graph) -> dict:
    """(c_out, c_in, k, dilation) -> spec name, from the graph's layer_plan.

    The key is unique per spec in every variant, so a call's ConvParams name
    the layer without any hook inside the model.
    """
    return {(s.out_channels, s.in_channels, s.kernel, s.dilation): s.name
            for s in graph.plan.all_convs}


def instrument(tracer: Tracer, specs: dict):
    """Patch every traced call site; returns a function restoring them."""
    saved = []

    def patch(owner, attr, wrapper):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def plain(name):
        return lambda fn: lambda *a, **k: tracer.span(name, fn, *a, **k)

    def conv(direction):
        def wrap(fn):
            def call(x, params, *rest):
                c_out, k = params.out_channels, params.kernel_size
                spec = specs[(c_out, params.in_channels, k, params.dilation)]
                col = x.size * k * k  # column matrix entries: n * c*k*k * h*w
                macs = col * c_out * (1 if direction == "fwd" else 2)
                return tracer.span(f"ops.conv2d.{direction}", fn, x, params, *rest,
                                   attrs={"spec": spec, "macs": macs,
                                          "col_bytes": col * x.dtype.itemsize})
            return call
        return wrap

    def sized(name, path_arg):
        """Span with the byte size of the file the call read or wrote."""
        def wrap(fn):
            def call(*args):
                path = args[path_arg]
                return tracer.span(name, fn, *args,
                                   attrs=lambda _: {"bytes": os.path.getsize(path)})
            return call
        return wrap

    def batches(fn):
        def call(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    batch = tracer.span("data.batch_wait", next, it)
                except StopIteration:
                    return
                yield batch
        return call

    ops = lmnet.ops
    patch(ops, "conv2d", conv("fwd"))
    patch(ops, "conv2d_backward", conv("bwd"))
    for attr, name in (("batchnorm", "ops.batchnorm.fwd"),
                       ("batchnorm_backward", "ops.batchnorm.bwd"),
                       ("maxpool2", "ops.maxpool2.fwd"),
                       ("maxpool2_backward", "ops.maxpool2.bwd"),
                       ("upsample_nearest2", "ops.upsample_nearest2.fwd"),
                       ("upsample_nearest2_backward", "ops.upsample_nearest2.bwd"),
                       ("concat_channels", "ops.concat_channels"),
                       ("split_channels", "ops.split_channels")):
        patch(ops, attr, plain(name))
    for attr in POINTWISE:
        patch(ops, attr, plain("ops.pointwise"))
    # model.loss_fn looks the loss up in this table at call time
    saved.append((ops.LOSSES, "bce", ops.LOSSES["bce"]))
    ops.LOSSES["bce"] = plain("ops.bce_loss")(ops.LOSSES["bce"])

    patch(lmnet.model.ModelGraph, "forward", plain("model.forward"))
    patch(lmnet.model.ModelGraph, "backward", plain("model.backward"))
    patch(lmnet.model, "replace_input_size", plain("model.replace_input_size"))

    tr = lmnet.train
    patch(tr, "train", plain("train"))
    patch(tr, "evaluate", plain("train.evaluate"))
    patch(tr, "adam_step", plain("optim.adam_step"))
    patch(tr, "confusion", plain("metrics.confusion"))
    patch(tr, "batch_iter", batches)
    patch(tr, "save_checkpoint", sized("checkpoint.save", -1))
    patch(tr, "save_training_checkpoint", sized("checkpoint.save", -1))
    patch(tr, "load_training_checkpoint", sized("checkpoint.load", 0))
    patch(lmnet.checkpoint, "load_any", sized("checkpoint.load", 0))
    patch(lmnet.data, "load_pair", plain("data.load_pair"))
    for attr in ("read_rgb", "read_gray"):
        patch(lmnet.imgio, attr, sized("imgio.read", 0))
    for attr in ("write_rgb", "write_gray"):
        patch(lmnet.imgio, attr, sized("imgio.write", 0))

    def restore():
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    return restore


# spatial downscale of each layer's input relative to the network input
_LAYER_SCALE = {1: 1, 2: 2, 3: 4, 4: 8, 5: 4, 6: 2, 7: 1, 8: 1, 9: 1}


def plan_macs(graph, size) -> int:
    """Forward multiply-accumulates of one sample, from the layer_plan shapes."""
    h, w = size
    total = 0
    for s in graph.plan.all_convs:
        f = _LAYER_SCALE[s.layer]
        total += (h // f) * (w // f) * s.out_channels * s.in_channels * s.kernel ** 2
    return total


# (metric, span name, what): "s" sums inclusive span time, "self" sums self
# time, "calls" counts spans, "bytes" sums the bytes attribute
_SIMPLE = (
    ("ops.upsample_nearest2.fwd_s", "ops.upsample_nearest2.fwd", "s"),
    ("ops.upsample_nearest2.bwd_s", "ops.upsample_nearest2.bwd", "s"),
    ("ops.concat_channels.s", "ops.concat_channels", "s"),
    ("ops.split_channels.s", "ops.split_channels", "s"),
    ("ops.batchnorm.fwd_s", "ops.batchnorm.fwd", "s"),
    ("ops.batchnorm.bwd_s", "ops.batchnorm.bwd", "s"),
    ("ops.maxpool2.fwd_s", "ops.maxpool2.fwd", "s"),
    ("ops.maxpool2.bwd_s", "ops.maxpool2.bwd", "s"),
    ("ops.pointwise.s", "ops.pointwise", "s"),
    ("ops.bce_loss.s", "ops.bce_loss", "s"),
    ("model.forward.self_s", "model.forward", "self"),
    ("model.backward.self_s", "model.backward", "self"),
    ("optim.adam_step.s", "optim.adam_step", "s"),
    ("optim.adam_step.calls", "optim.adam_step", "calls"),
    ("train.self_s", "train", "self"),
    ("train.evaluate.s", "train.evaluate", "s"),
    ("data.batch_wait_s", "data.batch_wait", "s"),
    ("data.load_pair.s", "data.load_pair", "s"),
    ("data.load_pair.calls", "data.load_pair", "calls"),
    ("imgio.read.s", "imgio.read", "s"),
    ("imgio.read.bytes", "imgio.read", "bytes"),
    ("imgio.write.s", "imgio.write", "s"),
    ("imgio.write.bytes", "imgio.write", "bytes"),
    ("metrics.confusion.s", "metrics.confusion", "s"),
    ("checkpoint.save.s", "checkpoint.save", "s"),
    ("checkpoint.save.bytes", "checkpoint.save", "bytes"),
    ("checkpoint.load.s", "checkpoint.load", "s"),
)
_UNITS = {"s": "s/op", "self": "s/op", "calls": "count/op", "bytes": "B/op"}


def per_layer(tracer: Tracer, graph, size, traced: list, untraced: list) -> dict:
    """Per-layer metrics, per traced operation: name -> (value, unit).

    traced / untraced are the wall seconds of each operation run with and
    without tracing; the difference of their medians is the tracing overhead.
    """
    n_ops = len(traced)
    own = tracer.self_times()
    acc = {}
    conv = {}
    col = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _, attrs), self_s in zip(tracer.spans, own):
        a = acc.setdefault(name, {"s": 0.0, "self": 0.0, "calls": 0, "bytes": 0})
        a["s"] += end - start
        a["self"] += self_s
        a["calls"] += 1
        a["bytes"] += (attrs or {}).get("bytes", 0)
        layer_self[name.split(".")[0]] += self_s
        if name.startswith("ops.conv2d."):
            c = conv.setdefault((attrs["spec"], name[-3:]), [0.0, 0])
            c[0] += self_s
            c[1] += attrs["macs"]
            if name.endswith("fwd"):
                col[attrs["spec"]] = max(col.get(attrs["spec"], 0), attrs["col_bytes"])

    out = {}
    conv_s = 0.0
    for s in graph.plan.all_convs:
        for d in ("fwd", "bwd"):
            secs, macs = conv.get((s.name, d), (0.0, 0))
            conv_s += secs
            out[f"ops.conv2d.{s.name}.{d}_s"] = (secs / n_ops, "s/op")
            out[f"ops.conv2d.{s.name}.{d}_gflops"] = (
                2 * macs / secs / 1e9 if secs else 0.0, "GFLOP/s")
        out[f"ops.conv2d.{s.name}.col_bytes"] = (col.get(s.name, 0), "B")
    out["ops.conv2d.macs_per_sample"] = (plan_macs(graph, size), "MAC")
    empty = {"s": 0.0, "self": 0.0, "calls": 0, "bytes": 0}
    for metric, span, what in _SIMPLE:
        out[metric] = (acc.get(span, empty)[what] / n_ops, _UNITS[what])
    for layer, secs in layer_self.items():
        out[f"layer.{layer}.self_s"] = (secs / n_ops, "s/op")
    traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
    out["trace.op_s"] = (traced_s, "s")
    out["trace.untraced_op_s"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.conv_share"] = (conv_s / sum(traced), "ratio")
    return out
