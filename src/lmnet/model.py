"""The four-variant U-shaped landmark extraction network.

Canonical topology (nine convolution layers; spatial sizes for a 192x192
input, channel widths for the default sequence [5, 13, 89, 233]):

  layer 1  at 192: 3x3 conv 3->5, BN, ReLU.  Dilation/Proposed run three
           such kernels in parallel with dilation rates [2, 3, 5] and
           concatenate their outputs (15 channels); Plain/Residual run one
           kernel with dilation 1 (5 channels).
  layer 2  pool -> 96, 3x3 conv -> 13, BN, ReLU
  layer 3  pool -> 48, 3x3 conv -> 89, BN, ReLU
  layer 4  pool -> 24, 3x3 conv -> 233, BN, ReLU   (bottleneck activation)
  layer 5  upsample -> 48, concat activation 3 (skip variants), conv -> 89, ReLU
  layer 6  upsample -> 96, concat activation 2 (skip variants), conv -> 13, ReLU
  layer 7  upsample -> 192, concat activation 1 (skip variants), conv -> 5, ReLU
  layer 8  1x1 conv 5->5, ReLU
  layer 9  1x1 conv 5->1, sigmoid

Batch normalization exists in layers 1-4 only. Dropout defaults to rates
0.1 / 0.5 / 0.3 after activations 4 / 5 / 6. Residual and Proposed carry
the three skip concatenations; Dilation and Proposed carry the parallel
dilated first layer. Activations therefore run 192-96-48-24-48-96-192.

layer_plan states this once, as nine stages (one per activation). forward
walks the stages in order and keeps one StageRecord per stage, holding
only what backward reads: the input the stage's kernels read, their
batchnorm caches, the pool argmax, the dropout mask and the activation
after dropout. A decoder stage runs ops.upsample_conv2d, which reads the
low-resolution previous activation and the skip activation's own record,
so no upsampled or concatenated input is formed or kept. backward walks
the same records in reverse.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .seeding import derive_rng


class Variant(str, enum.Enum):
    PLAIN = "plain"
    DILATION = "dilation"
    RESIDUAL = "residual"
    PROPOSED = "proposed"

    @property
    def has_pyramid(self) -> bool:
        return self in (Variant.DILATION, Variant.PROPOSED)

    @property
    def has_skips(self) -> bool:
        return self in (Variant.RESIDUAL, Variant.PROPOSED)


VARIANT_NAMES = tuple(v.value for v in Variant)


def parse_variant(name) -> Variant:
    if isinstance(name, Variant):
        return name
    try:
        return Variant(str(name).lower())
    except ValueError:
        raise ConfigError(
            f"unknown variant {name!r}; expected one of: {', '.join(VARIANT_NAMES)}"
        ) from None


@dataclass(frozen=True)
class GraphConfig:
    """Structural hyperparameters shared by all variants."""

    input_size: tuple = (192, 192)
    input_channels: int = 3
    channel_sequence: tuple = (5, 13, 89, 233)
    dilation_rates: tuple = (2, 3, 5)
    dropout_schedule: tuple = ((4, 0.1), (5, 0.5), (6, 0.3))
    loss: str = "bce"
    bn_momentum: float = 0.1
    bn_epsilon: float = 1e-5
    seed: int = 0

    def violations(self, variant: Variant) -> list:
        """Every violated invariant as a human-readable string."""
        bad = []
        h, w = self.input_size
        if h % 8 or w % 8:
            bad.append(f"input size {h}x{w} must be divisible by 8 (three 2x poolings)")
        if h < 8 or w < 8:
            bad.append(f"input size {h}x{w} too small for three poolings")
        if self.input_channels < 1:
            bad.append(f"input_channels must be >= 1, got {self.input_channels}")
        if len(self.channel_sequence) != 4:
            bad.append(
                f"channel_sequence needs exactly 4 entries, got {len(self.channel_sequence)}"
            )
        if any(int(c) < 1 for c in self.channel_sequence):
            bad.append(f"channel_sequence entries must be >= 1, got {self.channel_sequence}")
        if variant.has_pyramid:
            if len(self.dilation_rates) != 3:
                bad.append(
                    f"dilation_rates needs exactly 3 entries for {variant.value}, "
                    f"got {len(self.dilation_rates)}"
                )
            if any(int(d) < 1 for d in self.dilation_rates):
                bad.append(f"dilation rates must be >= 1, got {self.dilation_rates}")
        for idx, rate in self.dropout_schedule:
            if not 1 <= int(idx) <= 7:
                bad.append(f"dropout index {idx} outside activation range 1..7")
            if not 0.0 <= float(rate) < 1.0:
                bad.append(f"dropout rate {rate} outside [0, 1)")
        if self.loss not in ops.LOSSES:
            bad.append(f"loss must be one of {sorted(ops.LOSSES)}, got {self.loss!r}")
        if not 0.0 < self.bn_momentum < 1.0:
            bad.append(f"bn_momentum must lie in (0, 1), got {self.bn_momentum}")
        if not self.bn_epsilon > 0.0:
            bad.append(f"bn_epsilon must be positive, got {self.bn_epsilon}")
        return bad


@dataclass(frozen=True)
class ConvSpec:
    """One convolution kernel in the plan."""

    name: str
    layer: int
    in_channels: int
    out_channels: int
    kernel: int
    dilation: int
    has_bn: bool


@dataclass(frozen=True)
class Stage:
    """One activation of the network, in forward order.

    pre says what feeds the stage's kernels: "" (the previous activation, or
    the input batch for the first stage), "pool" (a 2x2 max-pool of it) or
    "upsample" (a nearest 2x upsample, followed by the activation numbered
    `skip` concatenated on the channel axis when skip is set; the kernels
    apply both fused, through ops.upsample_conv2d). All kernels read that
    one input; their outputs are concatenated and pass through `act` (an
    ops function name) into the stage's activation.
    """

    index: int
    convs: tuple
    pre: str = ""
    skip: int | None = None
    act: str = "relu"


@dataclass(frozen=True)
class LayerPlan:
    stages: tuple  # one Stage per activation index, 1..9

    @property
    def all_convs(self) -> tuple:
        return tuple(spec for stage in self.stages for spec in stage.convs)


def layer_plan(variant: Variant, config: GraphConfig) -> LayerPlan:
    """The network topology; the only code that knows it."""
    c1, c2, c3, c4 = (int(c) for c in config.channel_sequence)
    cin = config.input_channels
    if variant.has_pyramid:
        first = tuple(
            ConvSpec(f"l1b{i}", 1, cin, c1, 3, int(d), True)
            for i, d in enumerate(config.dilation_rates)
        )
    else:
        first = (ConvSpec("l1", 1, cin, c1, 3, 1, True),)
    a1 = c1 * len(first)
    # decoder layer -> the encoder activation concatenated into it
    skips = {5: 3, 6: 2, 7: 1} if variant.has_skips else {}
    width = {1: a1, 2: c2, 3: c3}

    def conv(layer, c_in, c_out, kernel=3, bn=False):
        return (ConvSpec(f"l{layer}", layer, c_in, c_out, kernel, 1, bn),)

    def up(layer, c_in, c_out):
        src = skips.get(layer)
        c_skip = width[src] if src else 0
        return Stage(layer, conv(layer, c_in + c_skip, c_out), "upsample", src)

    return LayerPlan((
        Stage(1, first),
        Stage(2, conv(2, a1, c2, bn=True), "pool"),
        Stage(3, conv(3, c2, c3, bn=True), "pool"),
        Stage(4, conv(4, c3, c4, bn=True), "pool"),
        up(5, c4, c3),
        up(6, c3, c2),
        up(7, c2, c1),
        Stage(8, conv(8, c1, c1, kernel=1)),
        Stage(9, conv(9, c1, 1, kernel=1), act="sigmoid"),
    ))


@dataclass
class StageRecord:
    """What one stage's forward pass keeps for the backward pass: only what backward reads.

    For an upsample stage conv_in is the low-resolution previous activation;
    the skip input is the `act` of the skip stage's own record.
    """

    conv_in: np.ndarray = None  # the input all of the stage's kernels read
    bn: list = field(default_factory=list)  # batchnorm caches, in kernel order
    argmax: np.ndarray = None   # pool argmax, for a pooling stage
    mask: np.ndarray = None     # dropout mask, when the stage drops
    act: np.ndarray = None      # the stage's activation after dropout


@dataclass
class ForwardCache:
    """What forward returns beside the prediction: its mode and one
    StageRecord per plan stage."""

    mode: str
    stages: list


class ModelGraph:
    """A built network: plan plus parameter and statistics tensors.

    params maps names like "l2.w" / "l1b0.gamma" to arrays; stats holds the
    batchnorm running statistics. Both dicts are flat so the optimizer and
    the checkpoint code can treat them uniformly.
    """

    def __init__(self, variant: Variant, config: GraphConfig, dtype=np.float32):
        self.variant = variant
        self.config = config
        self.dtype = np.dtype(dtype)
        self.plan = layer_plan(variant, config)
        self.params: dict = {}
        self.stats: dict = {}
        for spec in self.plan.all_convs:
            self.params[f"{spec.name}.w"] = np.zeros(
                (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel), dtype=self.dtype
            )
            self.params[f"{spec.name}.b"] = np.zeros(spec.out_channels, dtype=self.dtype)
            if spec.has_bn:
                self.params[f"{spec.name}.gamma"] = np.ones(spec.out_channels, dtype=self.dtype)
                self.params[f"{spec.name}.beta"] = np.zeros(spec.out_channels, dtype=self.dtype)
                self.stats[f"{spec.name}.running_mean"] = np.zeros(spec.out_channels, dtype=self.dtype)
                self.stats[f"{spec.name}.running_var"] = np.ones(spec.out_channels, dtype=self.dtype)

    # -- parameter counts -----------------------------------------------

    def param_count(self) -> int:
        """Graph-walk count over conv weights, biases, gamma and beta."""
        return sum(int(p.size) for p in self.params.values())

    def layer_param_counts(self) -> list:
        """Per conv-spec parameter tallies for reporting."""
        return [
            (spec, sum(int(p.size) for k, p in self.params.items() if k.split(".")[0] == spec.name))
            for spec in self.plan.all_convs
        ]

    # -- helpers ----------------------------------------------------------

    def _conv_params(self, spec: ConvSpec) -> ops.ConvParams:
        return ops.ConvParams(
            self.params[f"{spec.name}.w"], self.params[f"{spec.name}.b"], spec.dilation
        )

    def _bn_state(self, spec: ConvSpec) -> ops.BatchNormState:
        return ops.BatchNormState(
            gamma=self.params[f"{spec.name}.gamma"],
            beta=self.params[f"{spec.name}.beta"],
            running_mean=self.stats[f"{spec.name}.running_mean"],
            running_var=self.stats[f"{spec.name}.running_var"],
            momentum=self.config.bn_momentum,
            epsilon=self.config.bn_epsilon,
        )

    def astype(self, dtype) -> "ModelGraph":
        """Copy of this graph with all tensors cast to `dtype`."""
        other = ModelGraph(self.variant, self.config, dtype=dtype)
        other.params = {k: v.astype(dtype) for k, v in self.params.items()}
        other.stats = {k: v.astype(dtype) for k, v in self.stats.items()}
        return other

    # -- forward / backward ----------------------------------------------

    def forward(self, batch: np.ndarray, mode: str, rng: np.random.Generator | None = None):
        """Run the network; returns (prediction, cache).

        mode is "train" (batch statistics, dropout active, cache usable for
        backward) or "eval" (running statistics, dropout off, deterministic).
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"forward mode must be 'train' or 'eval', got {mode!r}")
        ops._require_4d("forward batch", batch)
        n, c, h, w = batch.shape
        eh, ew = self.config.input_size
        if c != self.config.input_channels or (h, w) != (eh, ew):
            raise ShapeError(
                f"batch shape {batch.shape} does not match configured input "
                f"(n, {self.config.input_channels}, {eh}, {ew})"
            )
        if mode == "train" and n < 2:
            raise ShapeError("train-mode forward needs a batch of at least 2 samples")
        drop = {}
        if mode == "train":
            drop = {int(i): float(r) for i, r in self.config.dropout_schedule}
        if any(r > 0 for r in drop.values()) and rng is None:
            raise ValueError("train-mode forward needs an rng for dropout")

        cur = batch.astype(self.dtype, copy=False)
        records = []
        for stage in self.plan.stages:
            rec = StageRecord()
            if stage.pre == "pool":
                cur, rec.argmax = ops.maxpool2(cur)
            rec.conv_in = cur
            skip = records[stage.skip - 1].act if stage.skip else None
            zs = [self._kernel_forward(stage, s, cur, skip, mode, rec.bn) for s in stage.convs]
            a = getattr(ops, stage.act)(zs[0] if len(zs) == 1 else np.concatenate(zs, axis=1))
            rate = drop.get(stage.index, 0.0)
            if rate > 0.0:
                a, rec.mask = ops.dropout(a, rate, rng, "train")
            rec.act = cur = a
            records.append(rec)
        return cur, ForwardCache(mode, records)

    def _kernel_forward(self, stage: Stage, spec: ConvSpec, x: np.ndarray, skip, mode: str,
                        bn: list):
        """conv (fused with the upsample and skip of a decoder stage), then
        batchnorm when the spec has it, appending its cache to `bn`."""
        if stage.pre == "upsample":
            z = ops.upsample_conv2d(x, skip, self._conv_params(spec))
        else:
            z = ops.conv2d(x, self._conv_params(spec))
        if spec.has_bn:
            state = self._bn_state(spec)
            z, bncache = ops.batchnorm(z, state, mode)
            bn.append(bncache)
            # train mode leaves updated running statistics on `state`
            self.stats[f"{spec.name}.running_mean"] = state.running_mean
            self.stats[f"{spec.name}.running_var"] = state.running_var
        return z

    def backward(self, cache: ForwardCache, grad_pred: np.ndarray) -> dict:
        """Gradients of the scalar whose d(pred) is `grad_pred`, for every parameter."""
        if not isinstance(cache, ForwardCache):
            raise ValueError("backward needs the cache returned by a forward call")
        if cache.mode != "train":
            raise ValueError("backward needs a cache from a train-mode forward")
        pred = cache.stages[-1].act
        if grad_pred.shape != pred.shape:
            raise ShapeError(
                f"grad_pred shape {grad_pred.shape} does not match prediction {pred.shape}"
            )
        grads = {}
        skip_grads = {}  # activation index -> cotangent of its use as a skip input
        g = grad_pred
        for stage, rec in zip(reversed(self.plan.stages), reversed(cache.stages)):
            # here g is d(activation `stage.index` after dropout)
            if stage.index in skip_grads:
                g = g + skip_grads.pop(stage.index)
            if rec.mask is not None:
                g = ops.dropout_backward(g, rec.mask)
            # relu gated on the activation after dropout gives the bits of gating before it:
            # where the mask is 0 the cotangent is already +-0, where it is positive the two
            # share a sign. Stage 9 (sigmoid) never drops: dropout is allowed on 1-7 only.
            g = getattr(ops, f"{stage.act}_backward")(g, rec.act)
            skip = cache.stages[stage.skip - 1].act if stage.skip else None
            g, g_skip = self._kernels_backward(stage, rec, skip, g, grads)
            if g_skip is not None:
                skip_grads[stage.skip] = g_skip
            if stage.pre == "pool":
                n, c, h, w = g.shape
                g = ops.maxpool2_backward(g, rec.argmax, (n, c, 2 * h, 2 * w))
        return grads

    def _kernels_backward(self, stage: Stage, rec: StageRecord, skip, g: np.ndarray,
                          grads: dict):
        """d(stage pre-activation) -> (d(conv input), d(skip input)), filling
        `grads` for the stage's kernels.

        The first stage reads the input batch, which has no gradient, so its
        d(conv input) is None; d(skip input) is None without a skip.
        """
        need_input = stage is not self.plan.stages[0]
        bn = iter(rec.bn)
        g_in = g_skip = None
        start = 0
        for spec in stage.convs:
            gk = g[:, start : start + spec.out_channels]
            start += spec.out_channels
            if spec.has_bn:
                gk, grads[f"{spec.name}.gamma"], grads[f"{spec.name}.beta"] = (
                    ops.batchnorm_backward(next(bn), gk)
                )
            params = self._conv_params(spec)
            if stage.pre == "upsample":
                gx, gs, grads[f"{spec.name}.w"], grads[f"{spec.name}.b"] = (
                    ops.upsample_conv2d_backward(rec.conv_in, skip, params, gk)
                )
                if gs is not None:
                    g_skip = gs if g_skip is None else g_skip + gs
            else:
                # need_input goes positionally: perfbench's tracer wraps conv2d_backward
                # as call(x, params, *rest), which takes no keywords
                gx, grads[f"{spec.name}.w"], grads[f"{spec.name}.b"] = ops.conv2d_backward(
                    rec.conv_in, params, gk, need_input
                )
            if need_input:
                g_in = gx if g_in is None else g_in + gx
        return g_in, g_skip


def build_model(variant, config: GraphConfig | None = None, dtype=np.float32) -> ModelGraph:
    """Validate the (variant, config) pair and construct an uninitialized graph."""
    variant = parse_variant(variant)
    config = config or GraphConfig()
    bad = config.violations(variant)
    if bad:
        raise ConfigError(
            "invalid graph configuration:\n  - " + "\n  - ".join(bad)
        )
    return ModelGraph(variant, config, dtype=dtype)


def init_parameters(graph: ModelGraph, seed: int | None = None) -> ModelGraph:
    """Kaiming-normal weights (std sqrt(2 / (c_in * k^2))); every other
    tensor gets the default ModelGraph gives it.

    Fully determined by the seed (config.seed when not given); draws happen
    in a fixed layer order in float64 before casting, so float32 and float64
    graphs from the same seed hold the same values.
    """
    if seed is None:
        seed = graph.config.seed
    rng = derive_rng(seed, 0)
    fresh = ModelGraph(graph.variant, graph.config, dtype=graph.dtype)
    for name in (f"{spec.name}.w" for spec in graph.plan.all_convs):
        w = fresh.params[name]  # (c_out, c_in, k, k), so w[0].size is the fan-in
        fresh.params[name] = rng.normal(0.0, np.sqrt(2.0 / w[0].size), w.shape).astype(graph.dtype)
    graph.params.update(fresh.params)
    graph.stats.update(fresh.stats)
    return graph


def replace_input_size(graph: ModelGraph, input_size) -> ModelGraph:
    """The same parameters on a graph rebuilt for another spatial size.

    Every layer is convolutional, so parameter shapes are independent of the
    input size; only the shape validation metadata changes.
    """
    config = replace(graph.config, input_size=tuple(int(s) for s in input_size))
    other = build_model(graph.variant, config, dtype=graph.dtype)
    other.params = dict(graph.params)
    other.stats = dict(graph.stats)
    return other


def closed_form_param_count(variant, config: GraphConfig | None = None) -> int:
    """Arithmetic parameter count from the plan alone (no tensors)."""
    variant = parse_variant(variant)
    config = config or GraphConfig()
    total = 0
    for spec in layer_plan(variant, config).all_convs:
        total += spec.out_channels * spec.in_channels * spec.kernel * spec.kernel
        total += spec.out_channels  # bias
        if spec.has_bn:
            total += 2 * spec.out_channels  # gamma, beta
    return total


def loss_fn(kind: str):
    try:
        return ops.LOSSES[kind]
    except KeyError:
        raise ConfigError(f"loss must be one of {sorted(ops.LOSSES)}, got {kind!r}") from None
