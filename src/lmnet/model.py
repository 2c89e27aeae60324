"""The four-variant U-shaped landmark extraction network.

Canonical topology (nine convolution layers; spatial sizes for a 192x192
input, channel widths for the default sequence [5, 13, 89, 233]):

  layer 1  at 192: 3x3 conv 3->5, BN, ReLU.  Dilation/Proposed run three
           such kernels in parallel at PYRAMID_DILATIONS (2, 3, 5), each
           writing its BN output into its channel slice of one 15-channel
           array (the bits of concatenating them); Plain/Residual run one
           kernel with dilation 1 (5 channels).
  layer 2  pool -> 96, 3x3 conv -> 13, BN, ReLU
  layer 3  pool -> 48, 3x3 conv -> 89, BN, ReLU
  layer 4  pool -> 24, 3x3 conv -> 233, BN, ReLU   (bottleneck activation)
  layer 5  upsample -> 48, concat activation 3 (skip variants), conv -> 89, ReLU
  layer 6  upsample -> 96, concat activation 2 (skip variants), conv -> 13, ReLU
  layer 7  upsample -> 192, concat activation 1 (skip variants), conv -> 5, ReLU
  layer 8  1x1 conv 5->5, ReLU
  layer 9  1x1 conv 5->1, sigmoid

The input is RGB (INPUT_CHANNELS). Batch normalization exists in layers
1-4 only, at ops.BN_MOMENTUM and ops.BN_EPSILON; a train-mode forward
stores the running statistics ops.batchnorm returns in ModelGraph.stats,
and an eval forward reads them and leaves them in place. A train-mode
forward applies dropout at rates 0.1 / 0.5 / 0.3 after activations
4 / 5 / 6. Residual and Proposed carry the three skip concatenations;
Dilation and Proposed carry the parallel dilated first layer. Activations
therefore run 192-96-48-24-48-96-192. The input channels, the pyramid's
dilation rates, batch norm, dropout and the loss (binary cross-entropy on
the sigmoid output, ops.bce_loss) are fixed, not settings: GraphConfig
holds only the channel widths and the initialization seed. Every layer is
convolutional, so the input size belongs to the data, not to the graph:
forward takes any input whose sides lie on POOL_GRID.

layer_plan states this once, as nine stages (one per activation, each
with its dropout rate). forward walks the stages in order, and in both
modes batch norm and ReLU overwrite the fresh conv output (a train batch
norm keeps its xhat apart, in its cache). In train mode it keeps one
StageRecord per stage, holding only what backward reads: the input the
stage's kernels read, their batchnorm caches and the activation after
dropout. A pool's adjoint reads the pool's input (the previous activation)
and output (the kernels' input). In eval mode forward keeps no records and
returns no cache. It runs the stage loop on each sample alone, each result
going into one output array: batch norm reads running statistics and every
kernel computes a sample on its own, so a sample gets the bits it would get
in any batch, and the working set is that of the samples in flight,
whatever the batch size. When ops.WORKERS samples together hold no more
than TILE_PIXELS pixels, ops._each deals whole samples to the workers, a
sample's kernels inline in its thread; otherwise one sample (or tile) at
a time runs with its kernels split across the workers. The loop
holds each activation only until its last reader, the next stage, has run;
the activation a later stage reads as its skip is kept as its product with
that stage's skip weights (ops.skip_conv2d), formed as the activation is
and added to by the reader: proposed's stage 7 then keeps 5 planes, not
activation 1's 15. The input may be the 8-bit levels of images, which a
train forward scales to [0, 1] whole and an eval forward one sample or tile
at a time, as imgio.read_rgb would.
A sample of more than TILE_PIXELS pixels runs in overlapping tiles, the
overlap-tile scheme of U-Net (Ronneberger et al., 2015); one within the
budget is a single tile. tile_plan cuts the input on POOL_GRID into
interiors, each widened on every side by the plan's halo (its
receptive-field radius rounded up to POOL_GRID) and clipped to the input,
and the stage loop's output on each interior goes into the output array.
No interior pixel reads an input pixel outside its tile, and the tiles pool
on the whole input's grid, so a tile computes the whole-image values; its
narrower matmuls may round them differently. The working set is then one
tile's, whatever the scene's size. A train forward runs the whole batch
at once and never tiles: batch statistics span the whole batch.
A decoder stage runs ops.upsample_conv2d, which reads the
low-resolution previous activation and the skip activation itself (or, in
eval mode, adds into its product), so no upsampled or concatenated input is
formed or kept. backward walks
the train records in reverse and consumes them: a record goes once its
stage's adjoint has run, since the next stage's pool adjoint, the other
reader of its activation, runs before it. A cache serves one backward.

A forward and a backward hold numpy's OpenBLAS at one thread and run their
kernels' work on the ops module's worker threads (see ops): a train step's
samples, an eval forward's small samples whole, or a tile's conv strips and
channel parts. So neither a train step's bits nor an eval forward's depend
on the BLAS thread count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import imgio, ops
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


# three 2x poolings: every input side is a positive multiple of this
POOL_GRID = 8
INPUT_CHANNELS = 3  # RGB
PYRAMID_DILATIONS = (2, 3, 5)  # the parallel first-layer kernels of Dilation/Proposed


def pool_grid_problem(what: str, dims) -> str | None:
    """Why `dims` cannot be a network input's sides, or None when each is a
    positive multiple of POOL_GRID."""
    if all(d >= POOL_GRID and d % POOL_GRID == 0 for d in dims):
        return None
    return (f"{what} {'x'.join(str(d) for d in dims)} must be at least {POOL_GRID} "
            f"and divisible by {POOL_GRID} (three 2x poolings)")


@dataclass(frozen=True)
class GraphConfig:
    """The structural choices a caller makes; layer_plan fixes the rest."""

    channel_sequence: tuple = (5, 13, 89, 233)
    seed: int = 0

    def violations(self) -> list:
        """Every violated invariant as a human-readable string."""
        bad = []
        if len(self.channel_sequence) != 4:
            bad.append(
                f"channel_sequence needs exactly 4 entries, got {len(self.channel_sequence)}"
            )
        if any(int(c) < 1 for c in self.channel_sequence):
            bad.append(f"channel_sequence entries must be >= 1, got {self.channel_sequence}")
        if int(self.seed) < 0:
            bad.append(f"seed must be >= 0, got {self.seed}")
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
    ops function name) into the stage's activation. When `drop` is set, a
    train-mode forward applies dropout at that rate to the activation.
    """

    index: int
    convs: tuple
    pre: str = ""
    skip: int | None = None
    act: str = "relu"
    drop: float = 0.0


@dataclass(frozen=True)
class LayerPlan:
    stages: tuple  # one Stage per activation index, 1..9

    @property
    def all_convs(self) -> tuple:
        return tuple(spec for stage in self.stages for spec in stage.convs)

    @property
    def skip_readers(self) -> dict:
        """The activations a later stage reads as its skip: index -> that stage."""
        return {stage.skip: stage for stage in self.stages if stage.skip}

    @property
    def radius(self) -> int:
        """The receptive-field radius in input pixels: an output pixel reads
        no input pixel farther than this along either axis. A stage at scale
        s (pixels per activation pixel) reaches s * d * (k - 1) / 2 pixels
        through its widest kernel; each upsample aligns what it reads to the
        coarser activation's blocks, which adds at most top - 1 pixels in
        all, for the coarsest scale top."""
        scale = top = 1
        reach = 0
        for stage in self.stages:
            if stage.pre == "pool":
                scale *= 2
            elif stage.pre == "upsample":
                scale //= 2
            top = max(top, scale)
            reach += scale * max(s.dilation * (s.kernel - 1) // 2 for s in stage.convs)
        return reach + top - 1

    @property
    def halo(self) -> int:
        """The radius rounded up to POOL_GRID: the margin an eval tile adds
        on each side of its interior, so tiles stay on the pooling grid."""
        return -(-self.radius // POOL_GRID) * POOL_GRID


def layer_plan(variant: Variant, config: GraphConfig) -> LayerPlan:
    """The network topology; the only code that knows it."""
    c1, c2, c3, c4 = (int(c) for c in config.channel_sequence)
    if variant.has_pyramid:
        first = tuple(
            ConvSpec(f"l1b{i}", 1, INPUT_CHANNELS, c1, 3, d, True)
            for i, d in enumerate(PYRAMID_DILATIONS)
        )
    else:
        first = (ConvSpec("l1", 1, INPUT_CHANNELS, c1, 3, 1, True),)
    a1 = c1 * len(first)
    # decoder layer -> the encoder activation concatenated into it
    skips = {5: 3, 6: 2, 7: 1} if variant.has_skips else {}
    width = {1: a1, 2: c2, 3: c3}

    def conv(layer, c_in, c_out, kernel=3, bn=False):
        return (ConvSpec(f"l{layer}", layer, c_in, c_out, kernel, 1, bn),)

    def up(layer, c_in, c_out, drop=0.0):
        src = skips.get(layer)
        c_skip = width[src] if src else 0
        return Stage(layer, conv(layer, c_in + c_skip, c_out), "upsample", src, drop=drop)

    return LayerPlan((
        Stage(1, first),
        Stage(2, conv(2, a1, c2, bn=True), "pool"),
        Stage(3, conv(3, c2, c3, bn=True), "pool"),
        Stage(4, conv(4, c3, c4, bn=True), "pool", drop=0.1),
        up(5, c4, c3, drop=0.5),
        up(6, c3, c2, drop=0.3),
        up(7, c2, c1),
        Stage(8, conv(8, c1, c1, kernel=1)),
        Stage(9, conv(9, c1, 1, kernel=1), act="sigmoid"),
    ))


# An eval forward of a larger input runs in overlapping tiles of at most this
# many pixels per sample, halo included
TILE_PIXELS = 1 << 19


def _spans(size: int, parts: int, halo: int) -> list:
    """`parts` near-equal spans of [0, size) cut on POOL_GRID, as (interior,
    extent) slice pairs: the extent is the interior widened by `halo` on each
    side and clipped to [0, size)."""
    cuts = [size // POOL_GRID * i // parts * POOL_GRID for i in range(parts + 1)]
    return [(slice(a, b), slice(max(a - halo, 0), min(b + halo, size)))
            for a, b in zip(cuts, cuts[1:])]


def _within(inner: slice, outer: slice) -> slice:
    """`inner` counted from the start of `outer`."""
    return slice(inner.start - outer.start, inner.stop - outer.start)


def _extents(spans) -> list:
    return [ext.stop - ext.start for _, ext in spans]


def tile_plan(h: int, w: int, halo: int, budget: int) -> list:
    """Overlapping tiles of an h x w input whose extents hold at most `budget`
    pixels (sides and halo on POOL_GRID): a list of ((interior rows, extent rows),
    (interior cols, extent cols)) slice pairs whose interiors cover the input
    once. For each count of row bands it takes the fewest columns that fit;
    of those grids, the one that computes the fewest pixels, and of equals,
    the one with fewer columns: full-width bands where they fit."""
    narrowest = min(w, POOL_GRID + 2 * halo)  # the widest extent of the finest columns
    best = plan = None
    for ny in range(1, h // POOL_GRID + 1):
        # each cut adds at least min(halo, POOL_GRID) rows to either band it bounds
        if best and (h + 2 * min(halo, POOL_GRID) * (ny - 1)) * w > best[0]:
            break
        rows = _spans(h, ny, halo)
        limit = budget // max(_extents(rows))
        if limit < narrowest:
            continue
        nx = -(-w // limit)
        while max(_extents(cols := _spans(w, nx, halo))) > limit:
            nx += 1
        key = (sum(_extents(rows)) * sum(_extents(cols)), nx)
        if best is None or key < best:
            best, plan = key, [(r, c) for r in rows for c in cols]
    if plan is None:
        raise ValueError(f"no tiling of {h}x{w} with halo {halo} fits {budget} pixels a tile")
    return plan


@dataclass
class StageRecord:
    """What one stage's forward pass keeps for the backward pass: only what backward reads.

    For an upsample stage conv_in is the low-resolution previous activation;
    the skip input is the `act` of the skip stage's own record.
    """

    conv_in: np.ndarray = None  # the input all of the stage's kernels read
    bn: list = field(default_factory=list)  # batchnorm caches, in kernel order
    act: np.ndarray = None      # the stage's activation after dropout


@dataclass
class ForwardCache:
    """What a train-mode forward returns beside the prediction: one
    StageRecord per plan stage, until backward consumes them."""

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

    def astype(self, dtype) -> "ModelGraph":
        """Copy of this graph with all tensors cast to `dtype`."""
        other = ModelGraph(self.variant, self.config, dtype=dtype)
        other.params = {k: v.astype(dtype) for k, v in self.params.items()}
        other.stats = {k: v.astype(dtype) for k, v in self.stats.items()}
        return other

    # -- forward / backward ----------------------------------------------

    def forward(self, batch: np.ndarray, mode: str, rng: np.random.Generator | None = None):
        """Run the network; returns (prediction, cache).

        mode is "train" (batch statistics, dropout active, a ForwardCache
        for backward) or "eval" (running statistics, dropout off,
        deterministic, and the cache is None). An eval forward runs each
        sample alone, in overlapping tiles when it has more than TILE_PIXELS
        pixels, and several small samples side by side. batch may hold
        floats or the uint8 levels of 8-bit images.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"forward mode must be 'train' or 'eval', got {mode!r}")
        ops._require_4d("forward batch", batch)
        n, c, h, w = batch.shape
        if c != INPUT_CHANNELS:
            raise ShapeError(
                f"batch shape {batch.shape} does not match the input (n, {INPUT_CHANNELS}, h, w)")
        grid = pool_grid_problem("input size", (h, w))
        if grid:
            raise ShapeError(grid)
        train = mode == "train"
        if train and n < 2:
            raise ShapeError("train-mode forward needs a batch of at least 2 samples")
        if train and rng is None:
            raise ValueError("train-mode forward needs an rng for dropout")

        with ops._one_blas_thread():
            if train:
                pred, records = self._stages(self._input(batch), mode, rng)
                return pred, ForwardCache(records)
            width = sum(spec.out_channels for spec in self.plan.stages[-1].convs)
            pred = np.empty((n, width, h, w), dtype=self.dtype)
            units = n > 1 and ops.WORKERS * h * w <= TILE_PIXELS
            kernels = ops._unit_kernels if units else ops
            tiles = tile_plan(h, w, self.plan.halo, TILE_PIXELS)

            def sample(i):
                for (rows, ext_rows), (cols, ext_cols) in tiles:
                    tile, _ = self._stages(self._input(batch[i:i + 1, :, ext_rows, ext_cols]),
                                           mode, None, kernels)
                    pred[i, :, rows, cols] = tile[0, :, _within(rows, ext_rows),
                                                  _within(cols, ext_cols)]
                    del tile  # not held while the next sample or tile runs

            if units:  # whole samples side by side, each one's kernels inline in its thread
                ops._each(sample, range(n), ops.TASK_ELEMS)
            else:
                for i in range(n):
                    sample(i)
        return pred, None

    def _input(self, x: np.ndarray) -> np.ndarray:
        """x at the graph's dtype; 8-bit levels scaled to [0, 1] first, as
        imgio.read_rgb scales them."""
        if x.dtype == np.uint8:
            x = imgio.to_float(x)
        return x.astype(self.dtype, copy=False)

    def _stages(self, cur: np.ndarray, mode: str, rng, kernels=ops):
        """The stage loop over one input: (prediction, train records). The
        kernels are looked up on `kernels`: ops, or in a unit ops._unit_kernels."""
        train = mode == "train"
        records = []  # train only: one StageRecord per stage
        # by skip index until the stage that reads it: a train forward keeps the
        # activation, an eval forward its product with the reader's skip weights
        kept = {}
        for stage in self.plan.stages:
            rec = StageRecord()
            skip = kept.pop(stage.skip) if stage.skip else None
            if stage.pre == "pool":
                cur = kernels.maxpool2(cur)
            if train:
                rec.conv_in = cur
            cur = self._stage_forward(stage, cur, skip, mode, rec.bn, kernels)
            # nothing else reads the fresh pre-activation, and relu's adjoint reads its output
            act = getattr(kernels, stage.act)
            cur = act(cur, cur) if stage.act == "relu" else act(cur)
            if train and stage.drop:
                cur = ops.dropout(cur, stage.drop, rng)
            reader = self.plan.skip_readers.get(stage.index)
            if reader:
                kept[stage.index] = cur if train else kernels.skip_conv2d(
                    cur, self._conv_params(reader.convs[0]))
            if train:
                rec.act = cur
                records.append(rec)
        return cur, records

    def _stage_forward(self, stage: Stage, x: np.ndarray, skip, mode: str, bn: list,
                       kernels):
        """The stage's pre-activation: per kernel, conv (fused with the
        upsample and skip of a decoder stage, whose skip is its product in
        eval mode), then batchnorm when the spec has it, appending its cache
        to `bn`. With several kernels each output goes into its channel slice
        of one array, the bits of concatenating them. Batchnorm writes
        straight into that slice, or normalizes a lone kernel's fresh conv
        output in place."""
        out = None
        start = 0
        for spec in stage.convs:
            params = self._conv_params(spec)
            if stage.pre == "upsample" and mode == "train":
                z = kernels.upsample_conv2d(x, skip, params)
            elif stage.pre == "upsample":  # the skip's product becomes the output
                z = kernels.upsample_conv2d(x, None, params, skip)
            else:
                z = kernels.conv2d(x, params)
            dest = z
            if len(stage.convs) > 1:
                if out is None:
                    width = sum(s.out_channels for s in stage.convs)
                    out = np.empty((z.shape[0], width) + z.shape[2:], dtype=z.dtype)
                dest = out[:, start:start + spec.out_channels]
                start += spec.out_channels
            if spec.has_bn:
                mean_key, var_key = f"{spec.name}.running_mean", f"{spec.name}.running_var"
                z, bncache, self.stats[mean_key], self.stats[var_key] = kernels.batchnorm(
                    z, self.params[f"{spec.name}.gamma"], self.params[f"{spec.name}.beta"],
                    self.stats[mean_key], self.stats[var_key], mode, dest)
                bn.append(bncache)
            if out is None:
                return z
            if z is not dest:
                dest[...] = z
            del z  # not held while the next kernel's conv output is formed
        return out

    def backward(self, cache: ForwardCache, grad_pred: np.ndarray) -> dict:
        """Gradients of the scalar whose d(pred) is `grad_pred`, for every parameter.

        Consumes the cache: each record goes once its stage's adjoint has
        run, so a cache serves one backward.
        """
        if not isinstance(cache, ForwardCache):
            raise ValueError("backward needs the cache returned by a train-mode forward")
        records = cache.stages
        if not records:
            raise ValueError("backward already consumed this cache; run a new train-mode forward")
        pred_shape = records[-1].act.shape
        if grad_pred.shape != pred_shape:
            raise ShapeError(
                f"grad_pred shape {grad_pred.shape} does not match prediction {pred_shape}"
            )
        cache.stages = []
        with ops._one_blas_thread():
            return self._backward(records, grad_pred)

    def _backward(self, records: list, grad_pred: np.ndarray) -> dict:
        """The stage adjoints in reverse, consuming `records`."""
        grads = {}
        skip_grads = {}  # activation index -> cotangent of its use as a skip input
        g = grad_pred
        for stage in reversed(self.plan.stages):
            rec = records.pop()  # records[j - 1] is still stage j's, for every j < stage.index
            # here g is d(activation `stage.index` after dropout)
            if stage.index in skip_grads:
                g = g + skip_grads.pop(stage.index)
            if stage.drop:
                # only relu stages drop, so act > 0 is where dropout kept an entry and
                # relu passed it: one gate for both adjoints, with the bits of the two
                g = ops.dropout_backward(g, rec.act > 0, stage.drop)
            else:
                g = getattr(ops, f"{stage.act}_backward")(g, rec.act)
            rec.act = None  # its last read: gone before the kernels' adjoints
            skip = records[stage.skip - 1].act if stage.skip else None
            g, g_skip = self._kernels_backward(stage, rec, skip, g, grads)
            if g_skip is not None:
                skip_grads[stage.skip] = g_skip
            if stage.pre == "pool":  # input: the previous activation; output: conv_in
                g = ops.maxpool2_backward(g, records[-1].act, rec.conv_in)
        return grads

    def _kernels_backward(self, stage: Stage, rec: StageRecord, skip, g: np.ndarray,
                          grads: dict):
        """d(stage pre-activation) -> (d(conv input), d(skip input)), filling
        `grads` for the stage's kernels.

        The first stage reads the input batch, which has no gradient, so its
        d(conv input) is None; d(skip input) is None without a skip. Each
        batchnorm cache leaves `rec` as its adjoint reads it, so its xhat goes
        before the next kernel's adjoint runs.
        """
        need_input = stage is not self.plan.stages[0]
        g_in = g_skip = None
        start = 0
        for spec in stage.convs:
            gk = g[:, start : start + spec.out_channels]
            start += spec.out_channels
            if spec.has_bn:
                gk, grads[f"{spec.name}.gamma"], grads[f"{spec.name}.beta"] = (
                    ops.batchnorm_backward(rec.bn.pop(0), gk)
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
    """Validate the config and construct an uninitialized graph."""
    variant = parse_variant(variant)
    config = config or GraphConfig()
    bad = config.violations()
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
    """`graph` itself: a graph takes any input size on POOL_GRID. Kept only
    for perfbench, which calls and traces this name; it goes with the
    benchmark change of ROADMAP item 1."""
    return graph


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
    """ops.LOSSES[kind], looked up at call time, so that a wrapper put in the
    table (perfbench's tracer) sees every call."""
    return ops.LOSSES[kind]
