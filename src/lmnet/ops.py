"""Dense 4-D tensor kernels with hand-derived adjoints.

Every tensor is a numpy ndarray laid out (batch, channel, height, width),
row-major. float32 is the production dtype; all kernels also run in float64
so the whole stack can be verified against central finite differences.
Kernels are pure functions of their inputs (batchnorm's running-statistics
update is the one documented exception) and bit-deterministic for fixed
inputs, so repeated calls agree exactly.

A conv forms its products on the im2col side (the input's k*k*c_in
columns) or on the tap side, where one stacked matmul forms k*k*c_out tap
planes that are shift-added (kn2row) and the adjoint takes both gradients
from one column matrix of grad_out. `_tap_side` is the rule: the tap side
when the kernel narrows (c_out < c_in, k > 1) or reads a nearest-upsampled
input (s = 2), as a fused decoder stage's upsampled channels do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError

Tensor = np.ndarray  # alias used in signatures; always (n, c, h, w)


def _require_4d(name: str, x: np.ndarray) -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        got = getattr(x, "shape", None)
        raise ShapeError(f"{name} must be a 4-D (n, c, h, w) array, got shape {got}")


@dataclass
class ConvParams:
    """Weights for one 2-D convolution.

    weights: (c_out, c_in, k, k) with k odd; bias: (c_out,); dilation >= 1.
    Same-padding is implied: outputs keep the input's spatial size for every
    dilation, with zero fill outside the border.
    """

    weights: np.ndarray
    bias: np.ndarray
    dilation: int = 1

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ShapeError(f"weights must be 4-D (c_out, c_in, k, k), got shape {self.weights.shape}")
        c_out, _, kh, kw = self.weights.shape
        if kh != kw:
            raise ShapeError(f"kernel must be square, got {kh}x{kw}")
        if kh % 2 == 0:
            raise ShapeError(f"kernel size must be odd so same-padding is symmetric, got {kh}")
        if self.bias.ndim != 1 or self.bias.shape[0] != c_out:
            raise ShapeError(
                f"bias must have shape ({c_out},) to match c_out, got {self.bias.shape}"
            )
        if int(self.dilation) < 1:
            raise ShapeError(f"dilation must be >= 1, got {self.dilation}")
        self.dilation = int(self.dilation)

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]


def _conv_check(x: np.ndarray, params: ConvParams) -> None:
    _require_4d("conv2d input", x)
    if x.shape[1] != params.in_channels:
        raise ShapeError(
            f"conv2d input has {x.shape[1]} channels but the kernel expects {params.in_channels}"
        )
    if x.shape[2] < 1 or x.shape[3] < 1:
        raise ShapeError(f"conv2d input must have positive spatial dims, got {x.shape}")


def _grad_out_check(grad_out: np.ndarray, shape: tuple) -> None:
    if grad_out.shape != shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match conv output {shape}")


def _im2col(x: np.ndarray, k: int, d: int, s: int = 1):
    """Return the column matrix of x, of shape (n, c*k*k, (h/s)*(w/s)).

    col[b, (i*k + u)*k + v, y*(w/s) + x] sums the s x s block of padded[b, i]
    whose top-left pixel is (s*y + d*u, s*x + d*v), where the padding margin
    is d*(k-1)//2 on each side. At s = 1 a matmul against the (c_out, c*k*k)
    weight matrix realises same-padded dilated convolution; at s = 2 these
    are the columns of a conv's grad_out taken back through a nearest 2x
    upsample.
    """
    n, c, h, w = x.shape
    if k == 1 and s == 1:
        return x.reshape(n, c, h * w)  # the input itself, read in place
    p = d * (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    if s == 2:
        # the 2x2 block sums at every offset: rows first, then columns
        xp = xp[:, :, :-1] + xp[:, :, 1:]
        xp = xp[..., :-1] + xp[..., 1:]
    sn, sc, sh, sw = xp.strides
    windows = as_strided(
        xp,
        shape=(n, c, k, k, h // s, w // s),
        strides=(sn, sc, d * sh, d * sw, s * sh, s * sw),
        writeable=False,
    )
    # reshape copies (the view is not contiguous), materialising the column matrix
    return windows.reshape(n, c * k * k, (h // s) * (w // s))


def _tap_side(c_in: int, c_out: int, k: int, s: int) -> bool:
    """The side rule of the module docstring: True for the k*k*c_out tap side."""
    return s == 2 or (c_out < c_in and k > 1)


def _shift_add(taps: np.ndarray, rows: list, cols: list, out: np.ndarray) -> None:
    """Add tap planes taps[:, u, v] (of shape (n, k, k, c_out, h, w)) into out.

    Tap (u, v), with (u, sy) in rows and (v, sx) in cols, lands shifted back
    by its offset (sy, sx); a tap wholly outside the plane adds nothing and
    is skipped.
    """
    h, w = out.shape[-2:]
    for u, sy in rows:
        if abs(sy) >= h:
            continue
        for v, sx in cols:
            if abs(sx) >= w:
                continue
            dst = out[..., max(0, -sy):h - max(0, sy), max(0, -sx):w - max(0, sx)]
            dst += taps[:, u, v, :, max(0, sy):h - max(0, -sy), max(0, sx):w - max(0, -sx)]


def _tap_conv(x: np.ndarray, weights: np.ndarray, d: int, s: int) -> np.ndarray:
    """Tap side of the conv of x upsampled s times: the k*k tap planes of one
    stacked matmul, shift-added per phase (a, b) into an (n, s, s, c_out, h, w)
    buffer that holds output pixels (s*i + a, s*j + b)."""
    n, c, h, w = x.shape
    c_out, _, k, _ = weights.shape
    stacked = weights.transpose(2, 3, 0, 1).reshape(k * k * c_out, c)  # rows (u, v, o)
    taps = np.matmul(stacked, x.reshape(n, c, h * w)).reshape(n, k, k, c_out, h, w)
    out = np.zeros((n, s, s, c_out, h, w), dtype=taps.dtype)
    # (tap, offset) pairs per phase: output row s*i + a of tap u reads input
    # row i + (a + d*u - p) // s
    p = d * (k - 1) // 2
    shifts = [[(u, (a + d * u - p) // s) for u in range(k)] for a in range(s)]
    for a in range(s):
        for b in range(s):
            _shift_add(taps, shifts[a], shifts[b], out[:, a, b])
    return out


def _conv(x: np.ndarray, weights: np.ndarray, d: int) -> np.ndarray:
    """Same-padded dilated convolution of x with `weights`, without bias."""
    n, c, h, w = x.shape
    c_out, _, k, _ = weights.shape
    if _tap_side(c, c_out, k, 1):
        return _tap_conv(x, weights, d, 1).reshape(n, c_out, h, w)  # a view
    col = _im2col(x, k, d)
    out = np.matmul(weights.reshape(c_out, c * k * k), col)  # (n, c_out, h*w)
    return out.reshape(n, c_out, h, w)


def _conv_backward(x: np.ndarray, weights: np.ndarray, d: int, grad_out: np.ndarray,
                   need_input: bool, s: int = 1):
    """(grad_input, grad_weights) of sum(grad_out * conv) for the conv of x
    upsampled s times (`_conv` at s = 1, `_tap_conv` at s = 2), with grad_out
    of shape (n, c_out, s*h, s*w). grad_input is None when need_input is
    false. Shapes are the caller's to check.
    """
    n, c, h, w = x.shape
    c_out, _, k, _ = weights.shape
    # weight gradient, per batch element to keep transients small; on the
    # tap side the columns come from grad_out and the taps flip back
    tap_side = _tap_side(c, c_out, k, s)
    if tap_side:
        left, right = _im2col(grad_out, k, d, s), x.reshape(n, c, h * w)
    else:
        left, right = grad_out.reshape(n, c_out, h * w), _im2col(x, k, d)
    gw = np.zeros((left.shape[1], right.shape[1]), dtype=x.dtype)
    for b in range(n):
        gw += left[b] @ right[b].T
    if tap_side:
        gw = gw.reshape(c_out, k, k, c).transpose(0, 3, 1, 2)[:, :, ::-1, ::-1]
    grad_weights = np.ascontiguousarray(gw).reshape(weights.shape)
    if not need_input:
        return None, grad_weights
    flipped = weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    if tap_side:
        # the same columns of grad_out meet the flipped kernel matrix
        grad_input = np.matmul(flipped.reshape(c, c_out * k * k), left)
        return grad_input.reshape(n, c, h, w), grad_weights
    del left, right  # never alive together with the input gradient's products
    return _conv(grad_out, flipped, d), grad_weights


def conv2d(x: Tensor, params: ConvParams) -> Tensor:
    """Dilated same-padding convolution; output spatial size equals input's."""
    _conv_check(x, params)
    out = _conv(x, params.weights, params.dilation)
    out += params.bias.reshape(1, -1, 1, 1)
    return out


def conv2d_backward(x: Tensor, params: ConvParams, grad_out: Tensor, need_input: bool = True):
    """Adjoints of conv2d: (grad_input, grad_weights, grad_bias).

    Exact partial derivatives of sum(grad_out * conv2d(x, params)).
    grad_input is the same-padded conv of grad_out with the flipped,
    channel-transposed kernel at the same dilation; on the tap side it is one
    matmul with the columns of grad_out that give grad_weights. It is None
    when need_input is false (a layer that reads the network input).
    """
    _conv_check(x, params)
    n, _, h, w = x.shape
    _grad_out_check(grad_out, (n, params.out_channels, h, w))
    grad_input, grad_weights = _conv_backward(x, params.weights, params.dilation, grad_out,
                                              need_input)
    return grad_input, grad_weights, grad_out.sum(axis=(0, 2, 3))


def _upsample_conv_check(low: np.ndarray, skip, params: ConvParams) -> int:
    """Validate a fused decoder call; returns the upsampled channel count."""
    _require_4d("upsample_conv2d low input", low)
    n, c_u, hl, wl = low.shape
    if hl < 1 or wl < 1:
        raise ShapeError(
            f"upsample_conv2d low input must have positive spatial dims, got {low.shape}"
        )
    c_skip = 0
    if skip is not None:
        _require_4d("upsample_conv2d skip input", skip)
        if skip.shape[0] != n or skip.shape[2:] != (2 * hl, 2 * wl):
            raise ShapeError(
                f"skip input {skip.shape} must be (n, c, 2h, 2w) of low input {low.shape}"
            )
        c_skip = skip.shape[1]
    if c_u + c_skip != params.in_channels:
        raise ShapeError(
            f"upsample_conv2d inputs have {c_u} + {c_skip} channels but the kernel "
            f"expects {params.in_channels}"
        )
    return c_u


def upsample_conv2d(low: Tensor, skip, params: ConvParams) -> Tensor:
    """conv2d(concat_channels(upsample_nearest2(low), skip), params), fused.

    skip may be None (no concatenation). Nearest upsampling repeats pixels
    and a tap matmul mixes channels only, so the upsampled channels take the
    tap side at low resolution (h/2, w/2): their (n, 2, 2, c_out, h/2, w/2)
    phase buffer is added once into the output's 2x2 block view. The skip
    channels take `_conv` at full resolution. Neither the upsampled nor the
    concatenated input is formed.
    """
    c_u = _upsample_conv_check(low, skip, params)
    n, _, hl, wl = low.shape
    weights, d = params.weights, params.dilation
    c_out = weights.shape[0]
    if skip is None:
        out = np.zeros((n, c_out, 2 * hl, 2 * wl), dtype=low.dtype)
    else:
        out = _conv(skip, weights[:, c_u:], d)
    phases = _tap_conv(low, weights[:, :c_u], d, 2)
    blocks = out.reshape(n, c_out, hl, 2, wl, 2)  # a view: out is C-contiguous
    blocks += phases.transpose(0, 3, 4, 1, 5, 2)
    out += params.bias.reshape(1, -1, 1, 1)
    return out


def upsample_conv2d_backward(low: Tensor, skip, params: ConvParams, grad_out: Tensor):
    """Adjoints of upsample_conv2d: (grad_low, grad_skip, grad_weights, grad_bias).

    grad_skip is None when skip is. The skip channels go through
    `_conv_backward` at s = 1 and the upsampled channels at s = 2, where
    grad_out's columns are 2x2 block sums read at low resolution.
    """
    c_u = _upsample_conv_check(low, skip, params)
    n, _, hl, wl = low.shape
    weights, d = params.weights, params.dilation
    _grad_out_check(grad_out, (n, weights.shape[0], 2 * hl, 2 * wl))
    grad_skip = None
    if skip is not None:
        grad_skip, gw_skip = _conv_backward(skip, weights[:, c_u:], d, grad_out, True)
    grad_low, grad_weights = _conv_backward(low, weights[:, :c_u], d, grad_out, True, 2)
    if skip is not None:
        grad_weights = np.concatenate([grad_weights, gw_skip], axis=1)
    return grad_low, grad_skip, grad_weights, grad_out.sum(axis=(0, 2, 3))


def maxpool2(x: Tensor):
    """2x2 max pooling with stride 2; returns (output, argmax).

    argmax holds, for every pooled element, the flat row-major index (y*w + x)
    of the winning input position within its (n, c) plane. Ties go to the
    first occurrence in row-major window order. A window holding a NaN
    pools to NaN, and its argmax is the first NaN in that order (as
    np.argmax picks it).
    """
    _require_4d("maxpool2 input", x)
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got h={h}, w={w}")
    tl, tr = x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]
    bl, br = x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]
    out = np.maximum(np.maximum(tl, tr), np.maximum(bl, br))  # NaN wins
    hit_tl, hit_tr, hit_bl = tl == out, tr == out, bl == out
    if np.isnan(out).any():
        hit_tl |= np.isnan(tl)
        hit_tr |= np.isnan(tr)
        hit_bl |= np.isnan(bl)
    corner = 2 * w * np.arange(h // 2).reshape(-1, 1) + 2 * np.arange(w // 2)
    offset = np.where(hit_tl, 0, np.where(hit_tr, 1, np.where(hit_bl, w, w + 1)))
    return out, corner + offset


def maxpool2_backward(grad_out: Tensor, argmax: np.ndarray, input_shape) -> Tensor:
    """Route each pooled cotangent to its argmax position; zeros elsewhere."""
    n, c, h, w = input_shape
    if grad_out.shape != argmax.shape:
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match argmax shape {argmax.shape}"
        )
    flat = np.zeros((n, c, h * w), dtype=grad_out.dtype)
    # windows are disjoint so indices are unique per (n, c) plane
    np.put_along_axis(
        flat, argmax.reshape(n, c, -1), grad_out.reshape(n, c, -1), axis=2
    )
    return flat.reshape(n, c, h, w)


# The network's decoder stages call upsample_conv2d. upsample_nearest2, its
# adjoint, concat_channels and split_channels are the unfused composition
# it is tested against, and perfbench's tracer wraps each of them by name.


def upsample_nearest2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling: each pixel becomes a 2x2 block."""
    _require_4d("upsample input", x)
    return x.repeat(2, axis=2).repeat(2, axis=3)


def upsample_nearest2_backward(grad_out: Tensor) -> Tensor:
    """Adjoint of upsample_nearest2: sum each 2x2 block, as (top-left +
    top-right) + (bottom-left + bottom-right)."""
    _, _, h2, w2 = grad_out.shape
    if h2 % 2 or w2 % 2:
        raise ShapeError(f"upsample adjoint needs even dims, got {grad_out.shape}")
    g = grad_out
    return (g[:, :, 0::2, 0::2] + g[:, :, 0::2, 1::2]) + (g[:, :, 1::2, 0::2] + g[:, :, 1::2, 1::2])


@dataclass
class BatchNormState:
    """Per-channel affine parameters plus running statistics.

    gamma/beta are learned; running_mean/running_var are updated in train
    mode with momentum and consumed in eval mode.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    epsilon: float = 1e-5

    def __post_init__(self):
        c = self.gamma.shape[0]
        for name in ("beta", "running_mean", "running_var"):
            arr = getattr(self, name)
            if arr.shape != (c,):
                raise ShapeError(f"batchnorm {name} must have shape ({c},), got {arr.shape}")
        if not 0.0 < self.momentum < 1.0:
            raise ShapeError(f"batchnorm momentum must lie in (0, 1), got {self.momentum}")
        if not self.epsilon > 0.0:
            raise ShapeError(f"batchnorm epsilon must be positive, got {self.epsilon}")
        if np.any(self.running_var < 0):
            raise ShapeError("batchnorm running_var must be non-negative")


def batchnorm(x: Tensor, state: BatchNormState, mode: str):
    """Normalize per channel; returns (out, cache).

    Train mode normalizes with batch statistics over (n, h, w) and updates
    the running statistics in place on `state` (the single deliberately
    stateful operation here). Eval mode uses the stored running statistics
    and never mutates. The cache feeds batchnorm_backward.
    """
    _require_4d("batchnorm input", x)
    if mode not in ("train", "eval"):
        raise ValueError(f"batchnorm mode must be 'train' or 'eval', got {mode!r}")
    n, c, h, w = x.shape
    if c != state.gamma.shape[0]:
        raise ShapeError(
            f"batchnorm input has {c} channels but state holds {state.gamma.shape[0]}"
        )
    if mode == "train":
        if n * h * w == 1:
            raise ShapeError(
                "batchnorm train mode needs more than one value per channel "
                f"(n*h*w = 1 for input shape {x.shape})"
            )
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        m = np.asarray(state.momentum, dtype=x.dtype)
        state.running_mean = ((1 - m) * state.running_mean + m * mean).astype(x.dtype)
        state.running_var = ((1 - m) * state.running_var + m * var).astype(x.dtype)
    else:
        mean = state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + np.asarray(state.epsilon, dtype=x.dtype))
    xhat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
    out = state.gamma.reshape(1, -1, 1, 1) * xhat + state.beta.reshape(1, -1, 1, 1)
    cache = {"mode": mode, "xhat": xhat, "inv_std": inv_std, "gamma": state.gamma}
    return out, cache


def batchnorm_backward(cache: dict, grad_out: Tensor):
    """Adjoints of batchnorm: (grad_input, grad_gamma, grad_beta).

    Train mode differentiates through the batch statistics; eval mode treats
    mean/var as constants (they are running statistics there).
    """
    xhat = cache["xhat"]
    inv_std = cache["inv_std"].reshape(1, -1, 1, 1)
    gamma = cache["gamma"].reshape(1, -1, 1, 1)
    if grad_out.shape != xhat.shape:
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match batchnorm input {xhat.shape}"
        )
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    dxhat = grad_out * gamma
    if cache["mode"] == "eval":
        grad_input = dxhat * inv_std
    else:
        n, c, h, w = xhat.shape
        count = n * h * w
        s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        grad_input = (inv_std / count) * (count * dxhat - s1 - xhat * s2)
    return grad_input, grad_gamma, grad_beta


def relu(x: Tensor) -> Tensor:
    return np.maximum(x, 0)


def relu_backward(grad_out: Tensor, out: Tensor) -> Tensor:
    """Gate cotangents where the pre-activation was positive (out > 0 iff x > 0)."""
    return grad_out * (out > 0)


def sigmoid(x: Tensor) -> Tensor:
    # split by sign to avoid overflow in exp for large negative inputs
    pos = x >= 0
    out = np.empty_like(x)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(grad_out: Tensor, out: Tensor) -> Tensor:
    return grad_out * out * (1.0 - out)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, mode: str):
    """Inverted dropout; returns (out, mask).

    Train mode zeroes entries with probability `rate` and scales survivors by
    1/(1-rate) so the expectation matches the input. The returned mask already
    carries that scale; the backward pass multiplies by the same mask. Eval
    mode (or rate 0) is the identity with an all-ones mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ValueError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x, np.ones_like(x)
    if rng is None:
        raise ValueError("dropout in train mode needs a random generator")
    keep = rng.random(x.shape) >= rate  # draws are float64 regardless of x.dtype
    mask = keep.astype(x.dtype) / np.asarray(1.0 - rate, dtype=x.dtype)
    return x * mask, mask


def dropout_backward(grad_out: Tensor, mask: Tensor) -> Tensor:
    return grad_out * mask


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis; batch and spatial dims must match."""
    _require_4d("concat first input", a)
    _require_4d("concat second input", b)
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(
            f"concat inputs must share batch and spatial dims, got {a.shape} and {b.shape}"
        )
    return np.concatenate([a, b], axis=1)


def split_channels(grad: Tensor, first_channels: int):
    """Adjoint of concat_channels: slice the cotangent back into two parts."""
    _require_4d("split input", grad)
    if not 0 < first_channels < grad.shape[1]:
        raise ShapeError(
            f"split point {first_channels} out of range for {grad.shape[1]} channels"
        )
    return grad[:, :first_channels].copy(), grad[:, first_channels:].copy()


BCE_CLAMP = 1e-7


def bce_loss(pred: Tensor, target: Tensor):
    """Mean binary cross-entropy with clamped predictions; returns (loss, grad).

    Predictions are clamped to [1e-7, 1 - 1e-7] before the logs. The gradient
    is the exact derivative of the clamped expression, so it vanishes where
    the clamp is active.
    """
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} does not match target {target.shape}")
    eps = np.asarray(BCE_CLAMP, dtype=pred.dtype)
    hi = np.asarray(1.0, dtype=pred.dtype) - eps
    p = np.clip(pred, eps, hi)
    loss = float(np.mean(-(target * np.log(p) + (1.0 - target) * np.log1p(-p))))
    inside = (pred >= eps) & (pred <= hi)
    grad = np.where(inside, (p - target) / (p * (1.0 - p)), 0.0) / pred.size
    return loss, grad.astype(pred.dtype, copy=False)


def mse_loss(pred: Tensor, target: Tensor):
    """Mean squared error; returns (loss, grad)."""
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} does not match target {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = (2.0 / pred.size) * diff
    return loss, grad.astype(pred.dtype, copy=False)


LOSSES = {"bce": bce_loss, "mse": mse_loss}
