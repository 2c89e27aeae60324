"""Dense 4-D tensor kernels with hand-derived adjoints.

Every tensor is a numpy ndarray laid out (batch, channel, height, width),
row-major. float32 is the production dtype; all kernels also run in float64
so the whole stack can be verified against central finite differences.
Kernels are pure functions of their inputs: none writes to an argument
(batchnorm returns its new running statistics) but `out`: the array that
batchnorm and relu may be handed in either mode, which may be the input
itself, and the skip product a decoder stage's upsample_conv2d adds into.
Each is bit-deterministic for fixed inputs, so repeated calls agree exactly.

A conv forms its products on the im2col side (the input's k*k*c_in
columns) or on the tap side, where one stacked matmul forms k*k*c_out tap
planes that are shift-added (kn2row) and the adjoint takes both gradients
from one column matrix of grad_out. `_tap_side` is the rule: the tap side
when the kernel narrows (c_out < c_in, k > 1) or reads a nearest-upsampled
input (s = 2), as a fused decoder stage's upsampled channels do. A forward
builds either matrix one block at a time: one sample's strip of output rows,
whose matrix holds at most BLOCK_ELEMS // 2 floats, read from a small buffer
holding the strip and its halo rows zero-padded; its matmul writes into its
output slice. The adjoint builds whole columns of each sample padded whole,
one sample at a time, and sums the samples in order.

Workers: a conv forward's blocks, the adjoint's per-sample products, the
channels of batch norm, its adjoint, relu and max pooling, and the samples
of the relu, max-pool and dropout adjoints are dealt to WORKERS threads with
`_each`: the caller's thread takes its share beside the pool's. The adjoint
forms its products a group of WORKERS samples at a time, the caller and the
pool one each, and adds each group's to the weight gradient in sample order
before the next group starts. A conv forward cuts every sample into the
same row strips in train and eval, by the sample's shape alone (`_blocks`):
WORKERS and TASK_ELEMS decide only which thread runs each part, never how
a sample is cut. Each part writes its own slices of one output, so the bits
do not depend on the worker count or on which thread runs a part. Two
workers' blocks in flight hold no more than BLOCK_ELEMS floats. Calls whose
parts would touch under TASK_ELEMS floats (_CHANNEL_TASKS times that for a
channel part) run in the caller's thread. A dealt call's own calls stay in
its thread: an eval forward of several small samples deals the samples
themselves, and each runs its kernels inline, cut into the blocks it is cut
into alone. A dealt call calls only private helpers, the kernels bound in
`_unit_kernels` and numpy, never a public name of this module, which a
tracer may wrap.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import os
import threading
import types
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

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


BLOCK_ELEMS = 1 << 20  # floats in two conv blocks' column or tap matrices, or in dropout draws
# threads that run a kernel's samples or array parts: two, or the one CPU the process may use
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
TASK_ELEMS = 1 << 16  # floats a worker call touches at least; smaller calls stay in the caller
# TASK_ELEMS a channel part of batch norm's, relu's or max-pool's pass
# touches at least: such a pass is bound by memory, and on two workers it
# took longer than on one at 2^18 floats a part
_CHANNEL_TASKS = 8


# .on is set while the thread runs a share `_each` dealt, whose own calls stay in it
_inline = threading.local()


@functools.cache
def _pool():
    return ThreadPoolExecutor(WORKERS, thread_name_prefix="lmnet-worker")


if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's pool threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _each(fn, items, cost: int) -> None:
    """fn(item) for each item, for calls that write their results into the
    caller's arrays; one call touches about `cost` floats. Calls of
    TASK_ELEMS floats or more are dealt in turn to the caller's thread and
    WORKERS - 1 pool threads, each running its share in item order, so the
    caller works beside the pool instead of waiting to be woken by it.
    Smaller ones run in the caller's thread, as do the calls of any _each
    made inside a dealt share, which marks its thread inline. A call's
    exception reaches the caller as it was raised, once no other call
    still runs."""
    items = list(items)
    if WORKERS < 2 or len(items) < 2 or cost < TASK_ELEMS or getattr(_inline, "on", False):
        for item in items:
            fn(item)
        return
    shares = [_pool().submit(_share, fn, items[i::WORKERS]) for i in range(1, min(WORKERS, len(items)))]
    try:
        _share(fn, items[::WORKERS])
    finally:
        wait(shares)
    for share in shares:
        share.result()


def _share(fn, items) -> None:
    _inline.on = True
    try:
        for item in items:
            fn(item)
    finally:
        _inline.on = False


def _split(fn, size: int, total: int, least: int = 1, tasks: int = 1) -> None:
    """fn(part) for up to WORKERS near-equal slices of range(size), each at
    least `least` long and touching tasks * TASK_ELEMS or more of `total` floats."""
    count = max(1, min(WORKERS, size // least, total // (tasks * TASK_ELEMS)))
    bounds = [size * i // count for i in range(count + 1)]
    _each(fn, [slice(a, b) for a, b in zip(bounds, bounds[1:])], total // count)


@functools.cache
def _blas():
    """(get, set) of the thread count of the scipy-openblas numpy loaded, or
    None where numpy's BLAS is another build."""
    root = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*scipy_openblas*"))
                       + glob.glob(os.path.join(root, ".dylibs", "*scipy_openblas*"))):
        lib = ctypes.CDLL(path)  # the loaded library: it is opened once per process
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, restoring its count on exit: the
    workers run its calls side by side, and its own threads would spin beside them."""
    blas = _blas()
    before = blas[0]() if blas else 1
    if before != 1:
        blas[1](1)
    try:
        yield
    finally:
        if before != 1:
            blas[1](before)


def _blocks(n: int, h: int, row_elems: int, halo: int, work: int) -> tuple:
    """A conv's blocks as (sample, r0, r1), with the floats one touches, given
    the floats one sample's blocks touch. Every sample is cut into the same
    row strips [r0, r1): the fewest near-equal ones, and at least two, whose
    block matrices (row_elems floats a row, halo rows included) hold
    BLOCK_ELEMS // 2 floats or less. The cut reads the shape alone, so a
    sample has the same strips at any WORKERS or TASK_ELEMS, in train and eval."""
    rows = max(1, BLOCK_ELEMS // 2 // max(row_elems, 1) - halo)
    count = max(-(-h // rows), min(2, h))
    bounds = [h * i // count for i in range(count + 1)]
    return [(j, a, b) for j in range(n) for a, b in zip(bounds, bounds[1:])], work // count


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    """Planes x (c, h, w) with p zero rows and columns on each side (x itself at p = 0)."""
    return np.pad(x, ((0, 0), (p, p), (p, p))) if p else x


def _padded_rows(x: np.ndarray, r0: int, r1: int, p: int) -> np.ndarray:
    """Rows r0 - p .. r1 + p of planes x (c, h, w) padded by p zero rows and
    columns on each side: the (c, r1 - r0 + 2p, w + 2p) strip one block reads."""
    c, h, w = x.shape
    strip = np.zeros((c, r1 - r0 + 2 * p, w + 2 * p), dtype=x.dtype)
    top, bottom = max(r0 - p, 0), min(r1 + p, h)
    strip[:, top - r0 + p:bottom - r0 + p, p:p + w] = x[:, top:bottom]
    return strip


def _columns(xp: np.ndarray, k: int, d: int, s: int, h: int, w: int) -> np.ndarray:
    """The (c*k*k, h*w) column matrix of padded planes xp (c, ., .), a copy
    unless k = s = 1: entry ((i*k + u)*k + v, y*w + x) is xp[i, s*y + d*u, s*x + d*v]."""
    sc, sh, sw = xp.strides
    windows = as_strided(xp, shape=(xp.shape[0], k, k, h, w),
                         strides=(sc, d * sh, d * sw, s * sh, s * sw), writeable=False)
    return windows.reshape(xp.shape[0] * k * k, h * w)


def _im2col(x: np.ndarray, k: int, d: int, s: int = 1) -> np.ndarray:
    """The (c*k*k, (h/s)*(w/s)) columns of one sample x (1, c, h, w) padded by
    d*(k-1)//2. At s = 2 each entry sums the 2x2 block at its position: the
    columns of a conv's grad_out taken back through a nearest 2x upsample."""
    _, _, h, w = x.shape
    xp = _pad(x[0], d * (k - 1) // 2)
    if s == 2:
        # the 2x2 block sums at every offset: rows first, then columns
        xp = xp[:, :-1] + xp[:, 1:]
        xp = xp[..., :-1] + xp[..., 1:]
    return _columns(xp, k, d, s, h // s, w // s)


def _tap_side(c_in: int, c_out: int, k: int, s: int) -> bool:
    """The side rule of the module docstring: True for the k*k*c_out tap side."""
    return s == 2 or (c_out < c_in and k > 1)


def _taps(weights: np.ndarray) -> np.ndarray:
    """The (k*k*c_out, c_in) tap matrix of weights (c_out, c_in, k, k), rows (u, v, o)."""
    c_out, c, k, _ = weights.shape
    return weights.transpose(2, 3, 0, 1).reshape(k * k * c_out, c)


def _tap_conv(x: np.ndarray, taps: np.ndarray, k: int, d: int, s: int, out: np.ndarray) -> None:
    """Add the conv of x upsampled s times, whose k x k kernel has the tap
    matrix `taps`, into out (n, c_out, s*h, s*w): per block, one matmul forms
    the k*k*c_out tap planes of a padded strip and its halo, shift-added per
    phase (a, b) into a zeroed buffer of output pixels (s*i + a, s*j + b) that
    is then added into out."""
    n, c, h, w = x.shape
    c_out = taps.shape[0] // (k * k)
    p = d * (k - 1) // 2
    q = -(-p // s)  # the margin every phase reads, ceil(p / s)
    # output row s*i + a of tap u reads padded row i + q + (a + d*u - p) // s
    shifts = [[(u, q + (a + d * u - p) // s) for u in range(k)] for a in range(s)]
    view = out.reshape(n, c_out, h, s, w, s)  # a view: out is C-contiguous
    phase_ab = list(itertools.product(range(s), repeat=2))

    def block(unit):
        j, r0, r1 = unit
        rows = r1 - r0
        planes = taps @ _padded_rows(x[j], r0, r1, q).reshape(c, -1)
        planes = planes.reshape(k, k, c_out, rows + 2 * q, w + 2 * q)
        phases = np.zeros((s, s, c_out, rows, w), dtype=planes.dtype)
        for a, b in phase_ab:
            for u, sy in shifts[a]:
                for v, sx in shifts[b]:
                    phases[a, b] += planes[u, v, :, sy:sy + rows, sx:sx + w]
        for a, b in phase_ab:  # one add per phase reads its buffer in order
            view[j, :, r0:r1, a, :, b] += phases[a, b]

    _each(block, *_blocks(n, h, k * k * c_out * (w + 2 * q), 2 * q, (c + c_out) * k * k * h * w))


def _conv(x: np.ndarray, weights: np.ndarray, d: int) -> np.ndarray:
    """Same-padded dilated convolution of x with `weights`, without bias."""
    n, c, h, w = x.shape
    c_out, _, k, _ = weights.shape
    wmat = weights.reshape(c_out, c * k * k)
    if k == 1:  # the input is its own column matrix, read in place
        return np.matmul(wmat, x.reshape(n, c, h * w)).reshape(n, c_out, h, w)
    out = np.zeros((n, c_out, h, w), dtype=np.result_type(x, weights))
    if _tap_side(c, c_out, k, 1):
        _tap_conv(x, _taps(weights), k, d, 1, out)
        return out
    p = d * (k - 1) // 2

    def block(unit):
        j, r0, r1 = unit
        xp = _padded_rows(x[j], r0, r1, p)
        # unnamed, the columns go as soon as the matmul returns
        np.matmul(wmat, _columns(xp, k, d, 1, r1 - r0, w),
                  out=out[j].reshape(c_out, h * w)[:, r0 * w:r1 * w])

    _each(block, *_blocks(n, h, c * k * k * w, 0, (c + c_out) * k * k * h * w))
    return out


def _conv_backward(x: np.ndarray, weights: np.ndarray, d: int, grad_out: np.ndarray,
                   need_input: bool, s: int = 1):
    """(grad_input, grad_weights) of sum(grad_out * conv) for the conv of x
    upsampled s times (`_conv` at s = 1, `_tap_conv` at s = 2), with grad_out
    of shape (n, c_out, s*h, s*w). grad_input is None when need_input is
    false. Shapes are the caller's to check. Columns are built one sample at a
    time and never in strips, so the weight gradient sums the same products in
    sample order; on the tap side they come from grad_out and give both gradients.
    """
    n, c, h, w = x.shape
    c_out, _, k, _ = weights.shape
    tap_side = _tap_side(c, c_out, k, s)
    flipped = weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    fmat = flipped.reshape(c, c_out * k * k)
    gw = np.zeros((c_out * k * k, c) if tap_side else (c_out, c * k * k), dtype=x.dtype)
    tap_input = tap_side and need_input
    grad_input = np.empty(x.shape, np.result_type(weights, grad_out)) if tap_input else None
    products = {}  # by sample, until its group's are added to gw

    def sample(j):
        if tap_side:
            left, right = _im2col(grad_out[j:j + 1], k, d, s), x[j].reshape(c, h * w)
            if tap_input:  # the same columns of grad_out meet the flipped kernel matrix
                np.matmul(fmat, left, out=grad_input[j].reshape(c, h * w))
        else:
            left, right = grad_out[j].reshape(c_out, h * w), _im2col(x[j:j + 1], k, d)
        products[j] = left @ right.T

    for start in range(0, n, WORKERS):
        group = range(start, min(start + WORKERS, n))
        _each(sample, group, (c + c_out) * k * k * s * s * h * w + gw.size)
        for j in group:
            gw += products.pop(j)
    if tap_side:  # the taps flip back
        gw = gw.reshape(c_out, k, k, c).transpose(0, 3, 1, 2)[:, :, ::-1, ::-1]
    grad_weights = np.ascontiguousarray(gw).reshape(weights.shape)
    if tap_side or not need_input:
        return grad_input, grad_weights
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


def _upsample_conv_check(low: np.ndarray, skip, params: ConvParams, out=None) -> int:
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
    if out is not None:
        want = (n, params.out_channels, 2 * hl, 2 * wl)
        if c_u >= params.in_channels or not isinstance(out, np.ndarray) or out.shape != want:
            raise ShapeError(f"a skip product stands in for the skip input, of shape {want}, "
                             f"got {getattr(out, 'shape', None)}")
        c_skip = params.in_channels - c_u
    if c_u + c_skip != params.in_channels:
        raise ShapeError(
            f"upsample_conv2d inputs have {c_u} + {c_skip} channels but the kernel "
            f"expects {params.in_channels}"
        )
    return c_u


def skip_conv2d(skip: Tensor, params: ConvParams) -> Tensor:
    """The skip side of a decoder stage, without bias: the conv of skip with
    the kernel's last skip.shape[1] input channels. A decoder stage forms it
    as soon as its skip activation exists and hands it to upsample_conv2d."""
    _require_4d("skip_conv2d input", skip)
    c_u = params.in_channels - skip.shape[1]
    if c_u < 1:
        raise ShapeError(f"skip input has {skip.shape[1]} channels, but the kernel leaves "
                         f"{c_u} of its {params.in_channels} for the upsampled input")
    return _conv(skip, params.weights[:, c_u:], params.dilation)


def upsample_conv2d(low: Tensor, params: ConvParams, out=None) -> Tensor:
    """conv2d(concat_channels(upsample_nearest2(low), skip), params), fused:
    added into out = skip_conv2d(skip, params) and returned, or without a
    skip (out None) into zeros. Nearest upsampling repeats pixels and a tap
    matmul mixes channels only, so the upsampled channels take the tap side
    at low resolution (h/2, w/2): each block's (2, 2, c_out, rows, w/2)
    phase buffer is added into the output's 2x2 block view. Neither the
    upsampled nor the concatenated input is formed.
    """
    c_u = _upsample_conv_check(low, None, params, out)
    n, _, hl, wl = low.shape
    if out is None:
        out = np.zeros((n, params.out_channels, 2 * hl, 2 * wl), dtype=low.dtype)
    _tap_conv(low, _taps(params.weights[:, :c_u]), params.kernel_size, params.dilation, 2, out)
    out += params.bias.reshape(1, -1, 1, 1)
    return out


def upsample_conv2d_backward(low: Tensor, skip, params: ConvParams, grad_out: Tensor):
    """Adjoints of upsample_conv2d: (grad_low, grad_skip, grad_weights, grad_bias).

    They read the skip input itself, not its product; skip and grad_skip are
    None without a skip. The skip channels go through `_conv_backward` at
    s = 1 and the upsampled channels at s = 2, where grad_out's columns are
    2x2 block sums read at low resolution.
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


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2. A window holding a NaN pools to NaN."""
    _require_4d("maxpool2 input", x)
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got h={h}, w={w}")
    out = np.empty((n, c, h // 2, w // 2), dtype=x.dtype)

    def part(ch):
        xc, pooled = x[:, ch], out[:, ch]
        # max(max(top pair), max(bottom pair)), the top pair's formed in out: NaN wins
        np.maximum(xc[:, :, 0::2, 0::2], xc[:, :, 0::2, 1::2], out=pooled)
        np.maximum(pooled, np.maximum(xc[:, :, 1::2, 0::2], xc[:, :, 1::2, 1::2]), out=pooled)

    _split(part, c, x.size, tasks=_CHANNEL_TASKS)
    return out


def maxpool2_backward(grad_out: Tensor, x: Tensor, out: Tensor) -> Tensor:
    """Adjoint of maxpool2 given its input x and output out: each pooled
    cotangent goes to the first position of its window, in row-major order,
    that holds the max (in a NaN window, the first NaN); every other
    position gets +0."""
    n, c, h, w = out.shape
    if grad_out.shape != out.shape or x.shape != (n, c, 2 * h, 2 * w):
        raise ShapeError(f"maxpool2 adjoint got grad_out {grad_out.shape} and output "
                         f"{out.shape} for input {x.shape}")
    grad = np.empty(x.shape, dtype=grad_out.dtype)
    blocks = grad.reshape(n, c, h, 2, w, 2)

    def part(i):
        pooled = out[i]
        nan = np.isnan(pooled).any()  # a NaN input pools to NaN
        free = np.ones(pooled.shape, dtype=bool)  # windows whose max is not yet placed
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            corner = x[i, :, dy::2, dx::2]
            hit = corner == pooled
            if nan:
                hit |= np.isnan(corner)
            hit &= free
            free ^= hit
            # np.where, not grad_out * hit: the product is -0.0 under a negative cotangent
            blocks[i, :, :, dy, :, dx] = np.where(hit, grad_out[i], 0)

    _split(part, n, x.size)
    return grad


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


BN_MOMENTUM = 0.1
BN_EPSILON = 1e-5


def _bn_check(c: int, gamma, beta, running_mean, running_var) -> None:
    for name, arr in (("gamma", gamma), ("beta", beta), ("running_mean", running_mean),
                      ("running_var", running_var)):
        if arr.shape != (c,):
            raise ShapeError(f"batchnorm {name} must have shape ({c},) for an input of "
                             f"{c} channels, got {arr.shape}")


def batchnorm(x: Tensor, gamma, beta, running_mean, running_var, mode: str, out=None):
    """Normalize per channel; returns (out, cache, running_mean, running_var).

    Train mode normalizes with batch statistics over (n, h, w), returns new
    running statistics moved toward them by BN_MOMENTUM and a cache for
    batchnorm_backward. Eval mode normalizes with the given running
    statistics and returns them as they are, with no cache. No argument is
    written but `out`, in either mode: an array of x's shape and dtype (x
    itself, for one) that receives the result and is returned.
    """
    _require_4d("batchnorm input", x)
    if mode not in ("train", "eval"):
        raise ValueError(f"batchnorm mode must be 'train' or 'eval', got {mode!r}")
    n, c, h, w = x.shape
    _bn_check(c, gamma, beta, running_mean, running_var)
    mean, var, xhat = running_mean, running_var, None
    if mode == "train":
        if n * h * w == 1:
            raise ShapeError(
                "batchnorm train mode needs more than one value per channel "
                f"(n*h*w = 1 for input shape {x.shape})"
            )
        mean, var = np.empty(c, x.dtype), np.empty(c, x.dtype)

        def moments(ch):
            mean[ch] = x[:, ch].mean(axis=(0, 2, 3))
            var[ch] = x[:, ch].var(axis=(0, 2, 3))

        _split(moments, c, x.size, 2)  # a one-channel slice would reduce in another order
        m = np.asarray(BN_MOMENTUM, dtype=x.dtype)
        running_mean = ((1 - m) * running_mean + m * mean).astype(x.dtype)
        running_var = ((1 - m) * running_var + m * var).astype(x.dtype)
        xhat = np.empty(x.shape, x.dtype)  # formed once the moments' temporaries are gone
    inv_std = 1.0 / np.sqrt(var + np.asarray(BN_EPSILON, dtype=x.dtype))
    if out is None:
        out = np.empty(x.shape, np.result_type(x, gamma))
    _split(lambda ch: _normalize(x[:, ch], *(t[ch] for t in (mean, inv_std, gamma, beta)),
                                 (out if xhat is None else xhat)[:, ch], out[:, ch]),
           c, x.size, tasks=_CHANNEL_TASKS)
    cache = None if xhat is None else {"xhat": xhat, "inv_std": inv_std, "gamma": gamma}
    return out, cache, running_mean, running_var


def _normalize(x, mean, inv_std, gamma, beta, xhat, out) -> None:
    """One sequence in both modes: xhat = (x - mean) * inv_std per channel
    and out = xhat * gamma + beta, where xhat may be out."""
    np.subtract(x, mean.reshape(1, -1, 1, 1), out=xhat)
    xhat *= inv_std.reshape(1, -1, 1, 1)
    np.multiply(xhat, gamma.reshape(1, -1, 1, 1), out=out)
    out += beta.reshape(1, -1, 1, 1)


def batchnorm_backward(cache: dict, grad_out: Tensor):
    """Adjoints of train-mode batchnorm, through the batch statistics:
    (grad_input, grad_gamma, grad_beta)."""
    xhat = cache["xhat"]
    inv_std = cache["inv_std"].reshape(1, -1, 1, 1)
    gamma = cache["gamma"].reshape(1, -1, 1, 1)
    if grad_out.shape != xhat.shape:
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match batchnorm input {xhat.shape}"
        )
    n, c, h, w = xhat.shape
    count = n * h * w
    scale = inv_std / count
    grad_beta = np.empty(c, grad_out.dtype)
    grad_gamma = np.empty(c, np.result_type(grad_out, xhat))
    grad_input = np.empty(xhat.shape, np.result_type(scale, grad_out, gamma, xhat))

    def channels(ch):
        # (inv_std / count) * (count * dxhat - s1 - xhat * s2) with the same
        # arithmetic, every full-size temporary but dxhat formed in grad_input
        g, xh, gi = grad_out[:, ch], xhat[:, ch], grad_input[:, ch]
        grad_beta[ch] = g.sum(axis=(0, 2, 3))
        grad_gamma[ch] = np.multiply(g, xh, out=gi).sum(axis=(0, 2, 3))
        dxhat = g * gamma[:, ch]
        s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        s2 = np.multiply(dxhat, xh, out=gi).sum(axis=(0, 2, 3), keepdims=True)
        dxhat = np.multiply(count, dxhat, out=dxhat)
        dxhat -= s1
        np.subtract(dxhat, np.multiply(xh, s2, out=gi), out=gi)
        np.multiply(scale[:, ch], gi, out=gi)

    _split(channels, c, xhat.size, 2)  # a one-channel slice would reduce in another order
    return grad_input, grad_gamma, grad_beta


def relu(x: Tensor, out: Tensor) -> Tensor:
    """max(x, 0), written into `out` (x itself, for one) and returned."""
    _split(lambda ch: np.maximum(x[:, ch], 0, out=out[:, ch]), x.shape[1], x.size,
           tasks=_CHANNEL_TASKS)
    return out


def relu_backward(grad_out: Tensor, out: Tensor) -> Tensor:
    """Gate cotangents where the pre-activation was positive (out > 0 iff x > 0)."""
    grad = np.empty(grad_out.shape, grad_out.dtype)
    _split(lambda i: np.multiply(grad_out[i], out[i] > 0, out=grad[i]), len(grad), grad.size)
    return grad


def sigmoid(x: Tensor) -> Tensor:
    e = np.exp(-np.abs(x))  # never overflows: the exponent is <= 0
    return np.where(x >= 0, 1 / (1 + e), e / (1 + e))


def sigmoid_backward(grad_out: Tensor, out: Tensor) -> Tensor:
    return grad_out * out * (1.0 - out)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zeroes entries with probability `rate` and scales
    survivors by 1/(1-rate) so the expectation matches the input. The model
    calls it only in train mode, at a stage's plan rate.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    keep = np.empty(x.shape, dtype=bool)
    flat = keep.reshape(-1)
    # float64 draws regardless of x.dtype, BLOCK_ELEMS at a time: the stream
    # of one whole draw, without holding it
    for i in range(0, flat.size, BLOCK_ELEMS):
        flat[i:i + BLOCK_ELEMS] = rng.random(min(BLOCK_ELEMS, flat.size - i)) >= rate
    return _dropped(x, keep, rate, np.empty(x.shape, x.dtype))


def _dropped(x: np.ndarray, keep: np.ndarray, rate: float, out: np.ndarray) -> np.ndarray:
    """x times the dropout factor, 1/(1-rate) where keep is set and 0
    elsewhere, formed in `out` and written over by the product."""
    out[...] = keep
    out /= np.asarray(1.0 - rate, dtype=out.dtype)
    return np.multiply(x, out, out=out)


def dropout_backward(grad_out: Tensor, keep: np.ndarray, rate: float) -> Tensor:
    """Adjoint of dropout at `rate`: grad_out times the factor the forward
    applied, rebuilt with the same bits. keep is the bool mask of where the
    forward kept its input; for a positive input, where its output is positive."""
    grad = np.empty(grad_out.shape, grad_out.dtype)
    _split(lambda i: _dropped(grad_out[i], keep[i], rate, grad[i]), len(grad), grad.size)
    return grad


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
    the clamp is active. The target is cast to pred's dtype, a uint8 mask too.
    """
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} does not match target {target.shape}")
    target = target.astype(pred.dtype, copy=False)
    eps = np.asarray(BCE_CLAMP, dtype=pred.dtype)
    hi = np.asarray(1.0, dtype=pred.dtype) - eps
    p = np.clip(pred, eps, hi)
    loss = float(np.mean(-(target * np.log(p) + (1.0 - target) * np.log1p(-p))))
    inside = (pred >= eps) & (pred <= hi)
    grad = np.where(inside, (p - target) / (p * (1.0 - p)), 0.0) / pred.size
    return loss, grad.astype(pred.dtype, copy=False)


LOSSES = {"bce": bce_loss}


# The kernels an eval forward's units call, bound here once: a wrapper put on
# a public name later (perfbench's tracer, whose spans assume one thread)
# sees none of a unit's calls, on the pool or in the caller's thread
_unit_kernels = types.SimpleNamespace(**{fn.__name__: fn for fn in (
    conv2d, batchnorm, relu, maxpool2, sigmoid, upsample_conv2d, skip_conv2d)})
