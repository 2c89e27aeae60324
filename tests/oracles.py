"""Brute-force reference implementations used to check the fast kernels.

Everything here trades speed for obviousness: plain python loops, no
vectorization, float64 throughout. Tests compare the production kernels
against these on small inputs, exactly where possible (integer-valued
inputs make convolution sums order-independent).
"""

import numpy as np

from lmnet import ops


def conv2d_naive(x, weights, bias, dilation=1):
    """Same-padding dilated convolution by direct summation."""
    n, cin, h, w = x.shape
    cout, cin2, k, k2 = weights.shape
    assert cin == cin2 and k == k2
    pad = dilation * (k - 1) // 2
    out = np.zeros((n, cout, h, w), dtype=np.float64)
    for b in range(n):
        for co in range(cout):
            for y in range(h):
                for xx in range(w):
                    s = float(bias[co])
                    for ci in range(cin):
                        for u in range(k):
                            for v in range(k):
                                yy = y + dilation * u - pad
                                xv = xx + dilation * v - pad
                                if 0 <= yy < h and 0 <= xv < w:
                                    s += float(x[b, ci, yy, xv]) * float(weights[co, ci, u, v])
                    out[b, co, y, xx] = s
    return out


def maxpool2_naive(x):
    """2x2/stride-2 max pooling; argmax is the first maximum in row-major
    window order, recorded as a flat index into the input plane."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    arg = np.zeros((n, c, h // 2, w // 2), dtype=np.int64)
    for b in range(n):
        for cc in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    best = None
                    best_idx = 0
                    for di in (0, 1):
                        for dj in (0, 1):
                            y, xx = 2 * i + di, 2 * j + dj
                            v = x[b, cc, y, xx]
                            if best is None or v > best:
                                best = v
                                best_idx = y * w + xx
                    out[b, cc, i, j] = best
                    arg[b, cc, i, j] = best_idx
    return out, arg


def conv2d_backward_scatter(x, params, grad_out, need_input=True):
    """conv2d's adjoints tap by tap over the zero-padded input: each kernel
    tap (u, v) sees the input window shifted by (u*d, v*d), so its weight
    gradient pairs grad_out with that window and its share of the input
    gradient is scattered back onto it. need_input is accepted so this can
    stand in for ops.conv2d_backward; the input gradient is always formed."""
    n, c, h, w = x.shape
    k, d = params.kernel_size, params.dilation
    p = d * (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(params.weights)
    for u in range(k):
        for v in range(k):
            window = (slice(None), slice(None), slice(u * d, u * d + h), slice(v * d, v * d + w))
            gw[:, :, u, v] = np.einsum("noyx,ncyx->oc", grad_out, xp[window])
            gxp[window] += np.einsum("oc,noyx->ncyx", params.weights[:, :, u, v], grad_out)
    grad_input = gxp[:, :, p : p + h, p : p + w].copy()
    return grad_input, gw, grad_out.sum(axis=(0, 2, 3))


def upsample_conv2d_backward_composed(low, skip, params, grad_out):
    """upsample_conv2d's adjoints through the unfused composition: upsample
    and concat the inputs, take the scatter oracle's conv adjoints, split
    the input gradient and send the upsampled part through the upsample
    adjoint. Same signature and result order as ops.upsample_conv2d_backward."""
    up = ops.upsample_nearest2(low)
    x = up if skip is None else ops.concat_channels(up, skip)
    grad_x, grad_w, grad_b = conv2d_backward_scatter(x, params, grad_out)
    grad_skip = None
    if skip is not None:
        grad_x, grad_skip = ops.split_channels(grad_x, low.shape[1])
    return ops.upsample_nearest2_backward(grad_x), grad_skip, grad_w, grad_b


def eval_forward_composed(graph, batch):
    """An eval forward of `graph` composed from the public kernels, keeping
    every activation: per stage, the pool, then per kernel conv2d or
    upsample_conv2d (into skip_conv2d's product of the skip, when the stage
    has one) and ops.batchnorm(..., "eval") when the spec has it,
    concat_channels of the kernels' outputs, and the stage's activation,
    at one BLAS thread, the count an eval forward holds. Returns the list of
    activations, the input batch first."""
    with ops._one_blas_thread():
        return _composed(graph, batch)


def _composed(graph, batch):
    acts = [batch]
    for stage in graph.plan.stages:
        x = ops.maxpool2(acts[-1]) if stage.pre == "pool" else acts[-1]
        skip = acts[stage.skip] if stage.skip else None
        zs = []
        for spec in stage.convs:
            p = {k.split(".", 1)[1]: v for k, v in {**graph.params, **graph.stats}.items()
                 if k.split(".", 1)[0] == spec.name}
            params = ops.ConvParams(p["w"], p["b"], spec.dilation)
            if stage.pre == "upsample":
                product = None if skip is None else ops.skip_conv2d(skip, params)
                z = ops.upsample_conv2d(x, params, product)
            else:
                z = ops.conv2d(x, params)
            if spec.has_bn:
                z = ops.batchnorm(z, p["gamma"], p["beta"], p["running_mean"],
                                  p["running_var"], "eval")[0]
            zs.append(z)
        z = zs[0]
        for other in zs[1:]:
            z = ops.concat_channels(z, other)
        act = getattr(ops, stage.act)
        acts.append(act(z, np.empty_like(z)) if stage.act == "relu" else act(z))
    return acts


def maxpool2_argmax(x):
    """maxpool2 by one window axis and np.argmax: the first maximum (or the
    first NaN) in row-major window order, as a flat index into the plane."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)
    local = win.argmax(axis=-1)
    out = np.take_along_axis(win, local[..., None], axis=-1)[..., 0]
    ys = 2 * np.arange(h // 2).reshape(1, 1, -1, 1) + local // 2
    xs = 2 * np.arange(w // 2).reshape(1, 1, 1, -1) + local % 2
    return out, ys * w + xs


def maxpool2_scatter(grad_out, arg, input_shape):
    """maxpool2's adjoint through an oracle's flat index (maxpool2_naive's or
    maxpool2_argmax's): each cotangent lands on its window's recorded
    winner, and every other position holds +0."""
    n, c, h, w = input_shape
    flat = np.zeros((n, c, h * w), dtype=grad_out.dtype)
    np.put_along_axis(flat, arg.reshape(n, c, -1), grad_out.reshape(n, c, -1), axis=2)
    return flat.reshape(n, c, h, w)


def sigmoid_split(x):
    """The logistic function by a boolean-mask split on the sign of x:
    1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere, so
    exp never overflows."""
    pos = x >= 0
    out = np.empty_like(x)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def upsample2_backward_blocks(grad_out):
    """Adjoint of the nearest 2x upsample as one reshape and a sum over the
    two block axes."""
    n, c, h2, w2 = grad_out.shape
    return grad_out.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5))


def upsample2_naive(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, 2 * h, 2 * w), dtype=x.dtype)
    for i in range(2 * h):
        for j in range(2 * w):
            out[:, :, i, j] = x[:, :, i // 2, j // 2]
    return out


def confusion_naive(pred, target, threshold=0.5):
    """Per-pixel counting; returns (tp, fp, tn, fn)."""
    tp = fp = tn = fn = 0
    for p, t in zip(pred.reshape(-1), target.reshape(-1)):
        pos = p >= threshold
        tru = t >= 0.5
        if pos and tru:
            tp += 1
        elif pos:
            fp += 1
        elif tru:
            fn += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def fg_fraction_naive(mask):
    count = 0
    for v in mask.reshape(-1):
        if v != 0:
            count += 1
    return count / mask.size


def tile_naive(arr, tile):
    """Row-major tiles of an (..., h, w) array via plain slicing."""
    h, w = arr.shape[-2:]
    out = []
    for r in range(h // tile):
        for c in range(w // tile):
            out.append(arr[..., r * tile:(r + 1) * tile, c * tile:(c + 1) * tile].copy())
    return out


def resize_bilinear_naive(img, th, tw):
    """Pixel-center bilinear downscale of (..., h, w), edge clamped, by the
    direct per-output formula (row lerp then column lerp)."""
    h, w = img.shape[-2:]
    work = img.astype(np.float64)
    out = np.zeros(img.shape[:-2] + (th, tw), dtype=np.float64)
    for i in range(th):
        sy = (i + 0.5) * (h / th) - 0.5
        y0 = int(np.floor(sy))
        fy = sy - y0
        y0c = min(max(y0, 0), h - 1)
        y1c = min(max(y0 + 1, 0), h - 1)
        for j in range(tw):
            sx = (j + 0.5) * (w / tw) - 0.5
            x0 = int(np.floor(sx))
            fx = sx - x0
            x0c = min(max(x0, 0), w - 1)
            x1c = min(max(x0 + 1, 0), w - 1)
            a = work[..., y0c, x0c] + fy * (work[..., y1c, x0c] - work[..., y0c, x0c])
            b = work[..., y0c, x1c] + fy * (work[..., y1c, x1c] - work[..., y0c, x1c])
            out[..., i, j] = a + fx * (b - a)
    return out


def resize_nearest_naive(mask, th, tw):
    h, w = mask.shape[-2:]
    out = np.zeros(mask.shape[:-2] + (th, tw), dtype=mask.dtype)
    for i in range(th):
        y = min(int((i + 0.5) * (h / th)), h - 1)
        for j in range(tw):
            x = min(int((j + 0.5) * (w / tw)), w - 1)
            out[..., i, j] = mask[..., y, x]
    return out


def bce_naive(pred, target, clip=1e-7):
    total = 0.0
    for p, t in zip(pred.reshape(-1).astype(np.float64), target.reshape(-1)):
        p = min(max(p, clip), 1.0 - clip)
        total += -(t * np.log(p) + (1 - t) * np.log(1 - p))
    return total / pred.size


def fd_gradient(f, x, step=1e-5):
    """Central-difference gradient of scalar f with respect to array x.

    x is perturbed in place and restored; f must recompute from x on every
    call.
    """
    x = np.asarray(x)
    assert x.dtype == np.float64, "finite differences need 64-bit inputs"
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = f()
        flat[i] = keep - step
        lo = f()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad

