"""Kernels against frozen examples and brute-force oracles.

Forward oracle comparisons use integer-valued float64 inputs so convolution
sums are exact in either summation order and equality can be asserted
bitwise. The rewritten adjoints are compared with the formulas they
replaced, kept in oracles.py, bit for bit; the conv adjoints are compared
with a tap-by-tap scatter oracle within 1e-12 relative in float64, and the
fused decoder stage with upsample -> concat -> conv and that oracle's
adjoints through the split and the upsample adjoint.
"""

import itertools
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from lmnet import ops
from lmnet.errors import ShapeError
from lmnet.model import GraphConfig, Variant, layer_plan

from oracles import (
    conv2d_backward_scatter,
    conv2d_naive,
    maxpool2_argmax,
    maxpool2_naive,
    maxpool2_scatter,
    sigmoid_split,
    upsample2_backward_blocks,
    upsample2_naive,
    upsample_conv2d_backward_composed,
)

PLANS = [layer_plan(v, GraphConfig()) for v in Variant]


def int_valued(rng, shape, lo=-4, hi=5):
    return rng.integers(lo, hi, size=shape).astype(np.float64)


# -- convolution ------------------------------------------------------------

def test_conv_single_pixel_kernel_scales_input():
    x = np.arange(12, dtype=np.float64).reshape(1, 1, 3, 4) + 1
    params = ops.ConvParams(np.full((1, 1, 1, 1), 7.0), np.zeros(1), 1)
    out = ops.conv2d(x, params)
    npt.assert_array_equal(out, 7.0 * x)


def test_conv_all_ones_kernel_center_and_corner():
    x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
    params = ops.ConvParams(np.ones((1, 1, 3, 3)), np.zeros(1), 1)
    out = ops.conv2d(x, params)
    assert out[0, 0, 1, 1] == 45.0  # full 3x3 sum
    assert out[0, 0, 0, 0] == 12.0  # 1+2+4+5 with zero padding


def test_conv_shape_preserved_across_dilations():
    rng = np.random.default_rng(0)
    x = rng.random((2, 3, 11, 13))
    for d in (1, 2, 3, 5):
        params = ops.ConvParams(rng.random((4, 3, 3, 3)), rng.random(4), d)
        assert ops.conv2d(x, params).shape == (2, 4, 11, 13)


def test_conv_matches_naive_oracle_on_50_random_configs():
    rng = np.random.default_rng(42)
    dilations = (1, 2, 3, 5)
    for case in range(50):
        k = int(rng.choice((1, 3, 5)))
        d = dilations[case % 4] if k > 1 else 1
        cin = int(rng.choice((1, 3, 5)))
        cout = int(rng.choice((1, 2, 4)))
        h = int(rng.integers(4, 13))
        w = int(rng.integers(4, 13))
        n = int(rng.integers(1, 3))
        x = int_valued(rng, (n, cin, h, w))
        weights = int_valued(rng, (cout, cin, k, k))
        bias = int_valued(rng, (cout,))
        got = ops.conv2d(x, ops.ConvParams(weights, bias, d))
        want = conv2d_naive(x, weights, bias, d)
        npt.assert_array_equal(got, want, err_msg=f"case {case}: k={k} d={d}")


def test_conv_dilation_one_is_standard_convolution():
    rng = np.random.default_rng(7)
    x = int_valued(rng, (1, 2, 6, 6))
    weights = int_valued(rng, (3, 2, 3, 3))
    bias = int_valued(rng, (3,))
    npt.assert_array_equal(
        ops.conv2d(x, ops.ConvParams(weights, bias, 1)),
        conv2d_naive(x, weights, bias, 1),
    )


def test_conv_homogeneity_power_of_two_exact():
    rng = np.random.default_rng(3)
    x = rng.random((1, 3, 8, 8))
    params = ops.ConvParams(rng.random((2, 3, 3, 3)), np.zeros(2), 2)
    npt.assert_array_equal(ops.conv2d(4.0 * x, params), 4.0 * ops.conv2d(x, params))


def test_conv_preserves_dtype():
    rng = np.random.default_rng(1)
    x32 = rng.random((1, 2, 5, 5), dtype=np.float32)
    params = ops.ConvParams(
        rng.random((3, 2, 3, 3)).astype(np.float32), np.zeros(3, np.float32), 1
    )
    assert ops.conv2d(x32, params).dtype == np.float32


def test_conv_validation():
    x = np.zeros((1, 2, 5, 5))
    with pytest.raises(ShapeError):
        ops.conv2d(x, ops.ConvParams(np.zeros((3, 4, 3, 3)), np.zeros(3), 1))
    with pytest.raises(ShapeError):
        ops.ConvParams(np.zeros((3, 2, 2, 2)), np.zeros(3), 1)  # even kernel
    with pytest.raises(ShapeError):
        ops.ConvParams(np.zeros((3, 2, 3, 3)), np.zeros(4), 1)  # bias mismatch
    with pytest.raises(ShapeError):
        ops.ConvParams(np.zeros((3, 2, 3, 3)), np.zeros(3), 0)  # dilation


def _conv_shapes():
    """(c_in, c_out, k, dilation) of every plan conv, plus 1x1 kernels and
    dilated narrowing kernels the plans do not have."""
    shapes = {(s.in_channels, s.out_channels, s.kernel, s.dilation)
              for plan in PLANS for s in plan.all_convs}
    assert {(322, 89, 3, 1), (102, 13, 3, 1), (28, 5, 3, 1), (15, 13, 3, 1),
            (5, 1, 1, 1), (89, 233, 3, 1)} <= shapes
    return sorted(shapes | {(7, 3, 1, 1), (5, 5, 1, 1), (4, 2, 3, 2), (6, 5, 3, 5),
                            (3, 1, 5, 3)})


@pytest.mark.parametrize("c_in,c_out,k,d", _conv_shapes())
def test_conv_backward_matches_the_scatter_oracle(c_in, c_out, k, d):
    rng = np.random.default_rng(c_in * 1000 + c_out * 10 + d)
    for h, w in ((7, 11), (12, 5)):
        x = rng.standard_normal((2, c_in, h, w))
        params = ops.ConvParams(rng.standard_normal((c_out, c_in, k, k)),
                                rng.standard_normal(c_out), d)
        grad_out = rng.standard_normal((2, c_out, h, w))
        for got, want in zip(ops.conv2d_backward(x, params, grad_out),
                             conv2d_backward_scatter(x, params, grad_out)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("k,d", [(k, d) for k in (3, 5) for d in (2, 3, 5)])
def test_dilated_narrowing_conv_is_exact_on_a_4_pixel_side(k, d):
    # narrowing kernels take the tap-output path; at d*(k-1)/2 >= 4 whole
    # taps fall outside the image and must add nothing
    rng = np.random.default_rng(100 * k + d)
    for h, w in ((4, 4), (4, 7), (9, 4)):
        x = int_valued(rng, (2, 6, h, w))
        params = ops.ConvParams(int_valued(rng, (3, 6, k, k)), int_valued(rng, (3,)), d)
        npt.assert_array_equal(ops.conv2d(x, params),
                               conv2d_naive(x, params.weights, params.bias, d))
        grad_out = int_valued(rng, (2, 3, h, w))
        for got, want in zip(ops.conv2d_backward(x, params, grad_out),
                             conv2d_backward_scatter(x, params, grad_out)):
            npt.assert_array_equal(got, want)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_narrowing_conv_forms_no_input_columns():
    # l7's shape: im2col would hold n * c_in*k*k * h*w floats; the tap side
    # forms k*k*c_out planes, 28/5 times fewer
    rng = np.random.default_rng(5)
    n, c_in, c_out, k, side = 2, 28, 5, 3, 64
    x = rng.standard_normal((n, c_in, side, side)).astype(np.float32)
    params = ops.ConvParams(rng.standard_normal((c_out, c_in, k, k)).astype(np.float32),
                            np.zeros(c_out, np.float32), 1)
    grad_out = rng.standard_normal((n, c_out, side, side)).astype(np.float32)
    col_bytes = n * c_in * k * k * side * side * 4
    assert _traced_peak(lambda: ops.conv2d(x, params)) < col_bytes
    assert _traced_peak(lambda: ops.conv2d_backward(x, params, grad_out, False)) < col_bytes


def test_conv_backward_without_input_gradient():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 3, 5, 5))
    params = ops.ConvParams(rng.standard_normal((5, 3, 3, 3)), np.zeros(5), 2)
    grad_out = rng.standard_normal((2, 5, 5, 5))
    gx, gw, gb = ops.conv2d_backward(x, params, grad_out, False)
    assert gx is None
    _, want_gw, want_gb = ops.conv2d_backward(x, params, grad_out)
    npt.assert_array_equal(gw, want_gw)
    npt.assert_array_equal(gb, want_gb)


def test_a_tap_side_adjoint_builds_grad_out_columns_once(monkeypatch):
    # a narrowing conv and a decoder stage's upsampled channels take both
    # their gradients from one column matrix of grad_out per sample
    built = []
    im2col = ops._im2col
    monkeypatch.setattr(ops, "_im2col", lambda x, *rest: built.append(x.shape) or im2col(x, *rest))
    rng = np.random.default_rng(9)
    grad_out = rng.standard_normal((2, 3, 8, 8))
    narrowing = ops.ConvParams(rng.standard_normal((3, 6, 3, 3)), np.zeros(3))
    ops.conv2d_backward(rng.standard_normal((2, 6, 8, 8)), narrowing, grad_out)
    assert built == [(1, 3, 8, 8)] * 2
    built.clear()
    upsampled = ops.ConvParams(rng.standard_normal((3, 4, 3, 3)), np.zeros(3))
    ops.upsample_conv2d_backward(rng.standard_normal((2, 4, 4, 4)), None, upsampled, grad_out)
    assert built == [(1, 3, 8, 8)] * 2


def test_a_1x1_conv_reads_its_input_in_place():
    # l8's shape: beside its output (as large as x), no padded or column
    # copy of the input
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 5, 64, 64)).astype(np.float32)
    params = ops.ConvParams(rng.standard_normal((5, 5, 1, 1)).astype(np.float32),
                            np.zeros(5, np.float32), 1)
    assert _traced_peak(lambda: ops.conv2d(x, params)) < 1.5 * x.nbytes


# -- fused decoder stage ----------------------------------------------------

def _decoder_shapes():
    """(c_up, c_skip, c_out, k, dilation) of every plan decoder conv, each
    also without its skip, plus small kernels the plans do not have."""
    shapes = set()
    for plan in PLANS:
        width = None
        for stage in plan.stages:
            if stage.pre == "upsample":
                spec = stage.convs[0]
                c_skip = spec.in_channels - width
                shapes |= {(width, c_skip, spec.out_channels, spec.kernel, spec.dilation),
                           (width, 0, spec.out_channels, spec.kernel, spec.dilation)}
            width = sum(s.out_channels for s in stage.convs)
    assert {(233, 89, 89, 3, 1), (89, 13, 13, 3, 1), (13, 15, 5, 3, 1),
            (13, 5, 5, 3, 1), (13, 0, 5, 3, 1)} <= shapes
    extra = {(c_up, c_skip, c_out, k, d) for k in (1, 3, 5) for d in (1, 2, 3)
             for c_up, c_skip, c_out in ((4, 3, 2), (3, 0, 5))}
    return sorted(shapes | extra)


@pytest.mark.parametrize("c_up,c_skip,c_out,k,d", _decoder_shapes())
def test_fused_decoder_stage_matches_the_composition(c_up, c_skip, c_out, k, d):
    # low-resolution sides 1-3 put whole taps outside the image at k*d >= 5
    rng = np.random.default_rng(c_up * 1000 + c_skip * 10 + k + d)
    for hl, wl in ((1, 1), (2, 3), (3, 2)):
        low = rng.standard_normal((2, c_up, hl, wl))
        skip = rng.standard_normal((2, c_skip, 2 * hl, 2 * wl)) if c_skip else None
        params = ops.ConvParams(rng.standard_normal((c_out, c_up + c_skip, k, k)),
                                rng.standard_normal(c_out), d)
        grad_out = rng.standard_normal((2, c_out, 2 * hl, 2 * wl))
        up = ops.upsample_nearest2(low)
        x = up if skip is None else ops.concat_channels(up, skip)
        got = (ops.upsample_conv2d(low, skip, params),
               *ops.upsample_conv2d_backward(low, skip, params, grad_out))
        want = (ops.conv2d(x, params),
                *upsample_conv2d_backward_composed(low, skip, params, grad_out))
        for name, a, b in zip(("out", "grad_low", "grad_skip", "grad_w", "grad_b"), got, want):
            if b is None:
                assert a is None, name
                continue
            assert a.shape == b.shape, name
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (name, hl, wl)


@pytest.mark.parametrize("c_up,c_skip,c_out,k,d", [s for s in _decoder_shapes() if s[1]])
def test_a_fused_decoder_stage_handed_its_skip_product_keeps_the_bits(c_up, c_skip, c_out, k, d):
    # an eval forward forms a decoder's skip side as soon as the skip
    # activation exists and hands it in place of the skip: the call adds the
    # upsampled side and the bias into that array, in float32 and float64,
    # with the bits of the call handed the skip itself
    rng = np.random.default_rng(c_up * 1000 + c_skip * 10 + k + d)
    for dtype, (hl, wl) in itertools.product((np.float32, np.float64), ((1, 1), (2, 3), (3, 2))):
        low = rng.standard_normal((2, c_up, hl, wl)).astype(dtype)
        skip = rng.standard_normal((2, c_skip, 2 * hl, 2 * wl)).astype(dtype)
        params = ops.ConvParams(rng.standard_normal((c_out, c_up + c_skip, k, k)).astype(dtype),
                                rng.standard_normal(c_out).astype(dtype), d)
        product = ops.skip_conv2d(skip, params)
        out = ops.upsample_conv2d(low, None, params, product)
        assert out is product
        assert out.tobytes() == ops.upsample_conv2d(low, skip, params).tobytes()
    with pytest.raises(ShapeError, match="skip product"):
        ops.upsample_conv2d(low, skip, params, product)
    with pytest.raises(ShapeError, match="skip product"):
        ops.upsample_conv2d(low, None, params, product[:, :1])
    with pytest.raises(ShapeError, match="upsampled input"):
        ops.skip_conv2d(np.concatenate([skip, low.repeat(2, 2).repeat(2, 3)], axis=1), params)


def _fused_and_skip_only_peaks(n):
    """Traced peaks, forward then adjoint, of the fused decoder stage at
    l7's shape with n samples of float32 and of the plain conv of its skip
    part; and the bytes of the upsampled input, which the fused stage must
    not form."""
    rng = np.random.default_rng(7)
    c_up, c_skip, c_out, k, side = 13, 15, 5, 3, 64
    low = rng.standard_normal((n, c_up, side // 2, side // 2)).astype(np.float32)
    skip = rng.standard_normal((n, c_skip, side, side)).astype(np.float32)
    params = ops.ConvParams(rng.standard_normal((c_out, c_up + c_skip, k, k)).astype(np.float32),
                            np.zeros(c_out, np.float32), 1)
    skip_only = ops.ConvParams(np.ascontiguousarray(params.weights[:, c_up:]), params.bias, 1)
    grad_out = rng.standard_normal((n, c_out, side, side)).astype(np.float32)
    peaks = [(_traced_peak(lambda: ops.upsample_conv2d(low, skip, params)),
              _traced_peak(lambda: ops.conv2d(skip, skip_only))),
             (_traced_peak(lambda: ops.upsample_conv2d_backward(low, skip, params, grad_out)),
              _traced_peak(lambda: ops.conv2d_backward(skip, skip_only, grad_out)))]
    return peaks, n * c_up * side * side * 4


def test_fused_decoder_stage_forms_no_concatenated_input_in_one_thread(inline_workers):
    # one sample's blocks at a time in both calls: the skip part alone costs
    # what the fused call costs; the upsampled input (13 planes) or the
    # concatenated one (28) on top of it would break the bound
    peaks, up_bytes = _fused_and_skip_only_peaks(2)
    for fused, skip_only in peaks:
        assert fused < skip_only + up_bytes


def test_fused_decoder_stage_forms_no_concatenated_input(monkeypatch):
    # on the workers, as a train step runs it, the caller's thread taking its
    # share beside a pool thread: each of the two samples may hold its
    # blocks while the other does, or not, as the threads meet. So
    # the bound is the skip part's one-sample cost (its output and blocks)
    # twice over, which a call holding both samples' blocks reaches. It
    # holds at any timing; a formed upsampled input breaks it only when the
    # blocks meet, and the test above is the exact one
    threads = set()
    padded_rows = ops._padded_rows

    def spy(*args):
        threads.add(threading.current_thread() is threading.main_thread())
        return padded_rows(*args)

    monkeypatch.setattr(ops, "_padded_rows", spy)
    peaks, up_bytes = _fused_and_skip_only_peaks(2)
    assert threads == ({True, False} if ops.WORKERS > 1 else {True})
    one_sample, _ = _fused_and_skip_only_peaks(1)
    for (fused, _), (_, skip_only) in zip(peaks, one_sample):
        assert fused < 2 * skip_only + up_bytes


def test_fused_decoder_stage_validation():
    params = ops.ConvParams(np.zeros((2, 5, 3, 3)), np.zeros(2), 1)
    low = np.zeros((1, 3, 4, 4))
    with pytest.raises(ShapeError, match="skip input"):
        ops.upsample_conv2d(low, np.zeros((1, 2, 4, 4)), params)
    with pytest.raises(ShapeError, match="3 \\+ 0 channels"):
        ops.upsample_conv2d(low, None, params)
    with pytest.raises(ShapeError, match="4-D"):
        ops.upsample_conv2d(low[0], np.zeros((1, 2, 8, 8)), params)
    with pytest.raises(ShapeError, match="grad_out"):
        ops.upsample_conv2d_backward(low, np.zeros((1, 2, 8, 8)), params, np.zeros((1, 2, 4, 4)))


# -- blocks -----------------------------------------------------------------

def _conv_and_adjoints(low, skip, params, grad_out):
    """Output and adjoints of a plain conv of skip (low None) or of a fused
    decoder stage."""
    if low is None:
        return ops.conv2d(skip, params), *ops.conv2d_backward(skip, params, grad_out)
    return (ops.upsample_conv2d(low, skip, params),
            *ops.upsample_conv2d_backward(low, skip, params, grad_out))


def _assert_all_equal(got, want):
    for i, (a, b) in enumerate(zip(got, want)):
        assert (a is None) == (b is None), i
        if b is not None:
            npt.assert_array_equal(a, b, err_msg=f"result {i}")


@pytest.mark.parametrize("budget", [1, 500])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_blocked_convs_match_the_oracles(monkeypatch, budget, d):
    # budget 1 cuts every plane into one-row strips, 500 some into strips of
    # a few rows; halos cross strip edges, and at d >= 2 whole taps fall
    # outside a strip
    monkeypatch.setattr(ops, "BLOCK_ELEMS", budget)
    rng = np.random.default_rng(10 * d + budget)
    n, h, w = 2, 10, 6
    # (c_up, c_in, c_out, k): plain convs on the column side and on the tap
    # side, then decoder stages with and without a skip
    for c_up, c_in, c_out, k in ((0, 3, 4, 3), (0, 6, 3, 3), (0, 4, 2, 5),
                                 (4, 3, 2, 3), (3, 0, 5, 3), (2, 3, 3, 5)):
        low = int_valued(rng, (n, c_up, h // 2, w // 2)) if c_up else None
        skip = int_valued(rng, (n, c_in, h, w)) if c_in else None
        params = ops.ConvParams(int_valued(rng, (c_out, c_up + c_in, k, k)),
                                int_valued(rng, (c_out,)), d)
        grad_out = int_valued(rng, (n, c_out, h, w))
        if low is None:
            want = (conv2d_naive(skip, params.weights, params.bias, d),
                    *conv2d_backward_scatter(skip, params, grad_out))
        else:
            up = ops.upsample_nearest2(low)
            x = up if skip is None else ops.concat_channels(up, skip)
            want = (conv2d_naive(x, params.weights, params.bias, d),
                    *upsample_conv2d_backward_composed(low, skip, params, grad_out))
        _assert_all_equal(_conv_and_adjoints(low, skip, params, grad_out), want)


def _plan_convs_at(size):
    """(c_up, c_in, c_out, k, dilation, side) of every plan conv at input
    side `size`: c_up counts a decoder stage's upsampled channels (0 for a
    plain conv), c_in the channels it reads at full resolution."""
    shapes = set()
    for plan in PLANS:
        side, width = size, 0
        for stage in plan.stages:
            side = {"pool": side // 2, "upsample": 2 * side}.get(stage.pre, side)
            c_up = width if stage.pre == "upsample" else 0
            shapes |= {(c_up, s.in_channels - c_up, s.out_channels, s.kernel, s.dilation, side)
                       for s in stage.convs}
            width = sum(s.out_channels for s in stage.convs)
    return sorted(shapes)


def test_the_block_budget_changes_no_bit(monkeypatch):
    # every plan conv and decoder stage at the training tile's sides, in
    # float32: each output element stays one BLAS dot product over the same
    # terms, so one-row strips give the whole plane's bits. That rests on the
    # BLAS keeping a product's order whatever the block's width, as OpenBLAS
    # does at these shapes but not for much smaller products
    shapes = _plan_convs_at(192)
    assert (233, 89, 89, 3, 1, 48) in shapes and (13, 15, 5, 3, 1, 192) in shapes
    rng = np.random.default_rng(18)
    for c_up, c_in, c_out, k, d, side in shapes:
        def draw(*shape):
            return rng.standard_normal(shape).astype(np.float32)
        low = draw(2, c_up, side // 2, side // 2) if c_up else None
        skip = draw(2, c_in, side, side) if c_in else None
        params = ops.ConvParams(draw(c_out, c_up + c_in, k, k), draw(c_out), d)
        grad_out = draw(2, c_out, side, side)
        results = []
        for budget in (1, 1 << 40):
            monkeypatch.setattr(ops, "BLOCK_ELEMS", budget)
            results.append(_conv_and_adjoints(low, skip, params, grad_out))
        _assert_all_equal(*results)


@pytest.mark.parametrize("c_up,c_skip,c_out,side", [(233, 89, 89, 192), (13, 15, 5, 768)])
def test_a_scene_decoder_stage_holds_two_blocks_beside_its_arrays(c_up, c_skip, c_out, side):
    # l5's and l7's shapes on a 768 scene at n = 1. Formed whole, l5's skip
    # columns (801 x 192^2) or l7's tap planes (45 x 768^2) would take
    # about 110 MB on top of the output; a padded copy of either whole
    # input (l7's skip: 36 MB) would cross the bound too
    rng = np.random.default_rng(c_out)
    low = rng.standard_normal((1, c_up, side // 2, side // 2)).astype(np.float32)
    skip = rng.standard_normal((1, c_skip, side, side)).astype(np.float32)
    params = ops.ConvParams(rng.standard_normal((c_out, c_up + c_skip, 3, 3)).astype(np.float32),
                            np.zeros(c_out, np.float32), 1)
    output = 4 * c_out * side ** 2
    two_blocks = 2 * 4 * ops.BLOCK_ELEMS
    assert _traced_peak(lambda: ops.upsample_conv2d(low, skip, params)) < output + two_blocks


# -- pooling / upsampling ---------------------------------------------------

def _plan_resampling_shapes(n, size):
    """Input shapes of every plan pool and upsample adjoint, at (n, size)."""
    pools, upsamples = set(), set()
    for plan in PLANS:
        side, width = size, None
        for stage in plan.stages:
            if stage.pre == "pool":
                pools.add((n, width, side, side))
                side //= 2
            elif stage.pre == "upsample":
                side *= 2
                upsamples.add((n, width, side, side))
            width = sum(s.out_channels for s in stage.convs)
    return sorted(pools), sorted(upsamples)


def _bits(a):
    return a.view(f"u{a.itemsize}")  # tells -0.0 from +0.0, and NaN payloads apart


@pytest.mark.parametrize("n,size", [(10, 192), (1, 768)])
def test_pool_and_upsample_adjoint_are_bit_identical_to_their_oracles(n, size):
    rng = np.random.default_rng(size)
    cot_rng = np.random.default_rng(size + 1)  # pool cotangents, off the input stream
    pools, upsamples = _plan_resampling_shapes(n, size)
    assert len(pools) == 4 and len(upsamples) == 3
    for shape in pools:
        # relu-like levels: many tied windows, most of them at zero
        x = np.maximum(rng.integers(-6, 7, shape), 0).astype(np.float32)
        x[:, :, 0::2] += rng.standard_normal(x[:, :, 0::2].shape).astype(np.float32)
        out = ops.maxpool2(x)
        want_out, want_arg = maxpool2_argmax(x)
        npt.assert_array_equal(_bits(out), _bits(want_out), err_msg=str(shape))
        g = cot_rng.standard_normal(out.shape).astype(np.float32)
        npt.assert_array_equal(_bits(ops.maxpool2_backward(g, x, out)),
                               _bits(maxpool2_scatter(g, want_arg, x.shape)), err_msg=str(shape))
    for shape in upsamples:
        g = rng.standard_normal(shape).astype(np.float32)
        npt.assert_array_equal(_bits(ops.upsample_nearest2_backward(g)),
                               _bits(upsample2_backward_blocks(g)), err_msg=str(shape))


@pytest.mark.parametrize("pos", range(4))
def test_maxpool_nan_pools_to_nan_at_the_first_nan(pos):
    x = np.array([[1.0, 2.0, 9.0, 0.0], [3.0, 4.0, 8.0, 7.0]]).reshape(1, 1, 2, 4)
    window = [(0, 0), (0, 1), (1, 0), (1, 1)]
    y, xx = window[pos]
    x[0, 0, y, xx] = np.nan
    x[0, 0, 1, 3] = np.nan  # the second window's last entry
    if pos < 3:
        x[0, 0, 1, 1] = np.nan  # a later NaN in the same window loses
    out = ops.maxpool2(x)
    assert np.isnan(out[0, 0, 0, 0]) and np.isnan(out[0, 0, 0, 1])
    g = np.array([-5.0, 6.0]).reshape(1, 1, 1, 2)
    gx = ops.maxpool2_backward(g, x, out)
    want = np.zeros(8)
    want[y * 4 + xx], want[7] = -5.0, 6.0
    npt.assert_array_equal(_bits(gx.ravel()), _bits(want))
    npt.assert_array_equal(_bits(gx), _bits(maxpool2_scatter(g, maxpool2_argmax(x)[1], x.shape)))


def test_maxpool_frozen_example():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out = ops.maxpool2(x)
    assert out[0, 0, 0, 0] == 4.0
    gx = ops.maxpool2_backward(np.full((1, 1, 1, 1), -5.0), x, out)
    npt.assert_array_equal(_bits(gx), _bits(np.array([[[[0.0, 0.0], [0.0, -5.0]]]])))


def test_maxpool_ties_pick_first_in_row_major_order():
    x = np.full((1, 1, 4, 4), 2.5)
    out = ops.maxpool2(x)
    npt.assert_array_equal(out, np.full((1, 1, 2, 2), 2.5))
    g = -np.arange(1.0, 5.0).reshape(1, 1, 2, 2)
    gx = ops.maxpool2_backward(g, x, out)
    want = np.zeros((4, 4))
    want[0::2, 0::2] = g[0, 0]  # window top-left corners
    npt.assert_array_equal(_bits(gx[0, 0]), _bits(want))
    npt.assert_array_equal(_bits(gx), _bits(maxpool2_scatter(g, maxpool2_naive(x)[1], x.shape)))


def test_maxpool_matches_naive_oracle_on_50_random_configs():
    rng = np.random.default_rng(11)
    cot_rng = np.random.default_rng(12)  # cotangents, off the config stream
    for case in range(50):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 4))
        h = 2 * int(rng.integers(1, 7))
        w = 2 * int(rng.integers(1, 7))
        x = int_valued(rng, (n, c, h, w))
        out = ops.maxpool2(x)
        want_out, want_arg = maxpool2_naive(x)
        npt.assert_array_equal(out, want_out, err_msg=f"case {case}")
        g = int_valued(cot_rng, out.shape)  # zeros and negatives: the +0 fill shows in the bits
        npt.assert_array_equal(_bits(ops.maxpool2_backward(g, x, out)),
                               _bits(maxpool2_scatter(g, want_arg, x.shape)),
                               err_msg=f"case {case} adjoint")


def test_maxpool_rejects_odd_dims():
    with pytest.raises(ShapeError):
        ops.maxpool2(np.zeros((1, 1, 5, 4)))


def test_maxpool_backward_routes_to_argmax():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out = ops.maxpool2(x)
    gx = ops.maxpool2_backward(np.full((1, 1, 1, 1), 5.0), x, out)
    npt.assert_array_equal(gx, [[[[0.0, 0.0], [0.0, 5.0]]]])


def test_upsample_repeats_pixels():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out = ops.upsample_nearest2(x)
    npt.assert_array_equal(out[0, 0], [
        [1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]
    ])


def test_upsample_matches_naive_and_adjoint_sums_blocks():
    rng = np.random.default_rng(4)
    x = rng.random((2, 3, 4, 5))
    npt.assert_array_equal(ops.upsample_nearest2(x), upsample2_naive(x))
    g = rng.random((2, 3, 8, 10))
    gx = ops.upsample_nearest2_backward(g)
    # adjoint identity: <up(x), g> == <x, up^T(g)>
    lhs = float((ops.upsample_nearest2(x) * g).sum())
    rhs = float((x * gx).sum())
    assert abs(lhs - rhs) < 1e-10
    npt.assert_allclose(gx[0, 0, 0, 0], g[0, 0, :2, :2].sum(), rtol=1e-12)


# -- batch normalization ----------------------------------------------------

def _bn_args(c, dtype=np.float64):
    """(gamma, beta, running_mean, running_var) at their initial values."""
    return np.ones(c, dtype), np.zeros(c, dtype), np.zeros(c, dtype), np.ones(c, dtype)


def test_batchnorm_train_normalizes_per_channel():
    rng = np.random.default_rng(5)
    x = rng.normal(3.0, 2.0, (4, 3, 6, 6))
    out = ops.batchnorm(x, *_bn_args(3), "train")[0]
    means = out.mean(axis=(0, 2, 3))
    stds = out.std(axis=(0, 2, 3))
    npt.assert_allclose(means, 0.0, atol=1e-12)
    npt.assert_allclose(stds, 1.0, atol=1e-4)  # epsilon skews slightly


def test_batchnorm_running_stats_update_rule():
    rng = np.random.default_rng(6)
    x = rng.normal(1.0, 1.5, (3, 2, 4, 4))
    gamma, beta, _, _ = _bn_args(2)
    batch_mean = x.mean(axis=(0, 2, 3))
    batch_var = x.var(axis=(0, 2, 3))  # biased
    _, _, mean, var = ops.batchnorm(x, gamma, beta, np.array([1.0, -1.0]),
                                    np.array([2.0, 0.5]), "train")
    m = ops.BN_MOMENTUM
    npt.assert_allclose(mean, (1 - m) * np.array([1.0, -1.0]) + m * batch_mean)
    npt.assert_allclose(var, (1 - m) * np.array([2.0, 0.5]) + m * batch_var)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_train_writes_to_no_argument(dtype):
    rng = np.random.default_rng(8)
    x = rng.normal(1.0, 1.5, (3, 2, 4, 4)).astype(dtype)
    args = [np.array(v, dtype) for v in ([1.5, 0.5], [0.2, -0.1], [1.0, -1.0], [2.0, 0.5])]
    before = [a.copy() for a in (x, *args)]
    for a in (x, *args):
        a.flags.writeable = False
    _, _, mean, var = ops.batchnorm(x, *args, "train")
    for a, b in zip((x, *args), before):
        assert a.tobytes() == b.tobytes()
    # the returned statistics follow the momentum rule, in the input's dtype
    m = np.asarray(ops.BN_MOMENTUM, dtype)
    want_mean = ((1 - m) * args[2] + m * x.mean(axis=(0, 2, 3))).astype(dtype)
    want_var = ((1 - m) * args[3] + m * x.var(axis=(0, 2, 3))).astype(dtype)
    assert mean.dtype == var.dtype == dtype
    assert mean.tobytes() == want_mean.tobytes()
    assert var.tobytes() == want_var.tobytes()


def test_batchnorm_eval_uses_running_stats_only():
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 1.0, (2, 2, 3, 3))
    gamma, beta = np.array([2.0, 3.0]), np.array([1.0, -1.0])
    running_mean, running_var = np.array([0.5, -0.5]), np.array([4.0, 1.0])
    out, _, mean, var = ops.batchnorm(x, gamma, beta, running_mean, running_var, "eval")
    want = gamma.reshape(1, 2, 1, 1) * (
        (x - running_mean.reshape(1, 2, 1, 1))
        / np.sqrt(running_var.reshape(1, 2, 1, 1) + 1e-5)
    ) + beta.reshape(1, 2, 1, 1)
    npt.assert_allclose(out, want, rtol=1e-12)
    npt.assert_array_equal(running_mean, [0.5, -0.5])  # untouched in eval
    # eval returns the statistics it was given, unchanged
    assert mean is running_mean and var is running_var
    npt.assert_array_equal(var, [4.0, 1.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_batchnorm_into_its_input_gives_the_bits_of_a_fresh_result(dtype):
    """In either mode, batch norm written into its input gives the bits,
    statistics and cache of a fresh result."""
    rng = np.random.default_rng(10)
    x = rng.normal(1.0, 2.0, (2, 3, 5, 7)).astype(dtype)
    args = [rng.uniform(0.5, 1.5, 3).astype(dtype) for _ in range(4)]
    for mode in ("eval", "train"):
        want, want_cache, want_mean, want_var = ops.batchnorm(x, *args, mode)
        z = x.copy()
        got, cache, mean, var = ops.batchnorm(z, *args, mode, z)
        assert got is z
        assert got.tobytes() == want.tobytes()
        assert mean.tobytes() == want_mean.tobytes() and var.tobytes() == want_var.tobytes()
        if mode == "eval":
            assert cache is want_cache is None
            assert mean is args[2] and var is args[3]
        else:
            assert cache.keys() == want_cache.keys() == {"xhat", "inv_std", "gamma"}
            for key in cache:
                assert cache[key].tobytes() == want_cache[key].tobytes(), key
            assert cache["xhat"] is not z


def test_batchnorm_rejects_single_element_statistics():
    with pytest.raises(ShapeError):
        ops.batchnorm(np.zeros((1, 2, 1, 1)), *_bn_args(2), "train")


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batchnorm_state_validation(mode):
    with pytest.raises(ValueError, match="beta must have shape"):
        ops.batchnorm(np.zeros((2, 2, 3, 3)), np.ones(2), np.zeros(3), np.zeros(2),
                      np.ones(2), mode)


# -- activations ------------------------------------------------------------

def test_relu_and_sigmoid_pointwise():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0]).reshape(1, 1, 1, 5)
    npt.assert_array_equal(ops.relu(x, np.empty_like(x)).ravel(), [0, 0, 0, 0.5, 2.0])
    assert ops.sigmoid(np.zeros(1))[0] == 0.5
    npt.assert_allclose(ops.sigmoid(np.array([1.0]))[0], 1 / (1 + np.exp(-1)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_bit_identical_to_the_sign_split(dtype):
    rng = np.random.default_rng(9)
    normals = [rng.normal(0.0, scale, 20000) for scale in (0.1, 1.0, 10.0, 100.0, 1000.0)]
    edges = [0.0, -0.0, 1e30, -1e30, 745.0, -745.0, np.inf, -np.inf]
    x = np.concatenate(normals + [np.array(edges)]).astype(dtype)
    out = ops.sigmoid(x)
    assert out.dtype == dtype
    npt.assert_array_equal(_bits(out), _bits(sigmoid_split(x)))


def test_sigmoid_extreme_inputs_saturate_without_warnings():
    with np.errstate(over="raise"):
        out = ops.sigmoid(np.array([-800.0, 800.0]))
    npt.assert_array_equal(out, [0.0, 1.0])


def test_relu_into_its_input_gives_the_bits_of_a_fresh_result():
    x = np.array([-1.5, -0.0, 0.0, 2.5, np.inf, np.nan], np.float32).reshape(1, 2, 1, 3)
    want = ops.relu(x, np.empty_like(x))
    got = ops.relu(x, x)
    assert got is x and got.tobytes() == want.tobytes()


def test_relu_backward_masks_by_output():
    x = np.array([-1.0, 2.0, -3.0, 4.0]).reshape(1, 4, 1, 1)
    out = ops.relu(x, np.empty_like(x))
    g = ops.relu_backward(np.ones(x.shape), out)
    npt.assert_array_equal(g.ravel(), [0, 1, 0, 1])


# -- dropout ----------------------------------------------------------------

def test_dropout_rate_zero_is_identity_in_train():
    rng = np.random.default_rng(0)
    x = rng.random((2, 3, 4, 4))
    out = ops.dropout(x, 0.0, np.random.default_rng(1))
    npt.assert_array_equal(out, x)


def test_dropout_train_scales_survivors():
    x = np.ones((1, 1, 100, 100))
    out = ops.dropout(x, 0.3, np.random.default_rng(2))
    survivors = out[out > 0]
    npt.assert_allclose(survivors, 1.0 / 0.7, rtol=1e-12)
    # drop rate within a few percent of nominal on 10k draws
    assert abs((out == 0).mean() - 0.3) < 0.03
    npt.assert_allclose(out.mean(), 1.0, atol=0.05)  # inverted scaling keeps mean


def test_dropout_same_seed_same_mask_across_dtypes():
    x32 = np.ones((2, 2, 8, 8), dtype=np.float32)
    x64 = np.ones((2, 2, 8, 8), dtype=np.float64)
    out32 = ops.dropout(x32, 0.5, np.random.default_rng(9))
    out64 = ops.dropout(x64, 0.5, np.random.default_rng(9))
    npt.assert_array_equal(out32 > 0, out64 > 0)


def test_dropout_draws_in_blocks_give_the_mask_of_one_whole_draw(monkeypatch):
    """Blocks of 7 draws, none of which divides the 2*3*9*11 entries, read the
    stream of one whole draw: the same keep mask and output bits."""
    monkeypatch.setattr(ops, "BLOCK_ELEMS", 7)
    x = np.random.default_rng(5).random((2, 3, 9, 11)).astype(np.float32)
    out = ops.dropout(x, 0.3, np.random.default_rng(21))
    want = np.random.default_rng(21).random(x.shape) >= 0.3
    assert out.tobytes() == (x * (want.astype(np.float32) / np.float32(0.7))).tobytes()


def test_dropout_rejects_rate_one():
    with pytest.raises(ValueError):
        ops.dropout(np.ones((1, 1, 2, 2)), 1.0, np.random.default_rng(0))


def test_dropout_backward_applies_same_mask():
    x = np.ones((1, 1, 10, 10))
    out = ops.dropout(x, 0.4, np.random.default_rng(3))
    g = ops.dropout_backward(np.ones_like(x), out != 0, 0.4)
    npt.assert_array_equal(g, out)  # x is all ones: out is the forward's scaled mask


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.1, 0.5, 0.3])
def test_dropout_backward_gated_on_its_output_is_both_adjoints_after_relu(rate, dtype):
    """After relu, out > 0 is where dropout kept an entry and relu passed it:
    one gate on it gives the bits, signed zeros included, of dropout's adjoint
    on its keep mask followed by relu's."""
    r = np.random.default_rng(17)
    x = r.standard_normal((2, 3, 9, 11)).astype(dtype)
    x[r.random(x.shape) < 0.2] = 0  # exact zeros, which relu does not pass
    g = r.standard_normal(x.shape).astype(dtype)
    out = ops.dropout(ops.relu(x, np.empty_like(x)), rate, np.random.default_rng(23))
    keep = np.random.default_rng(23).random(x.shape) >= rate
    want = ops.relu_backward(ops.dropout_backward(g, keep, rate), out)
    got = ops.dropout_backward(g, out > 0, rate)
    assert got.dtype == want.dtype == dtype
    assert np.signbit(got[got == 0]).any() and not np.signbit(got[got == 0]).all()
    assert got.tobytes() == want.tobytes()


# -- concat / split ---------------------------------------------------------

def test_concat_then_split_is_identity():
    rng = np.random.default_rng(8)
    a = rng.random((2, 3, 5, 5))
    b = rng.random((2, 4, 5, 5))
    cat = ops.concat_channels(a, b)
    assert cat.shape == (2, 7, 5, 5)
    a2, b2 = ops.split_channels(cat, 3)
    npt.assert_array_equal(a2, a)
    npt.assert_array_equal(b2, b)


def test_concat_rejects_spatial_mismatch():
    with pytest.raises(ShapeError):
        ops.concat_channels(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 5, 4)))


# -- losses -----------------------------------------------------------------

def test_bce_maximum_entropy_point():
    pred = np.full((1, 1, 2, 2), 0.5)
    target = np.array([0.0, 1.0, 0.0, 1.0]).reshape(1, 1, 2, 2)
    loss, grad = ops.bce_loss(pred, target)
    npt.assert_allclose(loss, np.log(2.0), rtol=1e-12)
    assert grad.shape == pred.shape


def test_bce_perfect_prediction_is_tiny():
    target = np.array([0.0, 1.0]).reshape(1, 1, 1, 2)
    loss, _ = ops.bce_loss(target.copy(), target)
    assert 0.0 <= loss <= 1.01e-7


def test_bce_loss_is_finite_at_hard_saturation():
    pred = np.array([0.0, 1.0]).reshape(1, 1, 1, 2)
    target = np.array([1.0, 0.0]).reshape(1, 1, 1, 2)
    loss, grad = ops.bce_loss(pred, target)
    assert np.isfinite(loss)
    # the exact derivative of the clamped composition is zero out there
    npt.assert_array_equal(grad, np.zeros_like(grad))


def test_loss_registry_holds_bce_alone():
    assert ops.LOSSES == {"bce": ops.bce_loss}
