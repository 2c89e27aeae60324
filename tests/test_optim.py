"""Adam update rule: first-step geometry, recurrences, and atomicity."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from lmnet.errors import NonFiniteGradientError, ShapeError
from lmnet.optim import AdamState, adam_init, adam_step

# the paper's Adam settings, which TrainConfig holds as its defaults; the decay
# rates are optim's constants
PAPER = dict(lr=0.005, eps=1e-8)


def test_first_step_moves_by_learning_rate_against_gradient_sign():
    params = {"w": np.array([1.0, -1.0])}
    state = adam_init(params)
    adam_step(params, {"w": np.array([2.0, -2.0])}, state, **PAPER)
    # bias-corrected m/sqrt(v) is exactly sign(g) on step one, so the move
    # is lr against the gradient, up to the eps in the denominator
    npt.assert_allclose(params["w"], [1.0 - 0.005, -1.0 + 0.005], atol=1e-9)
    assert state.t == 1


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_first_step_size_is_scale_free(scale):
    params = {"w": np.array([0.0])}
    state = adam_init(params)
    adam_step(params, {"w": np.array([scale])}, state, **PAPER)
    assert abs(-params["w"][0] / 0.005 - 1.0) < 0.01


def test_zero_gradient_is_a_fixed_point_but_advances_the_clock():
    params = {"w": np.array([3.0])}
    state = adam_init(params)
    adam_step(params, {"w": np.zeros(1)}, state, **PAPER)
    npt.assert_array_equal(params["w"], [3.0])
    assert state.t == 1
    npt.assert_array_equal(state.m["w"], [0.0])


def test_quadratic_descent_walks_toward_zero():
    params = {"w": np.array([1.0])}
    state = adam_init(params)
    for _ in range(100):
        adam_step(params, {"w": 2.0 * params["w"]}, state, **PAPER)
    # near-constant steps of ~lr shave about half the distance in 100 steps
    assert abs(params["w"][0]) < 0.7
    assert abs(params["w"][0]) < 1.0 - 90 * 0.005  # monotone-ish progress


def test_matches_textbook_recurrence_for_five_steps():
    rng = np.random.default_rng(0)
    params = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(4,))}
    ref = {k: v.copy() for k, v in params.items()}
    state = adam_init(params)

    # written with the same expression shapes as the implementation so the
    # comparison can be bitwise, at the textbook decay rates 0.9 and 0.999
    m = {k: np.zeros_like(v) for k, v in ref.items()}
    v = {k: np.zeros_like(p) for k, p in ref.items()}
    for t in range(1, 6):
        grads = {k: rng.normal(size=p.shape) for k, p in ref.items()}
        adam_step(params, grads, state, lr=0.01, eps=1e-6)
        for k in ref:
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * grads[k]
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * grads[k] * grads[k]
            mh = m[k] / (1.0 - 0.9**t)
            vh = v[k] / (1.0 - 0.999**t)
            ref[k] = ref[k] - 0.01 * mh / (np.sqrt(vh) + 1e-6)
    for k in ref:
        npt.assert_array_equal(params[k], ref[k])


def test_non_finite_gradient_rejected_atomically():
    params = {"a": np.ones(2), "b": np.ones(3)}
    state = adam_init(params)
    adam_step(params, {"a": np.ones(2), "b": np.ones(3)}, state, **PAPER)
    snap_params = {k: v.copy() for k, v in params.items()}
    snap_m = {k: v.copy() for k, v in state.m.items()}
    snap_v = {k: v.copy() for k, v in state.v.items()}

    bad = {"a": np.ones(2), "b": np.array([1.0, np.nan, 1.0])}
    with pytest.raises(NonFiniteGradientError, match="b"):
        adam_step(params, bad, state, **PAPER)
    assert state.t == 1  # clock did not advance
    for k in params:
        npt.assert_array_equal(params[k], snap_params[k])
        npt.assert_array_equal(state.m[k], snap_m[k])
        npt.assert_array_equal(state.v[k], snap_v[k])


def test_infinity_is_rejected_like_nan():
    params = {"a": np.ones(1)}
    state = adam_init(params)
    with pytest.raises(NonFiniteGradientError):
        adam_step(params, {"a": np.array([np.inf])}, state, **PAPER)


def test_key_and_shape_mismatches_are_shape_errors():
    params = {"a": np.ones(2)}
    state = adam_init(params)
    with pytest.raises(ShapeError, match="missing"):
        adam_step(params, {}, state, **PAPER)
    with pytest.raises(ShapeError, match="unexpected"):
        adam_step(params, {"a": np.ones(2), "zz": np.ones(1)}, state, **PAPER)
    with pytest.raises(ShapeError, match="shape"):
        adam_step(params, {"a": np.ones(3)}, state, **PAPER)


def test_steps_are_deterministic():
    def run():
        params = {"w": np.linspace(-1, 1, 5)}
        state = adam_init(params)
        for t in range(10):
            adam_step(params, {"w": np.sin(params["w"] + t)}, state, **PAPER)
        return params["w"]

    npt.assert_array_equal(run(), run())


def test_state_is_the_step_and_the_moments():
    assert [f.name for f in dataclasses.fields(AdamState)] == ["t", "m", "v"]
