"""Adam optimizer over named parameter dicts.

State mirrors the parameter tree exactly and holds only what carries from
step to step: the step counter and the two moments. The decay rates are the
textbook BETA1 and BETA2; only lr and eps are inputs to each step. A step is
atomic: if any gradient entry is non-finite the step is rejected and neither
the parameters nor the moment estimates change.

Update rule per tensor (t is the shared step counter):
    t <- t + 1
    m <- BETA1 * m + (1 - BETA1) * g
    v <- BETA2 * v + (1 - BETA2) * g^2
    theta <- theta - lr * (m / (1 - BETA1^t)) / (sqrt(v / (1 - BETA2^t)) + eps)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteGradientError, ShapeError

BETA1, BETA2 = 0.9, 0.999


@dataclass
class AdamState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params: dict) -> AdamState:
    """Zero-initialized moments shaped like `params`, step counter 0."""
    state = AdamState()
    for name, p in params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def adam_step(params: dict, grads: dict, state: AdamState, *, lr: float, eps: float) -> None:
    """Apply one Adam step in place on `params` and `state`.

    Raises NonFiniteGradientError before touching any state if a gradient
    entry is NaN or infinite, naming the offending tensor.
    """
    if set(grads) != set(params):
        missing = sorted(set(params) - set(grads))
        extra = sorted(set(grads) - set(params))
        raise ShapeError(
            f"gradient keys do not match parameters (missing {missing}, unexpected {extra})"
        )
    for name in params:
        if grads[name].shape != params[name].shape:
            raise ShapeError(
                f"gradient for {name} has shape {grads[name].shape}, "
                f"parameter has {params[name].shape}"
            )
    for name in sorted(grads):
        if not np.isfinite(grads[name]).all():
            raise NonFiniteGradientError(
                f"gradient for {name} contains non-finite entries; step rejected"
            )

    state.t += 1
    corr1 = 1.0 - BETA1 ** state.t
    corr2 = 1.0 - BETA2 ** state.t
    for name in params:
        g = grads[name]
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        m_hat = state.m[name] / corr1
        v_hat = state.v[name] / corr2
        params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
