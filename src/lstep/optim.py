"""Adam with bias correction over named parameter tensors."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

__all__ = ["AdamState", "adam_step"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, keyed like the parameter dict."""

    lr: float = 1e-4
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    state: AdamState,
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
) -> dict[str, Tensor]:
    """One bias-corrected update, in place on the parameter tensors."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        if name not in grads:
            raise KeyError(f"no gradient supplied for parameter {name!r}")
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        # in place through two scratch arrays, in the operation order of
        # m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
        # p -= (lr m_hat) / (sqrt(v_hat) + eps), so the bits match it.
        # A linear layer's weight gradient is a transposed view, so g is
        # first copied to the parameter's layout: every later op is then
        # elementwise over equally laid out arrays.
        a = np.empty_like(p.data)
        b = np.empty_like(p.data)
        b[...] = g
        np.multiply(1.0 - BETA1, b, out=a)
        m *= BETA1
        m += a
        np.multiply(1.0 - BETA2, b, out=a)
        a *= b
        v *= BETA2
        v += a
        np.divide(m, 1.0 - BETA1**t, out=a)
        a *= state.lr
        np.divide(v, 1.0 - BETA2**t, out=b)
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        p.data -= a
    return params
