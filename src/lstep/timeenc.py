"""Fixed cosine time-delta encoder.

Encodes an elapsed time delta as cos(delta * omega) against a geometric
frequency ladder omega_i = alpha ** (-(i - 1) / beta), i = 1..d_t, with
``d_t``, ``alpha`` and ``beta`` read from the run's ``RunConfig``. There
are no learnable parameters; a zero delta encodes to the all-ones vector.
"""
from __future__ import annotations

import numpy as np

from .config import RunConfig

__all__ = ["angular_frequencies", "time_encode"]


def angular_frequencies(cfg: RunConfig) -> np.ndarray:
    i = np.arange(1, cfg.d_t + 1, dtype=np.float64)
    return cfg.alpha ** (-(i - 1.0) / cfg.beta)


def time_encode(deltas: float | np.ndarray, cfg: RunConfig) -> np.ndarray:
    """Encode a non-negative delta, or each entry of an array of them:
    shape (...,) to (..., d_t), so a single delta gives a (d_t,) vector."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.size and float(deltas.min()) < 0.0:
        raise ValueError(f"negative time delta: {float(deltas.min())}")
    return np.cos(deltas[..., None] * angular_frequencies(cfg))
