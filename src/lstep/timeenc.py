"""Fixed cosine time-delta encoder.

Encodes an elapsed time delta as cos(delta * omega) against a geometric
frequency ladder omega_i = alpha ** (-(i - 1) / beta), i = 1..d_t, with
``d_t``, ``alpha`` and ``beta`` read from the run's ``RunConfig``. There
are no learnable parameters; a zero delta encodes to the all-ones vector.

The temporal representation does not call this per slot: it evaluates
cos and sin of omega (t - t_ref) once per query and once per distinct
window event, t_ref the batch's latest query time, and recombines them
by cos(a - b) = cos a cos b + sin a sin b. Against that per-batch
reference a phase is no larger than the deltas themselves, so at
Unix-epoch timestamps (about 1.7e9) with deltas up to 1e5 the results
match this encoder within 1e-9; phases against t = 0 would be about
1.7e9 rad and miss by about 2e-7.
"""
from __future__ import annotations

import numpy as np

from .config import RunConfig

__all__ = ["angular_frequencies", "time_encode", "time_encode_many"]


def angular_frequencies(cfg: RunConfig) -> np.ndarray:
    i = np.arange(1, cfg.d_t + 1, dtype=np.float64)
    return cfg.alpha ** (-(i - 1.0) / cfg.beta)


def time_encode(delta: float, cfg: RunConfig) -> np.ndarray:
    """Encode a single non-negative delta to a (d_t,) vector."""
    if delta < 0.0:
        raise ValueError(f"negative time delta: {delta}")
    return np.cos(delta * angular_frequencies(cfg))


def time_encode_many(deltas: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """Encode every entry of a delta array: shape (...,) to (..., d_t)."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.size and float(deltas.min()) < 0.0:
        raise ValueError(f"negative time delta: {float(deltas.min())}")
    return np.cos(deltas[..., None] * angular_frequencies(cfg))
