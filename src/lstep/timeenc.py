"""Fixed cosine time-delta encoder.

Encodes an elapsed time delta as cos(delta * omega) against a geometric
frequency ladder omega_i = alpha ** (-(i - 1) / beta), i = 1..dim. There
are no learnable parameters; a zero delta encodes to the all-ones vector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TimeEncoderConfig", "angular_frequencies", "time_encode", "time_encode_many"]


@dataclass(frozen=True)
class TimeEncoderConfig:
    dim: int = 100
    alpha: float = 10.0
    beta: float = 10.0


def angular_frequencies(cfg: TimeEncoderConfig) -> np.ndarray:
    i = np.arange(1, cfg.dim + 1, dtype=np.float64)
    return cfg.alpha ** (-(i - 1.0) / cfg.beta)


def time_encode(delta: float, cfg: TimeEncoderConfig) -> np.ndarray:
    """Encode a single non-negative delta to a (dim,) vector."""
    if delta < 0.0:
        raise ValueError(f"negative time delta: {delta}")
    return np.cos(delta * angular_frequencies(cfg))


def time_encode_many(deltas: np.ndarray, cfg: TimeEncoderConfig) -> np.ndarray:
    """Encode every entry of a delta array: shape (...,) to (..., dim)."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.size and float(deltas.min()) < 0.0:
        raise ValueError(f"negative time delta: {float(deltas.min())}")
    return np.cos(deltas[..., None] * angular_frequencies(cfg))
