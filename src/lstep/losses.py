"""Training objectives: link cross-entropy plus a positional-contrast term.

Both work on whole batches: probabilities as (B, 1) columns, encoding
pairs as two (B, d_p) row blocks.
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor, add, clamp, log, norm2, scale, sub, sum_all

__all__ = ["loss_lp", "loss_pe", "total_loss", "PROB_FLOOR"]

PROB_FLOOR = 1e-12


def _log_prob(p: Tensor) -> Tensor:
    return log(clamp(p, PROB_FLOOR, 1.0 - PROB_FLOOR))


def _sides(pos_shape: tuple, neg_shape: tuple) -> int:
    b = pos_shape[0] if pos_shape else 0
    if b == 0 or pos_shape != neg_shape:
        raise ValueError(
            f"need equal non-empty sides, got positives {pos_shape}, negatives {neg_shape}"
        )
    return b


def loss_lp(pos_probs: Tensor, neg_probs: Tensor) -> Tensor:
    """-(1/2B) [sum log y+  +  sum log (1 - y-)], probabilities floored."""
    b = _sides(pos_probs.shape, neg_probs.shape)
    pos = sum_all(_log_prob(pos_probs))
    neg = sum_all(_log_prob(sub(Tensor(np.ones(neg_probs.shape)), neg_probs)))
    return scale(add(pos, neg), -1.0 / (2.0 * b))


def loss_pe(
    pos_pairs: tuple[Tensor, Tensor],
    neg_pairs: tuple[Tensor, Tensor],
    alpha_neg: float = 0.3,
) -> Tensor:
    """(1/B) [sum ||p~u+ - p~v+||  -  alpha_neg * sum ||p~u- - p~v-||].

    Each side is a (u, v) pair of (B, d_p) row blocks. Attractive on
    observed pairs, repulsive on negatives; can be negative.
    """
    b = _sides(pos_pairs[0].shape, neg_pairs[0].shape)
    pos = sum_all(norm2(sub(*pos_pairs)))
    neg = sum_all(norm2(sub(*neg_pairs)))
    return scale(add(pos, scale(neg, -alpha_neg)), 1.0 / b)


def total_loss(l_lp: Tensor, l_pe: Tensor, alpha_pe: float = 0.5) -> Tensor:
    """(1 - alpha_pe) * link loss + alpha_pe * positional loss."""
    return add(scale(l_lp, 1.0 - alpha_pe), scale(l_pe, alpha_pe))
