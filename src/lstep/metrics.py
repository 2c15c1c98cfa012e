"""Ranking metrics computed from first principles.

Average precision follows the precision-at-k / recall-increment form over
a score-descending ranking with stable tie order. ROC-AUC is the
Mann-Whitney statistic with ties counted half; both reduce to integer
pair counts followed by a single float division, so results are exact.
"""
from __future__ import annotations

import numpy as np

__all__ = ["average_precision", "roc_auc"]


def _validate(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError(
            f"scores/labels shapes disagree: {scores.shape} vs {labels.shape}"
        )
    if scores.size == 0:
        raise ValueError("empty metric input")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise ValueError(f"non-finite score {scores[bad[0]]} at index {int(bad[0])}")
    uniq = set(np.unique(labels).tolist())
    if not uniq <= {0, 1}:
        raise ValueError(f"labels must be 0/1, got {sorted(uniq)}")
    return scores, labels.astype(np.int64)


def average_precision(scores, labels) -> float:
    """Sum of precision@k * recall-increment over the descending ranking."""
    scores, labels = _validate(scores, labels)
    num_pos = int(labels.sum())
    if num_pos == 0:
        raise ValueError("average precision needs at least one positive")
    ranked = labels[np.argsort(-scores, kind="stable")]
    hit = ranked == 1
    precision = np.cumsum(ranked)[hit] / np.arange(1, ranked.size + 1)[hit]
    # summed left to right, as the ranking is walked; np.sum adds pairwise
    return float(np.cumsum(precision)[-1]) / num_pos


def roc_auc(scores, labels) -> float:
    """P(score+ > score-) with ties counted 0.5; needs both classes."""
    scores, labels = _validate(scores, labels)
    num_pos = int(labels.sum())
    num_neg = int(labels.size - num_pos)
    if num_pos == 0 or num_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    _, group = np.unique(scores, return_inverse=True)
    group_pos = np.bincount(group, weights=labels).astype(np.int64)
    group_neg = np.bincount(group) - group_pos
    neg_below = np.cumsum(group_neg) - group_neg
    wins = int(group_pos @ neg_below)  # positive strictly above negative
    ties = int(group_pos @ group_neg)
    return (2 * wins + ties) / float(2 * num_pos * num_neg)
