"""Ranking metrics against brute-force oracles."""
import numpy as np
import pytest

from lstep.metrics import average_precision, roc_auc


def _ap_oracle(scores, labels):
    """Precision-at-k summed over positive hits, stable ranking."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    hits = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            total += hits / rank
    return total / int(np.sum(labels))


def _auc_oracle(scores, labels):
    """All positive-negative score comparisons, ties worth one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1 for p in pos for n in neg if p > n)
    ties = sum(1 for p in pos for n in neg if p == n)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_ap_known_value():
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    labels = np.array([1, 0, 0, 1])
    # hits at ranks 1 and 4: (1/1 + 2/4) / 2 = 0.75
    assert average_precision(scores, labels) == 0.75


def test_ap_perfect_and_inverted_rankings():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert average_precision(scores, labels) == 1.0
    # worst case: positives ranked last -> (1/3 + 2/4) / 2
    flipped = average_precision(scores, labels[::-1])
    assert abs(flipped - (1.0 / 3.0 + 2.0 / 4.0) / 2.0) < 1e-15


def test_auc_known_values():
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    labels = np.array([1, 0, 1, 0])
    # pairs: (.9 beats .8, .6), (.7 beats .6, loses to .8) -> 3/4
    assert roc_auc(scores, labels) == 0.75
    assert roc_auc(scores, np.array([1, 1, 0, 0])) == 1.0
    assert roc_auc(scores, np.array([0, 0, 1, 1])) == 0.0


def test_auc_all_tied_scores_is_half():
    scores = np.full(6, 0.5)
    labels = np.array([1, 0, 1, 0, 1, 0])
    assert roc_auc(scores, labels) == 0.5


def test_matches_oracles_exactly_on_random_instances():
    rng = np.random.default_rng(72)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        if labels.sum() == n:
            labels[int(rng.integers(0, n))] = 0
        # quantized scores force frequent ties
        scores = np.round(rng.random(n), 1)
        assert average_precision(scores, labels) == _ap_oracle(scores, labels)
        assert roc_auc(scores, labels) == _auc_oracle(scores, labels)


def test_ap_requires_a_positive():
    with pytest.raises(ValueError, match="positive"):
        average_precision(np.array([0.1, 0.2]), np.array([0, 0]))


def test_auc_requires_both_classes():
    with pytest.raises(ValueError, match="both classes"):
        roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))


def test_input_validation():
    with pytest.raises(ValueError, match="shapes disagree"):
        average_precision(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shapes disagree"):
        roc_auc(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="empty"):
        roc_auc(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError, match="0/1"):
        roc_auc(np.zeros(2), np.array([1, 2]))


def test_non_finite_scores_rejected():
    labels = np.array([1, 0, 1])
    for bad in (np.nan, np.inf, -np.inf):
        scores = np.array([0.3, bad, 0.1])
        with pytest.raises(ValueError, match="non-finite score .* at index 1"):
            average_precision(scores, labels)
        with pytest.raises(ValueError, match="non-finite score .* at index 1"):
            roc_auc(scores, labels)
