"""Loss values against hand-computed references."""
import math

import numpy as np
import pytest

from lstep.autodiff import GradientTape, Tensor, backward
from lstep.losses import PROB_FLOOR, loss_lp, loss_pe, total_loss


def _probs(values):
    """A (B, 1) column of probabilities."""
    return Tensor(np.asarray(values, dtype=float).reshape(-1, 1))


def _pairs(values):
    """(u, v) row blocks, one row per pair."""
    us, vs = zip(*values)
    return Tensor(np.asarray(us, dtype=float)), Tensor(np.asarray(vs, dtype=float))


def test_loss_lp_hand_value():
    # B = 2: -(1/4) [log .9 + log .8 + log(1 - .2) + log(1 - .1)]
    got = float(loss_lp(_probs([0.9, 0.8]), _probs([0.2, 0.1])).data)
    want = -(math.log(0.9) + math.log(0.8) + math.log(0.8) + math.log(0.9)) / 4.0
    assert abs(got - want) < 1e-14


def test_loss_lp_at_half_is_log_two():
    got = float(loss_lp(_probs([0.5] * 3), _probs([0.5] * 3)).data)
    assert abs(got - math.log(2.0)) < 1e-12


def test_loss_lp_floors_extreme_probabilities():
    got = float(loss_lp(_probs([0.0]), _probs([1.0])).data)
    want = -math.log(PROB_FLOOR)
    assert abs(got - want) < 1e-9
    assert math.isfinite(got)


def test_loss_lp_requires_matched_sides():
    with pytest.raises(ValueError, match="equal non-empty"):
        loss_lp(_probs([0.5]), _probs([0.5, 0.5]))
    with pytest.raises(ValueError, match="equal non-empty"):
        loss_lp(_probs([]), _probs([]))


def test_loss_pe_hand_value():
    pos = _pairs([(np.array([1.0, 0.0]), np.array([0.0, 0.0]))])
    neg = _pairs([(np.array([0.0, 2.0]), np.array([0.0, 0.0]))])
    # (1/1) [1 - 0.3 * 2] = 0.4
    got = float(loss_pe(pos, neg).data)
    assert abs(got - 0.4) < 1e-14


def test_loss_pe_identical_pairs_is_zero():
    u = np.array([0.3, -0.7, 2.0])
    pos = _pairs([(u, u), (u, u)])
    neg = _pairs([(u, u), (u, u)])
    assert float(loss_pe(pos, neg).data) == 0.0


def test_loss_pe_can_go_negative():
    pos = _pairs([(np.zeros(2), np.zeros(2))])
    neg = _pairs([(np.array([10.0, 0.0]), np.zeros(2))])
    assert float(loss_pe(pos, neg).data) == -3.0


def test_total_loss_is_affine_combination():
    rng = np.random.default_rng(71)
    for _ in range(3):
        a = float(rng.uniform(0.1, 2.0))
        b = float(rng.uniform(-1.0, 1.0))
        alpha = float(rng.uniform(0.0, 1.0))
        got = float(
            total_loss(Tensor(np.asarray(a)), Tensor(np.asarray(b)), alpha).data
        )
        assert abs(got - ((1 - alpha) * a + alpha * b)) < 1e-14


def test_total_loss_default_alpha_is_half():
    got = float(total_loss(Tensor(np.asarray(2.0)), Tensor(np.asarray(4.0))).data)
    assert got == 3.0


def test_loss_lp_gradient_matches_closed_form():
    p = Tensor(np.array([[0.7]]), learnable=True)
    q = Tensor(np.array([[0.4]]), learnable=True)
    with GradientTape() as tape:
        loss = loss_lp(p, q)
    g = backward(tape, loss, {"p": p, "q": q})
    # d/dp -(1/2) log p = -1/(2p); d/dq -(1/2) log(1-q) = 1/(2(1-q))
    assert abs(g["p"][0, 0] + 1.0 / (2.0 * 0.7)) < 1e-12
    assert abs(g["q"][0, 0] - 1.0 / (2.0 * 0.6)) < 1e-12
