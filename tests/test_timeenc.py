"""Fixed cosine time encoding."""
import math

import numpy as np
import pytest

from lstep.config import RunConfig
from lstep.timeenc import angular_frequencies, time_encode


def test_first_frequency_is_one():
    cfg = RunConfig()
    omega = angular_frequencies(cfg)
    assert omega[0] == 1.0
    assert len(omega) == 100


def test_frequencies_follow_power_law():
    cfg = RunConfig(d_t=5, alpha=10.0, beta=10.0)
    omega = angular_frequencies(cfg)
    for i in range(5):
        assert abs(omega[i] - 10.0 ** (-i / 10.0)) < 1e-15


def test_zero_delta_encodes_to_ones():
    enc = time_encode(0.0, RunConfig())
    assert np.array_equal(enc, np.ones(100))


def test_matches_scalar_cosine():
    cfg = RunConfig(d_t=8)
    omega = angular_frequencies(cfg)
    enc = time_encode(3.7, cfg)
    for i in range(8):
        assert abs(enc[i] - math.cos(3.7 * omega[i])) < 1e-15


def test_large_delta_tail_is_slow():
    # highest index frequency is alpha^(-(d-1)/beta) = 1e-9.9; at delta = 1e6
    # the final coordinate has barely moved off 1
    cfg = RunConfig()
    enc = time_encode(1e6, cfg)
    want = math.cos(1e6 * 10.0 ** (-99.0 / 10.0))
    assert abs(enc[-1] - want) < 1e-15
    assert enc[-1] > 0.999999


def test_negative_delta_rejected():
    with pytest.raises(ValueError, match="negative time delta"):
        time_encode(-0.5, RunConfig())
    with pytest.raises(ValueError, match=r"negative time delta: -2\.0"):
        time_encode(np.array([[1.0, -2.0], [0.0, 3.0]]), RunConfig())


def test_values_bounded():
    rng = np.random.default_rng(41)
    cfg = RunConfig(d_t=16)
    for _ in range(50):
        enc = time_encode(float(rng.uniform(0, 1e7)), cfg)
        assert np.all(enc <= 1.0) and np.all(enc >= -1.0)


def test_batch_matches_single():
    cfg = RunConfig(d_t=12)
    deltas = np.array([0.0, 1.0, 2.5, 100.0])
    batch = time_encode(deltas, cfg)
    assert batch.shape == (4, 12)
    for i, d in enumerate(deltas):
        assert np.array_equal(batch[i], time_encode(float(d), cfg))
    assert time_encode(deltas.reshape(2, 2), cfg).shape == (2, 2, 12)
    assert time_encode(np.array([]), cfg).shape == (0, 12)
