"""Fixed cosine time encoding."""
import math
import tracemalloc

import numpy as np
import pytest

from lstep.config import RunConfig
from lstep.timeenc import (
    ALPHA,
    BETA,
    BLOCK,
    angular_frequencies,
    block_start,
    phase_table,
    phases_at,
    time_encode,
    turn,
)


def test_first_frequency_is_one():
    cfg = RunConfig()
    omega = angular_frequencies(cfg.d_t)
    assert omega[0] == 1.0
    assert len(omega) == 100


def test_frequencies_follow_power_law():
    assert ALPHA == BETA == 10.0
    cfg = RunConfig(d_t=5)
    omega = angular_frequencies(cfg.d_t)
    for i in range(5):
        assert abs(omega[i] - 10.0 ** (-i / 10.0)) < 1e-15


def test_zero_delta_encodes_to_ones():
    enc = time_encode(0.0, 100)
    assert np.array_equal(enc, np.ones(100))


def test_matches_scalar_cosine():
    cfg = RunConfig(d_t=8)
    omega = angular_frequencies(cfg.d_t)
    enc = time_encode(3.7, cfg.d_t)
    for i in range(8):
        assert abs(enc[i] - math.cos(3.7 * omega[i])) < 1e-15


def test_large_delta_tail_is_slow():
    # highest index frequency is ALPHA^(-(d-1)/BETA) = 1e-9.9; at delta = 1e6
    # the final coordinate has barely moved off 1
    cfg = RunConfig()
    enc = time_encode(1e6, cfg.d_t)
    want = math.cos(1e6 * 10.0 ** (-99.0 / 10.0))
    assert abs(enc[-1] - want) < 1e-15
    assert enc[-1] > 0.999999


def test_negative_delta_rejected():
    with pytest.raises(ValueError, match="negative time delta"):
        time_encode(-0.5, 100)
    with pytest.raises(ValueError, match=r"negative time delta: -2\.0"):
        time_encode(np.array([[1.0, -2.0], [0.0, 3.0]]), 100)


def test_values_bounded():
    rng = np.random.default_rng(41)
    cfg = RunConfig(d_t=16)
    for _ in range(50):
        enc = time_encode(float(rng.uniform(0, 1e7)), cfg.d_t)
        assert np.all(enc <= 1.0) and np.all(enc >= -1.0)


def test_batch_matches_single():
    cfg = RunConfig(d_t=12)
    deltas = np.array([0.0, 1.0, 2.5, 100.0])
    batch = time_encode(deltas, cfg.d_t)
    assert batch.shape == (4, 12)
    for i, d in enumerate(deltas):
        assert np.array_equal(batch[i], time_encode(float(d), cfg.d_t))
    assert time_encode(deltas.reshape(2, 2), cfg.d_t).shape == (2, 2, 12)
    assert time_encode(np.array([]), cfg.d_t).shape == (0, 12)


def test_phase_table_rows_are_phases_within_their_block():
    cfg = RunConfig(d_t=6)
    ts = np.array([0.0, 3.5, BLOCK - 1.0, BLOCK, 1.7e9 + 0.25, -2.0])
    starts = block_start(ts)
    assert starts.tolist() == [0.0, 0.0, 0.0, BLOCK, 1621 * BLOCK, -BLOCK]
    angle = (ts - starts)[:, None] * angular_frequencies(cfg.d_t)
    table = phase_table(ts, cfg.d_t)
    # to rounding: libm and SIMD loops may differ in the last bit
    assert np.allclose(table, np.hstack([np.cos(angle), np.sin(angle)]), rtol=0.0, atol=1e-15)
    assert np.allclose(phases_at(ts[[1, 0, 1]], 0.0, 6), table[[1, 0, 1]], rtol=0.0, atol=1e-15)


def test_turn_moves_rows_to_another_block_and_leaves_gapless_rows_alone():
    """A row of an older block, turned by its block gap, is the phase
    against the newer block's start; a row with no gap keeps its bits."""
    rng = np.random.default_rng(12)
    d_t = 100
    ts = 1.7e9 + np.sort(rng.uniform(0.0, 3e6, size=50))
    ref = float(block_start(ts[-1]))
    rows = phase_table(ts, d_t)
    before = rows.copy()
    gaps = block_start(ts) - ref
    turn(rows, gaps)
    same = gaps == 0.0
    assert same.any() and not same.all()
    assert np.array_equal(rows[same], before[same])
    want = phases_at(ts, ref, d_t)
    assert np.max(np.abs(rows - want)) < 1e-9


def test_phase_table_build_allocates_the_table_alone():
    """The angles are formed inside the table: the build's tracemalloc
    peak stays within 1.1x the table, so no (E, d_t) angle, cosine or
    sine array is allocated beside it."""
    ts = 1.7e9 + np.sort(np.random.default_rng(13).uniform(0.0, 3e7, size=5000))
    tracemalloc.start()
    try:
        table = phase_table(ts, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (5000, 200)
    assert peak <= 1.1 * table.nbytes, (peak, table.nbytes)
