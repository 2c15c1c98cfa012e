"""Synthetic generators against the event-at-a-time loops they replace."""
import numpy as np
import pytest

from lstep.synthetic import make_periodic_stream, make_random_stream, make_static_stream


def _periodic_loop(num_pairs, num_events, holdout_pairs):
    """One tick at a time: a held-out pair's tick is skipped while fewer
    than 72% of the events have been emitted."""
    open_at = 0.72 * num_events
    src, dst, ts = [], [], []
    tick = 0
    while len(src) < num_events:
        tick += 1
        j = tick % num_pairs
        if j >= num_pairs - holdout_pairs and len(src) < open_at:
            continue
        src.append(2 * j)
        dst.append(2 * j + 1)
        ts.append(float(tick))
    return np.asarray(src), np.asarray(dst), np.asarray(ts)


def _static_loop(edges, num_steps):
    src, dst, ts = [], [], []
    for step in range(1, num_steps + 1):
        for u, v in edges:
            src.append(u)
            dst.append(v)
            ts.append(float(step))
    return np.asarray(src), np.asarray(dst), np.asarray(ts)


def _assert_stream(stream, want):
    for got, ref in zip((stream.src, stream.dst, stream.ts), want):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("num_events", [1, 2, 7, 50, 333, 2000])
def test_periodic_stream_equals_the_tick_loop(num_events):
    for num_pairs in range(1, 12):
        for holdout in range(num_pairs):
            stream = make_periodic_stream(num_pairs, num_events, holdout, d_n=2, d_e=2)
            _assert_stream(stream, _periodic_loop(num_pairs, num_events, holdout))
            assert stream.num_nodes == 2 * num_pairs


@pytest.mark.parametrize("edges", [
    [(0, 1)],
    [(0, 1), (2, 3), (1, 2)],
    [(3, 3), (0, 2), (2, 0), (0, 2)],  # a self-loop and a repeated edge
    [(5, 5)],
])
@pytest.mark.parametrize("num_steps", [1, 2, 9, 50])
def test_static_stream_equals_the_step_loop(edges, num_steps):
    stream = make_static_stream(edges, num_steps, d_n=2, d_e=2)
    _assert_stream(stream, _static_loop(edges, num_steps))


def test_generators_refuse_what_the_loops_refused():
    with pytest.raises(ValueError, match="bad pair counts"):
        make_periodic_stream(3, 10, holdout_pairs=3)
    for num_events in (0, -1, -25):
        with pytest.raises(ValueError, match="event stream is empty"):
            make_periodic_stream(10, num_events)
    with pytest.raises(ValueError, match="need at least one edge"):
        make_static_stream([], 3)
    with pytest.raises(ValueError, match="event stream is empty"):
        make_static_stream([(0, 1)], 0)


@pytest.mark.parametrize("num_steps", [-1, -7])
def test_static_stream_names_a_negative_step_count(num_steps):
    with pytest.raises(ValueError, match=rf"^num_steps must not be negative, got {num_steps}$"):
        make_static_stream([(0, 1)], num_steps)


@pytest.mark.parametrize("num_nodes", [0, 1])
def test_random_stream_needs_two_nodes(num_nodes):
    # one node has no distinct endpoints: the redraw loop never ended
    with pytest.raises(ValueError, match=rf"^need at least two nodes, got num_nodes={num_nodes}$"):
        make_random_stream(num_nodes, 10)


def test_random_stream_on_two_nodes_joins_them():
    stream = make_random_stream(2, 50, seed=3)
    assert stream.num_nodes == 2
    assert np.array_equal(stream.dst, 1 - stream.src)
