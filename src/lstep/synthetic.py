"""Synthetic event streams for experiments and property checks.

Each generator builds its src, dst and ts arrays whole, with numpy; no
event is appended one at a time.
"""
from __future__ import annotations

import numpy as np

from .events import EventStream

__all__ = [
    "make_periodic_stream",
    "make_static_stream",
    "make_random_stream",
]


def make_periodic_stream(
    num_pairs: int = 10,
    num_events: int = 2000,
    holdout_pairs: int = 0,
    d_n: int = 16,
    d_e: int = 16,
) -> EventStream:
    """Disjoint partner pairs firing round-robin on a fixed tick clock.

    Pair j joins nodes (2j, 2j+1) and owns the ticks with tick % num_pairs
    == j, so every pair recurs with a constant period of ``num_pairs``
    ticks. The last ``holdout_pairs`` pairs stay silent until 72% of the
    events have been emitted; a silent slot skips its tick entirely,
    which keeps the other pairs' periods intact while the held-out nodes
    stay unseen by a chronological training split that ends earlier.
    So a held-out pair's tick is emitted once at least 0.72 *
    ``num_events`` ticks of the other pairs precede it, every other tick
    always is, and the stream is the first ``num_events`` emitted ticks.
    """
    if num_pairs < 1 or not 0 <= holdout_pairs < num_pairs:
        raise ValueError(f"bad pair counts ({num_pairs}, {holdout_pairs})")
    # num_pairs - holdout_pairs of every num_pairs ticks are always
    # emitted, so these ticks hold num_events emitted ones
    ticks = np.arange(1, num_events * num_pairs // (num_pairs - holdout_pairs) + num_pairs + 1)
    live = ticks % num_pairs < num_pairs - holdout_pairs
    ticks = ticks[live | (np.cumsum(live) >= 0.72 * num_events)][: max(num_events, 0)]
    j = ticks % num_pairs
    return EventStream(
        2 * j,
        2 * j + 1,
        ticks.astype(np.float64),
        num_nodes=2 * num_pairs,
        d_n=d_n,
        d_e=d_e,
        dataset="periodic",
    )


def make_static_stream(
    edges: list[tuple[int, int]],
    num_steps: int,
    d_n: int = 8,
    d_e: int = 8,
) -> EventStream:
    """The same edge set replayed at t = 1..num_steps, one batch per step
    when the batch size equals the edge count: the edge list tiled
    ``num_steps`` times beside each step repeated once per edge."""
    if not edges:
        raise ValueError("need at least one edge")
    if num_steps < 0:
        raise ValueError(f"num_steps must not be negative, got {num_steps}")
    src, dst = np.tile(np.asarray(edges, dtype=np.int64).T, num_steps)
    ts = np.repeat(np.arange(1.0, num_steps + 1), len(edges))
    return EventStream(src, dst, ts, d_n=d_n, d_e=d_e, dataset="static")


def make_random_stream(
    num_nodes: int,
    num_events: int,
    seed: int = 0,
    d_n: int = 8,
    d_e: int = 8,
) -> EventStream:
    """Uniform random distinct-endpoint events at integer timestamps."""
    if num_nodes < 2:  # distinct endpoints need two nodes
        raise ValueError(f"need at least two nodes, got num_nodes={num_nodes}")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_events)
    dst = rng.integers(0, num_nodes, size=num_events)
    clash = src == dst
    while clash.any():
        dst[clash] = rng.integers(0, num_nodes, size=int(clash.sum()))
        clash = src == dst
    ts = np.arange(1, num_events + 1, dtype=np.float64)
    return EventStream(
        src, dst, ts, num_nodes=num_nodes, d_n=d_n, d_e=d_e, dataset="random"
    )

