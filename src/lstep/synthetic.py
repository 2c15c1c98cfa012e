"""Synthetic event streams for experiments and property checks."""
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
    """
    if num_pairs < 1 or not 0 <= holdout_pairs < num_pairs:
        raise ValueError(f"bad pair counts ({num_pairs}, {holdout_pairs})")
    pairs = [(2 * j, 2 * j + 1) for j in range(num_pairs)]
    open_at = 0.72 * num_events
    src, dst, ts = [], [], []
    tick = 0
    while len(src) < num_events:
        tick += 1
        j = tick % num_pairs
        if j >= num_pairs - holdout_pairs and len(src) < open_at:
            continue
        u, v = pairs[j]
        src.append(u)
        dst.append(v)
        ts.append(float(tick))
    return EventStream(
        np.asarray(src),
        np.asarray(dst),
        np.asarray(ts),
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
    when the batch size equals the edge count."""
    if not edges:
        raise ValueError("need at least one edge")
    src, dst, ts = [], [], []
    for step in range(1, num_steps + 1):
        for u, v in edges:
            src.append(u)
            dst.append(v)
            ts.append(float(step))
    return EventStream(
        np.asarray(src), np.asarray(dst), np.asarray(ts), d_n=d_n, d_e=d_e, dataset="static"
    )


def make_random_stream(
    num_nodes: int,
    num_events: int,
    seed: int = 0,
    d_n: int = 8,
    d_e: int = 8,
) -> EventStream:
    """Uniform random distinct-endpoint events at integer timestamps."""
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

