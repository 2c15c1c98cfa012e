"""Negative sampling for temporal link prediction.

One negative per positive, sharing its timestamp. Three strategies:

* ``random`` keeps the source and redraws the destination uniformly.
* ``historical`` draws a (src, dst) pair already observed strictly
  before the positive's timestamp.
* ``inductive`` draws a pair first observed after the training boundary.

A drawn negative is rejected while it coincides with any positive of the
stream at the same timestamp, in this batch or any other; empty or
exhausted pools fall back to the random strategy and the fallback count
is reported.

A pair (u, v) of an N-node stream is named by the int64 key u·N + v,
which sorts as the pair does and cannot overflow (u·N + v < N², and an N
near 3e9 would need a node feature table of terabytes). Pools and the
per-timestamp blocked sets hold keys, and a drawn key is
``divmod(key, N)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import ChronoSplit, EventStream

__all__ = ["STRATEGIES", "Sample", "NegativeSampler"]

STRATEGIES = ("random", "historical", "inductive")
_MAX_TRIES = 100


@dataclass(frozen=True)
class Sample:
    """Negative endpoints aligned with a batch of positives."""

    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray
    strategy: str
    fallbacks: int = 0


class NegativeSampler:
    """Draws negatives from a pool of pair keys fixed at construction.

    The historical pool before t is the prefix, in first-seen order, of
    the distinct keys whose first event is earlier than t; the inductive
    pool is the distinct keys first seen at or after the training
    boundary, in sorted order. The random strategy builds no pool. A
    pool is one ``np.unique`` of the stream's keys, cheap enough that
    every sampler builds its own: samplers share nothing.
    """

    def __init__(
        self,
        stream: EventStream,
        split: ChronoSplit,
        strategy: str,
        seed: int = 0,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}, expected one of {STRATEGIES}"
            )
        self.stream = stream
        self.strategy = strategy
        self.rng = np.random.default_rng(seed)
        self._keys = stream.src * stream.num_nodes + stream.dst
        if strategy == "random":
            return
        keys, first = np.unique(self._keys, return_index=True)
        if strategy == "historical":
            order = np.argsort(first)
            self._pool = keys[order]
            self._first_ts = stream.ts[first[order]]  # nondecreasing: the stream is sorted
        else:
            self._pool = keys[first >= split.train_end]

    def _random_key(self, u: int, t: float, blocked: set[int]) -> int:
        """The key of (u, v) for a uniform v that is not ``blocked``."""
        n = self.stream.num_nodes
        for _ in range(_MAX_TRIES):
            key = u * n + int(self.rng.integers(0, n))
            if key not in blocked:
                return key
        start = int(self.rng.integers(0, n))
        for off in range(n):
            key = u * n + (start + off) % n
            if key not in blocked:
                return key
        raise RuntimeError(f"no admissible negative destination for node {u} at t={t}")

    def _pool_key(self, t: float, blocked: set[int]) -> int | None:
        """A key of the pool admissible at ``t`` that is not ``blocked``."""
        pool = self._pool
        if self.strategy == "historical":  # the pairs first seen strictly before t
            pool = pool[: np.searchsorted(self._first_ts, t, side="left")]
        for _ in range(min(_MAX_TRIES, 4 * pool.size)):
            key = int(pool[self.rng.integers(0, pool.size)])
            if key not in blocked:
                return key
        for key in pool.tolist():  # deterministic sweep before giving up
            if key not in blocked:
                return key
        return None

    def sample(self, batch_indices: np.ndarray) -> Sample:
        """One negative per positive event in ``batch_indices``."""
        idx = np.asarray(batch_indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("empty batch")
        stream, n = self.stream, self.stream.num_nodes
        src = stream.src[idx]
        ts = stream.ts[idx]
        # the stream's events from the batch's first timestamp to its last
        # hold every positive tied at any of the batch's timestamps
        lo = np.searchsorted(stream.ts, ts.min(), side="left")
        hi = np.searchsorted(stream.ts, ts.max(), side="right")
        by_time: dict[float, set[int]] = {}
        for key, t in zip(self._keys[lo:hi].tolist(), stream.ts[lo:hi].tolist()):
            by_time.setdefault(t, set()).add(key)

        neg_src = np.empty_like(src)
        neg_dst = np.empty_like(src)
        fallbacks = 0
        for i, (u, t) in enumerate(zip(src.tolist(), ts.tolist())):
            blocked = by_time[t]
            key = None
            if self.strategy != "random":
                key = self._pool_key(t, blocked)
                fallbacks += key is None
            if key is None:
                key = self._random_key(u, t, blocked)
            neg_src[i], neg_dst[i] = divmod(key, n)
        return Sample(neg_src, neg_dst, ts.copy(), self.strategy, fallbacks)
