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
    """Draws negatives from pools fixed at construction.

    The historical pool before t is the prefix, in first-seen order, of
    the distinct pairs whose first event is earlier than t; the inductive
    pool is the distinct pairs first seen at or after the training
    boundary, in sorted order. The random strategy builds no pool.
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
        self._pool: list[tuple[int, int]] = []
        if strategy == "random":
            return
        pairs, first = np.unique(
            np.stack([stream.src, stream.dst], axis=1), axis=0, return_index=True
        )
        if strategy == "historical":
            order = np.argsort(first)
            self._pool = list(map(tuple, pairs[order].tolist()))
            self._first_ts = stream.ts[first[order]]  # nondecreasing: the stream is sorted
        else:
            self._pool = list(map(tuple, pairs[first >= split.train_end].tolist()))

    def _random_dst(self, u: int, t: float, blocked: set[tuple[int, int]]) -> int:
        n = self.stream.num_nodes
        for _ in range(_MAX_TRIES):
            v = int(self.rng.integers(0, n))
            if (u, v) not in blocked:
                return v
        start = int(self.rng.integers(0, n))
        for off in range(n):
            v = (start + off) % n
            if (u, v) not in blocked:
                return v
        raise RuntimeError(f"no admissible negative destination for node {u} at t={t}")

    def _pool_draw(self, size: int, blocked: set[tuple[int, int]]) -> tuple[int, int] | None:
        """A pair of the pool's first ``size`` that is not ``blocked``."""
        pool = self._pool
        for _ in range(min(_MAX_TRIES, 4 * size)):
            u, v = pool[int(self.rng.integers(0, size))]
            if (u, v) not in blocked:
                return u, v
        for i in range(size):  # deterministic sweep before giving up
            if pool[i] not in blocked:
                return pool[i]
        return None

    def sample(self, batch_indices: np.ndarray) -> Sample:
        """One negative per positive event in ``batch_indices``."""
        idx = np.asarray(batch_indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("empty batch")
        stream = self.stream
        src = stream.src[idx]
        ts = stream.ts[idx]
        # the stream's events from the batch's first timestamp to its last
        # hold every positive tied at any of the batch's timestamps
        lo = np.searchsorted(stream.ts, ts.min(), side="left")
        hi = np.searchsorted(stream.ts, ts.max(), side="right")
        by_time: dict[float, set[tuple[int, int]]] = {}
        for u, v, t in zip(
            stream.src[lo:hi].tolist(), stream.dst[lo:hi].tolist(), stream.ts[lo:hi].tolist()
        ):
            by_time.setdefault(t, set()).add((u, v))

        neg_src = np.empty_like(src)
        neg_dst = np.empty_like(src)
        fallbacks = 0
        for i, (u, t) in enumerate(zip(src.tolist(), ts.tolist())):
            blocked = by_time[t]
            if self.strategy == "random":
                neg_src[i] = u
                neg_dst[i] = self._random_dst(u, t, blocked)
                continue
            size = len(self._pool)
            if self.strategy == "historical":
                size = int(np.searchsorted(self._first_ts, t, side="left"))
            pair = self._pool_draw(size, blocked)
            if pair is None:
                fallbacks += 1
                neg_src[i] = u
                neg_dst[i] = self._random_dst(u, t, blocked)
            else:
                neg_src[i], neg_dst[i] = pair
        return Sample(neg_src, neg_dst, ts.copy(), self.strategy, fallbacks)

