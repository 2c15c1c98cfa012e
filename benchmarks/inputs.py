"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes the workload seed and returns the same events for
the same seed. Events come back twice: as the rows written to the CSV
(raw ids, file order) and, via ``expected_stream``, as the dense, stably
time-sorted arrays that ``load_events`` must reproduce. The second form
is computed here, apart from the program, so the correctness checks have
something independent to compare against.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Edge features are multiples of 1/1024: short to write, and the loaded
# floats equal the generated ones bit for bit.
_FEATURE_STEP = 1.0 / 1024.0
ACTIVITY_EXPONENT = 1.0  # heavy-tailed user and item activity; not fitted to the datasets
NEW_USER_EVERY = 10  # a tenth of the users are first seen after training, as TGN holds out a tenth of the nodes
MEAN_GAP = 100.0  # mean time between events, against t_gap = 1000 in the presets
ID_SPACE = 10**7  # raw ids of the scrambled CSV are drawn from [0, ID_SPACE)
SWAP_SHARE = 0.02  # share of scrambled rows swapped with their successor


@dataclass(frozen=True)
class RawEvents:
    """Events as written to disk: raw ids, rows in file order."""

    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray
    features: np.ndarray  # (E, d_e)


@dataclass(frozen=True)
class ExpectedStream:
    """What ``load_events`` should return for a ``RawEvents`` file."""

    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray
    features: np.ndarray
    num_nodes: int
    inversions: int


def bipartite_events(
    seed: int, num_users: int, num_items: int, num_events: int, d_e: int
) -> RawEvents:
    """User -> item stream with skewed activity and late-arriving users.

    Users are nodes ``[0, num_users)`` and items the nodes after them, so
    every event joins a user to an item, as in the JODIE datasets. User
    and item popularity ~ 1/rank^ACTIVITY_EXPONENT with ranks shuffled by
    the seed. The users at every NEW_USER_EVERY-th popularity rank,
    starting at rank NEW_USER_EVERY // 2, arrive at a time drawn from
    [0.75, 0.85) of the span, after the training boundary; an event draws
    its user from those that have arrived. Picking late users by rank
    keeps the new users' share of the activity the same for every seed.
    The stream opens with one event by each of the other users.
    Timestamps are sorted uniform draws over ``MEAN_GAP * num_events``.
    """
    rng = np.random.default_rng(seed)
    span = MEAN_GAP * num_events
    ts = np.sort(np.round(rng.uniform(0.0, span, num_events), 3))
    rank = rng.permutation(num_users)  # user -> popularity rank
    user_w = _zipf(num_users)[rank]
    item_w = _zipf(num_items)[rng.permutation(num_items)]
    late = rank % NEW_USER_EVERY == NEW_USER_EVERY // 2
    early = rng.permutation(np.flatnonzero(~late))
    if not late.any() or not 1 <= num_items <= early.size <= num_events:
        raise ValueError("need a late user, an early user per item and an event per early user")
    arrival = np.where(late, rng.uniform(0.75 * span, 0.85 * span, num_users), 0.0)
    src = np.empty(num_events, dtype=np.int64)
    for i, t in enumerate(ts.tolist()):
        w = np.where(arrival <= t, user_w, 0.0)
        src[i] = rng.choice(num_users, p=w / w.sum())
    dst = rng.choice(num_items, size=num_events, p=item_w / item_w.sum())
    # the opening events: each user present from the start once, visiting
    # the items in turn, so the first batch's snapshot has the same nodes
    # count for every seed
    src[: early.size] = early
    dst[: early.size] = rng.permutation(num_items)[np.arange(early.size) % num_items]
    dst += num_users
    feats = rng.integers(-2048, 2048, size=(num_events, d_e)) * _FEATURE_STEP
    return RawEvents(src, dst.astype(np.int64), ts, feats)


def _zipf(n: int) -> np.ndarray:
    return 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ACTIVITY_EXPONENT


def scramble(events: RawEvents, seed: int) -> RawEvents:
    """Sparse raw ids and a share of adjacent rows swapped out of time order.

    Node i gets the i-th smallest of a seeded sample from [0, ID_SPACE),
    which keeps the dense order; a SWAP_SHARE of the rows, picked by the
    seed, are swapped with their successor.
    """
    rng = np.random.default_rng([seed, 1])
    n = int(max(events.src.max(), events.dst.max())) + 1
    ids = np.sort(rng.choice(ID_SPACE, size=n, replace=False))
    order = np.arange(events.ts.size)
    for i in np.sort(rng.choice(order.size - 1, int(SWAP_SHARE * order.size), replace=False)):
        order[i], order[i + 1] = order[i + 1], order[i]
    return RawEvents(
        ids[events.src[order]], ids[events.dst[order]], events.ts[order], events.features[order]
    )


def write_csv(path: Path, events: RawEvents) -> None:
    """Header plus one row per event, features after the timestamp."""
    header = ["src", "dst", "timestamp"] + [f"f{j}" for j in range(events.features.shape[1])]
    lines = [",".join(header)]
    for i in range(events.ts.size):
        row = [str(int(events.src[i])), str(int(events.dst[i])), repr(float(events.ts[i]))]
        row += [repr(x) for x in events.features[i].tolist()]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def count_inversions(ts: np.ndarray) -> int:
    """Pairs i < j with ts[i] > ts[j], by comparing every pair in row blocks."""
    ts = np.asarray(ts, dtype=np.float64)
    total = 0
    for lo in range(0, ts.size, 512):
        block = ts[lo : lo + 512, None] > ts[None, :]
        rows = np.arange(lo, min(lo + 512, ts.size))[:, None]
        total += int((block & (np.arange(ts.size)[None, :] > rows)).sum())
    return total


def expected_stream(events: RawEvents) -> ExpectedStream:
    """Dense ids in sorted raw-id order, rows stably sorted by time."""
    ids = np.unique(np.concatenate([events.src, events.dst]))
    src = np.searchsorted(ids, events.src)
    dst = np.searchsorted(ids, events.dst)
    order = np.argsort(events.ts, kind="stable")
    return ExpectedStream(
        src[order], dst[order], events.ts[order], events.features[order], int(ids.size),
        count_inversions(events.ts),
    )


def split_bounds(num_events: int) -> tuple[int, int]:
    """Ends of the training and validation segments: 70/15/15 by count."""
    return int(num_events * 0.70), int(num_events * (0.70 + 0.15))


def new_nodes(src: np.ndarray, dst: np.ndarray, train_end: int) -> set[int]:
    """Nodes that first appear after the training segment."""
    seen = set(src[:train_end].tolist()) | set(dst[:train_end].tolist())
    return (set(src.tolist()) | set(dst.tolist())) - seen


def describe(raw: RawEvents, expected: ExpectedStream, recent_k: int, batch_size: int) -> dict:
    """Shares of the input properties that optimisations depend on.

    * ``full_k_windows``: share of event endpoints that already have K
      interactions strictly before the event's time (no padded slots);
    * ``unique_nodes_per_batch``: distinct endpoints over 2 x batch size;
    * ``new_node_share``: test events with an endpoint unseen in training;
    * ``repeat_share``: events whose (source, destination) pair came before;
    * ``out_of_order_rows``: file rows earlier in time than the row above.
    """
    src, dst, ts = expected.src.tolist(), expected.dst.tolist(), expected.ts.tolist()
    seen_before: dict[int, list[float]] = {}
    full = 0
    for u, v, t in zip(src, dst, ts):
        for node in {u, v}:
            past = seen_before.setdefault(node, [])
            full += sum(1 for p in past[-recent_k:] if p < t) >= recent_k
        for node in {u, v}:
            seen_before[node].append(t)
    endpoints = sum(2 if u != v else 1 for u, v in zip(src, dst))
    n = len(ts)
    uniq = [
        len(set(src[lo : lo + batch_size]) | set(dst[lo : lo + batch_size]))
        / (2 * len(src[lo : lo + batch_size]))
        for lo in range(0, n, batch_size)
    ]
    train_end, val_end = split_bounds(n)
    fresh = new_nodes(expected.src, expected.dst, train_end)
    test = list(zip(src[val_end:], dst[val_end:]))
    pairs = list(zip(src, dst))
    return {
        "events": n,
        "nodes": expected.num_nodes,
        "full_k_windows": full / endpoints,
        "unique_nodes_per_batch": sum(uniq) / len(uniq),
        "new_node_share": sum(u in fresh or v in fresh for u, v in test) / len(test),
        "repeat_share": 1.0 - len(set(pairs)) / n,
        "out_of_order_rows": float(np.mean(np.diff(raw.ts) < 0.0)),
    }
