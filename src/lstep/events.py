"""Continuous-time event streams with per-node chronological indexes.

An event stream holds interaction triplets (src, dst, t) sorted by
timestamp (stable on ties), dense node ids, a node feature table, and a
per-event edge feature table. Per-node neighbor lists support the three
temporal queries the encoders need: the K most recent interactions
strictly before t, the same set inclusive of t, and all neighbors inside
a look-back window [t - t_gap, t).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "PAD_ID",
    "RecentInteractions",
    "EventStream",
    "ChronoSplit",
    "load_events",
    "chronological_split",
    "batch_iter",
    "write_manifest",
    "read_manifest",
]

PAD_ID = -1
_LABEL_NAMES = {"label", "state_label"}


def _count_inversions(values: np.ndarray) -> int:
    """Number of out-of-order pairs repaired by a stable sort.

    Stable ranks turn ties into ordered pairs, so they never count. A
    bottom-up merge count then adds, level by level, the pairs that
    straddle the two halves of each block of ``2 * width`` positions.
    """
    n = values.size
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(values, kind="stable")] = np.arange(n)
    pos = np.arange(n)
    count = 0
    width = 1
    while width < n:
        block = pos // (2 * width)
        left = pos % (2 * width) < width
        # keys order by block first, so one sorted array holds every left half
        left_keys = np.sort(block[left] * n + rank[left])
        block_r = block[~left]
        above = np.searchsorted(left_keys, (block_r + 1) * n) - np.searchsorted(
            left_keys, block_r * n + rank[~left], side="right"
        )
        count += int(above.sum())
        width *= 2
    return count


@dataclass(frozen=True)
class RecentInteractions:
    """Fixed-length window of a node's latest interactions, oldest first.

    Front positions are sentinel padding (neighbor PAD_ID, timestamp equal
    to the query time, event index -1) when fewer than K interactions
    exist; downstream encoders zero the corresponding rows entirely.
    """

    neighbors: np.ndarray
    times: np.ndarray
    event_ids: np.ndarray
    pad_mask: np.ndarray

    def __len__(self) -> int:
        return int(self.neighbors.shape[0])

    def __iter__(self):
        return iter(
            zip(
                self.neighbors.tolist(),
                self.times.tolist(),
                self.event_ids.tolist(),
            )
        )

    @property
    def num_real(self) -> int:
        return int((~self.pad_mask).sum())


class EventStream:
    """Time-sorted interaction events plus feature tables and indexes."""

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        ts: np.ndarray,
        edge_features: np.ndarray | None = None,
        node_features: np.ndarray | None = None,
        num_nodes: int | None = None,
        d_n: int = 172,
        d_e: int = 172,
        dataset: str = "unnamed",
        sort_warnings: int = 0,
    ):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        if not (src.shape == dst.shape == ts.shape) or src.ndim != 1:
            raise ValueError(
                f"src/dst/ts shapes disagree: {src.shape}, {dst.shape}, {ts.shape}"
            )
        if src.size == 0:
            raise ValueError("event stream is empty")
        bad = np.flatnonzero(~np.isfinite(ts))
        if bad.size:
            raise ValueError(f"non-finite timestamp {ts[bad[0]]} at event {int(bad[0])}")
        if ts.size > 1 and np.any(np.diff(ts) < 0.0):
            sort_warnings += _count_inversions(ts)
            order = np.argsort(ts, kind="stable")
            src, dst, ts = src[order], dst[order], ts[order]
            if edge_features is not None:
                edge_features = np.asarray(edge_features, dtype=np.float64)[order]
        if src.min() < 0 or dst.min() < 0:
            raise ValueError("negative node id in event stream")
        inferred = int(max(src.max(), dst.max())) + 1
        if num_nodes is None:
            num_nodes = inferred
        elif inferred > num_nodes:
            raise ValueError(f"node id {inferred - 1} outside [0, {num_nodes})")

        self.src = src
        self.dst = dst
        self.ts = ts
        self.num_nodes = int(num_nodes)
        self.num_events = int(src.shape[0])
        self.dataset = dataset
        self.sort_warnings = int(sort_warnings)

        if edge_features is None:
            edge_features = np.zeros((self.num_events, d_e))
        else:
            edge_features = np.asarray(edge_features, dtype=np.float64)
            if edge_features.shape[0] != self.num_events:
                raise ValueError(
                    f"edge feature rows {edge_features.shape[0]} != "
                    f"events {self.num_events}"
                )
        if node_features is None:
            node_features = np.zeros((self.num_nodes, d_n))
        else:
            node_features = np.asarray(node_features, dtype=np.float64)
            if node_features.shape[0] != self.num_nodes:
                raise ValueError(
                    f"node feature rows {node_features.shape[0]} != "
                    f"nodes {self.num_nodes}"
                )
        self.edge_features = edge_features
        self.node_features = node_features
        self.d_e = int(edge_features.shape[1])
        self.d_n = int(node_features.shape[1])
        self._build_index()

    def _build_index(self) -> None:
        # one (node, neighbor, event) entry per endpoint, a self-loop once,
        # grouped by node and kept in event order within each node
        other = self.src != self.dst
        eid = np.concatenate([np.arange(self.num_events), np.flatnonzero(other)])
        node = np.concatenate([self.src, self.dst[other]])
        nbr = np.concatenate([self.dst, self.src[other]])
        order = np.lexsort((eid, node))
        cuts = np.cumsum(np.bincount(node, minlength=self.num_nodes))[:-1]
        self._nbr = np.split(nbr[order], cuts)
        self._nts = np.split(self.ts[eid[order]], cuts)
        self._eid = np.split(eid[order], cuts)

    def _recent(self, node: int, hi: int, t: float, k: int) -> RecentInteractions:
        if k < 1:
            raise ValueError(f"window size must be >= 1, got {k}")
        lo = max(0, hi - k)
        take = hi - lo
        pad = k - take
        neighbors = np.full(k, PAD_ID, dtype=np.int64)
        times = np.full(k, t, dtype=np.float64)
        event_ids = np.full(k, -1, dtype=np.int64)
        mask = np.ones(k, dtype=bool)
        if take:
            neighbors[pad:] = self._nbr[node][lo:hi]
            times[pad:] = self._nts[node][lo:hi]
            event_ids[pad:] = self._eid[node][lo:hi]
            mask[pad:] = False
        return RecentInteractions(neighbors, times, event_ids, mask)

    def recent_interactions(self, node: int, t: float, k: int) -> RecentInteractions:
        """K most recent interactions of ``node`` strictly before ``t``."""
        hi = int(np.searchsorted(self._nts[node], t, side="left"))
        return self._recent(node, hi, t, k)

    def recent_interactions_inclusive(
        self, node: int, t: float, k: int
    ) -> RecentInteractions:
        """K most recent interactions at or before ``t``."""
        hi = int(np.searchsorted(self._nts[node], t, side="right"))
        return self._recent(node, hi, t, k)

    def window_neighbors(
        self, node: int, t: float, t_gap: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neighbors of ``node`` with interactions inside [t - t_gap, t)."""
        nts = self._nts[node]
        lo = int(np.searchsorted(nts, t - t_gap, side="left"))
        hi = int(np.searchsorted(nts, t, side="left"))
        return self._nbr[node][lo:hi].copy(), nts[lo:hi].copy()


@dataclass(frozen=True)
class ChronoSplit:
    """Event-count split boundaries plus the nodes unseen during training."""

    train_end: int
    val_end: int
    num_events: int
    new_nodes: frozenset[int] = field(default_factory=frozenset)

    @property
    def train_range(self) -> tuple[int, int]:
        return 0, self.train_end

    @property
    def val_range(self) -> tuple[int, int]:
        return self.train_end, self.val_end

    @property
    def test_range(self) -> tuple[int, int]:
        return self.val_end, self.num_events


def chronological_split(
    stream: EventStream, ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)
) -> ChronoSplit:
    """Split events by count in time order; default 70/15/15."""
    if len(ratios) != 3 or any(r < 0.0 for r in ratios):
        raise ValueError(f"bad split ratios {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {sum(ratios)}")
    e = stream.num_events
    train_end = int(e * ratios[0])
    val_end = int(e * (ratios[0] + ratios[1]))
    seen = set(stream.src[:train_end].tolist()) | set(stream.dst[:train_end].tolist())
    new = frozenset(range(stream.num_nodes)) - frozenset(seen)
    return ChronoSplit(train_end, val_end, e, new)


def batch_iter(start: int, end: int, batch_size: int):
    """Yield (batch_index, event_index_array) over [start, end)."""
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    if start > end:
        raise ValueError(f"bad range [{start}, {end})")
    k = 0
    for lo in range(start, end, batch_size):
        hi = min(lo + batch_size, end)
        yield k, np.arange(lo, hi, dtype=np.int64)
        k += 1


def load_events(
    path: str | Path,
    fmt: str = "csv",
    d_n: int = 172,
    d_e: int = 172,
    dataset: str | None = None,
) -> EventStream:
    """Read a CSV event file: header, then src,dst,timestamp[,label][,f...].

    A column named label/state_label right after the timestamp is parsed
    and discarded; any remaining columns are per-event edge features.
    Node ids are re-indexed densely from 0 in sorted-id order. Rows out
    of time order are repaired by a stable sort and counted in
    ``sort_warnings``.
    """
    if fmt != "csv":
        raise ValueError(f"unsupported event file format {fmt!r}")
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty event file") from None
        if len(header) < 3:
            raise ValueError(f"{path}: header needs at least src,dst,timestamp")
        has_label = len(header) > 3 and header[3].strip().lower() in _LABEL_NAMES
        feat_start = 4 if has_label else 3
        n_feat = len(header) - feat_start
        src, dst, ts = [], [], []
        feats: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                src.append(int(float(row[0])))
                dst.append(int(float(row[1])))
                t = float(row[2])
                feat = [float(x) for x in row[feat_start:]]
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
            if not math.isfinite(t):
                raise ValueError(f"{path}:{lineno}: non-finite timestamp {t}")
            if not all(map(math.isfinite, feat)):
                raise ValueError(f"{path}:{lineno}: non-finite edge feature")
            ts.append(t)
            if n_feat:
                feats.append(feat)
    if not src:
        raise ValueError(f"{path}: empty event file")

    _, dense = np.unique(np.asarray(src + dst, dtype=np.int64), return_inverse=True)
    src_a, dst_a = np.split(dense.astype(np.int64), 2)
    edge_features = np.asarray(feats, dtype=np.float64) if n_feat else None
    return EventStream(
        src_a,
        dst_a,
        np.asarray(ts, dtype=np.float64),
        edge_features=edge_features,
        d_n=d_n,
        d_e=d_e,
        dataset=dataset or path.stem,
    )


def write_manifest(path: str | Path, stream: EventStream) -> None:
    lines = [
        f"dataset = {stream.dataset}",
        f"num_nodes = {stream.num_nodes}",
        f"num_events = {stream.num_events}",
        f"d_n = {stream.d_n}",
        f"d_e = {stream.d_e}",
        f"sort_warnings = {stream.sort_warnings}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"manifest line without '=': {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out
