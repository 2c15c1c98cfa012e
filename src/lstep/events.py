"""Continuous-time event streams with per-node chronological indexes.

An event stream holds interaction triplets (src, dst, t) sorted by
timestamp (stable on ties), dense node ids, a node feature table, and a
per-event edge feature table. A CSR index over nodes (offsets into
neighbor, time and event arrays, each node's entries in time order)
answers the three temporal queries the encoders need, for a whole array
of (node, t) queries at once: the K most recent interactions strictly
before t, the same set inclusive of t, and all neighbors inside a
look-back window [t - t_gap, t).
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
    "WindowNeighbors",
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


def _reject_non_finite(values: np.ndarray, what: str, where: str) -> None:
    finite = np.isfinite(values)
    if finite.all():
        return
    bad = np.flatnonzero(~finite.all(axis=tuple(range(1, values.ndim))))[0]
    value = values[bad][~finite[bad]].ravel()[0]
    raise ValueError(f"non-finite {what} {value} at {where} {int(bad)}")


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
    """Fixed-length windows of latest interactions, one row per query.

    Every field is (n, K), oldest first within a row. Front positions are
    sentinel padding (neighbor PAD_ID, timestamp equal to the query time,
    event index -1) when fewer than K interactions exist; downstream
    encoders zero the corresponding rows entirely.
    """

    neighbors: np.ndarray
    times: np.ndarray
    event_ids: np.ndarray
    pad_mask: np.ndarray


@dataclass(frozen=True)
class WindowNeighbors:
    """Ragged look-back windows: query i owns ``[offsets[i], offsets[i+1])``."""

    offsets: np.ndarray
    neighbors: np.ndarray
    times: np.ndarray


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
        _reject_non_finite(ts, "timestamp", "event")
        if edge_features is not None:
            edge_features = np.asarray(edge_features, dtype=np.float64)
            _reject_non_finite(edge_features, "edge feature", "event")
        if ts.size > 1 and np.any(np.diff(ts) < 0.0):
            sort_warnings += _count_inversions(ts)
            order = np.argsort(ts, kind="stable")
            src, dst, ts = src[order], dst[order], ts[order]
            if edge_features is not None:
                edge_features = edge_features[order]
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
        elif edge_features.shape[0] != self.num_events:
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
            _reject_non_finite(node_features, "node feature", "node")
        self.edge_features = edge_features
        self.node_features = node_features
        self.d_e = int(edge_features.shape[1])
        self.d_n = int(node_features.shape[1])
        self._build_index()

    def _build_index(self) -> None:
        # CSR over nodes: one (neighbor, time, event) entry per endpoint, a
        # self-loop once. Entries are laid out in event order before the
        # stable sort, so each node's entries stay in event (= time) order.
        ends = np.stack([self.src, self.dst], axis=1)
        keep = np.ones(ends.shape, dtype=bool)
        keep[:, 1] = self.src != self.dst
        node = ends[keep]
        nbr = ends[:, ::-1][keep]
        eid = np.repeat(np.arange(self.num_events), 2).reshape(-1, 2)[keep]
        order = np.argsort(node, kind="stable")
        self._offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(node, minlength=self.num_nodes))]
        )
        self._nbr = nbr[order]
        self._nts = self.ts[eid[order]]
        self._eid = eid[order]
        # entries sort by (node, time rank), so one searchsorted on this
        # integer key answers a time bound for every (node, t) query at once
        self._times = np.unique(self.ts)
        self._stride = self._times.size + 1
        rank = np.searchsorted(self._times, self._nts)
        self._key = node[order] * self._stride + rank

    def _position(self, nodes: np.ndarray, ts: np.ndarray, side: str) -> np.ndarray:
        """Per query, the CSR position after the node's entries before t
        (``side="left"``) or at or before t (``side="right"``)."""
        rank = np.searchsorted(self._times, ts, side=side)
        return np.searchsorted(self._key, nodes * self._stride + rank, side="left")

    def _queries(self, nodes, ts) -> tuple[np.ndarray, np.ndarray]:
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1:
            raise ValueError(f"queries take a 1-D node array, got shape {nodes.shape}")
        ts = np.broadcast_to(np.asarray(ts, dtype=np.float64), nodes.shape)
        return nodes, ts

    def _recent(self, nodes, ts, k: int, side: str) -> RecentInteractions:
        if k < 1:
            raise ValueError(f"window size must be >= 1, got {k}")
        nodes, ts = self._queries(nodes, ts)
        hi = self._position(nodes, ts, side)
        pos = hi[:, None] - k + np.arange(k)
        pad = pos < self._offsets[nodes][:, None]
        pos = np.where(pad, 0, pos)
        return RecentInteractions(
            np.where(pad, PAD_ID, self._nbr[pos]),
            np.where(pad, ts[:, None], self._nts[pos]),
            np.where(pad, -1, self._eid[pos]),
            pad,
        )

    def recent_interactions(self, nodes, ts, k: int) -> RecentInteractions:
        """K most recent interactions of each node strictly before its t."""
        return self._recent(nodes, ts, k, "left")

    def recent_interactions_inclusive(self, nodes, ts, k: int) -> RecentInteractions:
        """K most recent interactions of each node at or before its t."""
        return self._recent(nodes, ts, k, "right")

    def window_neighbors(self, nodes, ts, t_gap: float) -> WindowNeighbors:
        """Neighbors of each node with interactions inside [t - t_gap, t)."""
        nodes, ts = self._queries(nodes, ts)
        lo = self._position(nodes, ts - t_gap, "left")
        hi = self._position(nodes, ts, "left")
        counts = hi - lo
        offsets = np.concatenate([[0], np.cumsum(counts)])
        pos = np.arange(offsets[-1]) + np.repeat(lo - offsets[:-1], counts)
        return WindowNeighbors(offsets, self._nbr[pos], self._nts[pos])


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
