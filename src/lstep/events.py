"""Continuous-time event streams with per-node chronological indexes.

An event stream holds interaction triplets (src, dst, t) in time order,
dense node ids, a node feature table, and a per-event edge feature
table. The constructor requires time-sorted arrays and refuses others;
``load_events`` sorts a file's rows (stably, so ties keep file order)
before it builds the stream. A CSR index over nodes (offsets into
neighbor and event arrays, each node's entries in event order)
answers the three temporal queries the encoders need, for a whole array
of queries at once: the K most recent interactions strictly before t,
the K most recent among the events before a batch end (what a commit
reads), and all neighbors inside a look-back window [t - t_gap, t).
Because the events are time-sorted, every bound is an event-id bound.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .timeenc import phase_table

__all__ = [
    "RecentInteractions",
    "WindowNeighbors",
    "EventStream",
    "ChronoSplit",
    "load_events",
    "chronological_split",
    "batch_iter",
    "write_manifest",
]

_LABEL_NAMES = {"label", "state_label"}


def _reject_non_finite(values: np.ndarray, what: str, where: str) -> None:
    finite = np.isfinite(values)
    if finite.all():
        return
    bad = np.flatnonzero(~finite.all(axis=tuple(range(1, values.ndim))))[0]
    value = values[bad][~finite[bad]].ravel()[0]
    raise ValueError(f"non-finite {what} {value} at {where} {int(bad)}")


_INT64_END = 2.0**63  # int64 holds [-2**63, 2**63)


def _int64_ids(ids: np.ndarray) -> np.ndarray:
    """Which float node ids are integers inside int64; nan fails every
    comparison, and inf fails the range."""
    return (ids == np.floor(ids)) & (ids >= -_INT64_END) & (ids < _INT64_END)


def _node_ids(values, side: str) -> np.ndarray:
    """``values`` as int64 node ids; a float id that the cast would
    truncate or overflow raises, naming the first such event."""
    values = np.asarray(values)
    bad = np.flatnonzero(~_int64_ids(values)) if values.dtype.kind == "f" else ()
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"{side} node id {values.flat[i]} at event {i} is not an int64 integer")
    return np.asarray(values, dtype=np.int64)


def _feature_table(values, name: str, rows: str) -> np.ndarray:
    table = np.asarray(values, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"{name} must be a 2-D ({rows}, dim) table, got shape {table.shape}")
    return table


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

    Both fields are (n, K), oldest first within a row. When fewer than K
    interactions exist, the front slots are padding: event -1 and the
    null node ``num_nodes`` as neighbor, whose positional history is
    zero (``lpe.PositionalStore``), so a window sum reads a zero row for
    a pad. A slot is padded iff its event is negative; a real slot's
    time is its event's, ``ts[event_ids]``.
    """

    neighbors: np.ndarray
    event_ids: np.ndarray


@dataclass(frozen=True)
class WindowNeighbors:
    """Ragged look-back windows: query i owns ``[offsets[i], offsets[i+1])``."""

    offsets: np.ndarray
    neighbors: np.ndarray


class EventStream:
    """Time-sorted interaction events plus feature tables and indexes.

    The arrays must already be in time order; tied timestamps keep the
    order given. An event earlier than the one before it raises
    ``ValueError`` naming both; the constructor reorders nothing.
    ``load_events`` sorts a file first and sets ``sort_warnings`` to the
    pairs it repaired; a stream built here directly has 0. Float node
    ids must be integers inside int64: the constructor truncates none.
    """

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
    ):
        src, dst = _node_ids(src, "src"), _node_ids(dst, "dst")
        ts = np.asarray(ts, dtype=np.float64)
        if not (src.shape == dst.shape == ts.shape) or src.ndim != 1:
            raise ValueError(
                f"src/dst/ts shapes disagree: {src.shape}, {dst.shape}, {ts.shape}"
            )
        if src.size == 0:
            raise ValueError("event stream is empty")
        _reject_non_finite(ts, "timestamp", "event")
        if edge_features is not None:
            edge_features = _feature_table(edge_features, "edge_features", "events")
            _reject_non_finite(edge_features, "edge feature", "event")
        late = np.flatnonzero(np.diff(ts) < 0.0)
        if late.size:
            i = int(late[0]) + 1
            raise ValueError(
                f"timestamp {ts[i]} at event {i} is earlier than {ts[i - 1]} at "
                f"event {i - 1}: events must be time-sorted (load_events sorts a file)"
            )
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
        self.sort_warnings = 0  # load_events counts what it sorted
        self.has_edge_features = edge_features is not None  # else zero-filled

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
            node_features = _feature_table(node_features, "node_features", "nodes")
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
        self._phase_rows: dict[int, np.ndarray] = {}
        self._build_index()

    def _build_index(self) -> None:
        # CSR over nodes: one (neighbor, event) entry per endpoint, a
        # self-loop once. Entries are laid out in event order before the
        # stable sort, so each node's entries stay in event order.
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
        self._eid = eid[order]
        # entries sort by (node, event id), so one searchsorted on this
        # integer key answers an id bound for every query at once
        self._key = node[order] * self.num_events + self._eid

    def phase_rows(self, d_t: int) -> np.ndarray:
        """(E, 2 d_t) phase row of every event, ``timeenc.phase_table`` of
        the timestamps: [cos, sin] of omega (t_e - r_e), r_e the start of
        the block that holds t_e. Built on the first call for each d_t
        and kept, at E x 2 d_t x 8 bytes."""
        table = self._phase_rows.get(d_t)
        if table is None:
            table = self._phase_rows[d_t] = phase_table(self.ts, d_t)
        return table

    def interaction_counts(self) -> np.ndarray:
        """(num_nodes,) events per node: each event counts once at each
        of its endpoints, a self-loop once."""
        return np.diff(self._offsets)

    def _position(self, nodes: np.ndarray, end) -> np.ndarray:
        """Per query, the CSR position after the node's entries with an
        event id below ``end``."""
        return np.searchsorted(self._key, nodes * self.num_events + end)

    def _before(self, nodes: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Per query, the CSR position after the node's entries before t:
        the events are time-sorted, so that is an event-id bound."""
        return self._position(nodes, np.searchsorted(self.ts, ts))

    def _queries(self, nodes, ts) -> tuple[np.ndarray, np.ndarray]:
        """1-D node ids in [0, num_nodes) and one finite time per node (a
        scalar time serves every node); anything else raises ValueError."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1:
            raise ValueError(f"queries take a 1-D node array, got shape {nodes.shape}")
        bad = (nodes < 0) | (nodes >= self.num_nodes)
        if bad.any():
            raise ValueError(f"query node {int(nodes[bad][0])} outside [0, {self.num_nodes})")
        ts = np.asarray(ts, dtype=np.float64)
        if ts.ndim and ts.shape != nodes.shape:
            raise ValueError(f"query times shape {ts.shape} != nodes shape {nodes.shape}")
        bad = ~np.isfinite(ts)
        if bad.any():
            raise ValueError(f"non-finite query time {ts[bad].flat[0]}")
        return nodes, np.broadcast_to(ts, nodes.shape)

    def _recent(self, nodes, hi, k: int) -> RecentInteractions:
        if k < 1:
            raise ValueError(f"window size must be >= 1, got {k}")
        pos = hi[:, None] - k + np.arange(k)
        pad = pos < self._offsets[nodes][:, None]
        pos = np.where(pad, 0, pos)
        return RecentInteractions(
            np.where(pad, self.num_nodes, self._nbr[pos]), np.where(pad, -1, self._eid[pos])
        )

    def recent_interactions(self, nodes, ts, k: int) -> RecentInteractions:
        """K most recent interactions of each node strictly before its t."""
        nodes, ts = self._queries(nodes, ts)
        return self._recent(nodes, self._before(nodes, ts), k)

    def recent_interactions_inclusive(self, nodes, end: int, k: int) -> RecentInteractions:
        """K most recent interactions of each node among events [0, end),
        the window a commit reads after the batch that ends at ``end``.
        Later events that share event ``end - 1``'s timestamp stay out."""
        if not 1 <= end <= self.num_events:
            raise ValueError(f"event bound {end} outside [1, {self.num_events}]")
        nodes, _ = self._queries(nodes, self.ts[end - 1])
        return self._recent(nodes, self._position(nodes, end), k)

    def window_neighbors(self, nodes, ts, t_gap: float) -> WindowNeighbors:
        """Neighbors of each node with interactions inside [t - t_gap, t)."""
        nodes, ts = self._queries(nodes, ts)
        lo = self._before(nodes, ts - t_gap)
        hi = self._before(nodes, ts)
        counts = hi - lo
        offsets = np.concatenate([[0], np.cumsum(counts)])
        pos = np.arange(offsets[-1]) + np.repeat(lo - offsets[:-1], counts)
        return WindowNeighbors(offsets, self._nbr[pos])


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
    d_n: int = 172,
    d_e: int = 172,
    dataset: str | None = None,
) -> EventStream:
    """Read a CSV event file: header, then src,dst,timestamp[,label][,f...].

    Accepted format:

    * The first record is the header, with at least three columns. A
      column named label/state_label right after the timestamp is not
      parsed (it may hold any text); the columns after it, or after the
      timestamp when there is no label, are per-event edge features.
    * Every other line holds one event with one field per header column.
      Empty lines are skipped. Fields may be quoted with ``"``.
    * Numbers follow numpy's float grammar: Python's ``float`` syntax
      with surrounding whitespace allowed, but no ``_`` digit separators
      and no non-ASCII digits.
    * Node ids are integral values inside int64 (``12`` or ``12.0``, not
      ``12.5``); timestamps and edge features are finite.

    Parsing is one ``np.loadtxt`` call; the checks run on the parsed
    arrays. Every error names the file and, for a bad row, the line:
    ``path:line: ...``. Node ids are re-indexed densely from 0 in
    sorted-id order. Rows out of time order are repaired by a stable
    sort, done in place on the parsed block a column slab at a time,
    before the block becomes an ``EventStream`` (which refuses unsorted
    arrays); ``sort_warnings`` counts the inverted pairs it repaired (the
    timestamps 3, 1, 2 give 2), not the rows it moved.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: empty event file")
        if len(header) < 3:
            raise ValueError(f"{path}: header needs at least src,dst,timestamp")
        has_label = len(header) > 3 and header[3].strip().lower() in _LABEL_NAMES
        # the label is measured, not parsed: a converter (rather than
        # usecols) keeps loadtxt's field count check on every row
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                block = np.loadtxt(
                    fh,
                    dtype=np.float64,
                    delimiter=",",
                    comments=None,
                    quotechar='"',
                    ndmin=2,
                    converters={3: len} if has_label else None,
                )
        except ValueError as exc:
            raise ValueError(_rejected_block(path, header, has_label, str(exc))) from None
    if block.size == 0:
        raise ValueError(f"{path}: empty event file")
    if block.shape[1] != len(header):
        reason = f"expected {len(header)} fields, got {block.shape[1]}"
        raise ValueError(_rejected_block(path, header, has_label, reason))
    ids, ts = block[:, :2], block[:, 2]
    feats = block[:, 4 if has_label else 3 :]
    if not (_int64_ids(ids).all() and np.isfinite(ts).all() and np.isfinite(feats).all()):
        reason = "bad node id, timestamp or edge feature"
        raise ValueError(_rejected_block(path, header, has_label, reason))

    # the block is ours, so it is sorted in place before the stream sees it
    sort_warnings = 0
    if np.any(np.diff(ts) < 0.0):
        sort_warnings = _count_inversions(ts)
        _permute_rows(block, np.argsort(ts, kind="stable"))
    _, dense = np.unique(ids.T.astype(np.int64).ravel(), return_inverse=True)
    src, dst = dense.reshape(2, -1).astype(np.int64)
    stream = EventStream(
        src,
        dst,
        np.ascontiguousarray(ts),
        edge_features=feats if feats.shape[1] else None,
        d_n=d_n,
        d_e=d_e,
        dataset=dataset or path.stem,
    )
    stream.sort_warnings = sort_warnings
    return stream


def _permute_rows(block: np.ndarray, order: np.ndarray) -> None:
    """Reorder the rows of ``block`` in place as ``block[order]``, 16
    columns at a time, so the only copy is one (rows, 16) slab."""
    for lo in range(0, block.shape[1], 16):
        block[:, lo : lo + 16] = block[order, lo : lo + 16]


def _row_problem(ids: list[float], t: float, feat: list[float]) -> str | None:
    """What is wrong with one parsed row, checked in field order."""
    for x in ids:
        try:
            integral = int(x) == x  # nan and inf raise with Python's message
        except (ValueError, OverflowError) as exc:
            return f"malformed row ({exc})"
        if not integral:
            return f"malformed row (node id {x!r} is not an integer)"
        if not -_INT64_END <= x < _INT64_END:
            return f"malformed row (node id {x!r} is outside int64)"
    if not math.isfinite(t):
        return f"non-finite timestamp {t}"
    if not all(map(math.isfinite, feat)):
        return "non-finite edge feature"
    return None


def _records(path: Path):
    """(line, fields) of every non-empty data record, numbered as
    ``csv.reader`` counts records with the header as line 1."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for lineno, row in enumerate(reader, start=2):
            if row:
                yield lineno, row


def _parse_float(token: str) -> float:
    """``float`` under numpy's grammar (no ``_``, ASCII digits only)."""
    if "_" in token or not token.strip().isascii():
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def _rejected_block(path: Path, header: list[str], has_label: bool, reason: str) -> str:
    """Located message for the first bad record of a file that loadtxt
    rejected or whose parsed values fail the checks, found by walking the
    records; runs on failed files only. ``reason`` is the fallback."""
    for lineno, row in _records(path):
        where = f"{path}:{lineno}"
        if len(row) != len(header):
            return f"{where}: expected {len(header)} fields, got {len(row)}"
        if has_label:
            del row[3]
        try:
            values = [_parse_float(field) for field in row]
        except ValueError as exc:
            return f"{where}: malformed row ({exc})"
        problem = _row_problem(values[:2], values[2], values[3:])
        if problem:
            return f"{where}: {problem}"
    return f"{path}: {reason}"


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

