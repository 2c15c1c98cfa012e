"""Temporal node representations and the link predictor head.

A node's representation at query time t fuses three views: its feature
vector plus the mean of neighbor features inside a look-back window, a
pooled encoding of its K most recent interactions (time encoding and
edge features per interaction), and the gated refinement of its current
positional encoding against the positional encodings of those same K
interaction partners (``lpe.refine_pe``, the update commits apply).
Every function takes a batch of (node, t) queries and returns one row
per query, so a batch costs a fixed handful of matrix products whatever
its size. The K slots are pooled one slot position at a time from one
phase row per distinct window event, so no (n, K, .) slot tensor is
formed. An event's row comes from its stream's phase table
(``EventStream.phase_rows``): [cos, sin] of omega (t_e - r_e), r_e the
start of the 2^20-s block that holds t_e, built once per stream. A
batch turns its events' rows to the block start R of its latest query
time and ``phase_pool`` turns the pooled rows to each query's phase
omega (t - R), both by angle addition (cos(a - b) = cos a cos b +
sin a sin b). No rounded phase is then larger than a block plus the
window's span, so at Unix-epoch timestamps (about 1.7e9) the time
encodings match ``timeenc.time_encode`` of each delta within 1e-9;
phases against t = 0 would be about 1.7e9 rad and miss by about 2e-7.
``window_tau`` gives the commits their windows' time-encoding sums
from the same rows. The link predictor is a two-layer MLP over the
concatenated endpoint representations. Each layer reads the model's
tensors by their checkpoint names from one dict
(``ModelParams.tensors``).
"""
from __future__ import annotations

import numpy as np

from .autodiff import (
    ROW_BLOCK, Tensor, _emit, _row_blocks, concat, gather_sum_rows, linear, matmul, relu, sigmoid,
)
from .config import RunConfig
from .events import EventStream, RecentInteractions
from .lpe import refine_pe
from .timeenc import block_start, phases_at, turn

__all__ = ["node_encoding", "phase_pool", "window_tau", "temporal_representation", "predict_link"]


def node_encoding(
    stream: EventStream, nodes: np.ndarray, ts: np.ndarray, t_gap: float
) -> np.ndarray:
    """(n, d_n): x_u plus the mean feature vector of neighbors seen in [t - t_gap, t)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    win = stream.window_neighbors(nodes, ts, t_gap)
    counts = np.diff(win.offsets)
    out = stream.node_features[nodes]
    some = counts > 0
    if some.any():
        # the non-empty windows tile the gathered rows, so each sum runs
        # from its offset to the next non-empty window's
        sums = np.add.reduceat(
            stream.node_features[win.neighbors], win.offsets[:-1][some], axis=0
        )
        out[some] += sums / counts[some, None]
    return out


def phase_pool(
    rows: np.ndarray, index: np.ndarray, w: Tensor, phases: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """Weighted and plain slot sums of phase rows, turned to each query's phase.

    ``rows`` (R, 2d + e) holds [cos b, sin b, x] per row, ``index`` (n, K)
    the row of each query's slot k, ``w`` (K, 1) one weight per slot and
    ``phases`` (n, 2d) each query's [cos a, sin a]. Since cos(a - b) =
    cos a cos b + sin a sin b, the weighted sums turn into the rows
    [sum_k w_k cos(a - b_k), sum_k w_k x_k] (n, d + e), returned as a
    tensor, and the plain sums into sum_k cos(a - b_k) (n, d), returned
    as an array. The sums walk the K slots, ``ROW_BLOCK`` queries at a
    time, so no (n, K, .) array is formed; the gradient reaches ``w``
    only, and re-gathers each slot.
    """
    index = np.asarray(index, dtype=np.int64)
    n, k = index.shape
    d = phases.shape[1] // 2
    if rows.ndim != 2 or rows.shape[1] < 2 * d or w.data.shape != (k, 1) or phases.shape[0] != n:
        raise ValueError(
            f"phase_pool shape mismatch: rows {rows.shape}, index {index.shape}, "
            f"w {w.data.shape}, phases {phases.shape}"
        )
    if index.size and not 0 <= index.min() <= index.max() < rows.shape[0]:
        raise IndexError(f"phase_pool index outside the {rows.shape[0]} rows")
    cos_q, sin_q = phases[:, :d], phases[:, d:]
    weighted = np.zeros((n, rows.shape[1]))
    plain = np.zeros((n, 2 * d))
    buf = np.empty((min(n, ROW_BLOCK), rows.shape[1]))
    cols = index.T.copy()
    # block by block, as autodiff.gather_sum_rows walks; the indices are
    # checked above, and "clip" lets take write to buf unbuffered
    for lo, hi in _row_blocks(n):
        slot, acc, acc_w = buf[: hi - lo], plain[lo:hi], weighted[lo:hi]
        for col, wj in zip(cols[:, lo:hi], w.data[:, 0]):
            np.take(rows, col, axis=0, out=slot, mode="clip")
            acc += slot[:, : 2 * d]
            slot *= wj
            acc_w += slot
    out = np.empty((n, rows.shape[1] - d))
    np.multiply(cos_q, weighted[:, :d], out=out[:, :d])
    out[:, :d] += sin_q * weighted[:, d : 2 * d]
    out[:, d:] = weighted[:, 2 * d :]
    tau = cos_q * plain[:, :d]
    tau += sin_q * plain[:, d:]

    def vjp(g):
        # the gradient of every slot row, then its dot with each slot's
        # rows: one dot per slot over all n rows, as a blocked walk would
        # add the same products in another order
        g_rows = np.empty((n, rows.shape[1]))
        np.multiply(cos_q, g[:, :d], out=g_rows[:, :d])
        np.multiply(sin_q, g[:, :d], out=g_rows[:, d : 2 * d])
        g_rows[:, 2 * d :] = g[:, d:]
        picked = np.empty_like(g_rows)
        gw = np.empty((k, 1))
        for j in range(k):
            np.take(rows, index[:, j], axis=0, out=picked, mode="clip")
            gw[j, 0] = np.vdot(picked, g_rows)
        return (gw,)

    return _emit(out, (w,), vjp), tau


def _window_rows(
    stream: EventStream, window: RecentInteractions, ts: np.ndarray, d_t: int, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, slot index and query phases of the windows ``window`` of
    queries at times ``ts``, as ``phase_pool`` reads them.

    Each distinct window event has one row: its phase row of the stream's
    phase table (``EventStream.phase_rows``), turned to the start R of
    the block that holds the latest query time, then its row of the
    per-event table ``columns``. A final zero row is what padded slots
    read, so it stays valid when no slot is real. The phases are each
    query's omega (t - R). So a batch evaluates sines and cosines only
    of its distinct query times and of its distinct block gaps, and
    every phase stays within a block and the window's span of zero.
    """
    real = window.event_ids >= 0
    # an event repeats once per endpoint in the windows; each distinct one is read once
    events, which = np.unique(window.event_ids[real], return_inverse=True)
    index = np.full(real.shape, events.size)
    index[real] = which
    ref = float(block_start(ts.max())) if ts.size else 0.0
    rows = np.empty((events.size + 1, 2 * d_t + columns.shape[1]))
    rows[:-1, : 2 * d_t] = stream.phase_rows(d_t)[events]
    turn(rows[:-1, : 2 * d_t], block_start(stream.ts[events]) - ref)
    rows[:-1, 2 * d_t :] = columns[events]
    rows[-1] = 0.0
    return rows, index, phases_at(ts, ref, d_t)


def window_tau(
    stream: EventStream, window: RecentInteractions, ts: np.ndarray, d_t: int
) -> np.ndarray:
    """(n, d_t) sums of the time encodings cos omega (t - t_e) of each
    query's real window slots, at its time t of ``ts``; padded slots add
    nothing. The commits read it, at the batch's last event, after the
    batch's tape has closed.
    """
    rows, index, phases = _window_rows(stream, window, ts, d_t, stream.edge_features[:, :0])
    sums = gather_sum_rows(rows, index).data
    return phases[:, :d_t] * sums[:, :d_t] + phases[:, d_t:] * sums[:, d_t:]


def _pool_window(
    stream: EventStream,
    recent: RecentInteractions,
    ts: np.ndarray,
    params: dict[str, Tensor],
    cfg: RunConfig,
) -> tuple[Tensor, np.ndarray]:
    """Link encodings (n, d_t + d_e) of each query's window ``recent``,
    and the sums (n, d_t) of its slots' time encodings.

    A slot's row is concat(cos omega (t - t_e), x_e) for its event e and
    the query time t; a padded slot's is zero. ``phase_pool`` pools the
    rows of ``_window_rows`` and turns them to each query's phase.
    Pooling the K slots and ``link_w1`` are both linear, so the slots
    are pooled first and only (n, d_t + d_e) rows meet the weight.
    """
    rows, index, phases = _window_rows(stream, recent, ts, cfg.d_t, stream.edge_features)
    pooled, tau = phase_pool(rows, index, params["link_sum_pool"], phases)
    return linear(relu(matmul(pooled, params["link_w1"])), params["link_w2"]), tau


def temporal_representation(
    stream: EventStream,
    nodes: np.ndarray,
    ts: np.ndarray,
    params: dict[str, Tensor],
    cfg: RunConfig,
    ptilde: Tensor,
    ptilde_nodes: np.ndarray,
    recent: RecentInteractions,
) -> Tensor:
    """Fused (n, d_n) representations of ``nodes`` at query times ``ts``.

    ``recent`` holds each query's K most recent interactions before its
    time (``EventStream.recent_interactions``). ``ptilde`` holds the
    approximate positional encodings (m, d_p) of the sorted node ids
    ``ptilde_nodes``; it must cover every query node and those
    interactions' partners, the null node for a padded slot. The
    neighbor window is ``cfg.t_gap`` long. ``params`` holds the model's
    tensors; the positional branch is ``refine_pe`` with them, the same
    update the commits apply.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    ts = np.asarray(ts, dtype=np.float64)
    h_n = Tensor(node_encoding(stream, nodes, ts, cfg.t_gap))
    h_e, tau = _pool_window(stream, recent, ts, params, cfg)
    h_ne = linear(concat(h_n, h_e), params["fuse_w"])
    h_p = refine_pe(ptilde, ptilde_nodes, nodes, recent, tau, params)
    return linear(concat(h_ne, h_p), params["out_w"])


def predict_link(h_u: Tensor, h_v: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Link probabilities in (0, 1), shape (n, 1), for (n, d_n) endpoint rows."""
    hidden = relu(matmul(concat(h_u, h_v), params["pred_w1"]))
    return sigmoid(matmul(hidden, params["pred_w2"]))
