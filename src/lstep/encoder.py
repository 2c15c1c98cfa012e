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
phase row per distinct window event, taken against the batch's latest
query time t_ref, so no (n, K, .) slot tensor is formed; against t_ref
the time encodings match ``timeenc.time_encode`` of each delta within
1e-9 at Unix-epoch timestamps. The link predictor is a two-layer MLP
over the concatenated endpoint representations. Each layer reads the
model's tensors by their checkpoint names from one dict
(``ModelParams.tensors``).
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat, linear, matmul, phase_pool, relu, sigmoid
from .config import RunConfig
from .events import EventStream, RecentInteractions
from .lpe import refine_pe
from .timeenc import angular_frequencies

__all__ = ["node_encoding", "temporal_representation", "predict_link"]


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


def _phases(times: np.ndarray, t_ref: float, cfg: RunConfig) -> np.ndarray:
    """(..., 2 d_t) [cos, sin] of omega (times - t_ref), omega the time encoder's ladder."""
    angle = (times - t_ref)[..., None] * angular_frequencies(cfg)
    return np.concatenate([np.cos(angle), np.sin(angle)], axis=-1)


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
    the query time t; a padded slot's is zero. The window's distinct
    events get one phase row each against the batch's latest query time
    t_ref, and ``phase_pool`` pools the slots and turns them to each
    query's phase, so a batch evaluates 2 d_t (n + distinct events)
    sines and cosines, not n K d_t cosines; against t_ref the phases stay
    as small as the deltas themselves. Pooling the K slots and
    ``link_w1`` are both linear, so the slots are pooled first and only
    (n, d_t + d_e) rows meet the weight.
    """
    real = ~recent.pad_mask
    events, which = np.unique(recent.event_ids[real], return_inverse=True)
    index = np.full(real.shape, events.size)
    index[real] = which
    t_ref = float(ts.max()) if ts.size else 0.0
    d_t = cfg.d_t
    rows = np.empty((events.size + 1, 2 * d_t + stream.d_e))
    rows[:-1, : 2 * d_t] = _phases(stream.ts[events], t_ref, cfg)
    rows[:-1, 2 * d_t :] = stream.edge_features[events]
    rows[-1] = 0.0  # what padded slots read
    pooled, tau = phase_pool(rows, index, params["link_sum_pool"], _phases(ts, t_ref, cfg))
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
    interactions' partners. The neighbor window is
    ``cfg.t_gap`` long. ``params`` holds the model's tensors; the
    positional branch is ``refine_pe`` with them, the same update the
    commits apply.
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
