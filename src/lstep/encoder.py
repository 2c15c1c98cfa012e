"""Temporal node representations and the link predictor head.

A node's representation at query time t fuses three views: its feature
vector plus the mean of neighbor features inside a look-back window, a
pooled encoding of its K most recent interactions (time encoding and
edge features per interaction), and the gated refinement of its current
positional encoding against the positional encodings of those same K
interaction partners (``lpe.refine_pe``, the update commits apply).
Every function takes a batch of (node, t) queries and returns one row
per query, so a batch costs a fixed handful of matrix products whatever
its size. The link predictor is a two-layer MLP over the concatenated
endpoint representations. Each layer reads the model's tensors by their
checkpoint names from one dict (``ModelParams.tensors``).
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat, linear, matmul, relu, sigmoid, weighted_sum_cols
from .config import RunConfig
from .events import EventStream, RecentInteractions
from .lpe import refine_pe
from .timeenc import time_encode_many

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


def _interaction_rows(
    stream: EventStream, recent: RecentInteractions, ts: np.ndarray, cfg: RunConfig
) -> np.ndarray:
    """(n, K, d_t + d_e) rows of concat(time encoding, edge features).

    Padded slots stay exactly zero across the whole row.
    """
    d_t = cfg.d_t
    rows = np.empty(recent.pad_mask.shape + (d_t + stream.d_e,))
    rows[..., :d_t] = time_encode_many(ts[:, None] - recent.times, cfg)
    rows[..., d_t:] = stream.edge_features[recent.event_ids]
    rows[recent.pad_mask] = 0.0
    return rows


def _pooled_link(rows: np.ndarray, params: dict[str, Tensor]) -> Tensor:
    """(n, d_t + d_e) link encodings of ``_interaction_rows``' (n, K, .)
    rows. Pooling the K slots and ``link_w1`` are both linear, so the
    rows are pooled first and only (n, d_t + d_e) rows meet the weight."""
    pooled = weighted_sum_cols(Tensor(rows.transpose(0, 2, 1)), params["link_sum_pool"])
    return linear(relu(matmul(pooled, params["link_w1"])), params["link_w2"])


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
    rows = _interaction_rows(stream, recent, ts, cfg)
    h_n = Tensor(node_encoding(stream, nodes, ts, cfg.t_gap))
    h_e = _pooled_link(rows, params)
    h_ne = linear(concat(h_n, h_e), params["fuse_w"])
    h_p = refine_pe(ptilde, ptilde_nodes, nodes, recent, rows[..., : cfg.d_t], params)
    return linear(concat(h_ne, h_p), params["out_w"])


def predict_link(h_u: Tensor, h_v: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Link probabilities in (0, 1), shape (n, 1), for (n, d_n) endpoint rows."""
    hidden = relu(matmul(concat(h_u, h_v), params["pred_w1"]))
    return sigmoid(matmul(hidden, params["pred_w2"]))
