"""Initial positional encodings from a static snapshot of early events.

The snapshot is the undirected simple graph of a batch of events
(duplicate edges collapsed, self-loops dropped). Two spectral choices:
rows of the d_P lowest eigenvectors of the symmetric normalized
Laplacian, or diagonal return probabilities of k-step random walks.
Nodes absent from the snapshot keep exactly-zero rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import DEFAULT_SIZE_CAP, symmetric_eig

__all__ = [
    "InitialPE", "snapshot_graph", "normalized_laplacian", "laplacian_pe", "random_walk_pe",
    "zero_pe",
]


@dataclass(frozen=True)
class InitialPE:
    """Per-node starting encodings; ``present`` lists snapshot nodes."""

    table: np.ndarray
    method: str
    present: np.ndarray


def snapshot_graph(
    src: np.ndarray, dst: np.ndarray, num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse events to simple undirected edges plus the present-node set."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.size == 0:
        raise ValueError("snapshot has no events")
    if src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= num_nodes:
        raise ValueError("snapshot node id outside [0, num_nodes)")
    present = np.unique(np.concatenate([src, dst]))
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    edges = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return edges, present


def _adjacency(edges: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Dense 0/1 adjacency over ``present`` (sorted), rows in that order."""
    i, j = np.searchsorted(present, edges.T)
    n = present.shape[0]
    a = np.zeros((n, n))
    a[i, j] = 1.0
    a[j, i] = 1.0
    return a


def normalized_laplacian(a: np.ndarray) -> np.ndarray:
    """I - D^-1/2 A D^-1/2 of the dense symmetric adjacency ``a``, with
    the convention 0^(-1/2) = 0 for an isolated node."""
    deg = a.sum(axis=1)
    dis = np.where(deg > 0.0, np.where(deg > 0.0, deg, 1.0) ** -0.5, 0.0)
    return np.eye(a.shape[0]) - (dis[:, None] * a) * dis[None, :]


def laplacian_pe(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    d_p: int,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> InitialPE:
    """Rows of the d_p smallest-eigenvalue eigenvectors of I - D^-1/2 A D^-1/2.

    The constant (zero-eigenvalue) eigenvector is kept. Isolated present
    nodes use the convention 0^(-1/2) = 0. When the snapshot has fewer
    than d_p present nodes the trailing dimensions are zero-padded.
    """
    edges, present = snapshot_graph(src, dst, num_nodes)
    _, vecs = symmetric_eig(normalized_laplacian(_adjacency(edges, present)), size_cap=size_cap)
    take = min(d_p, present.size)
    table = np.zeros((num_nodes, d_p))
    table[present, :take] = vecs[:, :take]
    return InitialPE(table, "laplacian", present)


def random_walk_pe(
    src: np.ndarray, dst: np.ndarray, num_nodes: int, d_p: int
) -> InitialPE:
    """PE_k(u) = k-step return probability diag((D^-1 A)^k)_u, k = 1..d_p.

    Return probabilities carry no position when every snapshot node looks
    alike. On a snapshot of disjoint edges every present node gets the
    same row (0, 1, 0, 1, ...), of norm sqrt(d_p / 2); rows are neither
    scaled nor centred to tell them apart.
    """
    edges, present = snapshot_graph(src, dst, num_nodes)
    a = _adjacency(edges, present)
    deg = a.sum(axis=1)
    p = a / np.where(deg > 0.0, deg, 1.0)[:, None]
    table = np.zeros((num_nodes, d_p))
    walk = p.copy()
    for k in range(d_p):
        table[present, k] = np.diag(walk)
        if k + 1 < d_p:
            walk = walk @ p
    return InitialPE(table, "random_walk", present)


def zero_pe(num_nodes: int, d_p: int) -> InitialPE:
    return InitialPE(
        np.zeros((num_nodes, d_p)), "zero", np.zeros(0, dtype=np.int64)
    )
