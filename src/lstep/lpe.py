"""Learnable positional encodings driven by a per-node history ring.

Each node's history is its own last L committed encodings, oldest
first and zero-padded at the front. Training and evaluation commit once
per batch to every node the batch touches, so a batch that does not
touch a node adds nothing to its history.

The approximation filters the d_P x L history matrix along the time
axis in the frequency domain, multiplies by a learnable complex filter,
transforms back, and pools the columns with learnable weights. That
chain is linear in the history, so it is one real (d_P, L) kernel: the
kernel is built once per batch from the filter and the pool, and the
encodings of every node the batch needs are one contraction of their
stacked histories against it. Commits add a gated MLP correction built
from each node's most recent interactions and are stored detached, so
no gradient crosses batch boundaries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import Tensor, weighted_sum_cols
from .fourier import filter_kernel
from .peinit import InitialPE
from .timeenc import TimeEncoderConfig, time_encode_many

__all__ = [
    "LpeParams",
    "PositionalStore",
    "BoundReport",
    "approximate_pe",
    "commit_pe",
    "ring_eigenvalues",
    "theorem1_check",
]


@dataclass
class LpeParams:
    """Learnable pieces of the positional-encoding update."""

    filter_re: Tensor  # (d_p, L) frequency response, real part
    filter_im: Tensor  # (d_p, L) frequency response, imaginary part
    sum_pool: Tensor  # (L, 1) column pooling weights
    w1: Tensor  # (d_p, d_p + d_t)
    w2: Tensor  # (d_p, d_p)
    w_self: Tensor  # (d_p, d_p)

    @property
    def d_p(self) -> int:
        return int(self.filter_re.shape[0])

    @property
    def history_len(self) -> int:
        return int(self.filter_re.shape[1])


class PositionalStore:
    """Ring of each node's last ``history_len`` committed encodings.

    ``_commits`` counts every commit to each node: slot ``_commits % L``
    is the next one written, and ``min(_commits, L)`` slots are filled.
    Slots a node has not written yet are zero (``reset`` clears them and
    ``restore`` checks them), so a gather needs no mask.
    """

    def __init__(self, num_nodes: int, d_p: int, history_len: int):
        if history_len < 1:
            raise ValueError(f"history length must be >= 1, got {history_len}")
        self.num_nodes = int(num_nodes)
        self.d_p = int(d_p)
        self.history_len = int(history_len)
        self._ring = np.zeros((num_nodes, history_len, d_p))
        self._commits = np.zeros(num_nodes, dtype=np.int64)

    def reset(self, initial: InitialPE | None = None) -> None:
        """Clear all rings; commit the snapshot nodes' initial rows."""
        self._ring[:] = 0.0
        self._commits[:] = 0
        if initial is not None:
            if initial.table.shape != (self.num_nodes, self.d_p):
                raise ValueError(
                    f"initial PE shape {initial.table.shape} != "
                    f"({self.num_nodes}, {self.d_p})"
                )
            present = np.asarray(initial.present, dtype=np.int64)
            self.commit(present, initial.table[present])

    def commit(self, nodes: np.ndarray, vecs: np.ndarray) -> None:
        """Append detached encodings (n, d_p) to the histories of distinct ``nodes``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        vecs = np.asarray(vecs, dtype=np.float64)
        if nodes.ndim != 1 or vecs.shape != (nodes.size, self.d_p):
            raise ValueError(f"commit shape {vecs.shape} != ({nodes.size}, {self.d_p})")
        if np.unique(nodes).size != nodes.size:
            raise ValueError("commit nodes must be distinct")
        self._ring[nodes, self._commits[nodes] % self.history_len] = vecs
        self._commits[nodes] += 1

    def history_matrix(self, nodes: np.ndarray) -> np.ndarray:
        """(n, d_p, L) histories, columns oldest to newest; missing oldest are zero."""
        nodes = np.asarray(nodes, dtype=np.int64)
        length = self.history_len
        # the newest commit sits just before the next slot, so column c is slot next + c
        slots = (np.arange(length) + self._commits[nodes, None]) % length
        return self._ring[nodes[:, None], slots].transpose(0, 2, 1)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {"ring": self._ring.copy(), "commits": self._commits.astype(np.float64)}

    def restore(self, blob: dict[str, np.ndarray]) -> None:
        """Load a ``snapshot``. Reject one with the wrong shapes, commit
        counts that are not whole numbers >= 0, or a non-zero slot that its
        node has not written, which the gather relies on being zero."""
        ring = np.asarray(blob["ring"], dtype=np.float64)
        commits = np.asarray(blob["commits"], dtype=np.float64)
        if ring.shape != self._ring.shape:
            raise ValueError(
                f"store snapshot ring shape {ring.shape} != {self._ring.shape}"
            )
        if commits.shape != self._commits.shape:
            raise ValueError(
                f"store snapshot commits shape {commits.shape} != {self._commits.shape}"
            )
        whole = (commits >= 0.0) & (commits < 2.0**63) & (commits == np.floor(commits))
        if not whole.all():
            node = int(np.argmin(whole))
            raise ValueError(
                f"store snapshot commits must be whole numbers >= 0, "
                f"node {node} has {commits[node]}"
            )
        unwritten = np.arange(self.history_len) >= commits[:, None]
        dirty = (ring != 0.0).any(axis=2) & unwritten
        if dirty.any():
            node, slot = (int(i[0]) for i in np.nonzero(dirty))
            raise ValueError(
                f"store snapshot: node {node} has not written slot {slot}, "
                f"but it is not zero"
            )
        self._ring = ring.copy()
        self._commits = commits.astype(np.int64)


def _filter_is_identity(params: LpeParams) -> bool:
    return bool(
        np.all(params.filter_re.data == 1.0) and np.all(params.filter_im.data == 0.0)
    )


def approximate_pe(histories: Tensor | np.ndarray, params: LpeParams) -> Tensor:
    """Filtered, pooled encodings (n, d_p) of n stacked (d_p, L) histories.

    Every history row is contracted with the (d_p, L) kernel of
    ``fourier.filter_kernel``, and the filter and pool gradients flow
    through that kernel only. An exactly-identity filter is a
    mathematical no-op for the transform chain; outside of gradient
    recording the kernel is then the pool itself, so the pass-through
    configuration reproduces the newest column bit-exactly.
    """
    h = histories if isinstance(histories, Tensor) else Tensor(histories)
    if h.data.ndim != 3 or h.data.shape[1:] != (params.d_p, params.history_len):
        raise ValueError(
            f"history shape {h.data.shape} != "
            f"(n, {params.d_p}, {params.history_len})"
        )
    if autodiff._ACTIVE_TAPE is None and _filter_is_identity(params):
        return weighted_sum_cols(h, params.sum_pool)
    kernel = filter_kernel(params.filter_re, params.filter_im, params.sum_pool)
    return weighted_sum_cols(h, kernel)


def commit_pe(
    p_tilde: np.ndarray,
    deltas: np.ndarray,
    partners: np.ndarray,
    pad_mask: np.ndarray,
    params: LpeParams,
    time_cfg: TimeEncoderConfig,
) -> np.ndarray:
    """Committed encodings p = p~ + tanh(W_self p~ + W2 relu(W1 q)), one row per node.

    ``deltas`` (n, K) are the times since each node's K most recent
    interactions up to the batch's last event, ``partners`` (n, K, d_p)
    the interaction partners' p~ and ``pad_mask`` (n, K) marks padded
    slots, which contribute exact zeros to the pooled q. Runs detached
    from any tape.

    Parameter versions: in training, ``p_tilde`` and ``partners`` come
    from the batch's forward pass, before the optimizer step, while
    W1, W2 and W_self are read here, after ``adam_step`` has updated
    them. So a commit pairs pre-step encodings with post-step MLP
    weights.
    """
    p_tilde = np.asarray(p_tilde, dtype=np.float64)
    real = ~np.asarray(pad_mask, dtype=bool)
    tau = time_encode_many(np.where(real, deltas, 0.0), time_cfg)
    tau_sum = np.where(real[..., None], tau, 0.0).sum(axis=1)
    nbr_sum = np.where(real[..., None], partners, 0.0).sum(axis=1)
    q = np.concatenate([tau_sum, nbr_sum], axis=1)
    w1, w2, w_self = params.w1.data, params.w2.data, params.w_self.data
    hidden = np.maximum(q @ w1.T, 0.0) @ w2.T
    return p_tilde + np.tanh(p_tilde @ w_self.T + hidden)


@dataclass(frozen=True)
class BoundReport:
    max_step_diff: float
    bound: float
    satisfied: bool


def ring_eigenvalues(length: int) -> np.ndarray:
    """lambda_k = 2 - cos(2 pi k / L), k = 1..L."""
    k = np.arange(1, length + 1, dtype=np.float64)
    return 2.0 - np.cos(2.0 * np.pi * k / length)


def theorem1_check(trace: np.ndarray, params: LpeParams) -> BoundReport:
    """Compare the worst step-to-step drift of a PE trace to its bound.

    The bound is (sum_k lambda_k * |filter|_k) * (2L - 2) with lambda the
    ring-graph eigenvalue ladder and |filter| the complex modulus averaged
    over the d_p encoding rows.
    """
    trace = np.asarray(trace, dtype=np.float64)
    if trace.ndim != 2 or trace.shape[0] < 2:
        raise ValueError(
            f"trace must hold at least 2 encodings, got shape {trace.shape}"
        )
    diffs = np.linalg.norm(np.diff(trace, axis=0), axis=1)
    max_step_diff = float(diffs.max())
    length = params.history_len
    mag = np.hypot(params.filter_re.data, params.filter_im.data).mean(axis=0)
    bound = float(np.sum(ring_eigenvalues(length) * mag) * (2.0 * length - 2.0))
    return BoundReport(max_step_diff, bound, max_step_diff <= bound)
