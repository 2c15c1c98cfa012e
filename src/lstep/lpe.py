"""Learnable positional encodings driven by a per-node history ring.

Each node's history is its own last L committed encodings, oldest
first and zero-padded at the front. Training and evaluation commit once
per batch to every node the batch touches, so a batch that does not
touch a node adds nothing to its history, and a node never holds more
than 1 + its interaction count commits between two resets. The store
gives each node only that many slots, at most L, in one flat array
with a shared zero row: a gather points every column older than a
node's fill at that row, so neither the store nor a reset ever writes
the padding. The null node, id N for N nodes, owns only that zero row
and never commits: a padded slot of an interaction window names it, so
its partner p~ is a zero row, with no mask.

The approximation filters the d_P x L history matrix along the time
axis in the frequency domain, multiplies by a learnable complex filter,
transforms back, and pools the columns with learnable weights. That
chain is linear in the history, so it is one real (d_P, L) kernel,
``fourier.filter_kernel`` of the filter and the pool, built the same
way with and without a gradient tape. A batch gathers only the newest
m <= L columns of the histories it needs, m the most commits among its
nodes: the older columns are zero in all of them. The encodings of
every node a batch needs are one contraction of those stacked
(d_P, m) histories against the kernel's last m columns.
``refine_pe`` adds a gated MLP correction built from a node's most
recent interactions: it pools the partners' p~ over that window, and
takes the window's time-encoding sums from its caller (the encoder's
window pool for a representation, ``encoder.window_tau`` for a
commit). The representation uses it under the tape; a batch's commit
(``training.commit_pe``) stores its output detached, so no gradient
crosses batch boundaries.

A frozen segment is a run of batches without a gradient tape, so with
fixed parameters: evaluation's warm replay and scoring, training's
validation pass and the PE trace. There the kernel is a constant and a
node's p~ changes only when the node commits, so ``FrozenPE`` builds
the kernel once and keeps every node's p~ until the store's commit
count for that node moves on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import Tensor, _emit, add, concat, gather_rows, gather_sum_rows, linear, relu, tanh
from .events import RecentInteractions
from .fourier import filter_kernel
from .peinit import InitialPE

__all__ = [
    "PositionalStore",
    "BoundReport",
    "FrozenPE",
    "node_rows",
    "approximate_pe",
    "refine_pe",
    "ring_eigenvalues",
    "theorem1_check",
]


class PositionalStore:
    """Ring of each node's last committed encodings, sized by its events.

    ``counts`` holds each node's interaction count
    (``EventStream.interaction_counts``). Between two resets a node
    commits at most once per batch that touches it plus once at the
    reset, so its ring has cap = min(L, 1 + count) slots; a commit past
    a short ring's cap raises instead of dropping history. The rings
    share one flat (sum(cap) + 1, d_p) array, node n's slots starting
    at its offset; the last row is zero and never written.

    The null node, id ``num_nodes``, stands in for a padded window slot
    (``events.RecentInteractions``). Its one slot is the zero row and it
    never commits, since ``commit`` and ``reset`` refuse it, so its
    history, and so its p~, is zero at every width.

    ``_commits`` counts every commit to each node: slot ``_commits %
    cap`` is the next one written, and ``min(_commits, cap)`` slots are
    filled. Slots a node has not written since the last reset may hold
    stale rows: ``reset`` only zeroes the counts, and
    ``history_matrix`` reads the zero row for every column older than a
    node's fill.
    """

    def __init__(self, counts: np.ndarray, d_p: int, history_len: int):
        if history_len < 1:
            raise ValueError(f"history length must be >= 1, got {history_len}")
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1 or (counts < 0).any():
            raise ValueError("interaction counts must be a 1-D array of counts >= 0")
        self.num_nodes = int(counts.size)
        self.d_p = int(d_p)
        self.history_len = int(history_len)
        # the null node's one slot is the zero row, after every real slot
        self._cap = np.append(np.minimum(self.history_len, 1 + counts), 1)
        self._offset = np.cumsum(self._cap) - self._cap
        self._ring = np.zeros((int(self._cap.sum()), self.d_p))
        self._commits = np.zeros(self.num_nodes + 1, dtype=np.int64)

    def _check_nodes(self, nodes: np.ndarray, what: str) -> None:
        bad = (nodes < 0) | (nodes >= self.num_nodes)
        if bad.any():
            raise ValueError(f"{what} node {int(nodes[bad][0])} outside [0, {self.num_nodes})")
        if np.unique(nodes).size != nodes.size:
            raise ValueError(f"{what} nodes must be distinct")

    def reset(self, initial: InitialPE) -> None:
        """Empty every ring; commit the snapshot nodes' initial rows.

        The input is checked first, so a rejected reset leaves the store
        as it was. The counts are zeroed in place: ``FrozenPE`` reads
        the same array.
        """
        if initial.table.shape != (self.num_nodes, self.d_p):
            raise ValueError(
                f"initial PE shape {initial.table.shape} != "
                f"({self.num_nodes}, {self.d_p})"
            )
        present = np.asarray(initial.present, dtype=np.int64)
        self._check_nodes(present, "initial PE")
        self._commits[:] = 0
        self.commit(present, initial.table[present])

    def commit(self, nodes: np.ndarray, vecs: np.ndarray) -> None:
        """Append detached encodings (n, d_p) to the histories of distinct ``nodes``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        vecs = np.asarray(vecs, dtype=np.float64)
        if nodes.ndim != 1 or vecs.shape != (nodes.size, self.d_p):
            raise ValueError(f"commit shape {vecs.shape} != ({nodes.size}, {self.d_p})")
        self._check_nodes(nodes, "commit")
        commits, cap = self._commits[nodes], self._cap[nodes]
        full = (commits >= cap) & (cap < self.history_len)
        if full.any():
            raise ValueError(
                f"node {int(nodes[full][0])} is full at its capacity of "
                f"{int(cap[full][0])} commits (1 + its count): "
                "another would drop its oldest"
            )
        self._ring[self._offset[nodes] + commits % cap] = vecs
        self._commits[nodes] += 1

    def history_matrix(self, nodes: np.ndarray) -> np.ndarray:
        """(n, d_p, m) histories: the newest m <= L columns, oldest to newest.

        m = min(L, most commits among ``nodes``), at least 1, so every
        column some node has written is kept; a column older than a
        node's fill reads the zero row, and the dropped ones would be
        zero for every node.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        commits, cap = self._commits[nodes, None], self._cap[nodes, None]
        width = max(1, min(self.history_len, int(commits.max(initial=0))))
        age = np.arange(width - 1, -1, -1)  # column j is the commit m - 1 - j back
        rows = self._offset[nodes, None] + (commits - 1 - age) % cap
        rows[age >= np.minimum(commits, cap)] = self._ring.shape[0] - 1
        return self._ring[rows].transpose(0, 2, 1)


def _kernel(params: dict[str, Tensor]) -> Tensor:
    """The (d_p, L) kernel of the model's filter and column pool."""
    return filter_kernel(params["filter_real"], params["filter_imag"], params["pe_sum_pool"])


def approximate_pe(
    histories: np.ndarray, params: dict[str, Tensor], kernel: Tensor | None = None
) -> Tensor:
    """Filtered, pooled encodings (n, d_p) of n stacked (d_p, m) histories.

    The histories hold the newest m <= L columns, as
    ``PositionalStore.history_matrix`` returns them; the columns before
    them are zero and add nothing. Every history row is contracted with
    the last m columns of ``kernel``, by default the
    ``fourier.filter_kernel`` of the model's ``params`` now, and the
    kernel's gradient is still (d_p, L), exactly zero in its first
    L - m columns. The histories are the store's constants, so no
    gradient flows to them; the filter and pool gradients flow through
    the kernel only. A frozen segment passes the kernel it built once
    (``FrozenPE.kernel``).
    """
    if isinstance(histories, Tensor):
        raise TypeError("histories must be a plain array: the store's histories take no gradient")
    h = np.asarray(histories, dtype=np.float64)
    d_p, length = params["filter_real"].shape
    if h.ndim != 3 or h.shape[1] != d_p or not 0 < h.shape[2] <= length:
        raise ValueError(f"history shape {h.shape} != (n, {d_p}, m <= {length})")
    if kernel is None:
        kernel = _kernel(params)
    width, shape = h.shape[2], kernel.data.shape

    def vjp(g):
        gk = np.zeros(shape)
        gk[:, -width:] = np.einsum("ndl,nd->dl", h, g)
        return (gk,)

    return _emit(np.einsum("ndl,dl->nd", h, kernel.data[:, -width:]), (kernel,), vjp)


class FrozenPE:
    """p~ of every node through one frozen segment on ``store``.

    ``kernel`` is built once, when the segment starts. ``table`` (N + 1,
    d_p) holds each node's p~ as last contracted, the null node's too,
    and ``contracted`` the store's commit count for that node at the
    time (-1: never). A row
    is stale once the store's count has moved on: only those rows need
    their histories gathered and contracted again. The table is exact
    only while the parameters that built the kernel stay fixed, so a
    state lives for one segment and is never read under a gradient tape.
    """

    def __init__(self, store: PositionalStore, params: dict[str, Tensor]):
        self.commits = store._commits
        self.kernel = _kernel(params)
        self.table = np.zeros((store.num_nodes + 1, store.d_p))
        self.contracted = np.full(store.num_nodes + 1, -1, dtype=np.int64)

    def stale(self, nodes: np.ndarray) -> np.ndarray:
        """The ``nodes`` whose rows must be contracted again."""
        if autodiff._ACTIVE_TAPE is not None:
            raise RuntimeError("a frozen p~ table cannot be read under a gradient tape")
        return nodes[self.contracted[nodes] != self.commits[nodes]]

    def refresh(self, nodes: np.ndarray, ptilde: np.ndarray) -> None:
        self.table[nodes] = ptilde
        self.contracted[nodes] = self.commits[nodes]


def node_rows(table_nodes: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Row of each of ``nodes`` in a table whose rows are the sorted ids
    ``table_nodes``; every node must be present."""
    nodes = np.asarray(nodes, dtype=np.int64)
    rows = np.searchsorted(table_nodes, nodes)
    found = rows < table_nodes.size
    found[found] = table_nodes[rows[found]] == nodes[found]
    if not found.all():
        raise ValueError(f"node {int(nodes[~found][0])} has no row in the table")
    return rows


def refine_pe(
    ptilde: Tensor,
    ptilde_nodes: np.ndarray,
    nodes: np.ndarray,
    window: RecentInteractions,
    tau_sum: np.ndarray,
    params: dict[str, Tensor],
) -> Tensor:
    """Learned encodings p = p~ + tanh(W_self p~ + W2 relu(W1 q)), one row
    per node of ``nodes``.

    ``ptilde`` holds p~ (m, d_p) of the sorted node ids ``ptilde_nodes``,
    which cover ``nodes`` and every slot's neighbor in ``window``, the
    null node too if a slot is padded. q = [tau_sum, nbr_sum] pools each
    node's ``window`` of K most recent interactions: ``tau_sum`` (n, d_t)
    sums the time encodings of its real slots, and ``nbr_sum`` the p~ of
    every slot's neighbor, which is zero for a pad. The representation
    runs it under the tape and the commits detached, so both use the
    same weights.
    """
    # under a tape, the order of the two gathers fixes the order in
    # which ptilde's row gradients add up, and so their last bits
    p_tilde = gather_rows(ptilde, node_rows(ptilde_nodes, nodes))
    nbr_sum = gather_sum_rows(ptilde, node_rows(ptilde_nodes, window.neighbors))
    q = concat(tau_sum, nbr_sum)
    gate = tanh(
        add(
            linear(p_tilde, params["pe_w_self"]),
            linear(relu(linear(q, params["pe_w1"])), params["pe_w2"]),
        )
    )
    return add(p_tilde, gate)


@dataclass(frozen=True)
class BoundReport:
    max_step_diff: float
    bound: float
    satisfied: bool


def ring_eigenvalues(length: int) -> np.ndarray:
    """lambda_k = 2 - cos(2 pi k / L), k = 1..L."""
    k = np.arange(1, length + 1, dtype=np.float64)
    return 2.0 - np.cos(2.0 * np.pi * k / length)


def theorem1_check(trace: np.ndarray, params: dict[str, Tensor]) -> BoundReport:
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
    length = params["filter_real"].shape[1]
    mag = np.hypot(params["filter_real"].data, params["filter_imag"].data).mean(axis=0)
    bound = float(np.sum(ring_eigenvalues(length) * mag) * (2.0 * length - 2.0))
    return BoundReport(max_step_diff, bound, max_step_diff <= bound)
