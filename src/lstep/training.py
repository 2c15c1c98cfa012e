"""Training loop, evaluation replay, and run reports.

Each epoch resets the positional store to the initial snapshot encodings
and walks the training batches in time order. One batch forward serves
training, evaluation, the PE trace and the checks: it computes p~ once
for every node the batch needs (endpoints, window partners and commit
partners, and the null node that a padded slot names), the
representations once per distinct (node, t) query, and the link
probabilities as whole-batch matrix products. The batch loss is backed
through the tape into Adam, and committed encodings (detached) enter
the store before the next batch. Validation and test
replays run the same forward without gradients; commits still happen,
so the store state a batch sees never depends on anything later than
itself.

A run of batches without a tape is a frozen segment: evaluation's
warm replay and its scoring (one segment, sharing one state, whatever
the number of (setting, strategy) cells scored), the validation pass
of each epoch, the PE trace, and the runs of the metrics and scaling
checks. One segment runner, ``_run_segment``, walks every one of
them: per batch each scored cell draws its positives' negatives, one
batch forward scores every cell (each with a representation of its
own), and the batch records any watched p~ rows and commits once from
that forward. Each segment makes an ``lpe.FrozenPE`` when it
starts. Its batches contract only the needed nodes whose commit
count in the store has moved on since their p~ was last computed,
against a kernel built once, and read the rest from the state's table;
the results are the per-batch forward's, bit for bit. Taped training
batches contract every needed node.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from .autodiff import GradientTape, Tensor, backward, gather_rows
from .config import RunConfig, config_hash, validate_config
from .encoder import predict_link, temporal_representation, window_tau
from .events import ChronoSplit, EventStream, RecentInteractions, batch_iter
from .losses import loss_lp, loss_pe, total_loss
from .lpe import FrozenPE, PositionalStore, approximate_pe, commit_pe, node_rows
from .metrics import average_precision, roc_auc
from .model import ModelDims, ModelParams, init_model_params
from .optim import AdamState, adam_step
from .peinit import InitialPE, laplacian_pe, random_walk_pe, zero_pe
from .sampling import NegativeSampler, Sample

__all__ = [
    "SETTINGS",
    "EvalReport",
    "TrainResult",
    "build_initial_pe",
    "train",
    "evaluate_cells",
    "evaluate",
    "collect_pe_trace",
    "write_loss_csv",
]

SETTINGS = ("transductive", "inductive")


@dataclass
class EvalReport:
    """JSON-shaped summary of a run."""

    dataset: str
    seed: int
    config_hash: str
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)
    epoch_train_loss: list[float] = field(default_factory=list)
    epoch_val_ap: list[float] = field(default_factory=list)
    loss_rows: list[tuple[int, int, float]] = field(default_factory=list)
    best_epoch: int = -1
    epochs_run: int = 0
    bound_check: dict | None = None
    train_seconds: float = 0.0

    def _payload(self) -> dict:
        """Every field but the loss rows and the wall time: what the hash covers."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("loss_rows", "train_seconds")
        }

    def to_json(self) -> str:
        payload = self._payload()
        payload["train_seconds"] = self.train_seconds
        payload["report_hash"] = self.content_hash()
        return json.dumps(payload, indent=2, sort_keys=True)

    def content_hash(self) -> str:
        """Hash of the deterministic fields only (wall time excluded)."""
        blob = json.dumps(self._payload(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class TrainResult:
    params: ModelParams
    initial_pe: InitialPE
    report: EvalReport


def write_loss_csv(path, loss_rows: Iterable[tuple[int, int, float]]) -> None:
    lines = ["epoch,batch,loss"]
    lines += [f"{e},{b},{v!r}" for e, b, v in loss_rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def build_initial_pe(stream: EventStream, split: ChronoSplit, cfg: RunConfig) -> InitialPE:
    """Initial encodings from the first training batch's collapsed snapshot."""
    end = min(cfg.batch_size, split.train_end)
    if end <= 0:
        raise ValueError("empty training segment")
    src, dst = stream.src[:end], stream.dst[:end]
    if cfg.pe_init == "laplacian":
        return laplacian_pe(src, dst, stream.num_nodes, cfg.d_p)
    if cfg.pe_init == "random_walk":
        return random_walk_pe(src, dst, stream.num_nodes, cfg.d_p)
    if cfg.pe_init == "zero":
        return zero_pe(stream.num_nodes, cfg.d_p)
    raise ValueError(f"unknown pe_init {cfg.pe_init!r}")


@dataclass
class _Forward:
    """One batch's forward pass.

    ``ptilde`` holds p~ (rows of ``nodes``, sorted) for every node the
    batch needs; ``scores`` holds one (pos, neg) pair per scored pair
    the forward was given: the (n, 1) link probabilities of the scored
    events and of their negatives. ``touched`` are the batch's endpoints
    and ``window`` their K most recent interactions up to and including
    the batch's last event, whose timestamp is the commit time
    ``t_commit``.
    """

    nodes: np.ndarray
    ptilde: Tensor
    touched: np.ndarray
    t_commit: float
    window: RecentInteractions
    scores: list[tuple[Tensor, Tensor]] = field(default_factory=list)

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        return node_rows(self.nodes, nodes)

    def pe_pair(self, u: np.ndarray, v: np.ndarray) -> tuple[Tensor, Tensor]:
        return gather_rows(self.ptilde, self.rows(u)), gather_rows(self.ptilde, self.rows(v))


def _batch_forward(
    stream: EventStream,
    store: PositionalStore,
    params: ModelParams,
    cfg: RunConfig,
    batch: np.ndarray,
    scoring: Iterable[tuple[np.ndarray, Sample]] = (),
    extra: np.ndarray | None = None,
    frozen: FrozenPE | None = None,
) -> _Forward:
    """p~ for the batch, and link probabilities for each ``(scored,
    neg)`` pair of ``scoring``: ``scored`` a non-empty subset of
    ``batch`` scored against its negatives ``neg``. ``extra`` nodes also
    get a p~ row.

    The commit window, the needed nodes and p~ are built once for every
    pair. Each pair has a representation of its own, over its own
    distinct (node, t) queries, so its scores are bit for bit those of a
    forward given that pair alone.

    In a frozen segment, ``frozen`` is its state: only the stale rows
    are gathered and contracted, and the others come from its table.
    The contraction runs once per batch even when no row is stale.
    """
    k = cfg.recent_k
    touched = np.union1d(stream.src[batch], stream.dst[batch])
    end = int(batch.max()) + 1  # batches are contiguous: the commit reads [0, end)
    t_commit = float(stream.ts[end - 1])
    window = stream.recent_interactions_inclusive(touched, end, k)
    need = [touched, window.neighbors.ravel()]
    if extra is not None:
        need.append(np.asarray(extra, dtype=np.int64))
    queries = []
    for scored, neg in scoring:
        ends = np.concatenate([stream.src[scored], stream.dst[scored], neg.src, neg.dst])
        times = np.tile(stream.ts[scored], 4)
        # one representation per distinct (node, t) query
        uniq, which = np.unique(
            np.stack([ends.astype(np.float64), times], axis=1), axis=0, return_inverse=True
        )
        q_nodes, q_ts = uniq[:, 0].astype(np.int64), uniq[:, 1]
        recent = stream.recent_interactions(q_nodes, q_ts, k)
        need += [q_nodes, recent.neighbors.ravel()]
        queries.append((q_nodes, q_ts, recent, which.reshape(-1)))
    nodes = np.unique(np.concatenate(need))
    tensors = params.tensors
    if frozen is None:
        ptilde = approximate_pe(store.history_matrix(nodes), tensors)
    else:
        stale = frozen.stale(nodes)
        frozen.refresh(
            stale, approximate_pe(store.history_matrix(stale), tensors, frozen.kernel).data
        )
        ptilde = Tensor(frozen.table[nodes])
    fwd = _Forward(nodes, ptilde, touched, t_commit, window)
    # a representation per pair, not per union: a product row's bits vary with its row count
    for q_nodes, q_ts, recent, which in queries:
        reps = temporal_representation(
            stream, q_nodes, q_ts, tensors, cfg, ptilde, nodes, recent
        )
        u, v, nu, nv = np.split(which, 4)
        fwd.scores.append((
            predict_link(gather_rows(reps, u), gather_rows(reps, v), tensors),
            predict_link(gather_rows(reps, nu), gather_rows(reps, nv), tensors),
        ))
    return fwd


def _batch_loss(fwd: _Forward, stream: EventStream, batch: np.ndarray, neg: Sample) -> Tensor:
    return total_loss(
        loss_lp(*fwd.scores[0]),
        loss_pe(fwd.pe_pair(stream.src[batch], stream.dst[batch]), fwd.pe_pair(neg.src, neg.dst)),
    )


def _commit_batch(
    stream: EventStream, store: PositionalStore, params: ModelParams, cfg: RunConfig,
    fwd: _Forward,
) -> None:
    """Commit updated encodings for every endpoint of the batch's events.

    Encodings come from the forward pass, and the commit windows' time
    encodings are summed at ``t_commit``; the MLP weights are whatever
    ``params`` holds now (see ``commit_pe``).
    """
    tau = window_tau(stream, fwd.window, np.full(fwd.touched.size, fwd.t_commit), cfg.d_t)
    vecs = commit_pe(fwd.ptilde, fwd.nodes, fwd.touched, fwd.window, tau, params.tensors)
    store.commit(fwd.touched, vecs)


@dataclass
class _Cell:
    """One scored (setting, strategy) cell of a frozen segment: the
    sampler its negatives come from, the new nodes one of its positives'
    endpoints must be among (None: every positive qualifies), and what
    it scored: the link probabilities of each batch's positives and
    negatives, interleaved positive, negative, and the sampler's
    fallbacks."""

    setting: str
    sampler: NegativeSampler
    new_nodes: np.ndarray | None = None
    scores: list[np.ndarray] = field(default_factory=list)
    fallbacks: int = 0

    def scored(self, stream: EventStream, events: np.ndarray) -> np.ndarray:
        """The positives among ``events`` that this cell scores."""
        if self.new_nodes is None:
            return events
        ends = np.stack([stream.src[events], stream.dst[events]])
        return events[np.isin(ends, self.new_nodes).any(axis=0)]

    def metrics(self) -> tuple[float, float, int]:
        """(AP, ROC-AUC, sampler fallbacks) of the scored pairs."""
        _require_positives(len(self.scores), self.setting)
        arr_s = np.concatenate(self.scores)
        arr_l = np.tile([1, 0], arr_s.size // 2)
        return average_precision(arr_s, arr_l), roc_auc(arr_s, arr_l), self.fallbacks


def _require_positives(count: int, setting: str) -> None:
    if not count:
        raise ValueError(f"no qualifying positives in segment for setting {setting!r}")


def _run_segment(
    stream: EventStream,
    store: PositionalStore,
    params: ModelParams,
    cfg: RunConfig,
    start: int,
    end: int,
    frozen: FrozenPE | None = None,
    cells: Iterable[_Cell] = (),
    watch: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Run the batches of [start, end) forward and commit each once, as
    (part of) the frozen segment ``frozen``, or as one of its own.

    In each batch, every one of ``cells`` with a qualifying positive
    draws one negative per positive from its own sampler; one forward
    scores every such cell's pair, and each cell records its scores and
    fallbacks in its entry. The forward reads the store as the previous
    batch left it, so each cell scores as it would alone, and the batch
    commits once from it. Returns the p~ rows of the ``watch`` nodes
    before each commit.
    """
    if frozen is None:
        frozen = FrozenPE(store, params.tensors)
    watched = []
    for _, batch in batch_iter(start, end, cfg.batch_size):
        scoring, scorers = [], []
        for cell in cells:
            scored = cell.scored(stream, batch)
            if scored.size:
                neg = cell.sampler.sample(scored)
                cell.fallbacks += neg.fallbacks
                scoring.append((scored, neg))
                scorers.append(cell)
        fwd = _batch_forward(stream, store, params, cfg, batch, scoring, watch, frozen)
        for cell, (pos, neg_probs) in zip(scorers, fwd.scores):
            cell.scores.append(np.hstack([pos.data, neg_probs.data]).ravel())
        if watch is not None:
            watched.append(fwd.ptilde.data[fwd.rows(watch)])
        _commit_batch(stream, store, params, cfg, fwd)
    return watched


def _require_widths(stream: EventStream, cfg: RunConfig) -> None:
    """Refuse a stream whose feature tables are not as wide as ``cfg`` says."""
    for key, what in (("d_n", "node"), ("d_e", "edge")):
        have, want = getattr(stream, key), getattr(cfg, key)
        if have != want:
            raise ValueError(
                f"stream has {have}-dim {what} features but config expects {key} = {want}"
            )


def train(stream: EventStream, split: ChronoSplit, cfg: RunConfig) -> TrainResult:
    """Full training run with per-epoch validation and early stopping."""
    validate_config(cfg)
    _require_widths(stream, cfg)
    t0 = time.monotonic()
    dims = ModelDims.from_config(cfg)
    params = init_model_params(dims, seed=cfg.seed)
    initial = build_initial_pe(stream, split, cfg)
    store = PositionalStore(stream.interaction_counts(), cfg.d_p, cfg.history_len)
    adam = AdamState(lr=cfg.lr)

    report = EvalReport(stream.dataset, cfg.seed, config_hash(cfg))
    best_ap = -np.inf
    best_state: dict[str, np.ndarray] | None = None
    bad_epochs = 0

    for epoch in range(cfg.max_epochs):
        store.reset(initial)
        sampler = NegativeSampler(
            stream, split, "random", np.random.SeedSequence(cfg.seed, spawn_key=(1, epoch))
        )
        batch_losses: list[float] = []
        for k, batch in batch_iter(*split.train_range, cfg.batch_size):
            neg = sampler.sample(batch)
            with GradientTape() as tape:
                fwd = _batch_forward(stream, store, params, cfg, batch, [(batch, neg)])
                loss = _batch_loss(fwd, stream, batch, neg)
            lval = float(loss.data.ravel()[0])
            if not np.isfinite(lval):
                raise RuntimeError(
                    f"non-finite training loss at epoch {epoch}, batch {k}"
                )
            grads = backward(tape, loss, params.tensors)
            adam_step(adam, params.tensors, grads)
            _commit_batch(stream, store, params, cfg, fwd)
            batch_losses.append(lval)
            report.loss_rows.append((epoch, k, lval))

        report.epoch_train_loss.append(float(np.mean(batch_losses)))
        val_seed = np.random.SeedSequence(cfg.seed, spawn_key=(2, epoch))
        val = _Cell("transductive", NegativeSampler(stream, split, "random", val_seed))
        _run_segment(stream, store, params, cfg, *split.val_range, cells=[val])
        val_ap, val_auc, _ = val.metrics()
        report.epoch_val_ap.append(val_ap)
        report.epochs_run = epoch + 1
        if val_ap > best_ap:
            best_ap = val_ap
            best_state = params.state_arrays()
            report.best_epoch = epoch
            report.metrics["val/transductive/random"] = {
                "ap": val_ap,
                "roc_auc": val_auc,
            }
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break

    if best_state is not None:
        params.load_state_arrays(best_state)
    report.train_seconds = time.monotonic() - t0
    return TrainResult(params, initial, report)


def evaluate_cells(
    stream: EventStream,
    split: ChronoSplit,
    params: ModelParams,
    cfg: RunConfig,
    cells: Iterable[tuple[str, str]],
    seed=0,
    *,
    initial_pe: InitialPE,
) -> list[tuple[float, float, int]]:
    """(AP, ROC-AUC, sampler fallbacks) of each (setting, strategy) cell
    over the test segment, after one commit-only warm replay from
    ``initial_pe``.

    Every cell is checked before any work: its setting, its strategy,
    and that some test positive qualifies for its setting (the
    transductive setting scores every positive, the inductive one those
    with an endpoint unseen in training). The replay and the scoring are
    one frozen segment that runs one forward and one commit per batch
    for all the cells; each cell draws its negatives from a sampler of
    its own, seeded with ``seed``, and has a representation of its own
    in that forward, so it scores exactly as a one-cell call does. An
    empty cell list raises, as it would score nothing.
    """
    cells = list(cells)
    if not cells:
        raise ValueError(
            "evaluate_cells needs at least one (setting, strategy) cell, got cells=[]"
        )
    validate_config(cfg)
    _require_widths(stream, cfg)
    runs = []
    for setting, strategy in cells:
        if setting not in SETTINGS:
            raise ValueError(f"unknown setting {setting!r}")
        new_nodes = np.fromiter(split.new_nodes, np.int64) if setting == "inductive" else None
        runs.append(_Cell(setting, NegativeSampler(stream, split, strategy, seed), new_nodes))
        _require_positives(runs[-1].scored(stream, np.arange(*split.test_range)).size, setting)
    store = PositionalStore(stream.interaction_counts(), cfg.d_p, cfg.history_len)
    store.reset(initial_pe)
    frozen = FrozenPE(store, params.tensors)
    # the warm replay ends where scoring starts
    _run_segment(stream, store, params, cfg, 0, split.val_end, frozen)
    _run_segment(stream, store, params, cfg, *split.test_range, frozen, runs)
    return [run.metrics() for run in runs]


def evaluate(
    stream: EventStream,
    split: ChronoSplit,
    params: ModelParams,
    cfg: RunConfig,
    setting: str = "transductive",
    strategy: str = "random",
    seed=0,
    *,
    initial_pe: InitialPE,
) -> tuple[float, float, int]:
    """(AP, ROC-AUC, sampler fallbacks) of the one cell (``setting``,
    ``strategy``): ``evaluate_cells`` of that cell alone."""
    return evaluate_cells(
        stream, split, params, cfg, [(setting, strategy)], seed, initial_pe=initial_pe
    )[0]


def collect_pe_trace(
    stream: EventStream,
    params: ModelParams,
    cfg: RunConfig,
    nodes: np.ndarray,
    initial_pe: InitialPE,
) -> np.ndarray:
    """Approximate encodings (steps, len(nodes), d_p) of ``nodes`` at
    every batch step, pre-commit, over one frozen segment that starts
    from ``initial_pe``."""
    store = PositionalStore(stream.interaction_counts(), cfg.d_p, cfg.history_len)
    store.reset(initial_pe)
    return np.stack(_run_segment(
        stream, store, params, cfg, 0, stream.num_events, watch=np.asarray(nodes, np.int64)
    ))
