"""Training loop, evaluation replay, and run reports.

Each epoch resets the positional store to the initial snapshot encodings
and walks the training batches in time order: approximate encodings and
representations are memoized once per (node, batch), the batch loss is
backed through the tape into Adam, and committed encodings (detached)
enter the store before the next batch. Validation and test replays run
the same machinery without gradients; commits still happen, so the store
state a batch sees never depends on anything later than itself.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .autodiff import GradientTape, Tensor, backward
from .config import RunConfig, config_hash, validate_config
from .encoder import predict_link, temporal_representation
from .events import ChronoSplit, EventStream, batch_iter
from .losses import loss_lp, loss_pe, total_loss
from .lpe import PositionalStore, approximate_pe, commit_pe
from .metrics import average_precision, roc_auc
from .model import ModelDims, ModelParams, init_model_params
from .optim import AdamState, adam_step
from .peinit import InitialPE, laplacian_pe, random_walk_pe, zero_pe
from .sampling import NegativeSampler
from .timeenc import TimeEncoderConfig

__all__ = [
    "EvalReport",
    "TrainResult",
    "build_initial_pe",
    "train",
    "evaluate",
    "collect_pe_trace",
    "write_loss_csv",
]


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
        return {
            "dataset": self.dataset,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "metrics": self.metrics,
            "epoch_train_loss": self.epoch_train_loss,
            "epoch_val_ap": self.epoch_val_ap,
            "best_epoch": self.best_epoch,
            "epochs_run": self.epochs_run,
            "bound_check": self.bound_check,
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


def _time_cfg(cfg: RunConfig) -> TimeEncoderConfig:
    return TimeEncoderConfig(cfg.d_t, cfg.alpha, cfg.beta)


def build_initial_pe(stream: EventStream, split: ChronoSplit, cfg: RunConfig) -> InitialPE:
    """Initial encodings from the first training batch's collapsed snapshot."""
    end = min(cfg.batch_size, split.train_end)
    if end <= 0:
        raise ValueError("empty training segment")
    src, dst = stream.src[:end], stream.dst[:end]
    if cfg.pe_init == "laplacian":
        return laplacian_pe(src, dst, stream.num_nodes, cfg.d_p, cfg.eigen_size_cap)
    if cfg.pe_init == "random_walk":
        return random_walk_pe(src, dst, stream.num_nodes, cfg.d_p)
    if cfg.pe_init == "zero":
        return zero_pe(stream.num_nodes, cfg.d_p)
    raise ValueError(f"unknown pe_init {cfg.pe_init!r}")


class _BatchContext:
    """Per-batch memo of approximate encodings and node representations."""

    def __init__(
        self,
        stream: EventStream,
        store: PositionalStore,
        params: ModelParams,
        cfg: RunConfig,
        tcfg: TimeEncoderConfig,
    ):
        self.stream = stream
        self.store = store
        self.params = params
        self.cfg = cfg
        self.tcfg = tcfg
        self._ptilde: dict[int, Tensor] = {}
        self._rep: dict[tuple[int, float], Tensor] = {}

    def ptilde(self, node: int) -> Tensor:
        got = self._ptilde.get(node)
        if got is None:
            got = approximate_pe(self.store.history_matrix(node), self.params.lpe)
            self._ptilde[node] = got
        return got

    def ptilde_value(self, node: int) -> np.ndarray:
        return self.ptilde(node).data

    def rep(self, node: int, t: float) -> Tensor:
        """Representation memoized per (node, query time) within the batch."""
        got = self._rep.get((node, t))
        if got is None:
            got = temporal_representation(
                self.stream,
                node,
                t,
                self.params.encoder,
                self.tcfg,
                self.cfg.t_gap,
                self.ptilde,
            )
            self._rep[(node, t)] = got
        return got


def _commit_batch(ctx: _BatchContext, batch: np.ndarray) -> None:
    """Commit updated encodings for every endpoint of the batch's events."""
    stream, store = ctx.stream, ctx.store
    touched = np.union1d(stream.src[batch], stream.dst[batch]).tolist()
    t_commit = float(stream.ts[batch].max())
    k = ctx.cfg.recent_k
    updates: dict[int, np.ndarray] = {}
    for node in touched:
        recent = stream.recent_interactions_inclusive(node, t_commit, k)
        entries: list[tuple[float, np.ndarray | None]] = []
        for nbr, t_past, pad in zip(
            recent.neighbors.tolist(), recent.times.tolist(), recent.pad_mask.tolist()
        ):
            if pad:
                entries.append((0.0, None))
            else:
                entries.append((t_commit - t_past, ctx.ptilde_value(int(nbr))))
        updates[node] = commit_pe(
            ctx.ptilde_value(node), entries, ctx.params.lpe, ctx.tcfg
        )
    for node, vec in updates.items():
        store.commit(node, vec)
    store.advance()


def _link_probs(ctx: _BatchContext, events: np.ndarray, neg) -> tuple[list, list]:
    """Positive and negative link probabilities, one pair per event.

    Representations are memoized per batch, so this call order fixes the
    tape order and, through it, every report hash.
    """
    stream, enc = ctx.stream, ctx.params.encoder
    pos_probs, neg_probs = [], []
    for i, ev in enumerate(events.tolist()):
        u, v, t = int(stream.src[ev]), int(stream.dst[ev]), float(stream.ts[ev])
        nu, nv = int(neg.src[i]), int(neg.dst[i])
        pos_probs.append(predict_link(ctx.rep(u, t), ctx.rep(v, t), enc))
        neg_probs.append(predict_link(ctx.rep(nu, t), ctx.rep(nv, t), enc))
    return pos_probs, neg_probs


def _batch_terms(ctx: _BatchContext, batch: np.ndarray, neg) -> tuple[list, list, list, list]:
    pos_probs, neg_probs = _link_probs(ctx, batch, neg)
    # rep() already memoized every endpoint's encoding, so these record nothing
    pt = ctx.ptilde
    pos = zip(ctx.stream.src[batch].tolist(), ctx.stream.dst[batch].tolist())
    pos_pairs = [(pt(u), pt(v)) for u, v in pos]
    neg_pairs = [(pt(u), pt(v)) for u, v in zip(neg.src.tolist(), neg.dst.tolist())]
    return pos_probs, neg_probs, pos_pairs, neg_pairs


def _replay_segment(
    stream: EventStream,
    store: PositionalStore,
    params: ModelParams,
    cfg: RunConfig,
    tcfg: TimeEncoderConfig,
    start: int,
    end: int,
) -> None:
    """Advance the store over [start, end) with commits and no scoring."""
    for _, batch in batch_iter(start, end, cfg.batch_size):
        ctx = _BatchContext(stream, store, params, cfg, tcfg)
        _commit_batch(ctx, batch)


def _score_segment(
    stream: EventStream,
    split: ChronoSplit,
    store: PositionalStore,
    params: ModelParams,
    cfg: RunConfig,
    tcfg: TimeEncoderConfig,
    start: int,
    end: int,
    setting: str,
    strategy: str,
    seed,
) -> tuple[float, float, int]:
    """Score positives (plus one negative each) over [start, end)."""
    if setting not in ("transductive", "inductive"):
        raise ValueError(f"unknown setting {setting!r}")
    sampler = NegativeSampler(stream, split, strategy, seed)
    scores: list[float] = []
    labels: list[int] = []
    fallbacks = 0
    new_nodes = np.fromiter(split.new_nodes, dtype=np.int64)
    for _, batch in batch_iter(start, end, cfg.batch_size):
        ctx = _BatchContext(stream, store, params, cfg, tcfg)
        scored = batch
        if setting == "inductive":
            ends = np.stack([stream.src[batch], stream.dst[batch]])
            scored = batch[np.isin(ends, new_nodes).any(axis=0)]
        if scored.size:
            neg = sampler.sample(scored)
            fallbacks += neg.fallbacks
            for p, q in zip(*_link_probs(ctx, scored, neg)):
                scores += [float(p.data[0]), float(q.data[0])]
                labels += [1, 0]
        _commit_batch(ctx, batch)
    if not scores:
        raise ValueError(f"no qualifying positives in segment for setting {setting!r}")
    arr_s = np.asarray(scores)
    arr_l = np.asarray(labels)
    return average_precision(arr_s, arr_l), roc_auc(arr_s, arr_l), fallbacks


def train(stream: EventStream, split: ChronoSplit, cfg: RunConfig) -> TrainResult:
    """Full training run with per-epoch validation and early stopping."""
    validate_config(cfg)
    t0 = time.monotonic()
    dims = ModelDims.from_config(cfg)
    tcfg = _time_cfg(cfg)
    params = init_model_params(dims, seed=cfg.seed, share_pe_mlp=cfg.share_pe_mlp)
    initial = build_initial_pe(stream, split, cfg)
    store = PositionalStore(stream.num_nodes, cfg.d_p, cfg.history_len)
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
        for k, batch in batch_iter(0, split.train_end, cfg.batch_size):
            neg = sampler.sample(batch)
            with GradientTape() as tape:
                ctx = _BatchContext(stream, store, params, cfg, tcfg)
                pos_p, neg_p, pos_q, neg_q = _batch_terms(ctx, batch, neg)
                loss = total_loss(
                    loss_lp(pos_p, neg_p),
                    loss_pe(pos_q, neg_q, cfg.alpha_neg),
                    cfg.alpha_pe,
                )
            lval = float(loss.data.ravel()[0])
            if not np.isfinite(lval):
                raise RuntimeError(
                    f"non-finite training loss at epoch {epoch}, batch {k}"
                )
            grads = backward(tape, loss, params.tensors)
            adam_step(adam, params.tensors, grads)
            _commit_batch(ctx, batch)
            batch_losses.append(lval)
            report.loss_rows.append((epoch, k, lval))

        report.epoch_train_loss.append(float(np.mean(batch_losses)))
        val_ap, val_auc, _ = _score_segment(
            stream,
            split,
            store,
            params,
            cfg,
            tcfg,
            split.train_end,
            split.val_end,
            "transductive",
            "random",
            np.random.SeedSequence(cfg.seed, spawn_key=(2, epoch)),
        )
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


def evaluate(
    stream: EventStream,
    split: ChronoSplit,
    params: ModelParams,
    cfg: RunConfig,
    setting: str = "transductive",
    strategy: str = "random",
    seed=0,
    segment: str = "test",
    initial_pe: InitialPE | None = None,
) -> tuple[float, float, int]:
    """(AP, ROC-AUC, sampler fallbacks) over the val or test segment after
    a commit-only warm replay."""
    validate_config(cfg)
    tcfg = _time_cfg(cfg)
    if initial_pe is None:
        initial_pe = build_initial_pe(stream, split, cfg)
    store = PositionalStore(stream.num_nodes, cfg.d_p, cfg.history_len)
    store.reset(initial_pe)
    if segment == "val":
        warm_end, score_lo, score_hi = split.train_end, split.train_end, split.val_end
    elif segment == "test":
        warm_end, score_lo, score_hi = split.val_end, split.val_end, stream.num_events
    else:
        raise ValueError(f"unknown segment {segment!r}")
    _replay_segment(stream, store, params, cfg, tcfg, 0, warm_end)
    return _score_segment(
        stream, split, store, params, cfg, tcfg,
        score_lo, score_hi, setting, strategy, seed,
    )


def collect_pe_trace(
    stream: EventStream,
    params: ModelParams,
    cfg: RunConfig,
    node: int,
    initial_pe: InitialPE | None = None,
) -> np.ndarray:
    """Approximate encodings of ``node`` at every batch step, pre-commit."""
    tcfg = _time_cfg(cfg)
    if initial_pe is None:
        split = ChronoSplit(stream.num_events, stream.num_events, stream.num_events)
        initial_pe = build_initial_pe(stream, split, cfg)
    store = PositionalStore(stream.num_nodes, cfg.d_p, cfg.history_len)
    store.reset(initial_pe)
    trace: list[np.ndarray] = []
    for _, batch in batch_iter(0, stream.num_events, cfg.batch_size):
        ctx = _BatchContext(stream, store, params, cfg, tcfg)
        trace.append(ctx.ptilde_value(node).copy())
        _commit_batch(ctx, batch)
    return np.asarray(trace)
