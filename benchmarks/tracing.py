"""Spans and counts at the program's layer boundaries, from outside it.

``Tracer.install`` swaps the layer functions that ``lstep.training``
looks up, and a few methods on the stream, store and sampler classes,
for wrappers that record one span per call: (name, start, end, parent).
Spans stay in memory; ``layer_metrics`` turns them into self time per
layer (a span's duration less the spans directly under it) and
``write`` saves them when the run ends. Nothing under ``src/`` changes.
"""
from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import time
from pathlib import Path

from lstep import events, lpe, sampling, training

# span name -> layer; a layer's self time is the sum over its span names
LAYERS = {
    "load_events": "events.load",
    "recent_interactions": "events.query",
    "recent_interactions_inclusive": "events.query",
    "window_neighbors": "events.query",
    "build_initial_pe": "peinit.initial_pe",
    "load_container": "checkpoint.load",
    "approximate_pe": "lpe.filter",
    "history_matrix": "lpe.ring_gather",
    "commit_pe": "lpe.commit",
    "store_commit": "lpe.commit",
    "temporal_representation": "encoder.represent",
    "predict_link": "encoder.predict",
    "loss_lp": "losses.loss",
    "loss_pe": "losses.loss",
    "total_loss": "losses.loss",
    "backward": "autodiff.backward",
    "adam_step": "optim.adam",
    "sample": "sampling.sample",
    "average_precision": "metrics.score",
    "roc_auc": "metrics.score",
    "train": "training.glue",
    "evaluate": "training.glue",
}

# (owner, attribute, span name); training's module globals are what
# train/evaluate call, so patching them there catches every call
_TARGETS = [
    (training, name, name)
    for name in (
        "approximate_pe", "commit_pe", "temporal_representation", "predict_link",
        "loss_lp", "loss_pe", "total_loss", "backward", "adam_step",
        "average_precision", "roc_auc", "build_initial_pe", "train", "evaluate",
    )
] + [
    (lpe.PositionalStore, "history_matrix", "history_matrix"),
    (lpe.PositionalStore, "commit", "store_commit"),
    (events.EventStream, "recent_interactions", "recent_interactions"),
    (events.EventStream, "recent_interactions_inclusive", "recent_interactions_inclusive"),
    (events.EventStream, "window_neighbors", "window_neighbors"),
    (sampling.NegativeSampler, "sample", "sample"),
]


class Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` by ``make(original)``."""
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def undo(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)


class Tracer:
    """In-memory spans; parents always precede their children."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.payload: dict[int, int] = {}  # span index -> work count it carried
        self._stack = [-1]

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrapper(self, name: str, orig):
        begin, end, payload = self.begin, self.end, self.payload

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                end(idx)
            if name == "backward":
                payload[idx] = len(args[0])  # tape nodes recorded for this batch
            elif name == "sample":
                payload[idx] = (len(out.src), out.fallbacks)
            elif name == "average_precision":
                payload[idx] = len(args[0])  # scored pairs
            elif name == "build_initial_pe":
                payload[idx] = len(out.present)  # snapshot nodes
            return out

        return traced

    def install(self, patches: Patches) -> None:
        for owner, attr, name in _TARGETS:
            patches.wrap(owner, attr, lambda orig, name=name: self._wrapper(name, orig))

    def write(self, path: Path, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        blob = {
            "meta": meta,
            "names": names,
            "columns": ["name", "start", "end", "parent"],
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "payload": {str(k): v for k, v in self.payload.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(blob, fh)

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics, and the self time of every layer per round.

        In the metrics, set-up layers are per call and round layers per
        round. The second dict covers every span inside the rounds, the
        benchmark's own ``round`` span included, so it sums to the round
        wall time.
        """
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        root = [0] * n
        phase = [""] * n  # nearest enclosing train/evaluate span
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
                phase[i] = phase[parent]
            else:
                root[i] = i
            if name in ("train", "evaluate"):
                phase[i] = name
        rounds = [i for i in range(n) if spans[i][3] < 0 and spans[i][0] == "round"]
        in_round = set(rounds)
        per_round = max(len(rounds), 1)

        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        durations: dict[str, list[float]] = {}
        tape_nodes, adam_ends, snap_nodes = [], {}, []
        negatives = fallbacks = scored = eval_scored = eval_commits = 0
        for i, (name, start, end, parent) in enumerate(spans):
            durations.setdefault(name, []).append(end - start)
            if name == "build_initial_pe":
                snap_nodes.append(self.payload[i])
            if root[i] not in in_round:
                continue
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "backward":
                tape_nodes.append(self.payload[i])
            elif name == "adam_step":
                adam_ends.setdefault(parent, []).append(end)
            elif name == "sample":
                negatives += self.payload[i][0]
                fallbacks += self.payload[i][1]
            elif name == "average_precision":
                scored += self.payload[i]
                if phase[i] == "evaluate":
                    eval_scored += self.payload[i]
            elif name == "commit_pe" and phase[i] == "evaluate":
                eval_commits += 1

        layer_s: dict[str, float] = {}
        for name, secs in self_s.items():
            layer = LAYERS.get(name)
            if layer is not None:
                layer_s[layer] = layer_s.get(layer, 0.0) + secs
        gaps = [
            b - a
            for ends in adam_ends.values()
            for a, b in zip(ends, ends[1:])
        ]

        round_self = {
            layer: secs / per_round for layer, secs in layer_s.items()
        }
        round_self["bench.round"] = self_s.get("round", 0.0) / per_round

        def median(values):
            return statistics.median(values) if values else 0.0

        def per_call(name):
            return median(durations.get(name, []))

        def r(value):
            return value / per_round

        return {
            "events.load_s": per_call("load_events"),
            "events.query_s": r(layer_s.get("events.query", 0.0)),
            "events.query_calls": r(sum(calls.get(k, 0) for k, v in LAYERS.items() if v == "events.query")),
            "peinit.initial_pe_s": per_call("build_initial_pe"),
            "peinit.snapshot_nodes": median(snap_nodes),
            "checkpoint.load_s": per_call("load_container"),
            "lpe.filter_s": r(layer_s.get("lpe.filter", 0.0)),
            "lpe.filter_calls": r(calls.get("approximate_pe", 0)),
            "lpe.ring_gather_s": r(layer_s.get("lpe.ring_gather", 0.0)),
            "lpe.commit_s": r(layer_s.get("lpe.commit", 0.0)),
            "lpe.commit_calls": r(calls.get("commit_pe", 0)),
            "lpe.commits_per_scored_event": eval_commits / (eval_scored / 2) if eval_scored else 0.0,
            "encoder.represent_s": r(layer_s.get("encoder.represent", 0.0)),
            "encoder.represent_calls": r(calls.get("temporal_representation", 0)),
            "encoder.predict_s": r(layer_s.get("encoder.predict", 0.0)),
            "losses.loss_s": r(layer_s.get("losses.loss", 0.0)),
            "autodiff.backward_s": r(layer_s.get("autodiff.backward", 0.0)),
            "autodiff.tape_nodes_per_batch": median(tape_nodes),
            "optim.adam_s": r(layer_s.get("optim.adam", 0.0)),
            "sampling.sample_s": r(layer_s.get("sampling.sample", 0.0)),
            "sampling.negatives": r(negatives),
            "sampling.fallbacks": r(fallbacks),
            "metrics.score_s": r(layer_s.get("metrics.score", 0.0)),
            "metrics.scored_pairs": r(scored),
            "training.glue_s": r(layer_s.get("training.glue", 0.0)),
            "training.train_batch_s": median(gaps),
            "trace.round_wall_s": r(sum(spans[i][2] - spans[i][1] for i in rounds)),
        }, round_self
