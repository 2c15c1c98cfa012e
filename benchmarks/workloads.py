"""The benchmark workloads: inputs, set-up and one timed round each.

A workload run has three parts:

* ``prepare`` writes the seeded inputs to a work directory (untimed);
  eval-reddit also trains and saves the checkpoint it evaluates.
* ``setup`` goes from the CSV on disk to the first batch: load, split,
  initial encodings, and the checkpoint load where there is one.
* ``run_round`` does the workload's steady work once: one ``train``
  call, then one ``evaluate`` call per cell. Every round of a run does
  exactly the same operations on the same inputs.

The program is driven only through its public API; ``Probe`` watches
the calls the correctness checks need (scores at the metric boundary,
sampled negatives) and times the initial-PE call inside ``train``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lstep import checkpoint, training
from lstep.config import RunConfig, apply_preset, shape_hash
from lstep.events import ChronoSplit, EventStream, chronological_split, load_events
from lstep.model import ModelDims, init_model_params
from lstep.sampling import NegativeSampler
from lstep.training import EvalReport

import inputs as gen
from tracing import Patches

SETTINGS = ("transductive", "inductive")
STRATEGIES = ("random", "historical", "inductive")


@dataclass(frozen=True)
class Spec:
    """Sizes and cells of one workload; tests shrink them."""

    name: str
    preset: str
    num_users: int
    num_items: int
    num_events: int
    epochs: int
    cells: tuple[tuple[str, str], ...]
    scrambled: bool = False  # sparse ids and rows out of order
    prefix_events: int = 0  # eval-reddit: events the checkpoint trains on
    overrides: tuple[tuple[str, object], ...] = ()

    def config(self) -> RunConfig:
        """The run config. The training seed stays 0 whatever the workload
        seed: a model trained for one epoch ranks links well or badly by
        the luck of its initialisation, which would swamp what a change
        does to AP. The workload seed varies the data instead."""
        cfg = apply_preset(RunConfig(), self.preset)
        return dataclasses.replace(cfg, max_epochs=self.epochs, **dict(self.overrides))


# why each workload is here: benchmarks/README.md and BENCHMARK.json.
# Each pool is the event count over the dataset's events per node (JODIE
# Wikipedia 17.1, Reddit 61.2), split in its user-to-item ratio.
WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec(
            name="train-wikipedia",
            preset="wikipedia",
            num_users=84,
            num_items=10,
            num_events=1600,
            epochs=1,
            cells=(("transductive", "random"), ("inductive", "random")),
        ),
        Spec(
            name="eval-reddit",
            preset="reddit",
            num_users=45,
            num_items=4,
            num_events=3000,
            epochs=1,
            cells=tuple((s, k) for s in SETTINGS for k in STRATEGIES),
            scrambled=True,
            prefix_events=286,  # its 70% training segment is one 200-event batch
        ),
    )
}


@dataclass
class Inputs:
    spec: Spec
    cfg: RunConfig
    csv_path: Path
    raw: gen.RawEvents
    expected: gen.ExpectedStream
    checkpoint_path: Path | None = None
    prefix: tuple[EventStream, ChronoSplit] | None = None  # eval-reddit's training data
    prefix_hash: str = ""  # report hash of the training that wrote the checkpoint

    @property
    def train_tag(self) -> str:
        """Label of the round's training calls in ``Probe`` records."""
        return "prefix-train" if self.prefix else "train"


@dataclass
class State:
    stream: EventStream
    split: ChronoSplit
    initial_pe: object
    params: object | None  # loaded checkpoint parameters (eval-reddit)


@dataclass
class RoundResult:
    train_s: float = 0.0  # wall time of train() less its initial-PE call
    train_events: int = 0
    epochs_run: int = 0
    eval_s: float = 0.0  # wall time of every evaluate() call
    eval_events: int = 0
    cells: dict = field(default_factory=dict)  # (setting, strategy) -> (ap, auc, fallbacks)
    loss_rows: list = field(default_factory=list)
    train_hash: str = ""  # report hash of the round's training
    report_hash: str = ""  # covers the training and every cell
    wall_s: float = 0.0


class Probe:
    """Watches the calls the checks read; installed for the whole run.

    While ``capture`` is on it keeps (label, arguments, result) at the
    metric and sampler boundaries. ``timed`` leaves the time spent in
    ``build_initial_pe`` out of a call's time: inside ``train`` that is
    set-up work, timed in ``setup_s``.
    """

    def __init__(self):
        self.capture = False
        self.label: tuple = ()
        self.scores: list = []
        self.negatives: list = []
        self.initial_pe_s = 0.0

    def install(self, patches: Patches) -> None:
        patches.wrap(training, "average_precision", lambda f: self._metric("ap", f))
        patches.wrap(training, "roc_auc", lambda f: self._metric("auc", f))
        patches.wrap(training, "build_initial_pe", self._initial_pe)
        patches.wrap(NegativeSampler, "sample", self._sampler)

    def timed(self, call, *args, **kwargs):
        """Run ``call``; return its result and its seconds less initial-PE time."""
        self.initial_pe_s = 0.0
        t0 = time.perf_counter()
        out = call(*args, **kwargs)
        return out, time.perf_counter() - t0 - self.initial_pe_s

    def _metric(self, kind: str, orig):
        def metric(scores, labels):
            out = orig(scores, labels)
            if self.capture:
                self.scores.append((self.label, kind, np.array(scores), np.array(labels), out))
            return out

        return metric

    def _initial_pe(self, orig):
        def build(stream, split, cfg):
            t0 = time.perf_counter()
            out = orig(stream, split, cfg)
            self.initial_pe_s += time.perf_counter() - t0
            return out

        return build

    def _sampler(self, orig):
        def sample(sampler, batch_indices):
            out = orig(sampler, batch_indices)
            if self.capture:
                self.negatives.append((self.label, sampler.strategy, np.array(batch_indices), out))
            return out

        return sample


class NoSpans:
    """Stand-in for ``Tracer`` in untraced runs."""

    def span(self, name: str):
        return contextlib.nullcontext()


def prepare(spec: Spec, seed: int, workdir: Path, probe: Probe, spans) -> Inputs:
    """Write the workload's inputs; eval-reddit also trains its checkpoint.

    Any trained model has its filter off the identity, which is what makes
    evaluation run the full filter chain.
    """
    cfg = spec.config()
    raw = gen.bipartite_events(seed, spec.num_users, spec.num_items, spec.num_events, cfg.d_e)
    if spec.scrambled:
        raw = gen.scramble(raw, seed)
    csv_path = workdir / f"{spec.name}.csv"
    gen.write_csv(csv_path, raw)
    inp = Inputs(spec, cfg, csv_path, raw, gen.expected_stream(raw))
    if spec.prefix_events:
        full, n = _load(inp), spec.prefix_events
        prefix = EventStream(
            full.src[:n], full.dst[:n], full.ts[:n], edge_features=full.edge_features[:n],
            num_nodes=full.num_nodes, d_n=cfg.d_n, d_e=cfg.d_e, dataset=full.dataset,
        )
        inp.prefix = (prefix, chronological_split(prefix))
        with spans.span("prepare"):
            result = training.train(*inp.prefix, cfg)
        inp.prefix_hash = result.report.content_hash()
        inp.checkpoint_path = workdir / f"{spec.name}.lstp"
        checkpoint.save_container(
            inp.checkpoint_path,
            result.params.state_arrays(),
            {"shape_hash": shape_hash(cfg), "seed": str(cfg.seed)},
        )
    return inp


def _load(inp: Inputs) -> EventStream:
    return load_events(inp.csv_path, d_n=inp.cfg.d_n, d_e=inp.cfg.d_e, dataset=inp.spec.name)


def setup(inp: Inputs, spans) -> State:
    """From the CSV on disk to the first batch."""
    with spans.span("load_events"):
        stream = _load(inp)
    split = chronological_split(stream)
    initial = training.build_initial_pe(stream, split, inp.cfg)
    params = None
    if inp.checkpoint_path is not None:
        with spans.span("load_container"):
            tensors, meta = checkpoint.load_container(inp.checkpoint_path)
        if meta.get("shape_hash") != shape_hash(inp.cfg):
            raise ValueError("checkpoint shape hash does not match the workload config")
        params = init_model_params(ModelDims.from_config(inp.cfg), seed=inp.cfg.seed)
        params.load_state_arrays(tensors)
    return State(stream, split, initial, params)


def run_round(inp: Inputs, state: State, probe: Probe) -> RoundResult:
    """One round: one ``train`` call, then one ``evaluate`` call per cell.

    eval-reddit trains on its prefix (the training that wrote its
    checkpoint, repeated) and evaluates the loaded checkpoint.
    """
    out = RoundResult()
    stream, split = inp.prefix or (state.stream, state.split)
    probe.label = (inp.train_tag,)
    result, out.train_s = probe.timed(training.train, stream, split, inp.cfg)
    out.epochs_run = result.report.epochs_run
    out.train_events = split.train_end * out.epochs_run
    out.loss_rows = list(result.report.loss_rows)
    out.train_hash = result.report.content_hash()
    params = state.params if state.params is not None else result.params
    test_events = state.stream.num_events - state.split.val_end
    for setting, strategy in inp.spec.cells:
        probe.label = ("eval", setting, strategy)
        cell, seconds = probe.timed(
            training.evaluate, state.stream, state.split, params, inp.cfg,
            setting=setting, strategy=strategy, seed=inp.cfg.seed,
            initial_pe=state.initial_pe,
        )
        out.eval_s += seconds
        out.eval_events += test_events
        out.cells[(setting, strategy)] = cell
    # the training report's hash rides in config_hash, so that one hash
    # covers the training and every cell of the round
    report = EvalReport(
        inp.spec.name, inp.cfg.seed, out.train_hash,
        metrics={
            f"test/{s}/{k}": {"ap": v[0], "roc_auc": v[1], "fallbacks": v[2]}
            for (s, k), v in out.cells.items()
        },
    )
    out.report_hash = report.content_hash()
    return out
