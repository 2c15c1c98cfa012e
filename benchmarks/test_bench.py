"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench.py

Every workload runs end to end on shrunken inputs, and every checker
rejects a deliberately wrong value.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs as gen  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads as wl  # noqa: E402
from lstep.events import chronological_split, load_events  # noqa: E402
from lstep.sampling import NegativeSampler, Sample  # noqa: E402
from lstep.training import build_initial_pe  # noqa: E402

TINY_DIMS = (
    ("d_t", 6), ("d_n", 6), ("d_e", 6), ("d_p", 6),
    ("history_len", 5), ("recent_k", 3), ("batch_size", 16),
)


def tiny(name: str) -> wl.Spec:
    spec = wl.WORKLOADS[name]
    return dataclasses.replace(
        spec, num_users=20, num_items=4, num_events=120, overrides=TINY_DIMS,
        prefix_events=50 if spec.prefix_events else 0,
    )


def benchmark_names(kind: str) -> set[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.fixture(scope="module")
def runs():
    """Every workload, untraced and traced, once per module."""
    return {
        (name, trace): run.run_workload(tiny(name), seed=3, seconds=0.0, trace=trace)
        for name in wl.WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_workload_runs_end_to_end(runs, name):
    record, detail, _ = runs[(name, False)]
    assert detail["problems"] == []
    assert record["correct"] is True
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert set(record["metrics"]) == benchmark_names("end_to_end")
    assert all(m["value"] > 0 for m in record["metrics"].values())


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_run_reports_every_layer(runs, name):
    record, detail, tracer = runs[(name, True)]
    assert record["correct"] is True
    assert set(record["metrics"]) == benchmark_names("per_layer")
    # self times partition the traced round wall time
    wall = record["metrics"]["trace.round_wall_s"]["value"]
    assert sum(detail["round_layer_self_s"].values()) == pytest.approx(wall, rel=1e-9)
    assert detail["round_layer_self_s"]["bench.round"] < 0.05 * wall
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_same_config_and_seed_share_a_report_hash(runs):
    _, first, _ = runs[("train-wikipedia", False)]
    _, again, _ = run.run_workload(tiny("train-wikipedia"), seed=3, seconds=0.0, trace=False)
    assert first["report_hash"] == again["report_hash"]
    assert first["cells"] == again["cells"]


def test_first_round_check_requires_validation_scoring(monkeypatch):
    """A training that stopped scoring validation is flagged."""
    orig = wl.Probe._metric

    def metric(probe, kind, f):
        captured = orig(probe, kind, f)
        return lambda scores, labels: (
            f if probe.label == ("prefix-train",) else captured
        )(scores, labels)

    monkeypatch.setattr(wl.Probe, "_metric", metric)
    _, detail, _ = run.run_workload(tiny("eval-reddit"), seed=3, seconds=0.0, trace=False)
    assert any(p.startswith("prefix-train: 0 metric calls") for p in detail["problems"])


def test_layer_counts_repeat_exactly(runs):
    _, _, tracer = runs[("eval-reddit", True)]
    again = run.run_workload(tiny("eval-reddit"), seed=3, seconds=0.0, trace=True)[0]
    counts = [k for k in again["metrics"] if not k.endswith("_s")]
    assert {k: again["metrics"][k]["value"] for k in counts} == {
        k: runs[("eval-reddit", True)][0]["metrics"][k]["value"] for k in counts
    }


# ----------------------------------------------------------------- checkers


@pytest.fixture(scope="module")
def stream_case(tmp_path_factory):
    raw = gen.scramble(gen.bipartite_events(5, 30, 6, 90, 4), 5)
    path = tmp_path_factory.mktemp("csv") / "events.csv"
    gen.write_csv(path, raw)
    expected = gen.expected_stream(raw)
    stream = load_events(path, d_e=4)
    return stream, expected


def test_load_check_passes_and_rejects_wrong_inversions(stream_case):
    stream, expected = stream_case
    assert expected.inversions > 0
    assert verify.check_load(stream, expected) == []
    wrong = dataclasses.replace(expected, inversions=expected.inversions + 1)
    assert any("sort_warnings" in p for p in verify.check_load(stream, wrong))
    moved = dataclasses.replace(expected, dst=np.roll(expected.dst, 1))
    assert any("dst" in p for p in verify.check_load(stream, moved))


def test_inversion_count_matches_brute_force():
    ts = np.random.default_rng(0).permutation(700).astype(float)
    brute = sum(1 for i in range(700) for j in range(i + 1, 700) if ts[i] > ts[j])
    assert gen.count_inversions(ts) == brute


def test_initial_pe_check_rejects_a_wrong_column(stream_case):
    stream, expected = stream_case
    cfg = dataclasses.replace(wl.WORKLOADS["train-wikipedia"].config(), **dict(TINY_DIMS))
    initial = build_initial_pe(stream, chronological_split(stream), cfg)
    assert verify.check_initial_pe(initial, expected, cfg.batch_size, cfg.d_p) == []
    table = initial.table.copy()
    table[initial.present, 1] = table[initial.present, 2]
    bad = dataclasses.replace(initial, table=table)
    assert verify.check_initial_pe(bad, expected, cfg.batch_size, cfg.d_p) != []


def test_score_check_rejects_ap_and_auc_off_by_a_millionth():
    rng = np.random.default_rng(1)
    scores = rng.random(40)
    labels = np.tile([1, 0], 20)
    from lstep.metrics import average_precision, roc_auc

    ap, auc = average_precision(scores, labels), roc_auc(scores, labels)
    good = [(("eval",), "ap", scores, labels, ap), (("eval",), "auc", scores, labels, auc)]
    assert verify.check_scores(good) == []
    assert verify.check_scores([(("eval",), "ap", scores, labels, ap + 1e-6)]) != []
    assert verify.check_scores([(("eval",), "auc", scores, labels, auc - 1e-6)]) != []


def test_scored_pairs_check_rejects_a_missing_pair(stream_case):
    _, expected = stream_case
    lo, hi = gen.split_bounds(expected.ts.size)[1], expected.ts.size
    labels = np.tile([1, 0], hi - lo)
    record = (("eval", "transductive", "random"), "ap", np.zeros(labels.size), labels, 0.5)
    assert verify.check_scored_pairs([record], expected, (lo, hi), "transductive") == []
    short = record[:3] + (labels[:-2], 0.5)
    assert verify.check_scored_pairs([short], expected, (lo, hi), "transductive") != []


@pytest.mark.parametrize("strategy", ["random", "historical", "inductive"])
def test_negative_check_passes_on_the_sampler(stream_case, strategy):
    stream, expected = stream_case
    split = chronological_split(stream)
    sampler = NegativeSampler(stream, split, strategy, seed=0)
    batch = np.arange(split.val_end, stream.num_events)
    record = (("eval",), strategy, batch, sampler.sample(batch))
    assert verify.check_negatives([record], expected) == []


def _one_negative(expected, strategy, ev, pair, fallbacks=0):
    batch = np.array([ev])
    sample = Sample(
        np.array([pair[0]]), np.array([pair[1]]), expected.ts[batch].copy(), strategy, fallbacks
    )
    return [(("eval",), strategy, batch, sample)]


def test_negative_check_rejects_a_collision_with_a_positive(stream_case):
    _, expected = stream_case
    ev = expected.ts.size - 1
    pos = (int(expected.src[ev]), int(expected.dst[ev]))
    assert verify.check_negatives(_one_negative(expected, "random", ev, pos), expected) != []


def test_negative_check_rejects_pool_violations(stream_case):
    _, expected = stream_case
    train_end, _ = gen.split_bounds(expected.ts.size)
    ev = expected.ts.size - 1
    late = (int(expected.src[ev]), int(expected.dst[ev]))
    other = (expected.num_nodes, late[1])  # a pair the stream never has
    assert verify.check_negatives(_one_negative(expected, "historical", ev, other), expected) != []
    early = (int(expected.src[0]), int(expected.dst[0]))  # first seen before the boundary
    assert verify.check_negatives(_one_negative(expected, "inductive", ev, early), expected) != []
    # a counted fallback that keeps the positive's source is allowed
    fallback = (int(expected.src[ev]), int(expected.dst[0]))
    if fallback not in {(int(u), int(v)) for u, v in zip(expected.src, expected.dst)}:
        assert verify.check_negatives(
            _one_negative(expected, "inductive", ev, fallback, fallbacks=1), expected
        ) == []
    timing = _one_negative(expected, "random", ev, (late[0], late[1] + 1))
    timing[0][3].ts[0] += 1.0
    assert any("timestamps" in p for p in verify.check_negatives(timing, expected))


def test_loss_check_rejects_bad_values():
    rows = [(0, 0, 0.7), (0, 1, 0.6)]
    assert verify.check_losses(rows, 1, 32, 16) == []
    assert verify.check_losses(rows[:1], 1, 32, 16) != []
    assert verify.check_losses([(0, 0, 0.7), (0, 1, float("nan"))], 1, 32, 16) != []


def test_filter_check_rejects_an_untrained_checkpoint():
    from lstep.model import ModelDims, init_model_params

    cfg = dataclasses.replace(wl.WORKLOADS["eval-reddit"].config(), **dict(TINY_DIMS))
    params = init_model_params(ModelDims.from_config(cfg))
    assert verify.check_trained_filter(params) != []
    params.tensors["filter_imag"].data[0, 0] = 1e-4
    assert verify.check_trained_filter(params) == []


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "train-wikipedia", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
