"""One-command benchmark for lstep: training and eval replay, with per-layer traces.

    python3 benchmarks/run.py --workload train-wikipedia --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 50

A single workload runs in this process: seeded inputs are written to a
work directory, set-up is timed SETUPS times, then rounds of identical
work repeat while the next one is expected to end within ``--seconds``
(at least one round). Throughputs are medians over the rounds.
The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. Each run also writes a record
(and, when traced, its spans) under ``benchmarks/results/``.

``--workload all`` runs every workload untraced and traced, each in its
own process, and prints every metric plus the tracing overhead.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / ".work"
SETUPS = 9  # set-up repeats per run; setup_s is their median
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, read from the library itself."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        try:
            return int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None


def _environment() -> dict:
    import numpy as np

    return {
        "git_revision": _git_revision(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
    }


def run_workload(spec, seed: int, seconds: float, trace: bool):
    """Run one workload in this process.

    Returns the result line's object, a detail record for the results
    directory, and the tracer (None when untraced).
    """
    import inputs as gen
    import verify
    import workloads as wl
    from tracing import Patches, Tracer

    probe = wl.Probe()
    tracer = Tracer() if trace else None
    spans = tracer or wl.NoSpans()
    patches = Patches()
    probe.install(patches)
    if tracer:
        tracer.install(patches)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=WORK))
    problems: list[str] = []
    try:
        inp = wl.prepare(spec, seed, workdir, probe, spans)
        setup_s = []
        for i in range(SETUPS):
            t0 = time.perf_counter()
            with spans.span("setup"):
                state = wl.setup(inp, spans)
            setup_s.append(time.perf_counter() - t0)
            if i == 0:
                problems += verify.check_load(state.stream, inp.expected)
                problems += verify.check_initial_pe(
                    state.initial_pe, inp.expected, inp.cfg.batch_size, inp.cfg.d_p
                )
                if state.params is not None:
                    problems += verify.check_trained_filter(state.params)
        rounds = []
        probe.capture = True
        while True:
            t0 = time.perf_counter()
            with spans.span("round"):
                rounds.append(wl.run_round(inp, state, probe))
            rounds[-1].wall_s = time.perf_counter() - t0
            if len(rounds) == 1:
                problems += _check_first_round(inp, rounds[0], probe)
                probe.capture = False
                probe.scores.clear()
                probe.negatives.clear()
            elif (rounds[-1].report_hash, rounds[-1].cells) != (rounds[0].report_hash, rounds[0].cells):
                problems.append(f"round {len(rounds)}: results differ from round 1")
            # stop before a round that would likely end past --seconds
            elapsed = sum(r.wall_s for r in rounds)
            if elapsed + elapsed / len(rounds) > seconds:
                break
    finally:
        patches.undo()
        shutil.rmtree(workdir, ignore_errors=True)

    first = rounds[0]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_events_per_s": (
            statistics.median(r.train_events / r.train_s for r in rounds), "events/s"
        ),
        "eval_events_per_s": (
            statistics.median(r.eval_events / r.eval_s for r in rounds), "events/s"
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "test_ap": (first.cells[("transductive", "random")][0], "AP"),
        "test_ap_inductive": (first.cells[("inductive", "random")][0], "AP"),
    }
    round_self = None
    if tracer:
        layers, round_self = tracer.layer_metrics()
        metrics = {k: (v, _unit(k)) for k, v in layers.items()}
    record = {
        "correct": not problems,
        "attempted": SETUPS + (1 + len(spec.cells)) * len(rounds),
        "failed": 0,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": _environment(),
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        "round_train_s": [r.train_s for r in rounds],
        "round_eval_s": [r.eval_s for r in rounds],
        "setup_wall_s": setup_s,
        "inputs": gen.describe(inp.raw, inp.expected, inp.cfg.recent_k, inp.cfg.batch_size),
        "report_hash": first.report_hash,
        "cells": {f"{s}/{k}": list(v) for (s, k), v in first.cells.items()},
        "round_layer_self_s": round_self,
        "problems": problems,
        "result": record,
    }
    return record, detail, tracer


def _write_results(detail: dict, tracer) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{detail['workload']}-seed{detail['seed']}-trace{int(detail['trace'])}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    if tracer:
        tracer.write(RESULTS / f"{stem}-spans.json.gz", detail["environment"])


def _check_first_round(inp, result, probe) -> list[str]:
    """Every check on the first round's captured calls."""
    import inputs as gen
    import verify

    events = inp.expected
    _, val_end = gen.split_bounds(events.ts.size)
    trained = events
    problems = []
    if inp.prefix:
        n = inp.spec.prefix_events
        trained = dataclasses.replace(
            events, src=events.src[:n], dst=events.dst[:n], ts=events.ts[:n],
            features=events.features[:n],
        )
        if result.train_hash != inp.prefix_hash:
            problems.append("prefix training differs from the one that wrote the checkpoint")
    train_tag = inp.train_tag
    problems += verify.check_losses(
        result.loss_rows, inp.cfg.max_epochs,
        gen.split_bounds(trained.ts.size)[0], inp.cfg.batch_size,
    )
    problems += verify.check_scores(probe.scores)
    for tag, view in ((train_tag, trained), ("eval", events)):
        negs = [r for r in probe.negatives if r[0][0] == tag]
        if not negs:
            problems.append(f"{tag}: no negatives sampled")
        problems += verify.check_negatives(negs, view)
    # every training epoch scores validation once with AP and once with AUC
    mine = [r for r in probe.scores if r[0][0] == train_tag]
    if len(mine) != 2 * result.epochs_run:
        problems.append(
            f"{train_tag}: {len(mine)} metric calls, expected 2 x {result.epochs_run} epochs"
        )
    problems += verify.check_scored_pairs(
        mine, trained, gen.split_bounds(trained.ts.size), "transductive"
    )
    for setting, strategy in inp.spec.cells:
        mine = [r for r in probe.scores if r[0] == ("eval", setting, strategy)]
        if len(mine) != 2:
            problems.append(f"eval/{setting}/{strategy}: {len(mine)} metric calls, expected 2")
        problems += verify.check_scored_pairs(mine, events, (val_end, events.ts.size), setting)
    return problems


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "lpe.commits_per_scored_event":
        return "commits/event"
    return "count"


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process."""
    import workloads as wl

    status = 0
    summary = {}
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads((RESULTS / f"{name}-seed{seed}-trace{trace}.json").read_text())
            summary[(name, trace)] = detail
            print(f"== {name} (trace {trace}): correct={record['correct']} "
                  f"attempted={record['attempted']} failed={record['failed']} "
                  f"rounds={detail['rounds']}")
            if not trace:
                print("   inputs: " + ", ".join(f"{k}={v:.4g}" for k, v in detail["inputs"].items()))
            for key, m in record["metrics"].items():
                print(f"   {key:34s} {m['value']:14.6g} {m['unit']}")
            status |= 0 if record["correct"] else 1
        if (name, 0) in summary and (name, 1) in summary:
            plain = statistics.mean(summary[(name, 0)]["round_wall_s"])
            traced = statistics.mean(summary[(name, 1)]["round_wall_s"])
            self_s = summary[(name, 1)]["round_layer_self_s"]
            program = sum(v for k, v in self_s.items() if k != "bench.round")
            print(f"   tracing overhead per round: {traced - plain:+.3f} s "
                  f"({traced:.3f} traced vs {plain:.3f} untraced)")
            print(f"   program layers' self times sum to {program:.3f} s of a "
                  f"{traced:.3f} s traced round; shares: " + ", ".join(
                      f"{k} {v / traced:.0%}" for k, v in
                      sorted(self_s.items(), key=lambda kv: -kv[1]) if v / traced >= 0.01))
    env = _environment()
    (RESULTS / f"all-seed{seed}.json").write_text(json.dumps(
        {"environment": env, "runs": {f"{n}/trace{t}": d for (n, t), d in summary.items()}},
        indent=2) + "\n")
    print(f"environment: {json.dumps(env)}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=50.0, help="seconds of rounds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lstep" / "__init__.py").is_file():
        print(f"benchmark: no lstep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy is first imported, so that the
    # figures measure the program and not the scheduler.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import workloads as wl

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    record, detail, tracer = run_workload(
        wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    _write_results(detail, tracer)
    for line in detail["problems"]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
