"""Command-line entry points: ingest, train, eval, check.

Every command is deterministic given (config, seed). Reports embed the
config hash; checkpoints embed the shape hash so eval can refuse
incompatible configs. Exit codes: 0 success, 1 validation error,
2 runtime or numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import load_container, save_container
from .checks import SUITES, run_suite
from .config import (
    RunConfig,
    apply_preset,
    config_hash,
    config_problems,
    parse_config,
    parse_config_file,
    serialize_config,
    shape_hash,
)
from .events import EventStream, chronological_split, load_events, write_manifest
from .model import ModelDims, ModelParams, init_model_params
from .peinit import InitialPE
from .sampling import STRATEGIES
from .training import (
    SETTINGS,
    EvalReport,
    build_initial_pe,
    evaluate_cells,
    train,
    write_loss_csv,
)

__all__ = ["main", "cmd_ingest", "cmd_train", "cmd_eval", "cmd_check"]

class _Parser(argparse.ArgumentParser):
    """Argument errors are validation errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _resolve_config(args, embedded: str | None = None) -> RunConfig:
    """Layer preset, config file, and seed flag over the defaults.

    ``embedded`` (a checkpoint's stored config text) is used only when
    neither --config nor --preset was given; its errors name the checkpoint.
    """
    cfg = RunConfig()
    preset = getattr(args, "preset", None)
    if embedded is not None and not args.config and not preset:
        try:
            cfg = parse_config(embedded)
        except ValueError as exc:
            raise ValueError(f"{args.checkpoint}: embedded {exc}") from None
    if preset:
        cfg = apply_preset(cfg, preset)
    if args.config:
        cfg = parse_config_file(args.config, base=cfg)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _data_problems(cfg: RunConfig) -> list[str]:
    if not cfg.data:
        return ["config field 'data' must name an event file"]
    if not Path(cfg.data).exists():
        return [f"event file not found: {cfg.data}"]
    return []


def _report_problems(problems: list[str]) -> int:
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1


_WRITE_ROWS = 1024  # rows formatted per write: bounds the text held at once


def _write_events_csv(path: Path, stream: EventStream) -> None:
    """The stream as CSV with the bytes ``csv.writer`` writes: CRLF line
    ends, ids as integers, every float as its ``repr``."""
    cols = ["src", "dst", "timestamp"]
    if stream.has_edge_features:
        cols += [f"f{i}" for i in range(stream.d_e)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\r\n")
        for lo in range(0, stream.num_events, _WRITE_ROWS):
            rows = slice(lo, lo + _WRITE_ROWS)
            ids = zip(stream.src[rows].tolist(), stream.dst[rows].tolist())
            values = stream.ts[rows, None]
            if stream.has_edge_features:
                values = np.column_stack([values, stream.edge_features[rows]])
            fh.write("".join(
                f"{u},{v},{','.join(map(repr, vals))}\r\n"
                for (u, v), vals in zip(ids, values.tolist())
            ))


def cmd_ingest(args) -> int:
    """Normalize a raw event CSV; write events.csv plus manifest.txt."""
    stream = load_events(args.path)
    has_feat = stream.has_edge_features
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    events_path = out / "events.csv"
    _write_events_csv(events_path, stream)
    manifest_path = out / "manifest.txt"
    write_manifest(manifest_path, stream)

    print(f"{stream.num_nodes} nodes, {stream.num_events} events")
    print(f"edge features: {stream.d_e}-dim ({'from file' if has_feat else 'zero-filled'})")
    if stream.sort_warnings:
        print(f"note: re-sorted rows out of time order ({stream.sort_warnings} inverted pairs)")
    print(f"wrote {events_path}")
    print(f"wrote {manifest_path}")
    return 0


def _save_checkpoint(path: Path, params: ModelParams, initial: InitialPE, cfg: RunConfig) -> None:
    tensors = params.state_arrays()
    tensors["__initial_pe_table"] = initial.table
    tensors["__initial_pe_present"] = initial.present.astype(np.float64)
    save_container(
        path,
        tensors,
        meta={
            "config": serialize_config(cfg),
            "config_hash": config_hash(cfg),
            "shape_hash": shape_hash(cfg),
            "pe_method": initial.method,
            "dataset": cfg.dataset,
            "seed": str(cfg.seed),
        },
    )


def _aggregate(reports: list[EvalReport]) -> dict:
    keys = sorted(set.intersection(*(set(r.metrics) for r in reports)))
    metrics = {}
    for key in keys:
        aps = np.array([r.metrics[key]["ap"] for r in reports])
        aucs = np.array([r.metrics[key]["roc_auc"] for r in reports])
        metrics[key] = {
            "ap_mean": float(aps.mean()),
            "ap_std": float(aps.std()),
            "roc_auc_mean": float(aucs.mean()),
            "roc_auc_std": float(aucs.std()),
        }
    return {
        "dataset": reports[0].dataset,
        "seeds": [r.seed for r in reports],
        "report_hashes": [r.content_hash() for r in reports],
        "metrics": metrics,
    }


def cmd_train(args) -> int:
    """Train; write best checkpoint, JSON report, and loss-trace CSV."""
    if args.aggregate and args.seed is not None:
        return _report_problems(["--aggregate runs seeds 0..4 and takes no --seed"])
    cfg = _resolve_config(args)
    problems = config_problems(cfg) + _data_problems(cfg)
    if problems:
        return _report_problems(problems)
    stream = load_events(cfg.data, d_n=cfg.d_n, d_e=cfg.d_e, dataset=cfg.dataset)
    split = chronological_split(stream)
    out = Path(args.out)

    seeds = list(range(5)) if args.aggregate else [cfg.seed]
    reports: list[EvalReport] = []
    for seed in seeds:
        run_cfg = replace(cfg, seed=seed)
        result = train(stream, split, run_cfg)
        out.mkdir(parents=True, exist_ok=True)  # not before train has checked the stream
        tag = f"_seed{seed}" if args.aggregate else ""
        _save_checkpoint(out / f"checkpoint{tag}.lstp", result.params, result.initial_pe, run_cfg)
        (out / f"report{tag}.json").write_text(result.report.to_json() + "\n")
        write_loss_csv(out / f"loss{tag}.csv", result.report.loss_rows)
        reports.append(result.report)
        val = result.report.metrics.get("val/transductive/random", {})
        print(
            f"seed {seed}: {result.report.epochs_run} epochs, "
            f"best epoch {result.report.best_epoch}, "
            f"val ap {val.get('ap', float('nan')):.4f}, "
            f"report hash {result.report.content_hash()}"
        )
    if args.aggregate:
        agg = _aggregate(reports)
        (out / "aggregate.json").write_text(json.dumps(agg, indent=2, sort_keys=True) + "\n")
        for key, stats in agg["metrics"].items():
            print(
                f"{key}: ap {stats['ap_mean']:.4f} +- {stats['ap_std']:.4f}, "
                f"roc_auc {stats['roc_auc_mean']:.4f} +- {stats['roc_auc_std']:.4f}"
            )
    print(f"wrote {out}")
    return 0


def _expand(kind: str, arg: str, choices: tuple[str, ...], every: str) -> tuple[str, ...]:
    """The ``choices`` that ``arg`` names: one of them, or ``every`` for all."""
    if arg == every:
        return choices
    if arg in choices:
        return (arg,)
    raise ValueError(
        f"unknown {kind} {arg!r}, expected one of {', '.join(choices)} or {every}"
    )


def _stored_initial_pe(
    path, tensors: dict[str, np.ndarray], method: str, num_nodes: int, d_p: int
) -> InitialPE | None:
    """The initial encodings a checkpoint holds, or None when it holds
    neither of their two entries: a (num_nodes, d_p) table and a 1-D
    array of distinct integral node ids in [0, num_nodes)."""
    table, present = tensors.get("__initial_pe_table"), tensors.get("__initial_pe_present")
    if table is None and present is None:
        return None

    def fail(name: str, problem: str) -> ValueError:
        return ValueError(f"checkpoint {path}: entry {name!r} {problem}")

    for name, arr, dim in [("__initial_pe_table", table, 2), ("__initial_pe_present", present, 1)]:
        if arr is None or arr.ndim != dim:
            found = "missing" if arr is None else f"of shape {arr.shape}"
            raise fail(name, f"is {found}, expected {dim}-D")
    if table.shape != (num_nodes, d_p):
        raise fail("__initial_pe_table", f"has shape {table.shape}, expected ({num_nodes}, {d_p})")
    if not np.all(present % 1 == 0):
        raise fail("__initial_pe_present", "holds non-integral ids")
    bad = present[(present < 0) | (present >= num_nodes)]
    if bad.size:
        raise fail("__initial_pe_present", f"holds node id {bad[0]:g} outside [0, {num_nodes})")
    ids, counts = np.unique(present, return_counts=True)
    if np.any(counts > 1):
        raise fail("__initial_pe_present", f"repeats node id {ids[counts > 1][0]:g}")
    return InitialPE(table, method, present.astype(np.int64))


def cmd_eval(args) -> int:
    """Score a checkpoint on the test segment for setting x strategy cells."""
    settings = _expand("setting", args.setting, SETTINGS, "both")
    strategies = _expand("strategy", args.strategy, STRATEGIES, "all")
    tensors, meta = load_container(args.checkpoint)
    cfg = _resolve_config(args, embedded=meta.get("config"))
    problems = config_problems(cfg) + _data_problems(cfg)
    if problems:
        return _report_problems(problems)

    want = shape_hash(cfg)
    have = meta.get("shape_hash", "<missing>")
    if want != have:
        raise ValueError(
            f"checkpoint shape hash {have} does not match config shape hash {want}"
        )
    params = init_model_params(ModelDims.from_config(cfg), seed=cfg.seed)
    params.load_state_arrays({k: v for k, v in tensors.items() if not k.startswith("__")})

    stream = load_events(cfg.data, d_n=cfg.d_n, d_e=cfg.d_e, dataset=cfg.dataset)
    split = chronological_split(stream)
    initial = _stored_initial_pe(
        args.checkpoint, tensors, meta.get("pe_method", cfg.pe_init), stream.num_nodes, cfg.d_p
    )
    if initial is None:
        initial = build_initial_pe(stream, split, cfg)
    cells = [(setting, strategy) for setting in settings for strategy in strategies]
    metrics: dict[str, dict[str, float]] = {}
    results = evaluate_cells(stream, split, params, cfg, cells, cfg.seed, initial_pe=initial)
    for (setting, strategy), (ap, auc, fallbacks) in zip(cells, results):
        key = f"test/{setting}/{strategy}"
        metrics[key] = {"ap": ap, "roc_auc": auc, "fallbacks": fallbacks}
        print(f"{key}: ap {ap:.4f}, roc_auc {auc:.4f}, fallbacks {fallbacks}")

    report = EvalReport(cfg.dataset, cfg.seed, config_hash(cfg), metrics=metrics)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "eval_report.json"
    report_path.write_text(report.to_json() + "\n")
    print(f"wrote {report_path}")
    return 0


def cmd_check(args) -> int:
    """Run a property suite; nonzero exit when any check fails."""
    ok, reports = run_suite(args.suite, seed=args.seed)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"check_{args.suite}.json"
        payload = {"suite": args.suite, "seed": args.seed, "passed": ok, "checks": reports}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")
        print(f"wrote {path}")
    print(f"suite {args.suite}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lstep", description="Temporal link prediction runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize a raw event CSV and write a manifest")
    p.add_argument("path", help="raw csv: src,dst,timestamp[,label][,features...]")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("train", help="train and write checkpoint, report, loss trace")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--preset", default=None, help="named per-dataset defaults")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument(
        "--aggregate",
        action="store_true",
        help="run seeds 0..4 and emit a mean/std companion report",
    )
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on the test segment")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None, help="defaults to the checkpoint's config")
    p.add_argument("--preset", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--setting", default="transductive", help="transductive, inductive, or both")
    p.add_argument("--strategy", default="random", help="random, historical, inductive, or all")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("--suite", default="all", help=f"one of: {', '.join(SUITES)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out", default=None,
        help="directory to also write the suite report into, as check_<suite>.json",
    )
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
