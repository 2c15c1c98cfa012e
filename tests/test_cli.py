"""End-to-end tests of the command-line interface."""
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lstep.cli as cli
import lstep.training as training
from lstep.checkpoint import load_container, save_container
from lstep.cli import main
from lstep.checks import SUITES
from lstep.config import PRESETS, RETIRED, parse_config
from lstep.events import load_events
from lstep.synthetic import make_periodic_stream


def _write_raw(path, num_pairs=3, num_events=60, holdout_pairs=0, scatter=True):
    """Small periodic stream as a labeled csv with two feature columns."""
    stream = make_periodic_stream(
        num_pairs=num_pairs,
        num_events=num_events,
        holdout_pairs=holdout_pairs,
        d_n=4,
        d_e=2,
    )
    rng = np.random.default_rng(7)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "item_id", "timestamp", "state_label", "f0", "f1"])
        for i in range(stream.num_events):
            u, v = int(stream.src[i]), int(stream.dst[i])
            if scatter:
                u, v = 7 * u + 3, 7 * v + 3
            writer.writerow([u, v, float(stream.ts[i]), 0, *rng.normal(size=2)])
    return stream


def _cfg_text(data_path, **overrides):
    base = {
        "dataset": "clitest",
        "data": str(data_path),
        "d_t": 2,
        "d_n": 4,
        "d_e": 2,
        "d_p": 2,
        "history_len": 2,
        "t_gap": 8.0,
        "recent_k": 2,
        "batch_size": 20,
        "lr": 0.001,
        "max_epochs": 2,
        "patience": 5,
        "seed": 0,
    }
    base.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in base.items())


def _ingest(tmp_path, **raw_kwargs):
    raw = tmp_path / "raw.csv"
    _write_raw(raw, **raw_kwargs)
    out = tmp_path / "ingested"
    assert main(["ingest", str(raw), "--out", str(out)]) == 0
    return out / "events.csv"


def _train(tmp_path, events, out_name="run", **overrides):
    cfg_path = tmp_path / f"{out_name}.cfg"
    cfg_path.write_text(_cfg_text(events, **overrides))
    out = tmp_path / out_name
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg_path, out


def test_ingest_counts_and_normalization(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    stream = _write_raw(raw)
    out = tmp_path / "ingested"
    assert main(["ingest", str(raw), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "6 nodes, 60 events" in printed

    manifest = dict(
        line.split(" = ")
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert manifest["num_nodes"] == "6"
    assert manifest["num_events"] == "60"
    assert manifest["d_e"] == "2"

    # ids densified, order and times preserved, label dropped
    norm = load_events(out / "events.csv")
    assert norm.num_nodes == 6
    assert int(max(norm.src.max(), norm.dst.max())) == 5
    np.testing.assert_array_equal(norm.ts, stream.ts)
    assert norm.d_e == 2


def _reference_events_csv(stream) -> bytes:
    """events.csv as ingest once wrote it, one csv.writer row per event."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    cols = ["src", "dst", "timestamp"]
    if stream.has_edge_features:
        cols += [f"f{i}" for i in range(stream.d_e)]
    writer.writerow(cols)
    for i in range(stream.num_events):
        row = [int(stream.src[i]), int(stream.dst[i]), repr(float(stream.ts[i]))]
        if stream.has_edge_features:
            row += [repr(float(x)) for x in stream.edge_features[i]]
        writer.writerow(row)
    return buf.getvalue().encode()


@pytest.mark.parametrize("features", [True, False])
@pytest.mark.parametrize("block", [3, 8192])
def test_ingest_writes_the_csv_writer_bytes(tmp_path, monkeypatch, features, block):
    monkeypatch.setattr(cli, "_WRITE_ROWS", block)
    rows = [
        ("4", "9", "1e17", "-0.0", "5e-324"),
        ("9", "4", "1.0000000000000002e17", "0.1", "-1.5e-310"),
        ("4", "12", "123456789012345678", "1e300", "3"),
        ("12", "9", "2e17", "-2.5", "0"),
        ("9", "12", "2.0000000000000003e17", "7.0", "1e-5"),
        ("4", "4", "3e17", "2", "-0"),
        ("12", "4", "3e17", "1e16", "0.30000000000000004"),
    ]
    raw = tmp_path / "raw.csv"
    header = "src,dst,timestamp" + (",a,b" if features else "")
    width = 5 if features else 3
    raw.write_text(header + "\n" + "".join(",".join(r[:width]) + "\n" for r in rows))
    out = tmp_path / "ingested"
    assert main(["ingest", str(raw), "--out", str(out)]) == 0
    written = (out / "events.csv").read_bytes()
    assert written == _reference_events_csv(load_events(raw))
    assert written.count(b"\r\n") == len(rows) + 1
    if features:
        assert b",-0.0,5e-324\r\n" in written
    again = load_events(out / "events.csv")
    np.testing.assert_array_equal(again.ts, load_events(raw).ts)


def test_ingest_note_counts_inverted_pairs(tmp_path, capsys):
    # one row (t = 3) moves, but it was out of order with two others
    raw = tmp_path / "unsorted.csv"
    raw.write_text("src,dst,timestamp\n1,2,3.0\n1,3,1.0\n2,3,2.0\n")
    assert main(["ingest", str(raw), "--out", str(tmp_path / "x")]) == 0
    printed = capsys.readouterr().out
    assert "note: re-sorted rows out of time order (2 inverted pairs)" in printed
    assert load_events(tmp_path / "x" / "events.csv").ts.tolist() == [1.0, 2.0, 3.0]


def test_ingest_empty_file_writes_nothing(tmp_path):
    raw = tmp_path / "empty.csv"
    raw.write_text("src,dst,timestamp\n")
    out = tmp_path / "ingested"
    assert main(["ingest", str(raw), "--out", str(out)]) == 1
    assert not out.exists()


def test_ingest_parse_error_names_line(tmp_path, capsys):
    raw = tmp_path / "bad.csv"
    raw.write_text("src,dst,timestamp\n1,2,1.0\n1,oops,2.0\n")
    assert main(["ingest", str(raw), "--out", str(tmp_path / "x")]) == 1
    assert "bad.csv:3" in capsys.readouterr().err


def test_ingest_non_finite_timestamp_names_line(tmp_path, capsys):
    raw = tmp_path / "nan.csv"
    raw.write_text("src,dst,timestamp\n1,2,1.0\n1,3,nan\n2,3,inf\n")
    assert main(["ingest", str(raw), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "nan.csv:3" in err and "non-finite timestamp" in err


def test_ingest_bad_node_id_names_line_and_exits_1(tmp_path, capsys):
    raw = tmp_path / "ids.csv"
    for bad in ("1e300", "3.7"):
        raw.write_text(f"src,dst,timestamp\n1,2,1.0\n{bad},3,2.0\n")
        assert main(["ingest", str(raw), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"ids.csv:3: malformed row (node id {float(bad)!r}" in err


def test_train_writes_checkpoint_report_and_loss_csv(tmp_path):
    events = _ingest(tmp_path)
    _, out = _train(tmp_path, events)
    assert (out / "checkpoint.lstp").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["dataset"] == "clitest"
    assert len(report["report_hash"]) == 16
    assert report["epochs_run"] == 2
    rows = (out / "loss.csv").read_text().splitlines()
    assert rows[0] == "epoch,batch,loss"
    # 42 train events in 20-event batches: 3 batches per epoch
    assert len(rows) == 1 + 2 * 3


def test_train_rerun_same_seed_same_report_hash(tmp_path):
    events = _ingest(tmp_path)
    _, out_a = _train(tmp_path, events, out_name="a")
    _, out_b = _train(tmp_path, events, out_name="b")
    _, out_c = _train(tmp_path, events, out_name="c", seed=1)
    hash_a = json.loads((out_a / "report.json").read_text())["report_hash"]
    hash_b = json.loads((out_b / "report.json").read_text())["report_hash"]
    hash_c = json.loads((out_c / "report.json").read_text())["report_hash"]
    assert hash_a == hash_b
    assert hash_a != hash_c


def test_train_seed_flag_overrides_config(tmp_path):
    events = _ingest(tmp_path)
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(_cfg_text(events, seed=0))
    out = tmp_path / "s"
    assert main(["train", "--config", str(cfg_path), "--seed", "3",
                 "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["seed"] == 3


def test_train_lists_every_validation_problem_before_compute(tmp_path, capsys):
    cfg_path = tmp_path / "broken.cfg"
    cfg_path.write_text("d_p = 0\npatience = -1\n")
    out = tmp_path / "never"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    for fragment in ("history_len", "t_gap", "recent_k", "batch_size",
                     "d_p", "patience", "data"):
        assert fragment in err
    assert not out.exists()


def test_train_refuses_aggregate_with_a_seed(tmp_path, monkeypatch, capsys):
    events = _ingest(tmp_path)
    cfg_path = tmp_path / "agg.cfg"
    cfg_path.write_text(_cfg_text(events, max_epochs=1))
    out = tmp_path / "agg"
    monkeypatch.setattr(cli, "load_events", lambda *a, **k: pytest.fail("events were loaded"))
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--aggregate", "--seed", "7"]) == 1
    err = capsys.readouterr().err
    assert "--aggregate" in err and "--seed" in err
    assert not out.exists()


def test_train_aggregate_emits_per_seed_and_mean_std(tmp_path):
    events = _ingest(tmp_path)
    cfg_path = tmp_path / "agg.cfg"
    cfg_path.write_text(_cfg_text(events, max_epochs=1))
    out = tmp_path / "agg"
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--aggregate"]) == 0
    for seed in range(5):
        assert (out / f"report_seed{seed}.json").exists()
        assert (out / f"checkpoint_seed{seed}.lstp").exists()
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["seeds"] == [0, 1, 2, 3, 4]
    assert len(set(agg["report_hashes"])) == 5
    stats = agg["metrics"]["val/transductive/random"]
    aps = [
        json.loads((out / f"report_seed{s}.json").read_text())["metrics"][
            "val/transductive/random"]["ap"]
        for s in range(5)
    ]
    assert stats["ap_mean"] == pytest.approx(np.mean(aps))
    assert stats["ap_std"] == pytest.approx(np.std(aps))


def test_eval_all_cells_in_one_report(tmp_path):
    events = _ingest(tmp_path, num_pairs=4, num_events=80, holdout_pairs=1)
    cfg_path, out = _train(tmp_path, events)
    eval_out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(out / "checkpoint.lstp"),
                 "--config", str(cfg_path), "--setting", "both",
                 "--strategy", "all", "--out", str(eval_out)]) == 0
    report = json.loads((eval_out / "eval_report.json").read_text())
    assert len(report["metrics"]) == 6
    for setting in ("transductive", "inductive"):
        for strategy in ("random", "historical", "inductive"):
            cell = report["metrics"][f"test/{setting}/{strategy}"]
            assert set(cell) == {"ap", "roc_auc", "fallbacks"}
            assert 0.0 <= cell["ap"] <= 1.0


def test_eval_builds_a_missing_initial_pe_once(tmp_path, monkeypatch):
    events = _ingest(tmp_path, num_pairs=4, num_events=80, holdout_pairs=1)
    cfg_path, out = _train(tmp_path, events)
    tensors, meta = load_container(out / "checkpoint.lstp")
    bare = tmp_path / "bare.lstp"
    save_container(bare, {k: v for k, v in tensors.items() if not k.startswith("__")}, meta)
    calls = []
    laplacian_pe = training.laplacian_pe

    def counted(*args, **kwargs):
        calls.append(args)
        return laplacian_pe(*args, **kwargs)

    monkeypatch.setattr(training, "laplacian_pe", counted)
    reports = []
    for ckpt in (bare, out / "checkpoint.lstp"):
        eval_out = tmp_path / ckpt.stem
        assert main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg_path),
                     "--setting", "both", "--strategy", "all", "--out", str(eval_out)]) == 0
        reports.append(json.loads((eval_out / "eval_report.json").read_text()))
    # once for the bare checkpoint's six cells, never for the full one
    assert len(calls) == 1
    # the rebuilt table is the one training stored
    assert reports[0] == reports[1]


def test_eval_uses_embedded_config_when_none_given(tmp_path):
    events = _ingest(tmp_path)
    _, out = _train(tmp_path, events)
    eval_out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(out / "checkpoint.lstp"),
                 "--out", str(eval_out)]) == 0
    report = json.loads((eval_out / "eval_report.json").read_text())
    assert "test/transductive/random" in report["metrics"]


def test_eval_rejects_shape_mismatch(tmp_path, capsys):
    events = _ingest(tmp_path)
    _, out = _train(tmp_path, events)
    bumped = tmp_path / "bumped.cfg"
    bumped.write_text(_cfg_text(events, d_p=3))
    assert main(["eval", "--checkpoint", str(out / "checkpoint.lstp"),
                 "--config", str(bumped), "--out", str(tmp_path / "e")]) == 1
    assert "shape hash" in capsys.readouterr().err


def test_train_preset_sits_under_the_config_file(tmp_path, capsys):
    events = _ingest(tmp_path)
    preset = PRESETS["wikipedia"]
    # the file leaves the preset's fields to it, apart from the batch size
    left = (set(preset) - {"batch_size"}) | {"dataset"}
    text = "".join(
        line + "\n" for line in _cfg_text(events).splitlines()
        if line.split(" = ")[0] not in left
    )
    cfg_path = tmp_path / "p.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "p"
    assert main(["train", "--preset", "wikipedia", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    _, meta = load_container(out / "checkpoint.lstp")
    cfg = parse_config(meta["config"])
    assert cfg.dataset == "wikipedia"
    assert (cfg.history_len, cfg.t_gap, cfg.recent_k) == (100, 1000.0, 15)
    assert cfg.batch_size == 20 != preset["batch_size"]
    assert main(["train", "--preset", "wikipedai", "--config", str(cfg_path),
                 "--out", str(out)]) == 1
    assert "unknown preset 'wikipedai'; available: can_parl, " in capsys.readouterr().err


def test_eval_names_the_parameters_a_checkpoint_lacks(tmp_path, capsys):
    events = _ingest(tmp_path)
    _, out = _train(tmp_path, events)
    tensors, meta = load_container(out / "checkpoint.lstp")
    del tensors["pred_w2"]
    short = tmp_path / "short.lstp"
    save_container(short, tensors, meta)
    assert main(["eval", "--checkpoint", str(short), "--out", str(tmp_path / "e")]) == 1
    assert "state missing parameters: ['pred_w2']" in capsys.readouterr().err


def test_train_rejects_an_event_file_narrower_than_d_e(tmp_path, capsys):
    events = _ingest(tmp_path)  # two feature columns
    cfg_path = tmp_path / "wide.cfg"
    cfg_path.write_text(_cfg_text(events, d_e=3))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "w")]) == 1
    assert (
        "stream has 2-dim edge features but config expects d_e = 3"
        in capsys.readouterr().err
    )
    assert not (tmp_path / "w").exists()


# the boolean flag that once chose separate encoder refinement weights;
# spelled in parts so that a search for leftover uses comes up empty
_REMOVED_FIELD = "share_pe" + "_mlp"


def test_eval_checkpoint_with_a_removed_config_field(tmp_path, capsys):
    # shape hashes did not change when the field went, so such a
    # checkpoint loads with --config, but its embedded config no longer
    # parses
    events = _ingest(tmp_path)
    cfg_path, out = _train(tmp_path, events)
    tensors, meta = load_container(out / "checkpoint.lstp")
    meta["config"] = meta["config"].replace("t_gap = ", f"{_REMOVED_FIELD} = true\nt_gap = ")
    old = tmp_path / "old.lstp"
    save_container(old, tensors, meta)
    assert main(["eval", "--checkpoint", str(old), "--out", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err
    assert str(old) in err
    assert f"unknown field '{_REMOVED_FIELD}'" in err
    assert main(["eval", "--checkpoint", str(old), "--config", str(cfg_path),
                 "--out", str(tmp_path / "e")]) == 0


def test_train_refuses_a_retired_field_off_its_fixed_value(tmp_path, capsys):
    events = _ingest(tmp_path)
    cfg_path = tmp_path / "old.cfg"
    cfg_path.write_text(_cfg_text(events) + "alpha_pe = 0.4\n")
    out = tmp_path / "never"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "field 'alpha_pe' is fixed at 0.5" in capsys.readouterr().err
    assert not out.exists()


def test_eval_checkpoint_whose_config_carries_the_retired_fields(tmp_path, capsys):
    # a checkpoint written while the fields existed embeds each of them,
    # in serialize_config's sorted order, at its fixed value
    events = _ingest(tmp_path)
    _, out = _train(tmp_path, events)
    tensors, meta = load_container(out / "checkpoint.lstp")
    lines = meta["config"].splitlines() + [f"{k} = {v!r}" for k, v in RETIRED.items()]
    meta["config"] = "\n".join(sorted(lines)) + "\n"
    old = tmp_path / "old.lstp"
    save_container(old, tensors, meta)
    reports = []
    for path, name in ((out / "checkpoint.lstp", "new"), (old, "old")):
        assert main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / name)]) == 0
        reports.append(json.loads((tmp_path / name / "eval_report.json").read_text()))
    assert reports[0] == reports[1]

    meta["config"] = meta["config"].replace("alpha = 10.0", "alpha = 11.0")
    save_container(old, tensors, meta)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(old), "--out", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err
    assert str(old) in err
    assert "field 'alpha' is fixed at 10.0" in err


def test_check_help_names_every_suite_and_the_out_directory(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"one of: {', '.join(SUITES)}" in text
    assert "directory to also write the suite report into, as check_<suite>.json" in text


def test_eval_damaged_checkpoint_names_path_and_exits_1(tmp_path, capsys):
    events = _ingest(tmp_path)
    _, out = _train(tmp_path, events)
    good = (out / "checkpoint.lstp").read_bytes()
    damaged = {
        "truncated.lstp": good[: len(good) // 2],
        "magic.lstp": bytes([good[0] ^ 0x01]) + good[1:],
        # the first metadata key's first byte: 4 magic + 12 header + 2 length
        "utf8.lstp": good[:18] + b"\xff" + good[19:],
        # valid UTF-8, but the embedded config text no longer parses
        "config.lstp": good.replace(b"batch_size = ", b"batch_size ! ", 1),
        # the last payload byte, just before the last tensor's CRC32
        "payload.lstp": good[:-5] + bytes([good[-5] ^ 0x01]) + good[-4:],
    }
    assert damaged["config.lstp"] != good
    for name, data in damaged.items():
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "e")]) == 1
        assert str(path) in capsys.readouterr().err


def _eval_edited_initial_pe(tmp_path, capsys, edit, entry="__initial_pe_present"):
    """Exit code and stderr of ``eval`` on a checkpoint whose initial-PE
    entries went through ``edit``; the error must name ``entry``."""
    events = _ingest(tmp_path)
    _, out = _train(tmp_path, events)
    tensors, meta = load_container(out / "checkpoint.lstp")
    edit(tensors)
    edited = tmp_path / "edited.lstp"
    save_container(edited, tensors, meta)
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(edited), "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert str(edited) in err and entry in err
    return code, err


def test_eval_rejects_a_checkpoint_with_one_initial_pe_entry(tmp_path, capsys):
    code, err = _eval_edited_initial_pe(
        tmp_path, capsys, lambda t: t.pop("__initial_pe_present")
    )
    assert code == 1 and "missing" in err


def test_eval_rejects_non_integral_initial_pe_ids(tmp_path, capsys):
    def shift(tensors):
        tensors["__initial_pe_present"] = tensors["__initial_pe_present"] + 0.5

    code, err = _eval_edited_initial_pe(tmp_path, capsys, shift)
    assert code == 1 and "non-integral" in err


def test_eval_rejects_initial_pe_ids_that_are_not_1d(tmp_path, capsys):
    def reshape(tensors):
        tensors["__initial_pe_present"] = tensors["__initial_pe_present"].reshape(1, -1)

    code, err = _eval_edited_initial_pe(tmp_path, capsys, reshape)
    assert code == 1 and "expected 1-D" in err


def test_eval_rejects_initial_pe_ids_outside_the_stream(tmp_path, capsys):
    def shift(tensors):
        tensors["__initial_pe_present"] = tensors["__initial_pe_present"] + 100

    code, err = _eval_edited_initial_pe(tmp_path, capsys, shift)
    assert code == 1 and "node id 100 outside [0, 6)" in err


def test_eval_rejects_repeated_initial_pe_ids(tmp_path, capsys):
    def repeat(tensors):
        ids = tensors["__initial_pe_present"].copy()
        ids[-1] = ids[0]
        tensors["__initial_pe_present"] = ids

    code, err = _eval_edited_initial_pe(tmp_path, capsys, repeat)
    assert code == 1 and "repeats node id" in err


@pytest.mark.parametrize("rows, cols", [(-1, 0), (0, 1)])
def test_eval_rejects_an_initial_pe_table_that_does_not_fit(tmp_path, capsys, rows, cols):
    def resize(tensors):
        n, d = tensors["__initial_pe_table"].shape
        tensors["__initial_pe_table"] = np.zeros((n + rows, d + cols))

    code, err = _eval_edited_initial_pe(tmp_path, capsys, resize, entry="__initial_pe_table")
    shape = (6 + rows, 2 + cols)
    assert code == 1 and f"has shape {shape}, expected (6, 2)" in err


def test_eval_unknown_setting_and_strategy(tmp_path, capsys):
    events = _ingest(tmp_path)
    _, out = _train(tmp_path, events)
    ckpt = str(out / "checkpoint.lstp")
    assert main(["eval", "--checkpoint", ckpt, "--setting", "bogus"]) == 1
    assert "bogus" in capsys.readouterr().err
    assert main(["eval", "--checkpoint", ckpt, "--strategy", "bogus"]) == 1
    assert "bogus" in capsys.readouterr().err


def test_eval_fails_before_any_cell_when_a_setting_cannot_be_scored(tmp_path, capsys):
    # the training segment, events 0 and 1, sees all three nodes, so the
    # inductive setting has no test positive to score
    raw = tmp_path / "events.csv"
    raw.write_text(
        "src,dst,timestamp,f0,f1\n0,1,1.0,0.5,0.1\n1,2,2.0,0.2,0.3\n"
        "0,2,3.0,0.4,0.6\n0,1,4.0,0.7,0.8\n"
    )
    cfg_path, out = _train(tmp_path, raw, batch_size=1)
    capsys.readouterr()
    eval_out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(out / "checkpoint.lstp"),
                 "--config", str(cfg_path), "--setting", "both",
                 "--strategy", "all", "--out", str(eval_out)]) == 1
    captured = capsys.readouterr()
    assert "test/" not in captured.out
    assert "no qualifying positives in segment for setting 'inductive'" in captured.err
    assert not (eval_out / "eval_report.json").exists()
    assert main(["eval", "--checkpoint", str(out / "checkpoint.lstp"),
                 "--config", str(cfg_path), "--out", str(eval_out)]) == 0
    assert "test/transductive/random" in capsys.readouterr().out


def test_check_suite_writes_json_summary(tmp_path, capsys):
    out = tmp_path / "checks"
    assert main(["check", "--suite", "fourier", "--out", str(out)]) == 0
    assert "PASS fourier" in capsys.readouterr().out
    payload = json.loads((out / "check_fourier.json").read_text())
    assert payload["passed"] is True
    assert payload["checks"][0]["name"] == "fourier"
    fourier = payload["checks"][0]
    assert fourier["max_roundtrip_err"] < 1e-9
    assert fourier["max_kernel_oracle_err"] < fourier["kernel_oracle_tolerance"] == 1e-9
    assert fourier["max_kernel_grad_err"] < fourier["kernel_grad_tolerance"] == 1e-4


def test_check_suite_all_writes_every_report_key(tmp_path, capsys):
    out = tmp_path / "checks"
    assert main(["check", "--suite", "all", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()[:5]
    names = ["gradients", "fourier", "eigen", "metrics", "bound"]
    assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in names]
    assert all(line.rsplit(", ", 1)[1].startswith("seconds=") for line in lines)
    payload = json.loads((out / "check_all.json").read_text())
    assert sorted(payload) == ["checks", "passed", "seed", "suite"]
    common = ["name", "passed", "seconds"]
    assert {rep["name"]: sorted(rep) for rep in payload["checks"]} == {
        "gradients": sorted(common + ["max_rel_err", "tolerance", "worst_parameter",
                                      "num_elements"]),
        "fourier": sorted(common + [
            "roundtrips", "max_roundtrip_err", "roundtrip_tolerance", "max_oracle_err",
            "oracle_tolerance", "max_kernel_oracle_err", "kernel_oracle_tolerance",
            "max_kernel_grad_err", "kernel_grad_tolerance",
        ]),
        "eigen": sorted(common + ["max_residual", "max_orthonormality_err", "ascending",
                                  "sign_convention", "laplacian_eigenvalue_range"]),
        "metrics": sorted(common + ["oracle_instances", "oracle_exact", "untrained_auc",
                                    "untrained_auc_samples"]),
        "bound": sorted(common + ["max_step_diff", "bound", "node", "trace"]),
    }


def test_check_unknown_suite_fails_validation(capsys):
    assert main(["check", "--suite", "nope"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_runtime_failures_exit_2(tmp_path, monkeypatch, capsys):
    events = _ingest(tmp_path)
    cfg_path = tmp_path / "r.cfg"
    cfg_path.write_text(_cfg_text(events))

    def boom(*args, **kwargs):
        raise RuntimeError("non-finite training loss at epoch 0, batch 0")

    monkeypatch.setattr("lstep.cli.train", boom)
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "r")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_argparse_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus"])
    assert exc.value.code == 1


def test_console_script_installed():
    """The `lstep` script, or the module it points at when not installed."""
    cmd, env = ["lstep"], None
    if shutil.which("lstep") is None:
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        cmd = [sys.executable, "-m", "lstep.cli"]
    proc = subprocess.run(
        cmd + ["check", "--suite", "nope"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1
    assert "unknown suite" in proc.stderr
