"""Training loop behavior: determinism, learning, early stop, replay."""
import contextlib
import json
from dataclasses import fields, replace

import numpy as np
import pytest

import lstep.events as events
import lstep.training as training
from lstep.autodiff import GradientTape, Tensor
from lstep.checks import tape_nodes_per_batch
from lstep.config import RunConfig, parse_config
from lstep.events import EventStream, batch_iter, chronological_split
from lstep.lpe import PositionalStore, approximate_pe
from lstep.model import ModelDims, init_model_params
from lstep.peinit import random_walk_pe, zero_pe
from lstep.sampling import NegativeSampler
from lstep.synthetic import make_periodic_stream, make_random_stream, make_static_stream
from lstep.timeenc import time_encode
from lstep.training import (
    EvalReport,
    build_initial_pe,
    collect_pe_trace,
    evaluate,
    evaluate_cells,
    train,
    write_loss_csv,
)

TINY = parse_config(
    """
    d_t = 4
    d_n = 6
    d_e = 6
    d_p = 4
    history_len = 4
    t_gap = 12.0
    recent_k = 2
    batch_size = 10
    lr = 0.002
    max_epochs = 2
    patience = 10
    """
)


def _tiny_stream():
    return make_periodic_stream(num_pairs=3, num_events=80, d_n=6, d_e=6)


def test_two_runs_are_bit_identical():
    results = []
    for _ in range(2):
        s = _tiny_stream()
        res = train(s, chronological_split(s), TINY)
        results.append(res)
    a, b = results
    assert a.report.loss_rows == b.report.loss_rows
    assert a.report.epoch_val_ap == b.report.epoch_val_ap
    for name in a.params.tensors:
        assert np.array_equal(
            a.params.tensors[name].data, b.params.tensors[name].data
        ), name


def test_seed_changes_the_run():
    s = _tiny_stream()
    a = train(s, chronological_split(s), TINY)
    b = train(s, chronological_split(s), parse_config("seed = 1", base=TINY))
    assert a.report.loss_rows != b.report.loss_rows


def test_loss_decreases_on_learnable_stream():
    s = make_periodic_stream(num_pairs=3, num_events=120, d_n=6, d_e=6)
    cfg = parse_config("max_epochs = 8\nlr = 0.01", base=TINY)
    res = train(s, chronological_split(s), cfg)
    losses = res.report.epoch_train_loss
    assert len(losses) == 8
    assert losses[-1] < losses[0]


def test_report_bookkeeping():
    s = _tiny_stream()
    res = train(s, chronological_split(s), TINY)
    r = res.report
    assert r.epochs_run == 2
    assert len(r.epoch_val_ap) == 2
    assert 0 <= r.best_epoch < 2
    assert "val/transductive/random" in r.metrics
    assert 0.0 <= r.metrics["val/transductive/random"]["ap"] <= 1.0
    assert r.train_seconds > 0.0
    assert r.config_hash
    # loss rows cover every (epoch, batch) pair once
    seen = {(e, b) for e, b, _ in r.loss_rows}
    assert len(seen) == len(r.loss_rows)
    assert all(np.isfinite(v) for _, _, v in r.loss_rows)


def test_report_hash_covers_every_field_but_the_loss_rows_and_wall_time():
    report = EvalReport(
        "d", 3, "abc", metrics={"x": {"ap": 0.5}}, epoch_train_loss=[0.1], epoch_val_ap=[0.2],
        loss_rows=[(0, 0, 0.3)], best_epoch=0, epochs_run=1, bound_check={"b": 1.0},
        train_seconds=2.5,
    )
    assert report.content_hash() == "93d3fdc0fbdb8e33"
    payload = json.loads(report.to_json())
    names = {f.name for f in fields(EvalReport)}
    assert set(payload) == (names - {"loss_rows"}) | {"report_hash"}
    assert payload["report_hash"] == report.content_hash()
    assert replace(report, loss_rows=[], train_seconds=9.0).content_hash() == "93d3fdc0fbdb8e33"
    for name in names - {"loss_rows", "train_seconds", "environment"}:
        assert replace(report, **{name: None}).content_hash() != report.content_hash(), name


def test_report_records_its_environment_outside_the_hash(monkeypatch):
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        reports.append(EvalReport("d", 0, "abc", metrics={"x": {"ap": 0.5}}))
    assert [r.environment["OPENBLAS_NUM_THREADS"] for r in reports] == ["1", "2"]
    assert reports[0].content_hash() == reports[1].content_hash()


def test_early_stopping_restores_best_parameters(monkeypatch):
    script = iter([0.5, 0.9, 0.4, 0.3, 0.2, 0.1])
    snapshots = {}

    def fake_run(stream, store, params, cfg, *rest, cells, **kw):
        # the validation pass scores its one cell, which reports ``ap``
        ap = next(script)
        snapshots[ap] = params.state_arrays()
        cells[0].metrics = lambda: (ap, 0.5, 0)
        return []
    monkeypatch.setattr(training, "_run_segment", fake_run)

    s = _tiny_stream()
    cfg = parse_config("max_epochs = 40\npatience = 2", base=TINY)
    res = train(s, chronological_split(s), cfg)
    # best at epoch 1; epochs 2,3,4 are bad (> patience) so epoch 4 breaks
    assert res.report.best_epoch == 1
    assert res.report.epochs_run == 5
    assert res.report.epoch_val_ap == [0.5, 0.9, 0.4, 0.3, 0.2]
    for name, arr in snapshots[0.9].items():
        assert np.array_equal(res.params.tensors[name].data, arr), name


def test_non_finite_loss_aborts_with_location(monkeypatch):
    def nan_loss(l_lp, l_pe, alpha_pe=0.5):
        return Tensor(np.asarray(np.nan))

    monkeypatch.setattr(training, "total_loss", nan_loss)
    s = _tiny_stream()
    with pytest.raises(RuntimeError, match="epoch 0, batch 0"):
        train(s, chronological_split(s), TINY)


def test_train_validates_config():
    s = _tiny_stream()
    with pytest.raises(ValueError, match="'history_len'"):
        train(s, chronological_split(s), RunConfig())


@pytest.mark.parametrize("key, what", [("d_n", "node"), ("d_e", "edge")])
def test_train_and_evaluate_refuse_a_stream_of_other_feature_widths(key, what):
    s = make_periodic_stream(num_pairs=3, num_events=80, **{"d_n": 6, "d_e": 6, key: 8})
    split = chronological_split(s)
    message = f"stream has 8-dim {what} features but config expects {key} = 6"
    with pytest.raises(ValueError, match=message):
        train(s, split, TINY)
    params = init_model_params(ModelDims.from_config(TINY), seed=0)
    with pytest.raises(ValueError, match=message):
        evaluate_cells(
            s, split, params, TINY, [("transductive", "random")],
            initial_pe=zero_pe(s.num_nodes, TINY.d_p),
        )


def test_train_refuses_an_empty_validation_segment_before_any_batch(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("train ran a batch with no validation segment")

    monkeypatch.setattr(training, "_batch_forward", no_work)
    # 70% of 3 events is 2 and 85% is 2: validation [2, 2) is empty
    s = make_static_stream([(0, 1), (1, 2), (0, 2)], num_steps=1, d_n=6, d_e=6)
    split = chronological_split(s)
    assert split.val_range == (2, 2)
    with pytest.raises(ValueError, match=r"^empty validation segment: events \[2, 2\) of 3$"):
        train(s, split, TINY)


@pytest.mark.parametrize("pe_init", ["random_walk", "zero"])
def test_train_builds_the_initial_pe_its_config_names(pe_init):
    s = _tiny_stream()
    split = chronological_split(s)
    cfg = parse_config(f"pe_init = {pe_init}\nmax_epochs = 1", base=TINY)
    result = train(s, split, cfg)
    snapshot = np.arange(TINY.batch_size)  # the first training batch
    if pe_init == "zero":
        want = zero_pe(s.num_nodes, TINY.d_p)
    else:
        want = random_walk_pe(s.src[snapshot], s.dst[snapshot], s.num_nodes, TINY.d_p)
    assert result.initial_pe.method == pe_init
    assert np.array_equal(result.initial_pe.table, want.table)
    assert np.array_equal(result.initial_pe.present, want.present)
    assert np.isfinite(result.report.epoch_train_loss).all()
    with pytest.raises(ValueError, match="unknown pe_init 'spectral'"):
        build_initial_pe(s, split, replace(cfg, pe_init="spectral"))


def test_pass_through_configuration_is_a_fixed_point():
    # identity filter + last-column pool + zero update MLP: the encoding
    # committed each step equals the initial snapshot row forever
    edges = [(0, 1), (1, 2), (2, 3)]
    s = make_static_stream(edges, num_steps=12, d_n=6, d_e=6)
    cfg = parse_config("batch_size = 3\nd_p = 4\nlr = 0.0", base=TINY)
    dims = ModelDims.from_config(cfg)
    params = init_model_params(dims, seed=0)
    for name in ("pe_w1", "pe_w2", "pe_w_self"):
        params.tensors[name].data[:] = 0.0
    params.tensors["pe_sum_pool"].data[:] = 0.0
    params.tensors["pe_sum_pool"].data[-1, 0] = 1.0

    split = chronological_split(s, (0.5, 0.25, 0.25))
    initial = build_initial_pe(s, split, cfg)
    trace = collect_pe_trace(s, params, cfg, np.array([1]), initial_pe=initial)
    assert trace.shape == (12, 1, 4)
    for row in trace[:, 0]:
        assert np.array_equal(row, initial.table[1])


def test_evaluate_reports_sane_metrics():
    s = _tiny_stream()
    split = chronological_split(s)
    res = train(s, split, TINY)
    ap, auc, fallbacks = evaluate(s, split, res.params, TINY, initial_pe=res.initial_pe)
    assert 0.0 <= ap <= 1.0
    assert 0.0 <= auc <= 1.0
    assert fallbacks >= 0


def test_phase_table_is_built_once_per_stream_and_width(monkeypatch):
    """Not at load: a train call and two evaluate calls on one stream
    build its phase table once, and another d_t builds its own."""
    built = []
    real = events.phase_table

    def counted(ts, d_t):
        built.append(d_t)
        return real(ts, d_t)

    monkeypatch.setattr(events, "phase_table", counted)
    s = _tiny_stream()
    split = chronological_split(s)
    initial = build_initial_pe(s, split, TINY)
    assert built == []
    res = train(s, split, parse_config("max_epochs = 1", base=TINY))
    for strategy in ("random", "historical"):
        evaluate(s, split, res.params, TINY, strategy=strategy, initial_pe=initial)
    assert built == [TINY.d_t]
    assert s.phase_rows(TINY.d_t) is s.phase_rows(TINY.d_t)
    wide = s.phase_rows(8)
    assert built == [TINY.d_t, 8] and wide.shape == (s.num_events, 16)


def test_evaluate_inductive_requires_new_node_positives():
    # every node appears during training, so no test event qualifies
    s = _tiny_stream()
    split = chronological_split(s)
    res = train(s, split, parse_config("max_epochs = 1", base=TINY))
    assert not split.new_nodes
    with pytest.raises(ValueError, match="no qualifying positives"):
        evaluate(
            s, split, res.params, TINY, setting="inductive",
            initial_pe=res.initial_pe,
        )


def test_evaluate_rejects_unknown_arguments_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("evaluate started work on bad arguments")

    monkeypatch.setattr(training, "_run_segment", no_work)
    s = _tiny_stream()
    split = chronological_split(s)
    params = init_model_params(ModelDims.from_config(TINY), seed=0)
    initial = build_initial_pe(s, split, TINY)
    with pytest.raises(ValueError, match="unknown setting"):
        evaluate(s, split, params, TINY, setting="semi", initial_pe=initial)
    with pytest.raises(ValueError, match="unknown strategy"):
        evaluate(s, split, params, TINY, strategy="historic", initial_pe=initial)
    assert not split.new_nodes  # so no test positive qualifies as inductive
    with pytest.raises(ValueError, match="no qualifying positives"):
        evaluate(s, split, params, TINY, setting="inductive", initial_pe=initial)
    # a cell list is checked whole: its good cells start no work either
    good = [("transductive", "random"), ("transductive", "historical")]
    for bad, match in [(("semi", "random"), "unknown setting"),
                       (("transductive", "historic"), "unknown strategy"),
                       (("inductive", "random"), "no qualifying positives")]:
        with pytest.raises(ValueError, match=match):
            evaluate_cells(s, split, params, TINY, good + [bad], initial_pe=initial)


def test_evaluate_cells_refuses_an_empty_cell_list_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("evaluate_cells started work on no cells")

    monkeypatch.setattr(training, "PositionalStore", no_work)
    monkeypatch.setattr(training, "_run_segment", no_work)
    s = _tiny_stream()
    split = chronological_split(s)
    params = init_model_params(ModelDims.from_config(TINY), seed=0)
    initial = build_initial_pe(s, split, TINY)
    for cells in ([], (), iter([])):
        with pytest.raises(ValueError, match=r"at least one .* cell, got cells=\[\]"):
            evaluate_cells(s, split, params, TINY, cells, initial_pe=initial)


def test_one_replay_for_all_cells_scores_each_cell_as_alone(monkeypatch):
    s = make_periodic_stream(num_pairs=4, num_events=120, holdout_pairs=1, d_n=6, d_e=6)
    split = chronological_split(s)
    assert split.new_nodes
    res = train(s, split, TINY)
    assert not np.all(res.params.tensors["filter_real"].data == 1.0)  # off the identity
    cells = [(setting, strategy) for setting in training.SETTINGS
             for strategy in ("random", "historical", "inductive")]
    seen = {"scores": [], "commits": 0}
    real_ap, real_commit = training.average_precision, PositionalStore.commit

    def ap(scores, labels):
        seen["scores"].append(np.array(scores))
        return real_ap(scores, labels)

    def commit(store, nodes, vecs):
        seen["commits"] += 1
        return real_commit(store, nodes, vecs)

    monkeypatch.setattr(training, "average_precision", ap)
    monkeypatch.setattr(PositionalStore, "commit", commit)

    def run(cell_list):
        seen["scores"], seen["commits"] = [], 0
        out = evaluate_cells(s, split, res.params, TINY, cell_list, 3, initial_pe=res.initial_pe)
        return out, seen["scores"], seen["commits"]

    alone = [run([cell]) for cell in cells]
    shared, scores, commits = run(cells)
    assert shared == [metrics for (metrics,), _, _ in alone]
    for got, (_, (want,), _) in zip(scores, alone):
        assert got.tobytes() == want.tobytes()
    last = evaluate(s, split, res.params, TINY, *cells[-1], 3, initial_pe=res.initial_pe)
    assert last == shared[-1]
    # the reset, then one commit per batch of the replay and of the scoring
    batches = sum(
        len(list(batch_iter(lo, hi, TINY.batch_size)))
        for lo, hi in [(0, split.val_end), split.test_range]
    )
    assert commits == 1 + batches
    assert all(n == commits for _, _, n in alone)


def test_six_cells_run_one_forward_per_batch(monkeypatch):
    s = make_periodic_stream(num_pairs=4, num_events=120, holdout_pairs=1, d_n=6, d_e=6)
    split = chronological_split(s)
    res = train(s, split, TINY)
    cells = [(setting, strategy) for setting in training.SETTINGS
             for strategy in ("random", "historical", "inductive")]
    alone = [evaluate(s, split, res.params, TINY, *cell, 3, initial_pe=res.initial_pe)
             for cell in cells]
    calls = {"forward": [], "filter": 0, "window": 0}
    forward, contract = training._batch_forward, training.approximate_pe
    window = EventStream.recent_interactions_inclusive

    def counted_forward(stream, store, params, cfg, batch, scoring=(), *args, **kwargs):
        calls["forward"].append(len(scoring))
        return forward(stream, store, params, cfg, batch, scoring, *args, **kwargs)

    def counted_filter(*args, **kwargs):
        calls["filter"] += 1
        return contract(*args, **kwargs)

    def counted_window(*args, **kwargs):
        calls["window"] += 1
        return window(*args, **kwargs)

    monkeypatch.setattr(training, "_batch_forward", counted_forward)
    monkeypatch.setattr(training, "approximate_pe", counted_filter)
    monkeypatch.setattr(EventStream, "recent_interactions_inclusive", counted_window)
    shared = evaluate_cells(s, split, res.params, TINY, cells, 3, initial_pe=res.initial_pe)
    assert shared == alone
    replay = len(list(batch_iter(0, split.val_end, TINY.batch_size)))
    scoring = len(list(batch_iter(*split.test_range, TINY.batch_size)))
    assert len(calls["forward"]) == calls["filter"] == calls["window"] == replay + scoring
    # the replay scores nothing; each scoring batch scores every cell
    # with a qualifying positive in one forward
    assert calls["forward"][:replay] == [0] * replay
    assert max(calls["forward"][replay:]) == len(cells)


def test_write_loss_csv_round_trips_floats(tmp_path):
    rows = [(0, 0, 0.6931471805599453), (0, 1, 1.25e-7), (1, 0, 3.0)]
    p = tmp_path / "loss.csv"
    write_loss_csv(p, rows)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "epoch,batch,loss"
    parsed = []
    for line in lines[1:]:
        e, b, v = line.split(",")
        parsed.append((int(e), int(b), float(v)))
    assert parsed == rows


def _full_store(stream, cfg):
    """A store with all L slots for every node, whatever its events: the
    program's stores, sized by the events, must read the same."""
    return PositionalStore(np.full(stream.num_nodes, cfg.history_len), cfg.d_p, cfg.history_len)


def test_commit_reads_pre_step_encodings_and_post_step_weights(monkeypatch):
    # lr is large so that one Adam step moves every weight visibly
    cfg = parse_config("lr = 0.5\nmax_epochs = 1", base=TINY)
    s = _tiny_stream()
    split = chronological_split(s)
    seen = {}
    real_adam, real_commit = training.adam_step, PositionalStore.commit

    def adam(state, tensors, grads):
        if "pre" not in seen:
            seen["pre"] = {n: t.data.copy() for n, t in tensors.items()}
        out = real_adam(state, tensors, grads)
        seen.setdefault("post", {n: t.data.copy() for n, t in tensors.items()})
        return out

    def commit(store, nodes, vecs):
        # the first store commit is the reset, the second the first batch's
        seen.setdefault("commits", []).append((nodes.copy(), vecs.copy()))
        return real_commit(store, nodes, vecs)

    monkeypatch.setattr(training, "adam_step", adam)
    monkeypatch.setattr(PositionalStore, "commit", commit)
    train(s, split, cfg)

    initial = build_initial_pe(s, split, cfg)
    store = _full_store(s, cfg)
    store.reset(initial)
    pre, post = seen["pre"], seen["post"]
    # p~ from the pre-step filter (the identity at init) over the reset store
    params = init_model_params(ModelDims.from_config(cfg), seed=cfg.seed)
    params.load_state_arrays(pre)
    p_tilde = approximate_pe(store.history_matrix(np.arange(s.num_nodes)), params.tensors).data
    batch = np.arange(cfg.batch_size)
    t_c = s.ts[batch].max()
    nodes, stored = seen["commits"][1]
    assert nodes.tolist() == sorted(set(s.src[batch]) | set(s.dst[batch]))

    def formula(w, node):
        tau, nbr = np.zeros(cfg.d_t), np.zeros(cfg.d_p)
        touching = [i for i in range(batch[-1] + 1) if node in (s.src[i], s.dst[i])]
        for i in touching[-cfg.recent_k:]:
            tau += time_encode(t_c - s.ts[i], cfg.d_t)
            nbr += p_tilde[s.dst[i] if s.src[i] == node else s.src[i]]
        hidden = w["pe_w2"] @ np.maximum(w["pe_w1"] @ np.concatenate([tau, nbr]), 0.0)
        return p_tilde[node] + np.tanh(w["pe_w_self"] @ p_tilde[node] + hidden)

    for node, vec in zip(nodes.tolist(), stored):
        assert np.max(np.abs(vec - formula(post, node))) < 1e-12
        assert np.max(np.abs(vec - formula(pre, node))) > 1e-6


def test_layer_hooks_run_once_per_batch(monkeypatch):
    # the benchmark's tracer counts these names as training looks them
    # up; a batch that went around them would read zero there unnoticed
    calls = {"approximate_pe": 0, "commit_pe": 0, "commit": 0, "reset": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    for owner, name in [(training, "approximate_pe"), (training, "commit_pe"),
                        (PositionalStore, "commit"), (PositionalStore, "reset")]:
        counted(owner, name)
    s = _tiny_stream()
    split = chronological_split(s)
    res = train(s, split, TINY)
    per_epoch = sum(
        len(list(batch_iter(*seg, TINY.batch_size)))
        for seg in (split.train_range, split.val_range)
    )
    batches = res.report.epochs_run * per_epoch
    assert batches > 0
    assert calls["approximate_pe"] == calls["commit_pe"] == batches
    # every epoch's reset commits the initial rows once
    assert calls["reset"] == res.report.epochs_run
    assert calls["commit"] == batches + calls["reset"]


def test_commit_window_time_sums_run_inside_the_commit(monkeypatch):
    # the tracer's commit layer is training.commit_pe, so the commit
    # windows' time-encoding sums must run inside it, once per batch
    calls = {"commit_pe": 0, "inside": 0, "outside": 0}
    depth = [0]
    real_commit, real_tau = training.commit_pe, training.window_tau

    def commit(*args, **kwargs):
        calls["commit_pe"] += 1
        depth[0] += 1
        try:
            return real_commit(*args, **kwargs)
        finally:
            depth[0] -= 1

    def tau(*args, **kwargs):
        calls["inside" if depth[0] else "outside"] += 1
        return real_tau(*args, **kwargs)

    monkeypatch.setattr(training, "commit_pe", commit)
    monkeypatch.setattr(training, "window_tau", tau)
    s = _tiny_stream()
    split = chronological_split(s)

    def batches(*ranges):
        return sum(len(list(batch_iter(*r, TINY.batch_size))) for r in ranges)

    res = train(s, split, TINY)
    n = res.report.epochs_run * batches(split.train_range, split.val_range)
    assert n > 0
    assert calls == {"commit_pe": n, "inside": n, "outside": 0}
    calls.update(dict.fromkeys(calls, 0))
    evaluate_cells(
        s, split, res.params, TINY, [("transductive", "random"), ("transductive", "historical")],
        initial_pe=res.initial_pe,
    )
    n = batches((0, split.val_end), split.test_range)
    assert calls == {"commit_pe": n, "inside": n, "outside": 0}


def test_tape_length_does_not_grow_with_batch_size():
    # B = n / 5: training batches of 10, 40 and 100 events; one
    # filter_kernel op builds each batch's (d_p, L) kernel
    sizes = [tape_nodes_per_batch(n) for n in (50, 200, 500)]
    assert sizes[0] == sizes[1] == sizes[2] == 59


def _store_arrays(store):
    """Every node's history and the store's commit counts, copied; the
    histories are as wide as the fullest node's, so every written slot
    is in them."""
    return store.history_matrix(np.arange(store.num_nodes)), store._commits.copy()


def _scores_and_store(stream, split, store, params, start):
    """Score and commit every batch from ``start`` on; the link
    probabilities in order, and the store's arrays afterwards."""
    sampler = NegativeSampler(stream, split, "random", seed=3)
    probs = []
    for _, batch in batch_iter(start, stream.num_events, TINY.batch_size):
        neg = sampler.sample(batch)
        fwd = training._batch_forward(stream, store, params, TINY, batch, [(batch, neg)])
        (pos, neg_probs), = fwd.scores
        probs.append(np.concatenate([pos.data, neg_probs.data], axis=1))
        training.commit_pe(stream, store, params, TINY, fwd)
    return np.concatenate(probs), _store_arrays(store)


def test_store_restore_mid_stream_replays_the_same_scores():
    s = _tiny_stream()
    split = chronological_split(s)
    result = train(s, split, TINY)
    mid = 5 * TINY.batch_size  # three batches remain, so rings do not wrap back (L = 4)
    runs = []
    for _ in range(2):
        # a fresh store brought to the mid-stream state by replay
        store = _full_store(s, TINY)
        store.reset(result.initial_pe)
        training._run_segment(s, store, result.params, TINY, 0, mid)
        runs.append((_store_arrays(store),) + _scores_and_store(s, split, store, result.params, mid))
    (mid_a, first, after_a), (mid_b, second, after_b) = runs
    for got, want in zip(mid_b + after_b, mid_a + after_a):
        assert np.array_equal(got, want)
    assert np.array_equal(first, second)
    assert not np.array_equal(mid_a[0], after_a[0])  # the rest did commit


def _commit_window(stream, cfg, batch):
    params = init_model_params(ModelDims.from_config(cfg), seed=0)
    store = _full_store(stream, cfg)
    fwd = training._batch_forward(stream, store, params, cfg, batch)
    return fwd.touched, fwd.window


def test_commit_window_stops_at_the_batch_end():
    # timestamps 1, 2, 2, 3 with B = 2: event 2 shares batch 0's last
    # timestamp but is batch 1's positive, so batch 0's commits skip it
    stream = EventStream(
        np.array([0, 1, 0, 1]), np.array([1, 2, 2, 2]), np.array([1.0, 2.0, 2.0, 3.0]),
        d_n=6, d_e=6,
    )
    cfg = parse_config("recent_k = 3\nbatch_size = 2", base=TINY)
    touched, window = _commit_window(stream, cfg, np.arange(2))
    assert touched.tolist() == [0, 1, 2]
    assert window.event_ids.tolist() == [[-1, -1, 0], [-1, 0, 1], [-1, -1, 1]]


def test_no_commit_window_reaches_past_its_batch(monkeypatch):
    rng = np.random.default_rng(11)
    n = 150
    # blocks of tied timestamps, most of them straddling a batch boundary
    stream = EventStream(
        rng.integers(0, 8, size=n), rng.integers(8, 14, size=n),
        np.sort(rng.integers(0, 40, size=n)).astype(np.float64), d_n=6, d_e=6,
    )
    cfg = parse_config("recent_k = 3\nbatch_size = 7\nmax_epochs = 1", base=TINY)
    ends = np.arange(cfg.batch_size, n, cfg.batch_size)
    assert np.mean(stream.ts[ends - 1] == stream.ts[ends]) > 0.5
    overreach = []
    forward = training._batch_forward

    def checked(stream, store, params, cfg, batch, *args, **kwargs):
        fwd = forward(stream, store, params, cfg, batch, *args, **kwargs)
        overreach.append(int(fwd.window.event_ids.max() - batch.max()))
        return fwd

    monkeypatch.setattr(training, "_batch_forward", checked)
    split = chronological_split(stream)
    result = train(stream, split, cfg)
    evaluate(stream, split, result.params, cfg, initial_pe=result.initial_pe)
    # training and validation, then the eval replay and test: the stream twice
    assert len(overreach) >= 2 * (n // cfg.batch_size)
    assert max(overreach) <= 0


def _fixed_params(filt):
    """A stream whose batches each touch a part of its 40 nodes, and the
    parameters of a model trained on it; with ``filt == "identity"`` the
    filter is reset to the identity, where the kernel is the pool itself."""
    s = make_random_stream(40, 120, seed=2, d_n=6, d_e=6)
    params = train(s, chronological_split(s), TINY).params
    if filt == "identity":
        params.tensors["filter_real"].data[:] = 1.0
        params.tensors["filter_imag"].data[:] = 0.0
    else:
        assert not np.all(params.tensors["filter_real"].data == 1.0)
    return s, chronological_split(s), params


def _per_batch(stream, store, params, start, end, taped, sampler=None, watch=None):
    """Run [start, end) through the per-batch forward with no frozen
    state, scoring every event against ``sampler`` if given; the
    interleaved scores, or the p~ rows of ``watch`` before each commit."""
    out = []
    for _, batch in batch_iter(start, end, TINY.batch_size):
        neg = sampler.sample(batch) if sampler else None
        with GradientTape() if taped else contextlib.nullcontext():
            fwd = training._batch_forward(
                stream, store, params, TINY, batch,
                [(batch, neg)] if sampler else (), extra=watch,
            )
        if sampler:
            (pos, neg_probs), = fwd.scores
            out.append(np.concatenate([pos.data, neg_probs.data], axis=1).reshape(-1))
        elif watch is not None:
            out.append(fwd.ptilde.data[fwd.rows(watch)])
        training.commit_pe(stream, store, params, TINY, fwd)
    return np.concatenate(out) if out else None


@pytest.mark.parametrize(
    "filt,taped", [("trained", True), ("identity", False), ("identity", True)]
)
def test_frozen_eval_equals_the_per_batch_forward(monkeypatch, filt, taped):
    s, split, params = _fixed_params(filt)
    seen = {}
    real_run, real_ap = training._run_segment, training.average_precision

    def run(stream, store, *args, **kwargs):
        # the last call is the scoring: keep the store the replay left
        seen["store"] = _store_arrays(store)
        return real_run(stream, store, *args, **kwargs)

    def ap(scores, labels):
        seen["scores"] = np.array(scores)
        return real_ap(scores, labels)

    monkeypatch.setattr(training, "_run_segment", run)
    monkeypatch.setattr(training, "average_precision", ap)
    initial = build_initial_pe(s, split, TINY)
    evaluate(s, split, params, TINY, seed=5, initial_pe=initial)

    store = _full_store(s, TINY)
    store.reset(initial)
    _per_batch(s, store, params, 0, split.val_end, taped)
    for got, want in zip(_store_arrays(store), seen["store"]):
        assert got.tobytes() == want.tobytes()
    sampler = NegativeSampler(s, split, "random", 5)
    scores = _per_batch(s, store, params, *split.test_range, taped, sampler=sampler)
    assert np.array_equal(scores, seen["scores"])


def test_frozen_replay_gathers_only_rows_committed_since_their_refresh(monkeypatch):
    s, split, params = _fixed_params("trained")
    needed, touched, gathered = [], [], []
    forward, gather = training._batch_forward, PositionalStore.history_matrix

    def recorded_forward(*args, **kwargs):
        fwd = forward(*args, **kwargs)
        needed.append(fwd.nodes.tolist())
        touched.append(fwd.touched.tolist())
        return fwd

    def recorded_gather(store, nodes):
        gathered.append(np.asarray(nodes).tolist())
        return gather(store, nodes)

    monkeypatch.setattr(training, "_batch_forward", recorded_forward)
    monkeypatch.setattr(PositionalStore, "history_matrix", recorded_gather)
    store = _full_store(s, TINY)
    store.reset(build_initial_pe(s, split, TINY))
    training._run_segment(s, store, params, TINY, 0, s.num_events)

    assert len(gathered) == len(needed) == len(list(batch_iter(0, s.num_events, TINY.batch_size)))
    assert gathered[0] == needed[0]
    refreshed, committed = {}, {}  # node -> last batch that gathered / committed it
    for k, (need, got) in enumerate(zip(needed, gathered)):
        want = [n for n in need if n not in refreshed or committed.get(n, -1) >= refreshed[n]]
        assert got == want, k
        refreshed.update((n, k) for n in want)
        committed.update((n, k) for n in touched[k])
    assert sum(map(len, gathered)) < sum(map(len, needed))


@pytest.mark.parametrize("filt", ["trained", "identity"])
def test_pe_trace_equals_the_per_batch_forward(filt):
    s, split, params = _fixed_params(filt)
    initial = build_initial_pe(s, split, TINY)
    nodes = np.array([0, s.num_nodes - 1])
    store = _full_store(s, TINY)
    store.reset(initial)
    want = _per_batch(s, store, params, 0, s.num_events, False, watch=nodes)
    got = collect_pe_trace(s, params, TINY, nodes, initial_pe=initial)
    assert got.shape == (len(want) // 2, 2, TINY.d_p)
    assert got.tobytes() == want.tobytes()
