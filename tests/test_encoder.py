"""Node, link, and fused temporal representations against hand traces."""
import tracemalloc

import numpy as np
import pytest

from lstep import encoder, timeenc
from lstep.autodiff import GradientTape, Tensor, backward, gather_rows, sum_all, tanh
from lstep.config import RunConfig
from lstep.encoder import (
    _pool_window,
    node_encoding,
    phase_pool,
    predict_link,
    temporal_representation,
    window_tau,
)
from lstep.events import EventStream
from lstep.timeenc import BLOCK, block_start, time_encode


def _stream(d_n=3, d_e=2):
    # (0,1)@1  (1,2)@2  (0,2)@3 with recognizable features
    node_features = np.arange(9.0).reshape(3, 3) if d_n == 3 else None
    edge_features = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    return EventStream(
        np.array([0, 1, 0]),
        np.array([1, 2, 2]),
        np.array([1.0, 2.0, 3.0]),
        edge_features=edge_features,
        node_features=node_features,
    )


def _params(rng, d_n=3, d_e=2, d_p=2, d_t=4, k=2):
    """The tensors the representation and predictor read, by their
    checkpoint names; p~ comes in as a table, so no filter is read."""

    def w(*shape):
        return Tensor(rng.normal(size=shape) * 0.4, learnable=True)

    # drawn in one fixed order: link, fuse, out, refinement, predictor
    return {
        "link_w1": w(d_t + d_e, d_t + d_e),
        "link_w2": w(d_t + d_e, d_t + d_e),
        "link_sum_pool": w(k, 1),
        "fuse_w": w(d_n, d_n + d_t + d_e),
        "out_w": w(d_n, d_n + d_p),
        "pe_w1": w(d_p, d_p + d_t),
        "pe_w2": w(d_p, d_p),
        "pe_w_self": w(d_p, d_p),
        "pred_w1": w(2 * d_n, d_n),
        "pred_w2": w(d_n, 1),
    }


def test_node_encoding_averages_window_neighbors():
    s = _stream()
    # at t=3.5 with gap 3: node 0 saw 1@1.0 and 2@3.0; node 2 saw 1@2.0 and 0@3.0
    got = node_encoding(s, np.array([0, 2]), np.array([3.5, 3.5]), t_gap=3.0)
    want = s.node_features[0] + (s.node_features[1] + s.node_features[2]) / 2.0
    assert np.allclose(got[0], want, atol=1e-12)
    want = s.node_features[2] + (s.node_features[1] + s.node_features[0]) / 2.0
    assert np.allclose(got[1], want, atol=1e-12)


def test_node_encoding_empty_window_is_raw_feature():
    s = _stream()
    got = node_encoding(s, np.array([0]), np.array([1.0]), t_gap=0.5)[0]
    assert np.array_equal(got, s.node_features[0])
    got[:] = -1.0  # must be a copy, not a view into the table
    assert s.node_features[0, 0] == 0.0


def _link_encoding(s, nodes, ts, p, cfg):
    """Pooled encodings of the K most recent interactions strictly before t."""
    recent = s.recent_interactions(nodes, ts, cfg.recent_k)
    return _pool_window(s, recent, ts, p, cfg)[0]


def test_link_encoding_matches_hand_trace():
    rng = np.random.default_rng(61)
    s = _stream()
    p = _params(rng)
    cfg = RunConfig(d_t=4, recent_k=2)
    t = 4.0
    got = _link_encoding(s, np.array([0]), np.array([t]), p, cfg).data[0]

    # node 0 history: (1, 1.0, event 0), (2, 3.0, event 2)
    rows = np.zeros((2, 6))
    rows[0] = np.concatenate([time_encode(3.0, cfg.d_t), s.edge_features[0]])
    rows[1] = np.concatenate([time_encode(1.0, cfg.d_t), s.edge_features[2]])
    pooled = (rows @ p["link_w1"].data).T @ p["link_sum_pool"].data.ravel()
    want = p["link_w2"].data @ np.maximum(pooled, 0.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_link_encoding_padded_rows_contribute_nothing():
    rng = np.random.default_rng(62)
    s = _stream()
    p = _params(rng, k=5)  # node 0 has only 2 interactions, 3 pads
    cfg = RunConfig(d_t=4, recent_k=5)
    got = _link_encoding(s, np.array([0]), np.array([4.0]), p, cfg).data[0]

    rows = np.zeros((5, 6))
    rows[3] = np.concatenate([time_encode(3.0, cfg.d_t), s.edge_features[0]])
    rows[4] = np.concatenate([time_encode(1.0, cfg.d_t), s.edge_features[2]])
    pooled = (rows @ p["link_w1"].data).T @ p["link_sum_pool"].data.ravel()
    want = p["link_w2"].data @ np.maximum(pooled, 0.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_window_tau_sums_time_encodings_of_real_slots():
    s = _stream()
    cfg = RunConfig(d_t=4)
    # at t = 3: node 0's window holds events 0 (t = 1) and 2 (t = 3) after
    # one pad; node 1's holds events 0 and 1 (t = 2), and node 2 events 1
    # and 2; event 2's encoding at its own time is all ones
    window = s.recent_interactions_inclusive(np.array([0, 1, 2]), 3, 3)
    assert (window.event_ids[:, 0] < 0).all() and (window.event_ids[:, 1:] >= 0).all()
    got = window_tau(s, window, np.full(3, 3.0), cfg.d_t)
    want = [
        time_encode(2.0, cfg.d_t) + time_encode(0.0, cfg.d_t),
        time_encode(2.0, cfg.d_t) + time_encode(1.0, cfg.d_t),
        time_encode(1.0, cfg.d_t) + time_encode(0.0, cfg.d_t),
    ]
    assert got.shape == (3, 4)
    assert np.max(np.abs(got - want)) < 1e-12
    # each query reads its own time; a window of pads alone sums to zero
    empty = s.recent_interactions(np.array([0, 2]), np.array([1.0, 3.5]), 2)
    got = window_tau(s, empty, np.array([1.0, 3.5]), cfg.d_t)
    assert np.array_equal(got[0], np.zeros(4))
    assert np.max(np.abs(got[1] - time_encode(1.5, cfg.d_t) - time_encode(0.5, cfg.d_t))) < 1e-12


def test_temporal_representation_matches_hand_trace():
    rng = np.random.default_rng(63)
    s = _stream()
    p = _params(rng)
    cfg = RunConfig(d_t=4, t_gap=10.0, recent_k=2)
    t = 4.0
    ptil = {0: np.array([0.5, -0.5]), 1: np.array([1.0, 2.0]), 2: np.array([-1.0, 3.0])}
    table = Tensor(np.stack([ptil[0], ptil[1], ptil[2]]))
    nodes, ts = np.array([0]), np.array([t])
    got = temporal_representation(
        s, nodes, ts, p, cfg, ptilde=table, ptilde_nodes=np.arange(3),
        recent=s.recent_interactions(nodes, ts, cfg.recent_k),
    ).data[0]

    h_n = s.node_features[0] + (s.node_features[1] + s.node_features[2]) / 2.0
    h_e = _link_encoding(s, np.array([0]), np.array([t]), p, cfg).data[0]
    h_ne = p["fuse_w"].data @ np.concatenate([h_n, h_e])
    tau = time_encode(3.0, cfg.d_t) + time_encode(1.0, cfg.d_t)
    h_hat = np.concatenate([tau, ptil[1] + ptil[2]])
    gate = np.tanh(
        p["pe_w_self"].data @ ptil[0]
        + p["pe_w2"].data @ np.maximum(p["pe_w1"].data @ h_hat, 0.0)
    )
    want = p["out_w"].data @ np.concatenate([h_ne, ptil[0] + gate])
    assert np.max(np.abs(got - want)) < 1e-12


def test_temporal_representation_no_history_uses_zero_context():
    rng = np.random.default_rng(64)
    s = _stream()
    p = _params(rng)
    cfg = RunConfig(d_t=4, t_gap=0.5, recent_k=2)
    ptil = np.array([0.25, 0.75])
    # node 2 has no interaction strictly before t=2.0: both its slots
    # name the null node 3, whose p~ row is zero
    nodes, ts = np.array([2]), np.array([2.0])
    got = temporal_representation(
        s, nodes, ts, p, cfg,
        ptilde=Tensor(np.vstack([np.tile(ptil, (3, 1)), np.zeros(2)])), ptilde_nodes=np.arange(4),
        recent=s.recent_interactions(nodes, ts, cfg.recent_k),
    ).data[0]

    h_n = s.node_features[2]
    rows = np.zeros((2, 6))
    pooled = (rows @ p["link_w1"].data).T @ p["link_sum_pool"].data.ravel()
    h_e = p["link_w2"].data @ np.maximum(pooled, 0.0)
    h_ne = p["fuse_w"].data @ np.concatenate([h_n, h_e])
    gate = np.tanh(
        p["pe_w_self"].data @ ptil
        + p["pe_w2"].data @ np.maximum(p["pe_w1"].data @ np.zeros(6), 0.0)
    )
    want = p["out_w"].data @ np.concatenate([h_ne, ptil + gate])
    assert np.max(np.abs(got - want)) < 1e-12


def test_predict_link_hand_trace_and_range():
    rng = np.random.default_rng(65)
    p = _params(rng)
    hu = rng.normal(size=3)
    hv = rng.normal(size=3)
    got = predict_link(Tensor(hu[None]), Tensor(hv[None]), p).data
    hidden = np.maximum(np.concatenate([hu, hv]) @ p["pred_w1"].data, 0.0)
    want = 1.0 / (1.0 + np.exp(-(hidden @ p["pred_w2"].data)))
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - want[0]) < 1e-12
    assert 0.0 < got[0, 0] < 1.0


def test_predict_link_zero_weights_gives_half():
    rng = np.random.default_rng(66)
    p = _params(rng)
    p["pred_w2"].data[:] = 0.0
    got = predict_link(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), p).data
    assert got.tolist() == [[0.5], [0.5]]


def test_gradients_reach_all_encoder_parameters():
    rng = np.random.default_rng(67)
    s = _stream()
    p = _params(rng)
    cfg = RunConfig(d_t=4, t_gap=10.0, recent_k=2)
    table = Tensor(rng.normal(size=(3, 2)), learnable=True)
    nodes, ts = np.array([0, 2]), np.array([4.0, 4.0])
    recent = s.recent_interactions(nodes, ts, cfg.recent_k)
    with GradientTape() as tape:
        reps = temporal_representation(
            s, nodes, ts, p, cfg, ptilde=table, ptilde_nodes=np.arange(3),
            recent=recent,
        )
        hu, hv = gather_rows(reps, np.array([0])), gather_rows(reps, np.array([1]))
        loss = sum_all(predict_link(hu, hv, p))
    grads = backward(tape, loss, p | {"ptilde": table})
    for name, g in grads.items():
        assert np.any(g != 0.0), f"no gradient reached {name}"


def test_phase_pool_turns_slot_sums_to_each_query_phase():
    rng = np.random.default_rng(10)
    d, e = 3, 2
    b = rng.uniform(-5.0, 0.0, size=(4, d))  # event phases; row 4 is the padding
    rows = np.vstack([np.hstack([np.cos(b), np.sin(b), rng.normal(size=(4, e))]), np.zeros(2 * d + e)])
    index = np.array([[4, 0, 2], [1, 2, 2]])  # a padded slot, an event in both windows
    a = rng.uniform(-1.0, 0.0, size=(2, d))
    w = Tensor(rng.normal(size=(3, 1)), learnable=True)
    out, tau = phase_pool(rows, index, w, np.hstack([np.cos(a), np.sin(a)]))
    for i in range(2):
        real = [k for k in range(3) if index[i, k] < 4]
        want_t = sum(w.data[k, 0] * np.cos(a[i] - b[index[i, k]]) for k in real)
        want_x = sum(w.data[k, 0] * rows[index[i, k], 2 * d:] for k in real)
        assert np.allclose(out.data[i], np.concatenate([want_t, want_x]), atol=1e-14)
        assert np.allclose(tau[i], sum(np.cos(a[i] - b[index[i, k]]) for k in real), atol=1e-14)
    phases = np.hstack([np.cos(a), np.sin(a)])

    def loss():
        return sum_all(tanh(phase_pool(rows, index, w, phases)[0]))

    with GradientTape() as tape:
        out = loss()
    grad = backward(tape, out, {"w": w})["w"]
    for k in range(3):
        orig = w.data[k, 0]
        w.data[k, 0] = orig + 1e-6
        up = float(loss().data)
        w.data[k, 0] = orig - 1e-6
        dn = float(loss().data)
        w.data[k, 0] = orig
        fd, an = (up - dn) / 2e-6, float(grad[k, 0])
        assert abs(an - fd) < 1e-6 * max(abs(an), abs(fd), 1e-6), f"w[{k}]"
    with pytest.raises(ValueError, match="phase_pool shape mismatch"):
        phase_pool(rows, index, Tensor(np.ones((2, 1))), phases)
    with pytest.raises(IndexError, match="outside the 5 rows"):
        phase_pool(rows, index + 1, w, phases)


def test_phase_pool_blocks_add_as_one_slot_walk():
    """Past one row block, the pooled rows equal a whole-batch slot walk
    bit for bit."""
    rng = np.random.default_rng(11)
    d, e, n, k = 4, 3, 150, 6
    rows = np.vstack([rng.normal(size=(40, 2 * d + e)), np.zeros(2 * d + e)])
    index = rng.integers(0, 41, size=(n, k))
    w = Tensor(rng.normal(size=(k, 1)))
    phases = rng.normal(size=(n, 2 * d))
    weighted, plain = np.zeros((n, 2 * d + e)), np.zeros((n, 2 * d))
    for j in range(k):
        slot = rows[index[:, j]]
        plain += slot[:, : 2 * d]
        slot *= w.data[j, 0]
        weighted += slot
    out, tau = phase_pool(rows, index, w, phases)
    cos_q, sin_q = phases[:, :d], phases[:, d:]
    assert np.array_equal(out.data[:, :d], cos_q * weighted[:, :d] + sin_q * weighted[:, d : 2 * d])
    assert np.array_equal(out.data[:, d:], weighted[:, 2 * d :])
    assert np.array_equal(tau, cos_q * plain[:, :d] + sin_q * plain[:, d:])


def test_pooling_gradients_match_central_differences():
    """Gradients to ``link_sum_pool`` through the slot pooling, and to a
    learnable p~ table through the slot-by-slot partner sum. Both
    windows have a padded slot and share event 2, (0, 2) at t = 3."""
    rng = np.random.default_rng(68)
    s = _stream()
    p = _params(rng, k=3)
    cfg = RunConfig(d_t=4, t_gap=10.0, recent_k=3)
    # row 3 is the null node's, which the padded slots read
    table = Tensor(np.vstack([rng.normal(size=(3, 2)), np.zeros((1, 2))]), learnable=True)
    nodes, ts = np.array([0, 2]), np.array([4.0, 3.5])
    recent = s.recent_interactions(nodes, ts, cfg.recent_k)
    assert (recent.event_ids[:, 0] < 0).all() and (recent.event_ids[:, 1:] >= 0).all()
    assert recent.event_ids[0, 2] == recent.event_ids[1, 2] == 2

    def loss():
        reps = temporal_representation(
            s, nodes, ts, p, cfg, ptilde=table, ptilde_nodes=np.arange(4), recent=recent
        )
        return sum_all(tanh(reps))

    with GradientTape() as tape:
        out = loss()
    leaves = {"link_sum_pool": p["link_sum_pool"], "ptilde": table}
    grads = backward(tape, out, leaves)
    h = 1e-6
    for name, t in leaves.items():
        flat = t.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss().data)
            flat[i] = orig - h
            dn = float(loss().data)
            flat[i] = orig
            fd = (up - dn) / (2.0 * h)
            an = float(grads[name].ravel()[i])
            assert abs(an - fd) <= 1e-6 * max(abs(an), abs(fd)) + 1e-9, f"{name}[{i}]"


def _busy_stream(rng, d=64):
    """200 events among 3 nodes, so a window of K <= 200 slots has at
    most 200 distinct events to encode, whatever the number of queries."""
    pairs = np.array([[0, 1], [1, 2], [0, 2]])[rng.integers(0, 3, size=200)]
    return EventStream(
        pairs[:, 0], pairs[:, 1], np.arange(1.0, 201.0),
        edge_features=rng.normal(size=(200, d)), node_features=rng.normal(size=(3, d)),
        d_n=d, d_e=d,
    )


def test_representation_memory_does_not_scale_with_window_slots():
    """The tracemalloc peak of one call grows less than 1.5x from K = 4
    to K = 64 at fixed n and widths: only (n, K) index arrays grow, and
    no (n, K, .) slot tensor is formed (one would grow 16x)."""
    rng = np.random.default_rng(69)
    d = 64
    s = _busy_stream(rng, d)
    n = 256
    nodes, ts = np.arange(n) % 3, np.full(n, 250.0)
    table = Tensor(rng.normal(size=(3, 16)))
    peaks = {}
    for k in (4, 64):
        p = _params(rng, d_n=d, d_e=d, d_p=16, d_t=d, k=k)
        cfg = RunConfig(d_t=d, d_n=d, d_e=d, d_p=16, t_gap=1.0, recent_k=k)
        recent = s.recent_interactions(nodes, ts, k)
        tracemalloc.start()
        try:
            temporal_representation(
                s, nodes, ts, p, cfg, ptilde=table, ptilde_nodes=np.arange(4), recent=recent
            )
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] < 1.5 * peaks[4], peaks


def _epoch_taus(span, rng):
    """Time-encoding sums of a representation batch and of a commit at
    Unix-epoch timestamps, with ``time_encode`` references.

    60 events over ``span`` seconds end just past a block boundary near
    1.7e9, so windows straddle it; queries follow the last event. The
    representation's sums are ``_pool_window``'s, and the commit's are
    ``window_tau``'s at the last event. Returns (representation, commit)
    sums and their references.
    """
    d, num_nodes, k, num_events = 8, 6, 5, 60
    boundary = block_start(1.7e9) + 3 * BLOCK
    times = np.sort(boundary - span * rng.uniform(-0.1, 0.9, size=num_events))
    s = EventStream(
        rng.integers(0, 3, size=num_events), rng.integers(3, num_nodes, size=num_events), times,
        edge_features=rng.normal(size=(num_events, d)), d_n=d, d_e=d,
    )
    cfg = RunConfig(d_t=100, d_n=d, d_e=d, d_p=d, recent_k=k)
    p = _params(rng, d_n=d, d_e=d, d_p=d, d_t=100, k=k)
    nodes = np.arange(num_nodes)
    ts = times[-1] + rng.uniform(0.0, 10.0, size=num_nodes)
    commit_ts = np.full(num_nodes, times[-1])
    recent = s.recent_interactions(nodes, ts, k)
    window = s.recent_interactions_inclusive(nodes, num_events, k)
    for w in (recent, window):
        blocks = block_start(np.where(w.event_ids < 0, np.nan, s.ts[w.event_ids]))
        assert (np.nanmin(blocks, axis=1) < np.nanmax(blocks, axis=1)).any()

    def reference(w, t):
        codes = time_encode(t[:, None] - s.ts[w.event_ids], cfg.d_t)
        return np.where(w.event_ids[..., None] < 0, 0.0, codes).sum(axis=1)

    got = _pool_window(s, recent, ts, p, cfg)[1], window_tau(s, window, commit_ts, cfg.d_t)
    return got, (reference(recent, ts), reference(window, commit_ts))


def test_phases_against_the_batch_reference_time_hold_at_epoch_timestamps(monkeypatch):
    """Timestamps near 1.7e9, streams spanning 1e5 to 3e7 s, windows that
    straddle a 2^20-s block boundary: the representation's and the
    commit's time encodings match ``time_encode`` of each delta within
    1e-9. Phase rows and references at t = 0 (absolute phases) miss it,
    so the bound tells the two apart."""
    spans = (1e5, 3e6, 3e7)
    for span in spans:
        got, want = _epoch_taus(span, np.random.default_rng(70))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < 1e-9, span
    zero = lambda ts: np.zeros(np.shape(ts))  # noqa: E731
    for module in (timeenc, encoder):
        monkeypatch.setattr(module, "block_start", zero)
    for span in spans:
        # a new stream, so its table is built against t = 0
        got, want = _epoch_taus(span, np.random.default_rng(70))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) > 1e-9, span
