"""The batch forward against a per-event numpy reference.

The reference scores one event at a time with the hand-trace formulas of
``test_encoder.py``: each node's p~ from a plain list of its last L
commits through an explicit DFT, filter, inverse DFT and pool; windows
found by scanning the event list. The stream has padded K-windows,
empty t_gap windows, a self-loop, a (node, t) query repeated inside a
batch, and an inductive batch in which only some events are scored.
"""
import numpy as np

from lstep import training
from lstep.autodiff import GradientTape
from lstep.config import parse_config
from lstep.events import EventStream
from lstep.lpe import PositionalStore
from lstep.model import ModelDims, init_model_params
from lstep.sampling import Sample
from lstep.timeenc import time_encode

CFG = parse_config(
    "d_t = 4\nd_n = 3\nd_e = 2\nd_p = 3\nhistory_len = 4\n"
    "t_gap = 1.5\nrecent_k = 3\nbatch_size = 4\n"
)
TOL = 1e-10

EVENTS = [  # (src, dst, t)
    (0, 1, 1.0),
    (1, 2, 2.0),
    (2, 2, 3.0),  # self-loop
    (0, 3, 4.0),  # node 0's t_gap window at t=4 is empty
    (3, 4, 5.0),
    (0, 1, 6.0),  # node 0 at t=6 twice among the positives ...
    (0, 4, 6.0),
    (5, 0, 7.0),  # nodes 5 and 6 are new: first seen after training
    (6, 2, 7.5),
    (1, 3, 8.0),  # the one unscored event of the inductive batch
    (4, 5, 9.0),
    (2, 6, 10.0),
]


def _setup():
    rng = np.random.default_rng(7)
    src, dst, ts = (np.array(col) for col in zip(*EVENTS))
    stream = EventStream(
        src, dst, ts,
        edge_features=rng.normal(size=(len(EVENTS), CFG.d_e)),
        node_features=rng.normal(size=(7, CFG.d_n)),
    )
    params = init_model_params(ModelDims.from_config(CFG), seed=3)
    for name in ("filter_real", "filter_imag"):
        params.tensors[name].data += 0.3 * rng.normal(size=(CFG.d_p, CFG.history_len))
    store = PositionalStore(np.full(7, CFG.history_len), CFG.d_p, CFG.history_len)
    history = {node: [] for node in range(7)}
    # ring fill differs per node: nodes 5 and 6 have no history at all
    for nodes in ([0, 1, 2, 3], [0, 2, 4], [0, 1, 2, 3, 4], [2, 4]):
        vecs = rng.normal(size=(len(nodes), CFG.d_p))
        store.commit(np.array(nodes), vecs)
        for node, vec in zip(nodes, vecs):
            history[node].append(vec)
    return stream, params, store, history


def _ref_ptilde(committed, params):
    """p~ of a node from the vectors committed to it, oldest first."""
    length = CFG.history_len
    hist = np.zeros((CFG.d_p, length))
    last = committed[-length:]
    for i, vec in enumerate(last):
        hist[:, length - len(last) + i] = vec
    j = np.arange(1, length + 1)
    w = np.exp(-2j * np.pi * np.outer(j, j) / length)
    filt = params.tensors["filter_real"].data + 1j * params.tensors["filter_imag"].data
    back = ((filt * (hist @ w.T)) @ np.conj(w)).real / length
    return back @ params.tensors["pe_sum_pool"].data.ravel()


def _ref_window(stream, node, t, end=None):
    """(partner, time, event) of the K latest events of ``node`` before t,
    or, with ``end``, of those with an index below ``end``."""
    out = []
    for i, (u, v, te) in enumerate(zip(stream.src, stream.dst, stream.ts)):
        if node in (u, v) and (i < end if end is not None else te < t):
            out.append((v if u == node else u, te, i))
    return out[-CFG.recent_k:]


def _ref_rep(stream, params, pt, node, t):
    w = params.state_arrays()
    x = stream.node_features
    # the t_gap window is not limited to the K latest events
    nbrs = [
        int(v if u == node else u)
        for u, v, te in zip(stream.src, stream.dst, stream.ts)
        if node in (u, v) and t - CFG.t_gap <= te < t
    ]
    h_n = x[node] + (x[nbrs].mean(axis=0) if nbrs else 0.0)
    recent = _ref_window(stream, node, t)
    rows = np.zeros((CFG.recent_k, CFG.d_t + CFG.d_e))
    pad = CFG.recent_k - len(recent)
    tau = np.zeros(CFG.d_t)
    nbr = np.zeros(CFG.d_p)
    for slot, (p, te, i) in enumerate(recent):
        rows[pad + slot] = np.concatenate([time_encode(t - te, CFG.d_t), stream.edge_features[i]])
        tau += time_encode(t - te, CFG.d_t)
        nbr += pt[int(p)]
    pooled = (rows @ w["link_w1"]).T @ w["link_sum_pool"].ravel()
    h_e = w["link_w2"] @ np.maximum(pooled, 0.0)
    h_ne = w["fuse_w"] @ np.concatenate([h_n, h_e])
    gate = np.tanh(
        w["pe_w_self"] @ pt[node]
        + w["pe_w2"] @ np.maximum(w["pe_w1"] @ np.concatenate([tau, nbr]), 0.0)
    )
    return w["out_w"] @ np.concatenate([h_ne, pt[node] + gate])


def _ref_prob(stream, params, pt, u, v, t):
    w = params.state_arrays()
    h = np.concatenate([_ref_rep(stream, params, pt, u, t), _ref_rep(stream, params, pt, v, t)])
    logit = np.maximum(h @ w["pred_w1"], 0.0) @ w["pred_w2"]
    return 1.0 / (1.0 + np.exp(-logit[0]))


def _ref_commit(stream, params, pt, batch):
    w = params.state_arrays()
    t_c = stream.ts[batch].max()
    out = {}
    for node in sorted(set(stream.src[batch]) | set(stream.dst[batch])):
        tau, nbr = np.zeros(CFG.d_t), np.zeros(CFG.d_p)
        for p, te, _ in _ref_window(stream, node, t_c, end=batch[-1] + 1):
            tau += time_encode(t_c - te, CFG.d_t)
            nbr += pt[int(p)]
        q = np.concatenate([tau, nbr])
        hidden = w["pe_w2"] @ np.maximum(w["pe_w1"] @ q, 0.0)
        out[int(node)] = pt[node] + np.tanh(w["pe_w_self"] @ pt[node] + hidden)
    return out


def _check_step(stream, params, store, history, batch, scored, neg, with_loss):
    pt = {n: _ref_ptilde(history[n], params) for n in range(stream.num_nodes)}
    ts = stream.ts[scored]
    want_pos = [_ref_prob(stream, params, pt, u, v, t)
                for u, v, t in zip(stream.src[scored], stream.dst[scored], ts)]
    want_neg = [_ref_prob(stream, params, pt, u, v, t) for u, v, t in zip(neg.src, neg.dst, ts)]

    with GradientTape():
        fwd = training._batch_forward(stream, store, params, CFG, batch, [(scored, neg)])
        loss = training._batch_loss(fwd, stream, batch, neg) if with_loss else None
    (pos, neg_probs), = fwd.scores
    assert np.max(np.abs(pos.data[:, 0] - want_pos)) < TOL
    assert np.max(np.abs(neg_probs.data[:, 0] - want_neg)) < TOL
    if with_loss:
        b = len(batch)
        lp = -(np.sum(np.log(want_pos)) + np.sum(np.log(1.0 - np.array(want_neg)))) / (2 * b)
        pe = (
            sum(np.linalg.norm(pt[u] - pt[v]) for u, v in zip(stream.src[batch], stream.dst[batch]))
            - 0.3 * sum(np.linalg.norm(pt[u] - pt[v]) for u, v in zip(neg.src, neg.dst))
        ) / b
        want = 0.5 * lp + 0.5 * pe  # alpha_neg = 0.3 and alpha_pe = 0.5
        assert abs(float(loss.data) - want) < TOL

    before = store.history_matrix(np.arange(stream.num_nodes)).copy()
    commits = _ref_commit(stream, params, pt, batch)
    training.commit_pe(stream, store, params, CFG, fwd)
    after = store.history_matrix(np.arange(stream.num_nodes))
    for node in range(stream.num_nodes):
        if node in commits:
            assert np.max(np.abs(after[node, :, -1] - commits[node])) < TOL
            assert np.array_equal(after[node, :, :-1], before[node, :, 1:])
        else:
            assert np.array_equal(after[node], before[node])
    for node, vec in commits.items():
        history[node].append(vec)


def test_batch_forward_matches_per_event_reference():
    stream, params, store, history = _setup()
    # training-style batch; negatives repeat (0, 6.0) and (4, 6.0) once more
    batch = np.arange(3, 7)
    neg = Sample(np.array([0, 3, 0, 2]), np.array([2, 1, 4, 5]), stream.ts[batch], "random")
    _check_step(stream, params, store, history, batch, batch, neg, with_loss=True)

    # inductive batch: event 9 touches no new node and is committed, not scored
    batch = np.arange(7, 12)
    scored = batch[np.isin(stream.src[batch], [5, 6]) | np.isin(stream.dst[batch], [5, 6])]
    assert scored.tolist() == [7, 8, 10, 11]
    neg = Sample(np.array([5, 6, 4, 2]), np.array([3, 2, 0, 0]), stream.ts[scored], "random")
    _check_step(stream, params, store, history, batch, scored, neg, with_loss=False)
