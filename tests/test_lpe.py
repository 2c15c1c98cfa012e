"""Positional store ring semantics, the filtered approximation, commits,
and the drift bound."""
import cmath

import numpy as np
import pytest

from lstep.autodiff import GradientTape, Tensor, backward, norm2, sum_all
from lstep.lpe import (
    LpeParams,
    PositionalStore,
    approximate_pe,
    commit_pe,
    ring_eigenvalues,
    theorem1_check,
)
from lstep.peinit import InitialPE
from lstep.timeenc import TimeEncoderConfig, time_encode


def _params(d_p, length, rng=None, identity=True, d_t=4):
    if identity:
        fr = np.ones((d_p, length))
        fi = np.zeros((d_p, length))
    else:
        fr = rng.normal(size=(d_p, length))
        fi = rng.normal(size=(d_p, length))
    pool = np.zeros((length, 1))
    pool[-1, 0] = 1.0
    if rng is not None and not identity:
        pool = rng.normal(size=(length, 1))
    return LpeParams(
        filter_re=Tensor(fr, learnable=True),
        filter_im=Tensor(fi, learnable=True),
        sum_pool=Tensor(pool, learnable=True),
        w1=(
            Tensor(np.zeros((d_p, d_p + d_t)), learnable=True)
            if rng is None
            else Tensor(rng.normal(size=(d_p, d_p + d_t)) * 0.3, learnable=True)
        ),
        w2=(
            Tensor(np.zeros((d_p, d_p)), learnable=True)
            if rng is None
            else Tensor(rng.normal(size=(d_p, d_p)) * 0.3, learnable=True)
        ),
        w_self=(
            Tensor(np.zeros((d_p, d_p)), learnable=True)
            if rng is None
            else Tensor(rng.normal(size=(d_p, d_p)) * 0.3, learnable=True)
        ),
    )


def _hist(store, node):
    """One node's (d_p, L) history through the batched gather."""
    return store.history_matrix(np.array([node]))[0]


def test_store_starts_empty_with_zero_history():
    store = PositionalStore(num_nodes=3, d_p=2, history_len=4)
    assert _hist(store, 1).shape == (2, 4)
    assert not _hist(store, 1).any()


def test_commits_fill_newest_columns_oldest_first():
    store = PositionalStore(3, 2, history_len=4)
    store.commit(np.array([0]), np.array([1.0, 10.0])[None])
    store.commit(np.array([0]), np.array([2.0, 20.0])[None])
    h = _hist(store, 0)
    assert h[:, :2].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert h[:, 2].tolist() == [1.0, 10.0]
    assert h[:, 3].tolist() == [2.0, 20.0]


def test_ring_evicts_oldest_beyond_capacity():
    store = PositionalStore(1, 1, history_len=3)
    for v in range(5):
        store.commit(np.array([0]), np.array([float(v)])[None])
    assert _hist(store, 0).ravel().tolist() == [2.0, 3.0, 4.0]


def _reference_history(committed, length, d_p):
    """A node's last ``length`` committed vectors, oldest first, zero-padded
    at the front, as a (d_p, length) matrix."""
    hist = np.zeros((length, d_p))
    last = committed[-length:]
    if last:
        hist[length - len(last):] = last
    return hist.T


def test_store_matches_plain_list_reference():
    rng = np.random.default_rng(55)
    num_nodes, d_p, length = 5, 2, 3
    store = PositionalStore(num_nodes, d_p, length)
    committed = [[] for _ in range(num_nodes)]
    all_nodes = np.arange(num_nodes)
    for i in range(40):
        if i == 20:
            # a restored snapshot carries on as if the run had not stopped
            blob = store.snapshot()
            store = PositionalStore(num_nodes, d_p, length)
            store.restore(blob)
        # nodes are committed at different rates, so some wrap the ring
        # many times while others never fill it; node 4 is never committed
        nodes = np.flatnonzero(rng.random(num_nodes) < [0.8, 0.5, 0.2, 0.06, 0.0])
        vecs = rng.normal(size=(nodes.size, d_p))
        store.commit(nodes, vecs)
        for node, vec in zip(nodes, vecs):
            committed[node].append(vec)
        got = store.history_matrix(all_nodes)
        for node in all_nodes:
            # a commit that does not touch a node adds no column to it
            want = _reference_history(committed[node], length, d_p)
            assert np.array_equal(got[node], want)
    fills = [len(c) for c in committed]
    assert fills[4] == 0 and 0 < fills[3] < length < fills[0]


def test_reset_seeds_snapshot_nodes():
    store = PositionalStore(3, 2, history_len=4)
    store.commit(np.array([1]), np.ones((1, 2)))
    init = InitialPE(
        table=np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]]),
        method="laplacian",
        present=np.array([0, 2]),
    )
    store.reset(init)
    assert _hist(store, 0)[:, -1].tolist() == [1.0, 2.0]
    assert _hist(store, 2)[:, -1].tolist() == [3.0, 4.0]
    assert not _hist(store, 0)[:, :-1].any()
    assert not _hist(store, 1).any()
    many = store.history_matrix(np.array([2, 0, 1, 2]))
    assert many.shape == (4, 2, 4)
    for got, node in zip(many, [2, 0, 1, 2]):
        assert np.array_equal(got, _hist(store, node))


def test_reset_rejects_mismatched_table():
    store = PositionalStore(3, 2, history_len=4)
    bad = InitialPE(np.zeros((2, 2)), "zero", np.array([0]))
    with pytest.raises(ValueError, match="initial PE shape"):
        store.reset(bad)


def test_commit_shape_check():
    store = PositionalStore(2, 3, history_len=2)
    with pytest.raises(ValueError, match="commit shape"):
        store.commit(np.array([0]), np.zeros((1, 4)))
    with pytest.raises(ValueError, match="distinct"):
        store.commit(np.array([1, 1]), np.zeros((2, 3)))


def test_snapshot_restore_round_trip():
    store = PositionalStore(2, 2, history_len=3)
    store.commit(np.array([0]), np.array([1.0, 2.0])[None])
    blob = store.snapshot()
    store.commit(np.array([1]), np.array([9.0, 9.0])[None])
    store.restore(blob)
    assert not _hist(store, 1).any()
    assert _hist(store, 0)[:, -1].tolist() == [1.0, 2.0]
    store.commit(np.array([0]), np.array([3.0, 4.0])[None])
    assert _hist(store, 0).tolist() == [[0.0, 1.0, 3.0], [0.0, 2.0, 4.0]]


def _bad_snapshot(case):
    store = PositionalStore(2, 2, history_len=3)
    store.commit(np.array([0, 1]), np.ones((2, 2)))
    blob = store.snapshot()
    if case == "ring shape":
        blob["ring"] = blob["ring"][:, :2]
    elif case == "commits shape":
        blob["commits"] = blob["commits"][None]
    elif case == "negative":
        blob["commits"][1] = -1.0
    elif case == "fractional":
        blob["commits"][1] = 1.5
    elif case == "not finite":
        blob["commits"][1] = np.nan
    elif case == "unwritten slot":
        blob["ring"][1, 2, 0] = 0.25  # node 1 has written slot 0 only
    return blob


@pytest.mark.parametrize(
    "case, message",
    [
        ("ring shape", "ring shape"),
        ("commits shape", "commits shape"),
        ("negative", "whole numbers >= 0, node 1 has -1.0"),
        ("fractional", "whole numbers >= 0, node 1 has 1.5"),
        ("not finite", "whole numbers >= 0, node 1 has nan"),
        ("unwritten slot", "node 1 has not written slot 2"),
    ],
)
def test_restore_rejects_bad_snapshot(case, message):
    store = PositionalStore(2, 2, history_len=3)
    with pytest.raises(ValueError, match=message):
        store.restore(_bad_snapshot(case))
    # a rejected snapshot leaves the store as it was
    assert not store.history_matrix(np.arange(2)).any()


def test_identity_filter_last_column_pool_is_exact_pass_through():
    rng = np.random.default_rng(51)
    params = _params(3, 8)
    h = rng.normal(size=(5, 3, 8))
    out = approximate_pe(h, params)
    # bit-exact: the no-op chain must reproduce the newest column
    assert np.array_equal(out.data, h[:, :, -1])


def test_identity_filter_still_differentiates_under_tape():
    params = _params(2, 4)
    h = Tensor(np.arange(8.0).reshape(1, 2, 4), learnable=True)
    with GradientTape() as tape:
        loss = sum_all(norm2(approximate_pe(h, params)))
    grads = backward(tape, loss, {"fr": params.filter_re, "h": h})
    # the transform chain runs when recording, so filter gradients exist
    assert grads["fr"].shape == (2, 4)
    assert np.any(grads["fr"] != 0.0)
    assert np.any(grads["h"] != 0.0)


def test_approximation_matches_complex_oracle():
    rng = np.random.default_rng(52)
    for length in (1, 2, 3, 8, 16):
        d_p = 3
        params = _params(d_p, length, rng=rng, identity=False)
        h = rng.normal(size=(d_p, length))
        got = approximate_pe(h[None], params).data[0]

        filt = params.filter_re.data + 1j * params.filter_im.data
        pool = params.sum_pool.data.ravel()
        want = np.zeros(d_p)
        for d in range(d_p):
            spec = [
                sum(
                    h[d, k - 1] * cmath.exp(-2j * cmath.pi * j * k / length)
                    for k in range(1, length + 1)
                )
                for j in range(1, length + 1)
            ]
            spec = [filt[d, j] * spec[j] for j in range(length)]
            row = [
                (
                    sum(
                        spec[j - 1] * cmath.exp(2j * cmath.pi * j * k / length)
                        for j in range(1, length + 1)
                    )
                    / length
                ).real
                for k in range(1, length + 1)
            ]
            want[d] = float(np.dot(row, pool))
        assert np.max(np.abs(got - want)) < 1e-9


def test_approximate_pe_shape_check():
    params = _params(2, 4)
    with pytest.raises(ValueError, match="history shape"):
        approximate_pe(np.zeros((1, 3, 4)), params)
    with pytest.raises(ValueError, match="history shape"):
        approximate_pe(np.zeros((2, 4)), params)


def test_commit_matches_hand_computation():
    rng = np.random.default_rng(53)
    d_p, d_t = 3, 4
    params = _params(d_p, 4, rng=rng, identity=False, d_t=d_t)
    cfg = TimeEncoderConfig(dim=d_t)
    p_tilde = rng.normal(size=d_p)
    partners = rng.normal(size=(3, d_p))  # the padded slot's row must not count
    got = commit_pe(
        p_tilde[None], np.array([[0.0, 1.5, 0.5]]), partners[None],
        np.array([[True, False, False]]), params, cfg,
    )[0]

    tau = time_encode(1.5, cfg) + time_encode(0.5, cfg)
    nbr = partners[1] + partners[2]
    q = np.concatenate([tau, nbr])
    w1, w2, ws = params.w1.data, params.w2.data, params.w_self.data
    want = p_tilde + np.tanh(ws @ p_tilde + w2 @ np.maximum(w1 @ q, 0.0))
    assert np.max(np.abs(got - want)) < 1e-12


def test_commit_with_zero_weights_is_identity():
    params = _params(2, 4)  # all-zero MLP weights
    p_tilde = np.array([[0.3, -0.7], [1.5, 2.0]])
    got = commit_pe(
        p_tilde, np.ones((2, 1)), np.ones((2, 1, 2)), np.zeros((2, 1), dtype=bool),
        params, TimeEncoderConfig(dim=4),
    )
    assert np.array_equal(got, p_tilde)


def test_commit_all_padding_uses_zero_q():
    rng = np.random.default_rng(54)
    params = _params(2, 4, rng=rng, identity=False)
    cfg = TimeEncoderConfig(dim=4)
    p_tilde = rng.normal(size=2)
    got = commit_pe(
        p_tilde[None], np.zeros((1, 2)), np.full((1, 2, 2), np.nan),
        np.ones((1, 2), dtype=bool), params, cfg,
    )[0]
    ws, w2, w1 = params.w_self.data, params.w2.data, params.w1.data
    want = p_tilde + np.tanh(ws @ p_tilde + w2 @ np.maximum(w1 @ np.zeros(6), 0.0))
    assert np.max(np.abs(got - want)) < 1e-12


def test_ring_eigenvalue_ladder():
    lam = ring_eigenvalues(4)
    assert np.allclose(lam, [2.0, 3.0, 2.0, 1.0], atol=1e-12)


def test_drift_bound_value_and_verdict():
    params = _params(1, 4)  # |filter| = 1 everywhere
    # bound = (2 + 3 + 2 + 1) * (2 * 4 - 2) = 48
    ok = theorem1_check(np.array([[0.0], [5.0]]), params)
    assert abs(ok.bound - 48.0) < 1e-12
    assert ok.max_step_diff == 5.0
    assert ok.satisfied
    bad = theorem1_check(np.array([[0.0], [100.0]]), params)
    assert not bad.satisfied


def test_drift_bound_scales_with_filter_modulus():
    params = _params(1, 4)
    params.filter_re.data[:] = 3.0
    params.filter_im.data[:] = 4.0  # modulus 5 at every frequency
    rep = theorem1_check(np.zeros((3, 1)), params)
    assert abs(rep.bound - 5.0 * 48.0) < 1e-12


def test_drift_bound_trace_validation():
    params = _params(1, 4)
    with pytest.raises(ValueError, match="at least 2"):
        theorem1_check(np.zeros((1, 1)), params)
    with pytest.raises(ValueError, match="at least 2"):
        theorem1_check(np.zeros(5), params)
