"""Positional store ring semantics, the filtered approximation, commits,
and the drift bound."""
import cmath

import numpy as np
import pytest

from lstep.autodiff import GradientTape, Tensor, add, backward, norm2, sum_all, tanh
from lstep.config import RunConfig, apply_preset
from lstep.events import RecentInteractions
from lstep.lpe import (
    FrozenPE,
    PositionalStore,
    approximate_pe,
    refine_pe,
    ring_eigenvalues,
    theorem1_check,
)
from lstep.peinit import InitialPE, zero_pe
from lstep.synthetic import make_random_stream
from lstep.timeenc import time_encode


def _params(d_p, length, rng=None, identity=True, d_t=4):
    """The tensors the positional layers read, by their checkpoint names."""
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

    def w(*shape):
        return np.zeros(shape) if rng is None else rng.normal(size=shape) * 0.3

    arrays = {
        "filter_real": fr,
        "filter_imag": fi,
        "pe_sum_pool": pool,
        "pe_w1": w(d_p, d_p + d_t),
        "pe_w2": w(d_p, d_p),
        "pe_w_self": w(d_p, d_p),
    }
    return {name: Tensor(a, learnable=True, name=name) for name, a in arrays.items()}


def _hist(store, node):
    """One node's (d_p, L) history through the batched gather."""
    return store.history_matrix(np.array([node]))[0]


def test_store_starts_empty_with_zero_history():
    store = PositionalStore(np.full(3, 4), d_p=2, history_len=4)
    # no node has written a column: the gather keeps one, all zero
    assert _hist(store, 1).shape == (2, 1)
    assert not _hist(store, 1).any()
    everyone = store.history_matrix(np.arange(3))
    assert everyone.shape == (3, 2, 1)
    assert not everyone.any()


def test_commits_fill_newest_columns_oldest_first():
    store = PositionalStore(np.full(3, 4), 2, history_len=4)
    store.commit(np.array([0]), np.array([1.0, 10.0])[None])
    store.commit(np.array([0]), np.array([2.0, 20.0])[None])
    h = _hist(store, 0)
    assert h.tolist() == [[1.0, 2.0], [10.0, 20.0]]
    # beside a node with three commits, node 0's missing oldest column is zero
    for v in (5.0, 6.0, 7.0):
        store.commit(np.array([1]), np.full((1, 2), v))
    both = store.history_matrix(np.array([0, 1]))
    assert both[0].tolist() == [[0.0, 1.0, 2.0], [0.0, 10.0, 20.0]]
    assert both[1].tolist() == [[5.0, 6.0, 7.0], [5.0, 6.0, 7.0]]


def test_ring_evicts_oldest_beyond_capacity():
    store = PositionalStore(np.full(1, 3), 1, history_len=3)
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
    d_p, length = 2, 3
    # caps min(L, 1 + count) are 3, 3, 2, 1, 3: nodes 2 and 3 sit below L
    counts = np.array([7, 2, 1, 0, 4])
    cap = np.minimum(length, 1 + counts)
    num_nodes = counts.size
    store = PositionalStore(counts, d_p, length)
    committed = [[] for _ in range(num_nodes)]
    all_nodes = np.arange(num_nodes)

    def matches_reference():
        # the gather keeps the newest m columns, m the fullest node's fill
        width = max(1, min(length, max(len(c) for c in committed)))
        got = store.history_matrix(all_nodes)
        assert got.shape == (num_nodes, d_p, width)
        for node in all_nodes:
            # a commit that does not touch a node adds no column to it
            want = _reference_history(committed[node], length, d_p)
            assert not want[:, : length - width].any()
            assert np.array_equal(got[node], want[:, length - width :])

    rate = [0.8, 0.5, 0.5, 0.3, 0.0]
    for step in range(50):
        if step == 25:
            # node 0 has wrapped its ring and nodes 2 and 3 have filled
            # theirs; node 4 has never committed
            fills = [len(c) for c in committed]
            assert fills[0] > length and fills[2] == 2 and fills[3] == 1 and fills[4] == 0
            table = rng.normal(size=(num_nodes, d_p))
            store.reset(InitialPE(table, "random", np.array([1, 3])))
            committed = [[table[n]] if n in (1, 3) else [] for n in all_nodes]
            # the slots written before the reset are still in the ring:
            # the gather masks them rather than the reset zeroing them
            assert store._ring[store._offset[0]].any() and store._ring[store._offset[2]].any()
            matches_reference()
            continue
        room = [c == length or len(committed[n]) < c for n, c in enumerate(cap)]
        nodes = np.flatnonzero((rng.random(num_nodes) < rate) & room)
        vecs = rng.normal(size=(nodes.size, d_p))
        store.commit(nodes, vecs)
        for node, vec in zip(nodes, vecs):
            committed[node].append(vec)
        matches_reference()
    assert len(committed[0]) > length  # node 0 wraps again after the reset


def test_commit_past_a_short_ring_raises_before_writing():
    store = PositionalStore(np.array([1, 0, 5]), 2, history_len=4)  # caps 2, 1, 4
    store.commit(np.array([0, 1]), np.ones((2, 2)))
    store.commit(np.array([0]), np.full((1, 2), 2.0))
    ring, commits = store._ring.copy(), store._commits.copy()
    for nodes, cap in (([2, 1], 1), ([0], 2)):
        with pytest.raises(ValueError, match=f"node {nodes[-1]} is full at its capacity of {cap}"):
            store.commit(np.array(nodes), np.zeros((len(nodes), 2)))
        assert np.array_equal(store._ring, ring)
        assert np.array_equal(store._commits, commits)
    # a ring at L wraps instead
    for v in range(6):
        store.commit(np.array([2]), np.full((1, 2), float(v)))
    assert _hist(store, 2)[0].tolist() == [2.0, 3.0, 4.0, 5.0]


def test_ring_holds_one_row_per_possible_commit_plus_a_zero_row():
    cfg = apply_preset(RunConfig(), "wikipedia")
    stream = make_random_stream(300, 2000, seed=5)
    # a random stream has no self-loops: each event counts at both ends
    counts = np.bincount(np.concatenate([stream.src, stream.dst]), minlength=300)
    assert np.array_equal(stream.interaction_counts(), counts)
    store = PositionalStore(stream.interaction_counts(), cfg.d_p, cfg.history_len)
    slots = int(np.minimum(cfg.history_len, 1 + counts).sum())
    assert slots < 300 * cfg.history_len // 4
    assert store._ring.shape == (slots + 1, cfg.d_p)
    assert store._ring.nbytes == (slots + 1) * cfg.d_p * 8

    rng = np.random.default_rng(3)
    for _ in range(3):
        nodes = rng.choice(300, size=50, replace=False)
        store.commit(nodes, rng.normal(size=(50, cfg.d_p)))
    written = store._ring.tobytes()
    store.reset(zero_pe(300, cfg.d_p))
    # a reset writes nothing into the ring: it only zeroes the counts
    assert store._ring.tobytes() == written
    assert not store._commits.any()
    assert not store.history_matrix(np.arange(300)).any()


def test_reset_seeds_snapshot_nodes():
    store = PositionalStore(np.full(3, 4), 2, history_len=4)
    store.commit(np.array([1]), np.ones((1, 2)))
    init = InitialPE(
        table=np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]]),
        method="laplacian",
        present=np.array([0, 2]),
    )
    store.reset(init)
    assert _hist(store, 0).tolist() == [[1.0], [2.0]]
    assert _hist(store, 2).tolist() == [[3.0], [4.0]]
    assert not _hist(store, 1).any()
    many = store.history_matrix(np.array([2, 0, 1, 2]))
    assert many.shape == (4, 2, 1)
    for got, node in zip(many, [2, 0, 1, 2]):
        assert np.array_equal(got, _hist(store, node))
    # fill node 2's ring: beside it the other nodes show all L columns,
    # so node 1's slot written before the reset must read zero again
    for _ in range(3):
        store.commit(np.array([2]), np.zeros((1, 2)))
    full = store.history_matrix(np.array([0, 1, 2]))
    assert full.shape == (3, 2, 4)
    assert full[0].tolist() == [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 2.0]]
    assert not full[1].any()
    assert full[2][:, 0].tolist() == [3.0, 4.0]


def test_history_width_is_the_fullest_gathered_node():
    store = PositionalStore(np.full(5, 5), 2, history_len=5)
    for node, times in ((0, 3), (1, 1), (2, 7)):  # node 2 wraps the ring
        for _ in range(times):
            store.commit(np.array([node]), np.ones((1, 2)))
    widths = {(1,): 1, (0, 1): 3, (1, 0, 1): 3, (2,): 5, (0, 1, 2): 5, (4,): 1, (): 1}
    for nodes, width in widths.items():
        got = store.history_matrix(np.array(nodes, dtype=np.int64))
        assert got.shape == (len(nodes), 2, width), nodes
    # the floor: nodes that never committed give one zero column
    assert not store.history_matrix(np.array([3, 4])).any()
    params = _params(2, 5)
    nobody = np.array([], dtype=np.int64)
    assert approximate_pe(store.history_matrix(nobody), params).shape == (0, 2)
    with GradientTape():
        assert approximate_pe(store.history_matrix(nobody), params).shape == (0, 2)


def test_trimmed_contraction_equals_the_full_width_one_bit_for_bit():
    rng = np.random.default_rng(56)
    num_nodes, d_p, length = 9, 3, 16
    store = PositionalStore(np.full(num_nodes, length), d_p, length)
    committed = [[] for _ in range(num_nodes)]
    for _ in range(11):  # too few rounds for any node to fill its ring
        nodes = np.flatnonzero(rng.random(num_nodes) < np.linspace(0.6, 0.0, num_nodes))
        vecs = rng.normal(size=(nodes.size, d_p))
        store.commit(nodes, vecs)
        for node, vec in zip(nodes, vecs):
            committed[node].append(vec)
    params = _params(d_p, length, rng=rng, identity=False)
    nodes = np.array([4, 0, 7, 2, 4, 1])
    trimmed = store.history_matrix(nodes)
    width = trimmed.shape[2]
    assert width == max(len(committed[n]) for n in nodes) < length
    # the zero-padded (n, d_p, L) histories, laid out as the ring holds
    # them, (n, L, d_p), so both contractions add in the same order
    full = np.stack([_reference_history(committed[n], length, d_p).T for n in nodes])
    full = full.transpose(0, 2, 1)
    assert np.array_equal(trimmed, full[:, :, length - width :])
    assert np.array_equal(approximate_pe(trimmed, params).data, approximate_pe(full, params).data)

    kernel = Tensor(rng.normal(size=(d_p, length)), learnable=True)
    filters = ("filter_real", "filter_imag", "pe_sum_pool")
    leaves = {"kernel": kernel} | {n: params[n] for n in filters}
    out, grads = {}, {}
    for name, h in (("trimmed", trimmed), ("full", full)):
        with GradientTape() as tape:
            filtered = approximate_pe(h, params)
            given = approximate_pe(h, params, kernel)
            loss = add(sum_all(norm2(filtered)), sum_all(tanh(given)))
        out[name] = (filtered.data, given.data)
        grads[name] = backward(tape, loss, leaves)
    for a, b in zip(out["trimmed"], out["full"]):
        assert np.array_equal(a, b)
    for leaf in leaves:
        assert np.array_equal(grads["trimmed"][leaf], grads["full"][leaf]), leaf
    # no node wrote the kernel's first L - m columns: their gradient is 0.0
    unwritten = grads["trimmed"]["kernel"][:, : length - width]
    assert unwritten.size and np.all(unwritten == 0.0)
    assert np.any(grads["trimmed"]["kernel"][:, length - width :] != 0.0)


def test_reset_rejects_mismatched_table():
    store = PositionalStore(np.full(3, 4), 2, history_len=4)
    store.commit(np.array([0, 2]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    store.commit(np.array([2]), np.array([[5.0, 6.0]]))
    histories, commits = store.history_matrix(np.arange(3)), store._commits.copy()
    rejected = [
        (np.zeros((2, 2)), [0], "initial PE shape"),
        (np.zeros((3, 2)), [0, 3, -1], r"initial PE node 3 outside \[0, 3\)"),
        (np.zeros((3, 2)), [-1], r"initial PE node -1 outside \[0, 3\)"),
        (np.zeros((3, 2)), [1, 1], "initial PE nodes must be distinct"),
    ]
    for table, present, message in rejected:
        with pytest.raises(ValueError, match=message):
            store.reset(InitialPE(table, "zero", np.array(present)))
        # a rejected reset leaves the store as it was
        assert np.array_equal(store.history_matrix(np.arange(3)), histories)
        assert np.array_equal(store._commits, commits)


def test_null_node_history_is_zero_at_every_width():
    # the null node, id num_nodes, stands in for a padded window slot
    length = 4
    store = PositionalStore(np.array([5, 0, 2]), 2, history_len=length)
    null = np.array([store.num_nodes])

    def null_is_zero(width):
        assert not store.history_matrix(null).any()
        both = store.history_matrix(np.array([0, store.num_nodes, 2]))
        assert both.shape == (3, 2, width)
        assert not both[1].any()

    null_is_zero(1)
    store.commit(np.array([0, 2]), np.ones((2, 2)))
    null_is_zero(1)
    for v in range(5):  # node 0 fills and wraps its ring
        store.commit(np.array([0]), np.full((1, 2), v + 2.0))
    null_is_zero(length)
    assert store.history_matrix(np.array([0]))[0, 0].tolist() == [3.0, 4.0, 5.0, 6.0]
    store.reset(InitialPE(np.ones((3, 2)), "random", np.array([0, 1, 2])))
    null_is_zero(1)
    assert store._ring.shape == (4 + 1 + 3 + 1, 2)  # the zero row is the null node's one slot


def test_store_refuses_the_null_node():
    store = PositionalStore(np.full(3, 2), 2, history_len=2)
    with pytest.raises(ValueError, match=r"commit node 3 outside \[0, 3\)"):
        store.commit(np.array([1, 3]), np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"initial PE node 3 outside \[0, 3\)"):
        store.reset(InitialPE(np.ones((3, 2)), "random", np.array([3])))
    assert not store._commits.any() and not store._ring.any()


def test_store_refuses_a_short_history_and_bad_counts():
    with pytest.raises(ValueError, match=r"^history length must be >= 1, got 0$"):
        PositionalStore(np.full(3, 2), 2, history_len=0)
    message = r"^interaction counts must be a 1-D array of counts >= 0$"
    for counts in (np.array([2, -1, 0]), np.full((2, 2), 1)):
        with pytest.raises(ValueError, match=message):
            PositionalStore(counts, 2, history_len=4)


def test_commit_shape_check():
    store = PositionalStore(np.full(2, 2), 3, history_len=2)
    with pytest.raises(ValueError, match="commit shape"):
        store.commit(np.array([0]), np.zeros((1, 4)))
    with pytest.raises(ValueError, match="distinct"):
        store.commit(np.array([1, 1]), np.zeros((2, 3)))


def test_identity_filter_last_column_pool_is_exact_pass_through():
    rng = np.random.default_rng(51)
    params = _params(3, 8)
    h = rng.normal(size=(5, 3, 8))
    out = approximate_pe(h, params)
    # bit-exact: the no-op chain must reproduce the newest column
    assert np.array_equal(out.data, h[:, :, -1])


def test_identity_filter_still_differentiates_under_tape():
    params = _params(2, 4)
    h = np.arange(8.0).reshape(1, 2, 4)
    with GradientTape() as tape:
        loss = sum_all(norm2(approximate_pe(h, params)))
    grads = backward(tape, loss, {"fr": params["filter_real"]})
    # the transform chain runs when recording, so filter gradients exist
    assert grads["fr"].shape == (2, 4)
    assert np.any(grads["fr"] != 0.0)


def test_approximation_matches_complex_oracle():
    rng = np.random.default_rng(52)
    for length in (1, 2, 3, 8, 16):
        d_p = 3
        params = _params(d_p, length, rng=rng, identity=False)
        h = rng.normal(size=(d_p, length))
        got = approximate_pe(h[None], params).data[0]

        filt = params["filter_real"].data + 1j * params["filter_imag"].data
        pool = params["pe_sum_pool"].data.ravel()
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
    for width in (0, 5):  # no column, or more than L
        with pytest.raises(ValueError, match="history shape"):
            approximate_pe(np.zeros((1, 2, width)), params)
    assert approximate_pe(np.ones((1, 2, 3)), params).shape == (1, 2)
    # the store's histories are constants: a tensor history is refused
    for h in (Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 2, 4)), learnable=True)):
        with pytest.raises(TypeError, match="histories"):
            approximate_pe(h, params)


def test_approximate_pe_takes_the_last_kernel_columns():
    """m < L columns meet the kernel's last m; the kernel's gradient is
    (d_p, L), exactly 0.0 in its first L - m columns, and matches
    central differences."""
    rng = np.random.default_rng(9)
    params = _params(3, 5)
    h = rng.normal(size=(4, 3, 2))
    k = Tensor(rng.normal(size=(3, 5)), learnable=True)
    with GradientTape() as tape:
        out = approximate_pe(h, params, k)
        loss = sum_all(out)
    assert np.array_equal(out.data, np.einsum("ndl,dl->nd", h, k.data[:, 3:]))
    g = backward(tape, loss, {"k": k})["k"]
    assert g.shape == (3, 5)
    assert np.all(g[:, :3] == 0.0)
    assert np.array_equal(g[:, 3:], h.sum(axis=0))

    def build():
        return sum_all(tanh(approximate_pe(h, params, k)))

    with GradientTape() as tape:
        loss = build()
    g = backward(tape, loss, {"k": k})["k"]
    for i in range(k.data.size):
        orig = k.data.flat[i]
        k.data.flat[i] = orig + 1e-6
        up = float(build().data)
        k.data.flat[i] = orig - 1e-6
        dn = float(build().data)
        k.data.flat[i] = orig
        fd, an = (up - dn) / 2e-6, float(g.flat[i])
        assert abs(an - fd) <= 1e-6 * max(abs(an), abs(fd), 1e-6), f"k[{i}]"


def test_frozen_table_is_not_read_under_a_tape():
    frozen = FrozenPE(PositionalStore(np.full(3, 4), 2, 4), _params(2, 4))
    nodes = np.array([0, 2])
    assert frozen.stale(nodes).tolist() == [0, 2]
    frozen.refresh(np.array([2]), np.ones((1, 2)))
    assert frozen.stale(nodes).tolist() == [0]
    with GradientTape():
        with pytest.raises(RuntimeError, match="gradient tape"):
            frozen.stale(nodes)


def test_frozen_rows_go_stale_when_the_store_commits():
    store = PositionalStore(np.full(4, 3), 2, 3)
    frozen = FrozenPE(store, _params(2, 3))
    nodes = np.arange(4)
    frozen.refresh(nodes, np.ones((4, 2)))
    assert frozen.stale(nodes).size == 0
    # a commit straight to the store, with no batch around it
    store.commit(np.array([3, 1]), np.ones((2, 2)))
    assert frozen.stale(nodes).tolist() == [1, 3]
    frozen.refresh(nodes, np.ones((4, 2)))
    # reset rewrites the store's counts in place; the state follows them
    store.reset(InitialPE(np.zeros((4, 2)), "zero", np.array([0])))
    assert frozen.stale(nodes).tolist() == [0, 1, 3]


def _window(neighbors, null):
    """A hand-made (n, K) window; a slot that names the null node ``null``
    is padded, and a real slot's event is its flat slot position."""
    neighbors = np.array(neighbors)
    pad = neighbors == null
    return RecentInteractions(neighbors, np.where(pad, -1, np.arange(pad.size).reshape(pad.shape)))


def test_commit_matches_hand_computation():
    rng = np.random.default_rng(53)
    d_p, d_t = 3, 4
    params = _params(d_p, 4, rng=rng, identity=False, d_t=d_t)
    cfg = RunConfig(d_t=d_t)
    # node 0 commits at t = 5 with partners 1 and 2 (at t = 3.5 and 4.5);
    # its padded slot names the null node 3, whose p~ row is zero
    table = np.vstack([rng.normal(size=(3, d_p)), np.zeros(d_p)])
    window = _window([[3, 1, 2]], null=3)
    tau = time_encode(1.5, cfg.d_t) + time_encode(0.5, cfg.d_t)
    got = refine_pe(Tensor(table), np.arange(4), np.array([0]), window, tau[None], params).data[0]

    nbr = table[1] + table[2]
    q = np.concatenate([tau, nbr])
    w1, w2, ws = (params[n].data for n in ("pe_w1", "pe_w2", "pe_w_self"))
    p_tilde = table[0]
    want = p_tilde + np.tanh(ws @ p_tilde + w2 @ np.maximum(w1 @ q, 0.0))
    assert np.max(np.abs(got - want)) < 1e-12


def test_refine_pe_is_the_same_rows_on_and_off_the_tape():
    rng = np.random.default_rng(55)
    params = _params(3, 4, rng=rng, identity=False)
    # rows of nodes 2, 5, 7, 9 and the null node 10: 5 and 9 are queried,
    # 2 is only a partner, and 10 is a padded slot with a zero p~
    ids = np.array([2, 5, 7, 9, 10])
    table = Tensor(np.vstack([rng.normal(size=(4, 3)), np.zeros(3)]), learnable=True)
    nodes = np.array([5, 9])
    window = _window([[10, 7], [2, 7]], null=10)
    tau = rng.normal(size=(2, 4))  # each window's time-encoding sum
    detached = refine_pe(table, ids, nodes, window, tau, params).data
    with GradientTape() as tape:
        taped = refine_pe(table, ids, nodes, window, tau, params)
        loss = sum_all(taped)
    assert np.array_equal(taped.data, detached)
    w1, w2, ws = (params[n].data for n in ("pe_w1", "pe_w2", "pe_w_self"))
    row = {int(n): table.data[i] for i, n in enumerate(ids)}
    nbr_sum = [row[7], row[2] + row[7]]
    for i, node in enumerate(nodes):
        p_tilde = row[int(node)]
        q = np.concatenate([tau[i], nbr_sum[i]])
        want = p_tilde + np.tanh(ws @ p_tilde + w2 @ np.maximum(w1 @ q, 0.0))
        assert np.max(np.abs(detached[i] - want)) < 1e-12
    leaves = {n: params[n] for n in ("pe_w1", "pe_w2", "pe_w_self")} | {"ptilde": table}
    grads = backward(tape, loss, leaves)
    for name, g in grads.items():
        assert np.any(g != 0.0), f"no gradient reached {name}"
    # through p~ of the queried nodes (rows 1, 3) and through the pooled
    # partners (row 0 is only ever a partner)
    for r in (0, 1, 3):
        assert np.any(grads["ptilde"][r] != 0.0), r


def test_commit_with_zero_weights_is_identity():
    params = _params(2, 4)  # all-zero MLP weights
    p_tilde = np.array([[0.3, -0.7], [1.5, 2.0]])
    window = _window([[1], [0]], null=2)
    tau = np.tile(time_encode(1.0, 4), (2, 1))
    got = refine_pe(Tensor(p_tilde), np.arange(2), np.arange(2), window, tau, params).data
    assert np.array_equal(got, p_tilde)


def test_commit_all_padding_uses_zero_q():
    rng = np.random.default_rng(54)
    params = _params(2, 4, rng=rng, identity=False)
    cfg = RunConfig(d_t=4)
    p_tilde = rng.normal(size=2)
    # node 1 commits with no interactions: both slots name the null
    # node 2, whose p~ row is zero, so q is zero
    table = np.stack([np.full(2, np.nan), p_tilde, np.zeros(2)])
    window = _window([[2, 2]], null=2)
    tau = np.zeros((1, cfg.d_t))  # what window_tau sums over no real slot
    got = refine_pe(Tensor(table), np.arange(3), np.array([1]), window, tau, params).data[0]
    w1, w2, ws = (params[n].data for n in ("pe_w1", "pe_w2", "pe_w_self"))
    want = p_tilde + np.tanh(ws @ p_tilde + w2 @ np.maximum(w1 @ np.zeros(6), 0.0))
    assert np.max(np.abs(got - want)) < 1e-12


def test_ring_eigenvalue_ladder():
    lam = ring_eigenvalues(4)
    assert np.allclose(lam, [2.0, 3.0, 2.0, 1.0], atol=1e-12)


def test_drift_bound_value_and_verdict():
    # |filter| = 1 everywhere; the bound reads only the filter
    params = {n: t for n, t in _params(1, 4).items() if n.startswith("filter")}
    # bound = (2 + 3 + 2 + 1) * (2 * 4 - 2) = 48
    ok = theorem1_check(np.array([[0.0], [5.0]]), params)
    assert abs(ok.bound - 48.0) < 1e-12
    assert ok.max_step_diff == 5.0
    assert ok.satisfied
    bad = theorem1_check(np.array([[0.0], [100.0]]), params)
    assert not bad.satisfied


def test_drift_bound_scales_with_filter_modulus():
    params = _params(1, 4)
    params["filter_real"].data[:] = 3.0
    params["filter_imag"].data[:] = 4.0  # modulus 5 at every frequency
    rep = theorem1_check(np.zeros((3, 1)), params)
    assert abs(rep.bound - 5.0 * 48.0) < 1e-12


def test_drift_bound_trace_validation():
    params = _params(1, 4)
    with pytest.raises(ValueError, match="at least 2"):
        theorem1_check(np.zeros((1, 1)), params)
    with pytest.raises(ValueError, match="at least 2"):
        theorem1_check(np.zeros(5), params)
