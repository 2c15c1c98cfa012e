"""Tape mechanics and per-op gradients against central differences."""
import tracemalloc

import numpy as np
import pytest

from lstep import training
from lstep.autodiff import (
    SLAB_COLS,
    GradientTape,
    Tensor,
    add,
    backward,
    clamp,
    concat,
    elementwise_mul,
    gather_rows,
    gather_sum_rows,
    linear,
    log,
    matmul,
    norm2,
    relu,
    scale,
    sigmoid,
    sub,
    sum_all,
    tanh,
)
from lstep.config import parse_config
from lstep.events import chronological_split
from lstep.lpe import PositionalStore
from lstep.model import ModelDims, init_model_params
from lstep.sampling import NegativeSampler
from lstep.synthetic import make_periodic_stream


def _fd_check(build, params, h=1e-6, tol=1e-6):
    """Compare tape gradients of a scalar loss to central differences."""
    with GradientTape() as tape:
        loss = build()
    grads = backward(tape, loss, params)
    for name, t in params.items():
        flat = t.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with GradientTape():
                up = float(build().data.ravel()[0])
            flat[i] = orig - h
            with GradientTape():
                dn = float(build().data.ravel()[0])
            flat[i] = orig
            fd = (up - dn) / (2.0 * h)
            an = float(grads[name].ravel()[i])
            err = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            assert err < tol, f"{name}[{i}]: analytic {an} vs fd {fd}"


def test_matmul_forward_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 5))
    got = matmul(Tensor(a), Tensor(b)).data
    want = np.zeros((3, 5))
    for i in range(3):
        for j in range(5):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    assert np.allclose(got, want, atol=1e-12)


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ValueError, match=r"\(3,\) @ \(3, 2\)"):
        matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_add_shape_error():
    with pytest.raises(ValueError, match=r"\(2,\) vs \(3,\)"):
        add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))


def test_elementwise_op_gradients():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(5,)), learnable=True)
    y = Tensor(rng.normal(size=(5,)), learnable=True)

    def build():
        z = elementwise_mul(add(x, y), sub(x, y))
        z = add(tanh(z), sigmoid(scale(z, 0.5)))
        return sum_all(z)

    _fd_check(build, {"x": x, "y": y})


def test_matmul_concat_relu_gradients():
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(6, 3)), learnable=True)
    a = Tensor(rng.normal(size=(1, 4)), learnable=True)
    b = Tensor(rng.normal(size=(1, 2)), learnable=True)

    def build():
        v = matmul(concat(a, b), w)
        return sum_all(relu(v))

    _fd_check(build, {"w": w, "a": a, "b": b})


def test_pooling_op_gradients():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(4, 3)), learnable=True)
    index = np.array([[2, 0, 2], [1, 3, 3], [0, 0, 1]])  # repeated rows within a sum
    want = np.stack([x.data[index[i]].sum(axis=0) for i in range(3)])
    assert np.allclose(gather_sum_rows(x, index).data, want, atol=1e-14)

    def build():
        return sum_all(tanh(gather_sum_rows(x, index)))

    _fd_check(build, {"x": x})
    with pytest.raises(ValueError, match="gather_sum_rows expects"):
        gather_sum_rows(x, index[0])


def _slot_data(n, k, rng):
    """37 random rows and a zero row 37; each slot is padded with
    probability 0.3, and a padded slot names the zero row."""
    x = np.vstack([rng.normal(size=(37, 11)), np.zeros(11)])
    index = rng.integers(0, 37, size=(n, k))
    real = rng.random((n, k)) < 0.7
    index[~real] = 37
    return x, index, real


def test_gather_sum_rows_blocks_add_as_one_slot_walk():
    """The row-blocked walk adds each row's slots in slot order, so its
    sums equal a whole-batch slot walk bit for bit, across blocks; any
    index outside the rows raises."""
    rng = np.random.default_rng(8)
    for n, k in ((1, 1), (63, 3), (64, 5), (200, 20)):
        x, index, _ = _slot_data(n, k, rng)
        want = np.zeros((n, 11))
        for j in range(k):
            want += x[index[:, j]]
        assert np.array_equal(gather_sum_rows(Tensor(x), index).data, want)
    for bad in (38, -1):
        index[0, 0] = bad
        with pytest.raises(IndexError, match="outside the 38 rows"):
            gather_sum_rows(Tensor(x), index)


def test_gather_sum_rows_pads_at_a_zero_row_equal_skipping_them():
    """A padded slot that names a zero row adds nothing: the sums equal a
    per-slot loop that skips the pads, bit for bit, and so do the
    gradients of every other row; the zero row takes the pads' gradient.
    The output gradient holds small integers, so its sums are exact in
    any order."""
    rng = np.random.default_rng(8)
    for n, k in ((1, 1), (63, 3), (64, 5), (200, 20)):
        x, index, real = _slot_data(n, k, rng)
        want = np.zeros((n, 11))
        for j in range(k):
            want[real[:, j]] += x[index[real[:, j], j]]
        g = rng.integers(-8, 9, size=(n, 11)).astype(np.float64)
        want_grad = np.zeros_like(x)
        for i, j in zip(*np.nonzero(real)):  # row-major: each row's slots in order
            want_grad[index[i, j]] += g[i]
        leaf = Tensor(x, learnable=True)
        with GradientTape() as tape:
            out = gather_sum_rows(leaf, index)
            loss = sum_all(elementwise_mul(out, Tensor(g)))
        assert np.array_equal(out.data, want)
        grad = backward(tape, loss, {"x": leaf})["x"]
        assert np.array_equal(grad[:37], want_grad[:37])
        pads = (~real).sum(axis=1, keepdims=True)  # each pad slot adds its row's g
        assert np.array_equal(grad[37], (pads * g).sum(axis=0))


def _gather_sum_vjp(x, index):
    """The VJP that one taped ``gather_sum_rows(x, index)`` records."""
    with GradientTape() as tape:
        gather_sum_rows(Tensor(x, learnable=True), index)
    (_, _, vjp), = tape._nodes
    return vjp


def _whole_width_scatter(num_rows, index, g):
    """Reference: each slot's output-gradient row, copied out whole and
    summed per target row by one whole-width ``np.add.reduceat``."""
    flat = index.ravel()
    order = np.argsort(flat, kind="stable")
    rows = flat[order]
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    out = np.zeros((num_rows, g.shape[1]))
    out[rows[starts]] = np.add.reduceat(g[order // index.shape[1]], starts, axis=0)
    return out


@pytest.mark.parametrize("d", [172, 72, 16, 1])
def test_gather_sum_rows_slab_scatter_equals_one_whole_width_reduceat(d):
    """The backward gathers the output gradient a slab of columns at a
    time; as reduceat sums each column on its own, the result equals the
    whole-width call bit for bit, for float gradients, at widths that are
    not a multiple of the slab, with one slot or many, targets repeated
    within and across rows, and pads at a null row."""
    assert d % SLAB_COLS or d < SLAB_COLS
    rng = np.random.default_rng(d)
    for n, k in ((1, 1), (300, 1), (5, 7), (600, 20)):
        x = np.vstack([rng.normal(size=(40, d)), np.zeros(d)])
        index = rng.integers(0, 12, size=(n, k))  # few targets, each many times
        index[rng.random((n, k)) < 0.4] = 40  # the null row
        g = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 7, size=(n, 1))
        (grad,) = _gather_sum_vjp(x, index)(g)
        assert np.array_equal(grad, _whole_width_scatter(41, index, g))
        if k > 1:  # summation order shows in these sums
            assert np.unique(index).size < index.size


def test_gather_sum_rows_backward_never_copies_a_row_per_slot():
    """At a reddit training batch (600 rows, 20 slots, 172 columns) the
    backward's peak holds the result, one slab's pick and a few
    slot-length index arrays: far below the n*K*d*8 bytes of a copy of
    the output gradient per slot."""
    n, k, d, num_rows = 600, 20, 172, 501
    rng = np.random.default_rng(9)
    index = rng.integers(0, num_rows, size=(n, k))
    index[:, : k // 2] = num_rows - 1  # half the slots padded, as early in a stream
    g = rng.normal(size=(n, d))
    vjp = _gather_sum_vjp(np.zeros((num_rows, d)), index)
    tracemalloc.start()
    try:
        vjp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = num_rows * d * 8 + n * k * (SLAB_COLS + 8) * 8
    assert peak < bound < n * k * d * 8 / 3


def test_batched_ops_gradients():
    rng = np.random.default_rng(7)
    table = Tensor(rng.normal(size=(4, 3)), learnable=True)
    other = Tensor(rng.normal(size=(6, 2)), learnable=True)
    w = Tensor(rng.normal(size=(2, 5)), learnable=True)  # stored as (out, in)

    def build():
        rows = gather_rows(table, np.array([2, 0, 2, 3, 2, 1]))  # row 2 three times
        mixed = concat(rows, other)  # (6, 5)
        return add(sum_all(norm2(mixed)), sum_all(tanh(linear(mixed, w))))

    _fd_check(build, {"table": table, "other": other, "w": w})


def test_batched_ops_forward_values():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 3))
    assert np.array_equal(gather_rows(Tensor(x), np.array([3, 3, 0])).data, x[[3, 3, 0]])
    assert np.allclose(norm2(Tensor(x)).data, np.linalg.norm(x, axis=1), atol=1e-14)
    both = concat(Tensor(x), Tensor(x[:, :1])).data
    assert np.array_equal(both, np.hstack([x, x[:, :1]]))
    with pytest.raises(ValueError, match="concat shape mismatch"):
        concat(Tensor(x), Tensor(np.zeros((3, 1))))


def test_sigmoid_matches_the_two_branch_formula_bit_for_bit():
    # exp's overflow and underflow edges, signed zeros and the float range
    ends = [0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 746.0, -746.0, 1e308, -1e308]
    x = np.concatenate([ends, np.linspace(-800.0, 800.0, 80_000)])
    pos = x >= 0.0
    want = np.empty_like(x)
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    want[~pos] = e / (1.0 + e)
    got = sigmoid(Tensor(x)).data
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got[:8].tolist() == [0.5, 0.5, want[2], want[3], 1.0, 5e-324, 1.0, 0.0]


def test_log_clamp_gradients():
    x = Tensor(np.array([0.2, 0.8, 0.5]), learnable=True)

    def build():
        return sum_all(log(clamp(x, 1e-12, 1.0 - 1e-12)))

    _fd_check(build, {"x": x})


def test_clamp_blocks_gradient_outside_interior():
    x = Tensor(np.array([-1.0, 0.5, 2.0]), learnable=True)
    with GradientTape() as tape:
        loss = sum_all(clamp(x, 0.0, 1.0))
    g = backward(tape, loss, {"x": x})["x"]
    assert np.array_equal(g, np.array([0.0, 1.0, 0.0]))


def test_norm2_zero_input_has_zero_gradient():
    x = Tensor(np.zeros(4), learnable=True)
    with GradientTape() as tape:
        loss = norm2(x)
    g = backward(tape, loss, {"x": x})["x"]
    assert float(loss.data) == 0.0
    assert np.array_equal(g, np.zeros(4))
    rows = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]), learnable=True)
    with GradientTape() as tape:
        loss = sum_all(norm2(rows))
    g = backward(tape, loss, {"rows": rows})["rows"]
    assert np.array_equal(g[0], [0.0, 0.0])
    assert np.allclose(g[1], [0.6, 0.8], atol=1e-15)


def test_fanout_gradients_accumulate():
    # x feeds two branches; grad is the sum of both contributions
    x = Tensor(np.array([1.5, -0.5]), learnable=True)
    with GradientTape() as tape:
        loss = sum_all(add(elementwise_mul(x, x), scale(x, 3.0)))
    g = backward(tape, loss, {"x": x})["x"]
    assert np.allclose(g, 2.0 * x.data + 3.0, atol=1e-12)


def test_backward_rejects_loss_off_tape():
    x = Tensor(np.ones(2), learnable=True)
    loss = sum_all(x)  # built outside any tape
    tape = GradientTape()
    with pytest.raises(ValueError, match="not recorded"):
        backward(tape, loss, {"x": x})


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones(3), learnable=True)
    with GradientTape() as tape:
        y = scale(x, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        backward(tape, y, {"x": x})


def test_constant_loss_gives_zero_gradients():
    x = Tensor(np.ones(3), learnable=True)
    with GradientTape() as tape:
        loss = sum_all(add(Tensor(np.ones(2)), Tensor(np.ones(2))))
    g = backward(tape, loss, {"x": x})["x"]
    assert np.array_equal(g, np.zeros(3))


def test_nested_tape_rejected():
    with GradientTape():
        with pytest.raises(RuntimeError, match="already active"):
            with GradientTape():
                pass


def test_tape_keeps_no_activation_its_vjps_do_not_read():
    # add's VJP reads nothing, so each sum dies when the next replaces it
    x = Tensor(np.ones((1000, 100)), learnable=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with GradientTape() as tape:
            z = x
            for _ in range(50):
                z = add(z, x)
            loss = sum_all(z)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2 * x.data.nbytes  # the last sum, and the tape's bookkeeping
    assert np.array_equal(backward(tape, loss, {"x": x})["x"], np.full(x.shape, 51.0))


def test_backward_sweeps_a_tape_once_and_len_counts_recorded_ops():
    x = Tensor(np.array([1.0, 2.0]), learnable=True)
    with GradientTape() as tape:
        loss = sum_all(tanh(scale(x, 2.0)))
    assert len(tape) == 3
    backward(tape, loss, {"x": x})
    assert len(tape) == 3
    with pytest.raises(ValueError, match="already swept"):
        backward(tape, loss, {"x": x})


def test_backward_rejects_a_loss_recorded_on_another_tape():
    x = Tensor(np.array([1.0, 2.0]), learnable=True)
    with GradientTape() as tape_a:
        loss_a = sum_all(tanh(x))
    with GradientTape() as tape_b:
        sum_all(scale(x, 3.0))
    with pytest.raises(ValueError, match="not recorded"):
        backward(tape_b, loss_a, {"x": x})
    assert np.allclose(backward(tape_a, loss_a, {"x": x})["x"], 1.0 - np.tanh(x.data) ** 2)


def _tensors_in(obj, seen=None):
    """Tensors reachable from ``obj`` through containers and closure cells."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return [obj]
    if isinstance(obj, (tuple, list)):
        items = obj
    elif isinstance(obj, dict):
        items = list(obj.values())
    elif callable(obj) and getattr(obj, "__closure__", None):
        items = [cell.cell_contents for cell in obj.__closure__]
    else:
        return []
    return [t for item in items for t in _tensors_in(item, seen)]


def test_no_tape_entry_or_vjp_holds_a_tensor_after_a_training_batch():
    cfg = parse_config(
        "d_t = 4\nd_n = 6\nd_e = 6\nd_p = 4\nhistory_len = 4\n"
        "t_gap = 12.0\nrecent_k = 2\nbatch_size = 10\n"
    )
    stream = make_periodic_stream(num_pairs=3, num_events=80, d_n=6, d_e=6)
    split = chronological_split(stream)
    params = init_model_params(ModelDims.from_config(cfg), seed=0)
    store = PositionalStore(stream.interaction_counts(), cfg.d_p, cfg.history_len)
    store.reset(training.build_initial_pe(stream, split, cfg))
    batch = np.arange(cfg.batch_size)
    neg = NegativeSampler(stream, split, "random", 0).sample(batch)
    with GradientTape() as tape:
        fwd = training._batch_forward(stream, store, params, cfg, batch, [(batch, neg)])
        loss = training._batch_loss(fwd, stream, batch, neg)
    assert len(tape) == len(tape._nodes) > 0
    assert _tensors_in(tape._nodes) == []
    grads = backward(tape, loss, params.tensors)
    assert any(np.any(g != 0.0) for g in grads.values())
