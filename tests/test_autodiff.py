"""Tape mechanics and per-op gradients against central differences."""
import tracemalloc

import numpy as np
import pytest

from lstep import training
from lstep.autodiff import (
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
    mask = np.array([[True, False, True], [False, False, False], [True, True, True]])
    want = np.stack([x.data[index[i]][mask[i]].sum(axis=0) for i in range(3)])
    assert np.allclose(gather_sum_rows(x, index, mask).data, want, atol=1e-14)

    def build():
        return sum_all(tanh(gather_sum_rows(x, index, mask)))

    _fd_check(build, {"x": x})
    with pytest.raises(ValueError, match="gather_sum_rows expects"):
        gather_sum_rows(x, index, mask[:, :2])


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
        fwd = training._batch_forward(stream, store, params, cfg, batch, batch, neg)
        loss = training._batch_loss(fwd, stream, batch, neg, cfg)
    assert len(tape) == len(tape._nodes) > 0
    assert _tensors_in(tape._nodes) == []
    grads = backward(tape, loss, params.tensors)
    assert any(np.any(g != 0.0) for g in grads.values())
