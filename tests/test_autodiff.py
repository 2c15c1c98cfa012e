"""Tape mechanics and per-op gradients against central differences."""
import numpy as np
import pytest

from lstep.autodiff import (
    GradientTape,
    Tensor,
    add,
    backward,
    clamp,
    concat,
    elementwise_mul,
    gather_rows,
    linear,
    log,
    matmul,
    norm2,
    phase_pool,
    relu,
    scale,
    sigmoid,
    sub,
    sum_all,
    tanh,
    weighted_sum_cols,
)


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
    x = Tensor(rng.normal(size=(4, 5)), learnable=True)
    stack = Tensor(rng.normal(size=(2, 4, 5)), learnable=True)
    w = Tensor(rng.normal(size=(4, 5)), learnable=True)  # one weight row per d
    v = Tensor(rng.normal(size=(5, 4)), learnable=True)

    def build():
        pooled = weighted_sum_cols(x, w)
        batched = weighted_sum_cols(stack, w)  # (2, 4): one row per stacked matrix
        cols = weighted_sum_cols(linear(np.eye(5), x), v)  # x.T
        return add(add(norm2(pooled), sum_all(norm2(batched))), norm2(cols))

    _fd_check(build, {"x": x, "stack": stack, "w": w, "v": v})


def test_batched_ops_gradients():
    rng = np.random.default_rng(7)
    table = Tensor(rng.normal(size=(4, 3)), learnable=True)
    hist = Tensor(rng.normal(size=(2, 3, 5)), learnable=True)
    kern = Tensor(rng.normal(size=(3, 5)), learnable=True)
    other = Tensor(rng.normal(size=(6, 2)), learnable=True)
    short = Tensor(rng.normal(size=(4, 3, 2)), learnable=True)

    def build():
        rows = gather_rows(table, np.array([2, 0, 2, 3, 2, 1]))  # row 2 three times
        mixed = concat(rows, other)  # (6, 5)
        pooled = weighted_sum_cols(hist, kern)  # (2, 3): one weight row per d
        newest = weighted_sum_cols(short, kern)  # (4, 3): kern's last 2 columns
        return add(add(sum_all(norm2(mixed)), sum_all(tanh(pooled))), sum_all(tanh(newest)))

    leaves = {"table": table, "hist": hist, "kern": kern, "other": other, "short": short}
    _fd_check(build, leaves)


def test_batched_ops_forward_values():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 3))
    h = rng.normal(size=(2, 3, 5))
    k = rng.normal(size=(3, 5))
    assert np.array_equal(gather_rows(Tensor(x), np.array([3, 3, 0])).data, x[[3, 3, 0]])
    got = weighted_sum_cols(Tensor(h), Tensor(k)).data
    assert np.allclose(got, (h * k).sum(axis=2), atol=1e-14)
    assert np.allclose(norm2(Tensor(x)).data, np.linalg.norm(x, axis=1), atol=1e-14)
    both = concat(Tensor(x), Tensor(x[:, :1])).data
    assert np.array_equal(both, np.hstack([x, x[:, :1]]))
    with pytest.raises(ValueError, match="weighted_sum_cols shape mismatch"):
        weighted_sum_cols(Tensor(h), Tensor(k.T))
    with pytest.raises(ValueError, match="concat shape mismatch"):
        concat(Tensor(x), Tensor(np.zeros((3, 1))))


def test_weighted_sum_cols_takes_the_last_columns_of_a_wider_weight():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(4, 3, 2))
    k = Tensor(rng.normal(size=(3, 5)), learnable=True)
    with GradientTape() as tape:
        out = weighted_sum_cols(Tensor(h), k)
        loss = sum_all(out)
    assert np.array_equal(out.data, np.einsum("ndl,dl->nd", h, k.data[:, 3:]))
    g = backward(tape, loss, {"k": k})["k"]
    assert g.shape == (3, 5)
    assert np.all(g[:, :3] == 0.0)
    assert np.array_equal(g[:, 3:], h.sum(axis=0))
    for bad in (np.zeros((4, 3, 6)), np.zeros((4, 2, 2)), np.zeros((4, 3, 0))):
        with pytest.raises(ValueError, match="weighted_sum_cols shape mismatch"):
            weighted_sum_cols(Tensor(bad), k)  # m > L, a wrong d, or m = 0


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


def test_weighted_sum_cols_matches_matmul():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 7))
    w = rng.normal(size=(7, 1))
    # a per-row kernel whose rows all equal w is the product x @ w
    got = weighted_sum_cols(Tensor(x), Tensor(np.tile(w.T, (3, 1)))).data
    assert np.allclose(got, (x @ w).ravel(), atol=1e-14)
    with pytest.raises(ValueError, match="weighted_sum_cols shape mismatch"):
        weighted_sum_cols(Tensor(x), Tensor(w))  # one weight per column is gone


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
    _fd_check(lambda: sum_all(tanh(phase_pool(rows, index, w, phases)[0])), {"w": w})
    with pytest.raises(ValueError, match="phase_pool shape mismatch"):
        phase_pool(rows, index, Tensor(np.ones((2, 1))), phases)
    with pytest.raises(IndexError, match="outside the 5 rows"):
        phase_pool(rows, index + 1, w, phases)
