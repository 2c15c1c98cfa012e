"""Adam update rule against a scalar reference implementation."""
import numpy as np
import pytest

from lstep.autodiff import Tensor
from lstep.optim import AdamState, adam_step


def test_first_step_moves_by_learning_rate():
    state = AdamState(lr=1e-4)
    p = Tensor(np.array([1.0]), learnable=True, name="w")
    adam_step(state, {"w": p}, {"w": np.array([0.5])})
    # after one step m_hat = g, v_hat = g^2, so the move is lr * g / (|g| + eps)
    want = 1.0 - 1e-4 * 0.5 / (0.5 + 1e-8)
    assert abs(p.data[0] - want) < 1e-15


def test_matches_reference_loop():
    rng = np.random.default_rng(31)
    grads = [rng.normal(size=(3,)) for _ in range(25)]

    state = AdamState(lr=0.01)
    p = Tensor(np.zeros(3), learnable=True, name="w")
    for g in grads:
        adam_step(state, {"w": p}, {"w": g.copy()})

    # independent reference with explicit bias correction
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    x = np.zeros(3)
    m = np.zeros(3)
    v = np.zeros(3)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert np.max(np.abs(p.data - x)) < 1e-12


def test_zero_gradient_leaves_parameter_fixed():
    state = AdamState()
    p = Tensor(np.array([2.0, -3.0]), learnable=True, name="w")
    before = p.data.copy()
    for _ in range(5):
        adam_step(state, {"w": p}, {"w": np.zeros(2)})
    assert np.array_equal(p.data, before)


def test_two_runs_are_bit_identical():
    rng = np.random.default_rng(32)
    grads = [rng.normal(size=(4,)) for _ in range(10)]
    results = []
    for _ in range(2):
        state = AdamState(lr=1e-3)
        p = Tensor(np.ones(4), learnable=True, name="w")
        for g in grads:
            adam_step(state, {"w": p}, {"w": g.copy()})
        results.append(p.data.copy())
    assert np.array_equal(results[0], results[1])


def test_non_finite_gradient_names_parameter():
    state = AdamState()
    p = Tensor(np.ones(2), learnable=True, name="filter_real")
    bad = np.array([1.0, np.nan])
    with pytest.raises(FloatingPointError, match="filter_real"):
        adam_step(state, {"filter_real": p}, {"filter_real": bad})


def test_missing_gradient_raises():
    state = AdamState()
    p = Tensor(np.ones(2), learnable=True, name="w")
    with pytest.raises(KeyError, match="w"):
        adam_step(state, {"w": p}, {})


def test_step_counter_advances_once_per_call():
    state = AdamState()
    p = Tensor(np.ones(1), learnable=True, name="w")
    q = Tensor(np.ones(1), learnable=True, name="u")
    adam_step(state, {"w": p, "u": q}, {"w": np.ones(1), "u": np.ones(1)})
    assert state.step == 1


def _reference_step(state, params, grads):
    """The allocating update, kept as the bit-exact reference."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + eps)


def test_in_place_update_equals_the_allocating_formula_bit_for_bit():
    rng = np.random.default_rng(33)
    shapes = {"w": (5, 3), "k": (4, 7), "b": (3, 1)}
    start = {n: rng.normal(size=s) for n, s in shapes.items()}
    steps = [{n: rng.normal(size=s) * 10.0 ** rng.integers(-6, 2) for n, s in shapes.items()}
             for _ in range(20)]
    for grads in steps:
        grads["k"] = np.asfortranarray(grads["k"])  # as a linear layer's transposed gradient

    state, ref = AdamState(lr=1e-3), AdamState(lr=1e-3)
    params = {n: Tensor(a.copy(), learnable=True) for n, a in start.items()}
    want = {n: Tensor(a.copy(), learnable=True) for n, a in start.items()}
    buffers = {n: p.data for n, p in params.items()}
    for grads in steps:
        adam_step(state, params, grads)
        _reference_step(ref, want, grads)
        if state.step == 1:
            moments = {n: (state.m[n], state.v[n]) for n in shapes}
    for n in shapes:
        assert params[n].data.tobytes() == want[n].data.tobytes()
        assert state.m[n].tobytes() == ref.m[n].tobytes()
        assert state.v[n].tobytes() == ref.v[n].tobytes()
        # the parameter and both moments keep the arrays they started with
        assert params[n].data is buffers[n]
        assert state.m[n] is moments[n][0] and state.v[n] is moments[n][1]
