"""Spectral transform tests against a slow loop-based oracle."""
import cmath

import numpy as np
import pytest

from lstep.autodiff import (
    GradientTape,
    Tensor,
    backward,
    norm2,
    sum_all,
    weighted_sum_cols,
)
from lstep.fourier import dft, filter_kernel, idft

LENGTHS = (1, 2, 3, 8, 16, 100)


def _oracle_dft(row):
    """Direct transform with 1-based index phases, written with scalar loops."""
    length = len(row)
    out = []
    for j in range(1, length + 1):
        acc = 0.0 + 0.0j
        for k in range(1, length + 1):
            acc += row[k - 1] * cmath.exp(-2j * cmath.pi * j * k / length)
        out.append(acc)
    return np.array(out)


def _oracle_idft(spectrum):
    length = len(spectrum)
    out = []
    for k in range(1, length + 1):
        acc = 0.0 + 0.0j
        for j in range(1, length + 1):
            acc += spectrum[j - 1] * cmath.exp(2j * cmath.pi * j * k / length)
        out.append((acc / length).real)
    return np.array(out)


def test_forward_matches_oracle():
    rng = np.random.default_rng(11)
    for length in LENGTHS:
        h = rng.normal(size=(3, length))
        spec = dft(h)
        for d in range(3):
            assert np.max(np.abs(spec[d] - _oracle_dft(h[d]))) < 1e-10


def test_inverse_matches_oracle():
    rng = np.random.default_rng(12)
    for length in LENGTHS:
        xr = rng.normal(size=(2, length))
        xi = rng.normal(size=(2, length))
        got = idft(xr + 1j * xi)
        for d in range(2):
            want = _oracle_idft(xr[d] + 1j * xi[d])
            assert np.max(np.abs(got[d] - want)) < 1e-10


def test_roundtrip_recovers_history():
    rng = np.random.default_rng(13)
    for length in LENGTHS:
        for _ in range(10):
            h = rng.normal(size=(4, length))
            back = idft(dft(h))
            assert np.max(np.abs(back - h)) < 1e-9


def test_constant_row_concentrates_in_last_bin():
    # a constant history row has a single spike at the final frequency
    c, length = 2.5, 8
    spec = dft(np.full((1, length), c))[0]
    assert abs(spec[-1] - c * length) < 1e-9
    assert np.max(np.abs(spec[:-1])) < 1e-9


def test_length_one_transform_is_identity():
    assert abs(dft(np.array([[3.25]]))[0, 0] - 3.25) < 1e-12


def test_transform_is_linear():
    rng = np.random.default_rng(14)
    for _ in range(20):
        length = int(rng.integers(1, 33))
        x = rng.normal(size=(2, length))
        y = rng.normal(size=(2, length))
        a, b = rng.normal(size=2)
        assert np.allclose(dft(a * x + b * y), a * dft(x) + b * dft(y), atol=1e-9)


def test_rejects_non_matrix_input():
    with pytest.raises(ValueError, match="2-D"):
        dft(np.zeros(4))
    with pytest.raises(ValueError, match="2-D"):
        idft(np.zeros(4))
    ones = Tensor(np.ones((2, 4)))
    with pytest.raises(ValueError, match="shape mismatch"):
        filter_kernel(ones, ones, Tensor(np.ones((4, 2))))


def _naive_kernel(fr, fi, pool):
    """Kernel of the DFT -> filter -> IDFT -> pool chain as explicit matrices:
    pooled filtering of a history row h is pool^T W^-1 diag(F_d) W h."""
    length = fr.shape[1]
    w = np.array(
        [
            [cmath.exp(-2j * cmath.pi * j * k / length) for k in range(1, length + 1)]
            for j in range(1, length + 1)
        ]
    )
    w_inv = np.conj(w) / length
    return np.stack([(pool.T @ w_inv @ np.diag(f) @ w).real[0] for f in fr + 1j * fi])


def test_filter_kernel_matches_naive_chain():
    rng = np.random.default_rng(16)
    for length in LENGTHS:
        fr, fi = rng.normal(size=(2, 3, length))
        pool = rng.normal(size=(length, 1))
        got = filter_kernel(Tensor(fr), Tensor(fi), Tensor(pool)).data
        assert np.max(np.abs(got - _naive_kernel(fr, fi, pool))) < 1e-10


def _assert_gradients_match_fd(build, tensors):
    """Tape gradients of the scalar ``build()`` against central differences."""
    with GradientTape() as tape:
        loss = build()
    grads = backward(tape, loss, tensors)
    eps = 1e-6
    for name, t in tensors.items():
        flat = t.data.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = float(build().data)
            flat[i] = keep - eps
            dn = float(build().data)
            flat[i] = keep
            fd = (up - dn) / (2 * eps)
            an = float(grads[name].ravel()[i])
            assert abs(an - fd) / max(abs(an), abs(fd), 1e-6) < 1e-5, (name, i)


def test_filter_chain_gradient_matches_finite_differences():
    """filter_kernel's F_re, F_im and pool gradients, with the kernel
    contracted against a history and the result passed through a norm."""
    rng = np.random.default_rng(15)
    h = Tensor(rng.normal(size=(3, 2, 6)))
    wr = Tensor(rng.normal(size=(2, 6)), learnable=True)
    wi = Tensor(rng.normal(size=(2, 6)), learnable=True)
    pool = Tensor(rng.normal(size=(6, 1)), learnable=True)

    def build():
        return sum_all(norm2(weighted_sum_cols(h, filter_kernel(wr, wi, pool))))

    _assert_gradients_match_fd(build, {"wr": wr, "wi": wi, "pool": pool})


def test_identity_filter_kernel_is_the_pool_on_and_off_the_tape():
    """At F = 1 + 0i the kernel is the pool bit for bit (an FFT round trip
    would move its last bits), and the gradients there are the chain's."""
    rng = np.random.default_rng(17)
    h = Tensor(rng.normal(size=(3, 4, 100)))
    wr = Tensor(np.ones((4, 100)), learnable=True)
    wi = Tensor(np.zeros((4, 100)), learnable=True)
    pool = Tensor(rng.normal(size=(100, 1)), learnable=True)
    want = np.broadcast_to(pool.data.T, (4, 100))
    assert filter_kernel(wr, wi, pool).data.tobytes() == want.tobytes()
    with GradientTape():
        taped = filter_kernel(wr, wi, pool)
    assert taped.data.tobytes() == want.tobytes()

    def build():
        return sum_all(norm2(weighted_sum_cols(h, filter_kernel(wr, wi, pool))))

    _assert_gradients_match_fd(build, {"wr": wr, "wi": wi, "pool": pool})
