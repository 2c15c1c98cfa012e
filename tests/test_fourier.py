"""Spectral transform tests against a slow loop-based oracle."""
import cmath

import numpy as np
import pytest

from lstep.autodiff import (
    ComplexTensor,
    GradientTape,
    Tensor,
    backward,
    norm2,
    weighted_sum_cols,
)
from lstep.fourier import complex_elementwise_mul, dft_time_axis, idft_time_axis

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
        spec = dft_time_axis(Tensor(h))
        for d in range(3):
            want = _oracle_dft(h[d])
            assert np.max(np.abs(spec.real.data[d] - want.real)) < 1e-10
            assert np.max(np.abs(spec.imag.data[d] - want.imag)) < 1e-10


def test_inverse_matches_oracle():
    rng = np.random.default_rng(12)
    for length in LENGTHS:
        xr = rng.normal(size=(2, length))
        xi = rng.normal(size=(2, length))
        got = idft_time_axis(ComplexTensor(Tensor(xr), Tensor(xi))).data
        for d in range(2):
            want = _oracle_idft(xr[d] + 1j * xi[d])
            assert np.max(np.abs(got[d] - want)) < 1e-10


def test_roundtrip_recovers_history():
    rng = np.random.default_rng(13)
    for length in LENGTHS:
        for _ in range(10):
            h = rng.normal(size=(4, length))
            spec = dft_time_axis(Tensor(h))
            back = idft_time_axis(spec).data
            assert np.max(np.abs(back - h)) < 1e-9


def test_constant_row_concentrates_in_last_bin():
    # a constant history row has a single spike at the final frequency
    c, length = 2.5, 8
    spec = dft_time_axis(Tensor(np.full((1, length), c)))
    mag = np.hypot(spec.real.data[0], spec.imag.data[0])
    assert abs(spec.real.data[0, -1] - c * length) < 1e-9
    assert abs(spec.imag.data[0, -1]) < 1e-9
    assert np.max(mag[:-1]) < 1e-9


def test_length_one_transform_is_identity():
    spec = dft_time_axis(Tensor(np.array([[3.25]])))
    assert abs(spec.real.data[0, 0] - 3.25) < 1e-12
    assert abs(spec.imag.data[0, 0]) < 1e-12


def test_transform_is_linear():
    rng = np.random.default_rng(14)
    for _ in range(20):
        length = int(rng.integers(1, 33))
        x = rng.normal(size=(2, length))
        y = rng.normal(size=(2, length))
        a, b = rng.normal(size=2)
        lhs = dft_time_axis(Tensor(a * x + b * y))
        rx = dft_time_axis(Tensor(x))
        ry = dft_time_axis(Tensor(y))
        assert np.allclose(lhs.real.data, a * rx.real.data + b * ry.real.data, atol=1e-9)
        assert np.allclose(lhs.imag.data, a * rx.imag.data + b * ry.imag.data, atol=1e-9)


def test_rejects_non_matrix_input():
    with pytest.raises(ValueError, match="2-D"):
        dft_time_axis(Tensor(np.zeros(4)))


def test_filter_chain_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    h0 = rng.normal(size=(2, 6))
    wr0 = rng.normal(size=(2, 6))
    wi0 = rng.normal(size=(2, 6))
    h = Tensor(h0.copy(), learnable=True)
    wr = Tensor(wr0.copy(), learnable=True)
    wi = Tensor(wi0.copy(), learnable=True)
    pool = Tensor(rng.normal(size=(6, 1)))

    def build():
        spec = dft_time_axis(h)
        filt = complex_elementwise_mul(spec, ComplexTensor(wr, wi))
        return norm2(weighted_sum_cols(idft_time_axis(filt), pool))

    with GradientTape() as tape:
        loss = build()
    grads = backward(tape, loss, {"h": h, "wr": wr, "wi": wi})

    eps = 1e-6
    for name, t in (("h", h), ("wr", wr), ("wi", wi)):
        flat = t.data.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            with GradientTape():
                up = float(build().data)
            flat[i] = keep - eps
            with GradientTape():
                dn = float(build().data)
            flat[i] = keep
            fd = (up - dn) / (2 * eps)
            an = float(grads[name].ravel()[i])
            assert abs(an - fd) / max(abs(an), abs(fd), 1e-6) < 1e-5
