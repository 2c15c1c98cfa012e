"""Discrete Fourier transform along the time axis of a history matrix.

Convention (1-based frequency and time indices, stored 0-based):

    X_j = sum_{k=1..L} x_k * exp(-i 2 pi j k / L),   j = 1..L

so a constant row c spikes at the last bin with X_L = c * L. The inverse
carries the 1/L normalization and returns the real part, which makes
``idft_time_axis(dft_time_axis(x))`` recover a real ``x`` to roundoff.

The transform is a fixed linear map, so both kernels are differentiable;
each one's adjoint is computed by the other's forward machinery, an
``np.fft.fft`` of the rows rotated by one position.
"""
from __future__ import annotations

import numpy as np

from . import autodiff
from .autodiff import ComplexTensor, Tensor, add, elementwise_mul, sub

__all__ = ["dft_time_axis", "idft_time_axis", "complex_elementwise_mul"]


def _forward(z: np.ndarray) -> np.ndarray:
    """Apply the 1-based transform to complex rows.

    Index L is 0 mod L, so rotating the rows right by one turns the
    1-based sum into numpy's 0-based FFT; bin L lands at position 0 and
    rotating the output left by one puts it back at the end.
    """
    return np.roll(np.fft.fft(np.roll(z, 1, axis=-1), axis=-1), -1, axis=-1)


def dft_time_axis(x: Tensor) -> ComplexTensor:
    """Transform each row of a (d, L) tensor along its length-L time axis."""
    if x.data.ndim != 2:
        raise ValueError(f"dft_time_axis expects 2-D input, got {x.data.shape}")
    spec = _forward(x.data.astype(np.complex128))
    re = Tensor(np.ascontiguousarray(spec.real))
    im = Tensor(np.ascontiguousarray(spec.imag))
    tape = autodiff._ACTIVE_TAPE
    if tape is not None:

        def vjp(g_re, g_im):
            return (np.ascontiguousarray(_forward(g_re - 1j * g_im).real),)

        tape.record((re, im), (x,), vjp)
    return ComplexTensor(re, im)


def idft_time_axis(spec: ComplexTensor) -> Tensor:
    """Normalized inverse transform; returns the real part, shape (d, L)."""
    if spec.real.data.ndim != 2:
        raise ValueError(
            f"idft_time_axis expects 2-D input, got {spec.real.data.shape}"
        )
    length = spec.real.data.shape[-1]
    z = spec.real.data - 1j * spec.imag.data
    out = Tensor(np.ascontiguousarray(_forward(z).real) / length)
    tape = autodiff._ACTIVE_TAPE
    if tape is not None:

        def vjp(g):
            gz = _forward(g.astype(np.complex128))
            return (
                np.ascontiguousarray(gz.real) / length,
                np.ascontiguousarray(gz.imag) / length,
            )

        tape.record((out,), (spec.real, spec.imag), vjp)
    return out


def complex_elementwise_mul(a: ComplexTensor, b: ComplexTensor) -> ComplexTensor:
    """(a.re + i a.im) * (b.re + i b.im), built from real primitives."""
    re = sub(elementwise_mul(a.real, b.real), elementwise_mul(a.imag, b.imag))
    im = add(elementwise_mul(a.real, b.imag), elementwise_mul(a.imag, b.real))
    return ComplexTensor(re, im)
