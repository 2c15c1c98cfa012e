"""Discrete Fourier transform along the time axis, and the filter kernel.

Convention (1-based frequency and time indices, stored 0-based):

    X_j = sum_{k=1..L} x_k * exp(-i 2 pi j k / L),   j = 1..L

so a constant row c spikes at the last bin with X_L = c * L. The inverse
carries the 1/L normalization and returns the real part, which makes
``idft(dft(x))`` recover a real ``x`` to roundoff.

``dft`` and ``idft`` are plain-array functions. The one tape op is
``filter_kernel``: DFT, filter, inverse DFT and column pooling of a
history compose to a linear map, and the op builds that map's real
kernel with closed-form FFT gradients.
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _emit

__all__ = ["dft", "idft", "filter_kernel"]


def _forward(z: np.ndarray) -> np.ndarray:
    """Apply the 1-based transform to complex rows.

    Index L is 0 mod L, so rotating the rows right by one turns the
    1-based sum into numpy's 0-based FFT; bin L lands at position 0 and
    rotating the output left by one puts it back at the end.
    """
    return np.roll(np.fft.fft(np.roll(z, 1, axis=-1), axis=-1), -1, axis=-1)


def dft(x: np.ndarray) -> np.ndarray:
    """Complex transform of each row of a (d, L) array along its time axis."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"dft expects 2-D input, got {x.shape}")
    return _forward(x.astype(np.complex128))


def idft(spec: np.ndarray) -> np.ndarray:
    """Normalized inverse transform of (d, L) rows; returns the real part."""
    spec = np.asarray(spec)
    if spec.ndim != 2:
        raise ValueError(f"idft expects 2-D input, got {spec.shape}")
    return _forward(np.conj(spec)).real / spec.shape[-1]


def filter_kernel(f_re: Tensor, f_im: Tensor, pool: Tensor) -> Tensor:
    """Real (d, L) kernel k = idft(conj(F) * dft(pool^T)), F = f_re + i f_im.

    For a (d, L) history h, pooling the columns of idft(F * dft(h)) with
    the (L, 1) ``pool`` equals sum_l h[d, l] k[d, l]: the kernel is the
    adjoint chain applied to the pool. With S = dft(pool^T) and
    G = dft(g) for the kernel's gradient g, the gradients are
    dF = S * conj(G) / L (real part to ``f_re``, imaginary to ``f_im``)
    and dpool = idft(sum_d F * G)^T. The 1/L is applied to G's real and
    imaginary parts first, and the complex arithmetic is written as real
    operations: numpy's complex multiply and division can round
    differently from the plain real ones.

    When F is exactly 1 + 0i the chain is the identity and the kernel is
    the pool itself, broadcast over the rows, with or without a tape;
    the FFT round trip would move its last bits. A one-hot pool then
    reads one history column exactly. The gradients are the same.
    """
    fr, fi, p = f_re.data, f_im.data, pool.data
    d, length = fr.shape
    if fi.shape != (d, length) or p.shape != (length, 1):
        raise ValueError(
            f"filter_kernel shape mismatch: {fr.shape}, {fi.shape}, {p.shape}"
        )
    spec = dft(p.T)  # (1, L): the pool is the same for every row
    sr, si = spec.real, spec.imag
    if np.all(fr == 1.0) and np.all(fi == 0.0):
        kernel = np.broadcast_to(p.T.copy(), (d, length))
    else:
        # complex products in real arithmetic, F = fr + i fi
        kernel = idft((fr * sr + fi * si) + 1j * (fr * si - fi * sr))

    def vjp(g):
        gs = dft(g)
        gr, gi = gs.real / length, gs.imag / length
        # S conj(G) for the filter; sum_d F G, transformed back, for the pool
        summed = ((fr * gr - fi * gi) + 1j * (fr * gi + fi * gr)).sum(axis=0, keepdims=True)
        return sr * gr + si * gi, si * gr - sr * gi, _forward(np.conj(summed)).real.T

    return _emit(kernel, (f_re, f_im, pool), vjp)
