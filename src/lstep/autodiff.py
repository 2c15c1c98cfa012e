"""Reverse-mode automatic differentiation over numpy arrays.

A ``GradientTape`` records every operation executed while it is active.
Recording order is creation order, which is already a valid topological
order, so the backward pass is a single reverse sweep over the tape.
All tensors are float64.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "GradientTape",
    "backward",
    "matmul",
    "linear",
    "add",
    "sub",
    "concat",
    "gather_rows",
    "gather_sum_rows",
    "phase_pool",
    "relu",
    "tanh",
    "sigmoid",
    "log",
    "clamp",
    "elementwise_mul",
    "scale",
    "weighted_sum_cols",
    "sum_all",
    "norm2",
]

_ACTIVE_TAPE: "GradientTape | None" = None


class Tensor:
    """A float64 array plus bookkeeping for the tape.

    ``learnable`` marks an optimizable leaf; ``_rec`` is set on any tensor
    produced by a recorded operation.
    """

    __slots__ = ("data", "learnable", "name", "_rec")

    def __init__(self, data, learnable: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.learnable = learnable
        self.name = name
        self._rec = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, learnable={self.learnable})"


class GradientTape:
    """Ordered record of operations; inputs always precede their consumers."""

    def __init__(self):
        self._nodes: list[tuple[tuple[Tensor, ...], tuple[Tensor, ...], object]] = []

    def __enter__(self) -> "GradientTape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a gradient tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, outs, inputs, vjp) -> None:
        for o in outs:
            o._rec = True
        self._nodes.append((outs, inputs, vjp))


def backward(
    tape: GradientTape, loss: Tensor, params: dict[str, Tensor]
) -> dict[str, np.ndarray]:
    """Reverse sweep from ``loss``; returns the gradient of every entry of
    ``params``, zero-filled for parameters the loss does not depend on."""
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    if not loss._rec and not loss.learnable:
        raise ValueError("loss is not recorded on this tape")

    # an output's entry is consumed when its op is swept, so what remains
    # at the end are the gradients of the learnable leaves
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for outs, inputs, vjp in reversed(tape._nodes):
        gouts = tuple(grads.pop(id(o), None) for o in outs)
        if all(g is None for g in gouts):
            continue
        gouts = tuple(
            np.zeros_like(o.data) if g is None else g for o, g in zip(outs, gouts)
        )
        gins = vjp(*gouts)
        for t, g in zip(inputs, gins):
            if g is None or not (t.learnable or t._rec):
                continue  # constants take no gradient
            key = id(t)
            grads[key] = grads[key] + g if key in grads else g

    return {name: grads.get(id(t), np.zeros_like(t.data)) for name, t in params.items()}


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(out_data, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(out_data)
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.record((out,), inputs, vjp)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two 2-D tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    return _emit(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x @ w.T for a weight stored as (out, in)."""
    x, w = _as_tensor(x), _as_tensor(w)
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise ValueError(f"linear shape mismatch: {xd.shape} @ {wd.shape}.T")
    return _emit(xd @ wd.T, (x, w), lambda g: (g @ wd, (xd.T @ g).T))


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub shape mismatch: {a.data.shape} vs {b.data.shape}")
    return _emit(a.data - b.data, (a, b), lambda g: (g, -g))


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; leading shapes must agree."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != b.data.ndim or a.data.shape[:-1] != b.data.shape[:-1]:
        raise ValueError(
            f"concat shape mismatch: {a.data.shape} and {b.data.shape}"
        )
    na = a.data.shape[-1]
    return _emit(
        np.concatenate([a.data, b.data], axis=-1),
        (a, b),
        lambda g: (g[..., :na], g[..., na:]),
    )


def _scatter_rows(shape: tuple[int, ...], index: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` with each row ``g[i]`` added at row ``index[i]``."""
    out = np.zeros(shape)
    if index.size:
        order = np.argsort(index, kind="stable")
        rows = index[order]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        out[rows[starts]] = np.add.reduceat(g[order], starts, axis=0)
    return out


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Rows ``x[index]`` of a 2-D tensor; repeated rows add their gradients."""
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    if x.data.ndim != 2 or index.ndim != 1:
        raise ValueError(
            f"gather_rows expects 2-D data and 1-D index, got {x.data.shape}, {index.shape}"
        )

    return _emit(x.data[index], (x,), lambda g: (_scatter_rows(x.data.shape, index, g),))


def gather_sum_rows(x: Tensor, index: np.ndarray, mask: np.ndarray) -> Tensor:
    """(n, d) sums of the rows ``x[index[i, k]]`` over the slots k where
    ``mask[i, k]``; the gradient scatter-adds back to those rows."""
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if x.data.ndim != 2 or index.ndim != 2 or mask.shape != index.shape:
        raise ValueError(
            f"gather_sum_rows expects 2-D data and matching 2-D index and mask, "
            f"got {x.data.shape}, {index.shape}, {mask.shape}"
        )
    # slot by slot, so no (n, K, d) pick is formed
    out_data = np.zeros((index.shape[0], x.data.shape[1]))
    for k in range(index.shape[1]):
        picked = x.data[index[:, k]]
        picked[~mask[:, k]] = 0.0
        out_data += picked
    owner = np.nonzero(mask)[0]

    def vjp(g):
        return (_scatter_rows(x.data.shape, index[mask], g[owner]),)

    return _emit(out_data, (x,), vjp)


def phase_pool(
    rows: np.ndarray, index: np.ndarray, w: Tensor, phases: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """Weighted and plain slot sums of phase rows, turned to each query's phase.

    ``rows`` (R, 2d + e) holds [cos b, sin b, x] per row, ``index`` (n, K)
    the row of each query's slot k, ``w`` (K, 1) one weight per slot and
    ``phases`` (n, 2d) each query's [cos a, sin a]. Since cos(a - b) =
    cos a cos b + sin a sin b, the weighted sums turn into the rows
    [sum_k w_k cos(a - b_k), sum_k w_k x_k] (n, d + e), returned as a
    tensor, and the plain sums into sum_k cos(a - b_k) (n, d), returned
    as an array. The sums walk the K slots, so no (n, K, .) array is
    formed; the gradient reaches ``w`` only, and re-gathers each slot.
    """
    w = _as_tensor(w)
    index = np.asarray(index, dtype=np.int64)
    n, k = index.shape
    d = phases.shape[1] // 2
    if rows.ndim != 2 or rows.shape[1] < 2 * d or w.data.shape != (k, 1) or phases.shape[0] != n:
        raise ValueError(
            f"phase_pool shape mismatch: rows {rows.shape}, index {index.shape}, "
            f"w {w.data.shape}, phases {phases.shape}"
        )
    if index.size and not 0 <= index.min() <= index.max() < rows.shape[0]:
        raise IndexError(f"phase_pool index outside the {rows.shape[0]} rows")
    cos_q, sin_q = phases[:, :d], phases[:, d:]
    weighted = np.zeros((n, rows.shape[1]))
    plain = np.zeros((n, 2 * d))
    slot = np.empty((n, rows.shape[1]))
    # the indices are checked above; "clip" lets take write to out unbuffered
    for j in range(k):
        np.take(rows, index[:, j], axis=0, out=slot, mode="clip")
        plain += slot[:, : 2 * d]
        slot *= w.data[j, 0]
        weighted += slot
    out = np.empty((n, rows.shape[1] - d))
    np.multiply(cos_q, weighted[:, :d], out=out[:, :d])
    out[:, :d] += sin_q * weighted[:, d : 2 * d]
    out[:, d:] = weighted[:, 2 * d :]
    tau = cos_q * plain[:, :d]
    tau += sin_q * plain[:, d:]

    def vjp(g):
        # the gradient of every slot row, then its dot with each slot's rows
        g_rows = np.empty((n, rows.shape[1]))
        np.multiply(cos_q, g[:, :d], out=g_rows[:, :d])
        np.multiply(sin_q, g[:, :d], out=g_rows[:, d : 2 * d])
        g_rows[:, 2 * d :] = g[:, d:]
        picked = np.empty_like(g_rows)
        gw = np.empty((k, 1))
        for j in range(k):
            np.take(rows, index[:, j], axis=0, out=picked, mode="clip")
            gw[j, 0] = np.vdot(picked, g_rows)
        return (gw,)

    return _emit(out, (w,), vjp), tau


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0.0
    return _emit(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.data)
    return _emit(y, (x,), lambda g: (g * (1.0 - y * y),))


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    # stable in both tails
    y = np.where(
        x.data >= 0.0,
        1.0 / (1.0 + np.exp(-np.abs(x.data))),
        np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))),
    )
    return _emit(y, (x,), lambda g: (g * y * (1.0 - y),))


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    return _emit(np.log(x.data), (x,), lambda g: (g / x.data,))


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only through the interior."""
    x = _as_tensor(x)
    mask = (x.data > lo) & (x.data < hi)
    return _emit(np.clip(x.data, lo, hi), (x,), lambda g: (g * mask,))


def elementwise_mul(a: Tensor, b) -> Tensor:
    """Hadamard product; ``b`` may be a python scalar."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        s = float(b)
        return _emit(a.data * s, (a,), lambda g: (g * s,))
    b = _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(
            f"elementwise_mul shape mismatch: {a.data.shape} vs {b.data.shape}"
        )
    ad, bd = a.data, b.data
    return _emit(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(x: Tensor, s: float) -> Tensor:
    return elementwise_mul(x, float(s))


def weighted_sum_cols(x: Tensor, w: Tensor) -> Tensor:
    """Weighted sum of the columns of x: (..., d, m) -> (..., d).

    ``w`` is (d, L), one set of weights per row, for any width
    0 < m <= L: x is contracted against its last m columns, and the
    gradient of ``w`` is still (d, L), exactly zero in the first L - m
    columns. The gradient of ``x`` is formed only when ``x`` can carry
    one, so a large constant input costs nothing in the backward pass.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim < 2:
        raise ValueError(f"weighted_sum_cols expects >= 2-D input, got {x.data.shape}")
    d, width = x.data.shape[-2:]
    if not (w.data.ndim == 2 and w.data.shape[0] == d and 0 < width <= w.data.shape[1]):
        raise ValueError(
            f"weighted_sum_cols shape mismatch: {x.data.shape} vs {w.data.shape}"
        )
    kern = w.data[:, -width:]
    xs = x.data.reshape((-1, d, width))
    need_x = x.learnable or x._rec

    def vjp(g):
        gx = g[..., None] * kern if need_x else None
        gw = np.zeros(w.data.shape)
        gw[:, -width:] = np.einsum("ndl,nd->dl", xs, g.reshape(xs.shape[:2]))
        return gx, gw

    out = np.einsum("ndl,dl->nd", xs, kern).reshape(x.data.shape[:-1])
    return _emit(out, (x, w), vjp)


def sum_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    return _emit(
        np.asarray(x.data.sum()),
        (x,),
        lambda g: (np.broadcast_to(g, x.data.shape).copy(),),
    )


def norm2(x: Tensor) -> Tensor:
    """Euclidean norm along the last axis: (d,) -> (), (n, d) -> (n,).

    The subgradient at a zero vector is 0.
    """
    x = _as_tensor(x)
    if x.data.ndim not in (1, 2):
        raise ValueError(f"norm2 expects 1-D or 2-D, got {x.data.shape}")
    n = np.sqrt(np.einsum("...i,...i->...", x.data, x.data))

    def vjp(g):
        safe = np.where(n == 0.0, 1.0, n)
        return (np.where(n == 0.0, 0.0, g / safe)[..., None] * x.data,)

    return _emit(n, (x,), vjp)
