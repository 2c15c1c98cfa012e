"""Reverse-mode automatic differentiation over numpy arrays.

A ``GradientTape`` records every operation executed while it is active.
Recording order is creation order, which is already a valid topological
order, so the backward pass is a single reverse sweep over the tape.
The tape holds no tensor: per op it keeps the output's key and shape,
the key of each input that takes a gradient, and the VJP, whose closure
holds only the arrays it reads. An activation that no VJP reads is freed
as soon as the forward drops it, and the sweep frees each op's arrays
as it passes, so a tape is swept once. All tensors are float64.
"""
from __future__ import annotations

import itertools

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
    "relu",
    "tanh",
    "sigmoid",
    "log",
    "clamp",
    "elementwise_mul",
    "scale",
    "sum_all",
    "norm2",
]

_ACTIVE_TAPE: "GradientTape | None" = None
# id() is reused once a tensor dies, and a taped forward drops most of its
# tensors before the sweep, so the tape names tensors by these keys
_KEYS = itertools.count()


class Tensor:
    """A float64 array plus bookkeeping for the tape.

    ``learnable`` marks an optimizable leaf; ``_rec`` is set on any tensor
    produced by a recorded operation; ``_key`` names the tensor on a tape.
    """

    __slots__ = ("data", "learnable", "name", "_rec", "_key")

    def __init__(self, data, learnable: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.learnable = learnable
        self.name = name
        self._rec = False
        self._key = next(_KEYS)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, learnable={self.learnable})"


class GradientTape:
    """Ordered record of operations; inputs always precede their consumers.

    Each entry is (output keys, output shapes, input keys, vjp), with the
    key None for an input that takes no gradient (neither learnable nor
    recorded). ``backward`` empties the tape as it sweeps; ``len`` still
    counts the ops recorded.
    """

    def __init__(self):
        self._nodes: list[tuple] = []
        self._recorded = 0

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
        return self._recorded

    def record(self, outs, inputs, vjp) -> None:
        for o in outs:
            o._rec = True
        self._nodes.append((
            tuple(o._key for o in outs),
            tuple(o.data.shape for o in outs),
            tuple(t._key if t.learnable or t._rec else None for t in inputs),
            vjp,
        ))
        self._recorded += 1


def backward(
    tape: GradientTape, loss: Tensor, params: dict[str, Tensor]
) -> dict[str, np.ndarray]:
    """Reverse sweep from ``loss``; returns the gradient of every entry of
    ``params``, zero-filled for parameters the loss does not depend on.

    ``loss`` must be a scalar recorded on ``tape``, or a learnable leaf.
    The sweep pops each entry, freeing the arrays its VJP held, so the
    tape is empty afterwards and a second sweep raises.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    nodes = tape._nodes
    if len(nodes) != tape._recorded:
        raise ValueError("this tape was already swept by backward")
    if not loss.learnable and not any(loss._key in outs for outs, _, _, _ in nodes):
        raise ValueError("loss is not recorded on this tape")

    # an output's entry is consumed when its op is swept, so what remains
    # at the end are the gradients of the learnable leaves
    grads: dict[int, np.ndarray] = {loss._key: np.ones_like(loss.data)}
    while nodes:
        outs, shapes, inputs, vjp = nodes.pop()
        gouts = tuple(grads.pop(o, None) for o in outs)
        if all(g is None for g in gouts):
            continue
        gouts = tuple(np.zeros(s) if g is None else g for s, g in zip(shapes, gouts))
        gins = vjp(*gouts)
        for key, g in zip(inputs, gins):
            if g is None or key is None:
                continue  # constants take no gradient
            grads[key] = grads[key] + g if key in grads else g

    return {name: grads.get(t._key, np.zeros_like(t.data)) for name, t in params.items()}


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


def _scatter_rows(
    shape: tuple[int, ...], index: np.ndarray, g: np.ndarray, select: np.ndarray | None = None
) -> np.ndarray:
    """Zeros of ``shape`` with each row ``g[i]`` added at row ``index[i]``;
    with ``select``, the row ``g[select[i]]`` instead, gathered once."""
    out = np.zeros(shape)
    if index.size:
        order = np.argsort(index, kind="stable")
        rows = index[order]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        picked = g[order] if select is None else g[select[order]]
        out[rows[starts]] = np.add.reduceat(picked, starts, axis=0)
    return out


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Rows ``x[index]`` of a 2-D tensor; repeated rows add their gradients."""
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    if x.data.ndim != 2 or index.ndim != 1:
        raise ValueError(
            f"gather_rows expects 2-D data and 1-D index, got {x.data.shape}, {index.shape}"
        )

    shape = x.data.shape
    return _emit(x.data[index], (x,), lambda g: (_scatter_rows(shape, index, g),))


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
    shape = x.data.shape

    def vjp(g):
        return (_scatter_rows(shape, index[mask], g, select=np.nonzero(mask)[0]),)

    return _emit(out_data, (x,), vjp)


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
    xd = x.data
    return _emit(np.log(xd), (x,), lambda g: (g / xd,))


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


def sum_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    shape = x.data.shape
    return _emit(
        np.asarray(x.data.sum()), (x,), lambda g: (np.broadcast_to(g, shape).copy(),)
    )


def norm2(x: Tensor) -> Tensor:
    """Euclidean norm along the last axis: (d,) -> (), (n, d) -> (n,).

    The subgradient at a zero vector is 0.
    """
    x = _as_tensor(x)
    if x.data.ndim not in (1, 2):
        raise ValueError(f"norm2 expects 1-D or 2-D, got {x.data.shape}")
    xd = x.data
    n = np.sqrt(np.einsum("...i,...i->...", xd, xd))

    def vjp(g):
        safe = np.where(n == 0.0, 1.0, n)
        return (np.where(n == 0.0, 0.0, g / safe)[..., None] * xd,)

    return _emit(n, (x,), vjp)
