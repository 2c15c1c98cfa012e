"""Reverse-mode automatic differentiation over numpy arrays.

A ``GradientTape`` records every operation executed while it is active.
Recording order is creation order, which is already a valid topological
order, so the backward pass is a single reverse sweep over the tape.
The tape holds no tensor: per op it keeps the key of its one output,
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
# rows per block of a slot walk: a block's sums and its gathered slot fit in L2
ROW_BLOCK = 64
# columns per slab of a slot scatter; why 28, see gather_sum_rows
SLAB_COLS = 28
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

    Each entry is (output key, input keys, vjp): every op has one
    output, and an input that takes no gradient (neither learnable nor
    recorded) has the key None. ``backward`` empties the tape as it
    sweeps; ``len`` still counts the ops recorded.
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

    def record(self, out: Tensor, inputs, vjp) -> None:
        out._rec = True
        keys = tuple(t._key if t.learnable or t._rec else None for t in inputs)
        self._nodes.append((out._key, keys, vjp))
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
    if not loss.learnable and not any(loss._key == out for out, _, _ in nodes):
        raise ValueError("loss is not recorded on this tape")

    # an output's entry is consumed when its op is swept, so what remains
    # at the end are the gradients of the learnable leaves
    grads: dict[int, np.ndarray] = {loss._key: np.ones_like(loss.data)}
    while nodes:
        out, inputs, vjp = nodes.pop()
        gout = grads.pop(out, None)
        if gout is None:
            continue
        for key, g in zip(inputs, vjp(gout)):
            if g is None or key is None:
                continue  # constants take no gradient
            grads[key] = grads[key] + g if key in grads else g

    return {name: grads.get(t._key, np.zeros_like(t.data)) for name, t in params.items()}


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(out_data, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(out_data)
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.record(out, inputs, vjp)
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
    with ``select``, the row ``g[select[i]]`` instead.

    One stable sort groups the entries by target row and one
    ``np.add.reduceat`` sums each group. With ``select`` the picked rows
    are gathered SLAB_COLS columns at a time, so the whole
    (index.size, d) copy of ``g`` is never formed; ``reduceat`` sums
    every column on its own, so the slabs equal one whole-width call bit
    for bit. Without ``select`` the pick is ``g[order]``, no larger than
    ``g``, and one whole-width call is faster.
    """
    out = np.zeros(shape)
    if index.size:
        order = np.argsort(index, kind="stable")
        rows = index[order]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        if select is None:
            out[rows[starts]] = np.add.reduceat(g[order], starts, axis=0)
        else:
            src, targets = select[order], rows[starts]
            for lo in range(0, shape[1], SLAB_COLS):
                hi = lo + SLAB_COLS
                out[targets, lo:hi] = np.add.reduceat(g[src, lo:hi], starts, axis=0)
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


def _row_blocks(n: int):
    """(lo, hi) bounds of ROW_BLOCK-row blocks covering n rows."""
    return ((lo, min(lo + ROW_BLOCK, n)) for lo in range(0, n, ROW_BLOCK))


def gather_sum_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """(n, d) sums of the rows ``x[index[i, k]]`` over every slot k; the
    gradient scatter-adds back to those rows. A slot that should add
    nothing names a zero row of ``x``.

    Neither pass forms an (n*K, d) array: the forward adds slot by slot
    in ROW_BLOCK-row blocks, and the backward gathers each slot's output
    gradient in SLAB_COLS-column slabs (``_scatter_rows``). The slab is
    28 columns wide; 32 and 64 columns ran about three times slower at
    (600 rows, 20 slots, 172 columns), 11-13 ms against 4 ms.
    """
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    if x.data.ndim != 2 or index.ndim != 2:
        raise ValueError(
            f"gather_sum_rows expects 2-D data and 2-D index, got {x.data.shape}, {index.shape}"
        )
    if index.size and not 0 <= index.min() <= index.max() < x.data.shape[0]:
        raise IndexError(f"gather_sum_rows index outside the {x.data.shape[0]} rows")
    # block by block, slot by slot, so no (n, K, d) pick is formed and each
    # block's sums stay in cache while its slots add up in order; the
    # indices are checked above, and "clip" lets take write to buf unbuffered
    (n, k), d = index.shape, x.data.shape[1]
    out_data = np.zeros((n, d))
    buf = np.empty((min(n, ROW_BLOCK), d))
    cols = index.T.copy()
    for lo, hi in _row_blocks(n):
        picked, acc = buf[: hi - lo], out_data[lo:hi]
        for col in cols[:, lo:hi]:
            np.take(x.data, col, axis=0, out=picked, mode="clip")
            acc += picked
    shape = x.data.shape

    def vjp(g):
        return (_scatter_rows(shape, index.ravel(), g, select=np.repeat(np.arange(n), k)),)

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
    # stable in both tails: e = exp(-|x|) never overflows
    e = np.exp(-np.abs(x.data))
    y = np.where(x.data >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
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
