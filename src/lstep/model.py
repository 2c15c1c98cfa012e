"""Named parameter bundle tying the positional and encoder heads together."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .config import RunConfig

__all__ = ["ModelDims", "ModelParams", "init_model_params"]


@dataclass(frozen=True)
class ModelDims:
    d_t: int
    d_n: int
    d_e: int
    d_p: int
    history_len: int
    recent_k: int

    @staticmethod
    def from_config(cfg: RunConfig) -> "ModelDims":
        return ModelDims(cfg.d_t, cfg.d_n, cfg.d_e, cfg.d_p, cfg.history_len, cfg.recent_k)


def _shapes(dims: ModelDims) -> dict[str, tuple[tuple[int, ...], int]]:
    """name -> (shape, fan_in); fan_in is the contraction width in use."""
    d_t, d_n, d_e, d_p = dims.d_t, dims.d_n, dims.d_e, dims.d_p
    link = d_t + d_e
    return {
        "filter_real": ((d_p, dims.history_len), 0),
        "filter_imag": ((d_p, dims.history_len), 0),
        "pe_sum_pool": ((dims.history_len, 1), dims.history_len),
        "pe_w1": ((d_p, d_p + d_t), d_p + d_t),
        "pe_w2": ((d_p, d_p), d_p),
        "pe_w_self": ((d_p, d_p), d_p),
        "link_w1": ((link, link), link),
        "link_w2": ((link, link), link),
        "link_sum_pool": ((dims.recent_k, 1), dims.recent_k),
        "fuse_w": ((d_n, d_n + link), d_n + link),
        "out_w": ((d_n, d_n + d_p), d_n + d_p),
        "pred_w1": ((2 * d_n, d_n), 2 * d_n),
        "pred_w2": ((d_n, 1), d_n),
    }


class ModelParams:
    """All learnable tensors keyed by their checkpoint names; every layer
    reads ``tensors`` by those names."""

    def __init__(self, dims: ModelDims, tensors: dict[str, Tensor]):
        expected = _shapes(dims)
        if set(tensors) != set(expected):
            missing = sorted(set(expected) - set(tensors))
            extra = sorted(set(tensors) - set(expected))
            raise ValueError(f"parameter set mismatch: missing={missing} extra={extra}")
        for name, (shape, _) in expected.items():
            if tensors[name].data.shape != shape:
                raise ValueError(
                    f"parameter {name!r} has shape {tensors[name].data.shape}, "
                    f"expected {shape}"
                )
        self.tensors = tensors

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.tensors.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        """Give every tensor a copy of its array in ``state``; a missing
        tensor or a wrong shape raises before any tensor changes."""
        missing = sorted(set(self.tensors) - set(state))
        if missing:
            raise ValueError(f"state missing parameters: {missing}")
        arrays = {name: np.array(state[name], dtype=np.float64) for name in self.tensors}
        for name, arr in arrays.items():
            if arr.shape != self.tensors[name].data.shape:
                raise ValueError(
                    f"parameter {name!r}: stored shape {arr.shape} != "
                    f"{self.tensors[name].data.shape}"
                )
        for name, arr in arrays.items():
            self.tensors[name].data = arr


def init_model_params(dims: ModelDims, seed: int = 0) -> ModelParams:
    """Uniform +-1/sqrt(fan_in) init; the filter starts as the identity 1+0i."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, (shape, fan_in) in _shapes(dims).items():
        if name == "filter_real":
            data = np.ones(shape)
        elif name == "filter_imag":
            data = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(fan_in)
            data = rng.uniform(-bound, bound, size=shape)
        tensors[name] = Tensor(data, learnable=True, name=name)
    return ModelParams(dims, tensors)
