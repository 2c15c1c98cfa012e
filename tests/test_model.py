"""Parameter bundle shapes, initialization, and validation."""
import numpy as np
import pytest

from lstep.autodiff import Tensor
from lstep.config import RunConfig, apply_preset
from lstep.model import ModelDims, ModelParams, init_model_params

DIMS = ModelDims(d_t=4, d_n=3, d_e=2, d_p=2, history_len=8, recent_k=5)


def test_shapes_and_names():
    params = init_model_params(DIMS, seed=0)
    t = params.tensors
    assert t["filter_real"].data.shape == (2, 8)
    assert t["pe_sum_pool"].data.shape == (8, 1)
    assert t["pe_w1"].data.shape == (2, 6)
    assert t["link_w1"].data.shape == (6, 6)
    assert t["link_sum_pool"].data.shape == (5, 1)
    assert t["fuse_w"].data.shape == (3, 9)
    assert t["out_w"].data.shape == (3, 5)
    assert t["pred_w1"].data.shape == (6, 3)
    assert t["pred_w2"].data.shape == (3, 1)
    for name, tensor in t.items():
        assert tensor.learnable, name
        assert tensor.name == name
    # 13 tensors, and one PE MLP: the commits and the representation
    # both read these three by name
    assert len(t) == 13
    assert sorted(n for n in t if n.startswith("pe_w")) == ["pe_w1", "pe_w2", "pe_w_self"]


def test_filter_initializes_to_identity():
    params = init_model_params(DIMS, seed=3)
    assert np.all(params.tensors["filter_real"].data == 1.0)
    assert np.all(params.tensors["filter_imag"].data == 0.0)


def test_weight_init_respects_fan_in_bound():
    params = init_model_params(DIMS, seed=1)
    for name, tensor in params.tensors.items():
        if name.startswith("filter"):
            continue
        fan = {
            "pe_sum_pool": 8,
            "pe_w1": 6,
            "pe_w2": 2,
            "pe_w_self": 2,
            "link_w1": 6,
            "link_w2": 6,
            "link_sum_pool": 5,
            "fuse_w": 9,
            "out_w": 5,
            "pred_w1": 6,
            "pred_w2": 3,
        }[name]
        bound = 1.0 / np.sqrt(fan)
        assert np.max(np.abs(tensor.data)) <= bound, name


def test_init_is_seed_deterministic():
    a = init_model_params(DIMS, seed=9)
    b = init_model_params(DIMS, seed=9)
    c = init_model_params(DIMS, seed=10)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name].data, b.tensors[name].data)
    assert not np.array_equal(a.tensors["fuse_w"].data, c.tensors["fuse_w"].data)


def test_dims_from_config():
    cfg = apply_preset(RunConfig(), "social_evo")
    dims = ModelDims.from_config(cfg)
    assert dims.d_p == 72
    assert dims.history_len == 100
    assert dims.recent_k == 20


def test_parameter_set_validation():
    params = init_model_params(DIMS, seed=0)
    tensors = dict(params.tensors)
    tensors.pop("out_w")
    with pytest.raises(ValueError, match="missing=\\['out_w'\\]"):
        ModelParams(DIMS, tensors)
    tensors["out_w"] = Tensor(np.zeros((1, 1)), learnable=True, name="out_w")
    with pytest.raises(ValueError, match="'out_w' has shape"):
        ModelParams(DIMS, tensors)


def test_state_arrays_round_trip():
    a = init_model_params(DIMS, seed=4)
    state = a.state_arrays()
    b = init_model_params(DIMS, seed=5)
    b.load_state_arrays(state)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name].data, b.tensors[name].data)
    state["fuse_w"] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="stored shape"):
        b.load_state_arrays(state)


def test_load_state_names_every_missing_tensor_sorted():
    params = init_model_params(DIMS, seed=4)
    before = params.state_arrays()
    state = init_model_params(DIMS, seed=5).state_arrays()
    for name in ("pred_w2", "fuse_w", "out_w"):
        del state[name]
    message = r"^state missing parameters: \['fuse_w', 'out_w', 'pred_w2'\]$"
    with pytest.raises(ValueError, match=message):
        params.load_state_arrays(state)
    # nothing was loaded
    for name, arr in before.items():
        assert np.array_equal(params.tensors[name].data, arr)


def test_a_wrong_shape_loads_no_tensor():
    """The last tensor's shape is wrong: the raise leaves every tensor,
    the twelve before it too, with its old bytes."""
    params = init_model_params(DIMS, seed=4)
    before = params.state_arrays()
    state = init_model_params(DIMS, seed=5).state_arrays()
    assert list(state)[-1] == "pred_w2"
    state["pred_w2"] = np.zeros((1, 1))
    with pytest.raises(ValueError, match=r"'pred_w2': stored shape \(1, 1\) != \(3, 1\)"):
        params.load_state_arrays(state)
    for name, arr in before.items():
        assert params.tensors[name].data.tobytes() == arr.tobytes()
