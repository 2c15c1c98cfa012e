"""Config parsing, presets, serialization round-trip, and hashing."""
import inspect
import re
from dataclasses import fields, replace

import pytest

from lstep import eigen, timeenc
from lstep.config import (
    PRESETS,
    RETIRED,
    RunConfig,
    apply_preset,
    config_hash,
    parse_config,
    parse_config_file,
    serialize_config,
    shape_hash,
    validate_config,
)
from lstep.events import chronological_split
from lstep.losses import loss_pe, total_loss
from lstep.peinit import laplacian_pe


def test_defaults():
    cfg = RunConfig()
    assert cfg.d_t == 100
    assert cfg.d_n == cfg.d_e == cfg.d_p == 172
    assert cfg.lr == 1e-4
    assert cfg.pe_init == "laplacian"


def test_all_presets_validate():
    for name in PRESETS:
        cfg = apply_preset(RunConfig(), name)
        validate_config(cfg)
        assert cfg.dataset == name


def test_preset_values():
    cfg = apply_preset(RunConfig(), "wikipedia")
    assert (cfg.history_len, cfg.t_gap, cfg.recent_k, cfg.batch_size) == (
        100,
        1000.0,
        15,
        128,
    )
    cfg = apply_preset(RunConfig(), "uci")
    assert (cfg.history_len, cfg.t_gap, cfg.recent_k, cfg.batch_size) == (
        200,
        500.0,
        30,
        100,
    )
    cfg = apply_preset(RunConfig(), "social_evo")
    assert cfg.d_p == 72  # the one preset that narrows the encoding width
    cfg = apply_preset(RunConfig(), "un_trade")
    assert (cfg.history_len, cfg.t_gap, cfg.recent_k, cfg.batch_size) == (
        200,
        6.0,
        30,
        200,
    )


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        apply_preset(RunConfig(), "imaginary")


def test_parse_overrides_and_comments():
    cfg = parse_config(
        """
        # toy run
        history_len = 8
        t_gap = 3.5   # look-back
        recent_k = 2
        batch_size = 4
        pe_init = zero
        """
    )
    assert cfg.history_len == 8
    assert cfg.t_gap == 3.5
    assert cfg.pe_init == "zero"


def test_parse_error_messages_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2: unknown field 'vintage'"):
        parse_config("seed = 3\nvintage = 1987\n")
    with pytest.raises(ValueError, match="line 1: missing '='"):
        parse_config("history_len 8\n")
    with pytest.raises(ValueError, match="'seed'"):
        parse_config("seed = soon\n")


def test_serialize_parse_round_trip():
    cfg = apply_preset(RunConfig(), "mooc")
    cfg = parse_config("seed = 7\nlr = 0.00025\n", base=cfg)
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("history_len = 4\nt_gap = 1.0\nrecent_k = 2\nbatch_size = 2\n")
    cfg = parse_config_file(p)
    assert cfg.history_len == 4
    validate_config(cfg)


def test_config_hash_tracks_content():
    a = apply_preset(RunConfig(), "reddit")
    b = apply_preset(RunConfig(), "reddit")
    assert config_hash(a) == config_hash(b)
    c = parse_config("seed = 99\n", base=a)
    assert config_hash(c) != config_hash(a)
    assert len(config_hash(a)) == 16


def test_shape_hash_ignores_non_shape_fields():
    a = apply_preset(RunConfig(), "enron")
    b = parse_config("seed = 5\nlr = 0.01\nmax_epochs = 7\n", base=a)
    assert shape_hash(a) == shape_hash(b)
    c = parse_config("d_p = 16\n", base=a)
    assert shape_hash(c) != shape_hash(a)


def test_shape_hash_values_are_pinned():
    # checkpoints embed these; a changed value would orphan every one
    assert shape_hash(RunConfig()) == "210200a2591f849e"
    assert shape_hash(apply_preset(RunConfig(), "wikipedia")) == "85386fd933eada43"
    assert shape_hash(apply_preset(RunConfig(), "social_evo")) == "b5fc3297f1d24dc9"


def test_validate_catches_unset_required_fields():
    with pytest.raises(ValueError, match="'history_len' must be set"):
        validate_config(RunConfig())
    cfg = parse_config("history_len = 4\nt_gap = 1.0\nrecent_k = 2\n")
    with pytest.raises(ValueError, match="'batch_size' must be set"):
        validate_config(cfg)


def test_validate_catches_bad_values():
    base = "history_len = 4\nt_gap = 1.0\nrecent_k = 2\nbatch_size = 2\n"
    with pytest.raises(ValueError, match="pe_init"):
        validate_config(parse_config(base + "pe_init = fourier\n"))
    with pytest.raises(ValueError, match="'d_p'"):
        validate_config(parse_config(base + "d_p = 0\n"))
    for line in (
        "lr = nan", "lr = -1", "t_gap = nan", "t_gap = inf", "max_epochs = 0",
        "patience = -3", "seed = -1",
    ):
        field = line.split(" = ")[0]
        with pytest.raises(ValueError, match=f"'{field}'"):
            validate_config(parse_config(base + line + "\n"))


def test_run_config_has_fifteen_fields_and_serializes_fifteen_lines():
    assert len(fields(RunConfig)) == 15
    assert len(serialize_config(RunConfig()).splitlines()) == 15
    assert not set(RETIRED) & {f.name for f in fields(RunConfig)}


@pytest.mark.parametrize("key", sorted(RETIRED))
def test_a_retired_field_is_accepted_only_at_its_fixed_value(key):
    fixed = RETIRED[key]
    # spelled as serialize_config wrote it while the field existed, and plainly
    assert parse_config(f"{key} = {fixed!r}\n") == RunConfig()
    base = apply_preset(RunConfig(), "uci")
    assert parse_config(f"seed = 3\n{key} = {fixed}\n", base=base) == replace(base, seed=3)
    message = rf"config line 1: field '{key}' is fixed at {re.escape(repr(fixed))}"
    for other in (2 * fixed, fixed + 1, -fixed):
        with pytest.raises(ValueError, match=message):
            parse_config(f"{key} = {other!r}\nseed = 3\n")
    if isinstance(fixed, float):
        with pytest.raises(ValueError, match=message):
            parse_config(f"{key} = nan\n")


def test_retired_values_are_the_constants_their_modules_use():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    train_ratio, val_ratio, _ = default(chronological_split, "ratios")
    assert RETIRED == {
        "alpha": timeenc.ALPHA,
        "beta": timeenc.BETA,
        "alpha_neg": default(loss_pe, "alpha_neg"),
        "alpha_pe": default(total_loss, "alpha_pe"),
        "train_ratio": train_ratio,
        "val_ratio": val_ratio,
        "eigen_size_cap": eigen.DEFAULT_SIZE_CAP,
    }
    assert default(laplacian_pe, "size_cap") == eigen.DEFAULT_SIZE_CAP
