"""Run configuration: flat key-value files, presets, and stable hashes."""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

__all__ = [
    "RunConfig",
    "PRESETS",
    "parse_config",
    "parse_config_file",
    "serialize_config",
    "config_hash",
    "shape_hash",
    "apply_preset",
    "config_problems",
    "validate_config",
    "RETIRED",
]


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a run; per-dataset fields default to 0 (= required)."""

    dataset: str = "unnamed"
    data: str = ""
    d_t: int = 100
    d_n: int = 172
    d_e: int = 172
    d_p: int = 172
    history_len: int = 0  # L
    t_gap: float = 0.0
    recent_k: int = 0  # K
    batch_size: int = 0  # B
    lr: float = 1e-4
    max_epochs: int = 200
    patience: int = 10
    pe_init: str = "laplacian"
    seed: int = 0


# (history_len, t_gap, recent_k, batch_size[, extra overrides])
PRESETS: dict[str, dict[str, object]] = {
    "wikipedia": {"history_len": 100, "t_gap": 1000.0, "recent_k": 15, "batch_size": 128},
    "reddit": {"history_len": 100, "t_gap": 1000.0, "recent_k": 20, "batch_size": 200},
    "mooc": {"history_len": 100, "t_gap": 2000.0, "recent_k": 30, "batch_size": 128},
    "lastfm": {"history_len": 100, "t_gap": 1000.0, "recent_k": 30, "batch_size": 128},
    "enron": {"history_len": 100, "t_gap": 1000.0, "recent_k": 20, "batch_size": 64},
    "social_evo": {
        "history_len": 100,
        "t_gap": 1000.0,
        "recent_k": 20,
        "batch_size": 128,
        "d_p": 72,
    },
    "uci": {"history_len": 200, "t_gap": 500.0, "recent_k": 30, "batch_size": 100},
    "flights": {"history_len": 100, "t_gap": 1000.0, "recent_k": 30, "batch_size": 128},
    "can_parl": {"history_len": 20, "t_gap": 2.0, "recent_k": 10, "batch_size": 64},
    "us_legis": {"history_len": 50, "t_gap": 2.0, "recent_k": 10, "batch_size": 200},
    "un_trade": {"history_len": 200, "t_gap": 6.0, "recent_k": 30, "batch_size": 200},
    "un_vote": {"history_len": 100, "t_gap": 10.0, "recent_k": 20, "batch_size": 128},
    "contact": {"history_len": 200, "t_gap": 10.0, "recent_k": 20, "batch_size": 128},
}

_REQUIRED_POSITIVE = ("history_len", "t_gap", "recent_k", "batch_size")
_MINIMUM = {"d_t": 1, "d_n": 1, "d_e": 1, "d_p": 1, "max_epochs": 1, "patience": 0, "seed": 0}

# Fields that configs no longer have, each at the value fixed in the
# module that uses it (README lists where). A config written while they
# existed, such as a checkpoint's embedded one, may name them at it.
RETIRED = {"alpha": 10.0, "beta": 10.0, "alpha_neg": 0.3, "alpha_pe": 0.5,
           "train_ratio": 0.70, "val_ratio": 0.15, "eigen_size_cap": 5000}


def _coerce(kind: type, raw: str, key: str):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ValueError(f"config field {key!r}: {exc}") from None


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse ``key = value`` lines over a base config; '#' starts a comment.

    A ``RETIRED`` field is accepted only at its fixed value, and changes
    nothing.
    """
    cfg = base or RunConfig()
    py_types = {"int": int, "float": float, "str": str}
    types = {f.name: py_types[f.type] for f in fields(RunConfig)}
    updates: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: missing '=' in {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in RETIRED:
            fixed = RETIRED[key]
            if _coerce(type(fixed), raw, key) != fixed:
                raise ValueError(f"config line {lineno}: field {key!r} is fixed at {fixed!r}")
            continue
        if key not in types:
            raise ValueError(f"config line {lineno}: unknown field {key!r}")
        updates[key] = _coerce(types[key], raw, key)
    return replace(cfg, **updates)


def parse_config_file(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    return parse_config(Path(path).read_text(), base=base)


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


def shape_hash(cfg: RunConfig) -> str:
    """Hash of the fields that fix parameter shapes."""
    # the trailing 1 stood for a flag that once added tensors; keeping it
    # keeps the hashes of existing checkpoints
    key = f"{cfg.d_t}:{cfg.d_n}:{cfg.d_e}:{cfg.d_p}:{cfg.history_len}:{cfg.recent_k}:1"
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def apply_preset(cfg: RunConfig, name: str) -> RunConfig:
    if name not in PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return replace(cfg, dataset=name, **PRESETS[name])  # type: ignore[arg-type]


def config_problems(cfg: RunConfig) -> list[str]:
    """Every validation problem, not just the first."""
    problems = []
    for key in _REQUIRED_POSITIVE:
        if not 0 < getattr(cfg, key) < math.inf:
            problems.append(f"config field {key!r} must be set to a finite positive value")
    if not 0.0 < cfg.lr < math.inf:
        problems.append("config field 'lr' must be finite and > 0")
    for key, low in _MINIMUM.items():
        if getattr(cfg, key) < low:
            problems.append(f"config field {key!r} must be >= {low}")
    if cfg.pe_init not in ("laplacian", "random_walk", "zero"):
        problems.append(f"unknown pe_init {cfg.pe_init!r}")
    return problems


def validate_config(cfg: RunConfig) -> None:
    problems = config_problems(cfg)
    if problems:
        raise ValueError("; ".join(problems))
