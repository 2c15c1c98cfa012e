"""Binary checkpoint container: round-trip, determinism, corruption."""
import struct

import numpy as np
import pytest

from lstep.checkpoint import FORMAT_VERSION, load_container, save_container


def _payload():
    rng = np.random.default_rng(91)
    tensors = {
        "w": rng.normal(size=(3, 4)),
        "pool": rng.normal(size=(5, 1)),
        "bias": rng.normal(size=(7,)),
        "scalarish": np.asarray([2.5]),
    }
    meta = {"dataset": "toy", "epoch": "3", "config_hash": "abc123"}
    return tensors, meta


def test_round_trip_is_exact(tmp_path):
    tensors, meta = _payload()
    p = tmp_path / "model.ckpt"
    save_container(p, tensors, meta)
    got_t, got_m = load_container(p)
    assert got_m == meta
    assert set(got_t) == set(tensors)
    for name in tensors:
        assert got_t[name].dtype == np.float64
        assert np.array_equal(got_t[name], tensors[name])


def test_bytes_are_deterministic(tmp_path):
    tensors, meta = _payload()
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_container(a, tensors, meta)
    # insertion order must not matter: rebuild dicts reversed
    save_container(
        b,
        dict(reversed(list(tensors.items()))),
        dict(reversed(list(meta.items()))),
    )
    assert a.read_bytes() == b.read_bytes()


def test_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bogus.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a checkpoint container"):
        load_container(p)


def test_rejects_future_version(tmp_path):
    tensors, meta = _payload()
    p = tmp_path / "model.ckpt"
    save_container(p, tensors, meta)
    raw = bytearray(p.read_bytes())
    assert FORMAT_VERSION == 2
    raw[4] = 3
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported container version"):
        load_container(p)


def test_rejects_truncation(tmp_path):
    tensors, meta = _payload()
    p = tmp_path / "model.ckpt"
    save_container(p, tensors, meta)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 9])
    with pytest.raises(ValueError, match="truncated"):
        load_container(p)


def test_rejects_trailing_garbage(tmp_path):
    tensors, meta = _payload()
    p = tmp_path / "model.ckpt"
    save_container(p, tensors, meta)
    p.write_bytes(p.read_bytes() + b"\x01\x02")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_container(p)


def test_empty_container_round_trips(tmp_path):
    p = tmp_path / "empty.ckpt"
    save_container(p, {}, {})
    tensors, meta = load_container(p)
    assert tensors == {} and meta == {}


def test_rejects_a_flipped_payload_byte(tmp_path):
    tensors, meta = _payload()
    p = tmp_path / "model.ckpt"
    save_container(p, tensors, meta)
    raw = bytearray(p.read_bytes())
    # tensors are stored sorted by name, each payload followed by its
    # 4-byte CRC32, so byte -5 is the last payload byte of the last one
    raw[-5] ^= 0x01
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as exc:
        load_container(p)
    assert str(exc.value) == f"{p}: tensor 'w' fails its checksum"


def _save_version_1(path, tensors, meta):
    """The version-1 layout: no CRC32 after each payload."""
    def text(s):
        raw = s.encode()
        return struct.pack("<H", len(raw)) + raw

    chunks = [b"LSTP", struct.pack("<III", 1, len(meta), len(tensors))]
    for key in sorted(meta):
        chunks += [text(key), text(meta[key])]
    for name in sorted(tensors):
        arr = tensors[name]
        chunks += [text(name), struct.pack("<B", arr.ndim)]
        chunks += [struct.pack(f"<{arr.ndim}I", *arr.shape), arr.astype("<f8").tobytes()]
    path.write_bytes(b"".join(chunks))


def test_version_1_file_still_loads(tmp_path):
    tensors, meta = _payload()
    p = tmp_path / "old.ckpt"
    _save_version_1(p, tensors, meta)
    got_t, got_m = load_container(p)
    assert got_m == meta
    assert set(got_t) == set(tensors)
    for name in tensors:
        assert np.array_equal(got_t[name], tensors[name])
