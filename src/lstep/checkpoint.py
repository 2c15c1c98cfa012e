"""Flat binary container for named float64 tensors plus string metadata.

Layout (little-endian): magic ``LSTP``, u32 version, u32 metadata count,
u32 tensor count; metadata entries as length-prefixed UTF-8 key/value
pairs; tensor entries sorted by name as length-prefixed name, u8 ndim,
u32 dims, row-major float64 payload, then the u32 zlib CRC32 of the
payload. Sorted names make the byte layout deterministic for a given
content. Version 1 files, which have no CRC32, still load.
"""
from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

__all__ = ["save_container", "load_container", "FORMAT_VERSION"]

MAGIC = b"LSTP"
FORMAT_VERSION = 2


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"string too long for container: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def save_container(
    path: str | Path,
    tensors: dict[str, np.ndarray],
    meta: dict[str, str] | None = None,
) -> None:
    meta = meta or {}
    chunks = [MAGIC, struct.pack("<III", FORMAT_VERSION, len(meta), len(tensors))]
    for key in sorted(meta):
        chunks.append(_pack_str(key))
        chunks.append(_pack_str(meta[key]))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=np.float64))
        if arr.ndim > 255:
            raise ValueError(f"tensor {name!r} has too many dimensions")
        chunks.append(_pack_str(name))
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        payload = arr.astype("<f8").tobytes(order="C")
        chunks.append(payload)
        chunks.append(struct.pack("<I", zlib.crc32(payload)))
    Path(path).write_bytes(b"".join(chunks))


class _Cursor:
    def __init__(self, path: str | Path):
        self.path = path
        self.buf = Path(path).read_bytes()
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ValueError(f"{self.path}: truncated checkpoint container")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        (n,) = self.unpack("<H")
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{self.path}: string at byte {self.pos - n} is not UTF-8 ({exc.reason})"
            ) from None


def load_container(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    cur = _Cursor(path)
    if cur.take(4) != MAGIC:
        raise ValueError(f"{path}: not a checkpoint container")
    version, n_meta, n_tensors = cur.unpack("<III")
    if version not in (1, FORMAT_VERSION):
        raise ValueError(f"{path}: unsupported container version {version}")
    meta = {}
    for _ in range(n_meta):
        key = cur.string()
        meta[key] = cur.string()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        name = cur.string()
        (ndim,) = cur.unpack("<B")
        shape = cur.unpack(f"<{ndim}I") if ndim else ()
        count = 1
        for d in shape:
            count *= d
        raw = cur.take(8 * count)
        if version > 1 and cur.unpack("<I")[0] != zlib.crc32(raw):
            raise ValueError(f"{path}: tensor {name!r} fails its checksum")
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if cur.pos != len(cur.buf):
        raise ValueError(f"{path}: trailing bytes in checkpoint container")
    return tensors, meta
