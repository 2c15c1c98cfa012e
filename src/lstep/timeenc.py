"""Fixed cosine time-delta encoder.

Encodes an elapsed time delta as cos(delta * omega) against a geometric
frequency ladder omega_i = ALPHA ** (-(i - 1) / BETA), i = 1..d_t, with
ALPHA = BETA = 10. There are no learnable parameters; a zero delta
encodes to the all-ones vector.

The model never encodes a delta one by one. Each stream keeps a phase
table (``phase_table``, ``EventStream.phase_rows``), one row
[cos omega (t_e - r_e), sin omega (t_e - r_e)] per event, where r_e =
floor(t_e / BLOCK) * BLOCK is the start of the BLOCK-second (2^20 s,
about 12 days) block that holds t_e; it costs E x 2 d_t x 8 bytes.
Its one reader, the encoder's window pool, ``turn``s rows from older
blocks to a common block start R by angle addition, with the gap's
angle split so that its product with omega is exact, sums them, and
turns the sums to the phase omega (t - R) of the time they are read at
(``phases_at``). So no rounded angle is larger than a block plus a
window's span, and at Unix-epoch timestamps (about 1.7e9 s), with
windows that straddle a block boundary and streams that span 1e5 to
3e7 s, the encodings match ``time_encode`` of each delta within 1e-9;
phases against t = 0 would be about 1.7e9 rad and miss by about 2e-7.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "ALPHA",
    "BETA",
    "BLOCK",
    "angular_frequencies",
    "time_encode",
    "block_start",
    "phase_table",
    "phases_at",
    "turn",
]

ALPHA = 10.0
BETA = 10.0
BLOCK = 2.0**20  # seconds; block starts are exact, and so is t minus its start for t >= 0


def angular_frequencies(d_t: int) -> np.ndarray:
    """The (d_t,) ladder omega_i = ALPHA ** (-(i - 1) / BETA), i = 1..d_t."""
    i = np.arange(1, d_t + 1, dtype=np.float64)
    return ALPHA ** (-(i - 1.0) / BETA)


def time_encode(deltas: float | np.ndarray, d_t: int) -> np.ndarray:
    """Encode a non-negative delta, or each entry of an array of them:
    shape (...,) to (..., d_t), so a single delta gives a (d_t,) vector."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.size and float(deltas.min()) < 0.0:
        raise ValueError(f"negative time delta: {float(deltas.min())}")
    return np.cos(deltas[..., None] * angular_frequencies(d_t))


def block_start(ts: float | np.ndarray) -> np.ndarray:
    """Start of the BLOCK-second block that holds each time."""
    return np.floor(np.asarray(ts, dtype=np.float64) / BLOCK) * BLOCK


def _cos_sin(deltas: np.ndarray, d_t: int) -> np.ndarray:
    """(m, 2 d_t) rows [cos omega delta, sin omega delta] of the (m,)
    ``deltas``: the angles are written into the sine half and turned
    into cosines and sines in place."""
    rows = np.empty((deltas.size, 2 * d_t))
    angle = rows[:, d_t:]
    np.multiply(deltas[:, None], angular_frequencies(d_t), out=angle)
    np.cos(angle, out=rows[:, :d_t])
    np.sin(angle, out=angle)
    return rows


def phase_table(ts: np.ndarray, d_t: int) -> np.ndarray:
    """(E, 2 d_t) rows [cos omega (t - r), sin omega (t - r)] of the times
    ``ts``, r = ``block_start(t)``, built in place, so the build
    allocates the table and (E,) temporaries only."""
    ts = np.asarray(ts, dtype=np.float64)
    return _cos_sin(ts - block_start(ts), d_t)


def phases_at(ts: np.ndarray, ref: float, d_t: int) -> np.ndarray:
    """(n, 2 d_t) [cos omega (t - ref), sin omega (t - ref)] of each time,
    evaluated once per distinct time."""
    times, which = np.unique(np.asarray(ts, dtype=np.float64), return_inverse=True)
    return _cos_sin(times - ref, d_t)[which.reshape(-1)]


def turn(rows: np.ndarray, gaps: np.ndarray) -> None:
    """Add omega ``gaps[i]`` to the phase of each [cos, sin] row ``rows[i]``
    (m, 2 d_t), in place.

    cos(b + c) = cos b cos c - sin b sin c and sin(b + c) = sin b cos c
    + cos b sin c, with one cosine and sine of c per run of equal gaps;
    rows with a zero gap are left as they are. Rows in time order have
    one run per block, so each run is turned as one slice.
    """
    d_t = rows.shape[1] // 2
    starts = np.flatnonzero(np.diff(gaps, prepend=np.nan))
    ends = np.append(starts[1:], gaps.size)
    moved = gaps[starts] != 0.0
    if not moved.any():
        return
    starts, ends, run_gaps = starts[moved], ends[moved], gaps[starts[moved]]
    # a gap is a multiple of BLOCK, so the product with omega's leading 26
    # bits is exact; the rest of omega adds a small second angle
    omega = angular_frequencies(d_t)
    split = omega * (2.0**27 + 1.0)
    high = split - (split - omega)
    big, small = run_gaps[:, None] * high, run_gaps[:, None] * (omega - high)
    cos_s, sin_s = np.cos(small), np.sin(small)
    cos_c = np.cos(big) * cos_s - np.sin(big) * sin_s
    sin_c = np.sin(big) * cos_s + np.cos(big) * sin_s
    for lo, hi, c, s in zip(starts, ends, cos_c, sin_c):
        cos_b, sin_b = rows[lo:hi, :d_t], rows[lo:hi, d_t:]
        cos_b_sin_c = cos_b * s
        cos_b *= c
        cos_b -= sin_b * s
        sin_b *= c
        sin_b += cos_b_sin_c
