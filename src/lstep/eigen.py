"""Dense symmetric eigendecomposition.

Validates the input, then calls LAPACK through ``np.linalg.eigh``.
Eigenvalues come back in ascending order with orthonormal eigenvector
columns under a fixed sign convention: the entry of largest magnitude
in each column (lowest index on ties) is non-negative.
"""
from __future__ import annotations

import numpy as np

__all__ = ["symmetric_eig", "DEFAULT_SIZE_CAP"]

DEFAULT_SIZE_CAP = 5000


def symmetric_eig(
    matrix: np.ndarray, size_cap: int = DEFAULT_SIZE_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and eigenvector
    columns ``v[:, i]`` orthonormal, satisfying ``matrix @ v = v @ diag(w)``
    to a residual below 1e-8 times the matrix norm.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    if n > size_cap:
        raise ValueError(f"matrix size {n} exceeds cap {size_cap}")
    asym = float(np.max(np.abs(m - m.T))) if n > 1 else 0.0
    if asym > 1e-10:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e}")

    w, v = np.linalg.eigh((m + m.T) / 2.0)
    lead = np.argmax(np.abs(v), axis=0)
    v *= np.where(v[lead, np.arange(n)] < 0.0, -1.0, 1.0)
    return w, v
