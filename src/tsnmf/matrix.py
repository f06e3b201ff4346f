"""Dense matrix primitives used throughout the package.

Matrices are plain ``numpy.ndarray`` values: 2-D, float64, row-major.
Everything here is a pure function; inputs are never mutated.  The
dataset matrix has its own on-disk form, kept in ``dataio``; ``csr_parts``
gives the CSR arrays of a dense matrix for it and for the sparse fit.

Dense CSV: one matrix row per line, comma-separated values.  Floats are
written with ``repr`` so files round-trip exactly and reruns are
byte-identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ShapeError


def as_dense(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D float64 C-order array without copying when possible."""
    out = np.asarray(a, dtype=np.float64, order="C")
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={out.ndim}")
    return out


def require_nonnegative(a: np.ndarray, name: str = "matrix") -> None:
    if a.size and a.min() < 0.0:
        raise ValueError(f"{name} must be non-negative, min entry is {a.min()!r}")


def frobenius_sq(a) -> float:
    """Sum of squared entries (squared Frobenius norm)."""
    a = as_dense(a, "a")
    return float(np.sum(a * a))


def l2_normalize_rows(a) -> np.ndarray:
    """Scale each row to unit Euclidean norm; all-zero rows pass through unchanged."""
    a = as_dense(a, "a")
    norms = np.sqrt(np.sum(a * a, axis=1, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    return a / safe


def csr_parts(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR row pointers, column indices (both int64) and values of ``a``'s non-zeros.

    Entries come in row-major order, so columns ascend within each row.
    NaN and Inf count as non-zero.
    """
    a = as_dense(a, "a")
    flat = np.flatnonzero(a != 0.0)  # far faster on the bool mask than on floats
    rows, cols = np.divmod(flat, a.shape[1])
    indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=a.shape[0]), out=indptr[1:])
    return indptr, cols, a.ravel()[flat]


def write_dense_csv(a, path) -> None:
    a = as_dense(a, "a")
    lines = [",".join(repr(float(v)) for v in row) for row in a]
    Path(path).write_text("\n".join(lines) + "\n")


def read_dense_csv(path) -> np.ndarray:
    rows = []
    for line in Path(path).read_text().strip().splitlines():
        rows.append([float(x) for x in line.split(",")])
    if not rows:
        raise ValueError(f"empty dense matrix file: {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ShapeError(f"ragged rows in dense CSV {path}: widths {sorted(widths)}")
    return np.array(rows, dtype=np.float64)
