"""Dense matrix primitives, and the one path by which the package writes files.

Matrices are plain ``numpy.ndarray`` values: 2-D, float64, row-major.
The matrix functions are pure; inputs are never mutated.  The
dataset matrix has its own on-disk form, kept in ``dataio``; ``csr_parts``
gives the CSR arrays of a dense matrix for it and for the sparse fit, and
``dense_from_csr`` turns such arrays back into the dense matrix.

Dense CSV: one matrix row per line, comma-separated values.  Floats are
written with ``repr`` and read back with ``numpy.loadtxt``, so files
round-trip exactly and reruns are byte-identical; a file that does not
parse, is ragged or is empty raises a ``ValueError`` naming it.

Artifacts: every file the package writes goes through ``write_file``: a
temporary ``.<name>.<pid>.tmp`` beside the target, renamed into place by
``os.replace`` (no fsync), so a killed process leaves each artifact whole
or absent.  ``write_json`` and ``write_csv`` fix the one JSON layout and
the one CSV dialect; ``read_json`` names the file in every error.
"""

from __future__ import annotations

import csv
import io
import json
import os
import warnings
from pathlib import Path
from typing import BinaryIO, Callable

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


def dense_from_csr(indptr, indices, data, shape: tuple[int, int]) -> np.ndarray:
    """The dense float64 matrix of CSR parts; the inverse of ``csr_parts``."""
    out = np.zeros(shape, dtype=np.float64)
    out[np.repeat(np.arange(shape[0]), np.diff(indptr)), indices] = data
    return out


def write_file(path, content: str | bytes | Callable[[BinaryIO], object]) -> None:
    """Write ``content`` to ``path`` atomically, creating its directory.

    ``content`` is text (written as UTF-8), bytes, or a function that writes
    to the open binary file (no in-memory copy of a large array).  The bytes
    go to ``.<name>.<pid>.tmp`` beside ``path``, which ``os.replace`` renames
    into place; on any failure the temporary file is removed and ``path``
    keeps its old bytes.  The mode is the one ``open(path, "w")`` gives.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content.encode() if isinstance(content, str) else content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    write_file(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path, rows) -> None:
    """Write ``rows`` (the header first) as CSV; None becomes "" and floats their repr."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    write_file(path, buf.getvalue())


def read_json(path) -> dict:
    """Load a JSON object; a ``ValueError`` naming the file if it is not one."""
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: must be a JSON object")
    return obj


def write_dense_csv(a, path) -> None:
    lines = [",".join(map(repr, row)) for row in as_dense(a, "a").tolist()]
    write_file(path, "\n".join(lines) + "\n")


def read_dense_csv(path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file is rejected below
            a = np.loadtxt(path, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not a.size:
        raise ValueError(f"empty dense matrix file: {path}")
    return a
