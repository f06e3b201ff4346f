"""Dense matrix primitives, and the one path by which the package writes files.

Matrices are plain ``numpy.ndarray`` values: 2-D, float64, row-major.
The matrix functions are pure; inputs are never mutated.  The
dataset matrix has its own on-disk form, kept in ``dataio``; ``csr_parts``
gives the CSR arrays of a dense matrix for it, and ``dense_from_csr``
turns such arrays back into the dense matrix, which only a dataset too
dense for the CSR path (or read without scipy) needs.  Neither holds a
whole-matrix temporary: ``csr_parts`` holds its parts and a boolean mask,
and ``dense_from_csr`` its matrix and the positions of one ``csr_blocks``
row block (``ROW_BLOCK_BYTES`` of dense rows).  The same budget bounds the
TF-IDF row norms and each topic block of ``evaluation.cross_similarity``.

``.npy``: the one binary matrix format, read and written here for the
dataset matrix and the model's factors.  ``write_npy`` writes the bytes
``np.save`` gives without pickling, so a rerun writes identical bytes;
``read_npy`` reads them back without pickling and checks the array's ndim
and dtype kind, and every error, a header that does not parse included,
is a ``ValueError`` naming the file.

Dense CSV: one matrix row per line, comma-separated values, floats written
with ``repr``, so a float parser gets each value back exactly and reruns
are byte-identical.  The package writes it as an export and reads no text
matrix.  The export is streamed: whole rows of about ``CSV_BLOCK_VALUES``
values are formatted and written at a time, never the whole text, and the
bytes are those of the whole text.

Artifacts: every file the package writes goes through ``write_file``: a
temporary ``.<name>.<pid>.tmp`` beside the target, renamed into place by
``os.replace`` (no fsync), so a killed process leaves each artifact whole
or absent, and any ``OSError`` it raises says ``cannot write output``, as
one from ``remove_file`` does, which deletes a directory's header before a run
writes the directory again.
``write_json`` and ``write_csv`` fix the one JSON layout and the one CSV
dialect.

JSON input: ``read_json`` reads each JSON file, and ``parse_json`` each
corpus line, as UTF-8 whatever the locale, and checks the object's fields
against a table of key -> (JSON types, description), by exact type, so
``true`` is never an integer and an integer too large for a float is no
number.  Every error is a ``ValueError`` naming the place (file, line) and key.
"""

from __future__ import annotations

import csv
import io
import json
import os
from itertools import chain
from pathlib import Path
from tokenize import TokenError
from typing import BinaryIO, Callable

import numpy as np

from .errors import ShapeError

# A row block (``csr_blocks``, the TF-IDF row norms) or a topic block (``cross_similarity``)
# holds at most this many dense bytes.
ROW_BLOCK_BYTES = 1 << 20
# The dense CSV export formats about this many values, a few times their bytes as text, per write.
CSV_BLOCK_VALUES = 1 << 13


def as_dense(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D float64 C-order array without copying when possible."""
    out = np.asarray(a, dtype=np.float64, order="C")
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={out.ndim}")
    return out


def csr_parts(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR row pointers, column indices (both int64) and values of ``a``'s non-zeros.

    Entries come in row-major order, so columns ascend within each row.
    NaN and Inf count as non-zero.  Beside ``a`` and the parts it holds only
    a boolean mask of ``a``, freed before the values are gathered.
    """
    a = as_dense(a, "a")
    stored = a != 0.0
    indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(stored, axis=1), out=indptr[1:])
    flat = np.flatnonzero(stored)  # far faster on the bool mask than on floats
    del stored
    data = a.ravel()[flat]
    # the row-major positions become column indices in their own buffer
    return indptr, np.remainder(flat, a.shape[1], out=flat), data


def csr_blocks(indptr, indices, n_cols: int):
    """Per block of rows at most ``ROW_BLOCK_BYTES`` wide when dense: the slice of its
    stored entries and their row-major positions ``row * n_cols + column``."""
    n_rows = len(indptr) - 1
    step = max(1, ROW_BLOCK_BYTES // (8 * n_cols or 1))
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        entries = slice(indptr[start], indptr[stop])
        flat = np.repeat(np.arange(start, stop, dtype=np.int64) * n_cols,
                         np.diff(indptr[start:stop + 1]))
        flat += indices[entries]
        yield entries, flat


def dense_from_csr(indptr, indices, data, shape: tuple[int, int]) -> np.ndarray:
    """The dense float64 matrix of CSR parts; the inverse of ``csr_parts``.

    It is filled ``csr_blocks`` at a time, so beside the parts and itself it holds one
    block of positions.
    """
    out = np.zeros(shape, dtype=np.float64)
    flat_out = out.reshape(-1)  # a view: ``out`` is C-contiguous
    for entries, flat in csr_blocks(indptr, indices, shape[1]):
        flat_out[flat] = data[entries]
    return out


def write_file(path, content: str | bytes | Callable[[BinaryIO], object]) -> None:
    """Write ``content`` to ``path`` atomically, creating its directory.

    ``content`` is text (written as UTF-8), bytes, or a function that writes
    to the open binary file (no in-memory copy of a large array).  The bytes
    go to ``.<name>.<pid>.tmp`` beside ``path``, which ``os.replace`` renames
    into place; on any failure the temporary file is removed and ``path``
    keeps its old bytes.  The mode is the one ``open(path, "w")`` gives.  An
    ``OSError`` is raised again as one whose message starts with
    ``cannot write output: <path>:``; any other exception passes through.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
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
    except OSError as exc:
        raise OSError(f"cannot write output: {path}: {exc}") from exc


def remove_file(path) -> None:
    """Delete the file ``path`` if there is one; an ``OSError`` reads as ``write_file``'s."""
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as exc:
        raise OSError(f"cannot write output: {path}: {exc}") from exc


def write_json(path, obj) -> None:
    write_file(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path, rows) -> None:
    """Write ``rows`` (the header first) as CSV; None becomes "" and floats their repr."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    write_file(path, buf.getvalue())


_FLOAT_BOUND = 2**1024 - 2**970  # the least int that float() cannot hold: it rounds to 2**1024


def _has_types(value, types) -> bool:
    """Whether ``value`` has one of ``types`` exactly: a tuple of types, or ``[inner]``
    for an array whose items have the types ``inner``, checked in one pass; an int
    passes for a float only if ``float()`` holds it."""
    if type(types) is tuple:
        return type(value) in types and (
            type(value) is not int or float not in types or abs(value) < _FLOAT_BOUND)
    if type(value) is not list:
        return False
    (inner,) = types
    if type(inner) is tuple:
        return set(map(type, value)).issubset(inner) and (
            float not in inner or all(_has_types(item, inner) for item in value))
    # an array of arrays: its items are arrays, whose items, all together, have ``inner``
    return set(map(type, value)) <= {list} and _has_types(list(chain.from_iterable(value)), inner)


def parse_json(data: bytes, place, fields: dict | None = None, optional=()) -> dict:
    """The JSON object that the UTF-8 ``data`` holds, with the ``fields`` it must have.

    ``fields`` maps a key to (types, what), as ``_has_types`` takes them, so a number
    fits a float; a key that fails, or is absent and not ``optional``, raises
    ``<place>: '<key>' must be <what>``.
    """
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # a UnicodeDecodeError, or nesting too deep
        raise ValueError(f"{place}: not valid JSON: {exc}") from None
    if type(obj) is not dict:
        raise ValueError(f"{place}: must be a JSON object")
    for key, (types, what) in (fields or {}).items():
        if not (_has_types(obj[key], types) if key in obj else key in optional):
            raise ValueError(f"{place}: '{key}' must be {what}")
    return obj


def read_json(path, fields: dict | None = None, optional=()) -> dict:
    """The JSON object of the file ``path``, checked by ``parse_json``; errors name the file."""
    return parse_json(Path(path).read_bytes(), path, fields, optional)


def check_distinct(what: str, values) -> None:
    """Raise ``ValueError`` ``<what> <value!r> appears more than once`` on a repeat."""
    if len(set(values)) != len(values):
        seen = set()  # name the first entry seen twice
        value = next(value for value in values if value in seen or seen.add(value))
        raise ValueError(f"{what} {value!r} appears more than once")


def write_dense_csv(a, path) -> None:
    """Write ``a`` as dense CSV, formatted and written about ``CSV_BLOCK_VALUES`` values of
    whole rows at a time."""
    a = as_dense(a, "a")
    step = max(1, CSV_BLOCK_VALUES // (a.shape[1] or 1))

    def write(fh) -> None:
        for start in range(0, a.shape[0], step):
            lines = [",".join(map(repr, row)) for row in a[start:start + step].tolist()]
            fh.write("\n".join([*lines, ""]).encode())

    write_file(path, write)


def write_npy(path, a) -> None:
    """Write ``a`` with ``np.save``'s own writer, unpickled and streamed without a copy."""
    a = np.asanyarray(a)
    write_file(path, lambda fh: np.lib.format.write_array(fh, a, allow_pickle=False))


def read_npy(path, ndim: int, kind: type[np.generic]) -> np.ndarray:
    """The array of the ``.npy`` file ``path``, which must be ``ndim``-D of a ``kind`` dtype.

    Nothing is unpickled; a ``ValueError`` names the file.
    """
    with open(path, "rb") as fh:
        try:
            a = np.lib.format.read_array(fh, allow_pickle=False)
        # numpy retries a bad header through tokenize, and allocates the shape it names
        except (ValueError, TokenError, MemoryError) as exc:
            reason = "its header does not parse" if isinstance(exc, TokenError) else exc
            raise ValueError(f"{path}: not a readable .npy array: {reason}") from None
    if a.ndim != ndim or not np.issubdtype(a.dtype, kind):
        raise ValueError(
            f"{path}: expected a {ndim}-D {kind.__name__} array, got {a.dtype} with shape {a.shape}"
        )
    return a
