"""Dataset directory format shared by the pipeline stages.

A dataset directory holds the encoded matrix plus everything needed to
supervise and evaluate against it:

    matrix.indptr.npy   CSR row pointers of the documents x terms matrix
    matrix.indices.npy  CSR column (term) indices, ascending within each row
    matrix.data.npy     CSR values, all > 0
    meta.json           doc_ids, vocabulary, labels, per-document label names,
                        and filter statistics

The three matrix files are plain ``.npy`` arrays (int64, int64, float64),
written by ``matrix.write_npy`` and read by ``matrix.read_npy``, the
package's one ``.npy`` writer and reader, which the model's factors share;
like every artifact they reach disk whole or not at all.  The matrix shape
comes from ``meta.json``: one row per doc id, one column per vocabulary
term.  ``ingest`` hands its CSR parts over as they are, and ``synth`` takes
them from the dense planted matrix with ``csr_parts``.

The ingest and synth commands write this layout, ``meta.json`` last: a
write deletes it first, so a run killed midway leaves a directory that
every reader refuses, naming ``meta.json``.  Reading is split by use:
``read_dataset`` reads ``meta.json`` alone, which is all evaluate and
top-terms need, and ``read_matrix`` checks the three matrix files and
gives fit and sweep V in the one place its form is chosen: a scipy CSR
array of the parts when sparse enough, else dense.  Every load failure,
from a missing file to an entry out of range, raises ``OSError`` or
``ValueError`` naming the file; the fit itself rejects an empty V.

Memory: a read holds the parts it read, V when dense, and one row block of
``matrix.csr_blocks`` at a time, since both the column-order check and the
densify go block by block.  ``synth``'s write holds V and its CSR parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .matrix import (check_distinct, csr_blocks, csr_parts, dense_from_csr, read_json, read_npy,
                     remove_file, write_json, write_npy)
from .preprocessing import IngestResult, Vocabulary
from .supervision import LabelTable, build_label_table
from .synthetic import PlantedInstance

MATRIX_FILENAMES = {part: f"matrix.{part}.npy" for part in ("indptr", "indices", "data")}
META_FILENAME = "meta.json"
# At or below this share of stored entries ``read_matrix`` gives V as CSR, which the
# fit multiplies as it is.  Measured at 1500x2000 with d = 10 and 20, one BLAS
# thread: CSR is 1.15-1.3x faster at 10 % density and 1.3-1.5x slower at 20 %.
SPARSE_DENSITY_MAX = 0.1
_META_FIELDS = {
    **dict.fromkeys(("doc_ids", "vocabulary", "labels"), ([(str,)], "a list of strings")),
    "doc_labels": ([[(str,)]], "a list of lists of strings"),
}


def _write_matrix(out: Path, csr) -> None:
    for name, array in zip(MATRIX_FILENAMES.values(), csr):
        write_npy(out / name, array)


def read_matrix(datadir, dataset: Dataset):
    """The V of ``dataset``, from its directory's CSR files once every check passes.

    A scipy CSR array of the checked parts when at most ``SPARSE_DENSITY_MAX`` of V is
    stored and scipy imports, else dense; an empty V too, which the fit rejects.
    """
    datadir = Path(datadir)
    n_rows, n_cols = dataset.n_docs, len(dataset.vocabulary)
    kinds = {"indptr": np.integer, "indices": np.integer, "data": np.floating}
    arrays = {
        part: read_npy(datadir / name, 1, kinds[part]) for part, name in MATRIX_FILENAMES.items()
    }
    # unsigned differences would wrap; scipy takes the values as float64
    indptr, indices = (arrays[part].astype(np.int64, copy=False) for part in ("indptr", "indices"))
    data = arrays["data"].astype(np.float64, copy=False)

    def check(ok, part: str, message: str) -> None:
        if not ok:
            raise ValueError(f"{datadir / MATRIX_FILENAMES[part]}: {message}")

    check(
        len(indptr) == n_rows + 1, "indptr",
        f"{len(indptr) - 1} rows for {n_rows} doc_ids in {META_FILENAME}",
    )
    counts = np.diff(indptr)
    check(indptr[0] == 0, "indptr", f"must start at 0, starts at {indptr[0]}")
    check(np.all(counts >= 0), "indptr", "must never decrease")
    check(
        indptr[-1] == len(indices) == len(data), "indptr",
        f"ends at {indptr[-1]} for {len(indices)} indices and {len(data)} values",
    )
    check(
        not len(indices) or (indices.min() >= 0 and indices.max() < n_cols), "indices",
        f"column index out of range for {n_cols} vocabulary terms",
    )
    # flat positions row * n_cols + col must strictly increase: columns sorted within
    # each row and no duplicate entries.  Across blocks they do, as every column is in range.
    check(
        all(np.all(flat[1:] > flat[:-1]) for _, flat in csr_blocks(indptr, indices, n_cols)),
        "indices", "columns must strictly increase within each row",
    )
    # NaN and Inf pass: the fit reports non-finite input as a numerical failure
    check(not np.any(data <= 0.0), "data", "stored values must be > 0")
    if len(data) <= SPARSE_DENSITY_MAX * n_rows * n_cols:
        try:
            from scipy.sparse import csr_array
        except ImportError:
            pass
        else:
            return csr_array((data, indices, indptr), shape=(n_rows, n_cols))
    return dense_from_csr(indptr, indices, data, (n_rows, n_cols))


@dataclass(frozen=True)
class Dataset:
    """What a dataset directory's ``meta.json`` says; ``read_matrix`` reads its V."""

    doc_ids: tuple[str, ...]
    vocabulary: Vocabulary
    label_table: LabelTable

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)


def _write(
    outdir,
    csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    doc_ids,
    vocab_terms,
    table: LabelTable,
    stats: dict,
) -> None:
    out = Path(outdir)
    remove_file(out / META_FILENAME)  # written again last, once the matrix files are
    _write_matrix(out, csr)
    meta = {
        "doc_ids": list(doc_ids),
        "vocabulary": list(vocab_terms),
        "labels": list(table.labels),
        "doc_labels": [sorted(table.labels[j] for j in idxs) for idxs in table.doc_labels],
        "stats": stats,
    }
    write_json(out / META_FILENAME, meta)


def write_ingest_result(outdir, result: IngestResult) -> None:
    tdm = result.tdm
    _write(
        outdir,
        (tdm.indptr, tdm.indices, tdm.data),
        tdm.doc_ids,
        tdm.vocabulary.terms,
        build_label_table(result.doc_labels),
        result.stats,
    )


def write_planted_instance(outdir, inst: PlantedInstance, stats: dict | None = None) -> None:
    """Persist a synthetic instance's V and labels in dataset layout."""
    n, t = inst.V.shape
    id_width = len(str(n - 1))
    term_width = len(str(t - 1))
    doc_ids = [f"doc{i:0{id_width}d}" for i in range(n)]
    terms = [f"term{j:0{term_width}d}" for j in range(t)]
    _write(
        outdir, csr_parts(inst.V), doc_ids, terms, inst.label_table, stats or {"synthetic": True}
    )


def _read_meta(path: Path) -> dict:
    """Load ``meta.json`` and check every field the reader uses, one pass per check."""
    meta = read_json(path, _META_FIELDS)
    check_distinct(f"{path}: doc_id", meta["doc_ids"])
    check_distinct(f"{path}: vocabulary term", meta["vocabulary"])
    doc_labels = meta["doc_labels"]
    if len(doc_labels) != len(meta["doc_ids"]):
        raise ValueError(
            f"{path}: {len(doc_labels)} 'doc_labels' entries for {len(meta['doc_ids'])} doc_ids"
        )
    unknown = sorted(set(chain.from_iterable(doc_labels)).difference(meta["labels"]))
    if unknown:
        raise ValueError(f"{path}: 'doc_labels' names labels not in 'labels': {unknown[:5]}")
    return meta


def read_dataset(datadir) -> Dataset:
    """The checked ``meta.json`` of a dataset directory; no matrix file is opened."""
    path = Path(datadir) / META_FILENAME
    meta = _read_meta(path)
    labels = tuple(meta["labels"])
    index = {name: j for j, name in enumerate(labels)}
    doc_labels = tuple(frozenset(map(index.__getitem__, names)) for names in meta["doc_labels"])
    try:
        table = LabelTable(labels=labels, doc_labels=doc_labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return Dataset(
        doc_ids=tuple(meta["doc_ids"]),
        vocabulary=Vocabulary(terms=tuple(meta["vocabulary"])),
        label_table=table,
    )
