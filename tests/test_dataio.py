"""Dataset directory tests: the CSR matrix files and their load checks."""

import dataclasses
import re
import sys

import numpy as np
import pytest

from tsnmf import dataio
from tsnmf.dataio import (
    MATRIX_FILENAMES,
    SPARSE_DENSITY_MAX,
    Dataset,
    _write,
    read_dataset,
    read_matrix,
)
from tsnmf.experiment import SweepConfig, run_sweep
from tsnmf.matrix import csr_parts
from tsnmf.supervision import build_label_table


def _save_dataset(path, V):
    n, t = V.shape
    _write(path, csr_parts(V), [f"d{i}" for i in range(n)], [f"t{j}" for j in range(t)],
           build_label_table([[]] * n), {})
    return path


def _read(path):
    return read_matrix(path, read_dataset(path))


def _load(path, part):
    return np.load(path / MATRIX_FILENAMES[part], allow_pickle=False)


def _replace(path, part, array):
    np.save(path / MATRIX_FILENAMES[part], array, allow_pickle=False)


class TestCsrMatrixFiles:
    def test_round_trip_through_dense(self, tmp_path):
        a = np.random.default_rng(8).random((6, 9))
        a[a < 0.5] = 0.0
        a[2] = 0.0  # an empty row and an empty column survive too
        a[:, 4] = 0.0
        back = _read(_save_dataset(tmp_path, a))
        assert back.dtype == np.float64
        assert back.tobytes() == a.tobytes()

    def test_file_round_trip_is_exact(self, tmp_path):
        a = np.random.default_rng(9).random((5, 3))
        a[a < 0.4] = 0.0
        back = _read(_save_dataset(tmp_path / "first", a))
        assert back.tobytes() == a.tobytes()
        _save_dataset(tmp_path / "again", back)  # a rewrite of what was read gives the same bytes
        for name in MATRIX_FILENAMES.values():
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()

    def test_dense_matrix_built_once_and_parts_released(self, tmp_path, monkeypatch):
        # a Dataset is meta.json alone: no matrix parts are held past read_matrix
        assert [f.name for f in dataclasses.fields(Dataset)] == [
            "doc_ids", "vocabulary", "label_table"
        ]
        a = np.array([[0.0, 1.5, 0.0], [2.0, 0.0, 0.5]])
        data = _save_dataset(tmp_path / "data", a)
        assert read_dataset(data).n_docs == 2
        assert _read(data).tobytes() == a.tobytes()
        # a sweep builds V once for all of its cells
        built = []
        dense_from_csr = dataio.dense_from_csr

        def counted(*args):
            built.append(args[-1])
            return dense_from_csr(*args)

        monkeypatch.setattr(dataio, "dense_from_csr", counted)
        cfg = SweepConfig(
            data=str(data), out=str(tmp_path / "sweep"), rates=(0.0, 0.5), seeds=(1, 2), topics=1
        )
        assert len(run_sweep(cfg).cells) == 4 and built == [(2, 3)]

    def test_file_layout(self, tmp_path):
        _save_dataset(tmp_path, np.array([[0.0, 1.5], [2.0, 0.0]]))
        assert sorted(p.name for p in tmp_path.glob("matrix*")) == sorted(MATRIX_FILENAMES.values())
        indptr, indices, data = (_load(tmp_path, p) for p in ("indptr", "indices", "data"))
        assert (indptr.dtype, indices.dtype, data.dtype) == (np.int64, np.int64, np.float64)
        np.testing.assert_array_equal(indptr, [0, 1, 2])
        np.testing.assert_array_equal(indices, [1, 0])
        np.testing.assert_array_equal(data, [1.5, 2.0])

    def test_rejects_out_of_range_index(self, tmp_path):
        _save_dataset(tmp_path, np.array([[1.0, 0.0], [0.0, 1.0]]))
        _replace(tmp_path, "indices", np.array([0, 2]))
        with pytest.raises(ValueError, match=r"matrix\.indices\.npy: column index out of range"):
            _read(tmp_path)

    def test_rejects_duplicate_entry(self, tmp_path):
        _save_dataset(tmp_path, np.array([[1.0, 2.0], [0.0, 1.0]]))
        _replace(tmp_path, "indices", np.array([0, 0, 1]))
        with pytest.raises(ValueError, match=r"matrix\.indices\.npy: columns must strictly increase"):
            _read(tmp_path)

    def test_rejects_nonpositive_value(self, tmp_path):
        _save_dataset(tmp_path, np.array([[1.0, 0.0], [0.0, 1.0]]))
        _replace(tmp_path, "data", np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=r"matrix\.data\.npy: stored values must be > 0"):
            _read(tmp_path)

    def test_rejects_count_mismatch(self, tmp_path):
        _save_dataset(tmp_path, np.array([[1.0, 0.0], [0.0, 1.0]]))
        _replace(tmp_path, "data", np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match=r"matrix\.indptr\.npy: ends at 2 for 2 indices and 3"):
            _read(tmp_path)

    def test_rejects_decreasing_indptr(self, tmp_path):
        _save_dataset(tmp_path, np.array([[1.0, 0.0], [0.0, 1.0]]))
        # unsigned, so a naive np.diff would wrap round instead of going negative
        _replace(tmp_path, "indptr", np.array([0, 2, 1], dtype=np.uint64))
        with pytest.raises(ValueError, match="never decrease"):
            _read(tmp_path)

    @pytest.mark.parametrize(
        "part, array",
        [
            ("indptr", np.array([0.0, 1.0, 2.0])),
            ("data", np.array([1, 1])),
            ("data", np.array([[1.0, 1.0]])),
        ],
    )
    def test_rejects_wrong_dtype_or_rank(self, tmp_path, part, array):
        _save_dataset(tmp_path, np.array([[1.0, 0.0], [0.0, 1.0]]))
        _replace(tmp_path, part, array)
        with pytest.raises(ValueError, match=rf"{MATRIX_FILENAMES[part]}: expected a 1-D"):
            _read(tmp_path)

    @pytest.mark.parametrize("content", [b"", b"2 2 2\n0 1 1.5\n", b"PK\x03\x04zip"])
    def test_unreadable_file_is_value_error_naming_it(self, tmp_path, content):
        _save_dataset(tmp_path, np.array([[1.0, 0.0], [0.0, 1.0]]))
        (tmp_path / MATRIX_FILENAMES["indices"]).write_bytes(content)
        with pytest.raises(ValueError, match=r"matrix\.indices\.npy: not a readable \.npy array"):
            _read(tmp_path)

    def test_header_that_does_not_parse_is_named_as_such(self, tmp_path):
        _save_dataset(tmp_path, np.array([[1.0, 0.0], [0.0, 1.0]]))
        path = tmp_path / MATRIX_FILENAMES["indices"]
        # numpy retries this header through its tokenizer, whose error must not be relayed
        path.write_bytes(path.read_bytes().replace(b"}", b"(", 1))
        message = f"{path}: not a readable .npy array: its header does not parse"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            _read(tmp_path)


    def test_header_naming_more_memory_than_there_is_is_named_as_such(self, tmp_path):
        _save_dataset(tmp_path, np.array([[1.0, 0.0], [0.0, 1.0]]))
        path = tmp_path / MATRIX_FILENAMES["indices"]
        # the shape grows by 13 characters and the header's padding shrinks by as many
        blob = path.read_bytes().replace(b"'shape': (", b"'shape': (99999999999, ", 1)
        path.write_bytes(blob.replace(b" " * 13 + b"\n", b"\n", 1))
        message = f"{path}: not a readable .npy array: Unable to allocate"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            _read(tmp_path)

class TestOperandForm:
    """``read_matrix`` is where V's form is chosen; fit multiplies the form it gets."""

    @pytest.mark.parametrize("scipy_imports", [True, False], ids=["scipy", "scipy_blocked"])
    def test_csr_up_to_the_density_cutoff_dense_above(self, tmp_path, monkeypatch, scipy_imports):
        n, t = 10, 20
        cutoff = SPARSE_DENSITY_MAX * n * t
        assert cutoff == int(cutoff)
        if scipy_imports:
            pytest.importorskip("scipy.sparse")
        else:
            monkeypatch.setitem(sys.modules, "scipy.sparse", None)
        for stored in (int(cutoff), int(cutoff) + 1):
            V = np.zeros(n * t)
            V[:stored] = np.arange(1.0, stored + 1)
            V = V.reshape(n, t)
            got = _read(_save_dataset(tmp_path / str(stored), V))
            csr = scipy_imports and stored <= cutoff
            assert getattr(got, "format", None) == ("csr" if csr else None)
            assert (got.toarray() if csr else got).tobytes() == V.tobytes()


class TestReadDataset:
    def test_vocabulary_index_is_built_on_first_use(self, tmp_path):
        _save_dataset(tmp_path, np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]))
        ds = read_dataset(tmp_path)
        assert "index" not in vars(ds.vocabulary)  # reading the dataset does not build it
        assert ds.vocabulary.index == {"t0": 0, "t1": 1, "t2": 2}
        assert ds.vocabulary.index is ds.vocabulary.index  # built once

    def test_label_sets_are_label_indices(self, tmp_path):
        labels = [["b"], [], ["a", "c"], ["c"]]
        _write(tmp_path, csr_parts(np.eye(4)), list("wxyz"), list("pqrs"),
               build_label_table(labels), {})
        table = read_dataset(tmp_path).label_table
        assert table.labels == ("a", "b", "c")
        assert table.doc_labels == (frozenset({1}), frozenset(), frozenset({0, 2}), frozenset({2}))
