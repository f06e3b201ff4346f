"""Dataset directory tests: the CSR matrix files and their load checks."""

import numpy as np
import pytest

from tsnmf.dataio import MATRIX_FILENAMES, _read_matrix, _write, _write_matrix, read_dataset
from tsnmf.matrix import csr_parts, dense_from_csr


def _save_dataset(path, V):
    n, t = V.shape
    _write(path, csr_parts(V), [f"d{i}" for i in range(n)], [f"t{j}" for j in range(t)], [[]] * n, {})
    return path


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
        _write_matrix(tmp_path, *csr_parts(a))
        back = dense_from_csr(*_read_matrix(tmp_path, *a.shape), a.shape)
        assert back.dtype == np.float64
        assert back.tobytes() == a.tobytes()

    def test_file_round_trip_is_exact(self, tmp_path):
        a = np.random.default_rng(9).random((5, 3))
        a[a < 0.4] = 0.0
        back = read_dataset(_save_dataset(tmp_path / "first", a)).V
        assert back.tobytes() == a.tobytes()
        _save_dataset(tmp_path / "again", back)  # a rewrite of what was read gives the same bytes
        for name in MATRIX_FILENAMES.values():
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()

    def test_dense_matrix_built_once_and_parts_released(self, tmp_path):
        a = np.array([[0.0, 1.5, 0.0], [2.0, 0.0, 0.5]])
        dataset = read_dataset(_save_dataset(tmp_path, a))
        assert dataset.n_docs == 2 and dataset.csr is not None
        V = dataset.V
        assert V.tobytes() == a.tobytes()
        assert dataset.V is V and dataset.csr is None

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
            read_dataset(tmp_path)

    def test_rejects_duplicate_entry(self, tmp_path):
        _save_dataset(tmp_path, np.array([[1.0, 2.0], [0.0, 1.0]]))
        _replace(tmp_path, "indices", np.array([0, 0, 1]))
        with pytest.raises(ValueError, match=r"matrix\.indices\.npy: columns must strictly increase"):
            read_dataset(tmp_path)

    def test_rejects_nonpositive_value(self, tmp_path):
        _save_dataset(tmp_path, np.array([[1.0, 0.0], [0.0, 1.0]]))
        _replace(tmp_path, "data", np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=r"matrix\.data\.npy: stored values must be > 0"):
            read_dataset(tmp_path)

    def test_rejects_count_mismatch(self, tmp_path):
        _save_dataset(tmp_path, np.array([[1.0, 0.0], [0.0, 1.0]]))
        _replace(tmp_path, "data", np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match=r"matrix\.indptr\.npy: ends at 2 for 2 indices and 3"):
            read_dataset(tmp_path)

    def test_rejects_decreasing_indptr(self, tmp_path):
        _save_dataset(tmp_path, np.array([[1.0, 0.0], [0.0, 1.0]]))
        # unsigned, so a naive np.diff would wrap round instead of going negative
        _replace(tmp_path, "indptr", np.array([0, 2, 1], dtype=np.uint64))
        with pytest.raises(ValueError, match="never decrease"):
            read_dataset(tmp_path)

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
            read_dataset(tmp_path)

    @pytest.mark.parametrize("content", [b"", b"2 2 2\n0 1 1.5\n", b"PK\x03\x04zip"])
    def test_unreadable_file_is_value_error_naming_it(self, tmp_path, content):
        _save_dataset(tmp_path, np.array([[1.0, 0.0], [0.0, 1.0]]))
        (tmp_path / MATRIX_FILENAMES["indices"]).write_bytes(content)
        with pytest.raises(ValueError, match=r"matrix\.indices\.npy: not a readable \.npy array"):
            read_dataset(tmp_path)
