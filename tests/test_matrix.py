"""Dense primitive and dense CSV tests."""

import numpy as np
import pytest

from tsnmf.errors import ShapeError
from tsnmf.matrix import frobenius_sq, l2_normalize_rows, read_dense_csv, write_dense_csv


class TestFrobeniusSq:
    def test_zero_matrix(self):
        assert frobenius_sq(np.zeros((3, 2))) == 0.0

    def test_known_value(self):
        assert frobenius_sq([[1, 2], [3, 4]]) == 30.0

    def test_transpose_symmetry(self):
        a = np.random.default_rng(2).random((4, 6))
        assert frobenius_sq(a) == pytest.approx(frobenius_sq(a.T), rel=1e-15)

    def test_zero_iff_equal(self):
        a = np.random.default_rng(3).random((5, 5))
        assert frobenius_sq(a - a) == 0.0
        b = a.copy()
        b[2, 3] += 1e-9
        assert frobenius_sq(a - b) > 0.0

    def test_equals_trace_of_gram(self):
        a = np.random.default_rng(4).random((4, 5))
        assert frobenius_sq(a) == pytest.approx(np.trace(a.T @ a), rel=1e-13)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize_rows([[3, 4]]), [[0.6, 0.8]], rtol=1e-15)

    def test_zero_row_preserved(self):
        np.testing.assert_array_equal(l2_normalize_rows([[0.0, 0.0]]), [[0.0, 0.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        a = rng.random((6, 8))
        a[2] = 0.0
        once = l2_normalize_rows(a)
        twice = l2_normalize_rows(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_unit_norms(self):
        a = np.random.default_rng(6).random((5, 7)) + 0.1
        norms = np.linalg.norm(l2_normalize_rows(a), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


class TestDenseCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        a = rng.random((3, 4)) * 1e-3
        path = tmp_path / "m.csv"
        write_dense_csv(a, path)
        np.testing.assert_array_equal(read_dense_csv(path), a)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ShapeError, match="ragged"):
            read_dense_csv(path)
