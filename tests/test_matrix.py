"""Dense primitive, dense CSV and artifact writer tests."""

import ast
import os
import re
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest

import tsnmf
from tsnmf.matrix import (
    csr_parts,
    dense_from_csr,
    frobenius_sq,
    l2_normalize_rows,
    read_dense_csv,
    read_json,
    write_csv,
    write_dense_csv,
    write_file,
    write_json,
)


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
        # smallest subnormal, largest float, negative zero, and values whose
        # repr switches between positional and exponent notation
        edges = np.array([[5e-324, 1.7976931348623157e308, -0.0, 1e16, 1e-5]])
        for m, name in ((a, "m.csv"), (edges, "edges.csv"), (edges.T, "column.csv")):
            path = tmp_path / name
            write_dense_csv(m, path)
            back = read_dense_csv(path)
            assert back.shape == m.shape
            assert back.tobytes() == m.tobytes()  # bitwise, so -0.0 keeps its sign

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*columns"):
            read_dense_csv(path)

    def test_unparsable_value_names_the_file(self, tmp_path):
        path = tmp_path / "W.csv"
        path.write_text("1.0,2.0\n3.0,x\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*'x'"):
            read_dense_csv(path)

    @pytest.mark.parametrize("content", ["", "\n"], ids=["empty", "newline"])
    def test_rejects_a_file_without_values(self, tmp_path, content):
        path = tmp_path / "W.csv"
        path.write_text(content)
        # numpy warns about such a file; the reader raises instead, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"empty dense matrix file: {path}")):
                read_dense_csv(path)

    def test_bytes_are_repr_of_each_float(self, tmp_path):
        a = np.array([[0.1, -0.0, 1e-300], [2.0 / 3.0, 5e20, 1.0]])
        write_dense_csv(a, tmp_path / "m.csv")
        expected = "\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n"
        assert (tmp_path / "m.csv").read_text() == expected


class TestDenseFromCsr:
    def test_inverse_of_csr_parts(self):
        a = np.random.default_rng(11).random((7, 5))
        a[a < 0.6] = 0.0
        a[3] = 0.0
        a[:, 1] = 0.0
        back = dense_from_csr(*csr_parts(a), a.shape)
        assert back.dtype == np.float64
        assert back.tobytes() == a.tobytes()

    def test_no_entries(self):
        back = dense_from_csr(*csr_parts(np.zeros((2, 3))), (2, 3))
        np.testing.assert_array_equal(back, np.zeros((2, 3)))


class TestWriteFile:
    def test_creates_directories_and_replaces_old_bytes(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        write_file(path, "first\n")
        write_file(path, b"second\n")
        assert path.read_bytes() == b"second\n"
        assert sorted(p.name for p in path.parent.iterdir()) == ["out.txt"]

    def test_text_is_utf8(self, tmp_path):
        write_file(tmp_path / "t.csv", "caf\u00e9\n")
        assert (tmp_path / "t.csv").read_bytes() == "caf\u00e9\n".encode("utf-8")

    @pytest.mark.parametrize("failure", ["write", "replace", "interrupt"])
    def test_failed_write_keeps_old_bytes_and_no_temp_file(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        content = "new\n"
        if failure == "write":
            content = 12345  # neither str nor bytes: fails once the temp file is open
        else:
            error = OSError("no space left") if failure == "replace" else KeyboardInterrupt()

            def refuse(src, dst):
                assert Path(src).read_text() == "new\n"  # the temp file was complete
                raise error

            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises((TypeError, OSError, KeyboardInterrupt)):
            write_file(path, content)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_mode_equals_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain", "w") as fh:
                fh.write("x")
            write_file(tmp_path / "atomic", "x")
        finally:
            os.umask(old)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("plain", "atomic")]
        assert modes == [0o666 & ~umask] * 2

    def test_json_layout(self, tmp_path):
        write_json(tmp_path / "x.json", {"b": 1.5, "a": [None, True]})
        assert (tmp_path / "x.json").read_text() == (
            '{\n  "a": [\n    null,\n    true\n  ],\n  "b": 1.5\n}\n'
        )
        assert read_json(tmp_path / "x.json") == {"a": [None, True], "b": 1.5}

    def test_csv_dialect(self, tmp_path):
        rows = [("a", "b", "c", "d"), (None, 0.1, 3, "x,y"), (1e-20, "", 2, -0.0)]
        write_csv(tmp_path / "x.csv", rows)
        assert (tmp_path / "x.csv").read_text() == 'a,b,c,d\n,0.1,3,"x,y"\n1e-20,,2,-0.0\n'

    @pytest.mark.parametrize(
        "content, message",
        [
            ('{"a": ', "not valid JSON"),
            ("[1, 2]", "must be a JSON object"),
            (b"\xff", "not valid JSON"),
        ],
    )
    def test_read_json_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "model.json"
        write_file(path, content)
        with pytest.raises(ValueError, match=rf"{path}: {message}"):
            read_json(path)


WRITE_METHODS = {"write_text", "write_bytes", "tofile"}
NUMPY_WRITERS = {"save", "savetxt", "savez", "savez_compressed"}


def _writes_file(call: ast.Call) -> bool:
    """Whether ``call`` can create or change a file's bytes."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in WRITE_METHODS:
        return True
    if name in NUMPY_WRITERS:
        return isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True  # os.open takes flags; treat any use as a write
    # Path(...).open(mode) takes the mode first, open(file, mode) second
    method = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) != "io"
    position = 0 if method else 1
    mode = call.args[position] if len(call.args) > position else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and not set("wax+") & set(str(mode.value)))


def _write_sites(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of every file-writing call in ``source``."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _writes_file(node):
            sites.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return sites


def test_write_detector_finds_every_kind_of_write():
    source = "\n".join(
        [
            "def f(p, a, m):",
            "    Path(p).write_text('x')",
            "    p.write_bytes(b'x')",
            "    np.save(p, a)",
            "    numpy.savetxt(p, a)",
            "    a.tofile(p)",
            "    open(p, 'a')",
            "    open(p, mode='x')",
            "    p.open('r+')",
            "    open(p, m)",
            "    os.open(p, 0)",
            "    open(p)",
            "    open(p, 'rb')",
            "    p.read_text()",
            "    np.load(p)",
        ]
    )
    assert [line for _, line in _write_sites(source)] == list(range(2, 12))


def test_write_file_is_the_only_write_site():
    src = Path(tsnmf.__file__).parent
    sites = [
        (path.name, function)
        for path in sorted(src.glob("*.py"))
        for function, _ in _write_sites(path.read_text())
    ]
    assert sites == [("matrix.py", "write_file")]
