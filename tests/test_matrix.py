"""Dense primitive, .npy, dense CSV, JSON reader and artifact writer tests."""

import ast
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest

import tsnmf
from tsnmf import cli, errors, experiment, matrix
from tsnmf.errors import ShapeError
from tsnmf.matrix import (
    as_dense,
    check_distinct,
    csr_parts,
    dense_from_csr,
    parse_json,
    read_json,
    read_npy,
    write_csv,
    write_dense_csv,
    write_file,
    write_json,
    write_npy,
)


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
            back = np.loadtxt(path, delimiter=",", ndmin=2)
            assert back.shape == m.shape
            assert back.tobytes() == m.tobytes()  # bitwise, so -0.0 keeps its sign

    def test_bytes_are_repr_of_each_float(self, tmp_path):
        a = np.array([[0.1, -0.0, 1e-300], [2.0 / 3.0, 5e20, 1.0]])
        write_dense_csv(a, tmp_path / "m.csv")
        expected = "\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n"
        assert (tmp_path / "m.csv").read_text() == expected

    @pytest.mark.parametrize("block", [1, 5, matrix.CSV_BLOCK_VALUES], ids=["row", "rows", "default"])
    def test_streamed_bytes_equal_the_whole_text_join(self, tmp_path, monkeypatch, block):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis.extra.numpy import array_shapes, arrays

        monkeypatch.setattr(matrix, "CSV_BLOCK_VALUES", block)
        values = hypothesis.strategies.sampled_from(
            [0.0, -0.0, 5e-324, 1e-5, 0.1, 2.0 / 3.0, 1e16, 1.7976931348623157e308, np.nan, np.inf])
        edges = np.array([[0.0, 5e-324, 1e-5, 1e16, np.nan, np.inf]])
        path = tmp_path / "m.csv"

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1,
                                                          max_side=7), elements=values))
        @hypothesis.example(edges)  # one row
        @hypothesis.example(edges.T)  # one column
        def check(a):
            write_dense_csv(a, path)
            # the export as one text, before it was streamed by row blocks
            oracle = "\n".join([",".join(map(repr, row)) for row in a.tolist()]) + "\n"
            assert path.read_bytes() == oracle.encode()

        check()


class TestNpy:
    def test_round_trip_writes_np_save_bytes(self, tmp_path):
        edges = np.array([[5e-324, 1.7976931348623157e308, -0.0], [1e16, 1e-5, 0.1]])
        for a, ndim, kind in ((edges, 2, np.floating), (np.arange(4), 1, np.integer)):
            write_npy(tmp_path / "a.npy", a)
            np.save(tmp_path / "saved.npy", a, allow_pickle=False)
            assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "saved.npy").read_bytes()
            back = read_npy(tmp_path / "a.npy", ndim, kind)
            assert back.dtype == a.dtype and back.tobytes() == a.tobytes()

    @pytest.mark.parametrize(
        "array, message",
        [
            (np.zeros(3), "expected a 2-D floating array, got float64 with shape (3,)"),
            (np.zeros((2, 2), dtype=np.int64), "expected a 2-D floating array, got int64"),
            (np.array([[None]]), "not a readable .npy array: Object arrays cannot be loaded"),
        ],
        ids=["one_d", "integer", "object"],
    )
    def test_wrong_array_names_the_file(self, tmp_path, array, message):
        path = tmp_path / "W.npy"
        np.save(path, array, allow_pickle=True)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            read_npy(path, 2, np.floating)


@pytest.mark.parametrize("shape", [(3,), ()], ids=["one_d", "scalar"])
def test_as_dense_rejects_other_than_2d_naming_the_array(shape):
    with pytest.raises(ShapeError, match=rf"^W must be 2-D, got ndim={len(shape)}$"):
        as_dense(np.ones(shape), "W")


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

    @pytest.mark.parametrize("block", [8, matrix.CSR_BLOCK_BYTES], ids=["row", "default"])
    def test_parts_match_the_nonzero_oracle(self, monkeypatch, block):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis.extra.numpy import array_shapes, arrays

        monkeypatch.setattr(matrix, "CSR_BLOCK_BYTES", block)  # 8: one row per block
        values = hypothesis.strategies.sampled_from(
            [0.0, -0.0, 0.0, 1.5, -2.0, 5e-324, np.nan, np.inf, -np.inf])  # zeros weigh double

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                          max_side=7), elements=values))
        @hypothesis.example(np.zeros((0, 4)))
        @hypothesis.example(np.zeros((4, 0)))
        @hypothesis.example(np.array([[0.0, -0.0], [np.nan, 0.0], [0.0, 0.0], [-np.inf, 1.0]]))
        def check(a):
            indptr, indices, data = csr_parts(a)
            rows, cols = np.nonzero(a)  # -0.0 is zero; NaN and Inf are not
            assert indptr.dtype == indices.dtype == np.int64 and data.dtype == np.float64
            assert indptr.tolist() == np.searchsorted(rows, np.arange(a.shape[0] + 1)).tolist()
            assert indices.tolist() == cols.tolist()
            assert data.tobytes() == a[rows, cols].tobytes()
            back = dense_from_csr(indptr, indices, data, a.shape)
            # every entry comes back bit for bit, but a -0.0, which is not stored, as 0.0
            assert back.tobytes() == np.where(a == 0.0, 0.0, a).tobytes()

        check()


# the exception each kind of failed write raises
WRITE_FAILURES = {
    "write": TypeError,
    "replace": OSError,
    "interrupt": KeyboardInterrupt,
    "interrupt_mid_write": KeyboardInterrupt,
}


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

    @pytest.mark.parametrize("failure", sorted(WRITE_FAILURES))
    def test_failed_write_keeps_old_bytes_and_no_temp_file(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        content = "new\n"
        if failure == "write":
            content = 12345  # neither str nor bytes: fails once the temp file is open
        elif failure == "interrupt_mid_write":

            def content(fh):
                fh.write(b"ne")
                raise KeyboardInterrupt
        else:
            error = OSError("no space left") if failure == "replace" else KeyboardInterrupt()

            def refuse(src, dst):
                assert Path(src).read_text() == "new\n"  # the temp file was complete
                raise error

            monkeypatch.setattr(os, "replace", refuse)
        raised = WRITE_FAILURES[failure]
        with pytest.raises(raised) as info:
            write_file(path, content)
        assert type(info.value) is raised  # only an OSError is rewrapped
        if raised is OSError:
            assert str(info.value) == f"cannot write output: {path}: no space left"
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("blocked", ["parent_is_a_file", "target_is_a_directory"])
    def test_unwritable_path_raises_oserror_naming_it(self, tmp_path, blocked):
        if blocked == "parent_is_a_file":
            (tmp_path / "a").write_text("keep me\n")
            path = tmp_path / "a" / "out.csv"
        else:
            path = tmp_path / "out.csv"
            path.mkdir()
        with pytest.raises(OSError) as info:
            write_file(path, "new\n")
        assert str(info.value).startswith(f"cannot write output: {path}: ")
        assert not list(tmp_path.rglob("*.tmp"))

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


@pytest.mark.parametrize(
    "value, types, ok",
    [
        (1, (int,), True),
        (True, (int,), False),  # json gives bool for true, never int
        (1.0, (int,), False),
        (1, (int, float), True),
        (None, (int, type(None)), True),
        ([1, 2], [(int,)], True),
        ([], [(int,)], True),
        ([1, True], [(int,)], False),
        (1, [(int,)], False),
        ([["a"], []], [[(str,)]], True),
        ([["a"], "b"], [[(str,)]], False),
        ([["a", 1]], [[(str,)]], False),
        # a number field takes an integer only if float() holds it; 2**1024 - 2**970
        # is the least integer that rounds up to 2**1024
        (10**400, (int, float), False),
        (-(10**400), (int, float, type(None)), False),
        ([0.5, 10**400], [(int, float)], False),
        (2**1024 - 2**970, (int, float), False),
        (2**1024 - 2**970 - 1, (int, float), True),
        (10**400, (int,), True),
        ([10**400], [(int,)], True),
    ],
)
def test_json_fields_have_exact_json_types(tmp_path, value, types, ok):
    path = tmp_path / "f.json"
    write_json(path, {"k": value})
    fields = {"k": (types, "what")}
    if ok:
        assert read_json(path, fields) == {"k": value}
    else:
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: 'k' must be what$"):
            read_json(path, fields)


def test_json_field_absent_fails_unless_optional():
    fields = {"k": ((int,), "an integer")}
    assert parse_json(b"{}", "f.json: line 3", fields, optional=("k",)) == {}
    with pytest.raises(ValueError, match=r"^f\.json: line 3: 'k' must be an integer$"):
        parse_json(b"{}", "f.json: line 3", fields)


def test_check_distinct_names_the_first_entry_seen_twice():
    check_distinct("f.json: id", ["a", "b"])
    with pytest.raises(ValueError, match=r"^f\.json: id 'c' appears more than once$"):
        check_distinct("f.json: id", ["b", "c", "c", "b"])


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


def test_matrix_is_the_only_json_parser():
    """Every JSON input is parsed by ``matrix.parse_json``; no other module calls json.load(s)."""
    src = Path(tsnmf.__file__).parent
    parsers = {
        path.name
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("load", "loads") and getattr(node.func.value, "id", None) == "json"
        or isinstance(node, ast.ImportFrom) and node.module == "json"
    }
    assert parsers == {"matrix.py"}


def _names_read(node) -> set[str]:
    """Every name that ``node`` reads, bare or as an attribute."""
    nodes = list(ast.walk(node))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def _bound(stmt) -> list[str]:
    """The module-level names that the top-level statement ``stmt`` binds, imports aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [n.id for target in filter(None, targets) for n in ast.walk(target)
            if isinstance(n, ast.Name)]


def test_no_unused_import_or_private_name():
    """Every module-level import is used in its module; every private name somewhere else too.

    ``__init__.py`` imports to re-export, so its imports are exempt.  A private
    name counts as used when any statement of the package but its own definition reads it.
    """
    modules = {path.name: ast.parse(path.read_text())
               for path in sorted(Path(tsnmf.__file__).parent.glob("*.py"))}
    unused_imports = [
        (module, name)
        for module, tree in modules.items() if module != "__init__.py"
        for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))
        and getattr(stmt, "module", None) != "__future__"
        for name in ((alias.asname or alias.name).split(".")[0] for alias in stmt.names)
        if name not in _names_read(tree)
    ]
    assert unused_imports == []
    statements = [(module, stmt, _names_read(stmt))
                  for module, tree in modules.items() for stmt in tree.body]
    unread = [
        (module, name) for module, stmt, _ in statements for name in _bound(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in read for _, other, read in statements if other is not stmt)
    ]
    assert unread == []


def test_cli_maps_errors_to_exit_codes_in_main_only():
    """One exit-code map in ``cli.main``; a sweep cell catches the errors it maps to exit 2.

    Only ``main`` calls ``_fail``, so no command gives an error its own exit code.
    A sweep config's own checks raise again with the config's file name.
    """
    handlers, fail_calls = [], []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler):
            handlers.append((function, ast.unparse(node.type), node.body[-1]))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_fail":
            fail_calls.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    for module in ("cli.py", "experiment.py"):
        visit(ast.parse((Path(tsnmf.__file__).parent / module).read_text()), module)
    assert fail_calls and set(fail_calls) == {"main"}
    assert [(function, caught) for function, caught, _ in handlers] == [
        ("main", "NumericalFailureError"),
        ("main", "EmptyVocabularyError"),
        ("main", "INPUT_ERRORS"),
        ("main", "MemoryError"),  # a size the machine cannot allocate is an input error
        ("one_run", "Exception"),
        ("from_json", "ValueError"),
        ("run_batch", "INPUT_ERRORS"),  # a cell's supervision, kept for its turn
        ("run_batch", "INPUT_ERRORS"),  # a cell's record and score, or the error it kept
    ]
    last = handlers[4][2]
    assert isinstance(last, ast.Raise) and last.exc is None  # one_run cleans up and re-raises
    named = handlers[5][2]
    assert isinstance(named, ast.Raise) and ast.unparse(named.exc).startswith("ValueError(f'{path}: ")
    assert cli.INPUT_ERRORS is experiment.INPUT_ERRORS is errors.INPUT_ERRORS
