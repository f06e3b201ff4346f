"""Command-line contract tests: stages, file handoffs, exit codes."""

import csv
import io
import json
import signal
import subprocess
import time
from functools import cached_property
from importlib.util import find_spec
from pathlib import Path

import numpy as np
import pytest

from tsnmf import cli, dataio, experiment, matrix
from tsnmf.cli import build_parser, main
from tsnmf.dataio import MATRIX_FILENAMES, read_dataset, read_matrix, write_planted_instance
from tsnmf.experiment import (
    CELL_FILES,
    FIT_FILES,
    REPORT_FILES,
    SweepConfig,
    fit_config,
)
from tsnmf.factorization import FactorModel, FitConfig, FitTrace, fit, read_factor, save_model
from tsnmf.matrix import csr_parts, read_json, read_npy
from tsnmf.supervision import LabelTable
from tsnmf.synthetic import make_planted_instance

# arrays nested past the recursion limit, on which json.loads raises RecursionError
DEEP_JSON = "[" * 100_000


def _deep_json_error():
    with pytest.raises(RecursionError) as excinfo:
        json.loads(DEEP_JSON)
    return f"not valid JSON: {excinfo.value}"


DEEP_JSON_ERROR = _deep_json_error()


def _write_corpus(path, docs):
    lines = [json.dumps(d) for d in docs]
    path.write_text("\n".join(lines) + "\n")


def _small_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    body = "wheat corn harvest acreage yields " * 12
    _write_corpus(
        path,
        [
            {"id": "d1", "text": body + "wheat futures rally", "labels": ["grain"]},
            {"id": "d2", "text": body + "corn exports surge", "labels": ["grain", "trade"]},
            {"id": "d3", "text": "gold silver copper mining smelter " * 12, "labels": ["metal"]},
        ],
    )
    return path


def _write_dataset(out, V):
    """Write V as a dataset directory with one label per document, from two labels."""
    out.mkdir()
    for part, values in zip(("indptr", "indices", "data"), csr_parts(V)):
        np.save(out / MATRIX_FILENAMES[part], values, allow_pickle=False)
    meta = {
        "doc_ids": [f"d{i}" for i in range(V.shape[0])],
        "vocabulary": [f"t{j}" for j in range(V.shape[1])],
        "labels": ["a", "b"],
        "doc_labels": [["ab"[i % 2]] for i in range(V.shape[0])],
        "stats": {},
    }
    (out / "meta.json").write_text(json.dumps(meta))
    return out


def _sparse_dataset(tmp_path, n_docs=60, n_words=300):
    """Ingest documents of 6-11 distinct words out of ``n_words``: about 3 % dense."""
    rng = np.random.default_rng(0)
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = [f"x{a}{b}" for a in letters for b in letters][:n_words]
    corpus = tmp_path / "sparse.jsonl"
    _write_corpus(corpus, [
        {"id": f"d{i}", "labels": [f"l{i % 3}"],
         "text": " ".join(words[k] for k in rng.choice(n_words, rng.integers(6, 12), replace=False))}
        for i in range(n_docs)
    ])
    out = tmp_path / "sparse_data"
    assert main(["ingest", "--corpus", str(corpus), "--min-chars", "0", "--out", str(out)]) == 0
    return out


needs_scipy = pytest.mark.skipif(find_spec("scipy") is None, reason="the CSR path needs scipy")


def _synth_dataset(tmp_path, docs=30, terms=40, topics=3, seed=1):
    out = tmp_path / "data"
    rc = main(
        [
            "synth",
            "--docs", str(docs),
            "--terms", str(terms),
            "--topics", str(topics),
            "--seed", str(seed),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


class TestIngest:
    def test_happy_path(self, tmp_path, capsys):
        corpus = _small_corpus(tmp_path)
        out = tmp_path / "data"
        rc = main(["ingest", "--corpus", str(corpus), "--min-chars", "100", "--out", str(out)])
        assert rc == 0
        dataset = read_dataset(out)
        assert read_matrix(out, dataset).shape[0] == 3
        assert dataset.label_table.labels == ("grain", "metal", "trade")
        assert "ingested 3/3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "body, message",
        [
            ('{"id": "a", "text": "x", "labels": []}\n{"id": "b", "labels": []}\n',
             "line 2: 'text' must be a string"),
            ("[1, 2]\n", "line 1: must be a JSON object"),
            ("not json\n", "line 1: not valid JSON"),
            ('{"id": "\udcff", "text": "x", "labels": []}\n', "line 1: not valid JSON: 'utf-8' codec"),
            ('{"id": 3, "text": "x", "labels": []}\n', "line 1: 'id' must be a string"),
            ('{"id": "a", "text": null, "labels": []}\n', "line 1: 'text' must be a string"),
            ('{"id": "a", "text": "x", "labels": [1]}\n',
             "line 1: 'labels' must be an array of strings"),
            ('{"id": "a", "text": "x", "labels": "grain"}\n',
             "line 1: 'labels' must be an array of strings"),
            # a blank line is skipped, and still counted
            ('{"id": "a", "text": "x", "labels": []}\n \n{"id": "b", "labels": []}\n',
             "line 3: 'text' must be a string"),
            (DEEP_JSON + "\n", f"line 1: {DEEP_JSON_ERROR}"),
        ],
        ids=["missing_text", "array", "not_json", "not_utf8", "id_number", "text_null",
             "labels_numbers", "labels_string", "after_blank_line", "nested_too_deep"],
    )
    def test_malformed_line_exits_2_and_names_line(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(body, encoding="utf-8", errors="surrogateescape")  # U+DCFF: byte 0xff
        rc = main(["ingest", "--corpus", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [("--vocab-cap=0", "vocabulary cap must be >= 1, got 0"),
         ("--min-chars=-1", "min_chars must be >= 0, got -1")],
    )
    def test_bad_setting_exits_2_before_reading_the_corpus(self, tmp_path, capsys, setting, message):
        # line 1 is invalid JSON: naming it would show that the corpus was read first
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        rc = main(["ingest", "--corpus", str(path), setting, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "line 1" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, min_chars",
        [(None, "100000"), ("The and OF with ab x from THAT this", "0")],
        ids=["every_document_too_short", "every_term_a_stopword_or_too_short"],
    )
    def test_filter_dropping_everything_exits_3(self, tmp_path, capsys, text, min_chars):
        corpus = _small_corpus(tmp_path)
        if text is not None:  # one document, kept, of which no term is
            _write_corpus(corpus, [{"id": "s", "text": text, "labels": []}])
        out = tmp_path / "o"
        assert main(["ingest", "--corpus", str(corpus), "--min-chars", min_chars, "--out", str(out)]) == 3
        assert "vocabulary is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_vocab_cap_respected(self, tmp_path):
        corpus = _small_corpus(tmp_path)
        out = tmp_path / "data"
        rc = main(
            ["ingest", "--corpus", str(corpus), "--min-chars", "100", "--vocab-cap", "4", "--out", str(out)]
        )
        assert rc == 0
        assert len(read_dataset(out).vocabulary) <= 4

    def test_stopword_override_flag(self, tmp_path):
        corpus = _small_corpus(tmp_path)
        stop = tmp_path / "stop.txt"
        stop.write_text("wheat\n")
        out = tmp_path / "data"
        rc = main(
            [
                "ingest", "--corpus", str(corpus), "--min-chars", "100",
                "--stopwords", str(stop), "--out", str(out),
            ]
        )
        assert rc == 0
        assert "wheat" not in read_dataset(out).vocabulary.terms

    def test_stopwords_environment_variable_is_not_read(self, tmp_path, monkeypatch):
        corpus = _small_corpus(tmp_path)
        stop = tmp_path / "stop.txt"
        stop.write_text("corn\n")
        argv = ["ingest", "--corpus", str(corpus), "--min-chars", "100", "--out"]
        assert main([*argv, str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("TSNMF_STOPWORDS", str(stop))
        assert main([*argv, str(tmp_path / "env")]) == 0
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "env").iterdir())
        for name in names:
            assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
        assert "corn" in read_dataset(tmp_path / "env").vocabulary.terms


class TestFit:
    def test_rate_zero_equals_plain_nmf(self, tmp_path):
        data = _synth_dataset(tmp_path)
        model_dir = tmp_path / "model"
        rc = main(
            ["fit", "--data", str(data), "--rate", "0", "--seed", "5", "--out", str(model_dir)]
        )
        assert rc == 0
        dataset = read_dataset(data)
        ones = np.ones((dataset.n_docs, 3))
        expected, _ = fit(read_matrix(data, dataset), ones, FitConfig(d=3, seed=5))
        np.testing.assert_array_equal(read_factor(model_dir, "W"), expected.W)
        np.testing.assert_array_equal(read_factor(model_dir, "H"), expected.H)
        assert read_json(model_dir / "model.json")["stop_reason"] in ("converged", "max_iter")

    def test_same_seed_gives_byte_identical_outputs(self, tmp_path):
        data = _synth_dataset(tmp_path)
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        args = ["fit", "--data", str(data), "--rate", "0.4", "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in FIT_FILES:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_trace_csv_non_increasing(self, tmp_path):
        data = _synth_dataset(tmp_path)
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(data), "--rate", "0.5", "--out", str(model_dir)]) == 0
        rows = (model_dir / "trace.csv").read_text().strip().splitlines()[1:]
        losses = np.array([float(r.split(",")[1]) for r in rows])
        assert (losses[1:] <= losses[:-1] * (1 + 1e-10)).all()

    def test_supervision_record_replays_a_sampled_fit(self, tmp_path):
        data = _synth_dataset(tmp_path)
        m1, m2 = tmp_path / "m1", tmp_path / "m2"
        args = ["fit", "--data", str(data), "--weighted", "--max-iter", "30"]
        assert main([*args, "--rate", "0.4", "--seed", "3", "--out", str(m1)]) == 0
        # the record's ids and seed give the fit; its rate is recorded again
        assert main([*args, "--supervision", str(m1 / "supervision.json"), "--out", str(m2)]) == 0
        assert json.loads((m1 / "supervision.json").read_text())["rate"] == 0.4
        for name in FIT_FILES:
            assert (m1 / name).read_bytes() == (m2 / name).read_bytes(), name

    def test_rate_only_spec_exits_2_naming_supervised_ids(self, tmp_path, capsys):
        data = _synth_dataset(tmp_path)
        spec = tmp_path / "sup.json"
        spec.write_text(json.dumps({"rate": 0.5, "seed": 9}))
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(data), "--supervision", str(spec), "--out", str(model_dir)]) == 2
        assert "'supervised_ids'" in capsys.readouterr().err
        assert not model_dir.exists()

    def test_failed_supervision_removes_the_earlier_run(self, tmp_path, capsys):
        data = _synth_dataset(tmp_path)
        spec = tmp_path / "sup.json"
        spec.write_text(json.dumps({"supervised_ids": ["doc00", "nodoc"]}))
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(data), "--out", str(model_dir)]) == 0
        assert sorted(p.name for p in model_dir.iterdir()) == sorted(FIT_FILES)
        capsys.readouterr()
        assert main(["fit", "--data", str(data), "--supervision", str(spec), "--out", str(model_dir)]) == 2
        assert "supervised_ids not in dataset: ['nodoc']" in capsys.readouterr().err
        # as a sweep cell whose supervision fails, the model directory keeps no file of either run
        assert list(model_dir.iterdir()) == []

    def test_supervision_spec_is_read_as_utf8_under_an_ascii_locale(self, tmp_path, run_python):
        data = _synth_dataset(tmp_path)
        spec = tmp_path / "spec.json"
        info = {"supervised_ids": list(read_dataset(data).doc_ids[:2]), "note": "caf\u00e9"}
        spec.write_text(json.dumps(info, ensure_ascii=False), encoding="utf-8")
        # the C locale without coercion or UTF-8 mode: the locale's encoding is ASCII
        env = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        argv = ["fit", "--data", str(data), "--supervision", str(spec), "--out", str(tmp_path / "m")]
        proc = run_python(["-m", "tsnmf.cli", *argv], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
        assert proc.returncode == 0, proc.stderr
        assert read_json(tmp_path / "m" / "supervision.json")["supervised_ids"] == ["doc00", "doc01"]

    def test_supervision_spec_file_with_explicit_ids(self, tmp_path):
        data = _synth_dataset(tmp_path)
        dataset = read_dataset(data)
        spec = tmp_path / "sup.json"
        spec.write_text(json.dumps({"supervised_ids": list(dataset.doc_ids[:5])}))
        model_dir = tmp_path / "model"
        rc = main(
            ["fit", "--data", str(data), "--supervision", str(spec), "--out", str(model_dir)]
        )
        assert rc == 0
        info = json.loads((model_dir / "supervision.json").read_text())
        assert info["supervised_ids"] == sorted(dataset.doc_ids[:5])

    def test_weighted_flag(self, tmp_path):
        data = _synth_dataset(tmp_path)
        model_dir = tmp_path / "model"
        rc = main(
            ["fit", "--data", str(data), "--rate", "0.5", "--weighted", "--out", str(model_dir)]
        )
        assert rc == 0
        header = json.loads((model_dir / "model.json").read_text())
        assert header["objective"] == "row_weighted_sse"

    def test_numerical_failure_exits_4_with_trace(self, tmp_path, capsys):
        # hand-build a dataset whose matrix contains an Inf
        out = tmp_path / "data"
        out.mkdir()
        csr = {"indptr": [0, 1, 2], "indices": [0, 1], "data": [float("inf"), 1.0]}
        for part, values in csr.items():
            np.save(out / MATRIX_FILENAMES[part], np.array(values), allow_pickle=False)
        (out / "meta.json").write_text(
            json.dumps(
                {
                    "doc_ids": ["a", "b"],
                    "vocabulary": ["t0", "t1"],
                    "labels": ["x"],
                    "doc_labels": [["x"], ["x"]],
                    "stats": {},
                }
            )
        )
        model_dir = tmp_path / "model"
        rc = main(["fit", "--data", str(out), "--topics", "1", "--out", str(model_dir)])
        assert rc == 4
        assert (model_dir / "trace.csv").exists()

    def test_numerical_failure_removes_the_earlier_run(self, tmp_path):
        data = _synth_dataset(tmp_path)
        model_dir = tmp_path / "model"
        args = ["fit", "--data", str(data), "--rate", "0.5", "--out", str(model_dir)]
        assert main(args) == 0
        assert sorted(p.name for p in model_dir.iterdir()) == sorted(FIT_FILES)
        _rewrite(data, "data", _set(0, np.inf))
        assert main(args) == 4
        # the trace of the failed run alone: no model.json, W, H or supervision of the first
        assert [p.name for p in model_dir.iterdir()] == ["trace.csv"]
        assert (model_dir / "trace.csv").read_text().splitlines()[1] in ("0,inf", "0,nan")

    @needs_scipy
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_sparse_data_exits_4(self, tmp_path, bad):
        V = np.zeros((20, 30))
        V[np.arange(20), np.arange(20)] = 1.0
        V[3, 3] = bad
        data = _write_dataset(tmp_path / "data", V)
        # 3 % dense: read_matrix gives the CSR operand, and the fit takes the CSR path
        V = read_matrix(data, read_dataset(data))
        assert V.format == "csr" and V.nnz == 20
        model_dir = tmp_path / "model"
        rc = main(["fit", "--data", str(data), "--topics", "2", "--out", str(model_dir)])
        assert rc == 4
        assert (model_dir / "trace.csv").exists()

    @pytest.mark.parametrize(
        "spec",
        [{"supervised_ids": 5}, {"supervised_ids": [], "seed": None},
         {"supervised_ids": [], "seed": -5}, {"supervised_ids": [], "seed": "x"},
         {"supervised_ids": [], "seed": True}, {"supervised_ids": [], "rate": "0.5"},
         {"supervised_ids": [], "rate": float("nan")}, {"supervised_ids": [], "rate": 7},
         DEEP_JSON],
        ids=["ids_int", "seed_null", "seed_negative", "seed_string", "seed_bool",
             "rate_string", "rate_nan", "rate_above_one", "nested_too_deep"],
    )
    def test_malformed_supervision_spec_exits_2(self, tmp_path, capsys, spec):
        data = _synth_dataset(tmp_path)
        path = tmp_path / "sup.json"
        text = spec if isinstance(spec, str) else json.dumps(spec)  # a str is the file's text
        path.write_text(text)
        rc = main(["fit", "--data", str(data), "--supervision", str(path), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert f"{path}: " in capsys.readouterr().err
        # evaluate reads a model's record through the same checks
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(data), "--out", str(model_dir)]) == 0
        (model_dir / "supervision.json").write_text(text)
        capsys.readouterr()
        report_dir = tmp_path / "report"
        rc = main(["evaluate", "--model", str(model_dir), "--data", str(data), "--out", str(report_dir)])
        assert rc == 2
        assert "supervision.json" in capsys.readouterr().err
        assert not report_dir.exists()

    def test_missing_supervision_spec_exits_2(self, tmp_path, capsys):
        data = _synth_dataset(tmp_path)
        spec = tmp_path / "absent.json"
        rc = main(["fit", "--data", str(data), "--supervision", str(spec), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "absent.json" in capsys.readouterr().err

    def test_dimension_problem_exits_2(self, tmp_path, capsys):
        rc = main(["fit", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "m")])
        assert rc == 2

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0)], ids=["no_documents", "no_terms"])
    def test_empty_matrix_exits_2_naming_its_shape(self, tmp_path, capsys, shape):
        data = _write_dataset(tmp_path / "data", np.zeros(shape))
        model_dir = tmp_path / "m"
        rc = main(["fit", "--data", str(data), "--topics", "2", "--out", str(model_dir)])
        assert rc == 2
        assert str(shape) in capsys.readouterr().err
        assert not model_dir.exists()
        # a sweep stops at its first fit, before any cell or table is written
        sweep = tmp_path / "sweep"
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"data": str(data), "out": str(sweep), "rates": [0.0, 0.5],
                                      "seeds": [1], "topics": 2}))
        assert main(["sweep", "--config", str(config)]) == 2
        assert str(shape) in capsys.readouterr().err
        assert not (sweep / "sweep.csv").exists() and not (sweep / "cells").exists()


class TestEvaluate:
    def test_perfect_planted_model_resolves_all(self, tmp_path, capsys):
        inst = make_planted_instance(20, 30, 3, seed=4)
        data = tmp_path / "data"
        write_planted_instance(data, inst)
        # a model whose W is exactly the truth resolves every topic
        model_dir = tmp_path / "model"
        cfg = FitConfig(d=3, seed=0, max_iter=1)
        trace = FitTrace(losses=(0.0,), stop_reason="converged")
        save_model(model_dir, FactorModel(W=inst.label_table.indicator, H=np.ones((3, 30))), trace, cfg)
        (model_dir / "supervision.json").write_text(json.dumps({"supervised_ids": []}))
        rc = main(
            ["evaluate", "--model", str(model_dir), "--data", str(data), "--out", str(tmp_path / "rep")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "resolved 3/3 topics (threshold 0.1)" in out
        assert [p.name for p in (tmp_path / "rep").iterdir()] == ["report.json"]
        assert json.loads((tmp_path / "rep" / "report.json").read_text())["threshold"] == 0.1

    def test_row_mismatch_exits_2(self, tmp_path):
        data = _synth_dataset(tmp_path, docs=30)
        other = _synth_dataset(tmp_path / "other", docs=20)
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(other), "--rate", "0", "--out", str(model_dir)]) == 0
        rc = main(
            ["evaluate", "--model", str(model_dir), "--data", str(data), "--out", str(tmp_path / "rep")]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "content",
        ['{"rate": 0.5, "supervised', "[1, 2]", '{"supervised_ids": ["doc00", "ghost"]}', None],
        ids=["truncated", "list", "unknown_id", "missing"],
    )
    def test_malformed_supervision_record_exits_2(self, tmp_path, capsys, content):
        data = _synth_dataset(tmp_path)
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(data), "--rate", "0.5", "--out", str(model_dir)]) == 0
        record = model_dir / "supervision.json"
        if content is None:
            record.unlink()
        else:
            record.write_text(content)
        rc = main(["evaluate", "--model", str(model_dir), "--data", str(data), "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "supervision.json" in err
        assert "ghost" in err or "ghost" not in (content or "")  # a missing id is named
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_repeated_supervised_id_exits_2_naming_it(self, tmp_path, capsys, command):
        data = _synth_dataset(tmp_path)
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(data), "--rate", "0.5", "--out", str(model_dir)]) == 0
        path = model_dir / "supervision.json"
        path.write_text(json.dumps({"supervised_ids": ["doc00", "doc01", "doc00"]}))
        out = tmp_path / "out"
        argv = {"fit": ["fit", "--supervision", str(path)],
                "evaluate": ["evaluate", "--model", str(model_dir)]}
        capsys.readouterr()
        assert main([*argv[command], "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: 'supervised_ids' entry 'doc00' appears more than once" in err
        assert not out.exists()

    def test_coverage_recorded_from_supervision_info(self, tmp_path):
        data = _synth_dataset(tmp_path)
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(data), "--rate", "1.0", "--out", str(model_dir)]) == 0
        rep = tmp_path / "rep"
        assert main(["evaluate", "--model", str(model_dir), "--data", str(data), "--out", str(rep)]) == 0
        assert json.loads((rep / "report.json").read_text())["coverage"] == 1.0


def _rewrite(data, part, edit):
    """Replace one CSR file of a dataset with ``edit`` applied to its array."""
    path = data / MATRIX_FILENAMES[part]
    np.save(path, edit(np.load(path, allow_pickle=False)), allow_pickle=False)


def _set(index, value):
    def edit(a):
        a = a.copy()
        a[index] = value
        return a

    return edit


CORRUPTIONS = {
    "missing_file": lambda data: (data / MATRIX_FILENAMES["data"]).unlink(),
    "empty_npy": lambda data: (data / MATRIX_FILENAMES["indices"]).write_bytes(b""),
    "truncated_npy": lambda data: (data / MATRIX_FILENAMES["data"]).write_bytes(
        (data / MATRIX_FILENAMES["data"]).read_bytes()[:-12]
    ),
    "float_indices": lambda data: _rewrite(data, "indices", lambda a: a.astype(np.float64)),
    "index_at_t": lambda data: _rewrite(data, "indices", _set(-1, 40)),
    "duplicate_column": lambda data: _rewrite(data, "indices", _set(1, 0)),
    "unsorted_columns": lambda data: _rewrite(data, "indices", _set([0, 1], [1, 0])),
    "zero_value": lambda data: _rewrite(data, "data", _set(3, 0.0)),
    "row_count": lambda data: _rewrite(data, "indptr", lambda a: np.append(a, a[-1])),
    # numpy retries a header that fails to parse through its tokenizer, which raises its own error
    "header_brace": lambda data: (data / MATRIX_FILENAMES["indptr"]).write_bytes(
        (data / MATRIX_FILENAMES["indptr"]).read_bytes().replace(b"}", b"(", 1)
    ),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_matrix_exits_2_on_fit_and_sweep(tmp_path, capsys, corruption):
    data = _synth_dataset(tmp_path, docs=30, terms=40)
    CORRUPTIONS[corruption](data)
    config = tmp_path / "sweep.json"
    sweep_out = tmp_path / "sweep"
    config.write_text(
        json.dumps({"data": str(data), "out": str(sweep_out), "rates": [0.5], "seeds": [0]})
    )
    capsys.readouterr()
    rc_fit = main(["fit", "--data", str(data), "--out", str(tmp_path / "m2")])
    rc_sweep = main(["sweep", "--config", str(config)])
    assert (rc_fit, rc_sweep) == (2, 2)
    assert capsys.readouterr().err.count("matrix.") == 2  # both messages name the file
    assert not sweep_out.exists()  # the sweep reads V before its first cell


def _first_doc_labels(meta, first):
    return dict(meta, doc_labels=[first] + meta["doc_labels"][1:])


STRINGS = "must be a list of strings"
LISTS = "'doc_labels' must be a list of lists of strings"
# corruption -> (the corrupted meta, the message every reader gives)
META_CORRUPTIONS = {
    "not_object": (lambda meta: [1], "must be a JSON object"),
    "doc_ids_int": (lambda meta: dict(meta, doc_ids=5), f"'doc_ids' {STRINGS}"),
    "doc_ids_one_int": (
        lambda meta: dict(meta, doc_ids=meta["doc_ids"][:-1] + [29]), f"'doc_ids' {STRINGS}"
    ),
    "vocabulary_ints": (
        lambda meta: dict(meta, vocabulary=list(range(len(meta["vocabulary"])))),
        f"'vocabulary' {STRINGS}",
    ),
    "vocabulary_one_int": (
        lambda meta: dict(meta, vocabulary=meta["vocabulary"][:-1] + [0]),
        f"'vocabulary' {STRINGS}",
    ),
    "labels_int": (lambda meta: dict(meta, labels=7), f"'labels' {STRINGS}"),
    "labels_missing": (
        lambda meta: {k: v for k, v in meta.items() if k != "labels"}, f"'labels' {STRINGS}"
    ),
    "doc_labels_flat": (
        lambda meta: dict(meta, doc_labels=[names[0] for names in meta["doc_labels"]]), LISTS
    ),
    "doc_labels_one_string": (lambda meta: _first_doc_labels(meta, meta["labels"][0]), LISTS),
    "doc_labels_one_number": (
        lambda meta: _first_doc_labels(meta, meta["doc_labels"][0] + [1]), LISTS
    ),
    "doc_labels_short": (
        lambda meta: dict(meta, doc_labels=meta["doc_labels"][:-1]),
        "29 'doc_labels' entries for 30 doc_ids",
    ),
    "doc_labels_unknown": (
        lambda meta: dict(meta, doc_labels=[["nope"]] * len(meta["doc_ids"])),
        "'doc_labels' names labels not in 'labels': ['nope']",
    ),
    "labels_unsorted": (
        lambda meta: dict(meta, labels=meta["labels"][::-1]),
        "labels must be in lexicographic order",
    ),
    "doc_ids_repeated": (
        lambda meta: dict(meta, doc_ids=meta["doc_ids"][:1] + meta["doc_ids"][:-1]),
        "doc_id 'doc00' appears more than once",  # the first repeat
    ),
    "vocabulary_repeated": (
        lambda meta: dict(meta, vocabulary=meta["vocabulary"][:1] + meta["vocabulary"][:-1]),
        "vocabulary term 'term00' appears more than once",
    ),
    "labels_repeated": (
        lambda meta: dict(meta, labels=meta["labels"][:1] + meta["labels"]),
        "label 'topic0' appears more than once",
    ),
    # a str is the file's text
    "nested_too_deep": (lambda meta: DEEP_JSON, DEEP_JSON_ERROR),
}


@pytest.mark.parametrize("corruption", sorted(META_CORRUPTIONS))
def test_malformed_meta_exits_2_on_fit_evaluate_and_top_terms(tmp_path, capsys, corruption):
    data = _synth_dataset(tmp_path, docs=30, terms=40)
    model_dir = tmp_path / "model"
    assert main(["fit", "--data", str(data), "--rate", "0.5", "--out", str(model_dir)]) == 0
    meta_path = data / "meta.json"
    corrupt, message = META_CORRUPTIONS[corruption]
    corrupted = corrupt(json.loads(meta_path.read_text()))
    meta_path.write_text(corrupted if isinstance(corrupted, str) else json.dumps(corrupted))
    capsys.readouterr()
    rcs = (
        main(["fit", "--data", str(data), "--out", str(tmp_path / "m2")]),
        main(["evaluate", "--model", str(model_dir), "--data", str(data), "--out", str(tmp_path / "r")]),
        main(["top-terms", "--model", str(model_dir), "--data", str(data)]),
    )
    assert rcs == (2, 2, 2)
    # every reader names the file and gives the same message
    assert capsys.readouterr().err == f"error: {meta_path}: {message}\n" * 3


def _saved(change):
    """A corruption that saves ``change`` of the factor in place of its .npy bytes."""

    def corrupt(blob):
        out = io.BytesIO()
        np.save(out, change(np.load(io.BytesIO(blob))), allow_pickle=True)
        return out.getvalue()

    return corrupt


def _first_entry(value):
    def change(a):
        a = a.copy()
        a.flat[0] = value
        return a

    return _saved(change)


def _huge_shape(blob):
    # the header asks for far more memory than there is; the length field stays valid
    grown = blob.replace(b"'shape': (", b"'shape': (99999999999, ", 1)
    return grown.replace(b" " * 13 + b"\n", b"\n", 1)


# each factor corruption is run against the command that reads that factor:
# evaluate reads only W.npy, top-terms only H.npy, and both read model.json
FACTOR_CORRUPTIONS = {
    "empty": lambda blob: b"",
    "truncated": lambda blob: blob[: len(blob) // 2],
    "flipped_magic": lambda blob: bytes([blob[0] ^ 0xFF]) + blob[1:],
    "header_brace": lambda blob: blob.replace(b"}", b"(", 1),
    "huge_shape": _huge_shape,
    "row_missing": _saved(lambda a: a[:-1]),
    "column_missing": _saved(lambda a: a[:, :-1]),
    "one_d": _saved(np.ravel),
    "integer": _saved(lambda a: a.astype(np.int64)),
    "pickled_object": _saved(lambda a: a.astype(object)),
    "nan": _first_entry(np.nan),
    "inf": _first_entry(np.inf),
    "negative": _first_entry(-5.0),
    "zero_size": _saved(lambda a: a[:0]),
}
def _header(edit):
    """A corruption that rewrites model.json as ``edit`` of its object."""
    return lambda blob: json.dumps(edit(json.loads(blob))).encode()


MODEL_CORRUPTIONS = {
    **{f"{factor}_{kind}": (f"{factor}.npy", corrupt)
       for factor in "WH" for kind, corrupt in FACTOR_CORRUPTIONS.items()},
    "model_json_truncated": ("model.json", lambda blob: blob[:25]),
    # a shape field must be a JSON integer: neither 30.0 nor true nor "30" is taken for one
    "model_json_n_float": ("model.json", _header(lambda h: dict(h, n=float(h["n"])))),
    "model_json_d_bool": ("model.json", _header(lambda h: dict(h, d=True))),
    "model_json_t_string": ("model.json", _header(lambda h: dict(h, t=str(h["t"])))),
    "model_json_n_missing": ("model.json", _header(lambda h: {k: h[k] for k in h if k != "n"})),
    "model_json_nested_too_deep": ("model.json", lambda blob: DEEP_JSON.encode()),
}
READERS = {"W.npy": ["evaluate"], "H.npy": ["top-terms"], "model.json": ["evaluate", "top-terms"]}


@pytest.mark.parametrize(
    "corruption, command",
    [(key, command) for key, (name, _) in sorted(MODEL_CORRUPTIONS.items())
     for command in READERS[name]],
)
def test_corrupt_model_file_exits_2_naming_it(tmp_path, capsys, corruption, command):
    data = _synth_dataset(tmp_path)
    model_dir = tmp_path / "model"
    assert main(["fit", "--data", str(data), "--out", str(model_dir)]) == 0
    name, corrupt = MODEL_CORRUPTIONS[corruption]
    path = model_dir / name
    path.write_bytes(corrupt(path.read_bytes()))
    argv = [command, "--model", str(model_dir), "--data", str(data)]
    capsys.readouterr()
    assert main(argv + (["--out", str(tmp_path / "rep")] if command == "evaluate" else [])) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("factor, command", [("W", "evaluate"), ("H", "top-terms")])
def test_zero_size_factor_that_model_json_records_exits_2_naming_it(tmp_path, capsys, factor,
                                                                     command):
    data = _synth_dataset(tmp_path)
    model_dir = tmp_path / "model"
    assert main(["fit", "--data", str(data), "--out", str(model_dir)]) == 0
    header = read_json(model_dir / "model.json")
    (model_dir / "model.json").write_text(json.dumps(dict(header, d=0)))
    path = model_dir / f"{factor}.npy"
    shape = {"W": (header["n"], 0), "H": (0, header["t"])}[factor]
    np.save(path, np.zeros(shape), allow_pickle=False)
    argv = [command, "--model", str(model_dir), "--data", str(data)]
    capsys.readouterr()
    assert main(argv + (["--out", str(tmp_path / "rep")] if command == "evaluate" else [])) == 2
    assert capsys.readouterr().err == f"error: {path}: shape {shape} holds no entries\n"


class TestFactorFiles:
    """fit writes each factor as .npy, which evaluate and top-terms read, and as a CSV export."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_read_factor_equals_the_csv_export_bit_for_bit(self, tmp_path, weighted):
        data = _synth_dataset(tmp_path)
        model_dir = tmp_path / "model"
        args = ["fit", "--data", str(data), "--rate", "0.5", *["--weighted"] * weighted]
        assert main([*args, "--out", str(model_dir)]) == 0
        for name in "WH":
            csv_text = np.loadtxt(model_dir / f"{name}.csv", delimiter=",", ndmin=2)
            factor = read_factor(model_dir, name)
            assert factor.dtype == np.float64 and factor.flags.c_contiguous
            assert factor.shape == csv_text.shape and factor.tobytes() == csv_text.tobytes()

    def test_model_without_npy_factors_exits_2_naming_the_file(self, tmp_path, capsys):
        # a model directory from before the factors were saved as .npy holds the CSVs only
        data = _synth_dataset(tmp_path)
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(data), "--out", str(model_dir)]) == 0
        for name in ("W.npy", "H.npy"):
            (model_dir / name).unlink()
        inputs = ["--model", str(model_dir), "--data", str(data)]
        capsys.readouterr()
        assert main(["evaluate", *inputs, "--out", str(tmp_path / "rep")]) == 2
        assert str(model_dir / "W.npy") in capsys.readouterr().err
        assert main(["top-terms", *inputs]) == 2
        assert str(model_dir / "H.npy") in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_refit_from_the_model_own_record_rewrites_every_file(self, tmp_path):
        data = _synth_dataset(tmp_path)
        model_dir = tmp_path / "model"
        args = ["fit", "--data", str(data), "--weighted", "--max-iter", "30", "--out", str(model_dir)]
        assert main([*args, "--rate", "0.4", "--seed", "3"]) == 0
        before = {name: (model_dir / name).read_bytes() for name in FIT_FILES}
        # the record is read before the run replaces it
        assert main([*args, "--supervision", str(model_dir / "supervision.json")]) == 0
        assert sorted(p.name for p in model_dir.iterdir()) == sorted(FIT_FILES)
        assert {name: (model_dir / name).read_bytes() for name in FIT_FILES} == before


# Each artifact a command reads, the commands that read it, and seeded corruptions of it:
# truncations, flips of 1-3 bytes and, for JSON, each top-level key deleted or set to an odd
# value (and each list's first entry set to one).  Every command runs in a fresh directory.
FUZZ_ARTIFACTS = {
    "meta.json": ("data/meta.json", ("fit", "evaluate", "top-terms", "sweep")),
    **{name: (f"data/{name}", ("fit", "sweep")) for name in MATRIX_FILENAMES.values()},
    "model.json": ("model/model.json", ("evaluate", "top-terms")),
    "W.npy": ("model/W.npy", ("evaluate",)),
    "H.npy": ("model/H.npy", ("top-terms",)),
    "supervision.json": ("model/supervision.json", ("evaluate", "fit --supervision")),
    "sweep config": ("sweep.json", ("sweep",)),
}
FUZZ_FLIPS = 10
ODD_VALUES = (None, True, -1, 0.5, "x", [], {})
# what a command that fails may leave, by exit code: a numerical failure's trace, and a
# sweep whose cells all failed its tables beside each cell's trace
LEFT_ON_FAILURE = {
    **dict.fromkeys(("fit", "fit --supervision", "evaluate", "top-terms"), {4: {"trace.csv"}}),
    "sweep": dict.fromkeys((2, 4), {"sweep.csv", "sweep_summary.csv", "sweep_timing.csv",
                                    "trace.csv"}),
}


def _corruptions(name, blob):
    rng = np.random.default_rng(sum(name.encode()))
    for size in sorted({0, 1, len(blob) // 4, len(blob) // 2, len(blob) - 1}):
        yield f"truncated to {size}", blob[:size]
    for k in range(FUZZ_FLIPS):
        flipped = bytearray(blob)
        for pos in rng.choice(len(blob), size=rng.integers(1, 4), replace=False):
            flipped[pos] ^= int(rng.integers(1, 256))
        yield f"flip {k}", bytes(flipped)
    if name.endswith(".npy"):
        yield "header brace", blob.replace(b"}", b"(", 1)
    if name.endswith(".json") or name == "sweep config":
        obj = json.loads(blob)
        for key, value in obj.items():
            edits = [("deleted", {k: v for k, v in obj.items() if k != key})]
            edits += [(f"= {odd!r}", dict(obj, **{key: odd})) for odd in ODD_VALUES]
            if isinstance(value, list) and value:
                edits += [(f"[0] = {odd!r}", dict(obj, **{key: [odd, *value[1:]]}))
                          for odd in ODD_VALUES]
            for edit, changed in edits:
                yield f"{key} {edit}", json.dumps(changed).encode()


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A 30x40x4 dataset, a model fitted to it and a two-cell sweep config over it."""
    base = tmp_path_factory.mktemp("fuzz_base")
    _synth_dataset(base, topics=4)
    assert main(["fit", "--data", str(base / "data"), "--rate", "0.5", "--max-iter", "5",
                 "--out", str(base / "model")]) == 0
    config = {"data": str(base / "data"), "out": "sweep", "rates": [0.0, 0.5], "seeds": [1],
              "max_iter": 5}
    (base / "sweep.json").write_text(json.dumps(config))
    return base


def _fuzz_argv(base, command):
    data, model = str(base / "data"), str(base / "model")
    return {
        "fit": ["fit", "--data", data, "--rate", "0.5", "--max-iter", "5", "--out", "out"],
        "fit --supervision": ["fit", "--data", data, "--supervision",
                              f"{model}/supervision.json", "--max-iter", "5", "--out", "out"],
        "evaluate": ["evaluate", "--model", model, "--data", data, "--out", "out"],
        "top-terms": ["top-terms", "--model", model, "--data", data, "--out", "out.csv"],
        "sweep": ["sweep", "--config", str(base / "sweep.json")],
    }[command]


@pytest.mark.parametrize("artifact", list(FUZZ_ARTIFACTS))
def test_corrupt_artifacts_keep_the_exit_code_contract(fuzz_base, tmp_path, monkeypatch, artifact):
    name, commands = FUZZ_ARTIFACTS[artifact]
    path = fuzz_base / name
    original = path.read_bytes()
    runs = 0
    try:
        for case, blob in _corruptions(artifact, original):
            path.write_bytes(blob)
            for command in commands:
                work = tmp_path / str(runs)
                work.mkdir()
                monkeypatch.chdir(work)
                runs += 1
                try:
                    rc = main(_fuzz_argv(fuzz_base, command))
                except Exception as exc:  # an escape from main is the defect looked for
                    pytest.fail(f"{artifact}, {case}: {command} raised {exc!r}")
                what = f"{artifact}, {case}: {command} exited {rc}"
                assert rc in (0, 2, 3, 4), what
                if rc == 0:
                    continue
                left = [p for p in work.rglob("*") if p.is_file()]
                assert {p.name for p in left} <= LEFT_ON_FAILURE[command].get(rc, set()), what
                for table in (p for p in left if p.name == "sweep.csv"):
                    rows = table.read_text().splitlines()[1:]
                    assert all(row.split(",")[2].startswith("error") for row in rows), what
    finally:
        path.write_bytes(original)


@pytest.mark.parametrize(
    "command, flag, value",
    [("fit", "--rel-tol", "inf"), ("fit", "--rel-tol", "nan"),
     ("synth", "--noise", "nan"), ("synth", "--noise", "inf")],
)
def test_non_finite_setting_exits_2_naming_it(tmp_path, capsys, command, flag, value):
    # JSON has no token for NaN or Inf, so model.json or meta.json could not hold one
    if command == "synth":
        argv = ["synth", "--docs", "20", "--terms", "30", "--topics", "3"]
    else:
        argv = ["fit", "--data", str(_synth_dataset(tmp_path))]
    capsys.readouterr()
    assert main([*argv, f"{flag}={value}", "--out", str(tmp_path / "out")]) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _not_utf8_stopwords(tmp_path):
    stop = tmp_path / "stop.txt"
    stop.write_bytes(b"the\n\xffnd\n")
    argv = ["ingest", "--corpus", str(_small_corpus(tmp_path)), "--stopwords", str(stop)]
    return argv + ["--min-chars", "100", "--out", str(tmp_path / "out")], str(stop)


def _not_utf8_corpus_line(tmp_path):
    corpus = _small_corpus(tmp_path)
    lines = corpus.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b"corn exports", b"corn \xe9xports")
    corpus.write_bytes(b"\n".join(lines))
    argv = ["ingest", "--corpus", str(corpus), "--min-chars", "100", "--out", str(tmp_path / "out")]
    return argv, f"{corpus}: line 2:"


def _not_utf8_factor(tmp_path):
    data = _synth_dataset(tmp_path)
    model_dir = tmp_path / "model"
    assert main(["fit", "--data", str(data), "--out", str(model_dir)]) == 0
    path = model_dir / "W.npy"
    path.write_bytes(b"\xff" + (model_dir / "W.csv").read_bytes())
    argv = ["evaluate", "--model", str(model_dir), "--data", str(data), "--out", str(tmp_path / "out")]
    return argv, str(path)


@pytest.mark.parametrize(
    "make", [_not_utf8_stopwords, _not_utf8_corpus_line, _not_utf8_factor],
    ids=["stopwords", "corpus_line", "W_npy"],
)
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, make):
    argv, named = make(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@needs_scipy
def test_fit_and_sweep_never_densify_sparse_data(tmp_path, monkeypatch):
    data = _sparse_dataset(tmp_path)
    V = read_matrix(data, read_dataset(data))
    assert V.format == "csr" and V.nnz <= 0.05 * V.shape[0] * V.shape[1]

    def refuse(*args):
        raise AssertionError("a sparse dataset was densified")

    monkeypatch.setattr(dataio, "dense_from_csr", refuse)
    assert main(["fit", "--data", str(data), "--rate", "0.3", "--out", str(tmp_path / "m")]) == 0
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"data": str(data), "out": str(tmp_path / "sweep"),
                                  "rates": [0.0, 0.3], "seeds": [1], "weighted": True}))
    assert main(["sweep", "--config", str(config)]) == 0
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["ok", "ok"]


def test_evaluate_and_top_terms_never_densify_the_data(tmp_path):
    data = _synth_dataset(tmp_path)
    model_dir = tmp_path / "model"
    assert main(["fit", "--data", str(data), "--rate", "0.5", "--out", str(model_dir)]) == 0
    inputs = ["--model", str(model_dir), "--data", str(data)]
    assert main(["evaluate", *inputs, "--out", str(tmp_path / "all_files")]) == 0
    assert main(["top-terms", *inputs, "--out", str(tmp_path / "all_files.csv")]) == 0

    # each command reads meta.json and its own factor's .npy only
    for path in [*(data / name for name in MATRIX_FILENAMES.values()),
                 model_dir / "W.csv", model_dir / "H.csv"]:
        path.unlink()
    H = (model_dir / "H.npy").read_bytes()
    (model_dir / "H.npy").unlink()
    assert main(["evaluate", *inputs, "--out", str(tmp_path / "rep")]) == 0
    (model_dir / "H.npy").write_bytes(H)
    (model_dir / "W.npy").unlink()
    assert main(["top-terms", *inputs, "--out", str(tmp_path / "tt.csv")]) == 0

    report = (tmp_path / "rep" / "report.json").read_bytes()
    assert report == (tmp_path / "all_files" / "report.json").read_bytes()
    assert (tmp_path / "tt.csv").read_bytes() == (tmp_path / "all_files.csv").read_bytes()
    assert main(["fit", "--data", str(data), "--out", str(tmp_path / "m2")]) == 2


class TestTopTerms:
    def test_one_hot_h_prints_exact_terms(self, tmp_path, capsys):
        data = _synth_dataset(tmp_path, docs=10, terms=4, topics=2)
        dataset = read_dataset(data)
        model_dir = tmp_path / "model"
        H = np.zeros((2, 4))
        H[0, 2] = 1.0
        H[1, 0] = 1.0
        cfg = FitConfig(d=2, seed=0, max_iter=1)
        save_model(
            model_dir,
            FactorModel(W=np.ones((10, 2)), H=H),
            FitTrace(losses=(1.0,), stop_reason="max_iter"),
            cfg,
        )
        capsys.readouterr()  # drain setup output
        rc = main(["top-terms", "--model", str(model_dir), "--data", str(data), "--terms", "1"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"topic 0: {dataset.vocabulary.terms[2]}"
        assert out[1] == f"topic 1: {dataset.vocabulary.terms[0]}"

    def test_default_is_three_terms(self, tmp_path, capsys):
        data = _synth_dataset(tmp_path)
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(data), "--rate", "0", "--out", str(model_dir)]) == 0
        capsys.readouterr()  # drain setup output
        assert main(["top-terms", "--model", str(model_dir), "--data", str(data)]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            assert len(line.split(": ")[1].split(", ")) == 3

    def test_csv_output_has_one_row_per_topic(self, tmp_path):
        data = _synth_dataset(tmp_path)
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(data), "--rate", "0", "--out", str(model_dir)]) == 0
        out_csv = tmp_path / "tt.csv"
        assert main(
            ["top-terms", "--model", str(model_dir), "--data", str(data), "--out", str(out_csv)]
        ) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + one row per topic

    def test_zero_terms_exits_2_and_writes_nothing(self, tmp_path, capsys):
        data = _synth_dataset(tmp_path)
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(data), "--rate", "0", "--out", str(model_dir)]) == 0
        capsys.readouterr()  # drain setup output
        out_csv = tmp_path / "tt.csv"
        rc = main(["top-terms", "--model", str(model_dir), "--data", str(data), "--terms", "0",
                   "--out", str(out_csv)])
        assert rc == 2
        assert "term count must be >= 1, got 0" in capsys.readouterr().err
        assert not out_csv.exists()


# wrongly typed values, which must not be coerced, repeated grid values,
# non-finite numbers, which JSON can parse but model.json and report.json cannot
# hold, and the fixed settings epsilon, acol_q and threshold, which are no sweep keys
BAD_SWEEP_VALUES = {
    "seeds_float": ("seeds", [1.7]),
    "seeds_string": ("seeds", ["3"]),
    "seeds_bool": ("seeds", [True]),
    "seeds_scalar": ("seeds", 1),
    "rates_bool": ("rates", [True]),
    "rates_string": ("rates", ["0.5"]),
    "rates_empty": ("rates", []),
    "rates_out_of_range": ("rates", [1.5]),
    "topics_string": ("topics", "3"),
    "topics_float": ("topics", 2.0),
    "max_iter_float": ("max_iter", 2.5),
    "acol_q_bool": ("acol_q", True),
    "rel_tol_string": ("rel_tol", "1e-4"),
    "epsilon_bool": ("epsilon", True),
    "threshold_null": ("threshold", None),
    "threshold_nan": ("threshold", float("nan")),
    "rel_tol_inf": ("rel_tol", float("inf")),
    # JSON integers that no float holds
    "rates_too_large": ("rates", [10**400]),
    "rel_tol_too_large": ("rel_tol", 10**400),
    "epsilon_inf": ("epsilon", float("inf")),
    "weighted_int": ("weighted", 1),
    "rates_repeated": ("rates", [0.3, 0.3]),
    "rates_repeated_int_float": ("rates", [0, 0.0]),
    "seeds_repeated": ("seeds", [1, 2, 1]),
}
FIXED_SETTINGS = {"epsilon", "acol_q", "threshold"}
FIT_CONFIG_RANGES = {"rel_tol_inf"}


class TestSweep:
    def _config(self, tmp_path, data, **overrides):
        cfg = {
            "data": str(data),
            "out": str(tmp_path / "sweep"),
            "rates": [0.0, 1.0],
            "seeds": [1],
            "max_iter": 30,
        }
        cfg.update(overrides)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_two_rates_one_seed_gives_two_rows(self, tmp_path):
        data = _synth_dataset(tmp_path)
        cfg = self._config(tmp_path, data)
        assert main(["sweep", "--config", str(cfg)]) == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("rate,seed,status")
        assert len(lines) == 3

    def test_rate_one_has_full_coverage(self, tmp_path):
        data = _synth_dataset(tmp_path)
        cfg = self._config(tmp_path, data)
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()[1:]
        by_rate = {float(r.split(",")[0]): r.split(",") for r in rows}
        assert float(by_rate[1.0][3]) == 1.0

    def test_cell_failure_recorded_and_run_continues(self, tmp_path):
        data = _synth_dataset(tmp_path)  # labels carry indices up to 2
        cfg = self._config(tmp_path, data, topics=2, rates=[0.0, 1.0])
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()[1:]
        statuses = {float(r.split(",")[0]): r.split(",")[2] for r in rows}
        assert statuses[0.0] == "ok"
        assert statuses[1.0].startswith("error")

    def test_all_cells_failing_is_nonzero_exit(self, tmp_path, capsys):
        data = _synth_dataset(tmp_path)
        cfg = self._config(tmp_path, data, topics=2, rates=[0.5, 1.0])
        capsys.readouterr()
        # no cell reached the fit; the sweep exits as its first cell's supervision failed
        assert main(["sweep", "--config", str(cfg)]) == 2
        message = "document 0 carries label index 2 but the mask has only 2 topics"
        assert capsys.readouterr().err == f"error: {message}\n"
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == [f"error: {message}"] * 2

    def test_summary_and_timing_files_written(self, tmp_path):
        data = _synth_dataset(tmp_path)
        cfg = self._config(tmp_path, data, rates=[0.0, 0.5], seeds=[1, 2])
        assert main(["sweep", "--config", str(cfg)]) == 0
        summary = (tmp_path / "sweep" / "sweep_summary.csv").read_text().strip().splitlines()
        assert len(summary) == 3  # header + one row per rate
        timing = (tmp_path / "sweep" / "sweep_timing.csv").read_text().strip().splitlines()
        assert len(timing) == 5  # header + one row per cell

    def test_cell_artifacts_written(self, tmp_path):
        data = _synth_dataset(tmp_path)
        cfg = self._config(tmp_path, data, rates=[0.5], seeds=[1])
        assert main(["sweep", "--config", str(cfg)]) == 0
        cell = tmp_path / "sweep" / "cells" / "rate_0.5" / "seed_1"
        assert sorted(p.name for p in cell.iterdir()) == sorted(CELL_FILES)

    @pytest.mark.parametrize("case", sorted(BAD_SWEEP_VALUES))
    def test_bad_config_value_exits_2_naming_key(self, tmp_path, capsys, case):
        key, value = BAD_SWEEP_VALUES[case]
        data = _synth_dataset(tmp_path)
        cfg = self._config(tmp_path, data, **{key: value})
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert ("unknown sweep config keys" in err) == (key in FIXED_SETTINGS)
        # a range that FitConfig checks names the setting, as it does for a fit flag
        assert err.startswith(f"error: {cfg}: ") == (case not in FIT_CONFIG_RANGES)
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("case", ["seeds_missing", "data_absent"])
    def test_missing_seeds_or_data_directory_exits_2_naming_it(self, tmp_path, capsys, case):
        if case == "seeds_missing":
            cfg = self._config(tmp_path, _synth_dataset(tmp_path))
            raw = json.loads(cfg.read_text())
            del raw["seeds"]
            cfg.write_text(json.dumps(raw))
            message = f"{cfg}: 'seeds' must be a list of integers"
        else:
            cfg = self._config(tmp_path, tmp_path / "absent")
            message = f"{cfg}: sweep data directory not found: {tmp_path / 'absent'}"
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_config_nested_too_deep_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(DEEP_JSON)
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {DEEP_JSON_ERROR}\n"

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_fit_and_evaluate_write_the_cell_bytes(self, tmp_path, weighted):
        data = _synth_dataset(tmp_path)
        rates = [0.0, 0.3, 1.0]
        cfg = self._config(tmp_path, data, rates=rates, seeds=[2], weighted=weighted)
        assert main(["sweep", "--config", str(cfg)]) == 0
        for rate in rates:
            cell = tmp_path / "sweep" / "cells" / f"rate_{rate}" / "seed_2"
            model, report = tmp_path / f"m{rate}", tmp_path / f"r{rate}"
            fit_args = ["fit", "--data", str(data), "--rate", str(rate), "--seed", "2", "--max-iter", "30"]
            assert main(fit_args + ["--weighted"] * weighted + ["--out", str(model)]) == 0
            assert main(["evaluate", "--model", str(model), "--data", str(data), "--out", str(report)]) == 0
            for name in FIT_FILES:
                assert (model / name).read_bytes() == (cell / name).read_bytes(), (rate, name)
            assert (report / "report.json").read_bytes() == (cell / "report.json").read_bytes(), rate

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_cells_of_several_batches_write_the_fit_and_evaluate_bytes(self, tmp_path, monkeypatch,
                                                                         weighted):
        data = _synth_dataset(tmp_path)  # 30 x 40 x 3: a batch holds 30 * 40 // (3 * 70) = 5 cells
        rates, seeds = [0.0, 0.2, 0.5, 1.0], [1, 2]
        batches, fit_batch = [], experiment.fit_batch

        def counted(V, problems):
            batches.append(len(problems))
            return fit_batch(V, problems)

        monkeypatch.setattr(experiment, "fit_batch", counted)
        cfg = self._config(tmp_path, data, rates=rates, seeds=seeds, weighted=weighted)
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert batches == [5, 3]
        for rate in rates:
            for seed in seeds:
                cell = tmp_path / "sweep" / "cells" / f"rate_{rate}" / f"seed_{seed}"
                model, report = tmp_path / f"m{rate}_{seed}", tmp_path / f"r{rate}_{seed}"
                fit_args = ["fit", "--data", str(data), "--rate", str(rate), "--seed", str(seed),
                            "--max-iter", "30", *["--weighted"] * weighted, "--out", str(model)]
                assert main(fit_args) == 0
                assert main(["evaluate", "--model", str(model), "--data", str(data),
                             "--out", str(report)]) == 0
                for name in FIT_FILES:
                    assert (model / name).read_bytes() == (cell / name).read_bytes(), (rate, seed, name)
                assert (report / "report.json").read_bytes() == (cell / "report.json").read_bytes()

    @needs_scipy
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_csr_cells_fit_one_by_one_and_write_the_fit_and_evaluate_bytes(self, tmp_path,
                                                                            monkeypatch, weighted):
        data = _sparse_dataset(tmp_path)  # 60 x 300 x 3 CSR: stacked cells would save no pass
        rates, seeds = [0.0, 0.2, 0.5, 1.0], [1, 2]
        batches, fit_batch = [], experiment.fit_batch

        def counted(V, problems):
            batches.append(len(problems))
            return fit_batch(V, problems)

        monkeypatch.setattr(experiment, "fit_batch", counted)
        cfg = self._config(tmp_path, data, rates=rates, seeds=seeds, weighted=weighted)
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert batches == [1] * 8
        for rate in rates:
            for seed in seeds:
                cell = tmp_path / "sweep" / "cells" / f"rate_{rate}" / f"seed_{seed}"
                model, report = tmp_path / f"m{rate}_{seed}", tmp_path / f"r{rate}_{seed}"
                fit_args = ["fit", "--data", str(data), "--rate", str(rate), "--seed", str(seed),
                            "--max-iter", "30", *["--weighted"] * weighted, "--out", str(model)]
                assert main(fit_args) == 0
                assert main(["evaluate", "--model", str(model), "--data", str(data),
                             "--out", str(report)]) == 0
                for name in FIT_FILES:
                    assert (model / name).read_bytes() == (cell / name).read_bytes(), (rate, seed, name)
                assert (report / "report.json").read_bytes() == (cell / "report.json").read_bytes()

    @pytest.mark.parametrize("key", ["data", "out"])
    def test_empty_path_exits_2_naming_the_key(self, tmp_path, monkeypatch, capsys, key):
        data = _synth_dataset(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        cfg = self._config(tmp_path, data)
        cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), **{key: ""})))
        monkeypatch.chdir(work)
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert f"'{key}': empty file name" in capsys.readouterr().err
        assert not list(work.iterdir()) and not (tmp_path / "sweep").exists()

    def test_failing_cell_removes_the_earlier_run(self, tmp_path, capsys):
        data = _synth_dataset(tmp_path)
        cfg = self._config(tmp_path, data, rates=[0.0, 0.5])
        assert main(["sweep", "--config", str(cfg)]) == 0
        cells = [tmp_path / "sweep" / "cells" / f"rate_{r}" / "seed_1" for r in (0.0, 0.5)]
        assert all(sorted(p.name for p in cell.iterdir()) == sorted(CELL_FILES) for cell in cells)
        _rewrite(data, "data", _set(0, np.inf))
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg)]) == 4  # every cell failed, as fit does
        err = capsys.readouterr().err
        assert err == "error: H update produced NaN or Inf entries (iteration 1)\n"
        # the trace of the failed run alone, as a failed fit leaves it
        for cell in cells:
            assert [p.name for p in cell.iterdir()] == ["trace.csv"]
            assert (cell / "trace.csv").read_text().splitlines()[1] in ("0,inf", "0,nan")

    @pytest.mark.parametrize("error", [TypeError, KeyError])
    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_defect_ends_fit_and_sweep_with_its_traceback(self, tmp_path, monkeypatch, command,
                                                          error):
        data = _synth_dataset(tmp_path)
        argv = {"fit": ["fit", "--data", str(data), "--out", str(tmp_path / "model")],
                "sweep": ["sweep", "--config", str(self._config(tmp_path, data))]}[command]

        def defect(*args, **kwargs):
            raise error("defect")

        # the fit command fits its one problem through fit; a sweep fits its cells through fit_batch
        module, name = {"fit": (cli, "fit"), "sweep": (experiment, "fit_batch")}[command]
        monkeypatch.setattr(module, name, defect)
        with pytest.raises(error, match="defect"):
            main(argv)
        assert not (tmp_path / "model").exists() and not (tmp_path / "sweep").exists()

    def test_indicator_built_once_per_sweep(self, tmp_path, monkeypatch):
        data = _synth_dataset(tmp_path)
        cfg = self._config(tmp_path, data, rates=[0.0, 0.5], seeds=[1, 2])
        assert main(["sweep", "--config", str(cfg)]) == 0
        before = {p: p.read_bytes() for p in (tmp_path / "sweep" / "cells").rglob("*")
                  if p.is_file()}
        built = []
        indicator = LabelTable.indicator.func

        def counted(table):
            built.append(table)
            return indicator(table)

        counted_property = cached_property(counted)
        counted_property.__set_name__(LabelTable, "indicator")
        monkeypatch.setattr(LabelTable, "indicator", counted_property)
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert len(built) == 1
        after = {p: p.read_bytes() for p in (tmp_path / "sweep" / "cells").rglob("*") if p.is_file()}
        assert len(before) == 4 * len(CELL_FILES) and after == before

    def test_unknown_config_key_exits_2(self, tmp_path):
        data = _synth_dataset(tmp_path)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"data": str(data), "out": "x", "rates": [0], "seeds": [1], "bogus": 1}))
        assert main(["sweep", "--config", str(path)]) == 2


def test_fit_and_scoring_defaults_have_one_home():
    args = build_parser().parse_args(["fit", "--data", "d", "--out", "m"])
    assert fit_config(args, 3, args.seed) == FitConfig(d=3, seed=0)
    sweep = SweepConfig(data="d", out="s", rates=(0.5,), seeds=(1,))
    assert fit_config(sweep, 3, 1) == FitConfig(d=3, seed=1)


def _drop_labels(data):
    meta_path = data / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta.update(labels=[], doc_labels=[[] for _ in meta["doc_ids"]])
    meta_path.write_text(json.dumps(meta))


@pytest.mark.parametrize("command", ["fit", "sweep"])
@pytest.mark.parametrize(
    "labeled,topics,rc,message",
    [
        (False, None, 2, "dataset has no labels"),
        (True, 0, 2, "topic count must be >= 1, got 0"),
        (False, 2, 0, ""),
    ],
    ids=["unlabeled", "zero_topics", "unlabeled_with_topics"],
)
def test_one_topic_count_rule_for_fit_and_sweep(tmp_path, capsys, command, labeled, topics, rc, message):
    data = _synth_dataset(tmp_path)
    if not labeled:
        _drop_labels(data)
    if command == "fit":
        argv = ["fit", "--data", str(data), "--rate", "0.5", "--out", str(tmp_path / "m")]
        argv += [] if topics is None else ["--topics", str(topics)]
    else:
        cfg = {"data": str(data), "out": str(tmp_path / "sweep"), "rates": [0.5], "seeds": [1]}
        cfg.update({} if topics is None else {"topics": topics})
        (tmp_path / "sweep.json").write_text(json.dumps(cfg))
        argv = ["sweep", "--config", str(tmp_path / "sweep.json")]
    capsys.readouterr()
    assert main(argv) == rc
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "synth", "fit", "evaluate", "top-terms"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    data = _synth_dataset(tmp_path)
    assert main(["fit", "--data", str(data), "--out", str(tmp_path / "model")]) == 0
    # a regular file where an output directory goes; top-terms writes a file, so a directory
    blocked = tmp_path / "blocked"
    if command == "top-terms":
        blocked.mkdir()
    else:
        blocked.write_text("keep me\n")
    inputs = {
        "ingest": ["--corpus", str(_small_corpus(tmp_path)), "--min-chars", "100"],
        "synth": ["--docs", "20", "--terms", "30", "--topics", "3"],
        "fit": ["--data", str(data)],
        "evaluate": ["--model", str(tmp_path / "model"), "--data", str(data)],
        "top-terms": ["--model", str(tmp_path / "model"), "--data", str(data)],
    }
    capsys.readouterr()
    assert main([command, *inputs[command], "--out", str(blocked)]) == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err and str(blocked) in err
    if command != "top-terms":
        assert blocked.read_text() == "keep me\n"
    assert not list(tmp_path.rglob("*.tmp"))  # the failed write removed its temporary file


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_failed_write_removes_the_earlier_run(tmp_path, monkeypatch, capsys, command):
    """A write that fails midway leaves neither the new run's files nor the earlier run's."""
    data = _synth_dataset(tmp_path)
    model, report = tmp_path / "model", tmp_path / "report"
    fit_args = ["fit", "--data", str(data), "--rate", "0.5", "--out", str(model)]
    evaluate_args = ["evaluate", "--model", str(model), "--data", str(data), "--out", str(report)]
    assert main(fit_args + ["--seed", "1"]) == 0
    assert main(evaluate_args) == 0
    out, names, failing = {
        "fit": (model, FIT_FILES, "H.npy"),  # after supervision.json and W.npy
        "evaluate": (report, REPORT_FILES, "report.json"),
    }[command]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    if command == "evaluate":
        assert main(fit_args + ["--seed", "2"]) == 0
    write_file = matrix.write_file

    def fail_at(path, content):
        if Path(path).name == failing:
            raise OSError(f"cannot write output: {path}: no space left on device")
        write_file(path, content)

    monkeypatch.setattr(matrix, "write_file", fail_at)
    capsys.readouterr()
    assert main({"fit": fit_args + ["--seed", "2"], "evaluate": evaluate_args}[command]) == 2
    assert "no space left" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("rate", ["0", "0.5", "record"])
def test_negative_seed_exits_2_naming_it_on_fit_and_sweep(tmp_path, capsys, rate):
    data = _synth_dataset(tmp_path)
    model = tmp_path / "model"
    supervision = ["--rate", rate]
    if rate == "record":  # a record's valid seed does not stand in for a bad --seed
        (tmp_path / "sup.json").write_text(json.dumps({"seed": 3, "supervised_ids": ["doc00"]}))
        supervision, rate = ["--supervision", str(tmp_path / "sup.json")], "0"
    assert main(["fit", "--data", str(data), *supervision, "--seed", "-1", "--out", str(model)]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    config = tmp_path / "sweep.json"
    sweep = tmp_path / "sweep"
    config.write_text(json.dumps(
        {"data": str(data), "out": str(sweep), "rates": [float(rate)], "seeds": [1, -1]}))
    # every cell's settings are checked before the first cell runs
    assert main(["sweep", "--config", str(config)]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not model.exists() and not sweep.exists()


@pytest.mark.parametrize("rate", ["7", "-0.5", "nan"])
@pytest.mark.parametrize("record", [False, True], ids=["sampled", "record"])
def test_bad_rate_exits_2_naming_it_on_fit(tmp_path, capsys, rate, record):
    data = _synth_dataset(tmp_path)
    model = tmp_path / "model"
    supervision = []
    if record:  # a record's rate replaces --rate, and its valid rate does not stand in for it
        (tmp_path / "sup.json").write_text(json.dumps({"rate": 0.5, "supervised_ids": ["doc00"]}))
        supervision = ["--supervision", str(tmp_path / "sup.json")]
    assert main(["fit", "--data", str(data), "--rate", rate, *supervision, "--out", str(model)]) == 2
    assert f"supervision rate must be in [0, 1], got {float(rate)}" in capsys.readouterr().err
    assert not model.exists()


# every flag that takes a string; each names a file
STRING_FLAGS = [
    ("ingest", "--corpus"), ("ingest", "--stopwords"), ("ingest", "--out"),
    ("fit", "--data"), ("fit", "--supervision"), ("fit", "--out"),
    ("evaluate", "--model"), ("evaluate", "--data"), ("evaluate", "--out"),
    ("top-terms", "--model"), ("top-terms", "--data"), ("top-terms", "--out"),
    ("sweep", "--config"),
    ("synth", "--out"),
]


def _every_string_flag(inputs):
    """A valid argv for each command that sets every string flag; outputs go under inputs/out."""
    inputs.mkdir()
    data = _synth_dataset(inputs)
    model = inputs / "model"
    assert main(["fit", "--data", str(data), "--out", str(model)]) == 0
    (inputs / "stop.txt").write_text("wheat\n")
    (inputs / "sup.json").write_text(json.dumps({"supervised_ids": ["doc00"]}))
    out = inputs / "out"
    sweep = {"data": str(data), "out": str(out / "sweep"), "rates": [0.5], "seeds": [1]}
    (inputs / "sweep.json").write_text(json.dumps(sweep))
    argv = {
        "ingest": ["--corpus", _small_corpus(inputs), "--stopwords", inputs / "stop.txt",
                   "--min-chars", "100", "--out", out / "data"],
        "fit": ["--data", data, "--supervision", inputs / "sup.json", "--out", out / "model"],
        "evaluate": ["--model", model, "--data", data, "--out", out / "report"],
        "top-terms": ["--model", model, "--data", data, "--out", out / "top_terms.csv"],
        "sweep": ["--config", inputs / "sweep.json"],
        "synth": ["--docs", "20", "--terms", "30", "--topics", "3", "--out", out / "synth"],
    }
    return {command: [command, *map(str, args)] for command, args in argv.items()}


def test_every_string_flag_argv_is_valid(tmp_path, capsys):
    argvs = _every_string_flag(tmp_path / "inputs")
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    for command, subparser in commands.items():
        # an option of one value and no type takes a string
        strings = [a.option_strings[0] for a in subparser._actions if a.nargs is None and a.type is None]
        assert [(command, flag) for flag in strings] == [c for c in STRING_FLAGS if c[0] == command]
        assert main(argvs[command]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("command, flag", STRING_FLAGS)
def test_empty_file_name_exits_2_naming_the_flag(tmp_path, monkeypatch, capsys, command, flag):
    argv = _every_string_flag(tmp_path / "inputs")[command]
    argv[argv.index(flag) + 1] = ""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"error: {flag}: empty file name" in capsys.readouterr().err
    assert not list(work.iterdir())
    assert not (tmp_path / "inputs" / "out").exists()


# Each value one flag is set to in an otherwise valid argv; a flag that names a file is also
# given a missing path.  Only one size is large at a time: two large sizes together, such as
# --docs 10000000 --terms 1000 (80 GB), might be allocated.
EDGE_VALUES = ("", "0", "-1", "nan", "inf", "1e400", "1000000000000")
MISSING_PATH = "missing/path"
_COMMANDS = next(a for a in build_parser()._actions if a.dest == "command").choices
# (command, flag) -> whether it names a file, for every flag that takes a value, and each
# sweep config key as a flag of "sweep config"
EDGE_FLAGS = {
    **{(command, action.option_strings[0]): action.type is None
       for command, subparser in _COMMANDS.items()
       for action in subparser._actions if action.nargs is None},
    **{("sweep config", key): key in ("data", "out")
       for key in ("data", "out", "rates", "seeds", "topics", "weighted", "max_iter", "rel_tol")},
}
# the JSON token of each edge value in a sweep config (Python's json parses NaN and Infinity)
JSON_TOKENS = {"": '""', "nan": "NaN", "inf": "Infinity", MISSING_PATH: f'"{MISSING_PATH}"'}


@pytest.fixture(scope="module")
def edge_base(tmp_path_factory):
    """A 40x60x3 planted dataset, a model fitted to it and a 3-document corpus."""
    base = tmp_path_factory.mktemp("edge_base")
    data = _synth_dataset(base, docs=40, terms=60, topics=3)
    assert main(["fit", "--data", str(data), "--rate", "0.5", "--out", str(base / "model")]) == 0
    _small_corpus(base)
    return base


def _edge_run(base, command, flag=None, value=None) -> int:
    """``main``'s exit code on the valid argv of ``command`` with ``flag`` set to ``value``.

    A flag the argv lacks is added; the default ``--rel-tol`` stays, so a fit of
    ``--max-iter 1000000000000`` stops by convergence.  Outputs go under the working directory.
    """
    data, model = str(base / "data"), str(base / "model")
    config = {"data": data, "out": "out", "rates": [0.5], "seeds": [1]}
    text = json.dumps(config)
    if command == "sweep config":  # the value's JSON token, in a list for a list key
        config[flag] = ["@"] if flag in ("rates", "seeds") else "@"
        text = json.dumps(config).replace('"@"', JSON_TOKENS.get(value, value))
        command, flag = "sweep", None
    Path("sweep.json").write_text(text)
    argv = {
        "ingest": ["--corpus", str(base / "corpus.jsonl"), "--out", "out"],
        "fit": ["--data", data, "--out", "out"],
        "evaluate": ["--model", model, "--data", data, "--out", "out"],
        "top-terms": ["--model", model, "--data", data],
        "sweep": ["--config", "sweep.json"],
        "synth": ["--docs", "40", "--terms", "60", "--topics", "3", "--out", "out"],
    }[command]
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    elif flag is not None:
        argv += [flag, value]
    try:
        return main([command, *argv])
    except SystemExit as exc:  # argparse rejects the value
        return exc.code


@pytest.mark.parametrize("command", [*_COMMANDS])
def test_edge_base_argv_is_valid(edge_base, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert _edge_run(edge_base, command) == 0


@pytest.mark.parametrize("command, flag", list(EDGE_FLAGS))
def test_no_single_flag_edit_exits_1(edge_base, tmp_path, monkeypatch, command, flag):
    codes = {}
    for k, value in enumerate(EDGE_VALUES + (MISSING_PATH,) * EDGE_FLAGS[command, flag]):
        work = tmp_path / str(k)
        work.mkdir()
        monkeypatch.chdir(work)
        codes[value] = _edge_run(edge_base, command, flag, value)
    assert set(codes.values()) <= {0, 2, 3, 4}, codes


# one run of the command-line program per exit code, and per size no machine can allocate;
# each writes to "out", a sweep through its config
TOO_LARGE = "1000000000000"
EXIT_CASES = {
    "ok": (0, ["fit", "--data", "data"]),
    "input_error": (2, ["fit", "--data", "nowhere"]),
    "empty_vocabulary": (3, ["ingest", "--corpus", "corpus.jsonl", "--min-chars", "100000"]),
    # V holds an infinity: a sweep of one cell fails as the fit with its settings does
    "numerical_failure": (4, ["fit", "--data", "data", "--seed", "1"]),
    "sweep_numerical_failure": (4, ["sweep", "--config", "one_cell.json"]),
    "fit_topics_too_large": (2, ["fit", "--data", "data", "--topics", TOO_LARGE]),
    "sweep_topics_too_large": (2, ["sweep", "--config", "sweep.json"]),
    "synth_docs_too_large": (2, ["synth", "--docs", TOO_LARGE, "--terms", "60", "--topics", "3"]),
    "synth_terms_too_large": (2, ["synth", "--docs", "40", "--terms", TOO_LARGE, "--topics", "3"]),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_code_reaches_the_shell(tmp_path, run_python, case):
    code, argv = EXIT_CASES[case]
    data = _synth_dataset(tmp_path)
    _small_corpus(tmp_path)
    if code == 4:
        _rewrite(data, "data", _set(0, np.inf))
    config = {"data": "data", "out": "out", "rates": [0.5], "seeds": [1], "topics": int(TOO_LARGE)}
    (tmp_path / "sweep.json").write_text(json.dumps(config))
    config = {"data": "data", "out": "out", "rates": [0.0], "seeds": [1]}
    (tmp_path / "one_cell.json").write_text(json.dumps(config))
    out = [] if argv[0] == "sweep" else ["--out", "out"]
    proc = run_python(["-m", "tsnmf.cli", *argv, *out], cwd=tmp_path,
                      capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    if case.endswith("_too_large"):
        assert "error: cannot allocate: " in proc.stderr
    out = tmp_path / "out"
    # a failed run leaves no output, but for a numerical failure's loss trace, which a
    # sweep leaves in its cell beside its tables
    left = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    expected = {0: sorted(FIT_FILES), 4: ["trace.csv"]}.get(code, [])
    if argv[0] == "sweep" and code == 4:
        expected = ["cells/rate_0.0/seed_1/trace.csv", "sweep.csv", "sweep_summary.csv",
                    "sweep_timing.csv"]
    assert left == expected
    # one line, no warning and no traceback
    if code == 4:
        assert proc.stderr == "error: H update produced NaN or Inf entries (iteration 1)\n"
    elif code:
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


# python -c KILL <file> <argv>: run main on argv, and exit at once where it would write <file>
KILL = """
import os, sys
from tsnmf import cli, matrix
write_file = matrix.write_file

def write_or_die(path, content):
    if os.path.basename(path) == sys.argv[1]:
        os._exit(9)
    write_file(path, content)

matrix.write_file = write_or_die
cli.main(sys.argv[2:])
"""
# a run into a directory that holds an earlier run, killed before it writes the named file,
# and the commands that must then refuse the directory, naming its header
KILLED_RUNS = {
    "fit": (["fit", "--data", "data", "--rate", "0.5", "--max-iter", "5", "--out", "model"],
            "model", "H.npy", ["evaluate", "top-terms"], "model.json"),
    "sweep cell": (["sweep", "--config", "sweep.json"], "sweep/cells/rate_0.5/seed_1",
                   "report.json", ["evaluate", "top-terms"], "model.json"),
    "synth": (["synth", "--docs", "30", "--terms", "40", "--topics", "3", "--out", "data"],
              "data", "meta.json", ["fit"], "meta.json"),
    "ingest": (["ingest", "--corpus", "corpus.jsonl", "--out", "data"],
               "data", "matrix.data.npy", ["fit"], "meta.json"),
}


@pytest.mark.parametrize("run", list(KILLED_RUNS))
def test_killed_run_leaves_a_directory_every_reader_refuses(tmp_path, monkeypatch, capsys,
                                                             run_python, run):
    argv, directory, killed_at, readers, header = KILLED_RUNS[run]
    monkeypatch.chdir(tmp_path)
    _small_corpus(tmp_path)
    (tmp_path / "sweep.json").write_text(json.dumps(
        {"data": "data", "out": "sweep", "rates": [0.5], "seeds": [1], "max_iter": 5}))
    assert main(["synth", "--docs", "30", "--terms", "40", "--topics", "3", "--out", "data"]) == 0
    seeded = run in ("fit", "synth")  # the second run differs from the first where it can
    assert main([*argv, *["--seed", "1"] * seeded]) == 0
    proc = run_python(["-c", KILL, killed_at, *argv, *["--seed", "2"] * seeded],
                      capture_output=True, text=True)
    assert proc.returncode == 9, proc.stderr
    assert not (tmp_path / directory / header).exists()
    model = ["--model", directory, "--data", "data"]
    for command in readers:
        capsys.readouterr()
        rc = main({"evaluate": ["evaluate", *model, "--out", "report"],
                   "top-terms": ["top-terms", *model],
                   "fit": ["fit", "--data", directory, "--out", "refit"]}[command])
        assert rc == 2 and header in capsys.readouterr().err, command


ARTIFACT_READERS = {
    "model.json": read_json,
    "supervision.json": read_json,
    "report.json": read_json,
    "W.npy": lambda path: read_npy(path, 2, np.floating),
    "H.npy": lambda path: read_npy(path, 2, np.floating),
    **dict.fromkeys(
        ("W.csv", "H.csv", "trace.csv", "sweep.csv", "sweep_summary.csv", "sweep_timing.csv"), None
    ),
}


def test_killed_sweep_leaves_each_artifact_whole_or_absent(tmp_path, run_python):
    data = _synth_dataset(tmp_path, docs=60, terms=80, topics=4)
    out = tmp_path / "sweep"
    # 200 cells of 200 iterations each: seconds of work, far more than the wait below
    cfg = {"data": str(data), "out": str(out), "rates": [i / 19 for i in range(20)],
           "seeds": list(range(10)), "max_iter": 200, "rel_tol": 1e-12}
    (tmp_path / "sweep.json").write_text(json.dumps(cfg))
    proc = run_python(["-m", "tsnmf.cli", "sweep", "--config", str(tmp_path / "sweep.json")],
                      env={"OPENBLAS_NUM_THREADS": "1"}, start=subprocess.Popen,
                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while (proc.poll() is None and time.monotonic() < deadline
               and len(list(out.rglob("report.json"))) < 5):
            time.sleep(0.005)
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=30) == -signal.SIGKILL  # killed mid-run, not finished
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    files = [p for p in out.rglob("*") if p.is_file()]
    assert any(p.name == "W.npy" for p in files)
    for path in files:
        if path.name.startswith("."):
            assert path.name.endswith(".tmp")
            continue
        assert path.name in ARTIFACT_READERS
        read = ARTIFACT_READERS[path.name]
        if path.suffix == ".npy":
            read(path)
            continue
        text = path.read_text()
        assert text.endswith("\n"), path
        if read is not None:
            read(path)
        else:
            rows = list(csv.reader(text.splitlines()))
            assert len({len(row) for row in rows}) == 1, path


class TestSynth:
    def test_dataset_round_trip(self, tmp_path):
        data = _synth_dataset(tmp_path, docs=15, terms=20, topics=4, seed=9)
        dataset = read_dataset(data)
        V = read_matrix(data, dataset)
        assert V.shape == (15, 20)
        assert dataset.label_table.n_labels == 4
        assert not (data / "W_true.csv").exists() and not (data / "H_true.csv").exists()
        planted = make_planted_instance(15, 20, 4, noise_level=0.1, seed=9)
        assert V.tobytes() == planted.V.tobytes()
        again = _synth_dataset(tmp_path / "again", docs=15, terms=20, topics=4, seed=9)
        names = sorted(p.name for p in data.glob("matrix*"))
        assert names == sorted(p.name for p in again.glob("matrix*"))
        for name in names:
            assert (data / name).read_bytes() == (again / name).read_bytes()

    def test_rejects_bad_shape(self, tmp_path):
        rc = main(["synth", "--docs", "2", "--terms", "5", "--topics", "4", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "x"
        argv = ["synth", "--docs", "3", "--terms", "3", "--topics", "1", "--seed", "-1"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()
