"""The package names the benchmark harness (``benchmarks/``) wraps or calls.

The harness times a layer by replacing a module attribute with a timing
wrapper, so a renamed attribute, or a call that stops going through it,
reads 0 for that layer and fails nothing there.  These tests pin both.
"""

import importlib
import json
from collections import Counter

import pytest

from tsnmf.cli import main

# the (module, attribute) pairs of benchmarks/tracing.py's TARGETS that resolve to a function
TRACED = [
    ("tsnmf.cli", "read_dataset"),
    ("tsnmf.experiment", "read_dataset"),
    ("tsnmf.cli", "write_ingest_result"),
    ("tsnmf.cli", "write_planted_instance"),
    ("tsnmf.factorization", "write_dense_csv"),
    ("tsnmf.cli", "read_corpus_jsonl"),
    ("tsnmf.cli", "ingest"),
    ("tsnmf.preprocessing", "tokenize"),
    ("tsnmf.preprocessing", "build_vocabulary"),
    ("tsnmf.preprocessing", "tfidf_encode"),
    ("tsnmf.experiment", "sample_supervised_set"),
    ("tsnmf.experiment", "build_error_weights"),
    ("tsnmf.experiment", "topic_coverage"),
    ("tsnmf.experiment", "build_mask"),
    ("tsnmf.cli", "fit"),
    ("tsnmf.factorization", "init_model"),
    ("tsnmf.factorization", "update_h"),
    ("tsnmf.factorization", "update_h_weighted"),
    ("tsnmf.factorization", "update_w"),
    ("tsnmf.factorization", "update_w_weighted"),
    ("tsnmf.cli", "save_model"),
    ("tsnmf.experiment", "save_model"),
    ("tsnmf.experiment", "score_report"),
    ("tsnmf.evaluation", "cross_similarity"),
    ("tsnmf.evaluation", "hungarian_match"),
    ("tsnmf.cli", "top_terms"),
    ("tsnmf.cli", "write_report"),
    ("tsnmf.experiment", "write_report"),
    ("tsnmf.cli", "run_sweep"),
    ("tsnmf.experiment", "run_cell"),
    ("tsnmf.cli", "make_planted_instance"),
]
# what the harness's runner and output checks call
CALLED = [
    ("tsnmf.cli", "main"),
    ("tsnmf.supervision", "build_mask"),
    ("tsnmf.supervision", "LabelTable"),
]


@pytest.mark.parametrize("module, name", TRACED + CALLED)
def test_benchmark_name_resolves_to_a_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def _count_calls(monkeypatch, names) -> Counter:
    """Wrap each (module, attribute) of ``names`` as the tracer does; the calls each one takes."""
    calls = Counter()
    for module, name in names:
        owner = importlib.import_module(module)

        def wrapper(*args, _key=(module, name), _original=getattr(owner, name), **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.fixture
def data(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--docs", "30", "--terms", "40", "--topics", "3", "--out", str(out)]) == 0
    return out


def test_fit_reaches_the_fit_and_the_writer_the_benchmark_patches(tmp_path, monkeypatch, data):
    import tsnmf.cli

    calls = _count_calls(monkeypatch, [("tsnmf.cli", "fit")])
    original, saved = tsnmf.cli.save_model, []

    # the corruption check's replacement takes these four arguments, positionally
    def save_model(outdir, model, trace, config):
        saved.append(outdir)
        original(outdir, model, trace, config)

    monkeypatch.setattr(tsnmf.cli, "save_model", save_model)
    out = tmp_path / "model"
    argv = ["fit", "--data", str(data), "--rate", "0.5", "--max-iter", "5", "--out", str(out)]
    assert main(argv) == 0
    assert calls == {("tsnmf.cli", "fit"): 1}
    assert saved == [str(out)]
    assert (out / "model.json").exists()


def test_sweep_reaches_each_cell_writer_and_init_through_the_patched_names(
        tmp_path, monkeypatch, data):
    names = [("tsnmf.experiment", "run_cell"), ("tsnmf.experiment", "save_model"),
             ("tsnmf.factorization", "init_model")]
    calls = _count_calls(monkeypatch, names)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"data": str(data), "out": str(tmp_path / "sweep"),
                                  "rates": [0.0, 0.5], "seeds": [1, 2], "max_iter": 5}))
    assert main(["sweep", "--config", str(config)]) == 0
    assert calls == dict.fromkeys(names, 4)


def test_evaluate_scores_through_the_patched_names(tmp_path, monkeypatch, data):
    model = tmp_path / "model"
    argv = ["fit", "--data", str(data), "--rate", "0.5", "--max-iter", "5", "--out", str(model)]
    assert main(argv) == 0
    names = [("tsnmf.experiment", "score_report"), ("tsnmf.evaluation", "cross_similarity"),
             ("tsnmf.evaluation", "hungarian_match")]
    calls = _count_calls(monkeypatch, names)
    argv = ["evaluate", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "r")]
    assert main(argv) == 0
    assert calls == dict.fromkeys(names, 1)
