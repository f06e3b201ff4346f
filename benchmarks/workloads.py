"""Seeded workloads for the tsnmf stage benchmark.

Each workload is one closed-loop client: its stages run in order through
``tsnmf.cli.main`` and each waits for the one before it.  Stage argv use
paths relative to the pass directory the runner changes into, so a pass
writes nothing outside it.  Inputs come from the workload seed alone:
planted data through ``tsnmf synth --seed`` and the text corpus written
by ``write_zipf_corpus``.  The program sees only the generated files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DATA_DIR = "data"
MODEL_DIR = "model"
REPORT_DIR = "report"
TOP_TERMS_CSV = "top_terms.csv"
SWEEP_DIR = "sweep"


@dataclass(frozen=True)
class Stage:
    """One CLI invocation; ``phase`` is the end-to-end metric its time feeds."""

    phase: str  # "data", "model" or "report"
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # writes the seeded inputs of one run into a directory (part of set-up)
    prepare: Callable[[Path, int], None]
    # stage list of one pass, given the inputs directory and the seed
    stages: Callable[[Path, int], list[Stage]]
    evaluated_model: str
    top_terms: int
    # properties the output checks compare against
    expect: dict = field(default_factory=dict)


def matrix_files(datadir) -> list[Path]:
    """The dataset's matrix files; any on-disk format whose names start with 'matrix'."""
    return sorted(p for p in Path(datadir).glob("matrix*") if p.is_file())


def _synth(n: int, t: int, d: int, seed: int) -> Stage:
    return Stage("data", ("synth", "--docs", str(n), "--terms", str(t), "--topics", str(d),
                          "--noise", "0.1", "--seed", str(seed), "--out", DATA_DIR))


def _report_stages(model: str, terms: int) -> list[Stage]:
    return [
        Stage("report", ("evaluate", "--model", model, "--data", DATA_DIR, "--out", REPORT_DIR)),
        Stage("report", ("top-terms", "--model", model, "--data", DATA_DIR,
                         "--terms", str(terms), "--out", TOP_TERMS_CSV)),
    ]


def sweep_planted(n=150, t=500, d=10, rates=(0.0, 0.05, 0.2, 0.5), seeds=(1, 2),
                  max_iter=100) -> Workload:
    model = f"{SWEEP_DIR}/cells/rate_0.2/seed_{seeds[0]}"
    # rel_tol far below any step's gain: every cell runs max_iter iterations
    # whatever the seed, so a pass does the same work on every instance
    config = {"data": DATA_DIR, "out": SWEEP_DIR, "rates": list(rates), "seeds": list(seeds),
              "weighted": True, "max_iter": max_iter, "rel_tol": 1e-12}

    def prepare(inputs: Path, seed: int) -> None:
        (inputs / "sweep.json").write_text(json.dumps(config, indent=2) + "\n")

    def stages(inputs: Path, seed: int) -> list[Stage]:
        return [
            _synth(n, t, d, seed),
            Stage("model", ("sweep", "--config", str(inputs / "sweep.json"))),
            *_report_stages(model, 3),
        ]

    return Workload(
        name="sweep-planted",
        why=(f"error-weighted factorization leads: a {len(rates)}x{len(seeds)} rate-by-seed sweep "
             f"on a {n}x{t}x{d} planted instance, masks from all-ones to heavy, per-cell "
             "artifact writes; dataset parsing is second"),
        prepare=prepare,
        stages=stages,
        evaluated_model=model,
        top_terms=3,
        expect={"docs": n, "terms": t, "cells": len(rates) * len(seeds)},
    )


def dense_cli(n=100, t=2000, d=20, max_iter=20) -> Workload:
    def stages(inputs: Path, seed: int) -> list[Stage]:
        return [
            _synth(n, t, d, seed),
            Stage("model", ("fit", "--data", DATA_DIR, "--rate", "0.2", "--seed", "1",
                            "--weighted", "--max-iter", str(max_iter), "--rel-tol", "1e-12",
                            "--out", MODEL_DIR)),
            *_report_stages(MODEL_DIR, 5),
        ]

    return Workload(
        name="dense-cli",
        why=(f"dataset text write and parse dominate: a dense {n}x{t} planted matrix is written "
             f"once and parsed three times, while the fit is capped at {max_iter} iterations"),
        prepare=lambda inputs, seed: None,
        stages=stages,
        evaluated_model=MODEL_DIR,
        top_terms=5,
        expect={"docs": n, "terms": t},
    )


def text_zipf(n_docs=1500, n_words=8000, n_labels=20, mean_tokens=150, vocab_cap=2000,
              max_iter=25) -> Workload:
    def prepare(inputs: Path, seed: int) -> None:
        write_zipf_corpus(inputs / "corpus.jsonl", seed, n_docs=n_docs, n_words=n_words,
                          n_labels=n_labels, mean_tokens=mean_tokens)

    def stages(inputs: Path, seed: int) -> list[Stage]:
        return [
            Stage("data", ("ingest", "--corpus", str(inputs / "corpus.jsonl"),
                           "--vocab-cap", str(vocab_cap), "--min-chars", "250", "--out", DATA_DIR)),
            Stage("model", ("fit", "--data", DATA_DIR, "--rate", "0.3", "--seed", "1",
                            "--max-iter", str(max_iter), "--rel-tol", "1e-9", "--out", MODEL_DIR)),
            *_report_stages(MODEL_DIR, 3),
        ]

    return Workload(
        name="text-zipf",
        why=(f"the only workload through preprocessing and the plain update rule: {n_docs} "
             f"seeded Zipf documents, a {vocab_cap}-term TF-IDF vocabulary and a "
             f"{max_iter}-iteration fit"),
        prepare=prepare,
        stages=stages,
        evaluated_model=MODEL_DIR,
        top_terms=3,
        expect={"terms": vocab_cap},
    )


def workloads() -> dict[str, Workload]:
    return {w.name: w for w in (sweep_planted(), dense_cli(), text_zipf())}


def tiny_workloads() -> dict[str, Workload]:
    """The same three pipelines at shapes that run in about a second, for the self-test."""
    return {
        w.name: w
        for w in (
            sweep_planted(n=60, t=80, d=4, rates=(0.0, 0.2), seeds=(1, 2), max_iter=30),
            dense_cli(n=60, t=80, d=4, max_iter=10),
            text_zipf(n_docs=200, n_words=400, n_labels=5, mean_tokens=80, vocab_cap=150,
                      max_iter=10),
        )
    }


_SYLLABLES = [c + v for c in "bcdfghjklmnpqrstvwxyz" for v in "aeiou"]


def _word(k: int) -> str:
    # "x" plus two consonant-vowel syllables: alphabetic, five letters, and no
    # English stopword starts with "x", so every word survives tokenization.
    return "x" + _SYLLABLES[k // len(_SYLLABLES)] + _SYLLABLES[k % len(_SYLLABLES)]


def write_zipf_corpus(path: Path, seed: int, n_docs: int, n_words: int, n_labels: int,
                      mean_tokens: int, zipf_s: float = 1.1, short_share: float = 0.02) -> None:
    """Write a labeled JSONL corpus whose word frequencies follow per-label Zipf laws.

    Every label ranks the same ``n_words`` words in its own seeded order.
    A document carries 1 to 3 distinct labels and a Poisson(``mean_tokens``)
    number of tokens, or Poisson(20) for a ``short_share`` of documents, which
    the 250-character filter drops; each token picks one of its document's
    labels, then a word by that label's Zipf(``zipf_s``) rank distribution.
    """
    if n_words > len(_SYLLABLES) ** 2:
        raise ValueError(f"at most {len(_SYLLABLES) ** 2} synthetic words, asked for {n_words}")
    rng = np.random.default_rng(seed)
    words = np.array([_word(k) for k in range(n_words)])
    cdf = np.cumsum(np.arange(1, n_words + 1, dtype=np.float64) ** -zipf_s)
    cdf /= cdf[-1]
    rank_to_word = np.stack([rng.permutation(n_words) for _ in range(n_labels)])
    doc_labels = [rng.choice(n_labels, size=int(k), replace=False)
                  for k in rng.integers(1, 4, size=n_docs)]
    lengths = rng.poisson(np.where(rng.random(n_docs) < short_share, 20, mean_tokens))
    token_label = np.concatenate(
        [labels[rng.integers(0, len(labels), size=k)] for labels, k in zip(doc_labels, lengths)]
    )
    ranks = np.minimum(np.searchsorted(cdf, rng.random(token_label.size)), n_words - 1)
    tokens = words[rank_to_word[token_label, ranks]].tolist()
    width = len(str(n_labels - 1))
    with open(path, "w", encoding="utf-8") as fh:
        start = 0
        for i, (labels, k) in enumerate(zip(doc_labels, lengths)):
            doc = {
                "id": f"doc{i}",
                "labels": sorted(f"label{j:0{width}d}" for j in labels),
                "text": " ".join(tokens[start:start + k]),
            }
            start += k
            fh.write(json.dumps(doc) + "\n")
