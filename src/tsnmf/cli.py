"""Command-line front end: argument parsing, exit codes and printing.

Stages hand off through files: ``ingest`` (or ``synth``) writes a dataset
directory, ``fit`` writes a model directory, ``evaluate`` and
``top-terms`` read both, and ``sweep`` runs fit + evaluate over a
(rate, seed) grid.  Only ``fit`` and ``sweep`` read the dataset matrix;
``evaluate`` reads the model's ``W.npy`` and ``top-terms`` its ``H.npy``,
and no command reads the ``W.csv`` and ``H.csv`` export.  ``fit``,
``evaluate`` and the sweep share one plan -> fit -> record -> score path,
which lives in ``tsnmf.experiment``: ``fit`` checks its settings, then, as
a sweep cell does, plans the fit with ``plan_fit``, fits the plan's problem,
saves the model and records the supervision inside ``one_run``, so a failed
supervision leaves no model file either; this module only maps the path's
errors to exit codes.  ``fit --supervision`` takes a supervision record,
such as a model's ``supervision.json``, as the list of supervised ids and,
if it records one, the seed, which replaces ``--seed`` once that is checked.
``evaluate`` counts a topic resolved above the fixed ``RESOLVED_THRESHOLD``.

Exit codes are a stable contract, all of it in ``main``: 0 success, 2 input or
shape error, 3 empty-data error, 4 numerical failure.  An empty string for any
flag (each names a file) exits 2 naming the flag.  The commands raise (a sweep
whose cells all failed, its first cell's error) and ``main`` maps
``NumericalFailureError`` to 4, ``EmptyVocabularyError`` to 3 and the rest of
``errors.INPUT_ERRORS`` to 2, as it does ``MemoryError``: a size the machine
cannot allocate is an input too large for it.  Any other exception is a defect,
in ``fit`` as in a sweep cell, and exits 1 with its traceback.  A write error's
message starts with ``cannot write output:``, which ``matrix.write_file`` adds.
"""

from __future__ import annotations

import argparse
import sys

from .dataio import read_dataset, read_matrix, write_ingest_result, write_planted_instance
from .errors import INPUT_ERRORS, EmptyVocabularyError, NumericalFailureError
from .evaluation import RESOLVED_THRESHOLD, top_terms, write_report
from .experiment import (
    FIT_FILES,
    REPORT_FILES,
    SweepConfig,
    fit_config,
    one_run,
    plan_fit,
    recorded_rows,
    run_sweep,
    score,
    topic_count,
    write_supervision,
)
from .factorization import FitConfig, fit, read_factor, save_model
from .matrix import write_csv
from .preprocessing import (
    DEFAULT_MIN_CHARS,
    DEFAULT_VOCAB_CAP,
    check_settings,
    ingest,
    load_stopwords,
    read_corpus_jsonl,
)
from .synthetic import make_planted_instance

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_NUMERICAL = 4


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_ingest(args) -> int:
    check_settings(args.vocab_cap, args.min_chars)
    docs = read_corpus_jsonl(args.corpus)
    stopwords = None if args.stopwords is None else load_stopwords(args.stopwords)
    result = ingest(
        docs,
        vocab_cap=args.vocab_cap,
        min_chars=args.min_chars,
        stopwords=stopwords,
    )
    write_ingest_result(args.out, result)
    s = result.stats
    print(
        f"ingested {s['kept_docs']}/{s['input_docs']} documents, "
        f"vocabulary {s['vocab_size']}, zero rows {s['zero_rows']} -> {args.out}"
    )
    return EXIT_OK


def cmd_fit(args) -> int:
    dataset = read_dataset(args.data)
    V = read_matrix(args.data, dataset)
    config = fit_config(args, topic_count(dataset, args.topics), args.seed)
    with one_run(args.out, FIT_FILES):
        plan = plan_fit(dataset, args.rate, config, args.supervision)
        model, trace = fit(V, *plan.problem)
        write_supervision(args.out, dataset, plan)
        save_model(args.out, model, trace, plan.config)
    print(
        f"fit d={config.d} stopped after {trace.iterations} iterations "
        f"({trace.stop_reason}), final loss {trace.final_loss!r}"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    dataset = read_dataset(args.data)
    W = read_factor(args.model, "W")
    report = score(dataset, W, recorded_rows(dataset, args.model))
    with one_run(args.out, REPORT_FILES):
        write_report(args.out, report, labels=dataset.label_table.labels)
    print(
        f"resolved {report.resolved_count}/{len(report.matching.pairs)} topics "
        f"(threshold {RESOLVED_THRESHOLD}), mean similarity {report.mean_similarity:.4f}"
    )
    return EXIT_OK


def cmd_top_terms(args) -> int:
    dataset = read_dataset(args.data)
    tables = top_terms(read_factor(args.model, "H"), dataset.vocabulary, args.terms)
    if args.out is not None:
        width = len(tables[0]) if tables else 0
        header = ["topic"] + [f"term{k + 1}" for k in range(width)]
        write_csv(args.out, [header, *([j, *terms] for j, terms in enumerate(tables))])
    else:
        for j, terms in enumerate(tables):
            print(f"topic {j}: {', '.join(terms)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = SweepConfig.from_json(args.config)
    result = run_sweep(cfg)
    ok = sum(1 for c in result.cells if c.status == "ok")
    if ok == 0:  # the sweep fails as its first cell did, its tables written
        raise result.cells[0].error
    print(f"sweep finished: {ok}/{len(result.cells)} cells ok -> {cfg.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    inst = make_planted_instance(
        n_docs=args.docs,
        n_terms=args.terms,
        d=args.topics,
        noise_level=args.noise,
        seed=args.seed,
    )
    stats = {
        "synthetic": True,
        "docs": args.docs,
        "terms": args.terms,
        "topics": args.topics,
        "noise": args.noise,
        "seed": args.seed,
    }
    write_planted_instance(args.out, inst, stats=stats)
    print(f"planted instance {args.docs}x{args.terms}, {args.topics} topics -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsnmf",
        description="Topic-supervised non-negative matrix factorization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="encode a JSONL corpus as a dataset directory")
    p.add_argument("--corpus", required=True, help="JSON-lines corpus file")
    p.add_argument("--vocab-cap", type=int, default=DEFAULT_VOCAB_CAP)
    p.add_argument("--min-chars", type=int, default=DEFAULT_MIN_CHARS)
    p.add_argument("--stopwords", help="override the stopword list file")
    p.add_argument("--out", required=True, help="dataset output directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", help="fit a masked factorization to a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--topics", type=int, default=None, help="topic count (default: label count)")
    p.add_argument("--rate", type=float, default=0.0, help="supervision rate in [0, 1]")
    p.add_argument("--seed", type=int, default=FitConfig.seed)
    p.add_argument("--supervision", help="supervision record: 'supervised_ids', optional 'seed'")
    p.add_argument("--weighted", action="store_true", help="use error-weighted updates")
    p.add_argument("--max-iter", type=int, default=FitConfig.max_iter)
    p.add_argument("--rel-tol", type=float, default=FitConfig.rel_tol)
    p.add_argument("--out", required=True, help="model output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="score a model against the dataset labels")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("top-terms", help="show the heaviest terms of each topic")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--terms", type=int, default=3)
    p.add_argument("--out", help="write CSV here instead of printing")
    p.set_defaults(func=cmd_top_terms)

    p = sub.add_parser("sweep", help="run a supervision-rate grid from a config file")
    p.add_argument("--config", required=True, help="sweep config JSON")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    p.add_argument("--docs", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dataset output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name, value in vars(args).items():
        if value == "":
            return _fail(f"--{name.replace('_', '-')}: empty file name", EXIT_INPUT)
    try:
        return args.func(args)
    except NumericalFailureError as exc:
        return _fail(f"{exc} (iteration {exc.iteration})", EXIT_NUMERICAL)
    except EmptyVocabularyError as exc:
        return _fail(str(exc), EXIT_EMPTY)
    except INPUT_ERRORS as exc:
        return _fail(str(exc), EXIT_INPUT)
    except MemoryError as exc:  # numpy's message names the shape
        return _fail(f"cannot allocate: {exc}", EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
