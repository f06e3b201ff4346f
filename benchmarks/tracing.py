"""Spans around the calls into each tsnmf layer, recorded from outside the program.

``Tracer.install`` replaces the public functions that callers reach through
module attributes (for example ``tsnmf.cli.read_dataset`` or
``tsnmf.factorization.update_h_weighted``) with timing wrappers in this
process only; ``uninstall`` puts the originals back.  Spans record name,
start, end, parent span and run id, are kept in memory and are written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from workloads import matrix_files


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str


def _count_matrix_bytes(counts, args, kwargs, result):
    # read_dataset(datadir) and write_*(outdir): the dataset directory comes first
    counts["dataio.matrix_bytes"] += sum(p.stat().st_size for p in matrix_files(args[0]))


def _count_fit(counts, args, kwargs, result):
    trace = result[1]
    counts["factorization.iterations"] += trace.iterations
    counts[f"factorization.stops_{trace.stop_reason}"] += 1


def _count_cell(counts, args, kwargs, result):
    if result.status == "ok":
        counts["experiment.cells_ok"] += 1


# (module, attribute, span name, optional counter hook run on the result).
# A pair missing from the program is skipped, and its metrics read 0.
TARGETS = [
    ("tsnmf.cli", "read_dataset", "dataio.read_dataset", _count_matrix_bytes),
    ("tsnmf.experiment", "read_dataset", "dataio.read_dataset", _count_matrix_bytes),
    ("tsnmf.cli", "write_ingest_result", "dataio.write", _count_matrix_bytes),
    ("tsnmf.cli", "write_planted_instance", "dataio.write", _count_matrix_bytes),
    ("tsnmf.dataio", "read_sparse", "matrix.read_sparse", None),
    ("tsnmf.dataio", "write_sparse", "matrix.write_sparse", None),
    ("tsnmf.dataio", "write_dense_csv", "matrix.write_dense_csv", None),
    ("tsnmf.factorization", "write_dense_csv", "matrix.write_dense_csv", None),
    ("tsnmf.cli", "write_dense_csv", "matrix.write_dense_csv", None),
    ("tsnmf.factorization", "read_dense_csv", "matrix.read_dense_csv", None),
    ("tsnmf.cli", "read_corpus_jsonl", "preprocessing.read_corpus", None),
    ("tsnmf.cli", "ingest", "preprocessing.ingest", None),
    ("tsnmf.preprocessing", "tokenize", "preprocessing.tokenize",
     lambda c, a, k, r: c.update({"preprocessing.tokens": len(r)})),
    ("tsnmf.preprocessing", "build_vocabulary", "preprocessing.build_vocabulary",
     lambda c, a, k, r: c.update({"preprocessing.vocab_size": len(r)})),
    ("tsnmf.preprocessing", "tfidf_encode", "preprocessing.tfidf_encode",
     lambda c, a, k, r: c.update({"preprocessing.docs_kept": len(r.doc_ids)})),
    *[(module, fn, "supervision." + fn, None)
      for module in ("tsnmf.cli", "tsnmf.experiment")
      for fn in ("sample_supervised_set", "build_error_weights", "topic_coverage")],
    *[(module, "build_mask", "supervision.build_mask",
       lambda c, a, k, r: c.update({"supervision.supervised_rows": len(r.supervised_rows)}))
      for module in ("tsnmf.cli", "tsnmf.experiment")],
    ("tsnmf.cli", "fit", "factorization.fit", _count_fit),
    ("tsnmf.experiment", "fit", "factorization.fit", _count_fit),
    ("tsnmf.factorization", "init_model", "factorization.init", None),
    ("tsnmf.factorization", "update_h", "factorization.update_h", None),
    ("tsnmf.factorization", "update_h_weighted", "factorization.update_h", None),
    ("tsnmf.factorization", "update_w", "factorization.update_w", None),
    ("tsnmf.factorization", "update_w_weighted", "factorization.update_w", None),
    ("tsnmf.cli", "save_model", "factorization.save_model", None),
    ("tsnmf.experiment", "save_model", "factorization.save_model", None),
    ("tsnmf.cli", "load_model", "factorization.load_model", None),
    ("tsnmf.cli", "score_report", "evaluation.score_report", None),
    ("tsnmf.experiment", "score_report", "evaluation.score_report", None),
    ("tsnmf.evaluation", "cross_similarity", "evaluation.cross_similarity", None),
    ("tsnmf.evaluation", "hungarian_match", "evaluation.hungarian", None),
    ("tsnmf.cli", "top_terms", "evaluation.top_terms", None),
    ("tsnmf.cli", "write_report", "evaluation.write_report", None),
    ("tsnmf.experiment", "write_report", "evaluation.write_report", None),
    ("tsnmf.cli", "run_sweep", "experiment.run_sweep", None),
    ("tsnmf.experiment", "run_cell", "experiment.run_cell", _count_cell),
    ("tsnmf.cli", "make_planted_instance", "synthetic.make_planted", None),
]

# Per-layer metrics of one pass, in report order, with units.  A "_s" metric
# is a sum of span durations unless its definition below says otherwise.
LAYER_METRICS = {
    "cli.self_s": "s",
    "dataio.read_dataset_s": "s",
    "dataio.read_dataset_calls": "count",
    "dataio.write_s": "s",
    "dataio.matrix_bytes": "bytes",
    "matrix.read_sparse_s": "s",
    "matrix.write_sparse_s": "s",
    "matrix.read_dense_csv_s": "s",
    "matrix.write_dense_csv_s": "s",
    "preprocessing.read_corpus_s": "s",
    "preprocessing.tokenize_s": "s",
    "preprocessing.build_vocabulary_s": "s",
    "preprocessing.tfidf_encode_s": "s",
    "preprocessing.ingest_self_s": "s",
    "preprocessing.tokens": "count",
    "preprocessing.docs_kept": "count",
    "preprocessing.vocab_size": "count",
    "supervision.busy_s": "s",
    "supervision.supervised_rows": "count",
    "factorization.fit_s": "s",
    "factorization.fit_calls": "count",
    "factorization.iterations": "count",
    "factorization.iter_ms_p50": "ms",
    "factorization.init_s": "s",
    "factorization.update_h_s": "s",
    "factorization.update_w_s": "s",
    "factorization.fit_self_s": "s",
    "factorization.stops_converged": "count",
    "factorization.stops_max_iter": "count",
    "factorization.save_model_s": "s",
    "factorization.load_model_s": "s",
    "evaluation.score_report_s": "s",
    "evaluation.cross_similarity_s": "s",
    "evaluation.hungarian_s": "s",
    "evaluation.top_terms_s": "s",
    "evaluation.write_report_s": "s",
    "experiment.cell_s_p50": "s",
    "experiment.cells_ok": "count",
    "experiment.cells_failed": "count",
    "experiment.self_s": "s",
    "synthetic.make_planted_s": "s",
    # A traced run alternates traced and untraced passes; the difference of
    # these two pipeline times, taken minutes apart at most, is the tracing overhead.
    "tracing.pipeline_s": "s",
    "tracing.untraced_pipeline_s": "s",
}


class Tracer:
    """In-memory span recorder plus per-run event counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.run = ""
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name,
                    time.perf_counter(), 0.0, self.run)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, original, name, hook):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.counts[self.run][name + ".errors"] += 1
                raise
            finally:
                self.end(span)
            if hook is not None:
                hook(self.counts[self.run], args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, hook in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, hook))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "parent", "name", "start", "end", "run"])
            for s in self.spans:
                writer.writerow([s.id, "" if s.parent is None else s.parent, s.name,
                                 repr(s.start), repr(s.end), s.run])


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the summed durations of direct children, per span id."""
    child_time: Counter = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child_time[s.id] for s in spans}


def layer_metrics(tracer: Tracer, run: str) -> dict[str, float]:
    """Per-layer metrics of one run id (one traced pass), the tracing.* pair left out."""
    spans = [s for s in tracer.spans if s.run == run]
    own = self_times(spans)
    total: Counter = Counter()
    self_total: Counter = Counter()
    calls: Counter = Counter()
    for s in spans:
        total[s.name] += s.end - s.start
        self_total[s.name] += own[s.id]
        calls[s.name] += 1

    by_id = {s.id: s for s in spans}
    iteration_ms = []
    h_starts = defaultdict(list)
    for s in spans:
        if s.name == "factorization.update_h" and s.parent in by_id:
            h_starts[s.parent].append(s.start)
    for starts in h_starts.values():
        iteration_ms.extend(1000.0 * (b - a) for a, b in zip(starts, starts[1:]))
    cells = [s.end - s.start for s in spans if s.name == "experiment.run_cell"]
    counts = tracer.counts[run]

    m = {
        "cli.self_s": sum(v for k, v in self_total.items() if k.startswith("cli.")),
        "dataio.read_dataset_s": total["dataio.read_dataset"],
        "dataio.read_dataset_calls": calls["dataio.read_dataset"],
        "dataio.write_s": total["dataio.write"],
        "matrix.read_sparse_s": total["matrix.read_sparse"],
        "matrix.write_sparse_s": total["matrix.write_sparse"],
        "matrix.read_dense_csv_s": total["matrix.read_dense_csv"],
        "matrix.write_dense_csv_s": total["matrix.write_dense_csv"],
        "preprocessing.read_corpus_s": total["preprocessing.read_corpus"],
        "preprocessing.tokenize_s": total["preprocessing.tokenize"],
        "preprocessing.build_vocabulary_s": total["preprocessing.build_vocabulary"],
        "preprocessing.tfidf_encode_s": total["preprocessing.tfidf_encode"],
        "preprocessing.ingest_self_s": self_total["preprocessing.ingest"],
        "supervision.busy_s": sum(v for k, v in total.items() if k.startswith("supervision.")),
        "factorization.fit_s": total["factorization.fit"],
        "factorization.fit_calls": calls["factorization.fit"],
        "factorization.iter_ms_p50": statistics.median(iteration_ms) if iteration_ms else 0.0,
        "factorization.init_s": total["factorization.init"],
        "factorization.update_h_s": total["factorization.update_h"],
        "factorization.update_w_s": total["factorization.update_w"],
        "factorization.fit_self_s": self_total["factorization.fit"],
        "factorization.save_model_s": total["factorization.save_model"],
        "factorization.load_model_s": total["factorization.load_model"],
        "evaluation.score_report_s": total["evaluation.score_report"],
        "evaluation.cross_similarity_s": total["evaluation.cross_similarity"],
        "evaluation.hungarian_s": total["evaluation.hungarian"],
        "evaluation.top_terms_s": total["evaluation.top_terms"],
        "evaluation.write_report_s": total["evaluation.write_report"],
        "experiment.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "experiment.cells_failed": counts["experiment.run_cell.errors"],
        "experiment.self_s": self_total["experiment.run_sweep"] + self_total["experiment.run_cell"],
        "synthetic.make_planted_s": total["synthetic.make_planted"],
    }
    return {name: m[name] if name in m else counts[name]
            for name in LAYER_METRICS if not name.startswith("tracing.")}
