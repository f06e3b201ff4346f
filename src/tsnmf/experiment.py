"""The supervision pipeline and the supervision-rate sweep harness.

``fit``, ``evaluate`` and every sweep cell take one path: plan (``plan_fit``
samples the labeled rows, or maps the ids of a supervision record to rows and
takes its seed, then builds the mask and error weights into a ``FitPlan``),
fit (the plan's problem, through ``factorization.fit_batch``, of which
``factorization.fit`` is the one-problem call), record (``supervision.json``;
no other module of the package reads or writes it) and score (``score_report``
against the label table, and the coverage of the record's rows, which
``score_report`` does not take); mask, coverage and score all read
``LabelTable.indicator``.  A sweep runs that path over a grid of (supervision
rate, seed) cells against one dataset, read once, so the indicator is built
once.  It takes the grid in batches of ``factorization.batch_size`` cells, the
most ``fit_batch`` stacks at once: on a dense V as many as keep the stacked W
and H within V's size, on a CSR V one.  It plans a batch's cells, fits them in
one ``fit_batch`` call, which copies a dense ``V^T`` once per batch, not once
per fit, then records and scores each cell in order.  A cell fails as ``fit``
does, through ``one_run``: one of ``errors.INPUT_ERRORS``, from its supervision,
fit, record or score, is recorded in its row and kept as ``SweepCell.error``;
any other exception ends the sweep.  Files under the sweep directory:

    sweep.csv           one row per (rate, seed) cell, deterministic
    sweep_summary.csv   mean and stddev per rate over seeds
    sweep_timing.csv    wall time per cell: its own supervise, record and
                        score time plus an equal share of its batch's fit
                        time, all of it on a CSR V; 0 for a failed cell
                        (kept apart so sweep.csv is byte-reproducible)
    cells/rate_<r>/seed_<s>/   model and report artifacts per cell

A cell holds the bytes ``fit`` and ``evaluate`` write with the same
settings, bit for bit, so it can be re-inspected with the evaluate and
top-terms commands.
Every file is written whole through ``matrix.write_file`` (a temporary file
renamed into place), so a sweep killed midway leaves each cell file and
each sweep CSV either complete or absent; a cell writes its ``model.json``
last, after ``report.json``, so a cell without it was cut short.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataio import Dataset, read_dataset, read_matrix
from .evaluation import REPORT_FILENAME, EvaluationReport, score_report, write_report
from .errors import INPUT_ERRORS, NumericalFailureError
from .factorization import (MODEL_FILES, MODEL_HEADER, FitConfig, batch_size, fit_batch,
                            save_model, write_trace_csv)
from .matrix import check_distinct, read_json, remove_file, write_csv, write_json
from .supervision import (
    build_error_weights,
    build_mask,
    check_rate,
    check_seed,
    sample_supervised_set,
    topic_coverage,
)

SUPERVISION_FILENAME = "supervision.json"
# what a fit leaves in its directory, and a sweep cell, which also scores the fit
FIT_FILES = (*MODEL_FILES, SUPERVISION_FILENAME)
REPORT_FILES = (REPORT_FILENAME,)
CELL_FILES = (*FIT_FILES, *REPORT_FILES)
# (JSON types, description) of each field of a supervision record and of a sweep config
_SUPERVISION_FIELDS = {
    "supervised_ids": ([(str,)], "a list of document id strings"),
    "seed": ((int,), "an integer"),
    "rate": ((int, float, type(None)), "null or a number"),
}
_SWEEP_FIELDS = {
    **dict.fromkeys(("data", "out"), ((str,), "a path string")),
    "rates": ([(int, float)], "a list of numbers"),
    "seeds": ([(int,)], "a list of integers"),
    "topics": ((int, type(None)), "an integer or null"),
    "weighted": ((bool,), "true or false"),
    "max_iter": ((int,), "an integer"),
    "rel_tol": ((int, float), "a number"),
}
# FitConfig fields that fit's arguments and a SweepConfig both carry
_FIT_KNOBS = ("max_iter", "rel_tol", "weighted")

SWEEP_COLUMNS = (
    "rate",
    "seed",
    "status",
    "coverage",
    "mean_similarity",
    "resolved_count",
    "iterations",
    "final_loss",
)
SUMMARY_COLUMNS = ("rate", "n_ok", "mean_similarity_mean", "mean_similarity_std",
                   "resolved_mean", "resolved_std")
TIMING_COLUMNS = ("rate", "seed", "wall_time_s")


def _read_supervision(dataset: Dataset, path) -> tuple[set[int], int | None, float | None]:
    """The rows, seed and rate of a supervision spec or record, each checked.

    The rows are those of its list of distinct document ids; the seed is None
    when the record has none, else an integer >= 0; the rate is None or a
    number in [0, 1].  Every error names the file.
    """
    info = read_json(path, _SUPERVISION_FIELDS, optional=("seed", "rate"))
    ids = info["supervised_ids"]
    row = {doc_id: i for i, doc_id in enumerate(dataset.doc_ids)}
    missing = [x for x in ids if x not in row]
    if missing:
        raise ValueError(f"{path}: supervised_ids not in dataset: {missing[:5]}")
    check_distinct(f"{path}: 'supervised_ids' entry", ids)
    seed, rate = info.get("seed"), info.get("rate")
    if seed is not None:
        check_seed(seed, f"{path}: 'seed'")
    if rate is not None:
        check_rate(rate, f"{path}: 'rate'")
    return {row[x] for x in ids}, seed, rate


def topic_count(dataset: Dataset, topics: int | None) -> int:
    """``topics``, by default the dataset's label count; ``FitConfig`` checks it."""
    if topics is None:
        topics = dataset.label_table.n_labels
        if topics == 0:
            raise ValueError("dataset has no labels; pass fit --topics or the sweep key 'topics'")
    return topics


def fit_config(settings, d: int, seed: int) -> FitConfig:
    """The FitConfig of ``fit``'s parsed arguments or of a SweepConfig."""
    return FitConfig(d=d, seed=seed, **{key: getattr(settings, key) for key in _FIT_KNOBS})


@dataclass(frozen=True)
class FitPlan:
    """A supervised fit: its rows, the rate to record and its problem, whose seed is recorded."""

    rows: set[int]
    rate: float | None
    problem: tuple  # (mask, config, row_weights), as fit and fit_batch take it

    @property
    def config(self) -> FitConfig:
        return self.problem[1]


def plan_fit(dataset: Dataset, rate: float, config: FitConfig, spec=None) -> FitPlan:
    """The plan of a fit of ``dataset`` with ``config``, supervised at ``rate`` or by ``spec``.

    Sampled rows skip documents without labels, which cannot be supervised.
    A supervision ``spec`` file is a supervision record: its ids are the rows,
    its seed (if any) replaces the config's, and its rate, which selects
    nothing, is recorded again, so a fit given its own ``supervision.json``
    writes the same bytes.  W is masked to the rows' labels, and a weighted
    fit weights those rows by n / |rows|.
    """
    if spec is None:
        sampled = sample_supervised_set(dataset.n_docs, rate, config.seed)
        rows = {i for i in sampled if dataset.label_table.doc_labels[i]}
    else:
        check_rate(rate)  # the record's rate replaces it, but a bad one is still an error
        rows, seed, rate = _read_supervision(dataset, spec)
        config = replace(config, seed=config.seed if seed is None else seed)
    n = dataset.n_docs
    mask = build_mask(dataset.label_table, rows, n, config.d)
    weights = build_error_weights(n, rows).row_weight if config.weighted else None
    return FitPlan(rows, rate, (mask.matrix, config, weights))


def write_supervision(outdir, dataset: Dataset, plan: FitPlan) -> None:
    """Write supervision.json, a fit's first file, once the model.json there is deleted."""
    remove_file(Path(outdir) / MODEL_HEADER)  # save_model writes it again, last
    ids = sorted(dataset.doc_ids[i] for i in plan.rows)
    info = {"rate": plan.rate, "seed": plan.config.seed, "supervised_ids": ids}
    write_json(Path(outdir) / SUPERVISION_FILENAME, info)


def recorded_rows(dataset: Dataset, modeldir) -> set[int]:
    """The rows a model directory's supervision.json records as supervised; it must exist."""
    return _read_supervision(dataset, Path(modeldir) / SUPERVISION_FILENAME)[0]


@contextmanager
def one_run(outdir, names):
    """If the block raises, delete the files ``names`` from ``outdir``, then re-raise.

    A failed run leaves neither its own files nor an earlier run's there; a
    ``NumericalFailureError`` that carries losses then leaves them as ``trace.csv``.
    A killed run gets no clean-up: a fit deletes ``model.json`` before its first
    write and ``save_model`` writes it last, so a reader refuses what it leaves.
    """
    try:
        yield
    except Exception as exc:
        if Path(outdir).is_dir():
            for name in names:
                (Path(outdir) / name).unlink(missing_ok=True)
        if isinstance(exc, NumericalFailureError) and exc.losses:
            write_trace_csv(outdir, exc.losses)
        raise


def score(dataset: Dataset, W, supervised) -> tuple[EvaluationReport, float]:
    """The report of the fitted ``W`` against the dataset's labels, and ``supervised``'s coverage."""
    table = dataset.label_table
    return score_report(W, table), topic_coverage(table, supervised)


@dataclass(frozen=True)
class SweepConfig:
    """Grid definition plus fit and scoring parameters for one sweep."""

    data: str
    out: str
    rates: tuple[float, ...]
    seeds: tuple[int, ...]
    topics: int | None = None
    weighted: bool = False
    max_iter: int = FitConfig.max_iter
    rel_tol: float = FitConfig.rel_tol

    def __post_init__(self):
        for key, values in (("rates", self.rates), ("seeds", self.seeds)):
            if not values:
                raise ValueError(f"'{key}' must not be empty")
            check_distinct(f"'{key}' entry", values)
        for r in self.rates:
            check_rate(r, "rates")

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        """The sweep config of the JSON file ``path``; every error names the file."""
        raw = read_json(path, _SWEEP_FIELDS, optional=("topics", "weighted", "max_iter", "rel_tol"))
        unknown = set(raw) - set(_SWEEP_FIELDS)
        if unknown:
            raise ValueError(f"{path}: unknown sweep config keys: {sorted(unknown)}")
        for key in ("data", "out"):
            if raw[key] == "":  # "." would pass for a directory, as an empty flag would
                raise ValueError(f"{path}: '{key}': empty file name")
        if not Path(raw["data"]).is_dir():
            raise ValueError(f"{path}: sweep data directory not found: {raw['data']}")
        raw["seeds"] = tuple(raw["seeds"])
        raw["rates"] = tuple(map(float, raw["rates"]))  # numbers are read as floats
        if "rel_tol" in raw:
            raw["rel_tol"] = float(raw["rel_tol"])
        try:
            return cls(**raw)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class SweepCell:
    """Result of one (rate, seed) cell; numeric fields are None on failure."""

    rate: float
    seed: int
    status: str
    coverage: float | None = None
    mean_similarity: float | None = None
    resolved_count: int | None = None
    iterations: int | None = None
    final_loss: float | None = None
    wall_time_s: float = 0.0
    error: Exception | None = field(default=None, compare=False, repr=False)  # not a column


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[SweepCell, ...]
    summary: dict = field(default_factory=dict)


def run_cell(dataset: Dataset, plan, outcome, outdir, spent: float) -> SweepCell:
    """Record and score one fitted cell; its artifacts go to ``outdir``.

    ``outcome`` is the cell's (model, trace), or the error its supervision or
    fit ended with, which is raised here.  ``spent`` is the cell's time so far.
    """
    start = time.perf_counter()
    if isinstance(outcome, Exception):
        raise outcome
    model, trace = outcome
    report, coverage = score(dataset, model.W, plan.rows)
    write_supervision(outdir, dataset, plan)
    write_report(outdir, report, coverage)
    save_model(outdir, model, trace, plan.config)
    return SweepCell(
        rate=plan.rate,
        seed=plan.config.seed,
        status="ok",
        coverage=coverage,
        mean_similarity=report.mean_similarity,
        resolved_count=report.resolved_count,
        iterations=trace.iterations,
        final_loss=trace.final_loss,
        wall_time_s=spent + time.perf_counter() - start,
    )


def run_batch(dataset: Dataset, V, grid, configs: dict, out: Path) -> list[SweepCell]:
    """Run the (rate, seed) cells of ``grid`` with one ``fit_batch`` call.

    Every cell is supervised first, the supervised ones are fitted together,
    then each is recorded and scored in order.  A cell's wall time is its own
    supervise, record and score time plus an equal share of the batch's fit time.
    """
    clock = time.perf_counter
    plans, spent = [], []
    for rate, seed in grid:
        start = clock()
        try:
            plans.append(plan_fit(dataset, rate, configs[seed]))
        except INPUT_ERRORS as exc:
            plans.append(exc)
        spent.append(clock() - start)
    ready = [plan for plan in plans if isinstance(plan, FitPlan)]
    start = clock()
    fits = iter(fit_batch(V, [plan.problem for plan in ready]))
    share = (clock() - start) / max(1, len(ready))
    cells = []
    for (rate, seed), plan, own in zip(grid, plans, spent):
        cell_dir = out / "cells" / f"rate_{rate}" / f"seed_{seed}"
        outcome = next(fits) if isinstance(plan, FitPlan) else plan
        try:
            with one_run(cell_dir, CELL_FILES):
                cells.append(run_cell(dataset, plan, outcome, cell_dir, own + share))
        except INPUT_ERRORS as exc:
            cells.append(SweepCell(rate=rate, seed=seed, status=f"error: {exc}", error=exc))
    return cells


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Execute every (rate, seed) cell in order, batch by batch, and write the sweep CSVs."""
    dataset = read_dataset(cfg.data)
    V = read_matrix(cfg.data, dataset)
    d = topic_count(dataset, cfg.topics)
    # built before any cell runs, so a bad setting runs no cell and exits 2
    configs = {seed: fit_config(cfg, d, seed) for seed in cfg.seeds}
    out = Path(cfg.out)
    grid = [(rate, seed) for rate in cfg.rates for seed in cfg.seeds]
    size = batch_size(V, d)
    cells = []
    for start in range(0, len(grid), size):
        cells += run_batch(dataset, V, grid[start:start + size], configs, out)

    result = SweepResult(cells=tuple(cells), summary=_summarize(cells))
    for name, columns in (("sweep.csv", SWEEP_COLUMNS), ("sweep_timing.csv", TIMING_COLUMNS)):
        write_csv(out / name, [columns, *([getattr(c, k) for k in columns] for c in cells)])
    summary = sorted(result.summary.items())
    rows = ([rate, *(stats[k] for k in SUMMARY_COLUMNS[1:])] for rate, stats in summary)
    write_csv(out / "sweep_summary.csv", [SUMMARY_COLUMNS, *rows])
    return result


def _summarize(cells) -> dict:
    """Per-rate mean and stddev (sample, ddof=1 when possible) over ok cells."""
    by_rate: dict[float, list[SweepCell]] = {}
    for c in cells:
        if c.status == "ok":
            by_rate.setdefault(c.rate, []).append(c)
    summary = {}
    for rate in sorted(by_rate):
        ok = by_rate[rate]
        sims = np.array([c.mean_similarity for c in ok])
        res = np.array([c.resolved_count for c in ok], dtype=np.float64)
        ddof = 1 if len(ok) > 1 else 0
        summary[rate] = {
            "n_ok": len(ok),
            "mean_similarity_mean": float(sims.mean()),
            "mean_similarity_std": float(sims.std(ddof=ddof)),
            "resolved_mean": float(res.mean()),
            "resolved_std": float(res.std(ddof=ddof)),
        }
    return summary
