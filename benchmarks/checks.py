"""Output checks on one pass directory.

Each check is one operation of the run: it passes or it fails, and a
failure counts toward ``error_rate``.  The checks read the artifacts with
numpy and the public ``tsnmf.supervision`` helpers only, so they judge
the files rather than repeat the program's own code paths.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from tsnmf.supervision import LabelTable, build_mask

from workloads import DATA_DIR, REPORT_DIR, SWEEP_DIR, TOP_TERMS_CSV, Workload

# The documented relative slack on loss monotonicity (tsnmf.factorization).
MONOTONE_SLACK = 1e-10
HASHED = ("model.json", "W.csv", "H.csv", "trace.csv")


def _matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _label_table(meta: dict) -> LabelTable:
    labels = tuple(meta["labels"])
    index = {name: j for j, name in enumerate(labels)}
    return LabelTable(labels=labels,
                      doc_labels=tuple(frozenset(index[x] for x in names)
                                       for names in meta["doc_labels"]))


def model_dirs(passdir: Path) -> list[Path]:
    return sorted(p.parent for p in passdir.rglob("model.json"))


def _check_data(meta: dict, wl: Workload) -> str | None:
    n, t = len(meta["doc_ids"]), len(meta["vocabulary"])
    if len(meta["doc_labels"]) != n:
        return f"{len(meta['doc_labels'])} label sets for {n} documents"
    if "docs" in wl.expect and n != wl.expect["docs"]:
        return f"{n} documents, expected {wl.expect['docs']}"
    if "terms" in wl.expect and t != wl.expect["terms"]:
        return f"{t} terms, expected {wl.expect['terms']}"
    return None


def _check_mask(model: Path, meta: dict) -> str | None:
    """W must be exactly 0 wherever the mask rebuilt from supervision.json is 0."""
    W = _matrix(model / "W.csv")
    ids = json.loads((model / "supervision.json").read_text())["supervised_ids"]
    row = {doc_id: i for i, doc_id in enumerate(meta["doc_ids"])}
    mask = build_mask(_label_table(meta), [row[x] for x in ids], W.shape[0], W.shape[1]).matrix
    bad = int(np.count_nonzero(W[mask == 0.0]))
    return f"{bad} non-zero W entries where the mask is 0" if bad else None


def _check_trace(model: Path) -> str | None:
    with open(model / "trace.csv", newline="") as fh:
        losses = np.array([float(r["loss"]) for r in csv.DictReader(fh)])
    header = json.loads((model / "model.json").read_text())
    if header["iterations"] != losses.size - 1:
        return f"model.json says {header['iterations']} iterations, trace has {losses.size - 1}"
    if not np.isfinite(losses).all():
        return "non-finite loss in trace.csv"
    up = np.nonzero(losses[1:] > losses[:-1] * (1.0 + MONOTONE_SLACK))[0]
    return f"loss increases beyond slack at iteration {int(up[0]) + 1}" if up.size else None


def _check_top_terms(passdir: Path, wl: Workload, meta: dict) -> str | None:
    H = _matrix(passdir / wl.evaluated_model / "H.csv")
    with open(passdir / TOP_TERMS_CSV, newline="") as fh:
        rows = list(csv.reader(fh))
    m = min(wl.top_terms, H.shape[1])
    if rows[0] != ["topic"] + [f"term{k + 1}" for k in range(m)] or len(rows) != H.shape[0] + 1:
        return f"top-terms CSV has header {rows[0]} and {len(rows) - 1} rows for {H.shape[0]} topics"
    vocab = meta["vocabulary"]
    for j, row in enumerate(rows[1:]):
        want = [vocab[int(k)] for k in np.argsort(-H[j], kind="stable")[:m]]
        if row != [str(j)] + want:
            return f"topic {j}: got {row[1:]}, H ranks {want}"
    return None


def _sweep_rows(passdir: Path) -> list[dict]:
    path = passdir / SWEEP_DIR / "sweep.csv"
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_report(passdir: Path, wl: Workload, sweep: list[dict]) -> str | None:
    report = json.loads((passdir / REPORT_DIR / "report.json").read_text())
    sim = report["mean_similarity"]
    if not 0.0 < sim <= 1.0:
        return f"mean similarity {sim} outside (0, 1]"
    cell = next((r for r in sweep if wl.evaluated_model.endswith(
        f"rate_{r['rate']}/seed_{r['seed']}")), None)
    if cell is not None and float(cell["mean_similarity"]) != sim:
        return f"evaluate scored {sim!r}, the sweep scored the same cell {cell['mean_similarity']}"
    return None


def check_pass(passdir: Path, wl: Workload) -> list[tuple[str, str | None]]:
    """Run every output check; returns (check name, failure message or None)."""
    results = []

    def run(name, fn, *args):
        try:
            results.append((name, fn(*args)))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            results.append((name, f"{type(exc).__name__}: {exc}"))

    try:
        meta = json.loads((passdir / DATA_DIR / "meta.json").read_text())
    except (OSError, ValueError) as exc:
        return [("data", f"no readable dataset: {exc}")]
    run("data", _check_data, meta, wl)
    sweep = _sweep_rows(passdir)
    if "cells" in wl.expect:
        run("sweep.rows", lambda: None if len(sweep) == wl.expect["cells"]
            else f"{len(sweep)} sweep rows, expected {wl.expect['cells']}")
    for r in sweep:
        results.append((f"sweep.cell[{r['rate']},{r['seed']}]",
                        None if r["status"] == "ok" else r["status"]))
    models = model_dirs(passdir)
    if not models:
        results.append(("models", "no model directory written"))
    for model in models:
        rel = model.relative_to(passdir)
        run(f"mask[{rel}]", _check_mask, model, meta)
        run(f"trace[{rel}]", _check_trace, model)
    run("report", _check_report, passdir, wl, sweep)
    run("top_terms", _check_top_terms, passdir, wl, meta)
    return results


def similarities(passdir: Path) -> list[float]:
    """Matched mean similarity of every model the pass scored."""
    sims = [float(r["mean_similarity"]) for r in _sweep_rows(passdir) if r["status"] == "ok"]
    report = passdir / REPORT_DIR / "report.json"
    if report.exists():
        sims.append(json.loads(report.read_text())["mean_similarity"])
    return sims


def artifact_hashes(passdir: Path) -> dict[str, str]:
    """SHA-256 of every byte-reproducible artifact, keyed by path in the pass."""
    paths = [m / name for m in model_dirs(passdir) for name in HASHED]
    paths.append(passdir / SWEEP_DIR / "sweep.csv")
    return {str(p.relative_to(passdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths if p.exists()}
