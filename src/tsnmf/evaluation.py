"""Scoring fitted factors against ground-truth document labels.

A fitted W and the binary documents x labels indicator of a ``LabelTable``,
the same labels that build the supervision mask, are compared column-wise
(topic-wise) with the weighted Jaccard similarity, sum of entrywise minima
over sum of entrywise maxima.  An optimal one-to-one topic-to-label
assignment is then found with an in-repo Kuhn-Munkres solver, and topics
whose matched similarity is above the fixed ``RESOLVED_THRESHOLD`` count as
resolved.

Weighted Jaccard is scale-sensitive, so W columns are max-normalized
(each column divided by its maximum, zero columns left alone) before
scoring against the binary indicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ShapeError
from .matrix import as_dense, write_json
from .preprocessing import Vocabulary
from .supervision import LabelTable

# A matched topic whose similarity is above this counts as resolved.
RESOLVED_THRESHOLD = 0.1
# the file write_report writes under a report directory
REPORT_FILENAME = "report.json"


@dataclass(frozen=True)
class Matching:
    """One-to-one topic-to-label assignment with per-pair similarities."""

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_topics: tuple[int, ...]
    unmatched_labels: tuple[int, ...]

    @property
    def total_similarity(self) -> float:
        return float(sum(sim for _, _, sim in self.pairs))


@dataclass(frozen=True)
class EvaluationReport:
    """Matched similarities plus the headline numbers for one model."""

    matching: Matching
    mean_similarity: float
    resolved_count: int
    coverage: float | None = None


def jaccard_match(x, y) -> float:
    """Weighted Jaccard similarity: sum of minima over sum of maxima.

    Defined as 1 when both vectors are all-zero (they are identical).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ShapeError(f"jaccard length mismatch: {x.shape[0]} vs {y.shape[0]}")
    return float(cross_similarity(x[:, None], y[:, None])[0, 0])


def cross_similarity(W, Wt) -> np.ndarray:
    """Column-by-column weighted Jaccard between two matrices with equal row counts.

    Entry (a, b) compares column a of ``W`` with column b of ``Wt``.
    """
    W = as_dense(W, "W")
    Wt = as_dense(Wt, "truth")
    if W.shape[0] != Wt.shape[0]:
        raise ShapeError(f"row count mismatch: {W.shape[0]} vs {Wt.shape[0]}")
    d, dt = W.shape[1], Wt.shape[1]
    S = np.empty((d, dt), dtype=np.float64)
    for a in range(d):
        col = W[:, a : a + 1]
        mins = np.minimum(col, Wt).sum(axis=0)
        maxs = np.maximum(col, Wt).sum(axis=0)
        S[a, :] = np.where(maxs > 0.0, mins / np.where(maxs > 0.0, maxs, 1.0), 1.0)
    return S


def max_normalize_columns(W) -> np.ndarray:
    """Divide each column by its maximum; all-zero columns pass through."""
    W = as_dense(W, "W")
    col_max = W.max(axis=0, initial=0.0)
    safe = np.where(col_max > 0.0, col_max, 1.0)
    return W / safe[np.newaxis, :]


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Shortest-augmenting-path assignment for a rows <= cols cost matrix.

    Returns the column assigned to each row.  Ties are broken toward lower
    column indices by the ascending scan order.  O(rows^2 * cols).
    """
    n, m = cost.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    # p[j]: 1-based row matched to column j (0 = free); column 0 is virtual
    p = np.zeros(m + 1, dtype=np.int64)
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = np.where(~used)[0]
            cur = cost[i0 - 1, free - 1] - u[i0] - v[free]
            better = cur < minv[free]
            minv[free] = np.where(better, cur, minv[free])
            way[free[better]] = j0
            k = int(np.argmin(minv[free]))
            delta = minv[free][k]
            j1 = int(free[k])
            used_idx = np.where(used)[0]
            u[p[used_idx]] += delta
            v[used_idx] -= delta
            minv[free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
    assigned = np.empty(n, dtype=np.int64)
    for j in range(1, m + 1):
        if p[j] > 0:
            assigned[p[j] - 1] = j - 1
    return assigned


def hungarian_match(similarity) -> Matching:
    """Maximum-total-similarity one-to-one assignment of size min(d, d~).

    Solved as a min-cost assignment on the negated similarities.  Among
    equally good alternatives the solver's ascending scan prefers lower
    (topic, label) indices.
    """
    S = as_dense(similarity, "similarity")
    if not np.isfinite(S).all():
        raise ValueError("similarity matrix contains non-finite entries")
    d, dt = S.shape
    if d <= dt:
        cols = _min_cost_assignment(-S)
        pairs = tuple((i, int(cols[i]), float(S[i, cols[i]])) for i in range(d))
    else:
        rows = _min_cost_assignment(-S.T)
        by_topic = sorted((int(rows[j]), j) for j in range(dt))
        pairs = tuple((i, j, float(S[i, j])) for i, j in by_topic)
    matched_topics = {i for i, _, _ in pairs}
    matched_labels = {j for _, j, _ in pairs}
    return Matching(
        pairs=pairs,
        unmatched_topics=tuple(i for i in range(d) if i not in matched_topics),
        unmatched_labels=tuple(j for j in range(dt) if j not in matched_labels),
    )


def score_report(
    model_W,
    truth: LabelTable,
    coverage: float | None = None,
) -> EvaluationReport:
    """Match topics to the labels of ``truth`` and summarize the similarities.

    ``model_W`` is the fitted documents x topics matrix (or a FactorModel;
    its W is used); it is scored against the table's ``indicator``.
    Columns are max-normalized before scoring.  A matched topic counts as
    resolved when its similarity is strictly above ``RESOLVED_THRESHOLD``.
    """
    W = getattr(model_W, "W", model_W)
    W = as_dense(W, "W")
    if W.shape[0] != truth.n_docs:
        raise ShapeError(f"model has {W.shape[0]} documents, truth has {truth.n_docs}")
    matching = hungarian_match(cross_similarity(max_normalize_columns(W), truth.indicator))
    mean = matching.total_similarity / len(matching.pairs) if matching.pairs else 0.0
    resolved = sum(1 for _, _, sim in matching.pairs if sim > RESOLVED_THRESHOLD)
    return EvaluationReport(
        matching=matching,
        mean_similarity=mean,
        resolved_count=resolved,
        coverage=coverage,
    )


def top_terms(H, vocab: Vocabulary, m: int) -> list[list[str]]:
    """The ``m`` heaviest terms of each topic row, descending, ties by column index."""
    H = as_dense(H, "H")
    if H.shape[1] != len(vocab):
        raise ShapeError(f"H has {H.shape[1]} columns for {len(vocab)} vocabulary terms")
    if m < 1:
        raise ValueError(f"term count must be >= 1, got {m}")
    out = []
    for row in H:
        order = np.argsort(-row, kind="stable")[:m]
        out.append([vocab.terms[int(j)] for j in order])
    return out


def write_report(outdir, report: EvaluationReport, labels: Sequence[str]) -> None:
    """Write report.json under ``outdir``; it records ``RESOLVED_THRESHOLD`` as "threshold"."""
    pairs = [
        {
            "topic": i,
            "label_index": j,
            "label": labels[j],
            "similarity": sim,
        }
        for i, j, sim in report.matching.pairs
    ]
    payload = {
        "pairs": pairs,
        "unmatched_topics": list(report.matching.unmatched_topics),
        "unmatched_labels": list(report.matching.unmatched_labels),
        "total_similarity": report.matching.total_similarity,
        "mean_similarity": report.mean_similarity,
        "resolved_count": report.resolved_count,
        "threshold": RESOLVED_THRESHOLD,
        "coverage": report.coverage,
    }
    write_json(Path(outdir) / REPORT_FILENAME, payload)
