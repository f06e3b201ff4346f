"""Scoring fitted factors against ground-truth document labels.

A fitted W and the binary documents x labels indicator of a ``LabelTable``,
the same labels that build the supervision mask, are compared column-wise
(topic-wise) with the weighted Jaccard similarity, sum of entrywise minima
over sum of entrywise maxima.  An optimal one-to-one topic-to-label
assignment is then found with an in-repo Kuhn-Munkres solver, and topics
whose matched similarity is above the fixed ``RESOLVED_THRESHOLD`` count as
resolved.  The report names the table's labels; coverage comes from the
supervision record, not from ``score_report``, and ``write_report`` is given it.

Both kernels keep the bits of their plain forms.  Similarities come in topic
blocks of ``matrix.ROW_BLOCK_BYTES``, each entry still summed over the
documents in order.  The solver runs on Python floats, O(rows^2 * cols), each
step's decrement folded into the next step's scan, the same one subtraction
per column; from about 200 columns numpy's whole-array steps are faster.

Weighted Jaccard is scale-sensitive, so W columns are max-normalized
(each column divided by its maximum, zero columns left alone) before
scoring against the binary indicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matrix
from .errors import ShapeError
from .matrix import as_dense, write_json
from .preprocessing import Vocabulary
from .supervision import LabelTable, check_count

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
    labels: tuple[str, ...]  # the scored table's label names, by matched index


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

    Entry (a, b) compares column a of ``W`` with column b of ``Wt``.  Topics
    are scored in blocks whose (rows, topics, labels) minima and maxima each
    fit in ``matrix.ROW_BLOCK_BYTES``; every sum runs over the rows in order,
    as one topic's (rows, labels) sums do.  Against one label, numpy sums a
    topic's column pairwise instead, so there a block is one topic.
    """
    W = as_dense(W, "W")
    Wt = as_dense(Wt, "truth")
    if W.shape[0] != Wt.shape[0]:
        raise ShapeError(f"row count mismatch: {W.shape[0]} vs {Wt.shape[0]}")
    (n, d), dt = W.shape, Wt.shape[1]
    step = max(1, matrix.ROW_BLOCK_BYTES // (8 * n * dt or 1)) if dt > 1 else 1
    S = np.empty((d, dt), dtype=np.float64)
    truth = Wt[:, None, :]
    for a in range(0, d, step):
        cols = W[:, a : a + step, None]
        mins = np.minimum(cols, truth).sum(axis=0)
        maxs = np.maximum(cols, truth).sum(axis=0)
        S[a : a + step] = np.where(maxs > 0.0, mins / np.where(maxs > 0.0, maxs, 1.0), 1.0)
    return S


def max_normalize_columns(W) -> np.ndarray:
    """Divide each column by its maximum; all-zero columns pass through."""
    W = as_dense(W, "W")
    col_max = W.max(axis=0, initial=0.0)
    safe = np.where(col_max > 0.0, col_max, 1.0)
    return W / safe[np.newaxis, :]


def _min_cost_assignment(cost: np.ndarray) -> list[int]:
    """Shortest-augmenting-path assignment for a rows <= cols cost matrix.

    Returns the column assigned to each row.  Each augmenting step scans the
    free columns in ascending order and moves to the first one of least
    reduced cost.  O(rows^2 * cols), on Python floats.  A step's least cost
    is taken from each free column's ``minv`` in the next step's scan: one
    subtraction per column, as when it is made at once, so the bits do not
    change, and a column that has left the free list is never read again.
    Below about 200 columns a list scan beats a dozen numpy calls per step;
    from there on it is slower, most on a table far wider than tall (about
    twice at 50 x 500).
    """
    n, m = cost.shape
    rows = cost.tolist()
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    # p[j]: 1-based row matched to column j (0 = free); column 0 is virtual
    p = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        used, free = [0], list(range(1, m + 1))
        minv = [np.inf] * (m + 1)
        delta = 0.0  # the last step's least cost, not yet taken from minv[free]
        while True:
            i0 = p[j0]
            row, ui = rows[i0 - 1], u[i0]
            least, j1 = np.inf, free[0]
            for j in free:
                cur = row[j - 1] - ui - v[j]
                low = minv[j] - delta
                if cur < low:
                    low = cur
                    way[j] = j0
                minv[j] = low
                if low < least:
                    least, j1 = low, j
            delta = least
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
            free.remove(j1)
            used.append(j1)
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    assigned = [0] * n
    for j in range(1, m + 1):
        if p[j] > 0:
            assigned[p[j] - 1] = j - 1
    return assigned


def hungarian_match(similarity) -> Matching:
    """Maximum-total-similarity one-to-one assignment of size min(d, d~).

    Solved as a min-cost assignment on the negated similarities, the
    smaller side as rows.  Among equally good alternatives the choice is
    not the lowest (topic, label) pairs: it is the first minimum in the
    ascending column scan of each augmenting step.  So
    ``[[1, 0, 0], [1, .5, .5], [0, .5, 0], [1, 1, 1]]`` gives the pairs
    (0, 0), (1, 2), (3, 1), not (0, 0), (1, 1), (3, 2).
    """
    S = as_dense(similarity, "similarity")
    if not np.isfinite(S).all():
        raise ValueError("similarity matrix contains non-finite entries")
    d, dt = S.shape
    if d <= dt:
        by_topic = enumerate(_min_cost_assignment(-S))
    else:
        by_topic = sorted(zip(_min_cost_assignment(-S.T), range(dt)))
    pairs = tuple((i, j, float(S[i, j])) for i, j in by_topic)
    matched_topics = {i for i, _, _ in pairs}
    matched_labels = {j for _, j, _ in pairs}
    return Matching(
        pairs=pairs,
        unmatched_topics=tuple(i for i in range(d) if i not in matched_topics),
        unmatched_labels=tuple(j for j in range(dt) if j not in matched_labels),
    )


def score_report(model_W, truth: LabelTable) -> EvaluationReport:
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
        labels=truth.labels,
    )


def top_terms(H, vocab: Vocabulary, m: int) -> list[list[str]]:
    """The ``m`` heaviest terms of each topic row, descending, ties by column index.

    Selected, not sorted: only the weights not below a row's m-th heaviest are
    sorted, which orders them as the row's full stable sort does, NaN last.
    """
    H = as_dense(H, "H")
    if H.shape[1] != len(vocab):
        raise ShapeError(f"H has {H.shape[1]} columns for {len(vocab)} vocabulary terms")
    check_count(m, "term count", 1)
    k = min(m, H.shape[1])
    out = []
    for row in H:
        cut = -np.partition(-row, k - 1)[k - 1] if k else np.nan  # the m-th heaviest weight
        kept = np.flatnonzero(~(row < cut))  # all of the row if fewer than k weights are numbers
        order = kept[np.argsort(-row[kept], kind="stable")[:m]]
        out.append([vocab.terms[int(j)] for j in order])
    return out


def write_report(outdir, report: EvaluationReport, coverage: float) -> None:
    """Write report.json under ``outdir``, with the record's ``coverage`` and the threshold."""
    pairs = [
        {
            "topic": i,
            "label_index": j,
            "label": report.labels[j],
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
        "coverage": coverage,
    }
    write_json(Path(outdir) / REPORT_FILENAME, payload)
