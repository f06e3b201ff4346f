"""Supervision masks, error weights, and labeled-subset sampling.

The mask is an n x d binary matrix: entry (i, j) is 0 when topic j is
forbidden in document i.  Documents outside the supervised subset are
unconstrained (all-ones rows), which is what makes zero supervision
collapse to plain NMF.  Error weights emphasize supervised rows by the
inverse supervision rate, n / |supervised|.

All sampling goes through numpy's PCG64 generator seeded explicitly, so
sweeps are reproducible for a given seed and numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidSupervisionError, ShapeError
from .matrix import check_distinct


@dataclass(frozen=True)
class LabelTable:
    """Distinct labels in lexicographic order plus per-document label indices.

    The label order defines the topic columns 0..d-1 used by masks, and
    the label columns that ``evaluation.score_report`` matches topics to.
    """

    labels: tuple[str, ...]
    doc_labels: tuple[frozenset[int], ...]

    def __post_init__(self):
        check_distinct("label", self.labels)
        if list(self.labels) != sorted(self.labels):
            raise ValueError("labels must be in lexicographic order")
        d = len(self.labels)
        valid = set(range(d))
        if not valid.issuperset(chain.from_iterable(self.doc_labels)):
            for i, idxs in enumerate(self.doc_labels):  # name the first bad document
                for j in idxs:
                    if j not in valid:
                        raise ValueError(f"document {i}: label index {j} out of range 0..{d - 1}")

    @property
    def n_docs(self) -> int:
        return len(self.doc_labels)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @cached_property
    def indicator(self) -> np.ndarray:
        """Read-only n_docs x n_labels float64 array; (i, j) = 1 iff document i has label j."""
        n = self.n_docs
        lengths = np.fromiter(map(len, self.doc_labels), dtype=np.int64, count=n)
        columns = np.fromiter(chain.from_iterable(self.doc_labels), dtype=np.int64,
                              count=int(lengths.sum()))
        m = np.zeros((n, self.n_labels), dtype=np.float64)
        m[np.repeat(np.arange(n), lengths), columns] = 1.0
        m.flags.writeable = False
        return m


def build_label_table(doc_label_names: Sequence[Iterable[str]]) -> LabelTable:
    """Build a LabelTable from per-document label-name sets."""
    names = sorted({name for labels in doc_label_names for name in labels})
    index = {name: j for j, name in enumerate(names)}
    doc_labels = tuple(
        frozenset(index[name] for name in labels) for labels in doc_label_names
    )
    return LabelTable(labels=tuple(names), doc_labels=doc_labels)


@dataclass(frozen=True)
class SupervisionMask:
    """Binary n x d matrix of permitted topic-document pairs."""

    matrix: np.ndarray
    supervised_rows: frozenset[int]

    def __post_init__(self):
        m = check_mask(self.matrix)
        rows = np.array(sorted(self.supervised_rows), dtype=np.int64)
        closed = rows[m[rows].sum(axis=1) < 1]
        if closed.size:
            raise InvalidSupervisionError(f"supervised row {closed[0]} permits no topic")
        if not np.delete(m, rows, axis=0).all():
            raise ValueError("unsupervised rows must be all ones")


@dataclass(frozen=True)
class ErrorWeights:
    """Per-document loss weights; 1 for unsupervised rows, >= 1 for supervised."""

    row_weight: np.ndarray

    def __post_init__(self):
        w = self.row_weight
        if w.ndim != 1:
            raise ShapeError(f"row weights must be 1-D, got ndim={w.ndim}")
        if w.size and w.min() < 1.0:
            raise ValueError(f"row weights must be >= 1, min is {w.min()}")


def check_rate(rate: float, name: str = "supervision rate") -> None:
    """Raise ``ValueError``, naming the rate ``name``, unless it lies in [0, 1]; NaN does not."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {rate}")


def check_count(value: int, name: str, least: int) -> None:
    """Raise ``ValueError``, naming ``name``, unless ``value`` is an integer >= ``least``.

    A numpy integer is one; a bool, a float and anything else are not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_topics(d: int) -> None:
    """Raise ``ValueError`` unless the topic count ``d`` is an integer >= 1."""
    check_count(d, "topic count", 1)


def check_seed(seed: int, name: str = "seed") -> None:
    """Raise ``ValueError``, naming the seed ``name``, unless it is an integer >= 0."""
    check_count(seed, name, 0)


def check_mask(L, shape: tuple[int, int] | None = None) -> np.ndarray:
    """The mask ``L`` as float64: 2-D, of ``shape`` if given (else ``ShapeError``), all 0 or 1."""
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or shape is not None and L.shape != shape:
        raise ShapeError(f"mask shape {L.shape}, expected {shape or 'a 2-D array'}")
    if not np.isin(L, (0.0, 1.0)).all():
        raise ValueError("mask entries must be exactly 0 or 1")
    return L


def sample_supervised_set(n: int, rate: float, seed: int) -> set[int]:
    """Draw a uniform random subset of round(rate * n) document indices.

    Reproducible for a given seed (PCG64).  Rounding is Python's
    round-half-even.
    """
    check_rate(rate)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    return {int(i) for i in rng.choice(n, size=round(rate * n), replace=False)}


def build_mask(
    labels: LabelTable, supervised: Iterable[int], n: int, d: int
) -> SupervisionMask:
    """Construct the supervision mask for a labeled subset.

    Supervised rows are the label table's indicator rows (a 1 exactly at
    their label columns); unsupervised rows are all ones.  A supervised
    document with no labels is a contract violation.  Errors name the
    lowest offending document.
    """
    if labels.n_docs != n:
        raise ShapeError(f"label table covers {labels.n_docs} documents, expected {n}")
    check_topics(d)
    supervised = frozenset(int(i) for i in supervised)
    rows = np.array(sorted(supervised), dtype=np.int64)
    outside = rows[(rows < 0) | (rows >= n)]
    if outside.size:
        raise ValueError(f"supervised index {outside[0]} out of range 0..{n - 1}")
    carried = labels.indicator[rows]
    empty = rows[~carried.any(axis=1)]
    if empty.size:
        raise InvalidSupervisionError(f"supervised document {empty[0]} has an empty label set")
    beyond = rows[carried[:, d:].any(axis=1)]
    if beyond.size:
        i = beyond[0]
        raise ShapeError(f"document {i} carries label index {max(labels.doc_labels[i])} "
                         f"but the mask has only {d} topics")
    matrix = np.ones((n, d), dtype=np.float64)
    matrix[rows] = 0.0
    matrix[rows, : labels.n_labels] = carried[:, :d]  # both min(d, n_labels) wide
    return SupervisionMask(matrix=matrix, supervised_rows=supervised)


def build_error_weights(n: int, supervised: Iterable[int]) -> ErrorWeights:
    """Weight supervised rows by n / |supervised|, unsupervised rows by 1."""
    rows = np.unique(np.asarray(list(supervised), dtype=np.int64))
    weights = np.ones(n, dtype=np.float64)
    if rows.size:
        weights[rows] = n / rows.size
    return ErrorWeights(row_weight=weights)


def topic_coverage(labels: LabelTable, supervised: Iterable[int]) -> float:
    """Fraction of all labels carried by at least one supervised document."""
    covered = labels.indicator[np.fromiter(supervised, dtype=np.int64)].any(axis=0)
    return int(covered.sum()) / labels.n_labels if labels.n_labels else 0.0
