"""Planted-structure instance generator for experiments and tests.

Builds a documents x terms matrix as a product of known non-negative
factors plus additive noise, along with the label table whose indicator is
the binary document-topic truth needed to score recovery.  No external
corpus required.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .supervision import LabelTable

MAX_TOPICS_PER_DOC = 3


@dataclass(frozen=True)
class PlantedInstance:
    """A synthetic dataset with known topic structure."""

    V: np.ndarray
    W_true: np.ndarray
    H_true: np.ndarray
    label_table: LabelTable

    @property
    def truth(self) -> LabelTable:
        """The label table, which ``score_report`` scores against."""
        return self.label_table


def make_planted_instance(
    n_docs: int,
    n_terms: int,
    d: int,
    noise_level: float = 0.1,
    seed: int = 0,
) -> PlantedInstance:
    """Generate V = W_true @ H_true + noise with known labels.

    Each document carries 1..MAX_TOPICS_PER_DOC distinct topics (every
    topic is used by at least one document).  Each topic owns a disjoint
    slice of anchor terms over a light background, so topics are
    separable.  Noise is a dense non-negative matrix rescaled so its
    Frobenius norm is ``noise_level`` times the signal's.
    """
    if d < 1 or n_docs < d or n_terms < d:
        raise ValueError(
            f"need n_docs >= d >= 1 and n_terms >= d, got n_docs={n_docs}, n_terms={n_terms}, d={d}"
        )
    if not (noise_level >= 0.0 and np.isfinite(noise_level)):
        raise ValueError(f"noise_level must be finite and >= 0, got {noise_level}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    W_bin = np.zeros((n_docs, d), dtype=np.float64)
    for i in range(n_docs):
        k = int(rng.integers(1, MAX_TOPICS_PER_DOC + 1))
        topics = rng.choice(d, size=min(k, d), replace=False)
        W_bin[i, topics] = 1.0
    # guarantee every topic appears somewhere
    for j in range(d):
        if W_bin[:, j].sum() == 0:
            W_bin[int(rng.integers(n_docs)), j] = 1.0

    W_true = W_bin * rng.uniform(0.5, 1.5, size=(n_docs, d))

    H_true = 0.05 * rng.random((d, n_terms))
    block = n_terms // d
    for j in range(d):
        lo = j * block
        hi = n_terms if j == d - 1 else (j + 1) * block
        H_true[j, lo:hi] += rng.uniform(0.5, 1.5, size=hi - lo)

    signal = W_true @ H_true
    noise = rng.random((n_docs, n_terms))
    noise *= noise_level * np.linalg.norm(signal) / np.linalg.norm(noise)
    V = signal + noise

    width = len(str(d - 1))
    names = tuple(f"topic{j:0{width}d}" for j in range(d))
    doc_labels = tuple(
        frozenset(int(j) for j in np.where(W_bin[i] > 0)[0]) for i in range(n_docs)
    )
    table = LabelTable(labels=names, doc_labels=doc_labels)
    return PlantedInstance(V=V, W_true=W_true, H_true=H_true, label_table=table)
