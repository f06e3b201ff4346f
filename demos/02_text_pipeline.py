"""From labeled text to topics: the whole pipeline in memory.

A toy corpus of three themes (grain trading, metals mining, shipping) is
encoded as TF-IDF, a third of the documents are supervised with their
labels, and the fitted topics are matched back to the labels.

Run:  python demos/02_text_pipeline.py
"""

import numpy as np

from tsnmf import (
    FitConfig,
    RawDocument,
    build_error_weights,
    build_label_table,
    build_mask,
    fit,
    ingest,
    sample_supervised_set,
    score_report,
    top_terms,
)

THEMES = {
    "grain": "wheat corn barley harvest acreage bushel grain elevator futures contract",
    "metal": "gold silver copper zinc mining smelter ingot ore assay refinery",
    "shipping": "vessel cargo freight tanker harbor voyage charter tonnage berth manifest",
}

rng = np.random.default_rng(7)
docs = []
for i in range(30):
    theme = list(THEMES)[i % 3]
    words = THEMES[theme].split()
    body = " ".join(rng.choice(words, size=60))
    docs.append(RawDocument(id=f"doc{i:02d}", text=body, labels=frozenset({theme})))

print("=" * 70)
print("1. Encode the corpus")
print("=" * 70)

result = ingest(docs, vocab_cap=30, min_chars=0)
V = result.tdm.matrix
print(f"matrix: {V.shape[0]} documents x {V.shape[1]} terms")
print(f"row norms all 1: {np.allclose(np.linalg.norm(V, axis=1), 1.0)}")
print(f"first vocabulary terms: {result.tdm.vocabulary.terms[:8]}")

print()
print("=" * 70)
print("2. Supervise a third of the documents")
print("=" * 70)

table = build_label_table(result.doc_labels)
n, d = V.shape[0], table.n_labels
supervised = sample_supervised_set(n, rate=0.33, seed=1)
mask = build_mask(table, supervised, n, d)
weights = build_error_weights(n, supervised)
print(f"labels: {table.labels}")
print(f"supervised documents: {sorted(supervised)}")
print(f"supervised row weight: {weights.row_weight.max():.2f} (inverse supervision rate)")

print()
print("=" * 70)
print("3. Fit with error weighting and score against the labels")
print("=" * 70)

config = FitConfig(d=d, seed=0, weighted=True)
model, trace = fit(V, mask.matrix, config, row_weights=weights.row_weight)
print(f"converged: {trace.stop_reason} after {trace.iterations} iterations")

report = score_report(model, table)
print(f"resolved topics: {report.resolved_count}/{d}")
for topic, label_idx, sim in report.matching.pairs:
    print(f"  topic {topic} -> {table.labels[label_idx]:9s} similarity {sim:.3f}")

print()
print("=" * 70)
print("4. Topics summarized by their heaviest terms")
print("=" * 70)

for j, terms in enumerate(top_terms(model.H, result.tdm.vocabulary, 3)):
    matched = next((table.labels[b] for a, b, _ in report.matching.pairs if a == j), "-")
    print(f"  topic {j} ({matched}): {', '.join(terms)}")
