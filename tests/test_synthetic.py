"""Planted-instance generator tests."""

import numpy as np
import pytest

from tsnmf.synthetic import MAX_TOPICS_PER_DOC, make_planted_instance


@pytest.mark.parametrize("n, t, d, seed", [(1, 1, 1, 0), (40, 30, 3, 1), (200, 50, 10, 7)])
def test_labels_are_each_documents_topics(n, t, d, seed):
    inst = make_planted_instance(n, t, d, seed=seed)
    # the per-document reading of the truth; W_true is non-zero exactly where a document has a topic
    oracle = tuple(frozenset(int(j) for j in np.where(inst.W_true[i] > 0)[0]) for i in range(n))
    assert inst.label_table.doc_labels == oracle
    assert all(1 <= len(topics) <= MAX_TOPICS_PER_DOC for topics in oracle)
    assert inst.V.shape == (n, t) and inst.V.flags.c_contiguous
