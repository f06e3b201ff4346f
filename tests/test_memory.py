"""Peak memory of the whole-matrix passes, by tracemalloc, at 1000x2000 (d = 10).

Each pass holds its inputs, its outputs and at most one row block, so its peak,
outputs included, stays within a small multiple of its array: generating V
(the signal, and the noise that becomes V), taking V's CSR parts, writing them,
reading them back as a dense V, and the factor CSV export.  Scoring 20
topics of 1000 documents against 20 labels holds its similarity table and
about one ``ROW_BLOCK_BYTES`` topic block.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from tsnmf.dataio import read_dataset, read_matrix, write_planted_instance
from tsnmf.evaluation import cross_similarity
from tsnmf.matrix import ROW_BLOCK_BYTES, csr_parts, write_dense_csv
from tsnmf.synthetic import make_planted_instance

N_DOCS, N_TERMS, D = 1000, 2000, 10
V_BYTES = 8 * N_DOCS * N_TERMS


def _peak(fn, *args) -> int:
    """The tracemalloc peak of ``fn(*args)`` in bytes: what it allocates, its result included."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def planted():
    return make_planted_instance(N_DOCS, N_TERMS, D, seed=1)


@pytest.fixture(scope="module")
def dataset(planted, tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "data"
    write_planted_instance(path, planted)
    return path


def test_make_planted_instance_holds_signal_and_v(planted):
    assert _peak(make_planted_instance, N_DOCS, N_TERMS, D) <= 2.5 * V_BYTES


def test_csr_parts_hold_the_parts_and_a_mask(planted):
    assert _peak(csr_parts, planted.V) <= 2.5 * V_BYTES


def test_write_planted_instance_holds_the_parts(planted, tmp_path):
    assert _peak(write_planted_instance, tmp_path / "data", planted) <= 2.5 * V_BYTES


def test_dense_read_holds_the_parts_v_and_one_block(dataset):
    V = read_matrix(dataset, read_dataset(dataset))
    assert isinstance(V, np.ndarray) and V.shape == (N_DOCS, N_TERMS)
    assert _peak(read_matrix, dataset, read_dataset(dataset)) <= 3.5 * V_BYTES


def test_csv_export_holds_less_than_its_array(tmp_path):
    H = np.random.default_rng(2).random((20, 5000))
    assert _peak(write_dense_csv, H, tmp_path / "H.csv") <= H.nbytes


def test_scoring_holds_its_table_and_one_topic_block():
    # all (documents, topics, labels) minima at once would be 3.2 MB, three blocks
    rng = np.random.default_rng(3)
    W, truth = rng.random((1000, 20)), (rng.random((1000, 20)) < 0.3).astype(float)
    table_bytes = 8 * 20 * 20
    assert _peak(cross_similarity, W, truth) <= table_bytes + 1.25 * ROW_BLOCK_BYTES
