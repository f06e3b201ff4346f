"""Mask construction, error weighting, sampling, and coverage tests."""

import re

import numpy as np
import pytest

from tsnmf.errors import InvalidSupervisionError, ShapeError
from tsnmf.evaluation import top_terms
from tsnmf.preprocessing import RawDocument, Vocabulary, ingest
from tsnmf.supervision import (
    ErrorWeights,
    LabelTable,
    SupervisionMask,
    build_error_weights,
    build_label_table,
    build_mask,
    sample_supervised_set,
    topic_coverage,
)
from tsnmf.synthetic import make_planted_instance


def _table(doc_labels, n_labels=3):
    width = len(str(max(n_labels - 1, 0)))
    names = tuple(f"l{j:0{width}d}" for j in range(n_labels))
    return LabelTable(labels=names, doc_labels=tuple(frozenset(x) for x in doc_labels))


class TestLabelTable:
    def test_build_from_names_sorts_lexicographically(self):
        table = build_label_table([{"zebra"}, {"apple", "zebra"}, set()])
        assert table.labels == ("apple", "zebra")
        assert table.doc_labels == (frozenset({1}), frozenset({0, 1}), frozenset())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="^label 'a' appears more than once$"):
            LabelTable(labels=("a", "a"), doc_labels=())

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="lexicographic"):
            LabelTable(labels=("b", "a"), doc_labels=())

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            LabelTable(labels=("a",), doc_labels=(frozenset({1}),))

    @pytest.mark.parametrize("bad", [3, -1, 1.5])
    def test_out_of_range_index_names_the_first_bad_document(self, bad):
        doc_labels = [{0}, {1, 2}, set(), {2, bad}, {0, bad}]
        with pytest.raises(ValueError, match=rf"^document 3: label index {bad} out of range 0\.\.2$"):
            _table(doc_labels)

    def test_indicator_is_built_once_and_read_only(self):
        table = _table([{2}, set(), {0, 1}])
        np.testing.assert_array_equal(table.indicator, [[0, 0, 1], [0, 0, 0], [1, 1, 0]])
        assert table.indicator is table.indicator
        with pytest.raises(ValueError, match="read-only"):
            table.indicator[1, 0] = 1.0


class TestSampleSupervisedSet:
    def test_rate_zero_is_empty(self):
        assert sample_supervised_set(10, 0.0, seed=1) == set()

    def test_no_documents_is_empty(self):
        assert sample_supervised_set(0, 0.5, seed=1) == set()

    def test_rate_one_is_everything(self):
        assert sample_supervised_set(10, 1.0, seed=1) == set(range(10))

    def test_size_and_determinism(self):
        a = sample_supervised_set(10, 0.3, seed=42)
        b = sample_supervised_set(10, 0.3, seed=42)
        assert len(a) == 3
        assert a == b

    def test_distinct_seeds_differ(self):
        a = sample_supervised_set(1000, 0.5, seed=1)
        b = sample_supervised_set(1000, 0.5, seed=2)
        assert a != b

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sample_supervised_set(10, 1.5, seed=0)

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_rejects_negative_seed_naming_it(self, rate):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            sample_supervised_set(10, rate, seed=-1)


class TestBuildMask:
    def test_supervised_row_is_indicator(self):
        table = _table([{2}, set()], n_labels=3)
        mask = build_mask(table, {0}, n=2, d=3)
        np.testing.assert_array_equal(mask.matrix[0], [0.0, 0.0, 1.0])

    def test_unsupervised_row_is_all_ones(self):
        table = _table([{2}, set()], n_labels=3)
        mask = build_mask(table, {0}, n=2, d=3)
        np.testing.assert_array_equal(mask.matrix[1], [1.0, 1.0, 1.0])

    def test_empty_supervised_set_degenerates_to_all_ones(self):
        table = _table([{0}, {1}], n_labels=3)
        mask = build_mask(table, set(), n=2, d=3)
        np.testing.assert_array_equal(mask.matrix, np.ones((2, 3)))

    def test_supervised_doc_without_labels_rejected(self):
        table = _table([set()], n_labels=2)
        with pytest.raises(InvalidSupervisionError, match="empty label set"):
            build_mask(table, {0}, n=1, d=2)

    def test_label_index_beyond_topic_count_rejected(self):
        table = _table([{2}], n_labels=3)
        with pytest.raises(ShapeError, match="only 2 topics"):
            build_mask(table, {0}, n=1, d=2)

    # frozenset({33, 2}) yields 33 first; the error names document 2 all the same
    @pytest.mark.parametrize("error, doc_labels, supervised, message", [
        (ValueError, [{0}] * 40, {41, -3, 40, -1}, "supervised index -3 out of range 0..39"),
        (InvalidSupervisionError, [{0}] * 2 + [set()] * 38, {33, 2}, "supervised document 2 "),
        (ShapeError, [{0}] * 2 + [{0, 3, 4}] * 38, {33, 2}, "document 2 carries label index 4 "),
    ], ids=["index", "empty", "beyond"])
    def test_errors_name_the_lowest_offending_document(self, error, doc_labels, supervised,
                                                       message):
        table = _table(doc_labels, n_labels=5)
        with pytest.raises(error, match=re.escape(message)):
            build_mask(table, supervised, n=40, d=3)

    def test_row_sums(self):
        rng = np.random.default_rng(11)
        doc_labels = [set(rng.choice(4, size=rng.integers(1, 4), replace=False).tolist()) for _ in range(20)]
        table = _table(doc_labels, n_labels=4)
        supervised = set(rng.choice(20, size=8, replace=False).tolist())
        mask = build_mask(table, supervised, n=20, d=4)
        sums = mask.matrix.sum(axis=1)
        for i in range(20):
            if i in supervised:
                assert 1 <= sums[i] <= 4
            else:
                assert sums[i] == 4
        assert np.isin(mask.matrix, (0.0, 1.0)).all()

    def test_extra_free_topics_forbidden_for_supervised_docs(self):
        table = _table([{0}], n_labels=1)
        mask = build_mask(table, {0}, n=1, d=4)
        np.testing.assert_array_equal(mask.matrix[0], [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("n, d, error, message", [
        (3, 2, ShapeError, "label table covers 2 documents, expected 3"),
        (2, 0, ValueError, "topic count must be >= 1, got 0"),
    ], ids=["n_other_than_the_table", "no_topics"])
    def test_rejects_bad_n_or_d(self, n, d, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build_mask(_table([{0}, {1}], n_labels=2), set(), n=n, d=d)

    @pytest.mark.parametrize("matrix, supervised, error, message", [
        (np.ones(2), set(), ShapeError, "mask shape (2,), expected a 2-D array"),
        (np.full((2, 2), 0.5), set(), ValueError, "mask entries must be exactly 0 or 1"),
        (np.array([[1.0, 1.0], [0.0, 0.0]]), {1}, InvalidSupervisionError,
         "supervised row 1 permits no topic"),
    ], ids=["one_d", "not_binary", "closed_row"])
    def test_constructor_rejects_malformed_masks(self, matrix, supervised, error, message):
        with pytest.raises(error, match=re.escape(message)):
            SupervisionMask(matrix=matrix, supervised_rows=frozenset(supervised))

    def test_constructor_rejects_constrained_unsupervised_row(self):
        from tsnmf.supervision import SupervisionMask

        bad = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="all ones"):
            SupervisionMask(matrix=bad, supervised_rows=frozenset())


class TestBuildErrorWeights:
    def test_inverse_rate(self):
        w = build_error_weights(100, set(range(20)))
        assert w.row_weight[0] == 5.0
        assert w.row_weight[99] == 1.0

    @pytest.mark.parametrize("weights, error, message", [
        (np.ones((2, 2)), ShapeError, "row weights must be 1-D, got ndim=2"),
        (np.array([1.0, 0.5]), ValueError, "row weights must be >= 1, min is 0.5"),
    ], ids=["two_d", "below_one"])
    def test_constructor_rejects_malformed_weights(self, weights, error, message):
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            ErrorWeights(row_weight=weights)

    def test_empty_supervised_gives_ones(self):
        np.testing.assert_array_equal(build_error_weights(5, set()).row_weight, 1.0)

    def test_all_supervised_gives_ones(self):
        np.testing.assert_array_equal(
            build_error_weights(5, set(range(5))).row_weight, 1.0
        )

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            picks = rng.integers(0, n, size=int(rng.integers(0, 2 * n))).tolist()  # repeats
            expected = np.ones(n)
            for i in set(picks):
                expected[i] = n / len(set(picks))
            for supervised in (picks, set(picks), np.array(picks, dtype=np.int64)):
                assert np.array_equal(build_error_weights(n, supervised).row_weight, expected)


class TestTopicCoverage:
    def test_empty_supervised(self):
        table = _table([{0}, {1}], n_labels=4)
        assert topic_coverage(table, set()) == 0.0

    def test_full_coverage(self):
        table = _table([{0, 1}, {2}, {3}], n_labels=4)
        assert topic_coverage(table, {0, 1, 2}) == 1.0

    def test_union_semantics(self):
        table = _table([{0}, {0, 2}, {1}], n_labels=4)
        assert topic_coverage(table, {0, 1}) == 0.5

    def test_monotone_under_growth(self):
        rng = np.random.default_rng(13)
        doc_labels = [set(rng.choice(6, size=rng.integers(1, 3), replace=False).tolist()) for _ in range(50)]
        table = _table(doc_labels, n_labels=6)
        order = rng.permutation(50)
        prev = 0.0
        for k in range(0, 51, 5):
            cov = topic_coverage(table, set(order[:k].tolist()))
            assert cov >= prev
            prev = cov


_CORPUS = [RawDocument(id=f"d{i}", text=text, labels=frozenset())
           for i, text in enumerate(["wheat corn harvest", "gold silver mining", "wheat gold"])]
_VOCAB = Vocabulary(("corn", "gold", "wheat", "zinc"))
# setting -> (a call taking its value, the result's matrix; the name its messages give)
_COUNT_SETTINGS = {
    "vocab_cap": (lambda v: ingest(_CORPUS, vocab_cap=v, min_chars=0).tdm.matrix, "vocabulary cap"),
    "min_chars": (lambda v: ingest(_CORPUS, vocab_cap=4, min_chars=v).tdm.matrix, "min_chars"),
    "n_docs": (lambda v: make_planted_instance(v, 5, 2).V, "n_docs"),
    "n_terms": (lambda v: make_planted_instance(5, v, 2).V, "n_terms"),
    "d": (lambda v: make_planted_instance(5, 5, v).V, "topic count"),
    "top_terms": (lambda v: top_terms(np.eye(4), _VOCAB, v), "term count"),
}


@pytest.mark.parametrize("setting", _COUNT_SETTINGS)
@pytest.mark.parametrize("value, integer", [
    (2.0, None), (2.5, None), (True, None), (np.float64(2.0), None),
    (np.int64(2), 2), (np.uint8(2), 2),
], ids=["float", "fraction", "bool", "numpy_float", "int64", "uint8"])
def test_ingest_synth_and_top_terms_counts_follow_the_one_integer_rule(setting, value, integer):
    """Each count of ingest, make_planted_instance and top_terms obeys check_count."""
    call, name = _COUNT_SETTINGS[setting]
    if integer is None:
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call(value)
    else:  # a numpy integer is one, and gives the bits of the Python int
        assert np.array_equal(call(value), call(integer))
