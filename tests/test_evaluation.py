"""Scoring tests: weighted Jaccard, assignment, reports, top terms."""

import itertools

import numpy as np
import pytest

from tsnmf.errors import ShapeError
from tsnmf.evaluation import (
    RESOLVED_THRESHOLD,
    cross_similarity,
    hungarian_match,
    jaccard_match,
    max_normalize_columns,
    score_report,
    top_terms,
    write_report,
)
from tsnmf.matrix import read_json
from tsnmf.preprocessing import Vocabulary
from tsnmf.supervision import LabelTable, build_mask, topic_coverage
from tsnmf.synthetic import make_planted_instance


def brute_force_best_total(S):
    """Exhaustive assignment oracle for small similarity matrices."""
    d, dt = S.shape
    if d <= dt:
        return max(
            sum(S[i, perm[i]] for i in range(d))
            for perm in itertools.permutations(range(dt), d)
        )
    return max(
        sum(S[perm[j], j] for j in range(dt))
        for perm in itertools.permutations(range(d), dt)
    )


class TestJaccardMatch:
    def test_identity(self):
        x = np.array([0.5, 2.0, 0.0])
        assert jaccard_match(x, x) == 1.0

    def test_hand_case(self):
        assert jaccard_match([1, 0, 2], [0, 1, 2]) == 0.5

    def test_zero_vector_against_nonzero(self):
        assert jaccard_match([1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_both_zero_convention(self):
        assert jaccard_match([0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError, match="3 vs 2"):
            jaccard_match([1, 2, 3], [1, 2])

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.random(8) * rng.integers(0, 2, size=8)
            y = rng.random(8) * rng.integers(0, 2, size=8)
            j = jaccard_match(x, y)
            assert j == jaccard_match(y, x)
            assert 0.0 <= j <= 1.0

    def test_scale_sensitivity(self):
        x = np.array([0.3, 1.2, 0.7])
        for c in (0.5, 2.0, 10.0):
            assert jaccard_match(x, c * x) < 1.0


class TestCrossSimilarity:
    def test_self_comparison_has_unit_diagonal(self):
        rng = np.random.default_rng(1)
        W = rng.random((10, 4))
        S = cross_similarity(W, W)
        np.testing.assert_allclose(np.diag(S), 1.0, rtol=1e-15)

    def test_zero_column_scores_zero_against_nonzero(self):
        W = np.zeros((4, 1))
        Wt = np.ones((4, 2))
        np.testing.assert_array_equal(cross_similarity(W, Wt), [[0.0, 0.0]])

    def test_assembled_from_scalar_jaccard(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        Wt = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        S = cross_similarity(W, Wt)
        for a in range(2):
            for b in range(2):
                assert S[a, b] == jaccard_match(W[:, a], Wt[:, b])

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError, match="row count"):
            cross_similarity(np.ones((3, 2)), np.ones((4, 2)))


class TestMaxNormalizeColumns:
    def test_nonzero_columns_peak_at_one(self):
        rng = np.random.default_rng(2)
        W = rng.random((6, 3)) + 0.1
        out = max_normalize_columns(W)
        np.testing.assert_allclose(out.max(axis=0), 1.0, rtol=1e-15)

    def test_zero_columns_untouched(self):
        W = np.zeros((4, 2))
        W[:, 1] = [1.0, 2.0, 3.0, 4.0]
        out = max_normalize_columns(W)
        np.testing.assert_array_equal(out[:, 0], 0.0)


class TestHungarianMatch:
    def test_identity_matrix(self):
        m = hungarian_match(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert m.pairs == ((0, 0, 1.0), (1, 1, 1.0))
        assert m.total_similarity == 2.0

    def test_off_diagonal_beats_diagonal(self):
        m = hungarian_match(np.array([[0.9, 0.8], [0.85, 0.1]]))
        assert [(i, j) for i, j, _ in m.pairs] == [(0, 1), (1, 0)]
        assert m.total_similarity == pytest.approx(1.65)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            d = int(rng.integers(1, 7))
            dt = int(rng.integers(1, 7))
            S = rng.random((d, dt))
            m = hungarian_match(S)
            assert len(m.pairs) == min(d, dt)
            assert m.total_similarity == pytest.approx(
                brute_force_best_total(S), abs=1e-12
            )

    def test_dominates_random_permutations(self):
        rng = np.random.default_rng(4)
        S = rng.random((8, 8))
        best = hungarian_match(S).total_similarity
        for _ in range(200):
            perm = rng.permutation(8)
            assert best >= sum(S[i, perm[i]] for i in range(8)) - 1e-12

    def test_all_ties_prefer_low_index_pairs(self):
        m = hungarian_match(np.full((3, 3), 0.5))
        assert [(i, j) for i, j, _ in m.pairs] == [(0, 0), (1, 1), (2, 2)]

    def test_rectangular_unmatched_sides(self):
        rng = np.random.default_rng(5)
        m = hungarian_match(rng.random((2, 5)))
        assert len(m.pairs) == 2 and len(m.unmatched_labels) == 3
        assert m.unmatched_topics == ()
        m = hungarian_match(rng.random((5, 2)))
        assert len(m.pairs) == 2 and len(m.unmatched_topics) == 3
        topics = [i for i, _, _ in m.pairs]
        assert topics == sorted(topics)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            hungarian_match(np.array([[np.nan]]))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_side_leaves_the_other_unmatched(self, shape):
        m = hungarian_match(np.zeros(shape))
        assert m.pairs == () and m.total_similarity == 0.0
        assert m.unmatched_topics == tuple(range(shape[0]))
        assert m.unmatched_labels == tuple(range(shape[1]))


def _truth(matrix):
    """The label table whose indicator is the binary ``matrix``."""
    matrix = np.asarray(matrix, dtype=float)
    labels = tuple(f"l{j}" for j in range(matrix.shape[1]))
    doc_labels = tuple(frozenset(np.flatnonzero(row).tolist()) for row in matrix)
    table = LabelTable(labels=labels, doc_labels=doc_labels)
    assert table.indicator.tobytes() == matrix.tobytes()
    return table


class TestScoreReport:
    def test_perfect_recovery(self):
        rng = np.random.default_rng(6)
        Wt = (rng.random((12, 3)) < 0.4).astype(float)
        Wt[0] = [1, 0, 0]
        Wt[1] = [0, 1, 0]
        Wt[2] = [0, 0, 1]
        report = score_report(Wt.copy(), _truth(Wt))
        assert report.resolved_count == 3
        assert report.mean_similarity == pytest.approx(1.0)

    def test_zero_model_resolves_nothing(self):
        truth = _truth(np.eye(3))
        report = score_report(np.zeros((3, 3)), truth)
        assert report.resolved_count == 0

    def test_planted_instance_matches_hand_oracle(self):
        # three documents, three topics; model permutes the truth columns
        Wt = np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        )
        W = Wt[:, [2, 0, 1]] * 0.5  # scaled and permuted
        report = score_report(W, _truth(Wt))
        S = cross_similarity(max_normalize_columns(W), Wt)
        assert report.matching.total_similarity == pytest.approx(brute_force_best_total(S))
        assert [(i, j) for i, j, _ in report.matching.pairs] == [(0, 2), (1, 0), (2, 1)]
        assert report.resolved_count == 3
        assert report.mean_similarity == pytest.approx(1.0)

    def test_invariant_to_simultaneous_column_permutation(self):
        rng = np.random.default_rng(7)
        W = rng.random((15, 4))
        Wt = (rng.random((15, 4)) < 0.5).astype(float)
        base = score_report(W, _truth(Wt))
        perm = rng.permutation(4)
        permuted = score_report(W[:, perm], _truth(Wt[:, perm]))
        total = permuted.matching.total_similarity
        assert base.matching.total_similarity == pytest.approx(total)
        assert base.resolved_count == permuted.resolved_count

    def test_threshold_is_strict(self):
        truth = _truth(np.eye(10)[:, :1])
        at = score_report(np.ones((10, 1)), truth)  # Jaccard 1/10
        above = score_report(np.r_[np.ones(9), 0.0][:, None], truth)  # Jaccard 1/9
        assert at.matching.pairs[0][2] == RESOLVED_THRESHOLD == 0.1
        assert (at.resolved_count, above.resolved_count) == (0, 1)

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError, match="documents"):
            score_report(np.ones((3, 2)), _truth(np.ones((4, 2))))

    def test_coverage_passthrough(self):
        report = score_report(np.eye(2), _truth(np.eye(2)), coverage=0.75)
        assert report.coverage == 0.75


def _random_label_table(rng, min_labels):
    n, d = int(rng.integers(0, 30)), int(rng.integers(min_labels, 9))
    # label-set sizes 0..d, so empty sets are common
    doc_labels = tuple(
        frozenset(rng.choice(d, size=rng.integers(0, d + 1), replace=False).tolist())
        for _ in range(n)
    )
    return LabelTable(labels=tuple(f"l{j}" for j in range(d)), doc_labels=doc_labels)


class TestLabelIndicator:
    @pytest.mark.parametrize("seed", range(8))
    def test_indicator_matches_the_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        table = _random_label_table(rng, min_labels=1)
        n, d, doc_labels = table.n_docs, table.n_labels, table.doc_labels
        oracle = np.zeros((n, d))
        for i, idxs in enumerate(doc_labels):
            for j in idxs:
                oracle[i, j] = 1.0
        indicator = table.indicator
        assert indicator.dtype == np.float64 and indicator.shape == (n, d)
        assert indicator.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("topics", ["below", "equal", "above"])
    @pytest.mark.parametrize("seed", range(6))
    def test_build_mask_matches_the_row_loop(self, seed, topics):
        rng = np.random.default_rng(seed)
        table = _random_label_table(rng, min_labels=2)
        n, doc_labels = table.n_docs, table.doc_labels
        k = table.n_labels + {"below": -1, "equal": 0, "above": 2}[topics]
        eligible = [i for i, idxs in enumerate(doc_labels) if idxs and max(idxs) < k]
        supervised = {i for i in eligible if rng.random() < 0.6}
        oracle = np.ones((n, k))
        for i in supervised:
            oracle[i] = 0.0
            for j in doc_labels[i]:
                oracle[i, j] = 1.0
        mask = build_mask(table, supervised, n, k)
        assert mask.matrix.dtype == np.float64 and mask.matrix.tobytes() == oracle.tobytes()
        assert mask.supervised_rows == frozenset(supervised)

    @pytest.mark.parametrize("seed", range(8))
    def test_topic_coverage_matches_the_set_union(self, seed):
        rng = np.random.default_rng(seed)
        table = _random_label_table(rng, min_labels=1)
        for _ in range(5):
            # any rows, empty label sets included
            supervised = {i for i in range(table.n_docs) if rng.random() < rng.random()}
            covered = set().union(*(table.doc_labels[i] for i in supervised))
            assert topic_coverage(table, supervised) == len(covered) / table.n_labels


class TestPlantedInstance:
    def test_noiseless_instance_is_the_planted_product_bitwise(self):
        inst = make_planted_instance(30, 40, 4, noise_level=0.0, seed=3)
        assert inst.V.tobytes() == (inst.W_true @ inst.H_true).tobytes()

    def test_truth_is_the_label_table_of_the_planted_topics(self):
        inst = make_planted_instance(30, 40, 4, seed=3)
        assert inst.truth is inst.label_table
        assert inst.truth.indicator.tobytes() == (inst.W_true > 0).astype(float).tobytes()
        assert score_report(inst.W_true, inst.truth).resolved_count == 4


class TestTopTerms:
    def _vocab(self, *terms):
        return Vocabulary(terms=tuple(terms))

    def test_one_hot_row(self):
        vocab = self._vocab("corn", "sugar", "wheat")
        H = np.array([[0.0, 1.0, 0.0]])
        assert top_terms(H, vocab, 2)[0][0] == "sugar"

    def test_argmax_with_m_one(self):
        vocab = self._vocab("a", "b", "c")
        assert top_terms(np.array([[0.2, 0.9, 0.1]]), vocab, 1) == [["b"]]

    def test_tie_breaks_by_column_index(self):
        vocab = self._vocab("later", "earlier")
        assert top_terms(np.array([[0.5, 0.5]]), vocab, 2) == [["later", "earlier"]]

    def test_m_clamped_to_vocab_size(self):
        vocab = self._vocab("x", "y")
        assert top_terms(np.array([[1.0, 2.0]]), vocab, 10) == [["y", "x"]]

    def test_column_mismatch(self):
        with pytest.raises(ShapeError, match="vocabulary"):
            top_terms(np.ones((1, 3)), self._vocab("x", "y"), 1)


class TestReportIO:
    def test_json_round_trip(self, tmp_path):
        W = np.eye(3)
        report = score_report(W, _truth(np.eye(3)), coverage=0.5)
        write_report(tmp_path, report, labels=("l0", "l1", "l2"))
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        payload = read_json(tmp_path / "report.json")
        assert payload["resolved_count"] == 3
        assert payload["coverage"] == 0.5
        assert payload["threshold"] == RESOLVED_THRESHOLD
        pairs = [(p["topic"], p["label_index"], p["similarity"]) for p in payload["pairs"]]
        assert pairs == list(report.matching.pairs)
        assert [p["label"] for p in payload["pairs"]] == ["l0", "l1", "l2"]
