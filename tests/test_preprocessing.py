"""Text pipeline tests: tokenization, filters, vocabulary, TF-IDF."""

import json
import math

import numpy as np
import pytest

from tsnmf import factorization, preprocessing
from tsnmf.cli import main
from tsnmf.dataio import read_dataset, read_matrix
from tsnmf.errors import EmptyVocabularyError
from tsnmf.matrix import csr_parts, l2_normalize_rows
from tsnmf.preprocessing import (
    RawDocument,
    build_vocabulary,
    filter_documents,
    ingest,
    load_stopwords,
    read_corpus_jsonl,
    tfidf_encode,
    tokenize,
)


class TestTokenize:
    def test_stopwords_and_case(self):
        assert tokenize("The Bank of Japan bought") == ["bank", "japan", "bought"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_digits_punctuation_and_short_tokens(self):
        assert tokenize("EC-102,350 to") == []

    def test_splits_on_nonalphabetic(self):
        assert tokenize("corn/wheat+soy") == ["corn", "wheat", "soy"]

    def test_lowercases_each_token_after_matching(self):
        # U+212A KELVIN SIGN and U+0130 lowercase to ASCII letters, but are not
        # matched; lowercasing the text first would give "kelvin" and "i", "stanbul"
        assert tokenize("\u212aelvin \u0130stanbul") == ["elvin", "stanbul"]


class TestLoadStopwords:
    def test_default_list_size(self):
        words = load_stopwords()
        assert 150 <= len(words) <= 220
        assert "the" in words and "bought" not in words

    def test_explicit_path(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nfoo\nBAR\n")
        assert load_stopwords(path) == frozenset({"foo", "bar"})


class TestFilterDocuments:
    def test_threshold_boundary(self):
        short = RawDocument(id="a", text="x" * 249)
        kept = RawDocument(id="b", text="y" * 250)
        assert filter_documents([short, kept], min_chars=250) == [kept]

    def test_zero_threshold_keeps_everything(self):
        docs = [RawDocument(id="a", text=""), RawDocument(id="b", text="hi")]
        assert filter_documents(docs, min_chars=0) == docs

    def test_empty_corpus(self):
        assert filter_documents([], min_chars=250) == []

    def test_order_preserved(self):
        docs = [RawDocument(id=str(i), text="z" * 300) for i in range(5)]
        assert [d.id for d in filter_documents(docs)] == ["0", "1", "2", "3", "4"]


class TestBuildVocabulary:
    def test_document_frequency_order(self):
        docs = [["cat"], ["cat", "dog"], ["cat", "dog"], ["bird"]]
        vocab = build_vocabulary(docs, cap=1)
        assert vocab.terms == ("cat",)

    def test_cap_larger_than_vocab(self):
        vocab = build_vocabulary([["cat", "dog"]], cap=100)
        assert set(vocab.terms) == {"cat", "dog"}

    def test_lexicographic_tie_break(self):
        vocab = build_vocabulary([["beta", "alpha"]], cap=1)
        assert vocab.terms == ("alpha",)

    def test_repeats_within_doc_count_once(self):
        # document frequency, not raw frequency, drives the order
        docs = [["dog", "dog", "dog"], ["cat"], ["cat"]]
        assert build_vocabulary(docs, cap=1).terms == ("cat",)

    def test_empty_raises(self):
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary([[], []], cap=10)

    def test_index_matches_terms(self):
        vocab = build_vocabulary([["one", "two", "three"]], cap=3)
        for j, term in enumerate(vocab.terms):
            assert vocab.index[term] == j


class TestTfidfEncode:
    def test_single_nonzero_normalizes_to_one(self):
        vocab = build_vocabulary([["apple", "apple"], ["berry"]], cap=2)
        tdm = tfidf_encode([["apple", "apple"]], vocab)
        row = tdm.matrix[0]
        assert row[vocab.index["apple"]] == pytest.approx(1.0)
        assert row[vocab.index["berry"]] == 0.0

    def test_no_vocab_terms_gives_zero_row(self):
        vocab = build_vocabulary([["apple"]], cap=1)
        tdm = tfidf_encode([["zebra"], ["apple"]], vocab)
        np.testing.assert_array_equal(tdm.matrix[0], 0.0)
        assert tdm.zero_rows == (0,)

    def test_hand_computed_weights(self):
        docs = [["apple", "berry"], ["apple"]]
        vocab = build_vocabulary(docs, cap=2)
        tdm = tfidf_encode(docs, vocab)
        n = 2
        idf_apple = math.log((1 + n) / (1 + 2)) + 1.0
        idf_berry = math.log((1 + n) / (1 + 1)) + 1.0
        raw = np.array([[1.0 * idf_apple, 1.0 * idf_berry], [1.0 * idf_apple, 0.0]])
        expected = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        a, b = vocab.index["apple"], vocab.index["berry"]
        np.testing.assert_allclose(tdm.matrix[:, [a, b]], expected, rtol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(tdm.matrix, axis=1), 1.0, atol=1e-12)

    def test_rejects_mismatched_doc_ids(self):
        vocab = build_vocabulary([["apple"]], cap=1)
        with pytest.raises(ValueError, match="doc_ids"):
            tfidf_encode([["apple"]], vocab, doc_ids=["a", "b"])


def _corpus():
    body = "wheat corn harvest acreage " * 20
    return [
        RawDocument(id="d1", text=body + "wheat futures rally", labels=frozenset({"grain"})),
        RawDocument(id="d2", text=body + "corn exports surge", labels=frozenset({"grain", "trade"})),
        RawDocument(id="d3", text="too short", labels=frozenset({"noise"})),
        RawDocument(id="d4", text="gold silver copper mining " * 15, labels=frozenset()),
    ]


class TestIngest:
    def test_pipeline_invariants(self):
        result = ingest(_corpus(), vocab_cap=10, min_chars=250)
        m = result.tdm.matrix
        assert result.stats["dropped_short"] == 1
        assert m.min() >= 0.0
        nonzero = m.any(axis=1)
        norms = np.linalg.norm(m[nonzero], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert len(result.tdm.vocabulary) <= 10
        stop = load_stopwords()
        for term in result.tdm.vocabulary.terms:
            assert len(term) >= 3 and term not in stop

    def test_deterministic(self):
        r1 = ingest(_corpus(), vocab_cap=10, min_chars=250)
        r2 = ingest(_corpus(), vocab_cap=10, min_chars=250)
        np.testing.assert_array_equal(r1.tdm.matrix, r2.tdm.matrix)
        assert r1.tdm.vocabulary.terms == r2.tdm.vocabulary.terms
        assert r1.tdm.doc_ids == r2.tdm.doc_ids

    def test_doc_labels_aligned_with_rows(self):
        result = ingest(_corpus(), vocab_cap=10, min_chars=250)
        assert result.tdm.doc_ids == ("d1", "d2", "d4")
        assert result.doc_labels == (
            frozenset({"grain"}),
            frozenset({"grain", "trade"}),
            frozenset(),
        )


class TestReadCorpusJsonl:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "text": "hello world", "labels": ["x"]}\n'
            '{"id": "b", "text": "more text", "labels": []}\n'
        )
        docs = read_corpus_jsonl(path)
        assert [d.id for d in docs] == ["a", "b"]
        assert docs[0].labels == frozenset({"x"})

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "ok", "labels": []}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_corpus_jsonl(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "labels": []}\n')
        with pytest.raises(ValueError, match="line 1.*text"):
            read_corpus_jsonl(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        line = json.dumps({"id": "a", "text": "x", "labels": []})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_corpus_jsonl(path)


def _dense_tfidf(tokenized, vocab):
    """The dense n x t construction tfidf_encode replaced, kept as the reference."""
    n, t = len(tokenized), len(vocab)
    counts = np.zeros((n, t), dtype=np.float64)
    df = np.zeros(t, dtype=np.float64)
    for i, tokens in enumerate(tokenized):
        row_seen = set()
        for token in tokens:
            j = vocab.index.get(token)
            if j is None:
                continue
            counts[i, j] += 1.0
            row_seen.add(j)
        for j in row_seen:
            df[j] += 1.0
    idf = np.array([math.log((1.0 + n) / (1.0 + d)) + 1.0 for d in df])
    return l2_normalize_rows(counts * idf[np.newaxis, :])


_LETTERS = "bcdfghjklmnpqrstvwxz"


def _zipf_tokens(seed, n_docs, n_words=300, mean_tokens=25):
    """Tokenized documents drawing Zipf-distributed words; some empty, some of one word."""
    rng = np.random.default_rng(seed)
    words = ["x" + _LETTERS[k // 20 % 20] + _LETTERS[k % 20] + "a" * (1 + k // 400)
             for k in range(n_words)]
    p = 1.0 / np.arange(1, n_words + 1)
    p /= p.sum()
    docs = [[words[k] for k in rng.choice(n_words, size=rng.poisson(mean_tokens), p=p)]
            for _ in range(n_docs)]
    docs[min(2, n_docs - 1)] = []
    return docs


class TestTfidfBlocks:
    """The CSR construction against the dense formula, bit for bit."""

    BLOCK_ROWS = 4

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 9, 13])
    @pytest.mark.parametrize("cap", [1, 7, 60])
    def test_bitwise_equal_to_dense_formula_across_blocks(self, monkeypatch, n, cap):
        docs = _zipf_tokens(n * 100 + cap, n)
        # the vocabulary comes from a larger corpus: out-of-vocabulary tokens
        # and documents that come out as zero rows are both likely
        vocab = build_vocabulary(docs + _zipf_tokens(cap, 30), cap=cap)
        monkeypatch.setattr(preprocessing, "TFIDF_BLOCK_BYTES", 8 * len(vocab) * self.BLOCK_ROWS)
        tdm = tfidf_encode(docs, vocab)
        oracle = _dense_tfidf(docs, vocab)
        assert tdm.shape == oracle.shape
        assert tdm.matrix.tobytes() == oracle.tobytes()
        for ours, theirs in zip((tdm.indptr, tdm.indices, tdm.data), csr_parts(oracle)):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        assert tdm.zero_rows == tuple(int(i) for i in np.flatnonzero(~oracle.any(axis=1)))

    def test_zero_rows_and_out_of_vocabulary_tokens(self):
        vocab = build_vocabulary([["apple", "berry"]], cap=2)
        docs = [["zebra"], [], ["apple", "zebra", "apple"], ["berry", "yak"]]
        tdm = tfidf_encode(docs, vocab)
        assert tdm.zero_rows == (0, 1)
        assert tdm.matrix.tobytes() == _dense_tfidf(docs, vocab).tobytes()
        np.testing.assert_array_equal(tdm.indptr, [0, 0, 0, 1, 2])

    def test_default_block_size_on_a_larger_corpus(self):
        docs = _zipf_tokens(11, 400, n_words=2000)
        vocab = build_vocabulary(docs, cap=1500)
        assert 8 * len(vocab) * len(docs) > preprocessing.TFIDF_BLOCK_BYTES  # several blocks
        assert tfidf_encode(docs, vocab).matrix.tobytes() == _dense_tfidf(docs, vocab).tobytes()


def test_ingest_and_fit_are_byte_reproducible(tmp_path):
    """Two ingest + fit runs on a sparse text corpus write the same bytes."""
    docs = _zipf_tokens(3, 120, n_words=600, mean_tokens=30)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"d{i}", "text": " ".join(tokens), "labels": [f"l{i % 4}"]}) + "\n"
        for i, tokens in enumerate(docs)
    ))
    runs = []
    for k in range(2):
        data, model = tmp_path / f"data{k}", tmp_path / f"model{k}"
        assert main(["ingest", "--corpus", str(corpus), "--min-chars", "0", "--out", str(data)]) == 0
        V = read_matrix(data, read_dataset(data))
        assert np.count_nonzero(V) <= factorization.SPARSE_DENSITY_MAX * V.size
        assert main(["fit", "--data", str(data), "--rate", "0.3", "--max-iter", "30",
                     "--out", str(model)]) == 0
        files = sorted(data.glob("matrix*")) + [model / f for f in ("W.csv", "H.csv", "trace.csv")]
        runs.append({p.name: p.read_bytes() for p in files})
    assert len(runs[0]) == 6 and runs[0] == runs[1]
