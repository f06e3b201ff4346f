"""Text pipeline tests: tokenization, filters, vocabulary, TF-IDF."""

import json
import math
import re
import subprocess
from collections import Counter
from importlib.util import find_spec
from itertools import chain

import numpy as np
import pytest

from tsnmf import dataio, preprocessing
from tsnmf.cli import main
from tsnmf.dataio import read_dataset, read_matrix
from tsnmf.errors import EmptyVocabularyError
from tsnmf.matrix import csr_parts
from tsnmf.preprocessing import (
    RawDocument,
    Vocabulary,
    build_vocabulary,
    filter_documents,
    ingest,
    load_stopwords,
    read_corpus_jsonl,
    tfidf_encode,
    tokenize,
)


def _kept(text, stopwords=None):
    """One document through tokenize: its kept terms in order of first appearance, with counts."""
    tokens = tokenize([text], stopwords=stopwords)
    return dict(zip((tokens.terms[c] for c in tokens.codes), tokens.counts.tolist()))


def _counted(tokenized):
    """Token lists through tokenize, no stopwords: each token is one run of lowercase letters."""
    return tokenize([" ".join(tokens) for tokens in tokenized], stopwords=frozenset())


def _ids(tokenized):
    return [f"d{i}" for i in range(len(tokenized))]


class TestTokenize:
    def test_stopwords_and_case(self):
        assert _kept("The Bank of Japan bought") == {"bank": 1, "japan": 1, "bought": 1}
        # len counts the kept tokens, repeats included
        assert len(tokenize(["The Bank of the BANK", "bank of Japan"])) == 4

    def test_empty_input(self):
        assert _kept("") == {}

    def test_digits_punctuation_and_short_tokens(self):
        assert _kept("EC-102,350 to") == {}

    def test_splits_on_nonalphabetic(self):
        assert _kept("corn/wheat+soy") == {"corn": 1, "wheat": 1, "soy": 1}

    def test_lowercases_each_token_after_matching(self):
        # U+212A KELVIN SIGN and U+0130 lowercase to ASCII letters, but are not
        # matched; lowercasing the text first would give "kelvin" and "i", "stanbul"
        assert _kept("\u212aelvin \u0130stanbul") == {"elvin": 1, "stanbul": 1}

    def test_pairs_sorted_by_row_then_code(self):
        tokens = tokenize(["wheat corn wheat", "", "the of", "corn soy CORN wheat"])
        # filtered terms keep their codes but have no pairs
        assert tokens.terms == ("wheat", "corn", "the", "of", "soy") and tokens.n_docs == 4
        np.testing.assert_array_equal(tokens.rows, [0, 0, 3, 3, 3])
        np.testing.assert_array_equal(tokens.codes, [0, 1, 0, 1, 4])
        np.testing.assert_array_equal(tokens.counts, [2, 1, 1, 2, 1])


def _regex_tokenize(text, stopwords):
    """The regular-expression tokenizer, kept as the oracle of tokenize and ingest."""
    tokens = (t.lower() for t in re.findall("[a-zA-Z]+", text))
    return [t for t in tokens if len(t) >= preprocessing.MIN_TOKEN_LEN and t not in stopwords]


# ASCII letters, digits and punctuation; ASCII controls str.split treats as
# whitespace; characters that lowercase or casefold to ASCII letters (U+0130,
# U+212A, U+017F, U+00DF); a Latin-1 letter; Unicode whitespace (U+00A0,
# U+0085); a lone surrogate; an astral character
_TOKENIZER_ALPHABET = (
    "abcxyzABCXYZ019 .,;-'\t\n\v\f\x1c\x1d\x1e\x1f\x7f"
    "\u0130\u212a\u017f\u00df\u00e9\u00a0\u0085\udc80\U0001f600"
)


def test_tokenize_matches_the_regex_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    custom = frozenset({"abc", "xyz", "kelvin"})

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.text(alphabet=_TOKENIZER_ALPHABET, max_size=80))
    def check(text):
        for stopwords in (load_stopwords(), custom, frozenset()):
            expected = Counter(_regex_tokenize(text, stopwords))
            kept = _kept(text, stopwords=stopwords)
            assert kept == expected and list(kept) == list(dict.fromkeys(expected))

    check()


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


def _counter_ranking(tokenized):
    """A per-document Counter loop and (-df, term) sort: the oracle of build_vocabulary."""
    df = Counter()
    for tokens in tokenized:
        df.update(set(tokens))
    return tuple(term for term, _ in sorted(df.items(), key=lambda kv: (-kv[1], kv[0])))


class TestBuildVocabulary:
    def test_document_frequency_order(self):
        docs = [["cat"], ["cat", "dog"], ["cat", "dog"], ["bird"]]
        vocab = build_vocabulary(_counted(docs), cap=1)
        assert vocab.terms == ("cat",)

    def test_cap_larger_than_vocab(self):
        vocab = build_vocabulary(_counted([["cat", "dog"]]), cap=100)
        assert set(vocab.terms) == {"cat", "dog"}

    def test_lexicographic_tie_break(self):
        vocab = build_vocabulary(_counted([["beta", "alpha"]]), cap=1)
        assert vocab.terms == ("alpha",)

    def test_repeats_within_doc_count_once(self):
        # document frequency, not raw frequency, drives the order
        docs = [["dog", "dog", "dog"], ["cat"], ["cat"]]
        assert build_vocabulary(_counted(docs), cap=1).terms == ("cat",)

    def test_empty_raises(self):
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary(_counted([[], []]), cap=10)

    def test_index_matches_terms(self):
        vocab = build_vocabulary(_counted([["one", "two", "three"]]), cap=3)
        for j, term in enumerate(vocab.terms):
            assert vocab.index[term] == j

    @pytest.mark.parametrize("cap", [1, 2, 3, 5, 40])
    @pytest.mark.parametrize(
        "docs",
        [
            # df 3: "cat"; df 2: "ant", "bee", "emu" (a tie straddling caps 2 and 3); df 1: the rest
            [["cat", "bee", "emu", "cat"], ["ant", "cat", "cat"], ["cat", "ant", "bee", "emu"],
             ["yak", "fox", "fox", "fox"], ["dog"]],
            # a single document with repeats: every df is 1, the order is lexicographic
            [["pear", "fig", "pear", "apple", "fig", "kiwi"]],
        ],
        ids=["ties_across_the_cap", "single_document"],
    )
    def test_ranking_matches_the_counter_oracle(self, docs, cap):
        assert build_vocabulary(_counted(docs), cap=cap).terms == _counter_ranking(docs)[:cap]

    def test_ranking_matches_the_counter_oracle_on_zipf_documents(self):
        docs = _zipf_tokens(5, 300, n_words=500)
        ranked = _counter_ranking(docs)
        for cap in (1, 17, 250, len(ranked)):
            assert build_vocabulary(_counted(docs), cap=cap).terms == ranked[:cap]


class TestTfidfEncode:
    def test_single_nonzero_normalizes_to_one(self):
        vocab = build_vocabulary(_counted([["apple", "apple"], ["berry"]]), cap=2)
        tdm = tfidf_encode(_counted([["apple", "apple"]]), vocab, ["a"])
        row = tdm.matrix[0]
        assert row[vocab.index["apple"]] == pytest.approx(1.0)
        assert row[vocab.index["berry"]] == 0.0

    def test_empty_vocabulary_raises(self):
        with pytest.raises(EmptyVocabularyError, match="empty vocabulary"):
            tfidf_encode(_counted([["apple"]]), Vocabulary(terms=()), ["a"])

    def test_no_vocab_terms_gives_zero_row(self):
        vocab = build_vocabulary(_counted([["apple"]]), cap=1)
        tdm = tfidf_encode(_counted([["zebra"], ["apple"]]), vocab, ["z", "a"])
        np.testing.assert_array_equal(tdm.matrix[0], 0.0)
        assert tdm.zero_rows == (0,)

    def test_hand_computed_weights(self):
        docs = [["apple", "berry"], ["apple"]]
        vocab = build_vocabulary(_counted(docs), cap=2)
        tdm = tfidf_encode(_counted(docs), vocab, _ids(docs))
        n = 2
        idf_apple = math.log((1 + n) / (1 + 2)) + 1.0
        idf_berry = math.log((1 + n) / (1 + 1)) + 1.0
        raw = np.array([[1.0 * idf_apple, 1.0 * idf_berry], [1.0 * idf_apple, 0.0]])
        expected = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        a, b = vocab.index["apple"], vocab.index["berry"]
        np.testing.assert_allclose(tdm.matrix[:, [a, b]], expected, rtol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(tdm.matrix, axis=1), 1.0, atol=1e-12)

    def test_rejects_mismatched_doc_ids(self):
        vocab = build_vocabulary(_counted([["apple"]]), cap=1)
        with pytest.raises(ValueError, match="doc_ids"):
            tfidf_encode(_counted([["apple"]]), vocab, doc_ids=["a", "b"])


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

    def test_numpy_integer_settings_write_the_python_int_dataset(self, tmp_path):
        for out, cap, min_chars in ((tmp_path / "np", np.int64(10), np.int32(250)),
                                    (tmp_path / "int", 10, 250)):
            dataio.write_ingest_result(out, ingest(_corpus(), vocab_cap=cap, min_chars=min_chars))
        for name in (dataio.META_FILENAME, *dataio.MATRIX_FILENAMES.values()):
            assert (tmp_path / "np" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()

    def test_doc_labels_aligned_with_rows(self):
        result = ingest(_corpus(), vocab_cap=10, min_chars=250)
        assert result.tdm.doc_ids == ("d1", "d2", "d4")
        assert result.doc_labels == (
            frozenset({"grain"}),
            frozenset({"grain", "trade"}),
            frozenset(),
        )


def _oracle_corpus(seed, min_chars):
    """A seeded corpus for the ingest oracle, with every case the tokenizer and filters meet.

    Seventy words get fixed document frequencies over 100 documents; ranks
    1-2, 7-8 and 60-61 tie, straddling caps 1, 7 and 60.  Words come in mixed
    case between stopwords, one- and two-letter tokens, digits and non-ASCII
    text, some of which splits into kept terms of low frequency.  Six long
    documents keep no token at all, and three fall short of ``min_chars``.
    """
    rng = np.random.default_rng(seed)
    words = ["q" + a + b for a in _LETTERS[:7] for b in _LETTERS[:10]]
    dfs = [90, 90, 80, 79, 78, 77, 70, 70, *range(68, 17, -1), 15, 15, *range(12, 3, -1)]
    docs = [[] for _ in range(100)]
    for word, df in zip(words, dfs):
        for i in rng.choice(len(docs), size=df, replace=False):
            docs[i] += [word.upper() if rng.random() < 0.2 else word.title()] * rng.integers(1, 4)
    for i in range(0, len(docs), 9):  # kept terms from non-ASCII text: stanbul, elvin, top, ...
        docs[i] += ["\u0130stanbul", "\u212aelvin", "\u017ftop", "stra\u00dfe", "caf\u00e9"]
    docs += [[] for _ in range(6)]
    filtered = ["the", "and", "of", "The", "AND", "ab", "Q", "x", "42",
                "\u6771\u4eac", "na\u00efve", "\u0130t", "\u017fo"]
    texts = []
    for tokens in docs:
        tokens = tokens + [str(w) for w in rng.choice(filtered, size=12)]
        rng.shuffle(tokens)
        texts.append(" ".join(tokens) + " of the" * (min_chars // 7 + 1))
    texts += ["Qbb qcc", "the ab", "\u0130 Qbb"]  # short documents
    order = rng.permutation(len(texts))
    return [RawDocument(id=f"d{k}", text=texts[k], labels=frozenset({f"l{k % 3}"})) for k in order]


class TestIngestOracle:
    """ingest against the regular-expression tokenizer, the Counter ranking and the dense formula."""

    MIN_CHARS = 40

    @pytest.mark.parametrize("cap", [1, 7, 60])
    def test_bitwise_equal_to_the_oracles(self, monkeypatch, cap):
        corpus = _oracle_corpus(cap, self.MIN_CHARS)
        kept = [doc for doc in corpus if len(doc.text) >= self.MIN_CHARS]
        stop = load_stopwords()
        tokenized = [_regex_tokenize(doc.text, stop) for doc in kept]
        ranked = _counter_ranking(tokenized)
        df = Counter(chain.from_iterable(map(set, tokenized)))
        assert df[ranked[cap - 1]] == df[ranked[cap]]  # a tie straddles the cap
        vocab = Vocabulary(terms=ranked[:cap])
        oracle = _dense_tfidf(tokenized, vocab)
        zero_rows = tuple(int(i) for i in np.flatnonzero(~oracle.any(axis=1)))
        assert len(kept) < len(corpus) and zero_rows

        monkeypatch.setattr(preprocessing, "TFIDF_BLOCK_BYTES", 8 * cap * 3)  # three rows a block
        result = ingest(corpus, vocab_cap=cap, min_chars=self.MIN_CHARS)
        tdm = result.tdm
        assert tdm.vocabulary.terms == vocab.terms
        assert tdm.doc_ids == tuple(doc.id for doc in kept)
        for ours, theirs in zip((tdm.indptr, tdm.indices, tdm.data), csr_parts(oracle)):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        assert tdm.zero_rows == zero_rows
        assert result.stats == {
            "input_docs": len(corpus),
            "kept_docs": len(kept),
            "dropped_short": len(corpus) - len(kept),
            "min_chars": self.MIN_CHARS,
            "vocab_cap": cap,
            "vocab_size": cap,
            "zero_rows": len(zero_rows),
        }

    def test_only_stopwords_and_short_tokens_raise(self):
        corpus = [RawDocument(id=f"d{i}", text="The and OF ab x \u0130t is 42 " * (i + 1))
                  for i in range(4)]
        with pytest.raises(EmptyVocabularyError):
            ingest(corpus, vocab_cap=10, min_chars=0)


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
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: document id 'a' appears more than once$"):
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
    weighted = counts * idf[np.newaxis, :]
    norms = np.sqrt(np.sum(weighted * weighted, axis=1, keepdims=True))
    return weighted / np.where(norms > 0.0, norms, 1.0)  # zero rows stay zero


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
        vocab = build_vocabulary(_counted(docs + _zipf_tokens(cap, 30)), cap=cap)
        monkeypatch.setattr(preprocessing, "TFIDF_BLOCK_BYTES", 8 * len(vocab) * self.BLOCK_ROWS)
        tdm = tfidf_encode(_counted(docs), vocab, _ids(docs))
        oracle = _dense_tfidf(docs, vocab)
        assert tdm.shape == oracle.shape
        assert tdm.matrix.tobytes() == oracle.tobytes()
        for ours, theirs in zip((tdm.indptr, tdm.indices, tdm.data), csr_parts(oracle)):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        assert tdm.zero_rows == tuple(int(i) for i in np.flatnonzero(~oracle.any(axis=1)))

    def test_zero_rows_and_out_of_vocabulary_tokens(self):
        vocab = build_vocabulary(_counted([["apple", "berry"]]), cap=2)
        docs = [["zebra"], [], ["apple", "zebra", "apple"], ["berry", "yak"]]
        tdm = tfidf_encode(_counted(docs), vocab, _ids(docs))
        assert tdm.zero_rows == (0, 1)
        assert tdm.matrix.tobytes() == _dense_tfidf(docs, vocab).tobytes()
        np.testing.assert_array_equal(tdm.indptr, [0, 0, 0, 1, 2])

    def test_default_block_size_on_a_larger_corpus(self):
        docs = _zipf_tokens(11, 400, n_words=2000)
        vocab = build_vocabulary(_counted(docs), cap=1500)
        assert 8 * len(vocab) * len(docs) > preprocessing.TFIDF_BLOCK_BYTES  # several blocks
        tdm = tfidf_encode(_counted(docs), vocab, _ids(docs))
        assert tdm.matrix.tobytes() == _dense_tfidf(docs, vocab).tobytes()


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
        # sparse enough for the CSR path, which V takes from the files whenever scipy imports
        nnz = V.nnz if find_spec("scipy") else np.count_nonzero(V)
        assert nnz <= dataio.SPARSE_DENSITY_MAX * V.shape[0] * V.shape[1]
        assert main(["fit", "--data", str(data), "--rate", "0.3", "--max-iter", "30",
                     "--out", str(model)]) == 0
        factors = ("W.npy", "H.npy", "W.csv", "H.csv", "trace.csv")
        files = sorted(data.glob("matrix*")) + [model / f for f in factors]
        runs.append({p.name: p.read_bytes() for p in files})
    assert len(runs[0]) == 8 and runs[0] == runs[1]


def test_ingest_bytes_do_not_depend_on_the_hash_seed(tmp_path, run_python):
    """String hashing orders sets and dicts differently per seed; the dataset must not show it."""
    docs = _zipf_tokens(9, 80, n_words=400)
    extras = ["İstanbul", "Kelvin", "naïve café", "straße", "ſtop",
              "東京", "\U0001f600grain", "Zürich über", "Wheat-CORN"]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"d{i}",
                    "text": " ".join(tokens + [extras[i // 2 % len(extras)]] * (i % 2)),
                    "labels": [f"l{i % 3}"]}, ensure_ascii=i % 4 == 1) + "\n"
        for i, tokens in enumerate(docs)
    ), encoding="utf-8")
    runs = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / f"data{hash_seed}"
        run_python(["-m", "tsnmf.cli", "ingest", "--corpus", str(corpus), "--min-chars", "0",
                    "--out", str(out)],
                   env={"PYTHONHASHSEED": hash_seed}, check=True, stdout=subprocess.DEVNULL)
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(runs[0]) == ["matrix.data.npy", "matrix.indices.npy", "matrix.indptr.npy",
                               "meta.json"]
    assert runs[0] == runs[1]
    vocabulary = json.loads(runs[0]["meta.json"])["vocabulary"]
    assert "stanbul" in vocabulary and "elvin" in vocabulary and "istanbul" not in vocabulary
