"""Corpus ingestion: tokenization, vocabulary selection, TF-IDF encoding.

The pipeline turns a labeled JSON-lines corpus into a non-negative
document-term matrix with unit-L2 rows, plus the per-document label sets
needed to build supervision masks.  Everything is deterministic: the same
corpus and settings always produce the same matrix, bit for bit.

Weighting is raw term count times smoothed inverse document frequency,
``idf(j) = ln((1 + n) / (1 + df_j)) + 1``, followed by row-wise L2
normalization.  Tokens are maximal runs of ASCII letters, lowercased;
every other character, non-ASCII ones included, separates tokens before
anything is lowercased.  Terms shorter than three characters or on the
stopword list are dropped.  ``stopwords`` replaces the bundled list
(``ingest --stopwords FILE``).

Every token is coded once: ``tokenize`` maps each token of a document to
an integer through one dict and drops the document's strings, so no token
string outlives its document.  The length and stopword filters act once
per distinct term, and one sort of the (document, code) pairs gives the
counts that document frequency and TF-IDF read.

The matrix is built and returned in CSR form; no documents x terms array
is ever allocated.  Row norms are taken over dense blocks of about
``matrix.ROW_BLOCK_BYTES``, so every value is bitwise the one the dense formula
``X / sqrt(sum(X * X, axis=1))`` over ``X = counts * idf`` gives.
``TermDocumentMatrix.matrix`` densifies on request.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import matrix
from .errors import EmptyVocabularyError
from .matrix import check_distinct, dense_from_csr, parse_json
from .supervision import check_count

MIN_TOKEN_LEN = 3
DEFAULT_MIN_CHARS = 250
DEFAULT_VOCAB_CAP = 2000
_DOCUMENT_FIELDS = {"id": ((str,), "a string"), "text": ((str,), "a string"),
                    "labels": ([(str,)], "an array of strings")}

# byte -> byte: ASCII letters to lowercase, every other byte to a space
_TOKEN_TABLE = bytes(b | 0x20 if 65 <= b <= 90 or 97 <= b <= 122 else 32 for b in range(256))


@dataclass(frozen=True)
class RawDocument:
    """One input document: unique id, raw text, and zero or more labels."""

    id: str
    text: str
    labels: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Vocabulary:
    """Ordered term list with a term -> column lookup.

    Ordering is document frequency descending with lexicographic
    tie-break, so it is reproducible across runs.  The ``index`` lookup is
    built on first use, so a vocabulary that is only listed never builds it.
    """

    terms: tuple[str, ...]

    @cached_property
    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class TermDocumentMatrix:
    """TF-IDF matrix (documents x terms) in CSR form, with row/column identities attached.

    ``indptr`` (int64 row pointers), ``indices`` (int64 term indices,
    ascending within each row) and ``data`` (float64 values, all > 0) are
    the CSR parts; the shape is one row per doc id and one column per term.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    doc_ids: tuple[str, ...]
    vocabulary: Vocabulary
    zero_rows: tuple[int, ...] = ()

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.doc_ids), len(self.vocabulary)

    @property
    def matrix(self) -> np.ndarray:
        """The dense float64 matrix, built on every access."""
        return dense_from_csr(self.indptr, self.indices, self.data, self.shape)


def load_stopwords(path=None) -> frozenset[str]:
    """Load the stopword set from ``path``, by default the bundled list.

    The file is UTF-8 text with one lowercase token per line; '#' starts a
    comment.
    """
    if path is None:
        text = resources.files("tsnmf.data").joinpath("stopwords_en.txt").read_text()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8: {exc}") from None
    words = set()
    for line in text.splitlines():
        word = line.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return frozenset(words)


@cache
def _bundled_stopwords() -> frozenset[str]:
    return load_stopwords()


@dataclass(frozen=True)
class TokenCounts:
    """Per-document counts of the kept terms, each term coded as an integer.

    ``terms`` maps code to term in order of first appearance, filtered terms
    included.  ``rows``, ``codes`` and ``counts`` (int64) list every (document,
    kept term) pair, sorted by row, then code.  ``len`` is the kept token count.
    """

    terms: tuple[str, ...]
    rows: np.ndarray
    codes: np.ndarray
    counts: np.ndarray
    n_docs: int

    def __len__(self) -> int:
        return int(self.counts.sum())


def check_settings(vocab_cap: int, min_chars: int) -> None:
    """Reject a non-integer or out-of-range ingest setting, before any reading."""
    check_count(min_chars, "min_chars", 0)
    check_count(vocab_cap, "vocabulary cap", 1)


def tokenize(texts: Iterable[str], stopwords: frozenset[str] | None = None) -> TokenCounts:
    """Code every token of ``texts`` once and count each (document, kept term) pair.

    Tokens are maximal runs of ASCII letters.  Each non-ASCII character is
    encoded as ``?`` and so separates tokens before anything is lowercased:
    U+0130 and U+212A, which lowercase to ASCII letters, never join a token.
    A document's token strings are dropped once it is coded; the length and
    stopword filters act once per distinct term.
    """
    if stopwords is None:
        stopwords = _bundled_stopwords()
    code = defaultdict()
    code.default_factory = code.__len__  # an unseen token takes the next code, in C
    codes, lengths = [], []
    for text in texts:
        tokens = text.encode("ascii", "replace").translate(_TOKEN_TABLE).decode("ascii").split()
        lengths.append(len(tokens))
        codes += map(code.__getitem__, tokens)
    t = len(code)
    keep = np.fromiter((len(w) >= MIN_TOKEN_LEN and w not in stopwords for w in code),
                       dtype=bool, count=t)
    token_codes = np.fromiter(codes, dtype=np.int64, count=len(codes))
    token_rows = np.repeat(np.arange(len(lengths)), np.array(lengths, dtype=np.int64))
    kept = keep[token_codes]
    pairs, counts = np.unique(token_rows[kept] * t + token_codes[kept], return_counts=True)
    rows, pair_codes = np.divmod(pairs, t)
    return TokenCounts(tuple(code), rows, pair_codes, counts, n_docs=len(lengths))


def filter_documents(
    corpus: Sequence[RawDocument], min_chars: int = DEFAULT_MIN_CHARS
) -> list[RawDocument]:
    """Keep documents whose raw text has at least ``min_chars`` characters."""
    return [doc for doc in corpus if len(doc.text) >= min_chars]


def build_vocabulary(tokens: TokenCounts, cap: int = DEFAULT_VOCAB_CAP) -> Vocabulary:
    """Select the ``cap`` most document-frequent terms.

    Ties in document frequency break lexicographically ascending.  Raises
    EmptyVocabularyError when no term survives the filters.
    """
    df = np.bincount(tokens.codes, minlength=len(tokens.terms)).tolist()
    df = {term: d for term, d in zip(tokens.terms, df) if d}
    if not df:
        raise EmptyVocabularyError("no tokens survive the filters; vocabulary is empty")
    # a stable sort by descending df over the terms in ascending order
    ranked = sorted(sorted(df), key=df.__getitem__, reverse=True)
    return Vocabulary(terms=tuple(ranked[:cap]))


def tfidf_encode(
    tokens: TokenCounts,
    vocab: Vocabulary,
    doc_ids: Sequence[str],
) -> TermDocumentMatrix:
    """Encode counted documents as a row-normalized TF-IDF matrix.

    Out-of-vocabulary terms contribute nothing; documents with no
    in-vocabulary terms come out as zero rows and are listed in
    ``zero_rows`` so callers can report them.
    """
    if len(vocab) == 0:
        raise EmptyVocabularyError("cannot encode with an empty vocabulary")
    n = tokens.n_docs
    t = len(vocab)
    doc_ids = tuple(doc_ids)
    if len(doc_ids) != n:
        raise ValueError(f"{len(doc_ids)} doc_ids for {n} documents")

    # one vocabulary lookup per distinct term, -1 out of vocabulary
    columns = np.fromiter(map(vocab.index.get, tokens.terms, repeat(-1)),
                          dtype=np.int64, count=len(tokens.terms))[tokens.codes]
    keep = columns >= 0
    # row-major order of the pairs, so columns ascend within each row
    flat = tokens.rows[keep] * t + columns[keep]
    order = np.argsort(flat)
    rows, indices = np.divmod(flat[order], t)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])

    df = np.bincount(indices, minlength=t).astype(np.float64)
    idf = np.array([math.log((1.0 + n) / (1.0 + d)) + 1.0 for d in df])
    weighted = tokens.counts[keep][order].astype(np.float64) * idf[indices]
    # row norms over dense row blocks: a sum over the stored entries alone
    # would add in a different order than the dense formula and change the bits
    data = np.empty_like(weighted)
    step = max(1, matrix.ROW_BLOCK_BYTES // (8 * t))
    for start in range(0, n, step):
        lo, hi = indptr[start], indptr[min(start + step, n)]
        local = rows[lo:hi] - start
        squares = np.zeros((min(step, n - start), t), dtype=np.float64)
        squares[local, indices[lo:hi]] = np.square(weighted[lo:hi])
        data[lo:hi] = weighted[lo:hi] / np.sqrt(squares.sum(axis=1))[local]
    zero_rows = tuple(int(i) for i in np.flatnonzero(np.diff(indptr) == 0))
    return TermDocumentMatrix(
        indptr=indptr,
        indices=indices,
        data=data,
        doc_ids=doc_ids,
        vocabulary=vocab,
        zero_rows=zero_rows,
    )


def read_corpus_jsonl(path) -> list[RawDocument]:
    """Parse a JSON-lines corpus file.

    Lines are UTF-8 and end at a line feed.  Each must be an object with a
    unique string ``id``, a string ``text`` and an array of strings ``labels``.
    Errors name the file and, but for a repeated id, the line.
    """
    docs = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                obj = parse_json(line, f"{path}: line {lineno}", _DOCUMENT_FIELDS)
                docs.append(RawDocument(obj["id"], obj["text"], frozenset(obj["labels"])))
    check_distinct(f"{path}: document id", [doc.id for doc in docs])
    return docs


@dataclass(frozen=True)
class IngestResult:
    """Everything the downstream stages need, plus filter statistics."""

    tdm: TermDocumentMatrix
    doc_labels: tuple[frozenset[str], ...]
    stats: dict


def ingest(
    corpus: Iterable[RawDocument],
    vocab_cap: int = DEFAULT_VOCAB_CAP,
    min_chars: int = DEFAULT_MIN_CHARS,
    stopwords: frozenset[str] | None = None,
) -> IngestResult:
    """Run the full preprocessing pipeline on an in-memory corpus; both counts are integers."""
    check_settings(vocab_cap, min_chars)
    corpus = list(corpus)
    kept = filter_documents(corpus, min_chars=min_chars)
    tokens = tokenize((doc.text for doc in kept), stopwords=stopwords)
    vocab = build_vocabulary(tokens, cap=vocab_cap)
    tdm = tfidf_encode(tokens, vocab, doc_ids=[doc.id for doc in kept])
    stats = {
        "input_docs": len(corpus),
        "kept_docs": len(kept),
        "dropped_short": len(corpus) - len(kept),
        "min_chars": int(min_chars),  # a numpy integer passes check_count; json cannot write it
        "vocab_cap": int(vocab_cap),
        "vocab_size": len(vocab),
        "zero_rows": len(tdm.zero_rows),
    }
    return IngestResult(tdm=tdm, doc_labels=tuple(doc.labels for doc in kept), stats=stats)
