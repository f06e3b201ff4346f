"""Corpus ingestion: tokenization, vocabulary selection, TF-IDF encoding.

The pipeline turns a labeled JSON-lines corpus into a non-negative
document-term matrix with unit-L2 rows, plus the per-document label sets
needed to build supervision masks.  Everything is deterministic: the same
corpus and settings always produce the same matrix, bit for bit.

Weighting is raw term count times smoothed inverse document frequency,
``idf(j) = ln((1 + n) / (1 + df_j)) + 1``, followed by row-wise L2
normalization.  Tokens are lowercased ASCII-alphabetic runs; anything
shorter than three characters or on the stopword list is dropped.
``stopwords`` replaces the bundled list (``ingest --stopwords FILE``).

The matrix is built and returned in CSR form; no documents x terms array
is ever allocated.  Row norms are taken over dense blocks of about
``TFIDF_BLOCK_BYTES``, so every value is bitwise the one the dense formula
``l2_normalize_rows(counts * idf)`` gives.  ``TermDocumentMatrix.matrix``
densifies on request.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyVocabularyError
from .matrix import dense_from_csr, l2_normalize_rows

MIN_TOKEN_LEN = 3
DEFAULT_MIN_CHARS = 250
DEFAULT_VOCAB_CAP = 2000
TFIDF_BLOCK_BYTES = 4 << 20  # dense row block used for the row norms

_WORD_RE = re.compile(r"[a-zA-Z]+")


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
    tie-break, so it is reproducible across runs.
    """

    terms: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.terms)})

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


def tokenize(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Split text into lowercase alphabetic tokens, dropping short ones and stopwords.

    Tokens are lowercased one by one: lowercasing the text first would let
    U+0130 and U+212A, which lowercase to ASCII letters, into the matches.
    """
    if stopwords is None:
        stopwords = _bundled_stopwords()
    tokens = map(str.lower, _WORD_RE.findall(text))
    return [t for t in tokens if len(t) >= MIN_TOKEN_LEN and t not in stopwords]


def filter_documents(
    corpus: Sequence[RawDocument], min_chars: int = DEFAULT_MIN_CHARS
) -> list[RawDocument]:
    """Keep documents whose raw text has at least ``min_chars`` characters."""
    if min_chars < 0:
        raise ValueError(f"min_chars must be >= 0, got {min_chars}")
    return [doc for doc in corpus if len(doc.text) >= min_chars]


def build_vocabulary(
    tokenized: Sequence[Sequence[str]], cap: int = DEFAULT_VOCAB_CAP
) -> Vocabulary:
    """Select the ``cap`` most document-frequent tokens.

    Ties in document frequency break lexicographically ascending.  Raises
    EmptyVocabularyError when no token survives.
    """
    if cap < 1:
        raise ValueError(f"vocabulary cap must be >= 1, got {cap}")
    df: Counter[str] = Counter()
    for tokens in tokenized:
        df.update(set(tokens))
    if not df:
        raise EmptyVocabularyError("no tokens survive the filters; vocabulary is empty")
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary(terms=tuple(term for term, _ in ranked[:cap]))


def tfidf_encode(
    tokenized: Sequence[Sequence[str]],
    vocab: Vocabulary,
    doc_ids: Sequence[str] | None = None,
) -> TermDocumentMatrix:
    """Encode tokenized documents as a row-normalized TF-IDF matrix.

    Out-of-vocabulary tokens contribute nothing; documents with no
    in-vocabulary tokens come out as zero rows and are listed in
    ``zero_rows`` so callers can report them.
    """
    if len(vocab) == 0:
        raise EmptyVocabularyError("cannot encode with an empty vocabulary")
    n = len(tokenized)
    t = len(vocab)
    if doc_ids is None:
        doc_ids = tuple(str(i) for i in range(n))
    else:
        doc_ids = tuple(doc_ids)
        if len(doc_ids) != n:
            raise ValueError(f"{len(doc_ids)} doc_ids for {n} documents")

    # one vocabulary lookup per token, -1 out of vocabulary
    lengths = np.fromiter(map(len, tokenized), dtype=np.int64, count=n)
    ids = np.fromiter(
        map(vocab.index.get, chain.from_iterable(tokenized), repeat(-1)),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    token_rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
    keep = ids >= 0
    # sorted flat positions: row-major order, so columns ascend within each row
    flat, counts = np.unique(token_rows[keep] * t + ids[keep], return_counts=True)
    rows, indices = np.divmod(flat, t)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])

    df = np.bincount(indices, minlength=t).astype(np.float64)
    idf = np.array([math.log((1.0 + n) / (1.0 + d)) + 1.0 for d in df])
    weighted = counts.astype(np.float64) * idf[indices]
    # normalize over dense row blocks: a row sum over the sparse entries alone
    # would add in a different order than the dense formula and change the bits
    data = np.empty_like(weighted)
    step = max(1, TFIDF_BLOCK_BYTES // (8 * t))
    for start in range(0, n, step):
        lo, hi = indptr[start], indptr[min(start + step, n)]
        at = (rows[lo:hi] - start, indices[lo:hi])
        block = np.zeros((min(step, n - start), t), dtype=np.float64)
        block[at] = weighted[lo:hi]
        data[lo:hi] = l2_normalize_rows(block)[at]
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

    Lines are UTF-8 and end at a line feed.  Each must be an object with
    string fields ``id`` and ``text`` and an array of strings ``labels``.
    Errors name the offending line number.
    """
    docs = []
    seen_ids = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: not UTF-8: {exc}") from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {lineno}: expected a JSON object")
            for key in ("id", "text", "labels"):
                if key not in obj:
                    raise ValueError(f"{path}: line {lineno}: missing field {key!r}")
            if not isinstance(obj["id"], str) or not isinstance(obj["text"], str):
                raise ValueError(f"{path}: line {lineno}: 'id' and 'text' must be strings")
            labels = obj["labels"]
            if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
                raise ValueError(f"{path}: line {lineno}: 'labels' must be an array of strings")
            if obj["id"] in seen_ids:
                raise ValueError(f"{path}: line {lineno}: duplicate document id {obj['id']!r}")
            seen_ids.add(obj["id"])
            docs.append(RawDocument(id=obj["id"], text=obj["text"], labels=frozenset(labels)))
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
    """Run the full preprocessing pipeline on an in-memory corpus."""
    corpus = list(corpus)
    kept = filter_documents(corpus, min_chars=min_chars)
    tokenized = [tokenize(doc.text, stopwords=stopwords) for doc in kept]
    vocab = build_vocabulary(tokenized, cap=vocab_cap)
    tdm = tfidf_encode(tokenized, vocab, doc_ids=[doc.id for doc in kept])
    stats = {
        "input_docs": len(corpus),
        "kept_docs": len(kept),
        "dropped_short": len(corpus) - len(kept),
        "min_chars": min_chars,
        "vocab_cap": vocab_cap,
        "vocab_size": len(vocab),
        "zero_rows": len(tdm.zero_rows),
    }
    return IngestResult(tdm=tdm, doc_labels=tuple(doc.labels for doc in kept), stats=stats)
