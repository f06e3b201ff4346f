"""Topic-supervised non-negative matrix factorization.

Semi-supervised topic modeling: document labels constrain which topics a
document may use, enforced through a binary mask on the document-topic
factor during multiplicative updates.  The package covers the full
pipeline: TF-IDF encoding of a labeled corpus, mask and error-weight
construction, the masked factorization itself, topic-to-label scoring
with weighted Jaccard and optimal assignment, and a supervision-rate
sweep harness.
"""

from .errors import (
    EmptyVocabularyError,
    InvalidSupervisionError,
    NumericalFailureError,
    ShapeError,
    TsnmfError,
)
from .evaluation import (
    EvaluationReport,
    Matching,
    TruthMatrix,
    cross_similarity,
    hungarian_match,
    jaccard_match,
    max_normalize_columns,
    score_report,
    top_terms,
)
from .factorization import (
    FactorModel,
    FitConfig,
    FitTrace,
    fit,
    init_model,
    loss_ts,
    loss_tsw,
    read_factor,
    save_model,
    update_h,
    update_h_weighted,
    update_w,
    update_w_weighted,
)
from .matrix import (
    frobenius_sq,
    l2_normalize_rows,
    read_dense_csv,
    write_dense_csv,
)
from .preprocessing import (
    IngestResult,
    RawDocument,
    TermDocumentMatrix,
    Vocabulary,
    build_vocabulary,
    filter_documents,
    ingest,
    load_stopwords,
    read_corpus_jsonl,
    tfidf_encode,
    tokenize,
)
from .supervision import (
    ErrorWeights,
    LabelTable,
    SupervisionMask,
    build_error_weights,
    build_label_table,
    build_mask,
    sample_supervised_set,
    topic_coverage,
)
from .synthetic import PlantedInstance, make_planted_instance

__version__ = "0.1.0"

__all__ = [
    "EmptyVocabularyError",
    "InvalidSupervisionError",
    "NumericalFailureError",
    "ShapeError",
    "TsnmfError",
    "EvaluationReport",
    "Matching",
    "TruthMatrix",
    "cross_similarity",
    "hungarian_match",
    "jaccard_match",
    "max_normalize_columns",
    "score_report",
    "top_terms",
    "FactorModel",
    "FitConfig",
    "FitTrace",
    "fit",
    "init_model",
    "loss_ts",
    "loss_tsw",
    "read_factor",
    "save_model",
    "update_h",
    "update_h_weighted",
    "update_w",
    "update_w_weighted",
    "frobenius_sq",
    "l2_normalize_rows",
    "read_dense_csv",
    "write_dense_csv",
    "IngestResult",
    "RawDocument",
    "TermDocumentMatrix",
    "Vocabulary",
    "build_vocabulary",
    "filter_documents",
    "ingest",
    "load_stopwords",
    "read_corpus_jsonl",
    "tfidf_encode",
    "tokenize",
    "ErrorWeights",
    "LabelTable",
    "SupervisionMask",
    "build_error_weights",
    "build_label_table",
    "build_mask",
    "sample_supervised_set",
    "topic_coverage",
    "PlantedInstance",
    "make_planted_instance",
    "__version__",
]
