"""Topic-supervised non-negative matrix factorization.

Semi-supervised topic modeling: document labels constrain which topics a
document may use, enforced through a binary mask on the document-topic
factor during multiplicative updates.  The package covers the full
pipeline: TF-IDF encoding of a labeled corpus, mask and error-weight
construction, the masked factorization itself, topic-to-label scoring
with weighted Jaccard and optimal assignment, and a supervision-rate
sweep harness.

This namespace re-exports only the names that the library quickstart and
the demos use, plus ``make_planted_instance``; every other name is
imported from its submodule.
"""

from .evaluation import score_report, top_terms
from .factorization import FitConfig, fit, loss_ts, update_h, update_w
from .preprocessing import RawDocument, ingest
from .supervision import build_error_weights, build_label_table, build_mask, sample_supervised_set
from .synthetic import make_planted_instance

__version__ = "0.1.0"

__all__ = [
    "score_report", "top_terms",
    "FitConfig", "fit", "loss_ts", "update_h", "update_w",
    "RawDocument", "ingest",
    "build_error_weights", "build_label_table", "build_mask", "sample_supervised_set",
    "make_planted_instance",
    "__version__",
]
