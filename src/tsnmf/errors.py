"""Exception types shared across the package."""

from __future__ import annotations


class TsnmfError(Exception):
    """Base class for all tsnmf errors."""


class ShapeError(TsnmfError, ValueError):
    """Raised when matrix or vector shapes do not conform.

    The message always names the offending shapes so callers can report
    them without re-deriving anything.
    """


class EmptyVocabularyError(TsnmfError, ValueError):
    """Raised when no token survives the vocabulary filters."""


class InvalidSupervisionError(TsnmfError, ValueError):
    """Raised when a supervised document has an empty label set."""


class NumericalFailureError(TsnmfError, RuntimeError):
    """Raised when an update produces NaN or Inf entries.

    Carries the iteration index at which the failure occurred and the
    loss trace accumulated so far, so partial results can be dumped.
    """

    def __init__(self, message: str, iteration: int, losses: list[float] | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.losses = list(losses) if losses is not None else []


# a run's failures, not its defects: cli.main exits 2 on them and a sweep cell records them
INPUT_ERRORS = (OSError, TsnmfError, ValueError)
