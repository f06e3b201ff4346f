"""Masked multiplicative-update factorization engine.

Fits non-negative factors W (documents x topics) and H (topics x terms)
to a non-negative matrix V under a binary permission mask applied to W:

    minimize  || V - (W o mask) H ||_F^2

where ``o`` is the entrywise product.  Entries of W at forbidden positions
are held at exactly zero.  With an all-ones mask the updates are the
classical multiplicative rules for plain NMF.

The optional row-weighted variant multiplies each document's residual by
an importance weight ``e_i`` inside the update ratios, which steers the
fit toward supervised documents.  For the weighted rules the fit trace
records the row-weighted squared error

    sum_i e_i * || V_i - ((W o mask) H)_i ||^2

because that is the quantity the weighted updates decrease monotonically
(weights enter the update ratios linearly).  ``loss_tsw`` with the weight
matrix inside the Frobenius norm is also provided for reporting.

The updates run in Gram form, with ``WL = W o mask``, ``Ve = V * e``
(``V`` itself, not a copy, for the plain rule) and ``G = (WL * e)^T WL``:

    H <- H o (WL^T Ve) / (G H + epsilon)
    W <- W o (Ve H^T o mask) / ((WL (H H^T)) * e o mask + epsilon)

W is pinned to exactly 0 where the mask is 0, and unit weights reproduce
the plain rule bitwise.  An iteration forms two products with the n x t
data and no n x t temporary: ``fit`` records the loss by the identity
``sum e||V||^2 - 2 sum(WL o Ve H^T) + sum(G o H H^T)`` from the W step's
products, with ``sum e||V||^2`` and ``Ve`` computed once per fit.  Near an
exact fit the identity cancels badly, so whenever its value is at most
``LOSS_GUARD * sum e||V||^2`` the explicit residual is recorded instead.

Sparse data: when at most ``SPARSE_DENSITY_MAX`` of ``Ve``'s entries are
non-zero and ``scipy.sparse`` imports, ``fit`` builds a CSR copy of ``Ve``
once, from its non-zeros, and evaluates the two data products ``Ve H^T``
and ``WL^T Ve`` with it.  Everything else stays dense: validation,
initialization, ``sum e||V||^2``, the guarded explicit residual and the
public ``update_*`` steps, which are the reference the CSR path is tested
against.  CSR products sum in a different order than BLAS, so the two
paths agree to rounding, not bitwise.  scipy is imported only on that
branch, so dense fits and ``import tsnmf`` never load it.

Epsilon is added to every update denominator to keep ratios finite; the
monotonicity guarantee therefore holds up to a 1e-10 relative slack
(``MONOTONE_SLACK``).  A fit that is exact up to epsilon jitters at the
rounding floor of ``V - WH``, so a stop is labeled ``loss_increased`` only
for a rise beyond that slack plus ``ROUNDING_FLOOR * sum e||V||^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalFailureError, ShapeError
from .matrix import (
    csr_parts,
    frobenius_sq,
    read_dense_csv,
    read_json,
    require_nonnegative,
    write_csv,
    write_dense_csv,
    write_json,
)
from .supervision import build_error_weights

STOP_CONVERGED = "converged"
STOP_LOSS_INCREASED = "loss_increased"
STOP_MAX_ITER = "max_iter"

OBJECTIVE_MASKED = "masked_sse"
OBJECTIVE_ROW_WEIGHTED = "row_weighted_sse"

MONOTONE_SLACK = 1e-10
# A rise of at most this fraction of sum e||V||^2 beyond MONOTONE_SLACK is rounding: a fit
# exact up to epsilon settles near 1e-20 of it, where losses differ by parts in 1e6.
ROUNDING_FLOOR = 1e-14
# At or below this fraction of sum e||V||^2 the fit records the explicit
# residual: the trace-identity loss loses digits to cancellation as the fit
# nears exact.  Just above 1e-4 its relative error measured up to 7e-12,
# inside MONOTONE_SLACK; near 1e-6 it measured 7e-11 to 3e-10.
LOSS_GUARD = 1e-4
# At or below this share of non-zero entries fit evaluates its data products
# with a CSR copy of the data.  Measured at 1500x2000 with d = 10 and 20, one
# BLAS thread: CSR is 2.2x faster at 10 % density, level at 20 %, slower at 30 %.
SPARSE_DENSITY_MAX = 0.1


@dataclass(frozen=True)
class FitConfig:
    """Knobs for one factorization run."""

    d: int
    max_iter: int = 200
    rel_tol: float = 1e-4
    epsilon: float = 1e-9
    seed: int = 0
    weighted: bool = False
    acol_q: int = 5

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"topic count d must be >= 1, got {self.d}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        # a non-finite value would be written to model.json as a token JSON lacks
        if not (self.rel_tol > 0.0 and np.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if not (self.epsilon > 0.0 and np.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.acol_q < 1:
            raise ValueError(f"acol_q must be >= 1, got {self.acol_q}")


@dataclass(frozen=True)
class FactorModel:
    """Fitted factors; W rows live in the subspace the mask permits."""

    W: np.ndarray
    H: np.ndarray


@dataclass(frozen=True)
class FitTrace:
    """Loss recorded before iterating and after each (H, W) update pair."""

    losses: tuple[float, ...]
    stop_reason: str
    objective: str = OBJECTIVE_MASKED

    @property
    def iterations(self) -> int:
        return len(self.losses) - 1

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def _conform(V, W, H, L):
    V = np.asarray(V, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    n, t = V.shape
    if W.shape != L.shape:
        raise ShapeError(f"W shape {W.shape} does not match mask shape {L.shape}")
    if W.shape[0] != n:
        raise ShapeError(f"W has {W.shape[0]} rows, V has {n}")
    if H.shape != (W.shape[1], t):
        raise ShapeError(f"H shape {H.shape}, expected ({W.shape[1]}, {t})")
    return V, W, H, L


def _row_weights_column(E: np.ndarray, n: int) -> np.ndarray:
    E = np.asarray(E, dtype=np.float64)
    if E.shape != (n,):
        raise ShapeError(f"row weights shape {E.shape}, expected ({n},)")
    return E[:, np.newaxis]


def loss_ts(V, W, H, L) -> float:
    """Squared Frobenius error of the masked reconstruction."""
    return _row_weighted_sse(V, W, H, L, None)


def loss_tsw(V, W, H, L, E) -> float:
    """Squared Frobenius error with each residual row scaled by its weight.

    ``E`` is one positive weight per document; the full weight matrix is
    its broadcast across columns, so weights enter this value squared.
    """
    V, W, H, L = _conform(V, W, H, L)
    e = _row_weights_column(E, V.shape[0])
    return frobenius_sq((V - (W * L) @ H) * e)


def _row_weighted_sse(V, W, H, L, E) -> float:
    """sum_i E_i * ||row i residual||^2 — the objective the weighted updates descend.

    With ``E`` None this is the plain masked loss, ``loss_ts``.
    """
    V, W, H, L = _conform(V, W, H, L)
    R = V - (W * L) @ H
    if E is None:
        return float(np.sum(R * R))
    return float(np.sum(_row_weights_column(E, V.shape[0]) * R * R))


def _check_finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericalFailureError(f"{what} produced NaN or Inf entries", iteration=-1)
    return a


def _gram(WL: np.ndarray, e: np.ndarray | None) -> np.ndarray:
    """G = (WL * e)^T WL, the d x d row-weighted Gram matrix of the masked W.

    Formed as S^T S with S = WL * sqrt(e) so both rules take numpy's syrk
    path for ``A.T @ A``; gemm differs in the last bits, and unit weights
    must reproduce the plain rule bitwise.
    """
    S = WL if e is None else WL * np.sqrt(e)
    return S.T @ S


def _h_step(Ve, WL, H, G, epsilon: float) -> np.ndarray:
    """H o (WL^T Ve) / (G H + epsilon); zero entries stay zero."""
    with np.errstate(all="ignore"):
        out = H * ((WL.T @ Ve) / (G @ H + epsilon))
    return _check_finite(out, "H update")


def _w_step(W, WL, L, e, VeHt, HHt, epsilon: float) -> np.ndarray:
    """W o (Ve H^T o L) / ((WL HH^T) * e o L + epsilon), exactly 0 where L is 0.

    At forbidden positions both the numerator and denominator vanish, so
    the value is pinned to 0 explicitly rather than left to 0/epsilon.
    """
    with np.errstate(all="ignore"):
        denom = WL @ HHt
        if e is not None:
            denom = denom * e
        out = W * ((VeHt * L) / (denom * L + epsilon))
    _check_finite(out, "W update")
    return np.where(L == 0.0, 0.0, out)


def _sparse_operand(Ve: np.ndarray):
    """A scipy CSR copy of ``Ve`` when it is sparse enough and scipy imports, else ``Ve``.

    Built from ``csr_parts``, in about half the time ``csr_array(Ve)`` takes.
    NaN and Inf count as non-zero, so non-finite data still reaches the
    finiteness checks.
    """
    if np.count_nonzero(Ve) > SPARSE_DENSITY_MAX * Ve.size:
        return Ve
    try:
        from scipy.sparse import csr_array
    except ImportError:
        return Ve
    indptr, indices, data = csr_parts(Ve)
    return csr_array((data, indices, indptr), shape=Ve.shape)


def _step_inputs(V, W, H, L, E):
    V, W, H, L = _conform(V, W, H, L)
    e = None if E is None else _row_weights_column(E, V.shape[0])
    return (V if e is None else V * e), W, H, L, e


def update_h(V, W, H, L, epsilon: float) -> np.ndarray:
    """One multiplicative step on H.

    Each entry is scaled by the ratio of the masked correlation with V to
    the masked self-correlation with the current reconstruction, epsilon
    added to every denominator entry.  Zero entries stay zero.
    """
    return update_h_weighted(V, W, H, L, None, epsilon)


def update_w(V, W, H, L, epsilon: float) -> np.ndarray:
    """One multiplicative step on W; masked entries come out exactly zero."""
    return update_w_weighted(V, W, H, L, None, epsilon)


def update_h_weighted(V, W, H, L, E, epsilon: float) -> np.ndarray:
    """Row-weighted multiplicative step on H; ``E`` of None or all ones is update_h."""
    Ve, W, H, L, e = _step_inputs(V, W, H, L, E)
    WL = W * L
    return _h_step(Ve, WL, H, _gram(WL, e), epsilon)


def update_w_weighted(V, W, H, L, E, epsilon: float) -> np.ndarray:
    """Row-weighted multiplicative step on W with the same mask zeroing as update_w.

    The weight of row i scales both the numerator and denominator of that
    row's ratios, so for row-constant weights this is numerically close to
    the unweighted step and identical to it when E is all ones.
    """
    Ve, W, H, L, e = _step_inputs(V, W, H, L, E)
    return _w_step(W, W * L, L, e, Ve @ H.T, H @ H.T, epsilon)


def init_model(V, L, config: FitConfig) -> FactorModel:
    """Seeded initialization.

    Each row of H starts as the mean of ``acol_q`` distinct random rows of
    V (random-Acol style, oriented so topics average documents); W starts
    uniform on [0, 1) with masked entries zeroed.  Draw order is H first,
    then W, from one PCG64 generator.
    """
    V = np.asarray(V, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    n, t = V.shape
    d = config.d
    if L.shape != (n, d):
        raise ShapeError(f"mask shape {L.shape}, expected ({n}, {d})")
    rng = np.random.default_rng(config.seed)
    q = min(config.acol_q, n)
    H0 = np.empty((d, t), dtype=np.float64)
    for r in range(d):
        picks = rng.choice(n, size=q, replace=False)
        H0[r, :] = V[picks, :].mean(axis=0)
    W0 = rng.random((n, d))
    W0[L == 0.0] = 0.0
    return FactorModel(W=W0, H=H0)


def _stop_reason(prev: float, cur: float, rel_tol: float, sum_ev2: float = 0.0) -> str | None:
    """Why the fit stops after a step from loss ``prev`` to ``cur``, or None to go on.

    A rise beyond ``MONOTONE_SLACK`` plus ``ROUNDING_FLOOR * sum_ev2`` is
    ``loss_increased``, not ``converged``.  The floor only relabels a stop;
    it never decides whether the fit stops.
    """
    if prev == 0.0 or (prev - cur) / prev < rel_tol:
        rose = cur > prev * (1.0 + MONOTONE_SLACK) + ROUNDING_FLOOR * sum_ev2
        return STOP_LOSS_INCREASED if rose else STOP_CONVERGED
    return None


def fit(
    V,
    L,
    config: FitConfig,
    row_weights: np.ndarray | None = None,
) -> tuple[FactorModel, FitTrace]:
    """Alternate H and W updates from a seeded start until converged.

    Stops when the relative loss improvement over one iteration falls
    below ``config.rel_tol`` (``converged``, or ``loss_increased`` when
    the loss rose beyond the monotone slack and the rounding floor), or at
    ``config.max_iter`` (``max_iter``).  An exact fixed point stops as
    ``converged``, since equal factors give an equal loss.  The returned W
    is exactly zero wherever the mask is zero.

    When ``config.weighted`` is set, the weighted update rules run with
    ``row_weights`` (by default ``build_error_weights`` over the rows the
    mask constrains) and the trace records the row-weighted squared error.
    """
    V = np.asarray(V, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    if V.ndim != 2 or L.ndim != 2:
        raise ShapeError(f"V and mask must be 2-D, got {V.ndim}-D and {L.ndim}-D")
    require_nonnegative(V, "V")
    if not np.isin(L, (0.0, 1.0)).all():
        raise ValueError("mask entries must be exactly 0 or 1")

    E = row_weights if config.weighted else None
    if config.weighted and E is None:
        E = build_error_weights(V.shape[0], np.flatnonzero(~L.all(axis=1))).row_weight
    model = init_model(V, L, config)
    Ve, W, H, L, e = _step_inputs(V, model.W, model.H, L, E)
    eps = config.epsilon
    sum_ev2 = float(np.vdot(Ve, V))
    Vs = _sparse_operand(Ve)  # Ve itself on dense data

    def loss(W, H, WL, G, VeHt, HHt):
        cheap = sum_ev2 - 2.0 * float(np.vdot(WL, VeHt)) + float(np.vdot(G, HHt))
        # a NaN from non-finite data fails the comparison and is recomputed too
        return cheap if cheap > LOSS_GUARD * sum_ev2 else _row_weighted_sse(V, W, H, L, E)

    WL = W * L
    G = _gram(WL, e)
    losses = [loss(W, H, WL, G, Vs @ H.T, H @ H.T)]
    stop_reason = STOP_MAX_ITER
    for iteration in range(1, config.max_iter + 1):
        try:
            H_next = _h_step(Vs, WL, H, G, eps)
            VeHt, HHt = Vs @ H_next.T, H_next @ H_next.T
            W_next = _w_step(W, WL, L, e, VeHt, HHt, eps)
        except NumericalFailureError as exc:
            raise NumericalFailureError(str(exc), iteration=iteration, losses=losses) from exc

        W, H = W_next, H_next
        WL = W * L
        G = _gram(WL, e)
        losses.append(loss(W, H, WL, G, VeHt, HHt))
        reason = _stop_reason(losses[-2], losses[-1], config.rel_tol, sum_ev2)
        if reason is not None:
            stop_reason = reason
            break

    objective = OBJECTIVE_ROW_WEIGHTED if config.weighted else OBJECTIVE_MASKED
    trace = FitTrace(losses=tuple(losses), stop_reason=stop_reason, objective=objective)
    return FactorModel(W=W, H=H), trace


def save_model(outdir, model: FactorModel, trace: FitTrace, config: FitConfig) -> None:
    """Write model.json (header), W.csv, H.csv, and trace.csv under ``outdir``."""
    out = Path(outdir)
    header = {
        "n": int(model.W.shape[0]),
        "d": int(model.W.shape[1]),
        "t": int(model.H.shape[1]),
        "max_iter": config.max_iter,
        "rel_tol": config.rel_tol,
        "epsilon": config.epsilon,
        "seed": config.seed,
        "weighted": config.weighted,
        "acol_q": config.acol_q,
        "iterations": trace.iterations,
        "stop_reason": trace.stop_reason,
        "objective": trace.objective,
        "final_loss": trace.final_loss,
    }
    write_json(out / "model.json", header)
    write_dense_csv(model.W, out / "W.csv")
    write_dense_csv(model.H, out / "H.csv")
    write_trace_csv(out / "trace.csv", trace)


def write_trace_csv(path, trace: FitTrace) -> None:
    write_csv(path, [("iteration", "loss"), *enumerate(trace.losses)])


def read_factor(modeldir, name: str) -> np.ndarray:
    """Factor ``name``, "W" or "H", of a model directory written by save_model.

    The factor must have the shape ``model.json`` records, (n, d) for W and
    (d, t) for H, and finite entries >= 0; a ``ValueError`` names the file.
    """
    modeldir = Path(modeldir)
    header = read_json(modeldir / "model.json")
    shape = tuple(header.get(key) for key in {"W": ("n", "d"), "H": ("d", "t")}[name])
    path = modeldir / f"{name}.csv"
    a = read_dense_csv(path)
    if a.shape != shape:
        raise ValueError(f"{path}: shape {a.shape}, model.json records {shape}")
    if not np.isfinite(a).all() or a.min() < 0.0:
        raise ValueError(f"{path}: entries must be finite and >= 0")
    return a
