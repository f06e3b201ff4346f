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
(weights enter the update ratios linearly).

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

Sparse data: ``fit`` keeps a scipy sparse V, such as ``dataio.read_matrix``
gives, in CSR form to the last iteration, and converts a dense V with at
most ``SPARSE_DENSITY_MAX`` of its entries non-zero once when
``scipy.sparse`` imports.  Checks, ``Ve`` and ``sum e||V||^2`` use the
stored values, ``init_model`` densifies only the rows it averages, and the
explicit residual densifies ``RESIDUAL_BLOCK_BYTES`` of rows at a time.
The dense path and the public ``update_*`` steps are the reference; CSR
sums run in another order than BLAS, so the paths agree to rounding, not
bitwise.  scipy is imported only on that branch, so dense fits and
``import tsnmf`` never load it.

``EPSILON`` is added to every update denominator to keep ratios finite;
the monotonicity guarantee therefore holds up to a 1e-10 relative slack
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

# fit's update denominator guard; the public update_* steps take theirs as an argument
EPSILON = 1e-9
# init_model averages this many distinct rows of V into each row of H (all, if V has fewer)
ACOL_Q = 5
MONOTONE_SLACK = 1e-10
# A rise of at most this fraction of sum e||V||^2 beyond MONOTONE_SLACK is rounding: a fit
# exact up to epsilon settles near 1e-20 of it, where losses differ by parts in 1e6.
ROUNDING_FLOOR = 1e-14
# At or below this fraction of sum e||V||^2 the fit records the explicit
# residual: the trace-identity loss loses digits to cancellation as the fit
# nears exact.  Just above 1e-4 its relative error measured up to 7e-12,
# inside MONOTONE_SLACK; near 1e-6 it measured 7e-11 to 3e-10.
LOSS_GUARD = 1e-4
# At or below this share of non-zero entries V is read and fitted as CSR
# (``csr_operand``), not densified.  Measured at 1500x2000 with d = 10 and 20, one
# BLAS thread: CSR is 2.2x faster at 10 % density, level at 20 %, slower at 30 %.
SPARSE_DENSITY_MAX = 0.1
# The explicit residual of a CSR V densifies at most this many bytes of rows at a time.
RESIDUAL_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class FitConfig:
    """Knobs for one factorization run; ``EPSILON`` and ``ACOL_Q`` are fixed."""

    d: int
    max_iter: int = 200
    rel_tol: float = 1e-4
    seed: int = 0
    weighted: bool = False

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"topic count d must be >= 1, got {self.d}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # a non-finite value would be written to model.json as a token JSON lacks
        if not (self.rel_tol > 0.0 and np.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")


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

    @property
    def iterations(self) -> int:
        return len(self.losses) - 1

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def _is_sparse(V) -> bool:
    """Whether ``V`` is a scipy sparse array, asked without importing scipy."""
    return hasattr(V, "tocsr")


def _conform(V, W, H, L):
    V = V.tocsr() if _is_sparse(V) else np.asarray(V, dtype=np.float64)
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


def _row_weighted_sse(V, W, H, L, E) -> float:
    """sum_i E_i * ||row i residual||^2 — the objective the weighted updates descend.

    With ``E`` None this is the plain masked loss, ``loss_ts``.  A dense ``V``
    is one block of rows; a CSR ``V`` is densified ``RESIDUAL_BLOCK_BYTES`` of
    rows at a time, and gives the dense bits when that is one block.
    """
    V, W, H, L = _conform(V, W, H, L)
    e = None if E is None else _row_weights_column(E, V.shape[0])
    sparse = _is_sparse(V)
    rows = max(1, RESIDUAL_BLOCK_BYTES // (8 * V.shape[1] or 1) if sparse else V.shape[0])
    WL, total = W * L, 0.0
    for start in range(0, V.shape[0], rows):
        block = slice(start, start + rows)
        R = (V[block].toarray() if sparse else V[block]) - WL[block] @ H
        total += float(np.sum(R * R if e is None else e[block] * R * R))
    return total


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


def _h_step(Ve, WL, H, G, epsilon: float, VeT=None) -> np.ndarray:
    """H o (WL^T Ve) / (G H + epsilon); zero entries stay zero.

    A CSR ``Ve``'s transpose ``VeT``, made once, gives scipy's (VeT WL)^T for WL^T Ve.
    """
    with np.errstate(all="ignore"):
        out = H * ((WL.T @ Ve if VeT is None else (VeT @ WL).T) / (G @ H + epsilon))
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


def csr_operand(nnz: int, shape: tuple[int, int], parts):
    """A scipy CSR array of the ``parts()`` (indptr, indices, data) of a matrix, or None.

    None, without calling ``parts``, when more than ``SPARSE_DENSITY_MAX``
    of the ``shape``'s entries are among the ``nnz`` stored, or scipy does
    not import: the fit takes its dense path then.
    """
    if nnz > SPARSE_DENSITY_MAX * shape[0] * shape[1]:
        return None
    try:
        from scipy.sparse import csr_array
    except ImportError:
        return None
    indptr, indices, data = parts()
    return csr_array((data, indices, indptr), shape=shape)


def _sparse_operand(V):
    """``fit``'s V: a sparse V as float64 CSR, a dense one as float64, CSR if sparse enough.

    A dense ``V`` becomes CSR through ``csr_operand``, built from
    ``csr_parts`` in about half the time ``csr_array(V)`` takes.  NaN and
    Inf count as non-zero, so non-finite data still reaches the checks.
    """
    if _is_sparse(V):
        V = V.tocsr().astype(np.float64, copy=False)
        V.sum_duplicates()  # in place; nothing to do on canonical CSR such as read_matrix's
        return V
    V = np.asarray(V, dtype=np.float64)
    Vs = None if V.ndim != 2 else csr_operand(np.count_nonzero(V), V.shape, lambda: csr_parts(V))
    return V if Vs is None else Vs


def _step_inputs(V, W, H, L, E):
    """(Ve, W, H, L, e): V with each row scaled by its weight (V itself for E None)."""
    V, W, H, L = _conform(V, W, H, L)
    if E is None:
        return V, W, H, L, None
    e = _row_weights_column(E, V.shape[0])
    if not _is_sparse(V):
        return V * e, W, H, L, e
    scaled = V.data * np.repeat(e[:, 0], np.diff(V.indptr))  # CSR: the stored values, per row
    return type(V)((scaled, V.indices, V.indptr), shape=V.shape), W, H, L, e


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

    Each row of H starts as the mean of ``ACOL_Q`` distinct random rows of
    V (random-Acol style, oriented so topics average documents); W starts
    uniform on [0, 1) with masked entries zeroed.  Draw order is H first,
    then W, from one PCG64 generator.  A CSR ``V`` densifies only the
    picked rows, so H comes out bitwise as from the dense V.
    """
    sparse = _is_sparse(V)
    V = V if sparse else np.asarray(V, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    n, t = V.shape
    d = config.d
    if L.shape != (n, d):
        raise ShapeError(f"mask shape {L.shape}, expected ({n}, {d})")
    rng = np.random.default_rng(config.seed)
    q = min(ACOL_Q, n)
    picks = [rng.choice(n, size=q, replace=False) for _ in range(d)]
    if sparse:  # densify the picked rows alone, in one call: scipy indexing costs per call
        V, picks = V[np.concatenate(picks)].toarray(), np.arange(d * q).reshape(d, q)
    H0 = np.empty((d, t), dtype=np.float64)
    for r in range(d):
        H0[r, :] = V[picks[r], :].mean(axis=0)
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

    ``V`` is a dense array or a scipy sparse array, which takes the CSR path.
    """
    V = _sparse_operand(V)
    L = np.asarray(L, dtype=np.float64)
    if V.ndim != 2 or L.ndim != 2:
        raise ShapeError(f"V and mask must be 2-D, got {V.ndim}-D and {L.ndim}-D")
    sparse = _is_sparse(V)
    require_nonnegative(V.data if sparse else V, "V")
    if not np.isin(L, (0.0, 1.0)).all():
        raise ValueError("mask entries must be exactly 0 or 1")

    E = row_weights if config.weighted else None
    if config.weighted and E is None:
        E = build_error_weights(V.shape[0], np.flatnonzero(~L.all(axis=1))).row_weight
    model = init_model(V, L, config)
    Ve, W, H, L, e = _step_inputs(V, model.W, model.H, L, E)
    sum_ev2 = float(np.vdot(Ve.data, V.data) if sparse else np.vdot(Ve, V))
    VeT = Ve.T if sparse else None

    def loss(W, H, WL, G, VeHt, HHt):
        cheap = sum_ev2 - 2.0 * float(np.vdot(WL, VeHt)) + float(np.vdot(G, HHt))
        # a NaN from non-finite data fails the comparison and is recomputed too
        return cheap if cheap > LOSS_GUARD * sum_ev2 else _row_weighted_sse(V, W, H, L, E)

    WL = W * L
    G = _gram(WL, e)
    losses = [loss(W, H, WL, G, Ve @ H.T, H @ H.T)]
    stop_reason = STOP_MAX_ITER
    for iteration in range(1, config.max_iter + 1):
        try:
            H_next = _h_step(Ve, WL, H, G, EPSILON, VeT)
            VeHt, HHt = Ve @ H_next.T, H_next @ H_next.T
            W_next = _w_step(W, WL, L, e, VeHt, HHt, EPSILON)
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

    return FactorModel(W=W, H=H), FitTrace(losses=tuple(losses), stop_reason=stop_reason)


def save_model(outdir, model: FactorModel, trace: FitTrace, config: FitConfig) -> None:
    """Write model.json (header), W.csv, H.csv, and trace.csv under ``outdir``."""
    out = Path(outdir)
    header = {
        "n": int(model.W.shape[0]),
        "d": int(model.W.shape[1]),
        "t": int(model.H.shape[1]),
        "max_iter": config.max_iter,
        "rel_tol": config.rel_tol,
        "epsilon": EPSILON,
        "seed": config.seed,
        "weighted": config.weighted,
        "acol_q": ACOL_Q,
        "iterations": trace.iterations,
        "stop_reason": trace.stop_reason,
        "objective": "row_weighted_sse" if config.weighted else "masked_sse",
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
