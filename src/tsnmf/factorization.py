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

The updates run in Gram form, with ``WL = W o mask``, ``e`` the weight
column (ones for the plain rule) and ``G = (WL * e)^T WL``:

    H <- H o ((WL * e)^T V) / (G H + epsilon)
    W <- W o (e * (V H^T)) / ((WL (H H^T)) * e + epsilon), then 0 where the mask is 0

so the fit passes W itself as WL.  The plain rule is the unit-weight case,
bitwise, as multiplying by 1.0 is exact.  The weights scale a product's
d-wide factor or result, never V.

One engine, ``fit_batch``, fits k problems that share V, each with its own
mask, weights and ``FitConfig`` (one d for all), in stacks of ``batch_size``
problems: on a dense V as many as keep the stacked W and H within V's size, on
a CSR V, where a stack saves no pass over V and costs time and memory, one.  A
stack is W (k, n, d) and H (k, d, t), one call per step: ``np.matmul`` makes one
BLAS call per cell, the call a 2-D product makes, so each cell gets the bits of
a fit on its own, which one gemm over merged cells would not.  A cell leaves
the stack when its own stop rule or finite check ends it.  ``fit`` is the
one-problem call, and the public ``update_*`` steps run the same half-steps on
a stack of one.  ``_products`` gives a stack its pair of products with V, each
in its form's faster orientation (dense: ``X^T V`` and ``(H V^T)^T``, with
``V^T`` a C-contiguous copy built on first use, one more n x t array per stack;
CSR: ``(V^T X)^T`` and ``V H^T``, with ``V^T`` the CSC view).  The stack's
``e``, ``sqrt(e)`` and the mask's zeros are arrays at its (k, n, d) shape,
sliced as cells leave it.  An iteration forms no n x t temporary: the loss is
recorded by the identity ``sum e||V||^2 - 2 sum(WL o e V H^T) + sum(G o HH^T)``
from the W step's products, and at or below ``LOSS_GUARD * sum e||V||^2``, where
that cancels, as the explicit residual.

Sparse data: ``fit`` and ``update_*`` multiply V in the form given: a
scipy sparse V, such as ``dataio.read_matrix`` gives, as CSR to the last
iteration; a dense V dense, however many zeros it holds.  Checks and
``sum e||V||^2`` use the stored values, ``init_model`` densifies only
the rows it averages, and the explicit residual takes either form
``RESIDUAL_BLOCK_BYTES`` of rows at a time.  The dense path is the
reference: CSR sums run in another order than BLAS and agree to rounding,
not bitwise.  Each of those steps tests V's form where the two differ;
the half-steps never do.  Dense fits and ``import tsnmf`` never load scipy.

``EPSILON`` is added to every update denominator to keep ratios finite;
the monotonicity guarantee therefore holds up to a 1e-10 relative slack
(``MONOTONE_SLACK``).  A fit that is exact up to epsilon jitters at the
rounding floor of ``V - WH``, so a stop is labeled ``loss_increased`` only
for a rise beyond that slack plus ``ROUNDING_FLOOR * sum e||V||^2``.  Float
errors never warn: ``fit_batch`` and the ``update_*_weighted`` steps each run under
one ``np.errstate(all="ignore")``, and the finite checks alone report a NaN or Inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .errors import NumericalFailureError, ShapeError
from .matrix import read_json, read_npy, write_csv, write_dense_csv, write_json, write_npy
from .supervision import build_error_weights, check_seed, check_topics

STOP_CONVERGED = "converged"
STOP_LOSS_INCREASED = "loss_increased"
STOP_MAX_ITER = "max_iter"
# the files save_model writes under a model directory; the CSVs are an export
MODEL_FILES = ("model.json", "W.npy", "H.npy", "W.csv", "H.csv", "trace.csv")

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
# The explicit residual takes at most this many bytes of V's rows at a time, densified if CSR.
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
        check_topics(self.d)
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        check_seed(self.seed)
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


def _operand(V):
    """V as ``fit`` and ``update_*`` multiply it: float64, and canonical CSR if sparse."""
    if not _is_sparse(V):
        return np.asarray(V, dtype=np.float64)
    V = V.tocsr().astype(np.float64, copy=False)
    if not V.has_canonical_format:
        V = V.copy()  # sum_duplicates works in place; the caller's array keeps its layout
        V.sum_duplicates()
    return V


def _conform(V, W, H, L):
    V = _operand(V)
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


def _row_weights(E: np.ndarray | None, n: int) -> np.ndarray:
    """``E`` as n float64 row weights; None gives the plain rule's unit weights."""
    E = np.ones(n) if E is None else np.asarray(E, dtype=np.float64)
    if E.shape != (n,):
        raise ShapeError(f"row weights shape {E.shape}, expected ({n},)")
    if not (np.isfinite(E) & (E >= 0.0)).all():  # a zero weight drops its row from the objective
        raise ValueError(f"row weights must be finite and >= 0, got {E.min()} to {E.max()}")
    return E


def loss_ts(V, W, H, L) -> float:
    """Squared Frobenius error of the masked reconstruction."""
    return _row_weighted_sse(V, W, H, L, None)


def _row_weighted_sse(V, W, H, L, E) -> float:
    """sum_i E_i * ||row i residual||^2 — the objective the weighted updates descend.

    With ``E`` None, unit weights, this is the plain masked loss, ``loss_ts``.  ``V``
    is taken ``RESIDUAL_BLOCK_BYTES`` of rows at a time, densified if CSR, so a CSR
    ``V`` gives the dense bits.
    """
    V, W, H, L = _conform(V, W, H, L)
    e = _row_weights(E, V.shape[0])[:, np.newaxis]
    sparse = _is_sparse(V)
    rows = max(1, RESIDUAL_BLOCK_BYTES // (8 * V.shape[1] or 1))
    WL, total = W * L, 0.0
    for start in range(0, V.shape[0], rows):
        block = slice(start, start + rows)
        R = (V[block].toarray() if sparse else V[block]) - WL[block] @ H
        total += float(np.sum(e[block] * R * R))
    return total


def _check_finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericalFailureError(f"{what} produced NaN or Inf entries", iteration=-1)
    return a


def _gram(WL: np.ndarray, sqrt_e: np.ndarray) -> np.ndarray:
    """G = (WL * e)^T WL per cell, the d x d row-weighted Gram matrices of the masked W.

    Formed as S^T S with S = WL * sqrt(e), which numpy runs as syrk (``A.T @ A``),
    slice by slice; the gemm of (WL * e)^T WL differs in the last bits, and unit
    weights must keep the plain rule's bits.
    """
    S = WL * sqrt_e
    return S.transpose(0, 2, 1) @ S


def _products(V):
    """``X -> X^T V`` and ``H -> V H^T`` per cell of a stack, each in V's form's faster order."""
    if not _is_sparse(V):
        # H V^T takes a faster gemm than V H^T; built on first use, so update_h_* never copies V
        VT = cache(lambda: np.ascontiguousarray(V.T))
        return (lambda X: X.transpose(0, 2, 1) @ V), (lambda H: (H @ VT()).transpose(0, 2, 1))
    VT = V.T  # held: scipy would build this CSC view on every H step
    # a CSR stack holds one cell, as batch_size gives 1 on a sparse V
    return (lambda X: (VT @ X[0]).T[np.newaxis]), (lambda H: (V @ H[0].T)[np.newaxis])


def _weights(E: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights ``E`` (k, n) and their roots at (k, n, d), which multiply faster than a column."""
    e = np.repeat(E[:, :, np.newaxis], d, axis=2)
    return e, np.sqrt(e)


def _h_step(H, G, WLetV, epsilon: float) -> np.ndarray:
    """H o ((WL * e)^T V) / (G H + epsilon) per cell, given that numerator; zeros stay zero."""
    out = G @ H
    out += epsilon
    np.divide(WLetV, out, out=out)
    out *= H
    return out


def _w_step(W, WL, eVHt, HHt, e, forbidden, epsilon: float) -> np.ndarray:
    """W o (e * (V H^T)) / ((WL HH^T) * e + epsilon) per cell, pinned to exactly 0 where forbidden.

    At forbidden positions (L == 0) W is 0, or is pinned there anyway, so the
    ratio needs no mask.
    """
    out = WL @ HHt
    out *= e
    out += epsilon
    np.divide(eVHt, out, out=out)
    out *= W
    out[forbidden] = 0.0
    return out


def _one_cell(V, W, H, L, E):
    """V, W, H and L conformed, the last three as a stack of one cell, and its e and sqrt(e)."""
    V, W, H, L = _conform(V, W, H, L)
    e, sqrt_e = _weights(_row_weights(E, V.shape[0])[np.newaxis], L.shape[1])
    return V, W[np.newaxis], H[np.newaxis], L[np.newaxis], e, sqrt_e


def update_h(V, W, H, L, epsilon: float) -> np.ndarray:
    """One multiplicative step on H.

    Each entry is scaled by the ratio of the masked correlation with V to
    the masked self-correlation with the current reconstruction, epsilon
    added to every denominator entry.  Zero entries stay zero.
    """
    return update_h_weighted(V, W, H, L, None, epsilon)


def update_w(V, W, H, L, epsilon: float) -> np.ndarray:
    """One W step, masked entries exactly 0; each call copies a dense V^T, so loops use fit."""
    return update_w_weighted(V, W, H, L, None, epsilon)


@np.errstate(all="ignore")
def update_h_weighted(V, W, H, L, E, epsilon: float) -> np.ndarray:
    """Row-weighted multiplicative step on H; ``E`` of None or all ones is update_h."""
    V, W, H, L, e, sqrt_e = _one_cell(V, W, H, L, E)
    WL = W * L
    XtV, _ = _products(V)
    return _check_finite(_h_step(H, _gram(WL, sqrt_e), XtV(WL * e), epsilon)[0], "H update")


@np.errstate(all="ignore")
def update_w_weighted(V, W, H, L, E, epsilon: float) -> np.ndarray:
    """Row-weighted multiplicative step on W with the same mask zeroing as update_w.

    The weight of row i scales both the numerator and denominator of that
    row's ratios, so for row-constant weights this is numerically close to
    the unweighted step and identical to it when E is all ones.
    On a dense V every call copies ``V^T`` (n x t); ``fit`` copies it once, so loops call ``fit``.
    """
    V, W, H, L, e, _ = _one_cell(V, W, H, L, E)
    _, VHt = _products(V)
    HHt = H @ H.transpose(0, 2, 1)
    return _check_finite(_w_step(W, W * L, VHt(H) * e, HHt, e, L == 0.0, epsilon)[0], "W update")


def init_model(V, L, config: FitConfig) -> FactorModel:
    """Seeded initialization.

    Each row of H starts as the mean of ``ACOL_Q`` distinct random rows of
    V (random-Acol style, oriented so topics average documents); W starts
    uniform on [0, 1) with masked entries zeroed.  Draw order is H first,
    then W, from one PCG64 generator.  The picked rows come in one gather,
    densified alone for a CSR ``V``, so H is bitwise that of the dense V.
    """
    L = np.asarray(L, dtype=np.float64)
    n, t = np.shape(V)
    d = config.d
    if L.shape != (n, d):
        raise ShapeError(f"mask shape {L.shape}, expected ({n}, {d})")
    rng = np.random.default_rng(config.seed)
    q = min(ACOL_Q, n)
    rows = np.concatenate([rng.choice(n, size=q, replace=False) for _ in range(d)])
    picked = V[rows].toarray() if _is_sparse(V) else np.asarray(V, dtype=np.float64)[rows]
    H0 = picked.reshape(d, q, t).mean(axis=1)
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
    mask constrains) and the trace records the row-weighted squared error;
    without it, ``row_weights`` is a ``ValueError``.

    ``V`` is multiplied in the form given: dense, or as CSR if scipy sparse.
    This is ``fit_batch`` of one problem.
    """
    (outcome,) = fit_batch(V, [(L, config, row_weights)])
    if isinstance(outcome, NumericalFailureError):
        raise outcome
    return outcome


def _cell(V, L, config: FitConfig, E) -> tuple:
    """One problem's checked mask, its config, its checked row weights and its sum e||V||^2."""
    sparse = _is_sparse(V)
    lowest = (V.data if sparse else V).min(initial=0.0)
    if lowest < 0.0:
        raise ValueError(f"V must be non-negative, min entry is {lowest}")
    L = np.asarray(L, dtype=np.float64)
    if V.ndim != 2 or L.ndim != 2 or 0 in V.shape:
        raise ShapeError(f"V and mask must be 2-D, V non-empty; got shapes {V.shape} and {L.shape}")
    if not np.isin(L, (0.0, 1.0)).all():
        raise ValueError("mask entries must be exactly 0 or 1")
    if E is not None and not config.weighted:
        raise ValueError("row_weights need config.weighted; the plain rule has no weights")
    if config.weighted and E is None:
        E = build_error_weights(V.shape[0], np.flatnonzero(~L.all(axis=1))).row_weight
    E = _row_weights(E, V.shape[0])
    # sum e||V||^2 of the stored values; taken before V^T is held, so its n x t temporary is gone
    if sparse:
        return L, config, E, float(np.vdot(V.data * np.repeat(E, np.diff(V.indptr)), V.data))
    return L, config, E, float(np.vdot(V * E[:, np.newaxis], V))


def batch_size(V, d: int) -> int:
    """Problems per ``fit_batch`` stack: 1 on a sparse V, else as many as fit W and H in V's size."""
    return 1 if _is_sparse(V) else max(1, np.size(V) // (d * sum(np.shape(V))))


@np.errstate(all="ignore")
def fit_batch(V, problems) -> list:
    """Fit problems that share ``V``, each an ``(L, config, row_weights)`` triple as ``fit`` takes.

    Returns, per problem in order, its ``(model, trace)``, bitwise that of
    ``fit``, or the ``NumericalFailureError`` it failed with, which carries its
    losses; a problem ``fit`` would reject raises here.  The problems need one
    topic count d; they run in stacks of ``batch_size(V, d)``, as the module
    docstring says.
    """
    V = _operand(V)
    cells = [_cell(V, *problem) for problem in problems]
    topics = sorted({config.d for _, config, _, _ in cells})
    if len(topics) > 1:
        raise ShapeError(f"one batch fits one topic count, got {topics}")
    size = batch_size(V, topics[0]) if topics else 1
    return [outcome for start in range(0, len(cells), size)
            for outcome in _fit_stack(V, cells[start:start + size])]


def _fit_stack(V, cells) -> list:
    """The outcomes of checked problems on the operand ``V``, fitted as one stack."""
    masks, configs, weights, sum_ev2 = zip(*cells)
    models = [init_model(V, L, config) for L, config in zip(masks, configs)]
    XtV, VHt = _products(V)
    forbidden = np.stack(masks) == 0.0
    e, sqrt_e = _weights(np.stack(weights), configs[0].d)

    def loss(c, W, H, G, eVHt, HHt):
        cheap = sum_ev2[c] - 2.0 * float(np.vdot(W, eVHt)) + float(np.vdot(G, HHt))
        # a NaN from non-finite data fails the comparison and is recomputed too
        if cheap > LOSS_GUARD * sum_ev2[c]:
            return cheap
        return _row_weighted_sse(V, W, H, masks[c], weights[c])

    # W is 0 wherever L is, from init_model and after every W step, so W o L is W itself
    W = np.stack([model.W for model in models])
    H = np.stack([model.H for model in models])
    G = _gram(W, sqrt_e)
    eVHt, HHt = VHt(H) * e, H @ H.transpose(0, 2, 1)
    losses = [[loss(c, W[c], H[c], G[c], eVHt[c], HHt[c])] for c in range(len(cells))]
    outcomes: list = [None] * len(cells)
    live = np.arange(len(cells))  # the problem at each position of the stack
    iteration = 0
    while live.size:  # each cell leaves by its max_iter
        iteration += 1
        H = _h_step(H, G, XtV(W * e), EPSILON)
        # a cell whose H step failed takes its W step too, alone in its slices, and leaves below
        eVHt, HHt = VHt(H) * e, H @ H.transpose(0, 2, 1)
        W = _w_step(W, W, eVHt, HHt, e, forbidden, EPSILON)
        G = _gram(W, sqrt_e)
        finite_H, finite_W = np.isfinite(H).all(axis=(1, 2)), np.isfinite(W).all(axis=(1, 2))
        for j, c in enumerate(live):
            if not (finite_H[j] and finite_W[j]):
                what = "W update" if finite_H[j] else "H update"
                outcomes[c] = NumericalFailureError(
                    f"{what} produced NaN or Inf entries", iteration=iteration, losses=losses[c])
                continue
            losses[c].append(loss(c, W[j], H[j], G[j], eVHt[j], HHt[j]))
            reason = _stop_reason(losses[c][-2], losses[c][-1], configs[c].rel_tol, sum_ev2[c])
            if reason is None and iteration == configs[c].max_iter:
                reason = STOP_MAX_ITER
            if reason is not None:
                model = FactorModel(W=W[j].copy(), H=H[j].copy())
                outcomes[c] = model, FitTrace(losses=tuple(losses[c]), stop_reason=reason)
        ok = np.array([outcomes[c] is None for c in live], dtype=bool)
        if not ok.all():
            live, W, H, G = live[ok], W[ok], H[ok], G[ok]
            e, sqrt_e, forbidden = e[ok], sqrt_e[ok], forbidden[ok]
    return outcomes


def save_model(outdir, model: FactorModel, trace: FitTrace, config: FitConfig) -> None:
    """Write the ``MODEL_FILES`` under ``outdir``, the header model.json last.

    W.npy and H.npy hold the factors ``read_factor`` reads, and W.csv and H.csv
    the same factors as a text export that nothing in the package reads;
    trace.csv holds the loss of each iteration.  model.json marks the
    directory whole, as every reader needs it: a run deletes it before its
    first write (``experiment.write_supervision``) and writes its other files first.
    """
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
    write_npy(out / "W.npy", model.W)
    write_npy(out / "H.npy", model.H)
    write_dense_csv(model.W, out / "W.csv")
    write_dense_csv(model.H, out / "H.csv")
    write_trace_csv(out, trace.losses)
    write_json(out / "model.json", header)


def write_trace_csv(outdir, losses) -> None:
    """Write trace.csv (``iteration,loss``) under ``outdir``."""
    write_csv(Path(outdir) / "trace.csv", [("iteration", "loss"), *enumerate(losses)])


def read_factor(modeldir, name: str) -> np.ndarray:
    """Factor ``name``, "W" or "H", of a model directory written by save_model, from its .npy.

    The factor must be a 2-D floating array of the shape ``model.json``
    records as the JSON integers n, d and t, (n, d) for W and (d, t) for H,
    with entries, at least one, all finite and >= 0; a ``ValueError`` names
    the file.
    """
    modeldir = Path(modeldir)
    header = read_json(modeldir / "model.json", dict.fromkeys("ndt", ((int,), "an integer")))
    shape = tuple(header[key] for key in {"W": ("n", "d"), "H": ("d", "t")}[name])
    path = modeldir / f"{name}.npy"
    a = read_npy(path, 2, np.floating).astype(np.float64, copy=False)
    if a.shape != shape:
        raise ValueError(f"{path}: shape {a.shape}, model.json records {shape}")
    if not a.size:
        raise ValueError(f"{path}: shape {a.shape} holds no entries")
    if not np.isfinite(a).all() or a.min() < 0.0:
        raise ValueError(f"{path}: entries must be finite and >= 0")
    return a
