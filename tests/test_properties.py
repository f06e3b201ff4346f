"""Property tests of the fit on sparse non-negative data, on both product paths.

Hypothesis draws the shape, the sparsity pattern (with whole zero rows and
zero columns), the topic count and a label table that may have fewer labels
than topics.  Every fit must keep W exactly zero where the mask is zero,
keep both factors non-negative, and record a loss trace that never rises by
more than ``MONOTONE_SLACK``, relative, above the rounding floor of the loss.

The floor is ``ROUNDING_FLOOR * sum e||V||^2``.  A fit that is exact up to
the epsilon in the update denominators (a rank-1 V with d = 1, say) settles
on a loss near 1e-20 of ``sum e||V||^2``, where ``V - WH`` cancels all but
a few digits and successive values differ by parts in 1e6.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("scipy.sparse")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from tsnmf.factorization import MONOTONE_SLACK, ROUNDING_FLOOR, FitConfig, fit
from tsnmf.supervision import LabelTable, build_error_weights, build_mask

# fit multiplies V in the form it is given: CSR products, or dense BLAS
PATHS = {"csr": csr_array, "dense": np.asarray}


@st.composite
def problems(draw):
    n = draw(st.integers(1, 12))
    t = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    n_labels = draw(st.integers(1, d))  # more topics than labels whenever n_labels < d
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.2, 0.5]))
    V = rng.uniform(0.1, 10.0, size=(n, t)) * (rng.random((n, t)) < density)
    V[sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))), :] = 0.0
    V[:, sorted(draw(st.sets(st.integers(0, t - 1), max_size=t)))] = 0.0
    doc_labels = tuple(
        frozenset(draw(st.sets(st.integers(0, n_labels - 1), min_size=1))) for _ in range(n)
    )
    table = LabelTable(labels=tuple(f"l{j}" for j in range(n_labels)), doc_labels=doc_labels)
    supervised = draw(st.sets(st.integers(0, n - 1)))
    L = build_mask(table, supervised, n, d).matrix
    weighted = draw(st.booleans())
    E = build_error_weights(n, supervised).row_weight if weighted else None
    cfg = FitConfig(d=d, seed=draw(st.integers(0, 1000)), max_iter=30, rel_tol=1e-12,
                    weighted=weighted)
    return V, L, E, cfg


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems(), path=st.sampled_from(sorted(PATHS)))
def test_fit_invariants_on_sparse_data(problem, path):
    V, L, E, cfg = problem
    model, trace = fit(PATHS[path](V), L, cfg, row_weights=E)
    assert (model.W[L == 0.0] == 0.0).all()
    assert model.W.min() >= 0.0 and model.H.min() >= 0.0
    losses = np.array(trace.losses)
    scale = float(np.vdot(V, V)) if E is None else float(np.vdot(V * E[:, None], V))
    rise = losses[1:] - losses[:-1] * (1 + MONOTONE_SLACK)
    assert (rise <= ROUNDING_FLOOR * scale).all(), losses
