"""Engine tests: losses, update rules, initialization, and the fit loop."""

import ast
import dataclasses
import re
import subprocess
import tracemalloc
from importlib.util import find_spec
from pathlib import Path

import numpy as np
import pytest

from tsnmf import factorization
from tsnmf.dataio import SPARSE_DENSITY_MAX
from tsnmf.errors import NumericalFailureError, ShapeError
from tsnmf.factorization import (
    ACOL_Q,
    EPSILON,
    LOSS_GUARD,
    MONOTONE_SLACK,
    ROUNDING_FLOOR,
    FitConfig,
    batch_size,
    _row_weighted_sse,
    _stop_reason,
    fit,
    fit_batch,
    init_model,
    loss_ts,
    read_factor,
    save_model,
    update_h,
    update_h_weighted,
    update_w,
    update_w_weighted,
)
from tsnmf.matrix import read_json
from tsnmf.supervision import (
    build_error_weights,
    build_label_table,
    build_mask,
    sample_supervised_set,
)
from tsnmf.synthetic import make_planted_instance

EPS = 1e-9
TINY = 1e-300  # effectively-zero denominator guard for fixed-point checks


def _random_instance(rng, n=None, t=None, d=None):
    n = n or int(rng.integers(5, 30))
    t = t or int(rng.integers(5, 30))
    d = d or int(rng.integers(1, 6))
    V = rng.random((n, t))
    L = (rng.random((n, d)) < 0.7).astype(float)
    for i in range(n):
        if L[i].sum() == 0:
            L[i, rng.integers(d)] = 1.0
    return V, L


class TestLosses:
    def test_exact_factorization_is_zero(self):
        eye = np.eye(2)
        assert loss_ts(eye, eye, eye, np.ones((2, 2))) == 0.0

    def test_zero_mask_leaves_v_norm(self):
        rng = np.random.default_rng(0)
        V = rng.random((3, 4))
        W = rng.random((3, 2))
        H = rng.random((2, 4))
        assert loss_ts(V, W, H, np.zeros((3, 2))) == pytest.approx(np.sum(V * V))

    def test_scalar_case(self):
        assert loss_ts([[4.0]], [[2.0]], [[1.0]], [[1.0]]) == 4.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_ts(np.ones((3, 4)), np.ones((2, 2)), np.ones((2, 4)), np.ones((2, 2)))


# V is 3 x 4 and d = 2; each call gets one shape wrong
@pytest.mark.parametrize("call, message", [
    (lambda V: update_h(V, np.ones((3, 2)), np.ones((2, 4)), np.ones((3, 3)), EPS),
     "mask shape (3, 3), expected (3, 2)"),
    (lambda V: update_w(V, np.ones((3, 2)), np.ones((3, 4)), np.ones((3, 2)), EPS),
     "H shape (3, 4), expected (2, 4)"),
    (lambda V: update_h_weighted(V, np.ones((3, 2)), np.ones((2, 4)), np.ones((3, 2)),
                                 np.ones(2), EPS),
     "row weights shape (2,), expected (3,)"),
    (lambda V: fit(V, np.ones((3, 3)), FitConfig(d=2, seed=0)), "mask shape (3, 3), expected (3, 2)"),
    (lambda V: init_model(V, np.ones((2, 2)), FitConfig(d=2, seed=0)),
     "mask shape (2, 2), expected (3, 2)"),
], ids=["mask_vs_W", "H", "row_weights", "fit_mask", "init_model_mask"])
def test_shape_errors_name_the_shapes(call, message):
    with pytest.raises(ShapeError, match=re.escape(message)):
        call(np.ones((3, 4)))


# every engine entry on a 10 x 8 V with d = 3, given the V and the mask of an input fault
_W, _H, _WEIGHTED = np.ones((10, 3)), np.ones((3, 8)), FitConfig(d=3, seed=0, weighted=True)
ENGINE_ENTRIES = {
    "fit": lambda V, L: fit(V, L, _WEIGHTED, np.ones(10)),
    "fit_batch": lambda V, L: fit_batch(V, [(np.ones((10, 3)), _WEIGHTED, np.ones(10)),
                                            (L, _WEIGHTED, np.ones(10))]),
    "update_h": lambda V, L: update_h(V, _W, _H, L, EPS),
    "update_w": lambda V, L: update_w(V, _W, _H, L, EPS),
    "update_h_weighted": lambda V, L: update_h_weighted(V, _W, _H, L, None, EPS),
    "update_w_weighted": lambda V, L: update_w_weighted(V, _W, _H, L, None, EPS),
    "loss_ts": lambda V, L: loss_ts(V, _W, _H, L),
    "init_model": lambda V, L: init_model(V, L, _WEIGHTED),
}


def _mask_of_12_rows():
    # its extra row is constrained, so a use of the mask before the shape check indexes past V
    L = np.ones((12, 3))
    L[11] = [1.0, 0.0, 0.0]
    return L


# fault -> (V, mask, the error, its message); each breaks one input rule
INPUT_FAULTS = {
    "negative_V": (np.where(np.arange(80).reshape(10, 8) == 13, -1.0, 1.0), np.ones((10, 3)),
                   ValueError, "V must be non-negative, min entry is -1.0"),
    "one_d_V": (np.ones(8), np.ones((10, 3)), ShapeError,
                "V must be 2-D and non-empty, got shape (8,)"),
    "empty_V": (np.ones((10, 0)), np.ones((10, 3)), ShapeError,
                "V must be 2-D and non-empty, got shape (10, 0)"),
    "mask_of_halves": (np.ones((10, 8)), np.full((10, 3), 0.5), ValueError,
                       "mask entries must be exactly 0 or 1"),
    "mask_too_narrow": (np.ones((10, 8)), np.ones((10, 2)), ShapeError,
                        "mask shape (10, 2), expected (10, 3)"),
    "mask_of_12_rows": (np.ones((10, 8)), _mask_of_12_rows(), ShapeError,
                        "mask shape (12, 3), expected (10, 3)"),
}


@pytest.mark.parametrize("entry, fault", [
    (entry, fault) for entry in ENGINE_ENTRIES for fault in INPUT_FAULTS
])
def test_every_engine_entry_raises_one_error_per_input_fault(entry, fault):
    V, L, error, message = INPUT_FAULTS[fault]
    with pytest.raises(error, match="^" + re.escape(message) + "$") as excinfo:
        ENGINE_ENTRIES[entry](V, L)
    assert type(excinfo.value) is error


def test_each_fit_input_rule_is_written_once():
    """Only ``check_mask`` tests a mask's entries for 0 and 1, and only ``_operand`` V's sign.

    A mask test is an ``isin`` call or the "0 or 1" message; a sign test is a min of
    V, an order comparison of V, or the "must be non-negative" message.  The
    supervision policy has one owner too: only ``plan_fit`` calls
    ``build_error_weights``, and the engine imports no ``build_*`` or ``sample_*``.
    """
    def reads_v(node):
        return any(isinstance(n, ast.Name) and n.id == "V" for n in ast.walk(node))

    def says(node, words):
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and words in node.value

    def tests_mask(node):
        return isinstance(node, ast.Attribute) and node.attr == "isin" or says(node, "0 or 1")

    def tests_v_sign(node):
        order = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("min", "amin", "nanmin") and reads_v(node)
                or isinstance(node, ast.Compare) and any(isinstance(op, order) for op in node.ops)
                and reads_v(node) or says(node, "must be non-negative"))

    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(factorization.__file__).parent.glob("*.py"))}

    def functions_where(test):
        return {(module, node.name) for module, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and any(map(test, ast.walk(node)))}

    def calls_error_weights(node):
        return isinstance(node, ast.Call) and "build_error_weights" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    assert functions_where(tests_mask) == {("supervision.py", "check_mask")}
    assert functions_where(tests_v_sign) == {("factorization.py", "_operand")}
    assert functions_where(calls_error_weights) == {("experiment.py", "plan_fit")}
    imported = {alias.asname or alias.name for node in ast.walk(trees["factorization.py"])
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not {name for name in imported if name.startswith(("build_", "sample_"))}


class TestUpdateH:
    def test_fixed_point_at_exact_factorization(self):
        rng = np.random.default_rng(2)
        W = rng.random((6, 3))
        H = rng.random((3, 5))
        L = np.ones((6, 3))
        V = (W * L) @ H
        H2 = update_h(V, W, H, L, TINY)
        np.testing.assert_allclose(H2, H, rtol=1e-12)

    def test_scalar_hand_case(self):
        out = update_h([[4.0]], [[2.0]], [[1.0]], [[1.0]], TINY)
        assert out[0, 0] == pytest.approx(2.0)  # ratio 8/4

    def test_zero_entries_locked(self):
        rng = np.random.default_rng(3)
        V, L = _random_instance(rng)
        n, d = L.shape
        W = rng.random((n, d))
        H = rng.random((d, V.shape[1]))
        H[0, :] = 0.0
        H2 = update_h(V, W, H, L, EPS)
        np.testing.assert_array_equal(H2[0, :], 0.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        V, L = _random_instance(rng)
        n, d = L.shape
        W = rng.random((n, d))
        H = rng.random((d, V.shape[1]))
        assert update_h(V, W, H, L, EPS).min() >= 0.0

    def test_nan_raises_numerical_failure(self):
        V = np.array([[np.inf]])
        with pytest.raises(NumericalFailureError):
            update_h(V, [[1.0]], [[1.0]], [[1.0]], EPS)

    @pytest.mark.parametrize("step", [update_h, update_w])
    def test_invalid_step_raises_numerical_failure_and_no_warning(self, step):
        # inf / inf or 0 * inf in the ratio: only the finite check reports it, as warnings fail here
        with pytest.raises(NumericalFailureError, match="update produced NaN or Inf entries"):
            step([[1.0]], [[1.0]], [[np.inf]], [[1.0]], EPS)


class TestUpdateW:
    def test_masked_entries_exactly_zero(self):
        rng = np.random.default_rng(5)
        V, L = _random_instance(rng)
        n, d = L.shape
        W = rng.random((n, d))
        H = rng.random((d, V.shape[1]))
        W2 = update_w(V, W, H, L, EPS)
        assert (W2[L == 0.0] == 0.0).all()

    def test_fixed_point_at_exact_factorization(self):
        rng = np.random.default_rng(6)
        W = rng.random((6, 3))
        H = rng.random((3, 5))
        L = np.ones((6, 3))
        V = W @ H
        W2 = update_w(V, W, H, L, TINY)
        np.testing.assert_allclose(W2, W, rtol=1e-12)

    def test_scalar_hand_case(self):
        out = update_w([[4.0]], [[1.0]], [[2.0]], [[1.0]], TINY)
        assert out[0, 0] == pytest.approx(2.0)  # ratio 8/4


class TestWeightedUpdates:
    def test_unit_weights_match_unweighted_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            V, L = _random_instance(rng)
            n, d = L.shape
            W = rng.random((n, d))
            H = rng.random((d, V.shape[1]))
            ones = np.ones(n)
            assert np.array_equal(
                update_h_weighted(V, W, H, L, ones, EPS), update_h(V, W, H, L, EPS)
            )
            assert np.array_equal(
                update_w_weighted(V, W, H, L, ones, EPS), update_w(V, W, H, L, EPS)
            )

    def test_scalar_hand_cases(self):
        h = update_h_weighted([[4.0]], [[2.0]], [[1.0]], [[1.0]], np.array([3.0]), TINY)
        assert h[0, 0] == pytest.approx(2.0)  # 24/12
        w = update_w_weighted([[4.0]], [[1.0]], [[2.0]], [[1.0]], np.array([2.0]), TINY)
        assert w[0, 0] == pytest.approx(2.0)  # 16/8

    def test_fixed_point_for_any_weights(self):
        rng = np.random.default_rng(8)
        W = rng.random((6, 3))
        H = rng.random((3, 5))
        L = np.ones((6, 3))
        V = W @ H
        e = rng.uniform(1.0, 9.0, size=6)
        np.testing.assert_allclose(update_h_weighted(V, W, H, L, e, TINY), H, rtol=1e-12)
        np.testing.assert_allclose(update_w_weighted(V, W, H, L, e, TINY), W, rtol=1e-12)

    def test_masked_entries_exactly_zero(self):
        rng = np.random.default_rng(9)
        V, L = _random_instance(rng)
        n, d = L.shape
        W = rng.random((n, d))
        H = rng.random((d, V.shape[1]))
        e = rng.uniform(1.0, 5.0, size=n)
        W2 = update_w_weighted(V, W, H, L, e, EPS)
        assert (W2[L == 0.0] == 0.0).all()


class TestInitModel:
    def test_masked_entries_start_at_zero(self):
        rng = np.random.default_rng(10)
        V, L = _random_instance(rng, n=12, t=9, d=4)
        model = init_model(V, L, FitConfig(d=4, seed=3))
        assert (model.W[L == 0.0] == 0.0).all()

    def test_h_rows_are_row_means(self):
        rng = np.random.default_rng(11)
        V, L = _random_instance(rng, n=12, t=9, d=4)
        model = init_model(V, L, FitConfig(d=4, seed=3))
        assert model.H.min() >= 0.0
        assert model.H.max() <= V.max() + 1e-15

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(12)
        V, L = _random_instance(rng, n=12, t=9, d=4)
        a = init_model(V, L, FitConfig(d=4, seed=5))
        b = init_model(V, L, FitConfig(d=4, seed=5))
        c = init_model(V, L, FitConfig(d=4, seed=6))
        assert np.array_equal(a.W, b.W) and np.array_equal(a.H, b.H)
        assert not np.array_equal(a.W, c.W)

    def test_acol_q_clamped_to_row_count(self):
        n = ACOL_Q - 2
        V = np.random.default_rng(13).random((n, 5))
        model = init_model(V, np.ones((n, 2)), FitConfig(d=2, seed=0))
        # fewer rows than ACOL_Q: every row of H is the mean of all rows of V
        np.testing.assert_allclose(model.H, np.tile(V.mean(axis=0), (2, 1)), rtol=1e-15)


class TestFitConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"d": 0}, "topic count must be >= 1, got 0"),
            ({"d": 2, "max_iter": 0}, "max_iter must be >= 1, got 0"),
            ({"d": 2, "rel_tol": 0.0}, "rel_tol must be finite and > 0, got 0.0"),
            ({"d": 2, "seed": -1}, "seed must be >= 0, got -1"),
            # an integer field takes no float, which could skip its checks, and no bool
            ({"d": 2.5}, "topic count must be an integer, got 2.5"),
            ({"d": True}, "topic count must be an integer, got True"),
            ({"d": 2, "max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
            ({"d": 2, "max_iter": np.float64(3.0)}, "max_iter must be an integer, got "),
            ({"d": 2, "seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"d": 2, "seed": True}, "seed must be an integer, got True"),
            ({"d": 2, "seed": np.True_}, "seed must be an integer, got "),
            ({"d": 2, "seed": "1"}, "seed must be an integer, got '1'"),
        ],
        ids=["d_zero", "max_iter_zero", "rel_tol_zero", "seed_negative", "d_float", "d_bool",
             "max_iter_float", "max_iter_numpy_float", "seed_float", "seed_bool",
             "seed_numpy_bool", "seed_string"],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            FitConfig(**kwargs)

    def test_takes_numpy_integers(self):
        config = FitConfig(d=np.int64(2), max_iter=np.int32(3), seed=np.uint8(4))
        V, L = _random_instance(np.random.default_rng(30), n=8, t=6, d=2)
        assert fit(V, L, config)[1].iterations <= 3


class TestFit:
    def test_planted_exact_factorization_recovered(self):
        rng = np.random.default_rng(0)
        n, t, d = 20, 15, 3
        L = (rng.random((n, d)) < 0.7).astype(float)
        for i in range(n):
            if L[i].sum() == 0:
                L[i, rng.integers(d)] = 1.0
        W_true = rng.random((n, d)) * L
        H_true = rng.random((d, t))
        V = W_true @ H_true
        model, trace = fit(V, L, FitConfig(d=d, seed=0, max_iter=2000, rel_tol=1e-12))
        assert trace.final_loss <= trace.losses[0]
        assert trace.final_loss <= 1e-6 * np.sum(V * V)

    def test_mask_invariance_is_exact(self):
        rng = np.random.default_rng(15)
        V, L = _random_instance(rng, n=25, t=18, d=5)
        model, _ = fit(V, L, FitConfig(d=5, seed=2))
        assert (model.W[L == 0.0] == 0.0).all()
        assert model.W.min() >= 0.0 and model.H.min() >= 0.0

    def test_empty_mask_set_equals_all_ones_mask_bitwise(self):
        rng = np.random.default_rng(16)
        V = rng.random((15, 10))
        ones = np.ones((15, 4))
        cfg = FitConfig(d=4, seed=7)
        m1, t1 = fit(V, ones, cfg)
        m2, t2 = fit(V, np.ones_like(ones), cfg)
        assert np.array_equal(m1.W, m2.W) and np.array_equal(m1.H, m2.H)
        assert t1.losses == t2.losses

    def test_trace_monotone_within_slack(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            V, L = _random_instance(rng)
            _, trace = fit(V, L, FitConfig(d=L.shape[1], seed=3, max_iter=60, rel_tol=1e-15))
            losses = np.array(trace.losses)
            assert (losses[1:] <= losses[:-1] * (1 + 1e-10)).all()

    def test_weighted_flag_uses_row_weighted_objective(self, tmp_path):
        rng = np.random.default_rng(18)
        V, L = _random_instance(rng)
        for weighted, objective in ((True, "row_weighted_sse"), (False, "masked_sse")):
            cfg = FitConfig(d=L.shape[1], seed=4, weighted=weighted)
            save_model(tmp_path, *fit(V, L, cfg), cfg)
            assert read_json(tmp_path / "model.json")["objective"] == objective

    def test_rejects_negative_v(self):
        message = "V must be non-negative, min entry is -1.0"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            fit(np.array([[-1.0]]), np.ones((1, 1)), FitConfig(d=1, seed=0))

    def test_rejects_nonbinary_mask(self):
        with pytest.raises(ValueError, match="0 or 1"):
            fit(np.ones((2, 2)), np.full((2, 1), 0.5), FitConfig(d=1, seed=0))

    def test_rejects_row_weights_for_the_plain_rule_naming_weighted(self):
        V, L = _random_instance(np.random.default_rng(29), n=8, t=6, d=2)
        with pytest.raises(ValueError, match="weighted"):
            fit(V, L, FitConfig(d=2, seed=0), row_weights=np.ones(8))

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0)], ids=["no_rows", "no_columns"])
    def test_rejects_empty_v_naming_its_shape(self, shape):
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            fit(np.zeros(shape), np.ones((shape[0], 2)), FitConfig(d=2, seed=0))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("step", ["fit", "update_h_weighted"])
    def test_rejects_non_finite_or_negative_row_weights(self, step, bad):
        V, L = _random_instance(np.random.default_rng(27), n=8, t=6, d=2)
        E = np.ones(8)
        E[3] = bad
        with pytest.raises(ValueError, match=f"row weights.*{bad}"):
            if step == "fit":
                fit(V, L, FitConfig(d=2, seed=0, weighted=True), row_weights=E)
            else:
                update_h_weighted(V, L, np.ones((2, 6)), L, E, EPS)

    def test_zero_row_weight_drops_the_row_from_the_objective(self):
        V, L = _random_instance(np.random.default_rng(28), n=8, t=6, d=2)
        E = np.ones(8)
        E[[2, 5]] = 0.0
        model, trace = fit(V, L, FitConfig(d=2, seed=0, weighted=True), row_weights=E)
        assert np.isfinite(trace.losses).all()
        assert trace.final_loss == pytest.approx(
            _row_weighted_sse(np.delete(V, [2, 5], 0), np.delete(model.W, [2, 5], 0), model.H,
                              np.delete(L, [2, 5], 0), None), rel=1e-10)

    def test_numerical_failure_carries_iteration_and_trace(self):
        V = np.array([[np.inf, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalFailureError) as excinfo:
            fit(V, np.ones((2, 2)), FitConfig(d=2, seed=0))
        assert excinfo.value.iteration == 1
        assert len(excinfo.value.losses) == 1

    def test_zero_weight_on_an_infinite_row_fails_without_a_warning(self):
        # the set-up's sum e||V||^2 takes 0 * inf before any step; warnings fail here
        V = np.array([[np.inf, 1.0], [1.0, 1.0]])
        config = FitConfig(d=2, seed=0, weighted=True)
        with pytest.raises(NumericalFailureError, match="^H update") as excinfo:
            fit(V, np.ones((2, 2)), config, row_weights=np.array([0.0, 1.0]))
        assert excinfo.value.iteration == 1

    def test_stop_reason_max_iter(self):
        rng = np.random.default_rng(20)
        V, L = _random_instance(rng)
        _, trace = fit(V, L, FitConfig(d=L.shape[1], seed=6, max_iter=3, rel_tol=1e-15))
        assert trace.stop_reason == "max_iter"
        assert trace.iterations == 3

    def test_stop_reason_converged(self):
        rng = np.random.default_rng(21)
        V, L = _random_instance(rng)
        _, trace = fit(V, L, FitConfig(d=L.shape[1], seed=7, max_iter=500, rel_tol=1e-3))
        assert trace.stop_reason == "converged"
        assert trace.iterations < 500

    def test_stop_rule(self):
        assert _stop_reason(10.0, 5.0, 1e-4, 0.0) is None
        assert _stop_reason(10.0, 10.0 * (1 - 1e-5), 1e-4, 0.0) == "converged"
        assert _stop_reason(10.0, 10.0, 1e-4, 0.0) == "converged"
        # a rise inside the monotone slack still counts as convergence
        assert _stop_reason(10.0, 10.0 * (1 + MONOTONE_SLACK / 2), 1e-4, 0.0) == "converged"
        assert _stop_reason(10.0, 10.0 * (1 + 10 * MONOTONE_SLACK), 1e-4, 0.0) == "loss_increased"
        assert _stop_reason(10.0, 11.0, 1e-15, 0.0) == "loss_increased"
        assert _stop_reason(0.0, 0.0, 1e-4, 0.0) == "converged"
        assert _stop_reason(0.0, 1.0, 1e-4, 0.0) == "loss_increased"

    def test_rounding_floor_relabels_but_never_moves_the_stop(self):
        # exact up to epsilon: the loss settles near 1e-19 of sum||V||^2 and jitters there
        _, trace = fit([[6.4059207, 2.77088847]], [[1.0]], FitConfig(d=1, seed=0))
        assert trace.losses[3] > trace.losses[2] * (1 + MONOTONE_SLACK)
        assert (trace.iterations, trace.stop_reason) == (3, "converged")
        assert _stop_reason(1e-18, 2e-18, 1e-4, 1.0) == "converged"
        assert _stop_reason(1e-18, 2e-18, 1e-4, 0.0) == "loss_increased"
        assert _stop_reason(10.0, 11.0, 1e-15, 1.0) == "loss_increased"
        assert _stop_reason(1e-10, 1e-10 + 2 * ROUNDING_FLOOR, 1e-4, 1.0) == "loss_increased"
        # the floor only labels a stop: it never turns a step into one
        assert _stop_reason(10.0, 5.0, 1e-4, 1e20) is None

    def test_weighted_fit_without_row_weights_is_the_plain_fit_bitwise(self):
        """The engine derives no weights from the mask: without row weights every row weighs 1."""
        inst = make_planted_instance(40, 30, 4, noise_level=0.1, seed=25)
        for rate, seed in ((0.0, 1), (0.25, 2), (1.0, 3)):
            supervised = sample_supervised_set(40, rate, seed)
            L = build_mask(inst.label_table, supervised, 40, 4).matrix
            plain = FitConfig(d=4, seed=seed, max_iter=30, rel_tol=1e-15)
            weighted = dataclasses.replace(plain, weighted=True)
            expected = fit(inst.V, L, plain)
            for model, trace in (fit(inst.V, L, weighted),
                                 *fit_batch(inst.V, [(L, weighted, None), (L, plain, None)])):
                assert np.array_equal(model.W, expected[0].W)
                assert np.array_equal(model.H, expected[0].H)
                assert trace == expected[1]


class TestNmfReduction:
    def test_ten_iterations_match_classical_nmf_oracle(self):
        """With an all-ones mask the updates are plain multiplicative NMF."""

        def oracle_step(V, W, H):
            # independently coded classical rules
            H = H * (W.T @ V) / (W.T @ W @ H + EPS)
            W = W * (V @ H.T) / (W @ H @ H.T + EPS)
            return W, H

        rng = np.random.default_rng(22)
        V = rng.random((30, 20))
        W0 = rng.random((30, 4))
        H0 = rng.random((4, 20))
        L = np.ones((30, 4))
        W1, H1 = W0.copy(), H0.copy()
        W2, H2 = W0.copy(), H0.copy()
        for _ in range(10):
            H1 = update_h(V, W1, H1, L, EPS)
            W1 = update_w(V, W1, H1, L, EPS)
            W2, H2 = oracle_step(V, W2, H2)
        np.testing.assert_allclose(W1, W2, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(H1, H2, rtol=1e-12, atol=1e-12)


def _oracle_h(V, W, H, L, e):
    """The n x t-association weighted H rule, kept as the reference."""
    WL = W * L
    return H * ((WL.T @ (V * e)) / (WL.T @ ((WL @ H) * e) + EPS))


def _oracle_w(V, W, H, L, e):
    """The n x t-association weighted W rule, kept as the reference."""
    WL = W * L
    out = W * ((((V * e) @ H.T) * L) / ((((WL @ H) * e) @ H.T) * L + EPS))
    return np.where(L == 0.0, 0.0, out)


def _planted_fit_setup(noise_level, seed, weighted, n=40, t=30, d=3, rate=0.5):
    inst = make_planted_instance(n, t, d, noise_level=noise_level, seed=seed)
    supervised = sample_supervised_set(n, rate, seed)
    L = build_mask(inst.label_table, supervised, n, d).matrix
    E = build_error_weights(n, supervised).row_weight
    cfg = FitConfig(d=d, seed=seed, max_iter=200, rel_tol=1e-15, weighted=weighted)
    return inst.V, L, E, cfg


def _iterates_and_explicit_losses(V, L, E, cfg):
    """Replay a fit through the public steps; explicit loss of every iterate."""
    model = init_model(V, L, cfg)
    W, H = model.W, model.H

    def explicit(W, H):
        return _row_weighted_sse(V, W, H, L, E) if cfg.weighted else loss_ts(V, W, H, L)

    losses = [explicit(W, H)]
    for _ in range(cfg.max_iter):
        if cfg.weighted:
            H = update_h_weighted(V, W, H, L, E, EPSILON)
            W = update_w_weighted(V, W, H, L, E, EPSILON)
        else:
            H = update_h(V, W, H, L, EPSILON)
            W = update_w(V, W, H, L, EPSILON)
        losses.append(explicit(W, H))
    return W, H, np.array(losses)


class TestGramForm:
    def test_weighted_steps_match_oracle_over_ten_iterations(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            V, L = _random_instance(rng, n=30, t=20, d=4)
            e = rng.uniform(1.0, 8.0, size=(30, 1))
            W1 = rng.random((30, 4)) * L
            H1 = rng.random((4, 20))
            W2, H2 = W1.copy(), H1.copy()
            for _ in range(10):
                H1 = update_h_weighted(V, W1, H1, L, e[:, 0], EPS)
                W1 = update_w_weighted(V, W1, H1, L, e[:, 0], EPS)
                H2 = _oracle_h(V, W2, H2, L, e)
                W2 = _oracle_w(V, W2, H2, L, e)
            np.testing.assert_allclose(W1, W2, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(H1, H2, rtol=1e-12, atol=1e-12)
            assert (W1[L == 0.0] == 0.0).all()

    # shapes where OpenBLAS takes the kernels the benchmark fits run, not the small-matrix ones
    @pytest.mark.parametrize("n, t, d", [(150, 500, 10), (100, 2000, 20)])
    def test_fit_matches_oracle_over_ten_iterations_at_benchmark_shapes(self, n, t, d):
        inst = make_planted_instance(n, t, d, noise_level=0.1, seed=3)
        supervised = sample_supervised_set(n, 0.2, 3)
        L = build_mask(inst.label_table, supervised, n, d).matrix
        E = build_error_weights(n, supervised).row_weight
        cfg = FitConfig(d=d, seed=3, max_iter=10, rel_tol=1e-15, weighted=True)
        model, trace = fit(inst.V, L, cfg, row_weights=E)
        assert trace.iterations == 10
        start = init_model(inst.V, L, cfg)
        W, H = start.W, start.H
        for _ in range(10):
            H = _oracle_h(inst.V, W, H, L, E[:, None])
            W = _oracle_w(inst.V, W, H, L, E[:, None])
        np.testing.assert_allclose(model.W, W, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(model.H, H, rtol=1e-12, atol=0.0)
        assert (model.W[L == 0.0] == 0.0).all()

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_near_exact_fit_at_benchmark_shape_records_explicit_loss_under_guard(self, weighted):
        V, L, E, cfg = _planted_fit_setup(1e-8, 2, weighted, n=150, t=500, d=10)
        model, trace = fit(V, L, cfg, row_weights=E if weighted else None)
        W, H, explicit = _iterates_and_explicit_losses(V, L, E, cfg)
        assert np.array_equal(model.W, W) and np.array_equal(model.H, H)
        losses = np.array(trace.losses)
        # sum e||V||^2 as fit forms it, so a loss at or under the guard was the explicit one
        scale = np.vdot(V * E[:, None] if weighted else V, V)
        under = losses <= LOSS_GUARD * scale
        assert under.sum() >= 50, "fit never reached the guarded region"
        assert np.array_equal(losses[under], explicit[under])
        assert (losses[1:] <= losses[:-1] * (1 + MONOTONE_SLACK)).all()

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_trace_matches_explicit_loss_on_noisy_data(self, weighted):
        for noise_level, seed in ((0.2, 1), (0.5, 2)):
            V, L, E, cfg = _planted_fit_setup(noise_level, seed, weighted)
            model, trace = fit(V, L, cfg, row_weights=E if weighted else None)
            W, H, explicit = _iterates_and_explicit_losses(V, L, E, cfg)
            assert np.array_equal(model.W, W) and np.array_equal(model.H, H)
            np.testing.assert_allclose(trace.losses, explicit, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_fit_replays_the_public_steps_on_dense_bitwise(self, weighted):
        V, L = _tfidf_like(6, n=40, t=30, density=0.08), np.ones((40, 3))
        L[:10] = np.eye(3)[np.arange(10) % 3]
        E = build_error_weights(40, range(10)).row_weight
        cfg = FitConfig(d=3, seed=2, max_iter=40, rel_tol=1e-15, weighted=weighted)
        model, trace = fit(V, L, cfg, row_weights=E if weighted else None)
        W, H, explicit = _iterates_and_explicit_losses(V, L, E, cfg)
        assert model.W.tobytes() == W.tobytes() and model.H.tobytes() == H.tobytes()
        np.testing.assert_allclose(trace.losses, explicit, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("noise_level", [1e-3, 1e-5, 1e-8])
    def test_near_exact_fit_records_explicit_loss_under_guard(self, noise_level, weighted):
        V, L, E, cfg = _planted_fit_setup(noise_level, 2, weighted)
        model, trace = fit(V, L, cfg, row_weights=E if weighted else None)
        W, H, explicit = _iterates_and_explicit_losses(V, L, E, cfg)
        assert np.array_equal(model.W, W) and np.array_equal(model.H, H)
        losses = np.array(trace.losses)
        scale = float(np.sum(E[:, None] * V * V)) if weighted else np.sum(V * V)
        # well under the guard the identity's value is under it too
        under = explicit < 0.9 * LOSS_GUARD * scale
        assert under.sum() >= 50, "fit never reached the guarded region"
        assert np.array_equal(losses[under], explicit[under])
        np.testing.assert_allclose(losses, explicit, rtol=MONOTONE_SLACK, atol=0.0)
        assert (losses[1:] <= losses[:-1] * (1 + MONOTONE_SLACK)).all()


def _operands(n, t, sparse):
    V = _tfidf_like(7, n=n, t=t, density=0.01 if sparse else 1.0)
    if sparse:
        V = pytest.importorskip("scipy.sparse").csr_array(V)
    L = np.ones((n, 5))
    L[: n // 5] = np.eye(5)[np.arange(n // 5) % 5]
    return V, L, build_error_weights(n, range(n // 5)).row_weight


def _held(product, name="VT"):
    """What the product function ``product`` of ``factorization._products`` holds as ``name``."""
    cells = (cell.cell_contents for cell in product.__closure__)
    return dict(zip(product.__code__.co_freevars, cells))[name]


class TestProductsAndStacks:
    """A fit's products and stacks: the layout BLAS sees and the memory each form holds."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_fit_returns_c_contiguous_float64_factors(self, sparse, weighted):
        V, L, E = _operands(60, 80, sparse)
        config = FitConfig(d=5, seed=1, max_iter=3, weighted=weighted)
        model, _ = fit(V, L, config, row_weights=E if weighted else None)
        for a in (model.W, model.H):
            assert a.dtype == np.float64 and a.flags.c_contiguous

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_dense_products_hold_a_c_contiguous_copy_of_v_transposed(self, weighted):
        n, t = 60, 80
        V, L, E = _operands(n, t, sparse=False)
        e = factorization._weights((E if weighted else np.ones(n))[np.newaxis], 5)
        H = np.random.default_rng(1).random((1, 5, t))
        XtV, VHt = factorization._products(V)
        XtV(L[np.newaxis] * e)
        assert _held(VHt).cache_info().currsize == 0  # the X^T V product never builds it
        VHt(H) * e
        held = _held(VHt)()
        assert held is _held(VHt)()  # built once, by the first V H^T
        assert held.flags.c_contiguous and held.shape == (t, n)
        assert not np.shares_memory(held, V)
        assert held.tobytes() == V.T.tobytes()  # the weights never scale V
        tracemalloc.start()
        try:
            VHt(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * t  # a later V H^T copies nothing

    def test_weighted_dense_fit_holds_less_than_two_n_by_t_arrays(self):
        n, t = 400, 1000
        V, L, E = _operands(n, t, sparse=False)
        config = FitConfig(d=5, seed=1, max_iter=3, weighted=True)
        tracemalloc.start()
        try:
            fit(V, L, config, row_weights=E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the held V^T is one; sum e||V||^2's temporary is freed before it is built
        assert peak < 2 * 8 * n * t

    def test_csr_products_hold_no_dense_n_by_t_array(self):
        n, t = 400, 1000
        V, L, E = _operands(n, t, sparse=True)
        H = np.random.default_rng(1).random((5, t))
        e = factorization._weights(E[np.newaxis], 5)
        tracemalloc.start()
        try:
            XtV, VHt = factorization._products(V)
            XtV(L[np.newaxis] * e)
            VHt(H[np.newaxis]) * e
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * t // 4
        assert _held(XtV).format == "csc"

    def test_csr_batch_holds_no_stack_of_its_cells(self):
        n, t, d = 3000, 1000, 10
        V = pytest.importorskip("scipy.sparse").csr_array(_tfidf_like(7, n=n, t=t, density=0.01))
        rng = np.random.default_rng(4)
        problems = []
        for seed in range(6):
            rows = rng.choice(n, size=n // 5, replace=False)
            L = np.ones((n, d))
            L[rows] = np.eye(d)[rng.integers(0, d, rows.size)]
            problems.append((L, FitConfig(d=d, seed=seed, max_iter=3, weighted=True),
                             build_error_weights(n, rows).row_weight))
        peaks = []
        for batch in (problems[:1], problems):
            tracemalloc.start()
            try:
                fit_batch(V, batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        lone, six = peaks
        # each cell's W and H outlive its fit; the six cells as one stack peaked at 5.6 lone fits
        assert six < lone + 6 * 8 * (n * d + d * t) + lone // 2

    def test_dense_batch_stacks_at_most_batch_size_cells(self):
        n, t, d = 3000, 50, 10
        V = _tfidf_like(7, n=n, t=t, density=1.0)
        size = batch_size(V, d)
        rng = np.random.default_rng(5)
        problems = []
        for seed in range(3 * size):
            rows = rng.choice(n, size=n // 5, replace=False)
            L = np.ones((n, d))
            L[rows] = np.eye(d)[rng.integers(0, d, rows.size)]
            problems.append((L, FitConfig(d=d, seed=seed, max_iter=3, weighted=True),
                             build_error_weights(n, rows).row_weight))
        _assert_batch_is_lone_fits(V, problems)
        peaks = []
        for batch in (problems[:size], problems):
            tracemalloc.start()
            try:
                fit_batch(V, batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one, three = peaks
        # the later cells' W and H outlive their fits; one stack of all of them peaked at 2.7 x one
        assert three < one + 2 * size * 8 * (n * d + d * t) + one // 2

    def test_update_h_on_dense_v_allocates_no_transpose(self):
        n, t = 400, 1000
        V, L, _ = _operands(n, t, sparse=False)
        rng = np.random.default_rng(2)
        W, H = rng.random((n, 5)) * L, rng.random((5, t))
        peaks = []
        for step in (update_h, update_w):
            tracemalloc.start()
            try:
                step(V, W, H, L, EPSILON)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the W step reads the held transpose, so one n x t copy is what tracemalloc sees
        assert peaks[0] < 8 * n * t <= peaks[1]


def _assert_batch_is_lone_fits(V, problems):
    """fit_batch's outcome of each problem, bitwise that of a lone fit; returns the outcomes."""
    outcomes = fit_batch(V, problems)
    assert len(outcomes) == len(problems)
    for (L, config, E), outcome in zip(problems, outcomes):
        try:
            model, trace = fit(V, L, config, row_weights=E)
        except NumericalFailureError as exc:
            assert isinstance(outcome, NumericalFailureError)
            assert (str(outcome), outcome.iteration) == (str(exc), exc.iteration)
            assert np.array(outcome.losses).tobytes() == np.array(exc.losses).tobytes()
            continue
        assert outcome[0].W.tobytes() == model.W.tobytes()
        assert outcome[0].H.tobytes() == model.H.tobytes()
        assert np.array(outcome[1].losses).tobytes() == np.array(trace.losses).tobytes()
        assert outcome[1].stop_reason == trace.stop_reason
    return outcomes


def _batch_problems(n, d, weighted, rng):
    """Five problems on one (n, d): masks of a growing share of rows, seeds, stop rules and weights."""
    problems = []
    for k, (rel_tol, max_iter) in enumerate([(1e-4, 60), (1e-6, 40), (1e-12, 25), (1e-3, 60),
                                             (1e-5, 60)]):
        L = np.ones((n, d))
        rows = rng.choice(n, size=n * k // 5, replace=False)
        L[rows] = np.eye(d)[rng.integers(0, d, len(rows))]
        # the last weighted problem takes fit's default weights
        E = build_error_weights(n, rows).row_weight if weighted and k < 4 else None
        problems.append((L, FitConfig(d=d, seed=k, max_iter=max_iter, rel_tol=rel_tol,
                                      weighted=weighted), E))
    return problems


class TestFitBatch:
    """One engine call over k problems that share V gives each problem's lone fit, bitwise."""

    @pytest.mark.parametrize("form", ["dense", "csr"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_cells_are_bitwise_their_lone_fits(self, form, weighted):
        V = _tfidf_like(4, n=60, t=80, density=0.05)
        if form == "csr":
            V = pytest.importorskip("scipy.sparse").csr_array(V)
        outcomes = _assert_batch_is_lone_fits(V, _batch_problems(60, 5, weighted,
                                                                 np.random.default_rng(1)))
        assert len({trace.iterations for _, trace in outcomes}) > 1  # cells left at different turns

    @pytest.mark.parametrize("form", ["dense", "csr"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_one_topic_and_fewer_rows_than_acol_q(self, form, weighted):
        n = ACOL_Q - 2
        V = np.random.default_rng(2).random((n, 11))
        V[V < 0.5] = 0.0
        if form == "csr":
            V = pytest.importorskip("scipy.sparse").csr_array(V)
        _assert_batch_is_lone_fits(V, _batch_problems(n, 1, weighted, np.random.default_rng(3)))

    def test_cells_leave_the_stack_as_they_stop(self):
        rng = np.random.default_rng(0)
        V = np.outer(rng.random(3), rng.random(7))
        # a rank-one V: each seed reaches a loss that no step lowers at its own iteration
        problems = [(np.ones((3, 1)), FitConfig(d=1, seed=seed, rel_tol=1e-300), None)
                    for seed in (1, 5, 7)]
        outcomes = _assert_batch_is_lone_fits(V, problems)
        assert [trace.iterations for _, trace in outcomes] == [4, 5, 6]
        assert {trace.stop_reason for _, trace in outcomes} == {"converged"}

    def test_a_failing_cell_keeps_its_losses_and_leaves_the_others_bitwise(self):
        V = np.random.default_rng(3).random((12, 9))
        L = np.ones((12, 3))
        overflow_all, overflow_one = np.full(12, 1e308), np.ones(12)
        overflow_one[0] = 1e308
        cells = [(0, np.full(12, 2.0)), (2, overflow_all), (3, None), (1, overflow_one),
                 (4, np.full(12, 3.0))]
        problems = [(L, FitConfig(d=3, seed=seed, max_iter=30, weighted=True), E)
                    for seed, E in cells]
        outcomes = _assert_batch_is_lone_fits(V, problems)
        failed = {k: outcome for k, outcome in enumerate(outcomes)
                  if isinstance(outcome, NumericalFailureError)}
        assert sorted(failed) == [1, 3]
        assert [str(failed[k]).split()[0] for k in (1, 3)] == ["H", "W"]
        assert all(exc.iteration == 1 and len(exc.losses) == 1 for exc in failed.values())
        assert all(outcomes[k][1].iterations == 30 for k in (0, 2, 4))

    def test_empty_batch_and_mixed_topic_counts(self):
        V = np.ones((4, 3))
        assert fit_batch(V, []) == []
        problems = [(np.ones((4, d)), FitConfig(d=d), None) for d in (1, 2)]
        with pytest.raises(ShapeError, match=re.escape("one topic count, got [1, 2]")):
            fit_batch(V, problems)


class TestModelIO:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(23)
        V, L = _random_instance(rng, n=12, t=9, d=3)
        cfg = FitConfig(d=3, seed=9, max_iter=20)
        model, trace = fit(V, L, cfg)
        save_model(tmp_path, model, trace, cfg)
        np.testing.assert_array_equal(read_factor(tmp_path, "W"), model.W)
        np.testing.assert_array_equal(read_factor(tmp_path, "H"), model.H)
        header = read_json(tmp_path / "model.json")
        assert header["stop_reason"] == trace.stop_reason
        assert header["final_loss"] == trace.final_loss
        assert header["seed"] == 9

    def test_header_records_the_fixed_epsilon_and_acol_q(self, tmp_path):
        V, L = _random_instance(np.random.default_rng(25), n=10, t=8, d=2)
        cfg = FitConfig(d=2, seed=4, max_iter=5)
        for out in ("a", "b"):
            save_model(tmp_path / out, *fit(V, L, cfg), cfg)
        text = (tmp_path / "a" / "model.json").read_text()
        assert text == (tmp_path / "b" / "model.json").read_text()
        assert '"epsilon": 1e-09,' in text and '"acol_q": 5,' in text
        assert (EPSILON, ACOL_Q) == (1e-9, 5)

    def test_trace_csv_has_iteration_rows(self, tmp_path):
        rng = np.random.default_rng(24)
        V, L = _random_instance(rng, n=10, t=8, d=2)
        cfg = FitConfig(d=2, seed=10, max_iter=5, rel_tol=1e-15)
        _, trace = fit(V, L, cfg)
        save_model(tmp_path, fit(V, L, cfg)[0], trace, cfg)
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == len(trace.losses) + 1
        assert lines[1].startswith("0,")


def _tfidf_like(seed, n=60, t=80, density=0.05):
    """Sparse non-negative data with unit-L2 rows, the shape of TF-IDF input."""
    rng = np.random.default_rng(seed)
    V = rng.random((n, t)) * (rng.random((n, t)) < density)
    norms = np.linalg.norm(V, axis=1, keepdims=True)
    return V / np.where(norms > 0.0, norms, 1.0)


def _sparse_planted(noise_level, seed, n=40, t=100, d=3, anchors=3):
    """Exact W H with disjoint anchor terms per topic (at most 6 % dense), noise on the non-zeros."""
    rng = np.random.default_rng(seed)
    W = np.zeros((n, d))
    for i in range(n):
        W[i, rng.choice(d, size=int(rng.integers(1, 3)), replace=False)] = rng.uniform(0.5, 1.5)
    H = np.zeros((d, t))
    for j in range(d):
        H[j, j * anchors:(j + 1) * anchors] = rng.uniform(0.5, 1.5, size=anchors)
    V = W @ H
    return V * (1.0 + noise_level * rng.random(V.shape))


def _assert_close_to_dense(sparse, dense):
    (ms, ts), (md, td) = sparse, dense
    for a, b in ((ms.W, md.W), (ms.H, md.H)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
    assert len(ts.losses) == len(td.losses) and ts.stop_reason == td.stop_reason
    np.testing.assert_allclose(ts.losses, td.losses, rtol=1e-12, atol=0.0)


@pytest.mark.skipif(find_spec("scipy") is None, reason="the CSR path needs scipy")
class TestSparsePath:
    """The CSR products against the dense path, which is the reference."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_matches_dense_path_on_tfidf_like_data(self, weighted):
        from scipy.sparse import csr_array

        for seed in range(4):
            V = _tfidf_like(seed)
            assert np.count_nonzero(V) <= SPARSE_DENSITY_MAX * V.size  # read_matrix gives CSR
            supervised = sample_supervised_set(60, 0.3, seed)
            table = build_label_table([{"ab"[i % 2], "cd"[i % 3 % 2]} for i in range(60)])
            L = build_mask(table, supervised, 60, 5).matrix
            E = build_error_weights(60, supervised).row_weight if weighted else None
            cfg = FitConfig(d=5, seed=seed, max_iter=80, rel_tol=1e-9, weighted=weighted)
            _assert_close_to_dense(fit(csr_array(V), L, cfg, row_weights=E),
                                   fit(V, L, cfg, row_weights=E))

    def test_csr_input_takes_the_path_a_sparse_dense_input_takes(self):
        from scipy.sparse import csr_array

        V = _tfidf_like(3)
        V[7] = 0.0
        L = np.ones((60, 4))
        L[:15] = np.eye(4)[np.arange(15) % 4]
        cfg = FitConfig(d=4, seed=3, max_iter=40, rel_tol=1e-12, weighted=True)
        E = build_error_weights(60, range(15)).row_weight
        A = csr_array(V)
        model, trace = fit(A, L, cfg, row_weights=E)
        # a CSR whose rows run backwards and store their first entry as two exact halves
        data, indices, indptr = [], [], [0]
        for a, b in zip(A.indptr[:-1], A.indptr[1:]):
            cols, vals = list(A.indices[a:b][::-1]), list(A.data[a:b][::-1])
            if cols:
                vals[0] /= 2.0
                cols.append(cols[0])
                vals.append(vals[0])
            indices += cols
            data += vals
            indptr.append(len(indices))
        messy = csr_array((data, indices, indptr), shape=V.shape)
        assert not messy.has_canonical_format
        for operand in (A.tocsc(), messy):
            again, again_trace = fit(operand, L, cfg, row_weights=E)
            assert again.W.tobytes() == model.W.tobytes() and again.H.tobytes() == model.H.tobytes()
            assert again_trace == trace
        # the public steps take the operand fit takes
        for step in (update_h_weighted, update_w_weighted):
            canonical = step(A, model.W, model.H, L, E, EPSILON)
            assert step(messy, model.W, model.H, L, E, EPSILON).tobytes() == canonical.tobytes()
        assert not messy.has_canonical_format  # duplicates were summed in a copy
        with pytest.raises(ValueError, match="non-negative"):
            fit(csr_array(-V), L, cfg, row_weights=E)

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_fit_replays_the_public_steps_on_csr_bitwise(self, weighted):
        from scipy.sparse import csr_array

        V = csr_array(_tfidf_like(8))
        supervised = sample_supervised_set(60, 0.3, 8)
        table = build_label_table([{"ab"[i % 2], "cd"[i % 3 % 2]} for i in range(60)])
        L = build_mask(table, supervised, 60, 5).matrix
        E = build_error_weights(60, supervised).row_weight
        cfg = FitConfig(d=5, seed=8, max_iter=40, rel_tol=1e-15, weighted=weighted)
        model, trace = fit(V, L, cfg, row_weights=E if weighted else None)
        W, H, explicit = _iterates_and_explicit_losses(V, L, E, cfg)
        assert model.W.tobytes() == W.tobytes() and model.H.tobytes() == H.tobytes()
        np.testing.assert_allclose(trace.losses, explicit, rtol=1e-12, atol=0.0)

    def test_init_model_densifies_only_the_picked_rows_bitwise(self):
        from scipy.sparse import csr_array

        for seed in range(5):
            V = _tfidf_like(seed, n=30, t=50, density=0.08)
            L = np.ones((30, 7))
            cfg = FitConfig(d=7, seed=seed)
            dense, sparse = init_model(V, L, cfg), init_model(csr_array(V), L, cfg)
            assert dense.H.tobytes() == sparse.H.tobytes()
            assert dense.W.tobytes() == sparse.W.tobytes()
            # each H row is the plain mean of ACOL_Q distinct rows, as the draw order gives them
            rng = np.random.default_rng(seed)
            for r in range(7):
                rows = V[rng.choice(30, size=ACOL_Q, replace=False), :]
                assert dense.H[r].tobytes() == rows.mean(axis=0).tobytes()

    def test_unit_weights_reproduce_plain_fit_bitwise(self):
        from scipy.sparse import csr_array

        V = csr_array(_tfidf_like(5))
        L = np.ones((60, 4))
        L[:20] = np.eye(4)[np.arange(20) % 4]
        plain = fit(V, L, FitConfig(d=4, seed=1, max_iter=50, rel_tol=1e-15))
        weighted = fit(V, L, FitConfig(d=4, seed=1, max_iter=50, rel_tol=1e-15, weighted=True),
                       row_weights=np.ones(60))
        assert np.array_equal(plain[0].W, weighted[0].W)
        assert np.array_equal(plain[0].H, weighted[0].H)
        assert plain[1].losses == weighted[1].losses

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_near_exact_fit_records_explicit_loss_under_guard(self, weighted):
        from scipy.sparse import csr_array

        V = _sparse_planted(1e-8, 2)
        L = np.ones((40, 3))
        E = np.where(np.arange(40) < 10, 4.0, 1.0)
        E_fit = E if weighted else None
        cfg = FitConfig(d=3, seed=2, max_iter=200, rel_tol=1e-15, weighted=weighted)
        _, trace = fit(csr_array(V), L, cfg, row_weights=E_fit)
        losses = np.array(trace.losses)
        scale = float(np.vdot(V * E[:, None], V)) if weighted else np.sum(V * V)
        under = np.flatnonzero(losses < 0.9 * LOSS_GUARD * scale)
        assert len(under) >= 50, "fit never reached the guarded region"
        assert (losses[1:] <= losses[:-1] * (1 + MONOTONE_SLACK)).all()
        # a fit stopped at iteration k records the explicit residual of its own iterates
        for k in under[:: len(under) // 3]:
            model, short = fit(csr_array(V), L, dataclasses.replace(cfg, max_iter=int(k)),
                               row_weights=E_fit)
            assert short.losses == trace.losses[: k + 1]
            assert short.final_loss == _row_weighted_sse(V, model.W, model.H, L, E_fit)

    @pytest.mark.parametrize("form", ["dense", "csr"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_row_blocked_residual_matches_the_dense_residual(self, monkeypatch, weighted, form):
        from scipy.sparse import csr_array

        V = _sparse_planted(1e-8, 2)
        A = csr_array(V) if form == "csr" else V
        L = np.ones((40, 3))
        E = np.where(np.arange(40) < 10, 4.0, 1.0) if weighted else None
        cfg = FitConfig(d=3, seed=2, max_iter=200, rel_tol=1e-15, weighted=weighted)
        whole = fit(A, L, cfg, row_weights=E)[1].losses
        # blocks of 7 rows: six blocks for the 40 rows, the last one short
        monkeypatch.setattr(factorization, "RESIDUAL_BLOCK_BYTES", 7 * 8 * V.shape[1] + 5)
        _, trace = fit(A, L, cfg, row_weights=E)
        losses = np.array(trace.losses)
        scale = float(np.vdot(V if E is None else V * E[:, None], V))
        under = np.flatnonzero(losses < 0.9 * LOSS_GUARD * scale)
        assert len(under) >= 50, "fit never reached the guarded region"
        assert (losses[1:] <= losses[:-1] * (1 + MONOTONE_SLACK)).all()
        k = min(len(whole), len(losses))
        np.testing.assert_allclose(losses[:k], whole[:k], rtol=1e-12, atol=0.0)
        for k in under[:: len(under) // 3]:
            model, short = fit(A, L, dataclasses.replace(cfg, max_iter=int(k)), row_weights=E)
            explicit = _row_weighted_sse(V, model.W, model.H, L, E)
            np.testing.assert_allclose(short.final_loss, explicit, rtol=1e-12, atol=0.0)


def test_dense_fits_and_cli_import_never_load_scipy(tmp_path, run_python):
    code = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "import tsnmf.cli\n"
        "assert sys.modules.get('scipy') is None, 'import tsnmf.cli loaded scipy'\n"
        "from tsnmf import FitConfig, fit, make_planted_instance\n"
        "inst = make_planted_instance(30, 40, 3, seed=1)\n"
        "fit(inst.V, [[1.0] * 3] * 30, FitConfig(d=3, seed=0, max_iter=5))\n"
        "assert sys.modules.get('scipy') is None, 'a dense fit loaded scipy'\n"
        "from tsnmf.cli import main\n"
        "base = Path(sys.argv[1])\n"
        "data, model = str(base / 'data'), str(base / 'model')\n"
        "sweep = {'data': data, 'out': str(base / 'sweep'), 'rates': [0.0, 0.5], 'seeds': [1, 2],\n"
        "         'max_iter': 5, 'weighted': True}\n"
        "(base / 'sweep.json').write_text(json.dumps(sweep))\n"
        "read = ['--model', model, '--data', data, '--out']\n"
        "for argv in (['synth', '--docs', '30', '--terms', '40', '--topics', '3', '--out', data],\n"
        "             ['fit', '--data', data, '--max-iter', '5', '--out', model],\n"
        "             ['sweep', '--config', str(base / 'sweep.json')],\n"
        "             ['evaluate', *read, str(base / 'report')],\n"
        "             ['top-terms', *read, str(base / 'top.csv')]):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert sys.modules.get('scipy') is None, f'{argv[0]} on a dense dataset loaded scipy'\n"
    )
    run_python(["-c", code, str(tmp_path)], check=True, stdout=subprocess.DEVNULL)
