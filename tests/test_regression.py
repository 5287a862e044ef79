"""Kernel least squares (representer weights), polynomial and tabular backends."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstop.regression import (
    SUPPORT_CAP,
    RegressionBackend,
    Regressor,
    SingularGramError,
    ZeroRegressor,
    fit_kernel,
    fit_polynomial,
    fit_tabular,
    gaussian_kernel,
)


def assert_json_round_trip_bitwise(model, probe):
    """The model survives json.dumps/loads of its dict with the same kind,
    the same dict and bitwise-equal predictions."""
    restored = Regressor.from_dict(json.loads(json.dumps(model.to_dict())))
    assert type(restored) is type(model)
    assert restored.to_dict() == model.to_dict()
    assert np.array_equal(restored.predict(probe), model.predict(probe))


def dense_solve_oracle(xs, ys, bandwidth, ridge):
    """Independent route: explicit Gram assembly + numpy's pivoted LU solve."""
    xs = np.asarray(xs, dtype=float)
    k = np.exp(-((xs[:, None] - xs[None, :]) ** 2) / (2.0 * bandwidth**2))
    return np.linalg.solve(k + ridge * np.eye(len(xs)), np.asarray(ys, dtype=float))


class TestKernelFit:
    def test_single_point_unit_kernel(self):
        model = fit_kernel([0.0], [2.0], ridge=0.0)
        assert model.weights.tolist() == [2.0]
        assert model.predict(0.0) == 2.0

    def test_two_point_interpolation(self):
        model = fit_kernel([0.0, 1.0], [0.0, 1.0], bandwidth=1.0, ridge=0.0)
        assert model.predict(0.0) == pytest.approx(0.0, abs=1e-8)
        assert model.predict(1.0) == pytest.approx(1.0, abs=1e-8)

    def test_weights_match_independent_solver(self):
        rng = np.random.default_rng(31)
        xs = rng.uniform(-8, 8, size=50)
        ys = np.sin(xs) + 0.1 * rng.standard_normal(50)
        model = fit_kernel(xs, ys, bandwidth=0.5, ridge=1e-8)
        oracle = dense_solve_oracle(xs, ys, 0.5, 1e-8)
        # fit canonicalizes support order; align the oracle the same way.
        order = np.argsort(xs)
        assert np.allclose(model.weights, oracle[order], rtol=1e-6, atol=0)

    def test_residual_certificate(self):
        # Deliberately ill-conditioned: tight cluster relative to bandwidth.
        rng = np.random.default_rng(32)
        xs = rng.uniform(0, 1, size=120)
        ys = rng.standard_normal(120)
        model = fit_kernel(xs, ys, bandwidth=0.5, ridge=1e-6)
        k = gaussian_kernel(model.xs, model.xs, 0.5) + 1e-6 * np.eye(len(model.xs))
        ys_sorted = ys[np.argsort(xs)]
        assert np.linalg.norm(k @ model.weights - ys_sorted) <= 1e-8 * np.linalg.norm(ys)

    def test_duplicates_merged_with_averaged_targets(self):
        model = fit_kernel([1.0, 1.0, 2.0], [1.0, 3.0, 5.0], ridge=0.0)
        assert model.n_merged_duplicates == 1
        assert len(model.xs) == 2
        assert model.predict(1.0) == pytest.approx(2.0, abs=1e-8)
        assert model.predict(2.0) == pytest.approx(5.0, abs=1e-8)

    def test_singular_system_raises_without_ridge(self):
        with pytest.raises(SingularGramError):
            fit_kernel([0.0, 1e-16], [0.0, 1.0], ridge=0.0)

    def test_ridge_rescues_near_duplicates(self):
        model = fit_kernel([0.0, 1e-16], [0.0, 1.0], ridge=1e-6)
        assert np.all(np.isfinite(model.weights))

    def test_support_cap_subsamples_deterministically(self):
        rng = np.random.default_rng(33)
        xs = np.linspace(0, 1, SUPPORT_CAP + 1)  # distinct, so nothing merges
        ys = rng.standard_normal(SUPPORT_CAP + 1)
        a = fit_kernel(xs, ys, ridge=1e-3)
        b = fit_kernel(xs[::-1], ys[::-1], ridge=1e-3)
        assert a.subsampled and len(a.xs) == SUPPORT_CAP
        assert a.n_merged_duplicates == 0
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.weights, b.weights)
        key = np.array([0, SUPPORT_CAP + 1], dtype=np.uint64)
        idx = np.random.Generator(np.random.Philox(key=key)).choice(
            SUPPORT_CAP + 1, size=SUPPORT_CAP, replace=False
        )
        assert np.array_equal(a.xs, np.sort(xs[idx]))

    def test_training_mse_nondecreasing_in_ridge(self):
        rng = np.random.default_rng(34)
        xs = rng.uniform(-6, 6, size=40)
        ys = np.cos(2 * xs) + 0.05 * rng.standard_normal(40)
        mses = []
        for lam in (0.0, 1e-8, 1e-4, 1e-2, 1.0, 10.0):
            model = fit_kernel(xs, ys, bandwidth=0.4, ridge=lam)
            mses.append(np.mean((model.predict(xs) - ys) ** 2))
        assert all(b >= a - 1e-12 for a, b in zip(mses, mses[1:]))

    def test_prediction_invariant_under_permutation(self):
        # Support order is canonicalized, so permuted training pairs give the
        # same fit bitwise.
        rng = np.random.default_rng(35)
        xs = rng.uniform(-1, 1, size=30)
        ys = rng.standard_normal(30)
        perm = rng.permutation(30)
        probe = np.linspace(-1.5, 1.5, 11)
        a = fit_kernel(xs, ys, ridge=1e-6).predict(probe)
        b = fit_kernel(xs[perm], ys[perm], ridge=1e-6).predict(probe)
        assert np.array_equal(a, b)

    def test_gram_matrix_positive_semidefinite(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            xs = rng.uniform(-3, 3, size=80)
            k = gaussian_kernel(xs, xs, bandwidth=0.6)
            assert np.allclose(k, k.T)
            eigs = np.linalg.eigvalsh(k)
            assert eigs.min() >= -1e-10 * np.abs(eigs).max()

    def test_round_trip(self):
        rng = np.random.default_rng(37)
        model = fit_kernel(rng.uniform(0, 1, size=40), rng.standard_normal(40), bandwidth=0.3)
        assert_json_round_trip_bitwise(model, np.linspace(-0.5, 1.5, 41))

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            fit_kernel([], [])
        with pytest.raises(ValueError):
            fit_kernel([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            fit_kernel([np.nan], [1.0])
        for bad in ({"bandwidth": 0.0}, {"ridge": -1e-9}, {"bandwidth": np.nan}):
            key = next(iter(bad))
            with pytest.raises(ValueError, match=key):
                fit_kernel([0.0, 1.0], [1.0, 2.0], **bad)
            with pytest.raises(ValueError, match=key):
                RegressionBackend(**bad)


class TestPrediction:
    def test_decays_far_from_support(self):
        model = fit_kernel([0.0, 1.0], [3.0, -2.0], bandwidth=1.0)
        far = model.predict(100.0)
        assert abs(far) < 1e-12 * np.abs(model.weights).sum()

    def test_single_point_recovery(self):
        model = fit_kernel([0.7], [1.9], ridge=0.0)
        assert model.predict(0.7) == pytest.approx(1.9, abs=1e-12)

    def test_symmetric_data_symmetric_weights(self):
        model = fit_kernel([-1.0, 1.0], [1.0, 1.0], bandwidth=1.0, ridge=0.0)
        w = model.weights
        assert w[0] == pytest.approx(w[1], abs=1e-12)
        k = float(gaussian_kernel([0.0], [1.0], 1.0)[0, 0])
        assert model.predict(0.0) == pytest.approx(2.0 * w[0] * k, abs=1e-12)

    @given(st.floats(-50, 50))
    @settings(max_examples=100)
    def test_prediction_finite_everywhere(self, x):
        model = fit_kernel([0.0, 0.5, 1.0], [1.0, -1.0, 2.0])
        assert np.isfinite(model.predict(x))


class TestZeroRegressor:
    def test_predicts_zero_everywhere(self):
        model = ZeroRegressor()
        assert model.predict(123.4) == 0.0
        assert np.array_equal(model.predict(np.array([1.0, 2.0])), np.zeros(2))

    def test_serialization_round_trip(self):
        assert_json_round_trip_bitwise(ZeroRegressor(), np.array([5.0, -1.0]))


class TestPolynomialBackend:
    def test_recovers_cubic_exactly(self):
        xs = np.linspace(-1, 2, 20)
        ys = 0.5 - 1.5 * xs + 0.25 * xs**2 + 2.0 * xs**3
        model = fit_polynomial(xs, ys, degree=3)
        assert np.allclose(model.predict(xs), ys, atol=1e-8)

    def test_degree_clamped_to_data(self):
        model = fit_polynomial([0.0, 1.0], [1.0, 3.0], degree=3)
        assert len(model.coeffs) == 2  # linear through two points
        assert model.predict(0.5) == pytest.approx(2.0, abs=1e-10)

    def test_round_trip(self):
        model = fit_polynomial([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 8.0, 27.0])
        assert_json_round_trip_bitwise(model, np.linspace(-1, 4, 13))


class TestTabularBackend:
    def test_exact_group_means(self):
        model = fit_tabular([0.0, 1.0, 0.0, 2.0], [1.0, 5.0, 3.0, 7.0])
        assert model.predict(0.0) == 2.0
        assert model.predict(1.0) == 5.0
        assert model.predict(2.0) == 7.0

    def test_unseen_value_falls_back_to_global_mean(self):
        model = fit_tabular([0.0, 1.0], [2.0, 4.0])
        assert model.predict(9.9) == 3.0

    def test_round_trip(self):
        model = fit_tabular([0.0, 1.0, 1.0], [2.0, 4.0, 6.0])
        assert_json_round_trip_bitwise(model, np.array([0.0, 1.0, 5.0]))


class TestBackendDispatch:
    def test_kinds_produce_expected_models(self):
        xs, ys = [0.0, 1.0, 2.0], [0.0, 1.0, 4.0]
        assert RegressionBackend(kind="kernel").fit(xs, ys).kind == "kernel"
        assert RegressionBackend(kind="poly").fit(xs, ys).kind == "poly"
        assert RegressionBackend(kind="tabular").fit(xs, ys).kind == "tabular"
        with pytest.raises(ValueError):
            RegressionBackend(kind="spline")

    def test_backend_dict_round_trip(self):
        backend = RegressionBackend(kind="kernel", bandwidth=0.5, ridge=1e-4, degree=5)
        assert backend.to_dict() == {"kind": "kernel", "bandwidth": 0.5, "ridge": 1e-4, "degree": 5}
        assert RegressionBackend.from_dict(backend.to_dict()) == backend
        assert RegressionBackend.from_dict({}) == RegressionBackend()
        assert RegressionBackend.from_dict({"ridge": 0.0}) == RegressionBackend(ridge=0.0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
            RegressionBackend.from_dict({"kind": "poly", "degree": -1})
        assert RegressionBackend(kind="poly", degree=0).fit([0.0, 1.0], [1.0, 3.0]).predict(0.5) == 2.0

    def test_unknown_regressor_kind_rejected(self):
        with pytest.raises(ValueError):
            Regressor.from_dict({"kind": "mystery"})

    @pytest.mark.parametrize("fit", [fit_kernel, fit_polynomial, fit_tabular])
    @pytest.mark.parametrize(
        "xs, ys",
        [([0.0, np.nan], [1.0, 2.0]), ([0.0, 1.0], [1.0, np.inf]), ([-np.inf, 1.0], [1.0, 2.0])],
    )
    def test_fit_rejects_non_finite_data(self, fit, xs, ys):
        with pytest.raises(ValueError, match="training data must be finite"):
            fit(xs, ys)
