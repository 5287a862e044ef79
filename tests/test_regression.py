"""Kernel ridge regression in Taylor features, polynomial and tabular backends."""

import json
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstop.regression import (
    MAX_TERMS,
    KernelRegressor,
    RegressionBackend,
    Regressor,
    TabularRegressor,
    ZeroRegressor,
    _group_means,
    _taylor_features,
    fit_kernel,
    fit_polynomial,
    fit_tabular,
    gaussian_kernel,
    kernel_terms,
)


def assert_json_round_trip_bitwise(model, probe):
    """The model survives json.dumps/loads of its dict with the same kind,
    the same dict and bitwise-equal predictions."""
    restored = Regressor.from_dict(json.loads(json.dumps(model.to_dict())))
    assert type(restored) is type(model)
    assert restored.to_dict() == model.to_dict()
    assert np.array_equal(restored.predict(probe), model.predict(probe))


def count_calls(monkeypatch, name):
    """Count the calls of numpy function `name` while the test runs."""
    calls = []
    real = getattr(np, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, name, spy)
    return calls


def searched_table_predict(model, x):
    """The table lookup by sorted search over every query."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    idx = np.clip(np.searchsorted(model.xs, xa), 0, len(model.xs) - 1)
    return np.where(model.xs[idx] == xa, model.means[idx], model.default)


def sorted_group_means(xs, ys):
    """The grouping by np.unique's sort."""
    uniq, inverse, counts = np.unique(xs, return_inverse=True, return_counts=True)
    return uniq, np.bincount(inverse, weights=ys, minlength=len(uniq)) / counts


def dense_solve_oracle(xs, ys, bandwidth, ridge, probe):
    """Independent route: the representer-theorem fit from an explicit Gram
    matrix and numpy's pivoted LU solve, evaluated at probe."""
    xs = np.asarray(xs, dtype=float)
    k = np.exp(-((xs[:, None] - xs[None, :]) ** 2) / (2.0 * bandwidth**2))
    w = np.linalg.solve(k + ridge * np.eye(len(xs)), np.asarray(ys, dtype=float))
    return gaussian_kernel(probe, xs, bandwidth) @ w


def extended_precision_oracle(xs, ys, bandwidth, ridge, probe, digits=50):
    """The representer-theorem fit from a Gram solve in mpmath at `digits`
    significant digits, evaluated at probe."""
    with mpmath.workdps(digits):
        x = [mpmath.mpf(float(v)) for v in xs]
        two_b2 = 2 * mpmath.mpf(bandwidth) ** 2
        k = mpmath.matrix([[mpmath.exp(-((a - c) ** 2) / two_b2) for c in x] for a in x])
        k += mpmath.mpf(ridge) * mpmath.eye(len(x))
        w = mpmath.lu_solve(k, mpmath.matrix(list(map(float, ys))))
        return np.array([
            float(mpmath.fsum(w[j] * mpmath.exp(-((mpmath.mpf(float(p)) - x[j]) ** 2) / two_b2)
                              for j in range(len(x))))
            for p in probe
        ])


class TestKernelFit:
    def test_single_point_unit_kernel(self):
        model = fit_kernel([0.0], [2.0], ridge=0.0)
        assert model.predict(0.0) == 2.0
        probe = np.linspace(-2, 2, 9)
        expected = 2.0 * gaussian_kernel(probe, [0.0], 1.0)[:, 0]
        assert np.allclose(model.predict(probe), expected, rtol=1e-15, atol=0)

    def test_two_point_interpolation(self):
        model = fit_kernel([0.0, 1.0], [0.0, 1.0], bandwidth=1.0, ridge=0.0)
        assert model.predict(0.0) == pytest.approx(0.0, abs=1e-8)
        assert model.predict(1.0) == pytest.approx(1.0, abs=1e-8)

    def test_predictions_match_dense_solve(self):
        # 50 points on [-8, 8] at bandwidth 0.5: 728 Taylor terms. The two fits
        # agree to 4.0e-7, which is the dense solve's own error (|w| reaches
        # 1.2e7): against a 60-digit Gram solve the feature fit is within
        # 1.0e-10 and the dense solve within 4.0e-7.
        rng = np.random.default_rng(31)
        xs = rng.uniform(-8, 8, size=50)
        ys = np.sin(xs) + 0.1 * rng.standard_normal(50)
        model = fit_kernel(xs, ys, bandwidth=0.5, ridge=1e-8)
        assert 650 <= len(model.weights) <= 770
        probe = np.concatenate([xs, np.linspace(-9, 9, 181)])
        oracle = dense_solve_oracle(xs, ys, 0.5, 1e-8, probe)
        assert np.max(np.abs(model.predict(probe) - oracle)) <= 1e-6

    def test_matches_extended_precision_gram_solve(self):
        # 60 points in [0, 1) at bandwidth 1, ridge 1e-6 (the reference
        # regime). Measured error 9.0e-16; a dense double-precision Gram
        # solve is off by 2.7e-10 here.
        rng = np.random.default_rng(38)
        xs = rng.uniform(0, 1, size=60)
        ys = np.sin(3 * xs) + 0.1 * rng.standard_normal(60)
        probe = np.concatenate([xs, np.linspace(0, 1, 41)])
        exact = extended_precision_oracle(xs, ys, 1.0, 1e-6, probe)
        model = fit_kernel(xs, ys, bandwidth=1.0, ridge=1e-6)
        assert np.max(np.abs(model.predict(probe) - exact)) <= 1e-13

    def test_residual_certificate(self):
        # Deliberately ill-conditioned: tight cluster relative to bandwidth.
        # The ridge fit f satisfies K (y - f(X)) = ridge f(X) at the training
        # points; measured residual 9.2e-13 against |y| = 10.8.
        rng = np.random.default_rng(32)
        xs = rng.uniform(0, 1, size=120)
        ys = rng.standard_normal(120)
        f = fit_kernel(xs, ys, bandwidth=0.5, ridge=1e-6).predict(xs)
        residual = gaussian_kernel(xs, xs, 0.5) @ (ys - f) - 1e-6 * f
        assert np.linalg.norm(residual) <= 1e-11 * np.linalg.norm(ys)

    def test_duplicates_merged_with_averaged_targets(self):
        model = fit_kernel([1.0, 1.0, 2.0], [1.0, 3.0, 5.0], ridge=0.0)
        assert model.to_dict() == fit_kernel([1.0, 2.0], [2.0, 5.0], ridge=0.0).to_dict()
        assert model.xs.tolist() == [1.0, 2.0]
        assert model.predict(1.0) == pytest.approx(2.0, abs=1e-8)
        assert model.predict(2.0) == pytest.approx(5.0, abs=1e-8)

    def test_near_duplicates_without_ridge_are_least_squares(self):
        # Singular as a Gram system; in features it is a least-squares fit
        # of one term, which gives both points the mean target.
        model = fit_kernel([0.0, 1e-16], [0.0, 1.0], ridge=0.0)
        assert np.allclose(model.predict(np.array([0.0, 1e-16])), 0.5, rtol=1e-15, atol=0)

    def test_ridge_rescues_near_duplicates(self):
        model = fit_kernel([0.0, 1e-16], [0.0, 1.0], ridge=1e-6)
        assert np.all(np.isfinite(model.weights))

    def test_every_point_fitted_deterministically(self):
        # 2001 distinct points all enter the fit, which is invariant under
        # permutation and matches the dense solve (measured 7.3e-11).
        rng = np.random.default_rng(33)
        xs = np.linspace(0, 1, 2001)
        ys = rng.standard_normal(2001)
        a = fit_kernel(xs, ys, ridge=1e-3)
        b = fit_kernel(xs[::-1], ys[::-1], ridge=1e-3)
        assert a.to_dict() == b.to_dict()
        probe = np.linspace(0, 1, 101)
        oracle = dense_solve_oracle(xs, ys, 1.0, 1e-3, probe)
        assert np.max(np.abs(a.predict(probe) - oracle)) <= 1e-9

    def test_term_count_is_the_smallest_below_rounding(self):
        for span, bandwidth in ((1.0, 1.0), (16.0, 0.5), (12.0, 0.4), (53.0, 1.0)):
            m, tail = kernel_terms(span, bandwidth)
            rho2 = (span / (2 * bandwidth)) ** 2
            log_term = [n * np.log(rho2) - float(mpmath.loggamma(n + 1)) for n in (m - 1, m)]
            assert log_term[1] < -106 * np.log(2) <= log_term[0]
            assert tail == pytest.approx(np.exp(log_term[1]), rel=1e-9)
        assert kernel_terms(1.0, 1.0)[0] == 21
        assert kernel_terms(0.0, 1.0) == (1, 0.0)

    def test_features_expand_the_kernel(self):
        # sum_n phi_n(x) phi_n(y) = k(x, y) to the rounding of m terms of size <= 1.
        cases = ((0.0, 1.0, 1.0), (-8.0, 8.0, 0.5), (-6.0, 6.0, 0.4), (0.0, 53.0, 1.0))
        for lo, hi, bandwidth in cases:
            m, _ = kernel_terms(hi - lo, bandwidth)
            grid = np.linspace(lo, hi, 101)
            phi = _taylor_features(grid, lo, hi, bandwidth, m)
            assert np.abs(phi).max() <= 1.0
            err = np.abs(phi.T @ phi - gaussian_kernel(grid, grid, bandwidth)).max()
            assert err <= m * 2.0**-52

    def test_bandwidth_too_small_for_span_raises(self):
        # Half the span is 30 bandwidths: more than MAX_TERMS terms. The
        # bound is taken in log space, so a huge span raises the same way.
        for span in (60.0, 1e300):
            message = f"bandwidth 1.0 is too small for the input span {span}"
            with pytest.raises(ValueError, match=re.escape(message)):
                fit_kernel([0.0, span], [0.0, 1.0], bandwidth=1.0)
        with pytest.raises(ValueError, match=f"over {MAX_TERMS} Taylor terms"):
            KernelRegressor([0.0, 60.0], [1.0], 1.0, 1e-6)

    def test_regressor_checks_interval_and_term_count(self):
        with pytest.raises(ValueError, match=r"21 terms on \[0.0, 1.0\] but 5 weights"):
            KernelRegressor([0.0, 1.0], [1.0] * 5, 1.0, 1e-6)
        for xs in ([0.0, 0.5, 1.0], [1.0, 0.0]):
            with pytest.raises(ValueError, match="xs must be the training interval"):
                KernelRegressor(xs, [1.0] * 21, 1.0, 1e-6)

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
        # Every feature underflows to 0 there, as the kernel itself does;
        # past |u| = 1e3 the clipped u keeps it 0 rather than NaN.
        model = fit_kernel([0.0, 1.0], [3.0, -2.0], bandwidth=0.5)
        assert model.predict(100.0) == 0.0
        assert np.array_equal(model.predict(np.array([-1e308, 1e308])), [0.0, 0.0])

    def test_single_point_recovery(self):
        model = fit_kernel([0.7], [1.9], ridge=0.0)
        assert model.predict(0.7) == pytest.approx(1.9, abs=1e-12)

    def test_symmetric_data_symmetric_weights(self):
        # Centred on 0, an even fit has no odd Taylor terms; the interpolant
        # of two unit targets at +-1 has weight 1 / (1 + k(-1, 1)) on each.
        model = fit_kernel([-1.0, 1.0], [1.0, 1.0], bandwidth=1.0, ridge=0.0)
        assert np.abs(model.weights[1::2]).max() <= 1e-15 * np.abs(model.weights).max()
        probe = np.linspace(-2, 2, 41)
        assert np.allclose(model.predict(probe), model.predict(-probe), rtol=0, atol=1e-15)
        k = float(gaussian_kernel([-1.0], [1.0], 1.0)[0, 0])
        mid = float(gaussian_kernel([0.0], [1.0], 1.0)[0, 0])
        assert model.predict(0.0) == pytest.approx(2.0 * mid / (1.0 + k), abs=1e-12)

    def test_lone_input_gets_the_batch_bits(self, ref_run):
        # numpy sums a single column of weighted features pairwise and a
        # batch's rows in order; unfixed, most lone inputs of the seed-1
        # policy differed from their batch value by up to 3.3e-16.
        policy, _, test_batch, _, _ = ref_run
        for t, reg in enumerate(policy.regressors):
            x = test_batch.h[:, t]
            batch = reg.predict(x)
            lone = np.array([reg.predict(float(xi)) for xi in x])
            assert np.array_equal(lone, batch), f"epoch {t}"
            assert np.array_equal(reg.predict(x[:1]), batch[:1]), f"epoch {t}"
            assert np.array_equal(reg.predict(x[5:7]), batch[5:7]), f"epoch {t}"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=100)
    def test_prediction_finite_everywhere(self, x):
        model = fit_kernel([0.0, 0.5, 1.0], [1.0, -1.0, 2.0], bandwidth=0.5)
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

    def test_group_means_equal_add_at_bitwise(self):
        # Targets spanning 16 decades make every group sum depend on its
        # summation order; both accumulate from 0.0 in index order.
        rng = np.random.default_rng(31)
        xs = rng.integers(0, 40, size=5000).astype(float)
        ys = 10.0 ** rng.uniform(-8, 8, size=5000)
        want_uniq, inverse, counts = np.unique(xs, return_inverse=True, return_counts=True)
        sums = np.zeros(len(want_uniq))
        np.add.at(sums, inverse, ys)
        uniq, means = _group_means(xs, ys)
        assert uniq.tobytes() == want_uniq.tobytes()
        assert means.tobytes() == (sums / counts).tobytes()

    def test_group_means_binned_equal_sorted_bitwise(self, monkeypatch):
        rng = np.random.default_rng(32)
        n = 3000
        ys = 10.0 ** rng.uniform(-8, 8, size=n)
        small = rng.integers(-40, 60, size=n).astype(float)  # span 100 <= n, holds 0.0
        signed = small.copy()
        zeros = np.flatnonzero(signed == 0)
        signed[zeros[::2]] = -0.0  # np.unique's sort picks which zero it returns
        cases = [  # (inputs, binned without a sort)
            (small, True),
            (np.abs(small) + 1, True),
            (signed, False),
            (np.full(n, -0.0), False),
            (rng.integers(-5000, 5000, size=n).astype(float), False),  # span > n
            (small * 0.5, False),  # not integer
        ]
        sorts = count_calls(monkeypatch, "unique")
        for i, (xs, binned) in enumerate(cases):
            want_uniq, want_means = sorted_group_means(xs, ys)
            del sorts[:]
            uniq, means = _group_means(xs, ys)
            assert uniq.tobytes() == want_uniq.tobytes(), i
            assert means.tobytes() == want_means.tobytes(), i
            assert sorts == ([] if binned else ["unique"]), i

    def test_lookup_direct_equals_search_bitwise(self, monkeypatch):
        model = TabularRegressor([-3.0, -1.0, 0.0, 2.0, 7.0], [0.1, 0.2, 0.3, 0.4, 0.5], 9.0)
        # Ids, values between ids (1e-300 - (-3) rounds to the integer 3.0,
        # the slot of id 0), outside the span, nan, +-inf and +-0.0.
        probe = np.array([
            -3.0, -1.0, 0.0, -0.0, 2.0, 7.0, -2.0, 1.0, 0.5, -2.5, 6.999999999999999,
            1e-300, -1e-300, -4.0, 8.0, 1e300, -1e300, np.nan, np.inf, -np.inf,
        ])
        searches = count_calls(monkeypatch, "searchsorted")
        span = 11  # -3 .. 7
        for n in (1, 2, span - 1, span, span + 1, 200):
            x = np.resize(probe, n)
            want = searched_table_predict(model, x)
            del searches[:]
            got = model.predict(x)
            assert got.tobytes() == want.tobytes(), n
            assert len(searches) == (n < span), n
        for x in probe:
            assert model.predict(float(x)) == searched_table_predict(model, x)[0]
            assert model.predict(np.array([x])).tobytes() == searched_table_predict(model, x).tobytes()

    def test_lookup_of_one_id_table_is_direct_for_a_lone_query(self, monkeypatch):
        model = TabularRegressor([5.0], [0.25], -1.0)
        searches = count_calls(monkeypatch, "searchsorted")
        assert [model.predict(v) for v in (5.0, 5.5, 4.0, np.nan)] == [0.25, -1.0, -1.0, -1.0]
        assert searches == []

    def test_non_integer_table_is_searched(self, monkeypatch):
        model = TabularRegressor([0.5, 1.0, 2.0], [1.0, 2.0, 3.0], 0.0)
        searches = count_calls(monkeypatch, "searchsorted")
        x = np.array([0.5, 1.0, 1.5, 2.0, 3.0] * 4)
        assert model.predict(x).tobytes() == searched_table_predict(model, x).tobytes()
        assert len(searches) == 2  # one by the model, one by the reference

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
