"""Kernel ridge regression in Taylor features, the tabular backend, and the
polynomial regressor that old policy files hold."""

import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstop import regression
from optstop.regression import (
    MAX_RIDGE,
    MAX_TERMS,
    KernelRegressor,
    PolynomialRegressor,
    RegressionBackend,
    Regressor,
    TabularRegressor,
    ZeroRegressor,
    _group_means,
    _taylor_features,
    _training_pairs,
    fit_kernel,
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


def textbook_householder_fit(xs, ys, bandwidth, ridge):
    """The kernel fit's coefficients by the column-by-column Householder QR
    of [Phi, y; sqrt(lam) I, 0] on a transposed (m + 1, d + m) array, each
    step reflecting every live row, then a back substitution in einsum."""
    xs, ys = _group_means(*_training_pairs(xs, ys))
    m = kernel_terms(xs[-1] - xs[0], bandwidth)[0]
    lam = max(ridge, len(xs) * 2.0**-52)
    d = len(xs)
    at = np.zeros((m + 1, d + m))
    at[:m, :d] = _taylor_features(xs, xs[0], xs[-1], bandwidth, m)
    at[m, :d] = ys
    at[:m, d:] = math.sqrt(lam) * np.eye(m)
    for j in range(m):
        cols = slice(j, d + j + 1)
        v = at[j, cols].copy()
        v[0] += math.copysign(math.sqrt(np.einsum("i,i", v, v)), v[0])
        w = np.einsum("ji,i->j", at[j:, cols], v) * (2.0 / np.einsum("i,i", v, v))
        at[j:, cols] -= np.multiply.outer(w, v)
    coeffs = np.zeros(m)
    for j in range(m - 1, -1, -1):
        coeffs[j] = (at[m, j] - np.einsum("i,i", at[j + 1 : m, j], coeffs[j + 1 :])) / at[j, j]
    return coeffs


def textbook_taylor_features(x, lo, hi, bandwidth, m):
    """The Taylor feature rows one at a time, each a new array: row n is row
    n - 1 times u / sqrt(n)."""
    c, reach = lo + 0.5 * (hi - lo), 1e3 * bandwidth
    u = (np.clip(np.atleast_1d(x), c - reach, c + reach) - c) / bandwidth
    rows = [np.exp(-0.5 * u * u)]
    for n in range(1, m):
        rows.append(rows[-1] * (u / math.sqrt(n)))
    return np.array(rows)


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

    def test_fit_equals_textbook_householder_bitwise(self):
        # The fit reflects only the live window of each step and takes R_jj
        # alone from the pivot row; the arithmetic is the textbook loop's.
        # d runs from 1 to 2100 (d < m where the bandwidth is small), and
        # every other fit draws its inputs with repeats.
        rng = np.random.default_rng(39)
        cases = [
            (d, bandwidth, ridge)
            for d in (1, 2, 5, 40, 2100)
            for bandwidth in (0.3, 1.0, 3.0, 1e308)
            for ridge in (0.0, 1e-6, 1e3, MAX_RIDGE)
            if d < 2100 or ridge in (0.0, 1e-6)
        ]
        for k, (d, bandwidth, ridge) in enumerate(cases):
            xs = rng.uniform(-1.0, 1.0, size=d)
            if k % 2:
                xs = rng.choice(xs, size=d + 3)
            ys = rng.standard_normal(len(xs))
            expected = textbook_householder_fit(xs, ys, bandwidth, ridge)
            model = fit_kernel(xs, ys, bandwidth, ridge)
            assert model.weights.tobytes() == expected.tobytes(), (d, bandwidth, ridge)

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

    def test_features_equal_textbook_rows_bitwise(self):
        # One term, one input, and inputs far beyond the clip at |u| = 1e3.
        rng = np.random.default_rng(42)
        cases = [(1, 1), (1, 500), (2, 1), (40, 1), (22, 500), (MAX_TERMS, 3)]
        cases += [(int(rng.integers(1, 60)), int(rng.integers(1, 1200))) for _ in range(200)]
        for m, n in cases:
            lo = rng.uniform(-5.0, 5.0)
            hi = lo + rng.exponential(2.0)
            bandwidth = rng.uniform(0.05, 3.0)
            x = lo + bandwidth * rng.choice([1.0, 100.0, 1e4]) * rng.standard_normal(n)
            want = textbook_taylor_features(x, lo, hi, bandwidth, m)
            assert _taylor_features(x, lo, hi, bandwidth, m).tobytes() == want.tobytes(), (m, n)

    def test_fit_builds_through_the_checked_constructor(self, monkeypatch):
        # Checked before fitting, then again by KernelRegressor's one
        # constructor, which builds the fit's result.
        calls = []
        check = regression._check_kernel
        monkeypatch.setattr(
            regression, "_check_kernel", lambda *args: calls.append(args) or check(*args)
        )
        model = fit_kernel([0.0, 0.5, 1.0], [1.0, 2.0, 0.0], bandwidth=0.8, ridge=1e-6)
        assert calls == [(0.8, 1e-6)] * 2
        # A rebuild from the fit's dict is the same regressor.
        rebuilt = Regressor.from_dict(model.to_dict())
        assert (rebuilt.to_dict(), rebuilt.tail_bound) == (model.to_dict(), model.tail_bound)

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
    def test_round_trip(self):
        # No backend fits a polynomial now; policy files may still hold one.
        model = PolynomialRegressor([0.1, -0.5, 0.25, 1.0 / 3.0])
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

    @pytest.mark.parametrize(
        "xs", [[-3.0, -1.0, 0.0, 2.0, 7.0], [2.0**53, 2.0**53 + 2, 2.0**53 + 8], [5.0]],
        ids=["small", "above_2_53", "one"],
    )
    def test_dense_table_built_once_equals_search_bitwise(self, xs, monkeypatch):
        model = TabularRegressor(xs, np.arange(1.0, len(xs) + 1) / 8, -1.0)
        lo, hi = xs[0], xs[-1]
        # Every id, the ids of absent slots, non-integers, outside the span,
        # nan, +-inf and +-0.0.
        probe = np.array([
            *xs, *(lo + np.arange(hi - lo + 1)), lo + 0.5, hi - 0.25, lo - 1, hi + 1,
            lo - 2.0**54, hi + 2.0**54, 0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300,
        ])
        builds = count_calls(monkeypatch, "arange")  # one np.arange per dense table built
        for x in (probe, probe[::-1], np.resize(probe, 3 * len(probe))):
            assert model.predict(x).tobytes() == searched_table_predict(model, x).tobytes()
        assert len(builds) == 1
        for x in probe:  # a lone query is dense only on a one-id table
            assert model.predict(float(x)) == searched_table_predict(model, x)[0]
            assert model.predict(np.array([x])).tobytes() == searched_table_predict(model, x).tobytes()
        assert len(builds) == 1

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
        assert RegressionBackend(kind="tabular").fit(xs, ys).kind == "tabular"
        for kind in ("spline", "poly"):
            with pytest.raises(ValueError, match=f"unknown backend kind '{kind}'"):
                RegressionBackend(kind=kind)

    def test_backend_dict_round_trip(self):
        backend = RegressionBackend(kind="kernel", bandwidth=0.5, ridge=1e-4)
        assert backend.to_dict() == {"kind": "kernel", "bandwidth": 0.5, "ridge": 1e-4}
        assert RegressionBackend.from_dict(backend.to_dict()) == backend
        assert RegressionBackend.from_dict({}) == RegressionBackend()
        assert RegressionBackend.from_dict({"ridge": 0.0}) == RegressionBackend(ridge=0.0)

    def test_unknown_regressor_kind_rejected(self):
        with pytest.raises(ValueError):
            Regressor.from_dict({"kind": "mystery"})

    @pytest.mark.parametrize("fit", [fit_kernel, fit_tabular])
    @pytest.mark.parametrize(
        "xs, ys",
        [([0.0, np.nan], [1.0, 2.0]), ([0.0, 1.0], [1.0, np.inf]), ([-np.inf, 1.0], [1.0, 2.0])],
    )
    def test_fit_rejects_non_finite_data(self, fit, xs, ys):
        with pytest.raises(ValueError, match="training data must be finite"):
            fit(xs, ys)
