"""Kalman filter correctness and the myopic revenue-maximizing price."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from optstop import experiment, seller
from optstop.consumer import step_valuation
from optstop.model import ModelParams
from optstop.rng import RngStream, q_function
from optstop.seller import kalman_correct, kalman_predict, myopic_price

# Frozen from the grid oracle below (step 1e-5 over (0, mu + 10 sigma]).
GRID_PRICE_STD_NORMAL = 0.75179
GRID_REVENUE_STD_NORMAL = 0.16997120747940211
GRID_PRICE_UNIT_PRIOR = 1.13174
GRID_REVENUE_UNIT_PRIOR = 0.5065611346337116


def grid_price(mu: float, sigma: float, step: float = 1e-5) -> float:
    """Grid-search oracle for argmax of p * Q((p - mu) / sigma) on (0, hi].

    A coarse pass (1 mm of the fine step) brackets the peak, then the fine
    grid scans that bracket; the objective is unimodal on p > 0, so this is
    the full fine-grid answer at a fraction of the cost.
    """
    hi = max(mu, 0.0) + 10.0 * sigma

    def scan(lo, up, s):
        p = np.arange(max(lo, s), up + s, s)
        f = p * q_function((p - mu) / sigma)
        return p[np.argmax(f)]

    coarse = scan(0.0, hi, step * 1000)
    return float(scan(coarse - 2 * step * 1000, coarse + 2 * step * 1000, step))


def mpmath_price_root(m: float, q: float) -> mpmath.mpf:
    """40-digit root of log q = log R(q - m), polished by Newton from q.

    log R(z) = log(sqrt(pi/2) erfc(z / sqrt(2))) + z^2 / 2; the two terms
    cancel to about 2 log10|m| digits, which the working precision adds back.
    """
    with mpmath.workdps(40 + 2 * max(0, math.ceil(math.log10(abs(m) + 1.0)))):
        m, q = mpmath.mpf(m), mpmath.mpf(q)
        for _ in range(20):
            z = q - m
            log_r = mpmath.log(mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(z / mpmath.sqrt(2)))
            log_r += z * z / 2
            step = (mpmath.log(q) - log_r) / (1 / q + mpmath.exp(-log_r) - z)
            q -= step
            if abs(step) <= q * mpmath.mpf(10) ** -40:
                return +q
    raise AssertionError(f"40-digit Newton did not converge at m={m}")


def batch_posterior(params: ModelParams, ys: np.ndarray) -> tuple[float, float]:
    """One-shot conjugate posterior of v_t given y_1..y_t via the joint Gaussian.

    Assembles the covariance of (v_t, y_1..y_t) directly from the walk
    structure: Cov(v_s, v_u) = sigma_v^2 + min(s, u) * sigma_eps^2 and
    observation noise on the diagonal. Independent of the recursive filter.
    """
    t = len(ys)
    se2, sx2, sv2 = params.sigma_eps**2, params.sigma_xi**2, params.sigma_v**2
    cov_yy = np.empty((t, t))
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            cov_yy[i - 1, j - 1] = sv2 + min(i, j) * se2 + (sx2 if i == j else 0.0)
    cov_vy = np.array([sv2 + min(t, s) * se2 for s in range(1, t + 1)])
    var_v = sv2 + t * se2
    sol = np.linalg.solve(cov_yy, ys - params.mu_prior)
    mean = params.mu_prior + cov_vy @ sol
    var = var_v - cov_vy @ np.linalg.solve(cov_yy, cov_vy)
    return float(mean), float(var)


def run_filter(params: ModelParams, ys) -> tuple[float, float]:
    """Posterior (mean, var) after predict-then-correct on each of ys."""
    mean, var = params.mu_prior, params.sigma_v**2
    for y in ys:
        mean, var = kalman_correct(mean, kalman_predict(var, params), y, params)
    return mean, var


class TestKalman:
    def test_predict_adds_process_noise(self):
        params = ModelParams(sigma_eps=0.1)
        assert kalman_predict(1.0, params) == pytest.approx(1.01, abs=1e-15)

    def test_predict_noiseless_is_identity(self):
        params = ModelParams(sigma_eps=0.0)
        assert kalman_predict(0.7, params) == 0.7

    def test_repeated_prediction_is_additive(self):
        # Dyadic values so floating addition is exact.
        params = ModelParams(sigma_v=1.0, sigma_eps=0.5)
        var = params.sigma_v**2
        for k in range(1, 21):
            var = kalman_predict(var, params)
            assert var == 1.0 + k * 0.25

    def test_correct_conjugate_example(self):
        # Prior N(1,1), unit observation noise, y=2: posterior N(1.5, 0.5).
        params = ModelParams(sigma_xi=1.0)
        assert kalman_correct(1.0, 1.0, 2.0, params) == (1.5, 0.5)

    def test_uninformative_observation_limit(self):
        params = ModelParams(sigma_xi=1e8)
        mean, var = kalman_correct(1.0, 1.0, 50.0, params)
        assert mean == pytest.approx(1.0, abs=1e-8)
        assert var == pytest.approx(1.0, abs=1e-8)

    def test_perfect_observation(self):
        params = ModelParams(sigma_xi=0.0)
        assert kalman_correct(1.0, 2.0, 3.25, params) == (3.25, 0.0)

    def test_point_mass_belief_and_noiseless_sensor_keep_the_prior(self):
        # var 0 and sigma_xi 0 leave no news to weigh: the belief stays.
        params = ModelParams(sigma_xi=0.0)
        assert kalman_correct(1.0, 0.0, 3.25, params) == (1.0, 0.0)
        mean, var = kalman_correct(np.array([0.5, -2.0]), 0.0, np.array([1.0, 7.0]), params)
        assert mean.tolist() == [0.5, -2.0] and var == 0.0

    def test_perfect_observation_chain_tracks_value(self):
        # sigma_xi = 0: after predict-then-correct the mean is the observed
        # valuation exactly, every step.
        params = ModelParams(sigma_xi=0.0, sigma_eps=0.1)
        mean, var = params.mu_prior, params.sigma_v**2
        for v_t in (1.3, 0.9, 1.7):
            mean, var = kalman_correct(mean, kalman_predict(var, params), v_t, params)
            assert mean == v_t
            assert var == 0.0

    def test_recursive_equals_batch_posterior(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            params = ModelParams(
                horizon=5,
                sigma_eps=float(rng.uniform(0.01, 0.5)),
                sigma_xi=float(rng.uniform(0.1, 2.0)),
                mu_prior=float(rng.uniform(-1, 2)),
                sigma_v=float(rng.uniform(0.2, 2.0)),
            )
            for t in range(1, 6):
                ys = rng.normal(params.mu_prior, 1.0, size=t)
                got_mean, got_var = run_filter(params, ys)
                mean, var = batch_posterior(params, ys)
                assert got_mean == pytest.approx(mean, abs=1e-10)
                assert got_var == pytest.approx(var, abs=1e-10)

    def test_posterior_variance_ignores_observation_values(self):
        params = ModelParams()
        _, a = run_filter(params, [0.1, -2.0, 5.5])
        _, b = run_filter(params, [9.9, 0.0, -3.3])
        assert a == b  # bitwise

    def test_variance_schedule_is_the_filter_variance_bitwise(self):
        # variance_schedule steps the variance alone; the filter, fed any
        # observations, reaches the same bits at every epoch.
        rng = np.random.default_rng(23)
        for _ in range(100):
            params = ModelParams(
                horizon=int(rng.integers(1, 40)),
                sigma_eps=float(rng.choice([0.0, rng.uniform(0.0, 3.0)])),
                sigma_xi=float(rng.uniform(0.01, 5.0)),
                sigma_v=float(rng.uniform(0.01, 5.0)),
            )
            mean, var = params.mu_prior, params.sigma_v**2
            want = [var]
            for y in rng.normal(0.0, 3.0, params.horizon):
                mean, var = kalman_correct(mean, kalman_predict(var, params), float(y), params)
                want.append(var)
            got = seller.variance_schedule(params)
            assert got.shape == (params.horizon + 1,)
            assert got.tolist() == want, params

    def test_non_finite_observation_named(self):
        params = ModelParams()
        y = np.array([1.0, math.nan, math.inf])
        with pytest.raises(ValueError, match=r"^observation must be finite, got nan$"):
            kalman_correct(np.zeros(3), 1.0, y, params)

    def test_variance_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            myopic_price(0.0, -1e-9)

    @pytest.mark.parametrize("mean", [math.nan, -math.inf, math.inf])
    def test_non_finite_mean_is_named(self, mean):
        with pytest.raises(ValueError, match="mean must be finite"):
            myopic_price(mean, 1.0)

    def test_non_finite_entry_of_array_mean_is_named(self):
        with pytest.raises(ValueError, match="mean must be finite"):
            myopic_price(np.array([0.5, math.nan, 1.0]), 1.0)

    @pytest.mark.parametrize("var", [math.nan, math.inf])
    def test_non_finite_variance_is_named(self, var):
        with pytest.raises(ValueError, match="variance must be finite"):
            myopic_price(0.0, var)


class TestMyopicPrice:
    def test_standard_normal_belief_matches_grid(self):
        p = myopic_price(0.0, 1.0)
        assert p == pytest.approx(GRID_PRICE_STD_NORMAL, abs=1e-3)
        f = p * q_function(p)
        assert f == pytest.approx(GRID_REVENUE_STD_NORMAL, abs=1e-6)

    def test_unit_prior_belief_matches_grid(self):
        p = myopic_price(1.0, 1.0)
        assert p == pytest.approx(GRID_PRICE_UNIT_PRIOR, abs=1e-3)
        assert p == pytest.approx(grid_price(1.0, 1.0), abs=1e-3)
        f = p * q_function(p - 1.0)
        assert f == pytest.approx(GRID_REVENUE_UNIT_PRIOR, abs=1e-6)

    def test_scale_equivariance(self):
        for mu, var in [(0.0, 1.0), (1.0, 1.0), (0.5, 0.25), (-0.4, 2.0)]:
            base = myopic_price(mu, var)
            for c in (0.5, 2.5):
                scaled = myopic_price(c * mu, c * c * var)
                assert scaled == pytest.approx(c * base, abs=1e-6 * max(1.0, c))

    def test_random_beliefs_against_grid(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            mu = float(rng.uniform(-2.0, 4.0))
            sigma = float(rng.uniform(0.1, 3.0))
            p = myopic_price(mu, sigma * sigma)
            assert p == pytest.approx(grid_price(mu, sigma), abs=1e-3)
            # Stationarity: Q(z) = p * phi(z) / sigma at the optimum.
            z = (p - mu) / sigma
            phi = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
            assert abs(q_function(z) - p * phi / sigma) <= 1e-8
            # Local-max certificate.
            f_star = p * q_function(z)
            for d in (-1e-3, 1e-3):
                assert f_star >= (p + d) * q_function((p + d - mu) / sigma)

    @pytest.mark.parametrize("m", [-30.0, -8.0, 0.0, 8.0, 40.0])
    def test_scaled_mean_edge_cases(self, m):
        # p = sigma * q with q = R(q - m), R(z) = Q(z) / phi(z). The oracle
        # evaluates R through log Q (scipy's log_ndtr), not through erfcx.
        sigma = 0.7
        p = myopic_price(m * sigma, sigma * sigma)
        assert math.isfinite(p) and p > 0
        q = p / sigma
        z = q - m
        mills = math.exp(log_ndtr(-z) + 0.5 * z * z + 0.5 * math.log(2.0 * math.pi))
        assert abs(q - mills) <= 1e-12 * q

    def test_array_mean_matches_scalar_calls_bitwise(self):
        var = 0.37
        sigma = math.sqrt(var)
        rng = np.random.default_rng(17)
        means = np.concatenate(
            [sigma * np.array([-30.0, -8.0, 0.0, 8.0, 40.0]), rng.uniform(-5.0, 5.0, 200)]
        )
        prices = myopic_price(means, var)
        scalar = np.array([myopic_price(float(mu), var) for mu in means])
        assert prices.shape == means.shape
        assert prices.tobytes() == scalar.tobytes()

    def test_per_epoch_variance_matches_scalar_calls_bitwise(self):
        # The simulator's call: an (n, T+1) mean, one variance per epoch.
        var = np.array([1.0, 0.37, 2.5e-3, 4.0])
        rng = np.random.default_rng(23)
        m = rng.uniform(-30.0, 40.0, (6, len(var)))
        big = seller.MAX_SCALED_MEAN
        m[0] = [-1e15, 1e15, -big, big]
        m[1] = [big, -big, 1e15, -1e15]
        means = m * np.sqrt(var)
        prices = myopic_price(means, var)
        scalar = [[myopic_price(float(mu), float(s2)) for mu, s2 in zip(row, var)] for row in means]
        assert prices.shape == means.shape
        assert prices.tobytes() == np.array(scalar).tobytes()

    def test_per_epoch_faults_name_the_first_entry(self):
        var = np.array([1.0, 0.5, 0.25, 0.125])
        means = np.zeros((3, len(var)))
        means[1, 2] = 1e300  # beyond the bound at sigma = 0.5
        means[2, 1] = 1.7e308
        with pytest.raises(ValueError) as info:
            myopic_price(means, var)
        assert str(info.value).endswith(f"got mean {1e300} and variance {0.25}")
        means[1, 3] = math.nan
        means[2, 0] = math.inf
        with pytest.raises(ValueError, match=r"^mean must be finite, got nan$"):
            myopic_price(means, var)
        with pytest.raises(ValueError, match=r"^variance must be finite and > 0, got 0.0$"):
            myopic_price(np.zeros((3, 4)), np.array([1.0, 0.5, 0.0, math.nan]))

    def test_against_40_digit_roots(self):
        # Unit variance, so the price is q itself. The 64-step bisection
        # this solver replaced was within 6.4e-16 and 4.0 ulps on these m.
        # m = +-1e15 takes the midpoint where erfcx overflows. The start
        # changes at m = -32 and 32, the table's edges.
        edges = [-32.01, -31.99, 31.99, 32.01, 33.0, 64.0, 200.0]
        ms = np.concatenate(
            [np.linspace(-30.0, 40.0, 1001), [-1e15, -1e6, -1e3, 1e3, 1e6, 1e15], edges]
        )
        prices = myopic_price(ms, 1.0)
        for m, p in zip(ms.tolist(), prices.tolist()):
            root = mpmath_price_root(m, p)
            err = abs(mpmath.mpf(p) - root)
            assert err <= 6e-16 * root, m
            assert err <= 4 * math.ulp(float(root)), m

    def test_tabulated_start_agrees_with_eight_steps_from_the_bracket_end(self):
        # The iteration that builds the table, from the bracket end at every
        # m, is the reference: 400,012 scaled means over the table, both
        # starts outside it, and 600 decades of each sign.
        ms = np.unique(
            np.concatenate(
                [
                    np.linspace(-30.0, 40.0, 100_001),
                    np.sinh(np.linspace(-math.asinh(1e12), math.asinh(1e12), 200_001)),
                    np.logspace(-300.0, 300.0, 50_001),
                    -np.logspace(-300.0, 300.0, 50_001),
                ]
            )
        )
        assert len(ms) >= 400_000
        prices = myopic_price(ms, 1.0)
        reference = seller._roots_from_bracket_end(ms)
        ulps = np.abs(prices - reference) / np.spacing(reference)
        assert ulps.max() <= 8, ms[np.argmax(ulps)]

    def test_evaluates_erfcx_a_fixed_number_of_times(self, monkeypatch):
        # A process's first price builds the table of roots, with erfcx calls
        # of its own; this one does, so that the count below is the same
        # whichever test priced first.
        myopic_price(0.0, 1.0)
        calls = []

        def counting_erfcx(x):
            calls.append(np.shape(x))
            return erfcx(x)

        erfcx = seller.erfcx
        monkeypatch.setattr(seller, "erfcx", counting_erfcx)
        means = np.array([-1e15, -3.0, 0.0, 0.7, 40.0, 1e15])
        myopic_price(means, 1.0)
        assert calls == [means.shape] * 4
        calls.clear()
        myopic_price(0.7, 1.0)
        assert calls == [(1,)] * 4

    def test_repeated_means_price_once_and_match_scalar_calls_bitwise(self, monkeypatch):
        # Repeats, both zeros and an input order far from sorted: each
        # distinct scaled mean takes one erfcx slot, and every entry gets the
        # bits of its own scalar call.
        calls = []

        def counting_erfcx(x):
            calls.append(np.shape(x))
            return erfcx(x)

        erfcx = seller.erfcx
        means = np.array([3.0, -0.0, 0.7, -2.5, 3.0, 0.0, 40.0, -2.5, 0.7, 3.0, -0.0, -1e15])
        # Priced before the patch, so any table build is not counted.
        scalar = np.array([myopic_price(float(mu), 0.64) for mu in means])
        monkeypatch.setattr(seller, "erfcx", counting_erfcx)
        prices = myopic_price(means, 0.64)
        assert calls == [(6,)] * 4  # 0.0 and -0.0 are one scaled mean
        assert prices.tobytes() == scalar.tobytes()
        assert prices[1].tobytes() == prices[5].tobytes()

    def test_shared_scaled_means_across_epochs_match_scalar_calls_bitwise(self):
        # An (n, T+1) mean against one variance per epoch, as the simulator
        # calls it: a shared t = 0 belief, and scaled means that repeat in
        # other epochs, where they take a different sigma.
        var = np.array([1.0, 0.37, 2.5e-3, 4.0])
        sigma = np.sqrt(var)
        rng = np.random.default_rng(29)
        m = rng.choice([-30.0, -1.5, 0.0, 0.25, 2.0, 1e15], size=(5, len(var)))
        m[:, 0] = 0.5
        m[0] = [-1e15, 1e15, -0.0, 0.0]
        means = m * sigma
        prices = myopic_price(means, var)
        scalar = [[myopic_price(float(mu), float(s2)) for mu, s2 in zip(row, var)] for row in means]
        assert prices.shape == means.shape
        assert prices.tobytes() == np.array(scalar).tobytes()

    @pytest.mark.parametrize("m", [-1e15, -3.0, -0.0, 0.0, 0.7, 1e15])
    def test_zero_dimensional_mean_matches_its_batch_bitwise(self, m):
        # A 0-d input prices as a one-entry batch and returns a float64;
        # at |m| = 1e15 erfcx overflows on the way.
        alone = myopic_price(np.float64(m * 0.6), np.float64(0.36))
        batched = myopic_price(np.array([m * 0.6, 1.0, m * 0.6]), 0.36)
        assert type(alone) is np.float64 and np.shape(alone) == ()
        assert alone.tobytes() == batched[0].tobytes() == batched[2].tobytes()

    @given(
        m=st.floats(-50.0, 50.0),
        others=st.lists(st.floats(-1e8, 1e8), max_size=30),
        var=st.floats(1e-4, 1e2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_price_does_not_depend_on_its_batch(self, m, others, var, seed):
        sigma = math.sqrt(var)
        mean = m * sigma
        # Scaled means far into both tails, the erfcx overflow included.
        extremes = [-1e15, -1e8, -1e3, 1e3, 1e8, 1e15]
        means = np.array([mean] + [sigma * x for x in extremes + others])
        alone = myopic_price(mean, var)
        batched = myopic_price(means, var)
        order = np.random.default_rng(seed).permutation(len(means))
        shuffled = myopic_price(means[order], var)
        assert batched[0].tobytes() == alone.tobytes()
        assert shuffled[np.argmax(order == 0)].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("mean", [-seller.MAX_SCALED_MEAN, seller.MAX_SCALED_MEAN])
    def test_largest_scaled_mean_prices(self, mean):
        # Past |m| = 1.3e154, m^2 overflows; the bracket end is |m| there.
        p = myopic_price(mean, 1.0)
        assert p == pytest.approx(mean if mean > 0 else -1.0 / mean, rel=1e-12)
        assert p > 0

    def test_scaled_means_up_to_the_bound_price(self):
        # Any RuntimeWarning fails the suite, so an overflow would show here.
        m = np.geomspace(1e-300, seller.MAX_SCALED_MEAN, 6001)
        prices = myopic_price(np.concatenate([-m, m]), 1.0)
        assert np.all(np.isfinite(prices)) and np.all(prices > 0)

    @pytest.mark.parametrize("mean, var", [(1.7e308, 1.0), (-1.7e308, 1.0), (1e300, 1e-300)])
    def test_scaled_mean_beyond_bound_is_named(self, mean, var):
        with pytest.raises(ValueError, match=re.escape(f"got mean {mean} and variance {var}")):
            myopic_price(mean, var)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            myopic_price(1.0, 0.0)

    def test_deep_out_of_the_money_belief(self):
        # Very negative mean: optimum is near sigma^2 / |mu|, still found.
        p = myopic_price(-2.0, 0.01)
        assert p == pytest.approx(grid_price(-2.0, 0.1), abs=1e-3)
        assert p > 0


class TestSellerStep:
    """One seller epoch t >= 1: observe, predict-then-correct, price."""

    def test_observation_consumed_after_time_zero(self):
        # One epoch of simulate at v_1 = 1.2: v0 = 1.0 + 1.0 * 0.2 from the
        # default prior, valuation shock 0.
        params = ModelParams(horizon=1, seed=5, sigma_xi=0.75)
        z = RngStream(5).standard_normal(1)[0]
        batch = experiment.simulate(params, np.array([[0.2, 0.0, z]]))
        y = batch.y[0, 0]
        assert y == 1.2 + 0.75 * z
        prior_var = kalman_predict(params.sigma_v**2, params)
        mean, var = kalman_correct(params.mu_prior, prior_var, y, params)
        assert (batch.seller_mean[0, 1], seller.variance_schedule(params)[1]) == (mean, var)
        assert batch.p[0, 1] == myopic_price(mean, var)

    def test_perfect_observation_fails_at_pricing(self):
        # A noiseless observation collapses the posterior; pricing then
        # rejects the zero variance.
        params = ModelParams(sigma_xi=0.0)
        prior_var = kalman_predict(params.sigma_v**2, params)
        mean, var = kalman_correct(params.mu_prior, prior_var, 1.3, params)
        assert var == 0.0
        with pytest.raises(ValueError, match="variance must be finite and > 0"):
            myopic_price(mean, var)

    def test_array_calls_match_scalar_calls_bitwise(self):
        # One epoch of the valuation walk and the seller, called on arrays as
        # the simulator and the lattice do, against one scalar call per entry.
        params = ModelParams(horizon=4, gamma=2.5, sigma_eps=0.3, sigma_xi=0.5)
        rng = np.random.default_rng(19)
        n = 64
        v, mean, eps, xi = rng.standard_normal((4, n)) * [[3.0], [2.0], [1.0], [1.0]]
        var = kalman_predict(0.8, params)
        v_next = step_valuation(v, eps, params)
        y = v_next + params.sigma_xi * xi
        post_mean, post_var = kalman_correct(mean, var, y, params)
        price = myopic_price(post_mean, post_var)
        scalar = []
        for i in range(n):
            s = step_valuation(float(v[i]), float(eps[i]), params)
            obs = s + params.sigma_xi * float(xi[i])
            m, b = kalman_correct(float(mean[i]), var, obs, params)
            assert b == post_var
            scalar.append((s, obs, m, myopic_price(m, b)))
        got = np.stack([v_next, y, post_mean, price], axis=1)
        assert got.tobytes() == np.array(scalar).tobytes()

    def test_variance_sequence_deterministic_and_decreasing(self):
        params = ModelParams(seed=17)
        sequences = []
        for i in range(10):
            z = RngStream(params.seed, path_index=i).standard_normal(1 + 2 * params.horizon)
            mean, var = params.mu_prior, params.sigma_v**2
            variances = [var]
            v = params.mu_prior + params.sigma_v * z[0]
            for t in range(1, params.horizon + 1):
                v += params.sigma_eps * z[2 * t - 1]
                y = v + params.sigma_xi * z[2 * t]
                mean, var = kalman_correct(mean, kalman_predict(var, params), y, params)
                variances.append(var)
            sequences.append(variances)
        # Observation-independent: bitwise equal across paths.
        for seq in sequences[1:]:
            assert seq == sequences[0]
        # Riccati oracle, computed independently of the filter code.
        se2, sx2 = params.sigma_eps**2, params.sigma_xi**2
        var = params.sigma_v**2
        riccati = [var]
        for _ in range(params.horizon):
            pred = var + se2
            var = pred * sx2 / (pred + sx2)
            riccati.append(var)
        assert sequences[0] == pytest.approx(riccati, abs=1e-14)
        # Strictly decreasing once observations flow.
        diffs = np.diff(sequences[0])
        assert np.all(diffs[1:] < 0)
        assert sequences[0][2] < sequences[0][1]
