"""Kalman filter correctness and the myopic revenue-maximizing price."""

import math

import numpy as np
import pytest
from scipy.special import log_ndtr

from optstop.model import ModelParams
from optstop.rng import RngStream, normal_pdf, q_function
from optstop.seller import (
    GaussianBelief,
    kalman_correct,
    kalman_predict,
    myopic_price,
    seller_step,
)

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


def run_filter(params: ModelParams, ys) -> GaussianBelief:
    belief = GaussianBelief(params.mu_prior, params.sigma_v**2)
    for y in ys:
        belief = kalman_correct(kalman_predict(belief, params), y, params)
    return belief


class TestKalman:
    def test_predict_adds_process_noise(self):
        params = ModelParams(sigma_eps=0.1)
        out = kalman_predict(GaussianBelief(1.0, 1.0), params)
        assert out.mean == 1.0
        assert out.var == pytest.approx(1.01, abs=1e-15)

    def test_predict_noiseless_is_identity(self):
        params = ModelParams(sigma_eps=0.0)
        belief = GaussianBelief(0.3, 0.7)
        assert kalman_predict(belief, params) == belief

    def test_repeated_prediction_is_additive(self):
        # Dyadic values so floating addition is exact.
        params = ModelParams(sigma_v=1.0, sigma_eps=0.5)
        belief = GaussianBelief(0.0, params.sigma_v**2)
        for k in range(1, 21):
            belief = kalman_predict(belief, params)
            assert belief.var == 1.0 + k * 0.25

    def test_correct_conjugate_example(self):
        # Prior N(1,1), unit observation noise, y=2: posterior N(1.5, 0.5).
        params = ModelParams(sigma_xi=1.0)
        post = kalman_correct(GaussianBelief(1.0, 1.0), 2.0, params)
        assert post.mean == 1.5
        assert post.var == 0.5

    def test_uninformative_observation_limit(self):
        params = ModelParams(sigma_xi=1e8)
        prior = GaussianBelief(1.0, 1.0)
        post = kalman_correct(prior, 50.0, params)
        assert post.mean == pytest.approx(prior.mean, abs=1e-8)
        assert post.var == pytest.approx(prior.var, abs=1e-8)

    def test_perfect_observation(self):
        params = ModelParams(sigma_xi=0.0)
        post = kalman_correct(GaussianBelief(1.0, 2.0), 3.25, params)
        assert post.mean == 3.25
        assert post.var == 0.0

    def test_perfect_observation_chain_tracks_value(self):
        # sigma_xi = 0: after predict-then-correct the mean is the observed
        # valuation exactly, every step.
        params = ModelParams(sigma_xi=0.0, sigma_eps=0.1)
        belief = GaussianBelief(params.mu_prior, params.sigma_v**2)
        for v_t in (1.3, 0.9, 1.7):
            belief = kalman_correct(kalman_predict(belief, params), v_t, params)
            assert belief.mean == v_t
            assert belief.var == 0.0

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
                belief = run_filter(params, ys)
                mean, var = batch_posterior(params, ys)
                assert belief.mean == pytest.approx(mean, abs=1e-10)
                assert belief.var == pytest.approx(var, abs=1e-10)

    def test_posterior_variance_ignores_observation_values(self):
        params = ModelParams()
        a = run_filter(params, [0.1, -2.0, 5.5])
        b = run_filter(params, [9.9, 0.0, -3.3])
        assert a.var == b.var  # bitwise

    def test_variance_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            GaussianBelief(0.0, -1e-9)


class TestMyopicPrice:
    def test_standard_normal_belief_matches_grid(self):
        p = myopic_price(GaussianBelief(0.0, 1.0))
        assert p == pytest.approx(GRID_PRICE_STD_NORMAL, abs=1e-3)
        f = p * q_function(p)
        assert f == pytest.approx(GRID_REVENUE_STD_NORMAL, abs=1e-6)

    def test_unit_prior_belief_matches_grid(self):
        p = myopic_price(GaussianBelief(1.0, 1.0))
        assert p == pytest.approx(GRID_PRICE_UNIT_PRIOR, abs=1e-3)
        assert p == pytest.approx(grid_price(1.0, 1.0), abs=1e-3)
        f = p * q_function(p - 1.0)
        assert f == pytest.approx(GRID_REVENUE_UNIT_PRIOR, abs=1e-6)

    def test_scale_equivariance(self):
        for mu, var in [(0.0, 1.0), (1.0, 1.0), (0.5, 0.25), (-0.4, 2.0)]:
            base = myopic_price(GaussianBelief(mu, var))
            for c in (0.5, 2.5):
                scaled = myopic_price(GaussianBelief(c * mu, c * c * var))
                assert scaled == pytest.approx(c * base, abs=1e-6 * max(1.0, c))

    def test_random_beliefs_against_grid(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            mu = float(rng.uniform(-2.0, 4.0))
            sigma = float(rng.uniform(0.1, 3.0))
            p = myopic_price(GaussianBelief(mu, sigma * sigma))
            assert p == pytest.approx(grid_price(mu, sigma), abs=1e-3)
            # Stationarity: Q(z) = p * phi(z) / sigma at the optimum.
            z = (p - mu) / sigma
            assert abs(q_function(z) - p * normal_pdf(z) / sigma) <= 1e-8
            # Local-max certificate.
            f_star = p * q_function(z)
            for d in (-1e-3, 1e-3):
                assert f_star >= (p + d) * q_function((p + d - mu) / sigma)

    @pytest.mark.parametrize("m", [-30.0, -8.0, 0.0, 8.0, 40.0])
    def test_scaled_mean_edge_cases(self, m):
        # p = sigma * q with q = R(q - m), R(z) = Q(z) / phi(z). The oracle
        # evaluates R through log Q (scipy's log_ndtr), not through erfcx.
        sigma = 0.7
        p = myopic_price(GaussianBelief(m * sigma, sigma * sigma))
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
        prices = myopic_price(GaussianBelief(means, var))
        scalar = np.array([myopic_price(GaussianBelief(float(mu), var)) for mu in means])
        assert prices.shape == means.shape
        assert prices.tobytes() == scalar.tobytes()

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            myopic_price(GaussianBelief(1.0, 0.0))

    def test_deep_out_of_the_money_belief(self):
        # Very negative mean: optimum is near sigma^2 / |mu|, still found.
        p = myopic_price(GaussianBelief(-2.0, 0.01))
        assert p == pytest.approx(grid_price(-2.0, 0.1), abs=1e-3)
        assert p > 0


class TestSellerStep:
    def test_no_observation_at_time_zero(self):
        params = ModelParams()
        prior = GaussianBelief(params.mu_prior, params.sigma_v**2)
        price, belief, y = seller_step(prior, 5.0, 0, RngStream(0), params)
        assert y is None
        assert belief == prior
        assert price == myopic_price(prior)

    def test_observation_consumed_after_time_zero(self):
        params = ModelParams(seed=5)
        prior = GaussianBelief(params.mu_prior, params.sigma_v**2)
        stream = RngStream(5)
        price, belief, y = seller_step(prior, 1.2, 1, stream, params)
        assert y is not None
        expected = kalman_correct(kalman_predict(prior, params), y, params)
        assert belief == expected
        assert price == myopic_price(expected)

    def test_rejects_time_outside_horizon(self):
        params = ModelParams(horizon=5)
        prior = GaussianBelief(1.0, 1.0)
        with pytest.raises(ValueError):
            seller_step(prior, 1.0, 6, RngStream(0), params)

    def test_perfect_observation_fails_at_pricing(self):
        # A noiseless observation collapses the posterior; pricing then
        # rejects the zero variance, and seller_step propagates that.
        params = ModelParams(sigma_xi=0.0)
        prior = GaussianBelief(params.mu_prior, params.sigma_v**2)
        with pytest.raises(ValueError):
            seller_step(prior, 1.0, 1, RngStream(1), params)

    def test_variance_sequence_deterministic_and_decreasing(self):
        params = ModelParams(seed=17)
        sequences = []
        for i in range(10):
            stream = RngStream(params.seed, path_index=i)
            belief = GaussianBelief(params.mu_prior, params.sigma_v**2)
            variances = [belief.var]
            v = params.mu_prior + params.sigma_v * stream.standard_normal()
            for t in range(1, params.horizon + 1):
                v += params.sigma_eps * stream.standard_normal()
                _, belief, _ = seller_step(belief, v, t, stream, params)
                variances.append(belief.var)
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
