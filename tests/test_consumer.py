"""Valuation walk, certainty-equivalent purchase payoff, and exit payoff."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstop.consumer import (
    MAX_EXPONENT,
    exit_payoff,
    purchase_payoff,
    residual_var,
    step_valuation,
)
from optstop.model import ModelParams
from optstop.rng import RngStream


def mc_payoff_oracle(gamma, v_minus_p, residual_var, n=10**6, seed=314159):
    """Brute-force oracle: E[1 - exp(-gamma X)], X ~ N(v - p, residual_var).

    Uses numpy's default PCG64 generator, a different algorithm from the
    package's Philox streams. Returns (estimate, standard error).
    """
    rng = np.random.default_rng(seed)
    x = v_minus_p + math.sqrt(residual_var) * rng.standard_normal(n)
    samples = 1.0 - np.exp(-gamma * x)
    return samples.mean(), samples.std(ddof=1) / math.sqrt(n)


class TestStepValuation:
    def test_zero_noise_keeps_value(self):
        params = ModelParams(horizon=5, sigma_eps=0.0, seed=1)
        assert step_valuation(2.7, 0.7, params) == 2.7
        assert residual_var(1, params) == 0.0

    def test_residual_variance_hits_zero_at_horizon(self):
        params = ModelParams(horizon=4, sigma_eps=0.3, seed=2)
        left = residual_var(np.arange(params.horizon + 1), params)
        assert np.all(np.diff(left) < 0)
        assert left[-1] == residual_var(params.horizon, params) == 0.0

    def test_martingale_increment_mean(self):
        params = ModelParams(horizon=10, sigma_eps=0.1, seed=3)
        n = 10**5
        v = np.ones(n)
        z = RngStream(3, path_index=0).standard_normal(n)
        increments = step_valuation(v, z, params) - v
        assert abs(increments.mean()) < 4 * params.sigma_eps / math.sqrt(n)

    def test_increment_variance_matches_sigma(self):
        params = ModelParams(horizon=10, sigma_eps=0.1, seed=4)
        n = 10**5
        v = np.ones(n)
        z = RngStream(4, path_index=1).standard_normal(n)
        increments = step_valuation(v, z, params) - v
        assert increments.var() == pytest.approx(0.01, abs=5e-4)


class TestPurchasePayoff:
    def test_terminal_at_price_is_zero(self):
        params = ModelParams(horizon=25)
        assert purchase_payoff(1.4, 1.4, 25, params) == 0.0

    def test_terminal_log_two_gap(self):
        params = ModelParams(horizon=25, gamma=1.0)
        assert purchase_payoff(math.log(2.0), 0.0, 25, params) == pytest.approx(0.5, abs=1e-15)

    def test_closed_form_against_monte_carlo(self):
        # gamma=1, 25 steps remaining, sigma_eps=0.1, valuation equal to price.
        params = ModelParams(horizon=25, gamma=1.0, sigma_eps=0.1)
        closed = purchase_payoff(1.0, 1.0, 0, params)
        assert closed == pytest.approx(1.0 - math.exp(0.125), abs=1e-15)
        est, se = mc_payoff_oracle(1.0, 0.0, 25 * 0.01)
        assert abs(closed - est) <= 3 * se

    def test_increasing_in_time_under_uncertainty(self):
        params = ModelParams(horizon=25, gamma=1.0, sigma_eps=0.1)
        payoffs = [purchase_payoff(1.2, 1.0, t, params) for t in range(26)]
        assert all(b > a for a, b in zip(payoffs, payoffs[1:]))

    @given(
        v=st.floats(-3, 3),
        price=st.floats(-3, 3),
        bump=st.floats(1e-6, 1.0),
    )
    @settings(max_examples=200)
    def test_monotone_in_value_and_price(self, v, price, bump):
        params = ModelParams(horizon=10, gamma=0.7, sigma_eps=0.2)
        base = purchase_payoff(v, price, 4, params)
        assert purchase_payoff(v + bump, price, 4, params) > base
        assert purchase_payoff(v, price + bump, 4, params) < base
        assert base < 1.0

    def test_saturates_instead_of_overflowing(self):
        params = ModelParams(horizon=25, gamma=1.0, sigma_eps=0.1)
        pay = purchase_payoff(0.0, 1e6, 0, params)
        assert math.isfinite(pay)
        assert pay == 1.0 - math.exp(MAX_EXPONENT)
        assert exit_payoff(pay) == 0.0

    @given(
        gamma=st.floats(0.05, 20.0),
        sigma_eps=st.floats(0.0, 2.0),
        t=st.integers(0, 25),
        price=st.floats(-100.0, 100.0),
        exponent=st.floats(600.0, 800.0),
    )
    @settings(max_examples=300)
    def test_clamp_changes_no_exit_payoff_or_decision(self, gamma, sigma_eps, t, price, exponent):
        # The valuation that puts the CARA exponent near `exponent`.
        params = ModelParams(horizon=25, gamma=gamma, sigma_eps=sigma_eps)
        var = residual_var(t, params)
        v = price - (exponent - 0.5 * gamma * gamma * var) / gamma
        clamped = purchase_payoff(v, price, t, params)
        with np.errstate(over="ignore"):  # exp overflows to inf above about 709.8
            exact = 1.0 - np.exp(-gamma * (v - price) + 0.5 * gamma * gamma * var)
        assert exit_payoff(clamped) == exit_payoff(exact) == 0.0
        assert clamped <= 1.0 - math.exp(MAX_EXPONENT) or clamped == exact

    def test_rejects_non_finite_price(self):
        params = ModelParams()
        with pytest.raises(ValueError):
            purchase_payoff(1.0, math.inf, 0, params)

    def test_first_non_finite_price_named(self):
        params = ModelParams(horizon=2)
        price = np.array([[0.5, -math.inf, 0.5], [math.nan, 0.5, 0.5]])
        with pytest.raises(ValueError, match=r"^price must be finite, got -inf$"):
            purchase_payoff(np.ones((2, 3)), price, np.arange(3), params)


class TestExitPayoff:
    def test_negative_goes_to_zero(self):
        assert exit_payoff(-0.2) == 0.0

    def test_positive_passes_through(self):
        assert exit_payoff(0.3) == 0.3

    def test_tie_at_zero(self):
        assert exit_payoff(0.0) == 0.0

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200)
    def test_idempotent_and_nonnegative(self, pi):
        once = exit_payoff(pi)
        assert once >= 0.0
        assert exit_payoff(once) == once
