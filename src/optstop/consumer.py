"""Consumer side of a sample path: valuation random walk and exit payoffs.

The consumer's valuation estimate evolves as v_{t+1} = v_t + eps with
eps ~ N(0, sigma_eps^2). At time t her remaining uncertainty about the final
valuation is (T - t) * sigma_eps^2, and the payoff from purchasing at price p
is the certainty equivalent of exponential (CARA) utility over that residual
risk:

    pi_t = 1 - exp(-gamma * (v_t - p) + 0.5 * gamma^2 * (T - t) * sigma_eps^2)

Exiting pays max(pi_t, 0): purchase when the payoff is positive, walk away
otherwise.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, first_fault

# CARA exponent clamp: exp(700) is still finite in doubles, so a saturated
# payoff stays finite and exit_payoff maps it to 0 like any negative payoff.
MAX_EXPONENT = 700.0


def residual_var(t, params: ModelParams):
    """Variance left in the final valuation at epoch t (an int or an array)."""
    return (params.horizon - t) * params.sigma_eps**2


def step_valuation(v, z, params: ModelParams):
    """Advance the valuation walk one step on the drawn standard normal z:
    v_{t+1} = v_t + sigma_eps * z. v and z are floats or matching arrays."""
    return v + params.sigma_eps * z


def purchase_payoff(v, price, t, params: ModelParams):
    """Certainty-equivalent payoff from purchasing at epoch t, valuation mean
    v and the given price, with residual_var(t, params) left in the valuation.

    Strictly increasing in the valuation mean, strictly decreasing in price,
    bounded above by 1. The exponent is clamped at MAX_EXPONENT so deeply
    unprofitable purchases saturate to a large negative but finite payoff.
    The clamp changes no exit payoff and no decision: where it acts, both the
    clamped and the exact payoff are <= 1 - e^700 < 0, so both exit at 0 and
    neither buys. Valuation and price may be floats or matching arrays, and t
    an int or an array of epochs that broadcasts against them.
    """
    if not np.all(np.isfinite(price)):
        raise ValueError(f"price must be finite, got {first_fault(np.isfinite(price), price)}")
    g = params.gamma
    exponent = -g * (v - price) + 0.5 * g * g * residual_var(t, params)
    return 1.0 - np.exp(np.minimum(exponent, MAX_EXPONENT))


def exit_payoff(pi):
    """Payoff from exiting: the better of purchasing (pi) and rejecting (0)."""
    return np.maximum(pi, 0.0)
