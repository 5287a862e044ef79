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

from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .rng import RngStream

# CARA exponent clamp: exp(700) is still finite in doubles, so a saturated
# payoff stays finite and exit_payoff maps it to 0 like any negative payoff.
MAX_EXPONENT = 700.0


@dataclass(frozen=True)
class ConsumerState:
    """Time index, current valuation mean, and remaining valuation variance.

    v is a float, or an (N,) array for N paths at the same epoch.
    """

    t: int
    v: float | np.ndarray
    residual_var: float

    def __post_init__(self):
        if self.residual_var < 0:
            raise ValueError(f"residual variance must be >= 0, got {self.residual_var}")


def residual_var(t, params: ModelParams):
    """Variance left in the final valuation at epoch t (an int or an array)."""
    return (params.horizon - t) * params.sigma_eps**2


def initial_state(v0: float, params: ModelParams) -> ConsumerState:
    return ConsumerState(t=0, v=v0, residual_var=residual_var(0, params))


def step_valuation(
    state: ConsumerState, stream: RngStream, params: ModelParams
) -> ConsumerState:
    """Advance the valuation walk one step: v_{t+1} = v_t + N(0, sigma_eps^2)."""
    if state.t >= params.horizon:
        raise ValueError(f"cannot step past the horizon (t={state.t})")
    eps = params.sigma_eps * stream.standard_normal()
    t_next = state.t + 1
    return ConsumerState(t=t_next, v=state.v + eps, residual_var=residual_var(t_next, params))


def purchase_payoff(state: ConsumerState, price, params: ModelParams):
    """Certainty-equivalent payoff from purchasing now at the given price.

    Strictly increasing in the valuation mean, strictly decreasing in price,
    bounded above by 1. The exponent is clamped at MAX_EXPONENT so deeply
    unprofitable purchases saturate to a large negative but finite payoff.
    Valuation and price may be floats or matching arrays.
    """
    if not np.all(np.isfinite(price)):
        raise ValueError(f"price must be finite, got {price}")
    g = params.gamma
    exponent = -g * (state.v - price) + 0.5 * g * g * state.residual_var
    return 1.0 - np.exp(np.minimum(exponent, MAX_EXPONENT))


def exit_payoff(pi):
    """Payoff from exiting: the better of purchasing (pi) and rejecting (0)."""
    return np.maximum(pi, 0.0)
