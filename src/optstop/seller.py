"""Surveilling seller: scalar Kalman filter and myopic expected-revenue pricing.

The seller tracks the consumer's valuation with a conjugate Gaussian posterior
(identity state transition with additive process noise, noisy scalar
observations) and at each epoch offers the price p maximizing the expected
immediate revenue p * Pr(v > p) under his current posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from .model import ModelParams
# q_function is not called here; perfbench/spans.py patches seller.q_function.
from .rng import q_function  # noqa: F401

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)

# Bisection halvings: 64 shrink the bracket (0, hi] below one ulp of hi, so
# the loop ends at full double precision.
_BISECTIONS = 64


@dataclass(frozen=True)
class GaussianBelief:
    """Mean and variance of the seller's posterior on the consumer valuation.

    The mean is a float, or an (N,) array when N paths share one variance
    (the variance does not depend on the observations).
    """

    mean: float | np.ndarray
    var: float

    def __post_init__(self):
        if self.var < 0:
            raise ValueError(f"variance must be >= 0, got {self.var}")


def kalman_predict(belief: GaussianBelief, params: ModelParams) -> GaussianBelief:
    """Time update: mean unchanged, variance grows by the process noise."""
    return GaussianBelief(belief.mean, belief.var + params.sigma_eps**2)


def kalman_correct(belief: GaussianBelief, y, params: ModelParams) -> GaussianBelief:
    """Measurement update with observation y = v + N(0, sigma_xi^2).

    y is a float, or an array shaped like the belief mean.
    """
    if not np.all(np.isfinite(y)):
        raise ValueError(f"observation must be finite, got {y}")
    denom = belief.var + params.sigma_xi**2
    if denom == 0.0:
        # Degenerate: point-mass belief and noiseless sensor carry no news.
        return belief
    gain = belief.var / denom
    return GaussianBelief(
        mean=belief.mean + gain * (y - belief.mean),
        var=(1.0 - gain) * belief.var,
    )


def myopic_price(belief: GaussianBelief):
    """Price maximizing p * Pr(v > p) under the given Gaussian belief.

    With p = sigma * q and m = mu / sigma the problem is max q * Q(q - m),
    whose stationarity condition is q = R(q - m) for the Mills ratio
    R(z) = Q(z) / phi(z) = sqrt(pi/2) * erfcx(z / sqrt(2)). R is decreasing
    and R(z) < 1/z for z > 0, so q - R(q - m) is increasing with its single
    root in (0, (m + sqrt(m^2 + 4)) / 2); bisection on that bracket converges
    for every m without evaluating Q or phi in their underflow range.

    The mean may be a float or an array; each element follows the same
    elementwise arithmetic, so an array call returns the bits of the
    matching scalar calls.
    """
    if not belief.var > 0:
        raise ValueError(f"pricing requires positive variance, got {belief.var}")
    sigma = math.sqrt(belief.var)
    m = np.asarray(belief.mean, dtype=float) / sigma
    # Bracket end (m + sqrt(m^2 + 4)) / 2; for m < 0 it is computed as the
    # reciprocal of (|m| + sqrt(m^2 + 4)) / 2, which avoids the cancellation.
    s = 0.5 * (np.abs(m) + np.sqrt(m * m + 4.0))
    hi = np.where(m < 0.0, 1.0 / s, s)
    lo = np.zeros_like(hi)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = mid < _SQRT_HALF_PI * erfcx((mid - m) / _SQRT2)
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return sigma * (0.5 * (lo + hi))


def seller_step(
    belief: GaussianBelief, true_v, z, params: ModelParams
) -> tuple[float, GaussianBelief, float]:
    """One seller epoch t >= 1 on the drawn standard normal z: observe
    y_t = v_t + sigma_xi * z, run predict-then-correct, and price off the
    updated posterior. Returns (offered price, updated belief, observation).

    true_v and z are floats, or arrays shaped like the belief mean. At t = 0
    there is no observation: the price is myopic_price of the prior.
    """
    y = true_v + params.sigma_xi * z
    updated = kalman_correct(kalman_predict(belief, params), y, params)
    return myopic_price(updated), updated, y
