"""Surveilling seller: scalar Kalman filter and myopic expected-revenue pricing.

The seller tracks the consumer's valuation with a conjugate Gaussian posterior
(identity state transition with additive process noise, noisy scalar
observations) and at each epoch offers the price p maximizing the expected
immediate revenue p * Pr(v > p) under his current posterior.

Pricing needs one scipy function, erfcx. It is imported at the first price,
not with the package, so a command that never prices loads no scipy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import ModelParams, blend, first_fault
# q_function is not called here; perfbench/spans.py patches seller.q_function.
from .rng import q_function  # noqa: F401

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_HALF_PI = 1.0 / math.sqrt(0.5 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Newton steps per price, a fixed count so that each element of an array call
# runs the same arithmetic as its scalar call. From _scaled_roots' start, 3
# steps reach the few-ulp level the erfcx evaluation allows on 700,000 m in
# [-1e12, 1e12] and +-[1e-300, 1e300] (2 leave up to 3,400 ulps just above
# m = 32); the 4th is a spare.
_NEWTON_STEPS = 4

# The table of roots the start interpolates: the scaled means in
# [-_TABLE_EDGE, _TABLE_EDGE] at step _TABLE_STEP, each priced by
# _TABLE_STEPS steps from the bracket end, of which 7 reach the few-ulp
# level at every m in [-1e12, 1e12] (a 600,000-point grid); the 8th is a
# spare.
_TABLE_EDGE = 32.0
_TABLE_STEP = 1.0 / 16.0
_TABLE_STEPS = 8

# Largest |mu / sigma| that prices. Up to about 9e307 every intermediate of
# the iteration stays finite; the bound keeps a margin of over 10^7.
MAX_SCALED_MEAN = 1e300
# Beyond this |m|, sqrt(m^2 + 4) rounds to |m|; past 1.3e154, m^2 overflows.
_SQRT_EXACT = 1e150


def erfcx(x):
    """scipy.special.erfcx(x), the scaled complementary error function,
    imported at the first call. Each call repeats the (then cached) import
    rather than rebinding this global, which would overwrite a patched
    seller.erfcx."""
    from scipy.special import erfcx

    return erfcx(x)


def kalman_predict(var, params: ModelParams):
    """Time update of the posterior variance: it grows by the process noise.
    The mean is unchanged."""
    return var + params.sigma_eps**2


def _correct_var(var, params: ModelParams):
    """The variance half of the measurement update from the predicted
    variance var: (gain, posterior variance), the gain None where a
    point-mass belief meets a noiseless sensor, which carries no news."""
    denom = var + params.sigma_xi**2
    if denom == 0.0:
        return None, var
    gain = var / denom
    return gain, (1.0 - gain) * var


def kalman_correct(mean, var, y, params: ModelParams):
    """Measurement update with observation y = v + N(0, sigma_xi^2); returns
    the posterior (mean, var).

    mean and y are floats or matching arrays. var is one float, since the
    posterior variance does not depend on the observations.
    """
    if not np.all(np.isfinite(y)):
        raise ValueError(f"observation must be finite, got {first_fault(np.isfinite(y), y)}")
    gain, var = _correct_var(var, params)
    if gain is None:
        return mean, var
    return mean + gain * (y - mean), var


def variance_schedule(params: ModelParams) -> np.ndarray:
    """The (T+1,) posterior variances of the seller's filter at t = 0..T,
    the prior sigma_v^2 first, each epoch's by kalman_predict and the
    variance half of kalman_correct. They do not depend on the
    observations, so they follow from params alone. A variance that rounds
    to 0 has no price and raises a ValueError naming its epoch."""
    schedule = np.empty(params.horizon + 1)
    schedule[0] = var = params.sigma_v**2
    for t in range(1, params.horizon + 1):
        _, var = _correct_var(kalman_predict(var, params), params)
        schedule[t] = var
    # Epochs after a zero variance still step; the first is named.
    zero = np.flatnonzero(~(schedule > 0))
    if zero.size:
        raise ValueError(
            f"seller posterior variance rounds to 0 at epoch {zero[0]}, so it has no price "
            f"(sigma_v={params.sigma_v}, sigma_eps={params.sigma_eps}, "
            f"sigma_xi={params.sigma_xi})"
        )
    return schedule


def myopic_price(mean, var):
    """Price maximizing p * Pr(v > p) under the Gaussian belief N(mean, var).

    With p = sigma * q and m = mu / sigma the problem is max q * Q(q - m),
    whose stationarity condition is q = R(q - m) for the Mills ratio
    R(z) = Q(z) / phi(z) = sqrt(pi/2) * erfcx(z / sqrt(2)). R is decreasing
    and R(z) < 1/z for z > 0, so q - R(q - m) is increasing with its single
    root in (0, hi], hi = (m + sqrt(m^2 + 4)) / 2.

    The root is found by Newton's method on G(q) = log q - log R(q - m),
    G'(q) = 1/q + 1/R - z with z = q - m. G' > 0 everywhere, and in log
    form the step stays sensible where R grows like exp(z^2 / 2) (z << 0),
    which stalls Newton on q - R. It starts near the root: for
    -32 <= m < 32 at the root interpolated in a table at step 1/16 (within
    1e-4 relative), built at the first price by 8 steps from hi; below -32
    at hi (within 1e-3); above 32 at the asymptote m - c,
    c = sqrt(2 log((m - c) / sqrt(2 pi))) refined once (within 3e-4). Each
    step first shrinks the bracket (0, hi] by the sign of q - R, and a
    Newton step that leaves the bracket is replaced by its midpoint. The
    loop runs _NEWTON_STEPS = 4 times, one erfcx evaluation each; against
    40-digit roots the price is within 3 ulps on a 1001-point grid of m in
    [-30, 40]. A |m| above MAX_SCALED_MEAN raises a ValueError naming the
    mean and the variance.

    The mean may be a float or an array, and the variance a float or an array
    that broadcasts against it (one entry per epoch, say). Each distinct
    scaled mean is priced once, in ascending order (np.unique): scipy's erfcx
    (the Faddeeva package's piecewise Chebyshev fit) branches on its argument
    to pick a sub-interval, and runs about 5x faster on sorted arguments. Its
    root goes to every entry with that scaled mean, times the entry's own
    sigma. Every distinct mean takes the same elementwise steps, so an array
    call returns the bits of the matching scalar calls. An error names the
    mean and the variance of the first entry at fault.
    """
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    if not np.all(np.isfinite(mean)):
        raise ValueError(f"mean must be finite, got {first_fault(np.isfinite(mean), mean)}")
    ok = (0.0 < var) & (var < math.inf)
    if not np.all(ok):
        raise ValueError(f"variance must be finite and > 0, got {first_fault(ok, var)}")
    sigma = np.sqrt(var)
    # Checked before dividing, where mu / sigma could overflow.
    ok = np.abs(mean) <= MAX_SCALED_MEAN * sigma
    if not np.all(ok):
        raise ValueError(
            f"pricing requires |mean| / sqrt(variance) <= {MAX_SCALED_MEAN:g}, "
            f"got mean {first_fault(ok, mean)} and variance {first_fault(ok, var)}"
        )
    scaled = mean / sigma
    # Distinct by value: 0.0 and -0.0 take the same steps to the same root.
    m, group = np.unique(scaled.ravel(), return_inverse=True)
    return sigma * _scaled_roots(m)[group].reshape(scaled.shape)


def _scaled_roots(m):
    """The root q of q = R(q - m) for each scaled mean of the sorted 1-d
    array m, by myopic_price's bracketed Newton iteration from a start near
    the root: the table's interpolated root on [-_TABLE_EDGE, _TABLE_EDGE),
    the bracket end below it and the asymptote above it."""
    hi = _bracket_end(m)
    q = np.empty_like(hi)
    # m is sorted, so the three regions are slices.
    i, j = np.searchsorted(m, (-_TABLE_EDGE, _TABLE_EDGE))
    # Below the table the bracket end is within 1e-3 of the root.
    q[:i] = hi[:i]
    grid, roots = _root_table()
    q[i:j] = np.interp(m[i:j], grid, roots)
    # Above it the root is m - c with m - c = sqrt(2 pi) exp(c^2 / 2) (1 - Q(c)),
    # where Q(c) < 0.013; dropping that factor and refining c once from
    # c = sqrt(2 log(m / sqrt(2 pi))) leaves the start within 3e-4.
    u = m[j:]
    c = np.sqrt(2.0 * np.log(u / _SQRT_2PI))
    c = np.sqrt(2.0 * np.log((u - c) / _SQRT_2PI))
    q[j:] = u - c
    return _newton(m, q, hi, _NEWTON_STEPS)


def _roots_from_bracket_end(m):
    """The root for each scaled mean of the 1-d array m after _TABLE_STEPS
    Newton steps from the bracket end: the table's iteration, and the
    reference the tabulated start is tested against."""
    hi = _bracket_end(m)
    return _newton(m, hi.copy(), hi, _TABLE_STEPS)


@functools.cache
def _root_table():
    """(grid, roots): the scaled means -_TABLE_EDGE, ..., _TABLE_EDGE at step
    _TABLE_STEP and their roots, computed once, at the first price."""
    k = round(_TABLE_EDGE / _TABLE_STEP)
    grid = np.arange(-k, k + 1) * _TABLE_STEP
    return grid, _roots_from_bracket_end(grid)


def _bracket_end(m):
    """hi = (m + sqrt(m^2 + 4)) / 2 for each m; for m < 0 it is computed as
    the reciprocal of (|m| + sqrt(m^2 + 4)) / 2, which avoids the
    cancellation."""
    a = np.abs(m)
    s = np.where(a > _SQRT_EXACT, a, 0.5 * (a + np.sqrt(np.minimum(a, _SQRT_EXACT) ** 2 + 4.0)))
    return np.where(m < 0.0, 1.0 / s, s)


def _newton(m, q, hi, steps):
    """steps bracketed Newton steps on G(q) = log q - log R(q - m) from q
    within (0, hi], each shrinking (0, hi] by the sign of q - R. They run in
    place, on q, hi and a fixed set of buffers. The signs and the bracket
    test flip from one mean to the next, so the selects are blends."""
    lo = np.zeros_like(hi)
    z, r, t = np.empty_like(q), np.empty_like(q), np.empty_like(q)
    below, inside = np.empty(len(q), dtype=bool), np.empty(len(q), dtype=bool)
    for _ in range(steps):
        np.subtract(q, m, out=z)
        e = erfcx(np.divide(z, _SQRT2, out=r))
        # q / R, formed so that no product overflows; its log is G(q), and
        # near the root it carries no cancellation, unlike log q - log R.
        ratio = np.divide(np.multiply(q, _INV_SQRT_HALF_PI, out=r), e, out=r)
        np.less(ratio, 1.0, out=below)
        blend(lo, q, below, t)
        blend(hi, q, np.logical_not(below, out=below), t)
        # erfcx overflows to inf for z < about -37.7, so ratio is 0 there;
        # the step is then infinite and the midpoint is taken.
        with np.errstate(divide="ignore"):
            g = np.log(ratio, out=r)
        slope = np.divide(1.0, q, out=t)
        slope += np.divide(_INV_SQRT_HALF_PI, e, out=e)
        slope -= z
        step = np.subtract(q, np.divide(g, slope, out=r), out=r)
        # Inclusive: a converged step lands on a bracket end it just set.
        np.less_equal(lo, step, out=below)
        np.logical_and(below, np.less_equal(step, hi, out=inside), out=below)
        mid = np.multiply(np.add(lo, hi, out=t), 0.5, out=t)
        blend(mid, step, below, z)
        q, t = mid, q
    return q
