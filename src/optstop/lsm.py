"""Regression-based stopping policies: backward training, online deployment,
and the myopic baseline.

The consumer exits each path once, with the exit payoff H_t = max(pi_t, 0):
a purchase when it is positive, a walk-away otherwise. Training walks the
horizon backwards over a batch of exit-payoff paths, keeping each path's one
realized cashflow (the exit payoff at its current stop time). At each epoch t
it regresses the in-the-money cashflows on the current exit payoff, giving an
estimate f_t of the value of continuing; paths whose immediate payoff beats
that estimate are re-marked to stop at t. Deployment replays the same strict
comparison H_t > f_t(H_t) online, returning the exit payoff at the first win,
and exits at the final epoch regardless. The myopic baseline is that same
rule with every estimate f_t set to zero, so it buys at the first positive
payoff.

The regression feature defaults to the exit payoff itself but any per-time
scalar feature stream can be supplied (e.g. exact state identifiers on
discretized problems, where the tabular backend then recovers the true
conditional expectation).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .model import PathBatch
from .regression import KernelRegressor, RegressionBackend, Regressor, ZeroRegressor

# Two-sided 95% normal quantile, for the confidence interval of a mean.
_Z95 = NormalDist().inv_cdf(0.975)


@dataclass
class StoppingPolicy:
    """Trained per-epoch continuation-value estimators f_0..f_{T-1}."""

    horizon: int
    regressors: list[Regressor]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.regressors) != self.horizon:
            raise ValueError(
                f"need exactly {self.horizon} regressors, got {len(self.regressors)}"
            )


@dataclass
class CashflowMatrix:
    """Realized cashflow per training path under the trained rule: the exit
    payoff at that path's stop time."""

    stop_values: np.ndarray  # (N,)

    @property
    def training_value(self) -> float:
        return float(self.stop_values.mean())


def _features(h: np.ndarray, features) -> np.ndarray:
    """Column-major regression features shaped like h; h itself by default.
    Supplied features must be finite."""
    if features is None:
        return h
    x = np.asfortranarray(features, dtype=float)
    if x.shape != h.shape:
        raise ValueError(f"features shape {x.shape} must match h shape {h.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    return x


def train(
    h,
    backend: RegressionBackend,
    features=None,
    metadata: dict | None = None,
    return_cashflows: bool = False,
):
    """Train a stopping policy on N exit-payoff paths (Longstaff-Schwartz style).

    h        -- (N, T+1) array of exit payoffs, nonnegative and finite, N >= 1
    backend  -- regression backend fitted once per epoch on in-the-money paths
    features -- optional (N, T+1) scalar features to regress on; defaults to h

    Walks t = T-1 .. 0. In-the-money paths are those with H_t > 0; when there
    are none the epoch's estimator is identically zero. The regression target
    for path n is its realized cashflow: the exit payoff at its stop time
    after t, kept as one value per path. After fitting, every path (in the
    money or not) with H_t > f_t(feature_t) is re-marked to stop at t, and
    H_t becomes its cashflow. Returns the policy, plus the final cashflows
    (equal to apply_policy's payoffs on the same paths) when return_cashflows
    is set.

    The policy metadata's numerics.epochs holds one record per epoch t: the
    in-the-money count, the number of paths re-marked to stop at t, and for
    the kernel backend (null for the others) the distinct regression inputs
    among the in-the-money paths (the rest are merged duplicates), the
    Taylor terms and the tail bound.
    """
    # Column-major working copies: each epoch's column is contiguous.
    h = np.asfortranarray(h, dtype=float)
    if h.ndim != 2 or h.shape[1] < 2:
        raise ValueError(f"h must be (N, T+1) with T >= 1, got shape {h.shape}")
    if len(h) < 1:
        raise ValueError(f"number of paths must be >= 1, got {len(h)}")
    if not np.all(np.isfinite(h)) or np.any(h < 0):
        raise ValueError("exit payoffs must be finite and nonnegative")
    horizon = h.shape[1] - 1
    x = _features(h, features)

    stop_value = h[:, horizon].copy()
    regressors: list[Regressor] = [None] * horizon  # type: ignore[list-item]
    epochs: list[dict] = [None] * horizon  # type: ignore[list-item]

    for t in range(horizon - 1, -1, -1):
        itm = h[:, t] > 0.0
        if not itm.any():
            reg: Regressor = ZeroRegressor()
        else:
            try:
                reg = backend.fit(x[itm, t], stop_value[itm])
            except Exception as exc:
                raise RuntimeError(f"regression failed at epoch t={t}") from exc
        regressors[t] = reg
        exit_now = h[:, t] > reg.predict(x[:, t])
        np.copyto(stop_value, h[:, t], where=exit_now)
        kernel = isinstance(reg, KernelRegressor)
        epochs[t] = {
            "in_the_money": int(itm.sum()),
            "support": len(np.unique(x[itm, t])) if kernel else None,
            "terms": len(reg.weights) if kernel else None,
            "tail_bound": reg.tail_bound if kernel else None,
            "stopped": int(exit_now.sum()),
        }

    meta = {
        "n_train": len(h),
        "horizon": horizon,
        "backend": backend.to_dict(),
        "feature": "exit_payoff" if features is None else "custom",
        "numerics": {
            "nonpositive_exit_action": "reject",
            "epochs": epochs,
        },
    }
    if metadata:
        meta.update(metadata)
    policy = StoppingPolicy(horizon=horizon, regressors=regressors, metadata=meta)

    if not return_cashflows:
        return policy
    return policy, CashflowMatrix(stop_value)


def _myopic(horizon: int) -> StoppingPolicy:
    """The myopic baseline as a policy: every continuation estimate is zero,
    so it exits at the first positive payoff."""
    return StoppingPolicy(horizon, [ZeroRegressor()] * horizon)


def decide(
    policy: StoppingPolicy, h_prefix, pi_t: float, feature_prefix=None
) -> float | None:
    """Online stopping test at epoch t = len(h_prefix) - 1; returns the exit
    payoff H_t on exit and None to keep browsing.

    h_prefix holds the exit payoffs observed so far (H_0..H_t); pi_t is the
    current purchase payoff, with H_t = max(pi_t, 0). An exit before the
    horizon happens exactly when H_t strictly beats the trained continuation
    estimate; at the horizon the exit is forced. The exit is a purchase
    exactly when H_t > 0 (H_t is then pi_t), and a walk-away paying 0 otherwise.
    feature_prefix, if given, holds the regression features observed so far,
    one per entry of h_prefix, all finite; it defaults to h_prefix.
    """
    h_prefix = np.asarray(h_prefix, dtype=float)
    t = len(h_prefix) - 1
    if t < 0 or t > policy.horizon:
        raise ValueError(f"prefix length {t + 1} outside 1..{policy.horizon + 1}")
    h_t = float(h_prefix[-1])
    if h_t != max(pi_t, 0.0):
        raise ValueError(f"H_t={h_t} inconsistent with pi_t={pi_t}")
    x = _features(h_prefix, feature_prefix)
    if t < policy.horizon and not h_t > policy.regressors[t].predict(float(x[-1])):
        return None
    return h_t


def myopic_decide(h_prefix, pi_t: float, horizon: int) -> float | None:
    """Greedy baseline: purchase at the first epoch with positive payoff,
    returning the exit payoff as decide() does."""
    return decide(_myopic(horizon), h_prefix, pi_t)


def apply_policy(policy: StoppingPolicy, h, features=None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized deployment over a path batch; returns (exit times, payoffs).

    Equivalent path-by-path to looping decide() over prefixes (asserted in
    the test suite); payoff is the exit payoff at the stop epoch. Each
    epoch's estimator predicts only for the paths still browsing; every
    regressor evaluates each input on its own, so the bits do not depend on
    which paths are left.
    """
    # Column-major working copies: each epoch's column is contiguous.
    h = np.asfortranarray(h, dtype=float)
    if h.ndim != 2 or h.shape[1] != policy.horizon + 1:
        raise ValueError(
            f"h must be (N, T+1) with T = policy horizon {policy.horizon}, got shape {h.shape}"
        )
    x = _features(h, features)
    n_paths = len(h)
    times = np.full(n_paths, policy.horizon, dtype=np.int64)
    payoffs = h[:, policy.horizon].copy()
    live = slice(None)  # every path browses at t = 0: read the columns in place
    for t in range(policy.horizon):
        exit_now = h[live, t] > policy.regressors[t].predict(x[live, t])
        exits, stay = np.flatnonzero(exit_now), np.flatnonzero(~exit_now)
        if t:
            exits, stay = live[exits], live[stay]
        times[exits] = t
        payoffs[exits] = h[exits, t]
        live = stay
        if not len(live):
            break
    return times, payoffs


def apply_myopic(h) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized myopic baseline; returns (exit times, payoffs)."""
    return apply_policy(_myopic(np.shape(h)[1] - 1), h)


@dataclass
class StrategyOutcome:
    """Per-path results of one strategy over a test batch, with the checksum
    of the batch's exit payoffs."""

    times: np.ndarray
    payoffs: np.ndarray
    prices_at_exit: np.ndarray
    valuations_at_exit: np.ndarray
    paths_sha256: str

    @property
    def purchased(self) -> np.ndarray:
        """False where the exit was a rejection (payoff 0)."""
        return self.payoffs > 0.0

    @property
    def mean_payoff(self) -> float:
        return float(self.payoffs.mean())

    @property
    def mean_payoff_se(self) -> float:
        return _standard_error(self.payoffs)

    @property
    def n_purchases(self) -> int:
        return int(self.purchased.sum())

    @property
    def prices_paid(self) -> np.ndarray:
        return self.prices_at_exit[self.purchased]


@dataclass
class EvaluationReport:
    """Paired (or independent) comparison of the trained and myopic strategies.

    Only paired runs have per-trial differences and a tie count; they are
    None in independent mode, where only the means are comparable.
    """

    algorithmic: StrategyOutcome
    myopic: StrategyOutcome
    paired: bool

    @property
    def n_trials(self) -> int:
        return len(self.algorithmic.times)

    @property
    def mean_algorithmic(self) -> float:
        return self.algorithmic.mean_payoff

    @property
    def mean_myopic(self) -> float:
        return self.myopic.mean_payoff

    @property
    def differences(self) -> np.ndarray | None:
        return self.algorithmic.payoffs - self.myopic.payoffs if self.paired else None

    @property
    def mean_difference(self) -> float:
        if self.paired:
            return float(self.differences.mean())
        return self.mean_algorithmic - self.mean_myopic

    @property
    def mean_difference_se(self) -> float:
        """From the per-trial differences when paired; otherwise the two
        means' standard errors combined as independent."""
        if self.paired:
            return _standard_error(self.differences)
        return math.hypot(self.algorithmic.mean_payoff_se, self.myopic.mean_payoff_se)

    @property
    def mean_difference_ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval of mean_difference."""
        half = _Z95 * self.mean_difference_se
        return self.mean_difference - half, self.mean_difference + half

    @property
    def n_ties(self) -> int | None:
        if self.paired:
            return int((self.algorithmic.payoffs == self.myopic.payoffs).sum())
        return None


def _standard_error(x: np.ndarray) -> float:
    """Standard error of the mean of x (sample standard deviation over
    sqrt(n)); nan for fewer than two values."""
    if len(x) < 2:
        return math.nan
    return float(x.std(ddof=1)) / math.sqrt(len(x))


def _paths_sha256(batch: PathBatch) -> str:
    return hashlib.sha256(np.ascontiguousarray(batch.h).tobytes()).hexdigest()


def _outcome(
    batch: PathBatch, times: np.ndarray, payoffs: np.ndarray, paths_sha256: str
) -> StrategyOutcome:
    rows = np.arange(batch.n_paths)
    return StrategyOutcome(
        times=times,
        payoffs=payoffs,
        prices_at_exit=batch.p[rows, times],
        valuations_at_exit=batch.v[rows, times],
        paths_sha256=paths_sha256,
    )


def evaluate(
    policy: StoppingPolicy,
    batch: PathBatch,
    myopic_batch: PathBatch | None = None,
) -> EvaluationReport:
    """Run both strategies over test paths and compare them.

    By default the myopic baseline runs on the same realizations (paired
    mode, per-trial differences and tie counts); passing a separate
    myopic_batch switches to independent mode, where only the means are
    comparable.
    """
    paths_sha256 = _paths_sha256(batch)
    alg = _outcome(batch, *apply_policy(policy, batch.h), paths_sha256)
    if myopic_batch is None:
        myo = _outcome(batch, *apply_myopic(batch.h), paths_sha256)
    else:
        myo = _outcome(myopic_batch, *apply_myopic(myopic_batch.h), _paths_sha256(myopic_batch))
    return EvaluationReport(algorithmic=alg, myopic=myo, paired=myopic_batch is None)
