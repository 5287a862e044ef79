"""Regression-based stopping policies: backward training, online deployment,
and the myopic baseline.

Training walks the horizon backwards over a batch of exit-payoff paths. At
each epoch t it regresses each in-the-money path's single future realized
cashflow on its current exit payoff, giving an estimate f_t of the value of
continuing; paths whose immediate payoff beats that estimate are re-marked to
stop at t (zeroing their later cashflow). Deployment replays the same strict
comparison H_t > f_t(H_t) online, purchasing at the first win, and at the
final epoch purchases exactly when the payoff is positive. The myopic
baseline is that same rule with every estimate f_t set to zero, so it buys
at the first positive payoff.

The regression feature defaults to the exit payoff itself but any per-time
scalar feature stream can be supplied (e.g. exact state identifiers on
discretized problems, where the tabular backend then recovers the true
conditional expectation).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .model import PathBatch
from .regression import RegressionBackend, Regressor, ZeroRegressor

PURCHASE = "purchase"
REJECT = "reject"


@dataclass(frozen=True)
class ExitDecision:
    """Final outcome on one path: when, which action, and the realized payoff."""

    time: int
    action: str
    payoff: float

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"exit time must be >= 0, got {self.time}")
        if self.action not in (PURCHASE, REJECT):
            raise ValueError(f"action must be purchase or reject, got {self.action!r}")
        if self.action == REJECT and self.payoff != 0.0:
            raise ValueError("reject pays 0")


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
    """Realized payoff per (path, time) under the trained rule.

    Each row carries at most one nonzero entry: the exit payoff at that
    path's stop time.
    """

    values: np.ndarray  # (N, T+1)

    @property
    def stop_values(self) -> np.ndarray:
        return self.values.max(axis=1)

    @property
    def training_value(self) -> float:
        return float(self.stop_values.mean())

    def validate_against(self, h: np.ndarray) -> None:
        if self.values.shape != h.shape:
            raise ValueError("cashflow shape mismatch")
        nonzero_per_row = (self.values != 0.0).sum(axis=1)
        if np.any(nonzero_per_row > 1):
            raise ValueError("a cashflow row has more than one nonzero entry")
        rows, cols = np.nonzero(self.values)
        if not np.array_equal(self.values[rows, cols], h[rows, cols]):
            raise ValueError("nonzero cashflow entries must equal the exit payoff there")


def train(
    h,
    backend: RegressionBackend,
    features=None,
    metadata: dict | None = None,
    return_cashflows: bool = False,
):
    """Train a stopping policy on N exit-payoff paths (Longstaff-Schwartz style).

    h        -- (N, T+1) array of exit payoffs, nonnegative and finite
    backend  -- regression backend fitted once per epoch on in-the-money paths
    features -- optional (N, T+1) scalar features to regress on; defaults to h

    Walks t = T-1 .. 0. In-the-money paths are those with H_t > 0; when there
    are none the epoch's estimator is identically zero. The regression target
    for path n is its single future realized cashflow max_{s>t} CF_s, which is
    maintained as a per-row (stop time, stop value) pair rather than rescanned.
    After fitting, every path (in the money or not) with H_t > f_t(feature_t)
    is re-marked to stop at t. Returns the policy, plus the final cashflow
    matrix when return_cashflows is set.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[1] < 2:
        raise ValueError(f"h must be (N, T+1) with T >= 1, got shape {h.shape}")
    if not np.all(np.isfinite(h)) or np.any(h < 0):
        raise ValueError("exit payoffs must be finite and nonnegative")
    n_paths, t_plus_1 = h.shape
    horizon = t_plus_1 - 1
    if features is None:
        x = h
        feature_kind = "exit_payoff"
    else:
        x = np.asarray(features, dtype=float)
        if x.shape != h.shape:
            raise ValueError(f"features shape {x.shape} must match h shape {h.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        feature_kind = "custom"

    stop_time = np.full(n_paths, horizon, dtype=np.int64)
    stop_value = h[:, horizon].copy()
    regressors: list[Regressor] = [None] * horizon  # type: ignore[list-item]
    merged_duplicates = 0
    cap_hit = False

    for t in range(horizon - 1, -1, -1):
        itm = h[:, t] > 0.0
        if not itm.any():
            reg: Regressor = ZeroRegressor()
        else:
            try:
                reg = backend.fit(x[itm, t], stop_value[itm])
            except Exception as exc:
                raise RuntimeError(f"regression failed at epoch t={t}") from exc
            merged_duplicates += getattr(reg, "n_merged_duplicates", 0)
            cap_hit = cap_hit or getattr(reg, "subsampled", False)
        regressors[t] = reg
        exit_now = h[:, t] > reg.predict(x[:, t])
        stop_time[exit_now] = t
        stop_value[exit_now] = h[exit_now, t]

    meta = {
        "n_train": n_paths,
        "horizon": horizon,
        "backend": backend.to_dict(),
        "feature": feature_kind,
        "numerics": {
            "duplicates_merged": int(merged_duplicates),
            "support_cap_hit": bool(cap_hit),
            "nonpositive_exit_action": REJECT,
        },
    }
    if metadata:
        meta.update(metadata)
    policy = StoppingPolicy(horizon=horizon, regressors=regressors, metadata=meta)

    if not return_cashflows:
        return policy
    cf = np.zeros_like(h)
    cf[np.arange(n_paths), stop_time] = stop_value
    return policy, CashflowMatrix(cf)


def _myopic(horizon: int) -> StoppingPolicy:
    """The myopic baseline as a policy: every continuation estimate is zero,
    so it exits at the first positive payoff."""
    return StoppingPolicy(horizon, [ZeroRegressor()] * horizon)


def decide(
    policy: StoppingPolicy, h_prefix, pi_t: float, feature_prefix=None
) -> ExitDecision | None:
    """Online stopping test at the current epoch; None means keep browsing.

    h_prefix holds the exit payoffs observed so far (H_0..H_t); pi_t is the
    current purchase payoff, with H_t = max(pi_t, 0). An exit before the
    horizon happens exactly when H_t strictly beats the trained continuation
    estimate; at the horizon the exit is forced. The action is a purchase
    when pi_t > 0 and a walk-away otherwise.
    """
    h_prefix = np.asarray(h_prefix, dtype=float)
    t = len(h_prefix) - 1
    if t < 0 or t > policy.horizon:
        raise ValueError(f"prefix length {t + 1} outside 1..{policy.horizon + 1}")
    h_t = float(h_prefix[-1])
    if h_t != max(pi_t, 0.0):
        raise ValueError(f"H_t={h_t} inconsistent with pi_t={pi_t}")
    if t < policy.horizon:
        if feature_prefix is None:
            x_t = h_t
        else:
            if len(feature_prefix) != t + 1:
                raise ValueError("feature prefix must have the same length as h prefix")
            x_t = float(feature_prefix[-1])
        if not h_t > policy.regressors[t].predict(x_t):
            return None
    if pi_t > 0.0:
        return ExitDecision(time=t, action=PURCHASE, payoff=pi_t)
    return ExitDecision(time=t, action=REJECT, payoff=0.0)


def myopic_decide(h_prefix, pi_t: float, horizon: int) -> ExitDecision | None:
    """Greedy baseline: purchase at the first epoch with positive payoff."""
    return decide(_myopic(horizon), h_prefix, pi_t)


def apply_policy(policy: StoppingPolicy, h, features=None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized deployment over a path batch; returns (exit times, payoffs).

    Equivalent path-by-path to looping decide() over prefixes (asserted in
    the test suite); payoff is the exit payoff at the stop epoch.
    """
    h = np.asarray(h, dtype=float)
    x = h if features is None else np.asarray(features, dtype=float)
    n_paths, t_plus_1 = h.shape
    if t_plus_1 - 1 != policy.horizon:
        raise ValueError(
            f"policy horizon {policy.horizon} does not match paths ({t_plus_1 - 1})"
        )
    times = np.full(n_paths, policy.horizon, dtype=np.int64)
    payoffs = h[:, policy.horizon].copy()
    active = np.ones(n_paths, dtype=bool)
    for t in range(policy.horizon):
        if not active.any():
            break
        pred = policy.regressors[t].predict(x[:, t])
        exit_now = active & (h[:, t] > pred)
        times[exit_now] = t
        payoffs[exit_now] = h[exit_now, t]
        active &= ~exit_now
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
    def n_ties(self) -> int | None:
        if self.paired:
            return int((self.algorithmic.payoffs == self.myopic.payoffs).sum())
        return None


def _outcome(batch: PathBatch, times: np.ndarray, payoffs: np.ndarray) -> StrategyOutcome:
    rows = np.arange(batch.n_paths)
    return StrategyOutcome(
        times=times,
        payoffs=payoffs,
        prices_at_exit=batch.p[rows, times],
        valuations_at_exit=batch.v[rows, times],
        paths_sha256=hashlib.sha256(np.ascontiguousarray(batch.h).tobytes()).hexdigest(),
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
    alg = _outcome(batch, *apply_policy(policy, batch.h))
    myo_source = batch if myopic_batch is None else myopic_batch
    myo = _outcome(myo_source, *apply_myopic(myo_source.h))
    return EvaluationReport(algorithmic=alg, myopic=myo, paired=myopic_batch is None)
