"""Model parameters and the sample-path data model shared by all modules."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, asdict

import numpy as np

_U64 = 1 << 64


def check_keys(d: dict, allowed, what: str) -> None:
    """Reject any key of d outside allowed, naming it; missing keys are fine."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


@dataclass(frozen=True)
class ModelParams:
    """All scalar parameters of the purchase-timing model.

    horizon    -- number of decision epochs T; time indices run 0..T
    gamma      -- risk-aversion coefficient of the exponential utility (> 0)
    sigma_eps  -- std dev of the consumer's per-step valuation shocks
    sigma_xi   -- std dev of the seller's observation noise
    mu_prior   -- seller prior mean for the initial valuation
    sigma_v    -- seller prior std dev for the initial valuation (> 0)
    seed       -- 64-bit RNG seed
    """

    horizon: int = 25
    gamma: float = 1.0
    sigma_eps: float = 0.1
    sigma_xi: float = 1.0
    mu_prior: float = 1.0
    sigma_v: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.sigma_eps < 0:
            raise ValueError(f"sigma_eps must be >= 0, got {self.sigma_eps}")
        if self.sigma_xi < 0:
            raise ValueError(f"sigma_xi must be >= 0, got {self.sigma_xi}")
        if not self.sigma_v > 0:
            raise ValueError(f"sigma_v must be > 0, got {self.sigma_v}")
        if not 0 <= self.seed < _U64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        check_keys(d, [f.name for f in fields(cls)], "model")
        return cls(**d)


@dataclass
class PathBatch:
    """A stack of sample paths plus the seller-belief trajectory.

    Row n of each 2-D array is path n. seller_var holds the posterior
    variance used for pricing at each epoch; it is observation-independent
    and therefore shared by every path.
    """

    v: np.ndarray            # (N, T+1)
    y: np.ndarray            # (N, T)
    p: np.ndarray            # (N, T+1)
    pi: np.ndarray           # (N, T+1)
    h: np.ndarray            # (N, T+1)
    seller_mean: np.ndarray  # (N, T+1)
    seller_var: np.ndarray   # (T+1,)
    params: ModelParams | None = field(default=None)

    @property
    def n_paths(self) -> int:
        return self.v.shape[0]

    @property
    def horizon(self) -> int:
        return self.v.shape[1] - 1

    def validate(self) -> None:
        n, tp1 = self.v.shape
        t = tp1 - 1
        if self.y.shape != (n, t):
            raise ValueError(f"y has shape {self.y.shape}, expected {(n, t)}")
        for name in ("p", "pi", "h", "seller_mean"):
            arr = getattr(self, name)
            if arr.shape != (n, tp1):
                raise ValueError(f"{name} has shape {arr.shape}, expected {(n, tp1)}")
        if self.seller_var.shape != (tp1,):
            raise ValueError(
                f"seller_var has shape {self.seller_var.shape}, expected {(tp1,)}"
            )
        for name in ("v", "y", "p", "pi", "h", "seller_mean", "seller_var"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite entries in {name}")
        if not np.array_equal(self.h, np.maximum(self.pi, 0.0)):
            raise ValueError("h must equal max(pi, 0) elementwise")
