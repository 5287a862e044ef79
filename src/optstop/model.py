"""Model parameters and the sample-path data model shared by all modules."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

_U64 = 1 << 64
DEFAULT_SEED = 1


def check_keys(d: dict, allowed, what: str, required=()) -> None:
    """Reject a d that is not a dict, any key of d outside allowed, and any
    key of required missing from d, naming it; other missing keys are fine."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got a JSON {json_type(d)}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    missing = [key for key in required if key not in d]
    if missing:
        raise ValueError(f"{what} is missing required key {', '.join(map(repr, missing))}")


def check_integer(name: str, value) -> None:
    """Reject a value that is not an integer, a bool included, naming it;
    numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


# Checked in order, so a bool is never taken for a number.
_JSON_TYPES = (
    (bool, "boolean"), (int, "integer"), (float, "number"),
    (str, "string"), (list, "array"), (dict, "object"),
)


def json_type(value) -> str:
    """JSON type name of a decoded value."""
    if value is None:
        return "null"
    return next((name for cls, name in _JSON_TYPES if isinstance(value, cls)), type(value).__name__)


# Types a value may have besides its template's: an integer passes for a
# number, and a null template value stands for an optional number.
_ALSO_ACCEPTED = {"number": ("integer",), "null": ("integer", "number")}


def check_types(d: dict, template: dict, what: str, required=()) -> None:
    """check_keys against template's keys, then reject a value of d whose
    JSON type differs from template's value at that key, or a NaN or
    infinite number (which Python's json parses), naming the key."""
    check_keys(d, template, what, required)
    for key, value in d.items():
        want, got = json_type(template[key]), json_type(value)
        if got != want and got not in _ALSO_ACCEPTED.get(want, ()):
            expected = "number or null" if want == "null" else want
            raise ValueError(f"{what} key {key!r} must be a JSON {expected}, got {value!r}")
        if got == "number" and not math.isfinite(value):
            raise ValueError(f"{what} key {key!r} must be a finite number, got {value!r}")


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
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        check_integer("horizon", self.horizon)
        check_integer("seed", self.seed)
        # Written so that NaN fails every comparison.
        if not self.horizon >= 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0 <= self.sigma_eps < math.inf:
            raise ValueError(f"sigma_eps must be finite and >= 0, got {self.sigma_eps}")
        if not 0 <= self.sigma_xi < math.inf:
            raise ValueError(f"sigma_xi must be finite and >= 0, got {self.sigma_xi}")
        if not math.isfinite(self.mu_prior):
            raise ValueError(f"mu_prior must be finite, got {self.mu_prior}")
        if not 0 < self.sigma_v < math.inf:
            raise ValueError(f"sigma_v must be finite and > 0, got {self.sigma_v}")
        if not 0 <= self.seed < _U64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        check_types(d, cls().to_dict(), "model")
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
