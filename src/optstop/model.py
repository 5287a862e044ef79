"""Model parameters and the sample-path data model shared by all modules."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, asdict

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


def is_integer(value) -> bool:
    """An int or a numpy integer, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number (int, float or numpy scalar), but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def store_reals(obj, *names: str) -> None:
    """Reject a named field of a frozen dataclass that is not a real number,
    a bool included, or an int beyond the float range, naming it, before any
    comparison can raise a TypeError; store each as a float, so that a numpy
    scalar passes and still serializes as JSON."""
    for name in names:
        value = getattr(obj, name)
        if not is_real(value):
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            object.__setattr__(obj, name, float(value))
        except OverflowError:
            raise ValueError(f"{name} must be a finite number, got {value!r}") from None


def store_integers(obj, *names: str) -> None:
    """Reject a named field of a frozen dataclass that is not an integer, a
    bool included, naming it; store each as an int, so that a numpy integer
    passes and still serializes as JSON."""
    for name in names:
        value = getattr(obj, name)
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(obj, name, int(value))


def check_finite(name: str, value, ndim: int = 1) -> np.ndarray | float:
    """value as a non-empty float array of ndim dimensions with finite real
    entries; anything else (strings, bools, NaN, ragged nesting) raises a
    ValueError naming it. A finite Python float checked as a number is
    returned as it is."""
    if ndim == 0 and type(value) is float and math.isfinite(value):
        return value
    try:
        arr = np.asarray(value)
        ok = arr.dtype.kind in "iuf" and arr.ndim == ndim and arr.size > 0
    except ValueError:
        ok = False
    if not (ok and np.all(np.isfinite(arr))):
        shape = "a finite number" if ndim == 0 else f"a non-empty {ndim}-D array of finite numbers"
        raise ValueError(f"{name} must be {shape}")
    return np.asarray(arr, dtype=float)


def blend(dst: np.ndarray, src: np.ndarray, mask: np.ndarray, work: np.ndarray) -> None:
    """Set dst to src where the bool array mask is True, in place, with the
    bits of np.where(mask, src, dst): dst ^= (dst ^ src) * mask on int64
    views of the float64 arrays, work (a float64 array of dst's shape)
    holding the product. Unlike np.copyto(..., where=mask) and np.where, it
    has no branch, so a mask that flips at random costs no more than one of
    long runs."""
    d = dst.view(np.int64)
    w = np.bitwise_xor(d, src.view(np.int64), out=work.view(np.int64))
    np.multiply(w, mask, out=w)
    np.bitwise_xor(d, w, out=d)


def first_fault(ok, x) -> float:
    """The entry of x, broadcast to the shape of the mask ok, at ok's first
    False."""
    return float(np.broadcast_to(x, ok.shape)[np.unravel_index(np.argmin(ok), ok.shape)])


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


def check_types(d: dict, template: dict, what: str, required=()) -> None:
    """check_keys against template's keys, then reject a value of d whose
    JSON type differs from template's value at that key (an integer passes
    for a number), or a NaN or infinite number (which Python's json parses),
    naming the key."""
    check_keys(d, template, what, required)
    for key, value in d.items():
        want, got = json_type(template[key]), json_type(value)
        if got != want and (want, got) != ("number", "integer"):
            raise ValueError(f"{what} key {key!r} must be a JSON {want}, got {value!r}")
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
        store_integers(self, "horizon", "seed")
        store_reals(self, "gamma", "sigma_eps", "sigma_xi", "mu_prior", "sigma_v")
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
        # The simulator and the filter square each sigma on Python floats,
        # where ** raises an OverflowError that names no key; the payoff
        # squares gamma, where an infinite square makes a NaN exponent.
        for key in ("gamma", "sigma_eps", "sigma_xi", "sigma_v"):
            value = getattr(self, key)
            if not math.isfinite(value * value):
                raise ValueError(
                    f"{key} must be at most {math.sqrt(sys.float_info.max)!r} so that "
                    f"its square is finite, got {value!r}"
                )
        if not 0 <= self.seed < _U64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        check_types(d, cls().to_dict(), "model")
        return cls(**d)


def check_cells(ok: np.ndarray, fault: str, from_t1: bool = False) -> None:
    """Raise a ValueError naming the (path, t) of ok's first False; a 1-D ok
    is path 0's, and from_t1 numbers ok's columns from t = 1, as y's are."""
    ok = np.atleast_2d(ok)
    if not ok.all():
        i, t = np.unravel_index(np.argmin(ok), ok.shape)
        raise ValueError(f"row (path={i}, t={t + from_t1}) has {fault}")


@dataclass
class PathBatch:
    """A stack of sample paths plus the seller-belief trajectory.

    Row n of each 2-D array is path n. seller_var holds the posterior
    variance used for pricing at each epoch; it is observation-independent
    and therefore shared by every path. Construction checks the shapes, that
    every entry is finite and that h is max(pi, 0), and raises a ValueError
    naming the first fault, a cell by its (path, t); later edits are not checked.
    """

    v: np.ndarray            # (N, T+1)
    y: np.ndarray            # (N, T)
    p: np.ndarray            # (N, T+1)
    pi: np.ndarray           # (N, T+1)
    h: np.ndarray            # (N, T+1)
    seller_mean: np.ndarray  # (N, T+1)
    seller_var: np.ndarray   # (T+1,)

    def __post_init__(self):
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
            check_cells(np.isfinite(getattr(self, name)), f"a non-finite {name}", name == "y")
        check_cells(self.h == np.maximum(self.pi, 0.0), "an h other than max(pi, 0)")

    @property
    def n_paths(self) -> int:
        return self.v.shape[0]

    @property
    def horizon(self) -> int:
        return self.v.shape[1] - 1
