"""Pluggable one-dimensional regressors for continuation-value estimation.

The reference backend is kernel least squares with a Gaussian kernel
k(x, y) = exp(-(x - y)^2 / (2 sigma^2)): by the representer theorem the
empirical-risk minimizer lives in the span of the kernel sections at the
training points, so fitting reduces to the d x d linear system
(K + lambda I) w = y and the fitted function is f(x) = sum_j w_j k(x_j, x).

A polynomial least-squares backend and an exact tabular (group-mean) backend
sit behind the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import check_keys, check_types, json_type

DEFAULT_RIDGE = 1e-6
DEFAULT_POLY_DEGREE = 3
# Largest kernel support: bounds the d x d solve; above it a fixed-key
# uniform subsample is fitted.
SUPPORT_CAP = 2000
BACKEND_KINDS = ("kernel", "poly", "tabular")


class SingularGramError(np.linalg.LinAlgError):
    """Raised when an unregularized kernel system is numerically singular."""


def _finite(name: str, value, ndim: int = 1) -> np.ndarray:
    """value as a non-empty float array of ndim dimensions with finite real
    entries; anything else (strings, bools, NaN, ragged nesting) raises a
    ValueError naming it."""
    try:
        arr = np.asarray(value)
        ok = arr.dtype.kind in "iuf" and arr.ndim == ndim and arr.size > 0
    except ValueError:
        ok = False
    if not (ok and np.all(np.isfinite(arr))):
        shape = "a finite number" if ndim == 0 else "a non-empty 1-D array of finite numbers"
        raise ValueError(f"{name} must be {shape}")
    return np.asarray(arr, dtype=float)


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel bandwidth and ridge regularization strength."""

    bandwidth: float = 1.0
    ridge: float = DEFAULT_RIDGE

    def __post_init__(self):
        if not _finite("bandwidth", self.bandwidth, ndim=0) > 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if _finite("ridge", self.ridge, ndim=0) < 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")


def gaussian_kernel(a, b, bandwidth: float) -> np.ndarray:
    """Kernel matrix k(a_i, b_j) for 1-D inputs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = (a[:, None] - b[None, :]) / bandwidth
    return np.exp(-0.5 * diff * diff)


class Regressor:
    """Fitted one-dimensional regressor: predict(x) for a float or an array,
    plus a lossless dict round-trip.

    FIELDS names the constructor arguments; they are also the attributes
    to_dict writes and, beside "kind", the keys of the dict.
    """

    kind = "base"
    FIELDS: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name in self.FIELDS:
            value = getattr(self, name)
            d[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return d

    @staticmethod
    def from_dict(d: dict) -> "Regressor":
        """Inverse of to_dict; an unknown kind, unknown key or missing key raises
        a ValueError naming it, and the constructor checks the values."""
        if not isinstance(d, dict):
            raise ValueError(f"regressor must be a JSON object, got a JSON {json_type(d)}")
        cls = REGRESSOR_KINDS.get(d.get("kind"))
        if cls is None:
            raise ValueError(f"unknown regressor kind {d.get('kind')!r}")
        check_keys(d, ("kind", *cls.FIELDS), f"{cls.kind} regressor", required=cls.FIELDS)
        return cls(**{name: d[name] for name in cls.FIELDS})


class ZeroRegressor(Regressor):
    """Predicts 0 everywhere (the empty-training-set fallback)."""

    kind = "zero"

    def predict(self, x):
        if np.ndim(x) == 0:
            return 0.0
        return np.zeros(np.shape(x))

    def __eq__(self, other):
        return isinstance(other, ZeroRegressor)


class KernelRegressor(Regressor):
    """Gaussian-kernel expansion sum_j w_j k(x_j, x)."""

    kind = "kernel"
    FIELDS = ("xs", "weights", "bandwidth", "ridge")

    def __init__(self, xs, weights, bandwidth: float, ridge: float):
        KernelSpec(bandwidth, ridge)  # checks both
        self.xs = _finite("xs", xs)
        self.weights = _finite("weights", weights)
        if len(self.weights) != len(self.xs):
            raise ValueError(f"{len(self.xs)} support points but {len(self.weights)} weights")
        self.bandwidth = bandwidth
        self.ridge = ridge
        # Fit diagnostics, not part of the serialized state.
        self.n_merged_duplicates = 0
        self.subsampled = False

    def predict(self, x):
        scalar = np.ndim(x) == 0
        k = gaussian_kernel(np.atleast_1d(x), self.xs, self.bandwidth)
        out = k @ self.weights
        return float(out[0]) if scalar else out


class PolynomialRegressor(Regressor):
    """Ordinary least-squares polynomial, coefficients in ascending order."""

    kind = "poly"
    FIELDS = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _finite("coeffs", coeffs)

    def predict(self, x):
        scalar = np.ndim(x) == 0
        out = np.polynomial.polynomial.polyval(np.atleast_1d(x), self.coeffs)
        return float(out[0]) if scalar else out


class TabularRegressor(Regressor):
    """Exact conditional mean per distinct feature value.

    Prediction at a value never seen in training falls back to the global
    training-target mean.
    """

    kind = "tabular"
    FIELDS = ("xs", "means", "default")

    def __init__(self, xs, means, default: float):
        self.xs = _finite("xs", xs)
        self.means = _finite("means", means)
        self.default = float(_finite("default", default, ndim=0))
        if len(self.means) != len(self.xs):
            raise ValueError(f"{len(self.xs)} table entries but {len(self.means)} means")
        if not np.all(np.diff(self.xs) > 0):
            raise ValueError("table xs must be strictly increasing")

    def predict(self, x):
        scalar = np.ndim(x) == 0
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.searchsorted(self.xs, xa)
        idx = np.clip(idx, 0, len(self.xs) - 1)
        hit = self.xs[idx] == xa
        out = np.where(hit, self.means[idx], self.default)
        return float(out[0]) if scalar else out


REGRESSOR_KINDS = {
    cls.kind: cls for cls in (ZeroRegressor, KernelRegressor, PolynomialRegressor, TabularRegressor)
}


def _training_pairs(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """The training inputs and targets as equal-length, non-empty, finite
    1-D float arrays."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if len(xs) != len(ys) or len(xs) < 1:
        raise ValueError("xs and ys must be equal-length and non-empty")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("training data must be finite")
    return xs, ys


def _group_means(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct inputs and the mean target of each.

    The sorted order makes a fit on them bitwise invariant under
    permutation of the training pairs.
    """
    uniq, inverse, counts = np.unique(xs, return_inverse=True, return_counts=True)
    sums = np.zeros(len(uniq))
    np.add.at(sums, inverse, ys)
    return uniq, sums / counts


def fit_kernel(xs, ys, spec: KernelSpec = KernelSpec()) -> KernelRegressor:
    """Solve (K + ridge*I) w = y over the (deduplicated, possibly capped) inputs.

    Exactly duplicated x values are merged with averaged targets before the
    solve (they make K singular without changing the least-squares
    objective). If more than SUPPORT_CAP points remain, a uniform subsample
    drawn on a fixed key is used. With ridge = 0 a numerically singular
    system raises SingularGramError.
    """
    xs, ys = _training_pairs(xs, ys)
    n_points = len(xs)
    xs, ys = _group_means(xs, ys)
    n_merged = n_points - len(xs)

    subsampled = False
    if len(xs) > SUPPORT_CAP:
        gen = np.random.Generator(
            np.random.Philox(key=np.array([0, len(xs)], dtype=np.uint64))
        )
        idx = gen.choice(len(xs), size=SUPPORT_CAP, replace=False)
        idx.sort()
        xs, ys = xs[idx], ys[idx]
        subsampled = True

    k = gaussian_kernel(xs, xs, spec.bandwidth)
    if spec.ridge > 0:
        k = k + spec.ridge * np.eye(len(xs))
    try:
        cho = scipy.linalg.cho_factor(k, lower=True)
        w = scipy.linalg.cho_solve(cho, ys)
    except np.linalg.LinAlgError as exc:
        raise SingularGramError(
            f"kernel system of size {len(xs)} is numerically singular "
            f"(ridge={spec.ridge}); add regularization"
        ) from exc
    if not np.all(np.isfinite(w)):
        raise SingularGramError("kernel solve produced non-finite weights")

    model = KernelRegressor(xs, w, spec.bandwidth, spec.ridge)
    model.n_merged_duplicates = n_merged
    model.subsampled = subsampled
    return model


def fit_polynomial(xs, ys, degree: int = DEFAULT_POLY_DEGREE) -> PolynomialRegressor:
    xs, ys = _training_pairs(xs, ys)
    # Keep the LS system well-posed when there are few distinct points.
    deg = min(degree, len(np.unique(xs)) - 1)
    coeffs = np.polynomial.polynomial.polyfit(xs, ys, deg)
    return PolynomialRegressor(coeffs)


def fit_tabular(xs, ys) -> TabularRegressor:
    xs, ys = _training_pairs(xs, ys)
    return TabularRegressor(*_group_means(xs, ys), float(ys.mean()))


@dataclass(frozen=True)
class RegressionBackend:
    """Which regression the stopping-policy trainer plugs in at every epoch."""

    kind: str = "kernel"
    kernel: KernelSpec = KernelSpec()
    degree: int = DEFAULT_POLY_DEGREE

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")

    def fit(self, xs, ys) -> Regressor:
        if self.kind == "kernel":
            return fit_kernel(xs, ys, self.kernel)
        if self.kind == "poly":
            return fit_polynomial(xs, ys, self.degree)
        return fit_tabular(xs, ys)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bandwidth": self.kernel.bandwidth,
            "ridge": self.kernel.ridge,
            "degree": self.degree,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionBackend":
        check_types(d, cls().to_dict(), "backend")
        spec = {k: d[k] for k in ("bandwidth", "ridge") if k in d}
        rest = {k: d[k] for k in ("kind", "degree") if k in d}
        return cls(kernel=KernelSpec(**spec), **rest)
