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

from .model import check_keys

DEFAULT_RIDGE = 1e-6
DEFAULT_POLY_DEGREE = 3
# Largest kernel support: bounds the d x d solve; above it a fixed-key
# uniform subsample is fitted.
SUPPORT_CAP = 2000
BACKEND_KINDS = ("kernel", "poly", "tabular")


class SingularGramError(np.linalg.LinAlgError):
    """Raised when an unregularized kernel system is numerically singular."""


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel bandwidth and ridge regularization strength."""

    bandwidth: float = 1.0
    ridge: float = DEFAULT_RIDGE

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")


def gaussian_kernel(a, b, bandwidth: float) -> np.ndarray:
    """Kernel matrix k(a_i, b_j) for 1-D inputs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = (a[:, None] - b[None, :]) / bandwidth
    return np.exp(-0.5 * diff * diff)


class Regressor:
    """Fitted one-dimensional regressor: predict() plus lossless dict round-trip."""

    kind = "base"

    def predict(self, x):
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_dict(d: dict) -> "Regressor":
        kinds = {
            "zero": ZeroRegressor,
            "kernel": KernelRegressor,
            "poly": PolynomialRegressor,
            "tabular": TabularRegressor,
        }
        try:
            cls = kinds[d["kind"]]
        except KeyError as exc:
            raise ValueError(f"unknown regressor kind {d.get('kind')!r}") from exc
        return cls._from_dict(d)


class ZeroRegressor(Regressor):
    """Predicts 0 everywhere (the empty-training-set fallback)."""

    kind = "zero"

    def predict(self, x):
        if np.ndim(x) == 0:
            return 0.0
        return np.zeros(np.shape(x))

    def to_dict(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def _from_dict(cls, d: dict) -> "ZeroRegressor":
        return cls()

    def __eq__(self, other):
        return isinstance(other, ZeroRegressor)


class KernelRegressor(Regressor):
    """Gaussian-kernel expansion sum_j w_j k(x_j, x)."""

    kind = "kernel"

    def __init__(self, xs: np.ndarray, weights: np.ndarray, spec: KernelSpec):
        self.xs = np.asarray(xs, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.spec = spec
        if self.xs.shape != self.weights.shape or self.xs.ndim != 1 or len(self.xs) < 1:
            raise ValueError("support points and weights must be equal-length 1-D arrays")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite kernel weights")
        # Fit diagnostics, not part of the serialized state.
        self.n_merged_duplicates = 0
        self.subsampled = False

    def predict(self, x):
        scalar = np.ndim(x) == 0
        k = gaussian_kernel(np.atleast_1d(x), self.xs, self.spec.bandwidth)
        out = k @ self.weights
        return float(out[0]) if scalar else out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bandwidth": self.spec.bandwidth,
            "ridge": self.spec.ridge,
            "xs": self.xs.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def _from_dict(cls, d: dict) -> "KernelRegressor":
        return cls(
            xs=np.asarray(d["xs"], dtype=float),
            weights=np.asarray(d["weights"], dtype=float),
            spec=KernelSpec(bandwidth=d["bandwidth"], ridge=d["ridge"]),
        )


class PolynomialRegressor(Regressor):
    """Ordinary least-squares polynomial, coefficients in ascending order."""

    kind = "poly"

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=float)

    def predict(self, x):
        scalar = np.ndim(x) == 0
        out = np.polynomial.polynomial.polyval(np.atleast_1d(x), self.coeffs)
        return float(out[0]) if scalar else out

    def to_dict(self) -> dict:
        return {"kind": self.kind, "coeffs": self.coeffs.tolist()}

    @classmethod
    def _from_dict(cls, d: dict) -> "PolynomialRegressor":
        return cls(np.asarray(d["coeffs"], dtype=float))


class TabularRegressor(Regressor):
    """Exact conditional mean per distinct feature value.

    Prediction at a value never seen in training falls back to the global
    training-target mean.
    """

    kind = "tabular"

    def __init__(self, xs: np.ndarray, means: np.ndarray, default: float):
        self.xs = np.asarray(xs, dtype=float)        # sorted unique
        self.means = np.asarray(means, dtype=float)
        self.default = float(default)

    def predict(self, x):
        scalar = np.ndim(x) == 0
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.searchsorted(self.xs, xa)
        idx = np.clip(idx, 0, len(self.xs) - 1)
        hit = self.xs[idx] == xa
        out = np.where(hit, self.means[idx], self.default)
        return float(out[0]) if scalar else out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "xs": self.xs.tolist(),
            "means": self.means.tolist(),
            "default": self.default,
        }

    @classmethod
    def _from_dict(cls, d: dict) -> "TabularRegressor":
        return cls(
            np.asarray(d["xs"], dtype=float),
            np.asarray(d["means"], dtype=float),
            d["default"],
        )


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
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if len(xs) != len(ys) or len(xs) < 1:
        raise ValueError("xs and ys must be equal-length and non-empty")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("training data must be finite")

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

    model = KernelRegressor(xs, w, spec)
    model.n_merged_duplicates = n_merged
    model.subsampled = subsampled
    return model


def fit_polynomial(xs, ys, degree: int = DEFAULT_POLY_DEGREE) -> PolynomialRegressor:
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if len(xs) != len(ys) or len(xs) < 1:
        raise ValueError("xs and ys must be equal-length and non-empty")
    # Keep the LS system well-posed when there are few distinct points.
    deg = min(degree, len(np.unique(xs)) - 1)
    coeffs = np.polynomial.polynomial.polyfit(xs, ys, deg)
    return PolynomialRegressor(coeffs)


def fit_tabular(xs, ys) -> TabularRegressor:
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if len(xs) != len(ys) or len(xs) < 1:
        raise ValueError("xs and ys must be equal-length and non-empty")
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
        check_keys(d, ("kind", "bandwidth", "ridge", "degree"), "backend")
        spec = {k: d[k] for k in ("bandwidth", "ridge") if k in d}
        rest = {k: d[k] for k in ("kind", "degree") if k in d}
        return cls(kernel=KernelSpec(**spec), **rest)
