"""Pluggable one-dimensional regressors for continuation-value estimation.

The reference backend is Gaussian-kernel ridge regression. In one dimension
k(x, y) = exp(-(x - y)^2 / (2 b^2)) = sum_n phi_n(x) phi_n(y) over the Taylor
features phi_n(x) = exp(-u^2 / 2) u^n / sqrt(n!), u = (x - c) / b, so the fit
over d training points is a ridge fit of the m feature coefficients the
series needs on the training interval. A polynomial least-squares backend
and an exact tabular (group-mean) backend sit behind the same interface.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import check_finite, check_keys, check_types, json_type, store_integers, store_reals

DEFAULT_RIDGE = 1e-6
DEFAULT_POLY_DEGREE = 3
# Most Taylor terms a kernel fit may take: about 26.6 bandwidths of half-span.
MAX_TERMS = 2000
# The series is cut where its first dropped term t < 2^-106: a dropped t moves
# the fit by ~sqrt(t) times the coefficients (a cut at 2^-53 left 5e-9 errors).
_LOG_TAIL_TOL = math.log(2.0**-106)
BACKEND_KINDS = ("kernel", "poly", "tabular")


def _check_kernel(bandwidth, ridge) -> None:
    """Reject a Gaussian kernel bandwidth that is not finite and > 0, or a
    ridge strength that is not finite and >= 0."""
    if not check_finite("bandwidth", bandwidth, ndim=0) > 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    if check_finite("ridge", ridge, ndim=0) < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")


def gaussian_kernel(a, b, bandwidth: float) -> np.ndarray:
    """Kernel matrix k(a_i, b_j) for 1-D inputs: the kernel that the Taylor
    features expand."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = (a[:, None] - b[None, :]) / bandwidth
    return np.exp(-0.5 * diff * diff)


def kernel_terms(span: float, bandwidth: float) -> tuple[int, float]:
    """The number m of Taylor features for inputs spanning span, and the
    bound rho^(2m) / m! on the first dropped kernel term, rho = span / (2
    bandwidth); computed in log space, where rho^(2m) cannot overflow."""
    log_rho2 = 2.0 * math.log(span / (2.0 * bandwidth)) if span > 0 else -math.inf
    for m in range(1, MAX_TERMS + 1):
        log_tail = m * log_rho2 - math.lgamma(m + 1)
        if log_tail < _LOG_TAIL_TOL:
            return m, math.exp(log_tail)
    raise ValueError(f"bandwidth {bandwidth} is too small for the input span {span}: "
                     f"the kernel needs over {MAX_TERMS} Taylor terms; widen the bandwidth")


def _taylor_features(x, lo: float, hi: float, bandwidth: float, m: int) -> np.ndarray:
    """(m, N) array of phi_n(x_i), n < m, centred on [lo, hi]; each row is the
    last one times u / sqrt(n), so every entry stays in [-1, 1]. Beyond
    |u| = 1e3 every feature is 0; clipping x there keeps u and u^2 finite."""
    c, reach = lo + 0.5 * (hi - lo), 1e3 * bandwidth
    u = (np.clip(np.atleast_1d(x), c - reach, c + reach) - c) / bandwidth
    phi = np.empty((m, len(u)))
    phi[0] = np.exp(-0.5 * u * u)
    for n in range(1, m):
        phi[n] = phi[n - 1] * (u / math.sqrt(n))
    return phi


class Regressor:
    """Fitted one-dimensional regressor: predict(x) for a float or an array,
    plus a lossless dict round-trip. FIELDS names the constructor arguments,
    which are also the attributes to_dict writes and, beside "kind", its keys.
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
    """Gaussian-kernel fit sum_n weights[n] phi_n(x), its features centred on
    the training interval xs = [lo, hi]; kernel_terms fixes their number."""

    kind = "kernel"
    FIELDS = ("xs", "weights", "bandwidth", "ridge")

    def __init__(self, xs, weights, bandwidth: float, ridge: float):
        _check_kernel(bandwidth, ridge)
        self.xs = check_finite("xs", xs)
        self.weights = check_finite("weights", weights)
        if len(self.xs) != 2 or not self.xs[0] <= self.xs[1]:
            raise ValueError(f"xs must be the training interval [lo, hi], got {self.xs.tolist()}")
        n_terms, self.tail_bound = kernel_terms(self.xs[1] - self.xs[0], bandwidth)
        if len(self.weights) != n_terms:
            raise ValueError(
                f"{n_terms} terms on {self.xs.tolist()} but {len(self.weights)} weights"
            )
        self.bandwidth = bandwidth
        self.ridge = ridge

    def predict(self, x):
        """sum_n weights[n] phi_n(x) for a float or an array, with the same
        bits for an input whatever the batch it comes in."""
        scalar = np.ndim(x) == 0
        xa = np.atleast_1d(x)
        # Summed in numpy's own loop, not BLAS: the same under any thread count.
        # numpy adds the m weighted rows in order for two or more inputs but
        # sums a lone column pairwise, so a lone input is evaluated as two.
        phi = _taylor_features(np.repeat(xa, 2) if len(xa) == 1 else xa,
                               *self.xs, self.bandwidth, len(self.weights))
        out = (self.weights[:, None] * phi).sum(axis=0)[: len(xa)]
        return float(out[0]) if scalar else out


class PolynomialRegressor(Regressor):
    """Ordinary least-squares polynomial, coefficients in ascending order."""

    kind = "poly"
    FIELDS = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = check_finite("coeffs", coeffs)

    def predict(self, x):
        scalar = np.ndim(x) == 0
        out = np.polynomial.polynomial.polyval(np.atleast_1d(x), self.coeffs)
        return float(out[0]) if scalar else out


class TabularRegressor(Regressor):
    """Exact conditional mean per distinct feature value; a value never seen
    in training predicts the global training-target mean."""

    kind = "tabular"
    FIELDS = ("xs", "means", "default")

    def __init__(self, xs, means, default: float):
        self.xs = check_finite("xs", xs)
        self.means = check_finite("means", means)
        self.default = float(check_finite("default", default, ndim=0))
        if len(self.means) != len(self.xs):
            raise ValueError(f"{len(self.xs)} table entries but {len(self.means)} means")
        if not np.all(np.diff(self.xs) > 0):
            raise ValueError("table xs must be strictly increasing")

    def predict(self, x):
        """The mean of the table entry equal to x, else the default.

        A table of integer ids (the lattice's node ids) whose span is at most
        the number of queries is laid out densely, one slot per integer of
        the span, and each query reads the slot x - xs[0] (slot 0 if that is
        outside the span or nan). The slot's id must still equal x, as in the
        search: that also rejects a non-integer x whose difference rounds to
        an integer. Every other table is binary-searched.
        """
        scalar = np.ndim(x) == 0
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        xs = self.xs
        span = xs[-1] - xs[0] + 1
        if span <= len(xa) and np.array_equal(xs, np.floor(xs)):
            slots = (xs - xs[0]).astype(np.intp)
            ids = np.full(slots[-1] + 1, np.nan)
            ids[slots] = xs
            means = np.full(len(ids), self.default)
            means[slots] = self.means
            j = xa - xs[0]
            idx = np.where((j >= 0) & (j < len(ids)), j, 0).astype(np.intp)
            out = np.where(ids[idx] == xa, means[idx], self.default)
        else:
            idx = np.clip(np.searchsorted(xs, xa), 0, len(xs) - 1)
            out = np.where(xs[idx] == xa, self.means[idx], self.default)
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
    """Sorted distinct inputs and the mean target of each; the sorted order
    makes a fit on them bitwise invariant under permutation of the pairs.

    Integer inputs (the lattice's node ids) whose span is at most the number
    of pairs are binned by xs - min(xs) without a sort, unless a -0.0 is
    among them (np.unique's sort picks one of 0.0 and -0.0 to return); all
    others are grouped by np.unique. Either way np.bincount adds each target
    into its group in input order, so the sums have the same bits.
    """
    if np.array_equal(xs, np.floor(xs)):
        lo, hi = xs.min(), xs.max()
        if hi - lo < len(xs) and (lo > 0 or hi < 0 or not np.signbit(xs[xs == 0]).any()):
            bins = (xs - lo).astype(np.intp)
            counts = np.bincount(bins)
            sums = np.bincount(bins, weights=ys)
            present = np.flatnonzero(counts)
            return present + lo, sums[present] / counts[present]
    uniq, inverse, counts = np.unique(xs, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=ys, minlength=len(uniq))
    return uniq, sums / counts


def fit_kernel(xs, ys, bandwidth: float = 1.0, ridge: float = DEFAULT_RIDGE) -> KernelRegressor:
    """Coefficients c minimizing ||Phi c - y||^2 + ridge ||c||^2 over the
    features of the d distinct inputs (duplicates merged, targets averaged),
    i.e. the fit (K + ridge I) w = y with c = Phi^T w. The ridge is at least
    d 2^-52, the rounding level of trace(K) = d, so ridge = 0 gives the
    interpolant when d <= m and a finite least-squares fit when d > m."""
    _check_kernel(bandwidth, ridge)
    xs, ys = _group_means(*_training_pairs(xs, ys))
    m = kernel_terms(xs[-1] - xs[0], bandwidth)[0]
    lam = max(ridge, len(xs) * 2.0**-52)
    # Householder QR of [Phi, y; sqrt(lam) I, 0], then back substitution. Every
    # reduction runs in numpy's own loops (einsum), never in BLAS, so the fit
    # is the same under any BLAS thread count. The working array is stored
    # transposed, at = [Phi^T, sqrt(lam) I; y^T, 0], so each column is a
    # contiguous row.
    d = len(xs)
    at = np.zeros((m + 1, d + m))
    at[:m, :d] = _taylor_features(xs, xs[0], xs[-1], bandwidth, m)
    at[m, :d] = ys
    at[:m, d:] = math.sqrt(lam) * np.eye(m)
    for j in range(m):
        cols = slice(j, d + j + 1)  # past entry d + j, rows j.. are still zero (ridge block)
        v = at[j, cols].copy()
        v[0] += math.copysign(math.sqrt(np.einsum("i,i", v, v)), v[0])
        w = np.einsum("ji,i->j", at[j:, cols], v) * (2.0 / np.einsum("i,i", v, v))
        at[j:, cols] -= np.multiply.outer(w, v)
    coeffs = np.zeros(m)
    for j in range(m - 1, -1, -1):
        coeffs[j] = (at[m, j] - np.einsum("i,i", at[j + 1 : m, j], coeffs[j + 1 :])) / at[j, j]
    return KernelRegressor([xs[0], xs[-1]], coeffs, bandwidth, ridge)


def fit_polynomial(xs, ys, degree: int = DEFAULT_POLY_DEGREE) -> PolynomialRegressor:
    xs, ys = _training_pairs(xs, ys)
    # Keep the LS system well-posed when there are few distinct points.
    deg = min(degree, len(np.unique(xs)) - 1)
    return PolynomialRegressor(np.polynomial.polynomial.polyfit(xs, ys, deg))


def fit_tabular(xs, ys) -> TabularRegressor:
    xs, ys = _training_pairs(xs, ys)
    return TabularRegressor(*_group_means(xs, ys), float(ys.mean()))


@dataclass(frozen=True)
class RegressionBackend:
    """Which regression the stopping-policy trainer plugs in at every epoch:
    the kind, the kernel's bandwidth and ridge, and the polynomial degree.
    The fields are also the keys of the config's "backend" object."""

    kind: str = "kernel"
    bandwidth: float = 1.0
    ridge: float = DEFAULT_RIDGE
    degree: int = DEFAULT_POLY_DEGREE

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        _check_kernel(self.bandwidth, self.ridge)
        store_reals(self, "bandwidth", "ridge")
        store_integers(self, "degree")
        if not self.degree >= 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")

    def fit(self, xs, ys) -> Regressor:
        if self.kind == "kernel":
            return fit_kernel(xs, ys, self.bandwidth, self.ridge)
        if self.kind == "poly":
            return fit_polynomial(xs, ys, self.degree)
        return fit_tabular(xs, ys)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionBackend":
        check_types(d, cls().to_dict(), "backend")
        return cls(**d)
