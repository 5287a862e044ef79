"""Pluggable one-dimensional regressors for continuation-value estimation.

The reference backend is Gaussian-kernel ridge regression. In one dimension
k(x, y) = exp(-(x - y)^2 / (2 b^2)) = sum_n phi_n(x) phi_n(y) over the Taylor
features phi_n(x) = exp(-u^2 / 2) u^n / sqrt(n!), u = (x - c) / b, so the fit
over d training points is a ridge fit of the m feature coefficients the
series needs on the training interval, solved by a Householder QR that
updates one contiguous window of a flat working array per column step,
then a back substitution in Python floats. An exact tabular (group-mean)
backend sits behind the same interface. Both fits run in numpy's own loops
or in Python floats, never in BLAS or LAPACK. PolynomialRegressor is kept
only so that older policy files holding one still load; no backend fits one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .model import check_finite, check_keys, check_types, json_type, store_reals

DEFAULT_RIDGE = 1e-6
# Largest ridge. The QR's Householder vector of a column holding sqrt(ridge)
# has v.v >= 2 ridge, inf near 1e308; the bound keeps a margin of over 10^7.
MAX_RIDGE = 1e300
# Most Taylor terms a kernel fit may take: about 26.6 bandwidths of half-span.
MAX_TERMS = 2000
# The series is cut where its first dropped term t < 2^-106: a dropped t moves
# the fit by ~sqrt(t) times the coefficients (a cut at 2^-53 left 5e-9 errors).
_LOG_TAIL_TOL = math.log(2.0**-106)
BACKEND_KINDS = ("kernel", "tabular")


def _check_kernel(bandwidth, ridge) -> None:
    """Reject a Gaussian kernel bandwidth that is not finite and > 0, or a
    ridge strength outside [0, MAX_RIDGE]."""
    if not check_finite("bandwidth", bandwidth, ndim=0) > 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    if not 0 <= check_finite("ridge", ridge, ndim=0) <= MAX_RIDGE:
        raise ValueError(f"ridge must be >= 0 and <= {MAX_RIDGE:g}, got {ridge}")


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
    rho = float(span) / (2.0 * bandwidth)  # 0 or inf at an extreme bandwidth, no warning
    log_rho2 = 2.0 * math.log(rho) if rho > 0 else -math.inf  # rho = 0: one term
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
    np.exp(-0.5 * u * u, out=phi[0])
    # Row n >= 1 first holds u / sqrt(n), all in one call, then in place its
    # product with row n - 1: at the fits' sizes numpy's per-call cost, not
    # the arithmetic, is most of a row, so no row is allocated or copied.
    np.divide(u, np.sqrt(np.arange(1.0, m))[:, None], out=phi[1:])
    rows = list(phi)
    for prev, row in zip(rows, rows[1:]):
        np.multiply(prev, row, out=row)
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
        kind = d.get("kind")
        if "kind" in d and not isinstance(kind, str):
            raise ValueError(
                f"regressor key 'kind' must be a JSON string, got a JSON {json_type(kind)}"
            )
        cls = REGRESSOR_KINDS.get(kind)
        if cls is None:
            raise ValueError(f"unknown regressor kind {kind!r}")
        check_keys(d, ("kind", *cls.FIELDS), f"{cls.kind} regressor", required=cls.FIELDS)
        return cls(**{name: d[name] for name in cls.FIELDS})


class ZeroRegressor(Regressor):
    """Predicts 0 everywhere (the empty-training-set fallback)."""

    kind = "zero"

    def predict(self, x):
        if np.ndim(x) == 0:
            return 0.0
        return np.zeros(np.shape(x))


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
        """sum_n weights[n] phi_n(x) for a float or an array. The weighted rows
        are added in turn, n = 0..m-1, in numpy's own loop (not BLAS), so an
        input has the same bits whatever its batch and the BLAS thread count."""
        phi = _taylor_features(x, *self.xs, self.bandwidth, len(self.weights))
        phi *= self.weights[:, None]
        out = phi[0].copy()  # not a view, which would keep all of phi alive
        for row in phi[1:]:
            out += row
        return float(out[0]) if np.ndim(x) == 0 else out


class PolynomialRegressor(Regressor):
    """Polynomial with coefficients in ascending order, as stored by policy
    files of the retired polynomial backend; nothing fits one now."""

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

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        """The dense layout of an integer table: slot 1 + s holds the id
        xs[0] + s (exact at every entry) and its mean, the default mean where
        the id is not an entry; slot 0 holds no id (nan) and the default."""
        xs = self.xs
        slots = 1 + (xs - xs[0]).astype(np.intp)
        ids = np.append(np.nan, xs[0] + np.arange(slots[-1], dtype=float))
        means = np.full(len(ids), self.default)
        means[slots] = self.means
        return ids, means

    def predict(self, x):
        """The mean of the table entry equal to x, else the default.

        A table of integer ids (the lattice's node ids) whose span is at most
        the number of queries is laid out densely, once per regressor, one
        slot per integer of the span (see _slots). A query's slot is 1 +
        (x - xs[0]) clamped to 0..span (fmax sends nan to slot 0, so no nan
        is cast). It takes the slot's mean when the slot's id equals x, as
        in the search; any other query (a non-integer, including one whose
        difference rounds to an integer, a value outside the span, nan)
        reads slot 0, the default. The miss is an index product rather than
        a masked write, which would branch on every query. Every other
        table is binary-searched.
        """
        scalar = np.ndim(x) == 0
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        xs = self.xs
        if xs[-1] - xs[0] + 1 <= len(xa) and np.array_equal(xs, np.floor(xs)):
            ids, means = self._slots
            slot = np.fmin(np.fmax(xa - xs[0], -1.0), len(ids) - 2) + 1.0
            idx = slot.astype(np.intp)
            idx *= ids[idx] == xa
            out = means[idx]
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
    # reduction runs in numpy's own loops (einsum) or in Python floats, never
    # in BLAS, so the fit is the same under any BLAS thread count. The working
    # matrix is stored transposed, rows k < m the columns [phi_k; sqrt(lam) e_k]
    # and row m = [y; 0], in one flat array of row stride d + 1: row k's
    # column c sits at (k + 1)(d + 1) + c. Step j's live rows j..m over their
    # live columns j..d+j then form one contiguous block, and the dead row
    # j - 1 lies just above it. Past column d + j the live rows are still the
    # ridge block, so column d + j + 1 is only written after step j, over
    # column j of the rows below, which is R's row j and (Q^T y)_j.
    d = len(xs)
    root = math.sqrt(lam)
    flat = np.zeros((m + 2) * (d + 1) + m - 1)  # step j's block ends at entry (m + 2)(d + 1) + j
    start = flat[: (m + 2) * (d + 1)].reshape(m + 2, d + 1)
    start[1 : m + 1, :d] = _taylor_features(xs, xs[0], xs[-1], bandwidth, m)
    start[m + 1, :d] = ys
    start[1, d] = root
    rq = np.empty((m, m + 1))  # [R, Q^T y]; row j holds R's row j from column j on
    outer = np.empty((m, d + 1))
    for j in range(m):
        base = j * (d + 2)
        block = flat[base : base + (m + 2 - j) * (d + 1)].reshape(m + 2 - j, d + 1)
        v = block[0]  # the dead row j - 1
        v[:] = block[1]
        pivot = v.item(0)
        v[0] = v0 = pivot + math.copysign(math.sqrt(np.einsum("i,i", v, v)), pivot)
        w = np.einsum("ji,i->j", block, v)  # v.v, then every live row's dot
        w *= 2.0 / w.item(0)
        # Of the pivot row only R_jj is read again, so only it is reflected.
        rq[j, j] = pivot - w.item(1) * v0
        below = outer[: m - j]
        np.einsum("j,i->ji", w[2:], v, out=below)
        block[2:] -= below
        column = block[2:, 0]
        rq[j, j + 1 :] = column
        column[:] = 0.0
        if j + 1 < m:
            column[1] = root  # row j + 1's column d + j + 1
    # The dot adds k = j+1..m-1 in turn, as numpy's einsum does along a
    # strided column, in Python floats: a third of that einsum's call cost.
    rows = rq.tolist()
    coeffs = [0.0] * m
    for j in range(m - 1, -1, -1):
        row = rows[j]
        dot = 0.0
        for k in range(j + 1, m):
            dot += row[k] * coeffs[k]
        coeffs[j] = (row[m] - dot) / row[j]
    return KernelRegressor([xs[0], xs[-1]], coeffs, bandwidth, ridge)


def fit_tabular(xs, ys) -> TabularRegressor:
    xs, ys = _training_pairs(xs, ys)
    return TabularRegressor(*_group_means(xs, ys), float(ys.mean()))


@dataclass(frozen=True)
class RegressionBackend:
    """Which regression the stopping-policy trainer plugs in at every epoch:
    the kind (kernel or tabular) and the kernel's bandwidth and ridge. The
    fields are also the keys of the config's "backend" object."""

    kind: str = "kernel"
    bandwidth: float = 1.0
    ridge: float = DEFAULT_RIDGE

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        _check_kernel(self.bandwidth, self.ridge)
        store_reals(self, "bandwidth", "ridge")

    def fit(self, xs, ys) -> Regressor:
        if self.kind == "kernel":
            return fit_kernel(xs, ys, self.bandwidth, self.ridge)
        return fit_tabular(xs, ys)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionBackend":
        check_types(d, cls().to_dict(), "backend")
        return cls(**d)
