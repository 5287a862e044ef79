"""In-memory span tracing of the optstop layers, driven from outside the package.

Each layer's public functions are wrapped at the attribute its caller looks
up (a module global such as `seller.myopic_price`, or a class attribute such
as `RegressionBackend.fit`), only for the duration of one traced operation.
A span is (name, start, end, parent); spans stay in memory and are written
once, when the benchmark ends. A layer's self time is the duration of its
spans minus the part covered by their child spans.

Some functions are only counted, not timed, because they are called millions
of times per operation (`rng.q_function`) or are too cheap for a span to mean
anything (`rng.RngStream` construction). Counts marked "computed" are derived
from array sizes at the call boundary, so they repeat exactly for equal
inputs.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.linalg

from optstop import cli, consumer, experiment, lsm, policy_io, regression, seller, snell

ROOT = "op"


class Tracer:
    """Span store plus the counters recorded at the same call boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def current(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[top]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        if not self.starts:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - covered
        out: dict[str, float] = defaultdict(float)
        for name, value in zip(self.names, own.tolist()):
            out[name] += value
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name in self.names:
            out[name] += 1
        return dict(out)

    def save(self, path) -> None:
        """Write every span as parallel arrays (names as indices into `names`)."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        np.savez_compressed(
            path,
            names=np.asarray(table),
            name=np.asarray([code[n] for n in self.names], dtype=np.int32),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            parent=np.asarray(self.parents, dtype=np.int64),
        )


def _timed(tracer: Tracer, name: str, fn, before=None, after=None, skip_under=None):
    """Wrap fn in a span; before(args, kwargs) and after(args, kwargs, result)
    record counts at the boundary. Calls made directly under a span named in
    skip_under are passed through untouched, so their time stays with it."""

    def wrapper(*args, **kwargs):
        if skip_under is not None and tracer.current() in skip_under:
            return fn(*args, **kwargs)
        if before is not None:
            before(args, kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _counted(tracer: Tracer, key: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _patch_table(tr: Tracer):
    """(owner, attribute, replacement) for every traced boundary."""
    c, mx = tr.counts, tr.maxima

    def paths_out(args, kwargs, batch):
        c["experiment.generate_paths.paths"] += batch.n_paths

    def rows_out(args, kwargs, batch):
        c["experiment.load_paths_csv.rows"] += batch.v.size

    def bytes_written(args, kwargs):
        files = _arg(args, kwargs, 1, "files")
        c["experiment.write_output_dir.bytes"] += sum(
            len(text.encode("utf-8")) for text in files.values()
        )

    def policy_bytes(args, kwargs, text):
        c["policy_io.bytes"] += len(text.encode("utf-8"))

    def fit_out(args, kwargs, reg):
        if isinstance(reg, regression.KernelRegressor):
            c["regression.support_points"] += len(reg.xs)
            mx["regression.max_abs_weight"] = max(
                mx["regression.max_abs_weight"], float(np.max(np.abs(reg.weights)))
            )

    def factor_flops(args, kwargs):
        d = np.shape(_arg(args, kwargs, 0, "a"))[0]
        c["regression.factor.flops"] += d**3 / 3.0

    def kernel_evals(args, kwargs):
        self, x = args[0], _arg(args, kwargs, 1, "x")
        c["regression.predict.kernel_evals"] += np.size(x) * len(self.xs)

    def nodes_out(args, kwargs, problem):
        c["snell.nodes"] += problem.n_nodes

    def gather_bytes(args, kwargs):
        # simulate_paths gathers one float64 row of cumulative transition
        # probabilities per path and epoch: n x n_{t+1} doubles.
        problem, n = _arg(args, kwargs, 0, "problem"), _arg(args, kwargs, 1, "n")
        c["snell.simulate_paths.bytes"] += 8 * n * sum(len(h) for h in problem.payoffs[1:])

    R = regression
    counted = [
        (experiment, "RngStream", "rng.RngStream.calls"),
        (snell, "RngStream", "rng.RngStream.calls"),
        (seller, "q_function", "rng.q_function.calls"),
    ]
    timed = [
        (experiment.RngStream, "standard_normal", "rng.standard_normal", {}),
        (consumer, "step_valuation", "consumer.step_valuation", {}),
        (consumer, "purchase_payoff", "consumer.purchase_payoff", {}),
        (seller, "kalman_predict", "seller.kalman", {}),
        (seller, "kalman_correct", "seller.kalman", {}),
        (seller, "myopic_price", "seller.myopic_price", {}),
        (experiment, "generate_paths", "experiment.generate_paths", {"after": paths_out}),
        (experiment, "load_paths_csv", "experiment.load_paths_csv", {"after": rows_out}),
        (experiment, "render_figures_data", "experiment.render", {}),
        (experiment, "render_summary", "experiment.render", {}),
        (experiment, "render_trace", "experiment.render", {}),
        (experiment, "write_output_dir", "experiment.write_output_dir", {"before": bytes_written}),
        (experiment, "policy_to_text", "policy_io.policy_to_text", {"after": policy_bytes}),
        (policy_io, "policy_to_text", "policy_io.policy_to_text", {"after": policy_bytes}),
        (lsm, "train", "lsm.train", {}),
        (lsm, "evaluate", "lsm.evaluate", {}),
        (R.RegressionBackend, "fit", "regression.fit", {"after": fit_out}),
        (R, "gaussian_kernel", "regression.gram", {"skip_under": {"regression.predict"}}),
        (scipy.linalg, "cho_factor", "regression.factor", {"before": factor_flops}),
        (scipy.linalg, "cho_solve", "regression.factor", {}),
        (R.KernelRegressor, "predict", "regression.predict", {"before": kernel_evals}),
        (R.TabularRegressor, "predict", "regression.predict", {}),
        (R.PolynomialRegressor, "predict", "regression.predict", {}),
        (R.ZeroRegressor, "predict", "regression.predict", {}),
        (snell, "discretize_consumer_problem", "snell.discretize", {"after": nodes_out}),
        (snell, "backward_induction", "snell.backward_induction", {}),
        (snell, "simulate_paths", "snell.simulate_paths", {"before": gather_bytes}),
        (cli, "main", "cli.main", {}),
    ]
    return [(owner, attr, _counted(tr, key, getattr(owner, attr))) for owner, attr, key in counted] + [
        (owner, attr, _timed(tr, name, getattr(owner, attr), **hooks))
        for owner, attr, name, hooks in timed
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install every wrapper for the duration of one operation, under a root span."""
    table = _patch_table(tracer)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in table]
    try:
        for owner, attr, wrapper in table:
            setattr(owner, attr, wrapper)
        with tracer.span(ROOT):
            yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
