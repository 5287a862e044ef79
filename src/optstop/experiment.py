"""End-to-end experiment orchestration: path generation, training, paired
evaluation, and emission of all result tables as machine-readable CSV.

Every output file starts with a `# config ...` echo line holding the full
canonical configuration, so any file suffices to rerun its experiment
exactly. Runs are deterministic: equal configs produce byte-identical
outputs. Training, test, and independent-myopic path sets live on disjoint
RNG sub-streams.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import consumer, lsm, seller
from .model import ModelParams, PathBatch
from .policy_io import policy_to_text
from .regression import RegressionBackend
from .rng import RngStream

# RNG domains keep path sets on disjoint sub-streams.
DOMAIN_TRAIN = 0
DOMAIN_TEST = 1
DOMAIN_MYOPIC_TEST = 2

DEFAULT_SEED = 1


@dataclass(frozen=True)
class BinConfig:
    """Fixed histogram bin edges so output tables are diffable."""

    payoff_lo: float = -0.5
    payoff_hi: float = 1.0
    payoff_width: float = 0.05
    price_lo: float = 0.0
    price_hi: float = 3.0
    price_width: float = 0.05

    def payoff_edges(self) -> np.ndarray:
        return _edges(self.payoff_lo, self.payoff_hi, self.payoff_width)

    def price_edges(self) -> np.ndarray:
        return _edges(self.price_lo, self.price_hi, self.price_width)

    def to_dict(self) -> dict:
        return {
            "payoff_lo": self.payoff_lo,
            "payoff_hi": self.payoff_hi,
            "payoff_width": self.payoff_width,
            "price_lo": self.price_lo,
            "price_hi": self.price_hi,
            "price_width": self.price_width,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BinConfig":
        return cls(**d)


def _edges(lo: float, hi: float, width: float) -> np.ndarray:
    n = int(round((hi - lo) / width))
    return np.linspace(lo, hi, n + 1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full run needs; the defaults reproduce the reference setup
    (T=25, gamma=1, sigma_eps=0.1, sigma_xi=1, prior N(1,1), 500 training and
    1000 paired test paths, Gaussian kernel with bandwidth 1)."""

    params: ModelParams = field(default_factory=lambda: ModelParams(seed=DEFAULT_SEED))
    n_train: int = 500
    n_test: int = 1000
    backend: RegressionBackend = field(default_factory=RegressionBackend)
    paired: bool = True
    trace_trials: tuple[int, ...] = ()
    fixed_v0: float | None = None
    bins: BinConfig = field(default_factory=BinConfig)

    def __post_init__(self):
        if self.n_train < 1:
            raise ValueError(f"n_train must be >= 1, got {self.n_train}")
        if self.n_test < 1:
            raise ValueError(f"n_test must be >= 1, got {self.n_test}")
        for i in self.trace_trials:
            if not 0 <= i < self.n_test:
                raise ValueError(f"trace trial {i} outside 0..{self.n_test - 1}")

    def to_dict(self) -> dict:
        return {
            "model": self.params.to_dict(),
            "n_train": self.n_train,
            "n_test": self.n_test,
            "backend": self.backend.to_dict(),
            "paired": self.paired,
            "trace_trials": list(self.trace_trials),
            "fixed_v0": self.fixed_v0,
            "bins": self.bins.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        kwargs: dict = {}
        if "model" in d:
            kwargs["params"] = ModelParams.from_dict(d["model"])
        for key in ("n_train", "n_test", "paired", "fixed_v0"):
            if key in d:
                kwargs[key] = d[key]
        if "backend" in d:
            kwargs["backend"] = RegressionBackend.from_dict(d["backend"])
        if "trace_trials" in d:
            kwargs["trace_trials"] = tuple(d["trace_trials"])
        if "bins" in d:
            kwargs["bins"] = BinConfig.from_dict(d["bins"])
        return cls(**kwargs)

    def echo(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


class _DrawColumns:
    """Stream stand-in for a batch: each draw returns the next column of a
    pre-drawn (N, k) matrix, i.e. one variate for every path at once."""

    def __init__(self, z: np.ndarray):
        self._columns = iter(z.T)

    def standard_normal(self) -> np.ndarray:
        return next(self._columns)


def generate_paths(
    params: ModelParams, n: int, domain: int = DOMAIN_TRAIN, fixed_v0: float | None = None
) -> PathBatch:
    """Simulate n sample paths of the full consumer/seller interaction.

    Path i draws all of its normals in one call on its own (seed, i, domain)
    stream, in the order of the scalar API: the initial valuation (unless
    pinned via fixed_v0), then per epoch the valuation shock and the
    seller's observation noise. The epochs then run for all paths at once
    through the same consumer and seller functions as a single path: the
    valuation walk steps, the seller observes, filters, and prices, and the
    payoffs close the epoch.
    """
    T = params.horizon
    k = 2 * T + (fixed_v0 is None)
    z = np.empty((n, k))
    for i in range(n):
        z[i] = RngStream(params.seed, path_index=i, domain=domain).standard_normal(k)
    draws = _DrawColumns(z)
    if fixed_v0 is None:
        v0 = params.mu_prior + params.sigma_v * draws.standard_normal()
    else:
        v0 = np.full(n, float(fixed_v0))

    v = np.empty((n, T + 1))
    y = np.empty((n, T))
    p = np.empty((n, T + 1))
    pi = np.empty((n, T + 1))
    seller_mean = np.empty((n, T + 1))
    seller_var = np.empty(T + 1)
    state = consumer.initial_state(v0, params)
    belief = seller.GaussianBelief(np.full(n, float(params.mu_prior)), params.sigma_v**2)
    for t in range(T + 1):
        if t > 0:
            state = consumer.step_valuation(state, draws, params)
        price, belief, obs = seller.seller_step(belief, state.v, t, draws, params)
        if obs is not None:
            y[:, t - 1] = obs
        v[:, t] = state.v
        p[:, t] = price
        seller_mean[:, t] = belief.mean
        seller_var[t] = belief.var
        pi[:, t] = consumer.purchase_payoff(state, price, params)

    batch = PathBatch(
        v=v, y=y, p=p, pi=pi, h=consumer.exit_payoff(pi),
        seller_mean=seller_mean, seller_var=seller_var, params=params,
    )
    batch.validate()
    return batch


def train_policy(config: ExperimentConfig) -> tuple[lsm.StoppingPolicy, PathBatch]:
    batch = generate_paths(
        config.params, config.n_train, DOMAIN_TRAIN, fixed_v0=config.fixed_v0
    )
    policy = lsm.train(
        batch.h,
        config.backend,
        metadata={"seed": config.params.seed, "train_domain": DOMAIN_TRAIN},
    )
    return policy, batch


def evaluate_policy(
    config: ExperimentConfig, policy: lsm.StoppingPolicy
) -> tuple[lsm.EvaluationReport, PathBatch, PathBatch | None]:
    test_batch = generate_paths(
        config.params, config.n_test, DOMAIN_TEST, fixed_v0=config.fixed_v0
    )
    myo_batch = None
    if not config.paired:
        myo_batch = generate_paths(
            config.params, config.n_test, DOMAIN_MYOPIC_TEST, fixed_v0=config.fixed_v0
        )
    report = lsm.evaluate(policy, test_batch, myopic_batch=myo_batch)
    report.meta["config"] = config.to_dict()
    report.meta["test_paths_checksum_algorithmic"] = _batch_checksum(test_batch)
    report.meta["test_paths_checksum_myopic"] = _batch_checksum(
        test_batch if myo_batch is None else myo_batch
    )
    return report, test_batch, myo_batch


def run_experiment(
    config: ExperimentConfig, outdir=None
) -> lsm.EvaluationReport:
    """Full pipeline: train, evaluate, and (optionally) write all artifacts.

    Output emission is atomic: files are staged in a temporary sibling
    directory and renamed into place, so a failed run leaves no partial
    output directory behind.
    """
    policy, _ = train_policy(config)
    report, test_batch, myo_batch = evaluate_policy(config, policy)
    if outdir is not None:
        files = {"policy.txt": policy_to_text(policy)}
        files["config.json"] = json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n"
        files.update(render_figures_data(report, test_batch, config, myo_batch=myo_batch))
        files["summary.csv"] = render_summary(report, config)
        for i in config.trace_trials:
            files[f"trace_{i}.csv"] = render_trace(test_batch, i, config)
        write_output_dir(outdir, files)
    return report


# ---------------------------------------------------------------------------
# Output rendering. All tables are comma-separated with a header row; floats
# use shortest round-trip repr; the first line echoes the full config.


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _table(config: ExperimentConfig, header: list[str], rows) -> str:
    lines = [f"# config {config.echo()}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _batch_checksum(batch: PathBatch) -> str:
    return hashlib.sha256(np.ascontiguousarray(batch.h).tobytes()).hexdigest()


def _exit_columns(batch: PathBatch, outcome: lsm.StrategyOutcome, params: ModelParams):
    rows = np.arange(batch.n_paths)
    t = outcome.times
    v_mean = batch.v[rows, t]
    v_std = np.sqrt((params.horizon - t) * params.sigma_eps**2)
    return v_mean, v_std


def render_figures_data(
    report: lsm.EvaluationReport,
    batch: PathBatch,
    config: ExperimentConfig,
    myo_batch: PathBatch | None = None,
) -> dict[str, str]:
    """Render the per-trial exit table, both histograms, and the difference
    table (paired runs only) as named CSV strings."""
    params = config.params
    alg, myo = report.algorithmic, report.myopic
    myo_source = batch if myo_batch is None else myo_batch

    alg_v, alg_std = _exit_columns(batch, alg, params)
    myo_v, myo_std = _exit_columns(myo_source, myo, params)
    exit_rows = [
        (
            n,
            alg.times[n], alg_v[n], alg_std[n], alg.prices_at_exit[n],
            alg.purchased[n], alg.payoffs[n],
            myo.times[n], myo_v[n], myo_std[n], myo.prices_at_exit[n],
            myo.purchased[n], myo.payoffs[n],
        )
        for n in range(report.n_trials)
    ]
    files = {
        "exit_summary.csv": _table(
            config,
            [
                "trial",
                "alg_exit_time", "alg_valuation_mean", "alg_valuation_std",
                "alg_price", "alg_purchased", "alg_payoff",
                "myo_exit_time", "myo_valuation_mean", "myo_valuation_std",
                "myo_price", "myo_purchased", "myo_payoff",
            ],
            exit_rows,
        )
    }

    payoff_edges = config.bins.payoff_edges()
    alg_counts, _ = np.histogram(alg.payoffs, bins=payoff_edges)
    myo_counts, _ = np.histogram(myo.payoffs, bins=payoff_edges)
    files["payoff_hist.csv"] = _table(
        config,
        ["bin_left", "bin_right", "algorithmic", "myopic"],
        [
            (payoff_edges[i], payoff_edges[i + 1], alg_counts[i], myo_counts[i])
            for i in range(len(alg_counts))
        ],
    )

    price_edges = config.bins.price_edges()
    alg_prices, _ = np.histogram(alg.prices_paid, bins=price_edges)
    myo_prices, _ = np.histogram(myo.prices_paid, bins=price_edges)
    files["price_hist.csv"] = _table(
        config,
        ["bin_left", "bin_right", "algorithmic", "myopic"],
        [
            (price_edges[i], price_edges[i + 1], alg_prices[i], myo_prices[i])
            for i in range(len(alg_prices))
        ],
    )

    if report.paired:
        files["payoff_diff.csv"] = _table(
            config,
            ["trial", "algorithmic", "myopic", "difference"],
            [
                (n, alg.payoffs[n], myo.payoffs[n], report.differences[n])
                for n in range(report.n_trials)
            ],
        )
    return files


def render_summary(report: lsm.EvaluationReport, config: ExperimentConfig) -> str:
    rows = [
        ("n_trials", report.n_trials),
        ("paired", report.paired),
        ("mean_algorithmic", report.mean_algorithmic),
        ("mean_myopic", report.mean_myopic),
        ("mean_difference", report.mean_difference),
        ("algorithmic_purchases", report.algorithmic.n_purchases),
        ("myopic_purchases", report.myopic.n_purchases),
        ("equal_payoff_trials", "" if report.n_ties is None else report.n_ties),
        ("test_paths_checksum_algorithmic", report.meta["test_paths_checksum_algorithmic"]),
        ("test_paths_checksum_myopic", report.meta["test_paths_checksum_myopic"]),
    ]
    return _table(config, ["key", "value"], rows)


def render_trace(batch: PathBatch, trial: int, config: ExperimentConfig) -> str:
    """Single-path diagnostic table: one row per epoch with both agents' views."""
    params = batch.params if batch.params is not None else config.params
    rows = []
    for t in range(batch.horizon + 1):
        rows.append(
            (
                t,
                batch.v[trial, t],
                math.sqrt((params.horizon - t) * params.sigma_eps**2),
                "" if t == 0 else _fmt(batch.y[trial, t - 1]),
                batch.p[trial, t],
                batch.pi[trial, t],
                batch.h[trial, t],
                batch.seller_mean[trial, t],
                math.sqrt(batch.seller_var[t]),
            )
        )
    return _table(
        config,
        [
            "t", "valuation_mean", "valuation_std", "observation",
            "price", "purchase_payoff", "exit_payoff",
            "seller_mean", "seller_std",
        ],
        rows,
    )


def render_paths_csv(batch: PathBatch, config: ExperimentConfig) -> str:
    """Long-format path dataset: one row per (path, epoch)."""
    rows = []
    for n in range(batch.n_paths):
        for t in range(batch.horizon + 1):
            rows.append(
                (
                    n, t,
                    batch.v[n, t],
                    "" if t == 0 else _fmt(batch.y[n, t - 1]),
                    batch.p[n, t],
                    batch.pi[n, t],
                    batch.h[n, t],
                    batch.seller_mean[n, t],
                    batch.seller_var[t],
                )
            )
    return _table(
        config,
        ["path", "t", "v", "y", "p", "pi", "h", "seller_mean", "seller_var"],
        rows,
    )


def load_paths_csv(path) -> PathBatch:
    """Reconstruct a PathBatch from the long-format CSV written by render_paths_csv.

    Every (path, t) pair up to the largest path and epoch in the file must
    appear exactly once; otherwise the error names the first pair that is
    missing or duplicated.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    data_lines = [ln for ln in lines if not ln.startswith("#")]
    header = data_lines[0].split(",")
    expected = ["path", "t", "v", "y", "p", "pi", "h", "seller_mean", "seller_var"]
    if header != expected:
        raise ValueError(f"unexpected paths CSV header {header}")
    width, n_rows = len(expected), len(data_lines) - 1
    fields = ",".join(data_lines[1:]).split(",")
    if n_rows < 1 or len(fields) != width * n_rows:
        raise ValueError(f"paths CSV needs rows of {width} fields")

    # y is empty at t = 0 and dropped below; "nan" makes a later empty y fail validate().
    fields[3::width] = [s or "nan" for s in fields[3::width]]

    def parse(k: int, kind=float) -> np.ndarray:
        return np.fromiter(map(kind, fields[k::width]), dtype=kind, count=n_rows)

    path_i, t = parse(0, int), parse(1, int)
    if path_i.min() < 0 or t.min() < 0:
        raise ValueError("paths CSV has a negative path or t index")
    n, T = int(path_i.max()) + 1, int(t.max())
    flat = path_i * (T + 1) + t
    counts = np.bincount(flat, minlength=n * (T + 1))
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        i, t_bad = divmod(int(bad[0]), T + 1)
        fault = "is missing" if counts[bad[0]] == 0 else f"appears {counts[bad[0]]} times"
        raise ValueError(f"paths CSV row (path={i}, t={t_bad}) {fault}")

    def column(k: int) -> np.ndarray:
        out = np.empty(n * (T + 1))
        out[flat] = parse(k)
        return out.reshape(n, T + 1)

    y = column(3)[:, 1:].copy()
    seller_var = np.empty(T + 1)
    seller_var[t] = parse(8)
    batch = PathBatch(
        v=column(2), y=y, p=column(4), pi=column(5), h=column(6),
        seller_mean=column(7), seller_var=seller_var,
    )
    batch.validate()
    return batch


def write_output_dir(outdir, files: dict[str, str]) -> None:
    """Create outdir containing exactly `files`, atomically via staging+rename."""
    outdir = Path(outdir)
    if outdir.exists():
        if any(outdir.iterdir()):
            raise FileExistsError(f"output directory {outdir} exists and is not empty")
        outdir.rmdir()
    outdir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(
        tempfile.mkdtemp(prefix=outdir.name + ".tmp", dir=outdir.parent)
    )
    try:
        for name, content in files.items():
            target = staging / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content, encoding="utf-8")
        staging.rename(outdir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def reference_config(seed: int = DEFAULT_SEED, **overrides) -> ExperimentConfig:
    """The default reproduction configuration with an optional seed override."""
    config = ExperimentConfig(params=ModelParams(seed=seed))
    if overrides:
        config = replace(config, **overrides)
    return config
