"""End-to-end experiment orchestration: path generation, training, paired
evaluation, and emission of all result tables as machine-readable CSV.

Every output file starts with a `# config ...` echo line holding the full
canonical configuration, so any file suffices to rerun its experiment
exactly. Runs are deterministic: equal configs produce byte-identical
outputs. Training, test, and independent-myopic path sets live on disjoint
RNG sub-streams.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import consumer, lsm, seller
from .model import DEFAULT_SEED, ModelParams, PathBatch, check_integer, check_types, json_type
from .policy_io import policy_to_text
from .regression import RegressionBackend
from .rng import RngStream

# RNG domains keep path sets on disjoint sub-streams.
DOMAIN_TRAIN = 0
DOMAIN_TEST = 1
DOMAIN_MYOPIC_TEST = 2


def _edges(lo: float, hi: float, width: float) -> np.ndarray:
    n = int(round((hi - lo) / width))
    return np.linspace(lo, hi, n + 1)


# Fixed histogram bin edges, so output tables are diffable across runs.
PAYOFF_EDGES = _edges(-0.5, 1.0, 0.05)
PRICE_EDGES = _edges(0.0, 3.0, 0.05)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full run needs; the defaults reproduce the reference setup
    (T=25, gamma=1, sigma_eps=0.1, sigma_xi=1, prior N(1,1), 500 training and
    1000 paired test paths, Gaussian kernel with bandwidth 1)."""

    params: ModelParams = field(default_factory=ModelParams)
    n_train: int = 500
    n_test: int = 1000
    backend: RegressionBackend = field(default_factory=RegressionBackend)
    paired: bool = True
    trace_trials: tuple[int, ...] = ()
    fixed_v0: float | None = None

    def __post_init__(self):
        check_integer("n_train", self.n_train)
        check_integer("n_test", self.n_test)
        if self.n_train < 1:
            raise ValueError(f"n_train must be >= 1, got {self.n_train}")
        if self.n_test < 1:
            raise ValueError(f"n_test must be >= 1, got {self.n_test}")
        for i in self.trace_trials:
            if json_type(i) != "integer" or not 0 <= i < self.n_test:
                raise ValueError(f"trace trial {i!r} is not an integer in 0..{self.n_test - 1}")
        if self.fixed_v0 is not None and not math.isfinite(self.fixed_v0):
            raise ValueError(f"fixed_v0 must be finite or None, got {self.fixed_v0!r}")

    def to_dict(self) -> dict:
        return {
            "model": self.params.to_dict(),
            "n_train": self.n_train,
            "n_test": self.n_test,
            "backend": self.backend.to_dict(),
            "paired": self.paired,
            "trace_trials": list(self.trace_trials),
            "fixed_v0": self.fixed_v0,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of to_dict; a missing key keeps its default, and an unknown
        key or a value of another JSON type than the default's raises."""
        check_types(d, cls().to_dict(), "config")
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
        return cls(**kwargs)

    def echo(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


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
    if n < 1:
        raise ValueError(f"number of paths must be >= 1, got {n}")
    T = params.horizon
    first = int(fixed_v0 is None)  # column of the first valuation shock
    z = np.empty((n, first + 2 * T))
    for i in range(n):
        z[i] = RngStream(params.seed, path_index=i, domain=domain).standard_normal(z.shape[1])
    if first:
        v0 = params.mu_prior + params.sigma_v * z[:, 0]
    else:
        v0 = np.full(n, float(fixed_v0))
    # Epoch t >= 1 runs on the valuation shocks eps[:, t-1] and the
    # observation noise xi[:, t-1].
    eps, xi = z[:, first::2], z[:, first + 1 :: 2]

    v = np.empty((n, T + 1))
    y = np.empty((n, T))
    p = np.empty((n, T + 1))
    pi = np.empty((n, T + 1))
    seller_mean = np.empty((n, T + 1))
    seller_var = np.empty(T + 1)
    state = consumer.initial_state(v0, params)
    belief = seller.GaussianBelief(np.full(n, float(params.mu_prior)), params.sigma_v**2)
    price = seller.myopic_price(belief)
    for t in range(T + 1):
        if t > 0:
            state = consumer.step_valuation(state, eps[:, t - 1], params)
            price, belief, y[:, t - 1] = seller.seller_step(belief, state.v, xi[:, t - 1], params)
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
) -> tuple[lsm.EvaluationReport, PathBatch]:
    test_batch = generate_paths(
        config.params, config.n_test, DOMAIN_TEST, fixed_v0=config.fixed_v0
    )
    myo_batch = None
    if not config.paired:
        myo_batch = generate_paths(
            config.params, config.n_test, DOMAIN_MYOPIC_TEST, fixed_v0=config.fixed_v0
        )
    return lsm.evaluate(policy, test_batch, myopic_batch=myo_batch), test_batch


def run_experiment(
    config: ExperimentConfig, outdir=None
) -> lsm.EvaluationReport:
    """Full pipeline: train, evaluate, and (optionally) write all artifacts.

    Output emission is atomic: files are staged in a temporary sibling
    directory and renamed into place, so a failed run leaves no partial
    output directory behind.
    """
    policy, _ = train_policy(config)
    report, test_batch = evaluate_policy(config, policy)
    if outdir is not None:
        files = {"policy.txt": policy_to_text(policy)}
        files["config.json"] = json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n"
        files.update(render_evaluation(report, config))
        for i in config.trace_trials:
            files[f"trace_{i}.csv"] = render_trace(test_batch, i, config)
        write_output_dir(outdir, files)
    return report


# ---------------------------------------------------------------------------
# Output rendering. All tables are comma-separated with a header row; floats
# use shortest round-trip repr, bools are 1/0; the first line echoes the full
# config.

PATHS_COLUMNS = ("path", "t", "v", "y", "p", "pi", "h", "seller_mean", "seller_var")


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _column(values) -> list[str]:
    """Format a whole column in one pass, chosen by dtype; a list of strings
    passes through as it is."""
    if isinstance(values, list):
        return values
    values = np.asarray(values).ravel()
    if values.dtype == bool:
        return np.where(values, "1", "0").tolist()
    fmt = repr if values.dtype.kind == "f" else str
    return list(map(fmt, values.tolist()))


def _table(config: ExperimentConfig | None, columns: dict) -> str:
    """CSV of named, equally long columns, echoing config unless it is None."""
    lines = [] if config is None else [f"# config {config.echo()}"]
    lines.append(",".join(columns))
    lines.extend(map(",".join, zip(*map(_column, columns.values()), strict=True)))
    return "\n".join(lines) + "\n"


def _observations(y: np.ndarray) -> list[str]:
    """(N, T) observations as an (N, T+1) column, empty at t = 0."""
    cells = np.full((y.shape[0], y.shape[1] + 1), "", dtype=object)
    cells[:, 1:] = np.reshape(_column(y), y.shape)
    return cells.ravel().tolist()


def _histogram(edges: np.ndarray, alg: np.ndarray, myo: np.ndarray) -> dict:
    return {
        "bin_left": edges[:-1],
        "bin_right": edges[1:],
        "algorithmic": np.histogram(alg, bins=edges)[0],
        "myopic": np.histogram(myo, bins=edges)[0],
    }


def _exit_columns(prefix: str, outcome: lsm.StrategyOutcome, params: ModelParams) -> dict:
    t = outcome.times
    return {
        f"{prefix}_exit_time": t,
        f"{prefix}_valuation_mean": outcome.valuations_at_exit,
        f"{prefix}_valuation_std": np.sqrt(consumer.residual_var(t, params)),
        f"{prefix}_price": outcome.prices_at_exit,
        f"{prefix}_purchased": outcome.purchased,
        f"{prefix}_payoff": outcome.payoffs,
    }


def render_figures_data(report: lsm.EvaluationReport, config: ExperimentConfig) -> dict[str, str]:
    """Render the per-trial exit table, both histograms, and the difference
    table (paired runs only) as named CSV strings."""
    params = config.params
    alg, myo = report.algorithmic, report.myopic
    trial = np.arange(report.n_trials)
    files = {
        "exit_summary.csv": _table(
            config,
            {
                "trial": trial,
                **_exit_columns("alg", alg, params),
                **_exit_columns("myo", myo, params),
            },
        ),
        "payoff_hist.csv": _table(config, _histogram(PAYOFF_EDGES, alg.payoffs, myo.payoffs)),
        "price_hist.csv": _table(config, _histogram(PRICE_EDGES, alg.prices_paid, myo.prices_paid)),
    }
    if report.paired:
        files["payoff_diff.csv"] = _table(
            config,
            {
                "trial": trial,
                "algorithmic": alg.payoffs,
                "myopic": myo.payoffs,
                "difference": report.differences,
            },
        )
    return files


def render_summary(report: lsm.EvaluationReport, config: ExperimentConfig) -> str:
    values = {
        "n_trials": report.n_trials,
        "paired": report.paired,
        "mean_algorithmic": report.mean_algorithmic,
        "mean_myopic": report.mean_myopic,
        "mean_difference": report.mean_difference,
        "algorithmic_purchases": report.algorithmic.n_purchases,
        "myopic_purchases": report.myopic.n_purchases,
        "equal_payoff_trials": "" if report.n_ties is None else report.n_ties,
        "test_paths_checksum_algorithmic": report.algorithmic.paths_sha256,
        "test_paths_checksum_myopic": report.myopic.paths_sha256,
    }
    return _table(config, {"key": list(values), "value": [_fmt(v) for v in values.values()]})


def render_evaluation(report: lsm.EvaluationReport, config: ExperimentConfig) -> dict[str, str]:
    """The evaluation's file set: the figure tables plus summary.csv."""
    files = render_figures_data(report, config)
    files["summary.csv"] = render_summary(report, config)
    return files


def render_trace(batch: PathBatch, trial: int, config: ExperimentConfig) -> str:
    """Single-path diagnostic table: one row per epoch with both agents' views."""
    params = batch.params if batch.params is not None else config.params
    t = np.arange(batch.horizon + 1)
    return _table(
        config,
        {
            "t": t,
            "valuation_mean": batch.v[trial],
            "valuation_std": np.sqrt(consumer.residual_var(t, params)),
            "observation": _observations(batch.y[trial : trial + 1]),
            "price": batch.p[trial],
            "purchase_payoff": batch.pi[trial],
            "exit_payoff": batch.h[trial],
            "seller_mean": batch.seller_mean[trial],
            "seller_std": np.sqrt(batch.seller_var),
        },
    )


def render_paths_csv(batch: PathBatch, config: ExperimentConfig) -> str:
    """Long-format path dataset: one row per (path, epoch)."""
    n, tp1 = batch.v.shape
    columns = (
        np.repeat(np.arange(n), tp1), np.tile(np.arange(tp1), n),
        batch.v, _observations(batch.y), batch.p, batch.pi, batch.h,
        batch.seller_mean, np.tile(batch.seller_var, n),
    )
    return _table(config, dict(zip(PATHS_COLUMNS, columns, strict=True)))


def load_paths_csv(path) -> PathBatch:
    """Reconstruct a PathBatch from the long-format CSV written by render_paths_csv.

    Every (path, t) pair up to the largest path and epoch in the file must
    appear exactly once, and all paths must share seller_var at each t;
    otherwise the error names the first pair that is missing, duplicated, or
    whose seller_var differs from path 0's.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    data_lines = [ln for ln in lines if not ln.startswith("#")]
    if not data_lines:
        raise ValueError("paths CSV has no header row")
    header = data_lines[0].split(",")
    if header != list(PATHS_COLUMNS):
        raise ValueError(f"unexpected paths CSV header {header}")
    width, n_rows = len(PATHS_COLUMNS), len(data_lines) - 1
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
    seller_var = column(8)
    batch = PathBatch(
        v=column(2), y=y, p=column(4), pi=column(5), h=column(6),
        seller_mean=column(7), seller_var=seller_var[0].copy(),
    )
    batch.validate()
    differs = np.argwhere(seller_var != seller_var[0])
    if differs.size:
        i, t_bad = differs[0]
        raise ValueError(
            f"paths CSV seller_var at (path={i}, t={t_bad}) is {seller_var[i, t_bad]!r}, "
            f"but path 0 has {seller_var[0, t_bad]!r}"
        )
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
