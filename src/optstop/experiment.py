"""End-to-end experiment orchestration: path generation, training, paired
evaluation, and emission of all result tables as machine-readable CSV.

Every output file starts with a `# config ...` echo line holding the full
canonical configuration, so any file suffices to rerun its experiment
exactly. Runs are deterministic: equal configs produce byte-identical
outputs. The training and test path sets live on disjoint RNG sub-streams;
both strategies are scored on the same test paths (common random numbers).
"""

from __future__ import annotations

import json
import shutil
import tempfile
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import consumer, lsm, seller
from .model import (
    DEFAULT_SEED, ModelParams, PathBatch, check_cells, check_types, is_integer, store_integers,
)
from .policy_io import policy_to_text
from .regression import RegressionBackend
from .rng import RngStream

# RNG domains keep path sets on disjoint sub-streams.
DOMAIN_TRAIN = 0
DOMAIN_TEST = 1
# Most cells of a draw matrix, n paths of 1 + 2 horizon normals each, the
# largest array a run makes (8 GiB of float64): one fixed number, so that a
# config is accepted or refused the same way on every host. At any horizon
# it also keeps a path count within RngStream's 32-bit path indices.
MAX_DRAW_CELLS = 1 << 30


def _check_draw_cells(what: str, n: int, horizon: int) -> None:
    """Raise a ValueError naming what (the key of the path count n) and the
    horizon unless the draw matrix of n paths fits in MAX_DRAW_CELLS."""
    cells = n * (1 + 2 * horizon)
    if cells > MAX_DRAW_CELLS:
        raise ValueError(
            f"{what} {n} at horizon {horizon} needs a {n} x {1 + 2 * horizon} draw matrix "
            f"of {cells} cells, over the size budget of 2**30 = {MAX_DRAW_CELLS} cells"
        )


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

    def __post_init__(self):
        store_integers(self, "n_train", "n_test")
        for key in ("n_train", "n_test"):
            n = getattr(self, key)
            if n < 1:
                raise ValueError(f"{key} must be >= 1, got {n}")
            _check_draw_cells(key, n, self.params.horizon)

    def to_dict(self) -> dict:
        return {
            "model": self.params.to_dict(),
            "n_train": self.n_train,
            "n_test": self.n_test,
            "backend": self.backend.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of to_dict; a missing key keeps its default, and an unknown
        key or a value of another JSON type than the default's raises."""
        check_types(d, cls().to_dict(), "config")
        return cls(
            params=ModelParams.from_dict(d.get("model", {})),
            backend=RegressionBackend.from_dict(d.get("backend", {})),
            **{key: d[key] for key in ("n_train", "n_test") if key in d},
        )

    def echo(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def check_index(what: str, i, n: int) -> None:
    """Raise a ValueError naming what unless i is an integer in 0..n-1."""
    if not is_integer(i) or not 0 <= i < n:
        raise ValueError(f"{what} {i!r} is not an integer in 0..{n - 1}")


def generate_paths(
    params: ModelParams, n: int, domain: int = DOMAIN_TRAIN, indices=None
) -> PathBatch:
    """Simulate the n sample paths of a path set of the full consumer/seller
    interaction, or only its paths at indices (each in 0..n-1), in that order.

    Path i draws all of its normals in one call on its own (seed, i, domain)
    stream, in simulate's draw order, straight into its row of z, and
    simulate runs the epochs of all paths at once. The path set's one stream
    is rekeyed to each path in turn.
    Each path's arithmetic is elementwise, so path i has the same bits
    whichever other paths are drawn with it.
    """
    if n < 1:
        raise ValueError(f"number of paths must be >= 1, got {n}")
    if indices is None:
        # Checked before range(n), whose len() overflows past 2**63.
        _check_draw_cells("number of paths", n, params.horizon)
        indices = range(n)
    else:
        for i in indices:
            check_index("path index", i, n)
        _check_draw_cells("number of paths", len(indices), params.horizon)
    k = 1 + 2 * params.horizon
    z = np.empty((len(indices), k))
    stream = RngStream(params.seed, 0, domain)
    for row, i in zip(z, indices):
        stream.rekey(i).standard_normal(k, out=row)
    return simulate(params, z)


def simulate(params: ModelParams, z) -> PathBatch:
    """Run the consumer/seller epochs for one path per row of z (snell's
    Gauss-Hermite lattice runs it too).

    Row i holds path i's 1 + 2T standard normals in draw order: the initial
    valuation, then per epoch the valuation shock and the seller's
    observation noise. The epoch loop runs the dynamics for all rows at
    once, one column of the batch per epoch: the valuation walk steps, the
    seller observes and filters. The price never feeds back into them, so
    the whole (n, T+1) posterior is then priced in one call, with one
    variance per epoch, and the payoffs in one more.
    """
    # sigma_xi = 0 is a valid Kalman input, but its posterior variance 0 has no price.
    if not params.sigma_xi > 0:
        raise ValueError(f"sigma_xi must be > 0 to simulate, got {params.sigma_xi}")
    T = params.horizon
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != 1 + 2 * T:
        raise ValueError(f"z must have {1 + 2 * T} columns, one row per path, got {z.shape}")
    bad = np.argwhere(~np.isfinite(z))
    if bad.size:
        i, k = bad[0]
        raise ValueError(f"z must be finite, got {z[i, k]} at (row={i}, column={k})")
    n = len(z)
    # Epoch t >= 1 runs on the valuation shocks eps[:, t-1] and the
    # observation noise xi[:, t-1].
    eps, xi = z[:, 1::2], z[:, 2::2]

    v = np.empty((n, T + 1))
    y = np.empty((n, T))
    seller_mean = np.empty((n, T + 1))
    seller_var = np.empty(T + 1)
    v[:, 0] = params.mu_prior + params.sigma_v * z[:, 0]
    seller_mean[:, 0] = params.mu_prior
    # The posterior variance does not depend on the observations: one
    # scalar, stepped once per epoch, serves every path.
    seller_var[0] = var = params.sigma_v**2
    for t in range(1, T + 1):
        v[:, t] = consumer.step_valuation(v[:, t - 1], eps[:, t - 1], params)
        y[:, t - 1] = v[:, t] + params.sigma_xi * xi[:, t - 1]
        seller_mean[:, t], var = seller.kalman_correct(
            seller_mean[:, t - 1], seller.kalman_predict(var, params), y[:, t - 1], params
        )
        seller_var[t] = var
    # Epochs after a zero variance still step: the Kalman denominator is at least sigma_xi**2 > 0.
    zero = np.flatnonzero(~(seller_var > 0))
    if zero.size:
        raise ValueError(
            f"seller posterior variance rounds to 0 at epoch {zero[0]}, so it has no price "
            f"(sigma_v={params.sigma_v}, sigma_eps={params.sigma_eps}, "
            f"sigma_xi={params.sigma_xi})"
        )
    try:
        p = seller.myopic_price(seller_mean, seller_var)
    except ValueError as exc:
        raise ValueError(
            f"{exc} (mu_prior={params.mu_prior}, sigma_v={params.sigma_v}, "
            f"sigma_xi={params.sigma_xi})"
        ) from exc
    pi = consumer.purchase_payoff(v, p, np.arange(T + 1), params)

    return PathBatch(
        v=v, y=y, p=p, pi=pi, h=consumer.exit_payoff(pi),
        seller_mean=seller_mean, seller_var=seller_var,
    )


def train_policy(
    config: ExperimentConfig, batch: PathBatch | None = None
) -> tuple[lsm.StoppingPolicy, PathBatch]:
    """Train config's backend on batch, by default the config's n_train
    training paths; the policy records the config's seed."""
    if batch is None:
        batch = generate_paths(config.params, config.n_train, DOMAIN_TRAIN)
    policy = lsm.train(batch.h, config.backend, metadata={"seed": config.params.seed})
    return policy, batch


def evaluate_policy(
    config: ExperimentConfig, policy: lsm.StoppingPolicy
) -> tuple[lsm.EvaluationReport, PathBatch]:
    """Score policy and the myopic buyer on the config's n_test test paths;
    a policy of another horizon than the config's is refused before any draw."""
    if policy.horizon != config.params.horizon:
        raise ValueError(
            f"the policy was trained at horizon {policy.horizon}, but the config's model "
            f"horizon is {config.params.horizon}; evaluate it under its training config"
        )
    test_batch = generate_paths(config.params, config.n_test, DOMAIN_TEST)
    return lsm.evaluate(policy, test_batch), test_batch


def run_experiment(
    config: ExperimentConfig, outdir=None
) -> lsm.EvaluationReport:
    """Full pipeline: train, evaluate, and (optionally) write the policy and evaluation files.

    Output emission is atomic: files are staged in a temporary sibling
    directory and renamed into place, so a failed run leaves no partial
    output directory behind. A taken outdir fails before any work.
    """
    if outdir is not None:
        check_output_dir(outdir)
    policy, _ = train_policy(config)
    report, _ = evaluate_policy(config, policy)
    if outdir is not None:
        files = {"policy.txt": policy_to_text(policy)}
        files["config.json"] = json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n"
        files.update(render_evaluation(report, config))
        write_output_dir(outdir, files)
    return report


# ---------------------------------------------------------------------------
# Output rendering. All tables are comma-separated with a header row; floats
# use shortest round-trip repr, a missing value is nan, bools are 1/0; the
# first line echoes the full config.

# The paths CSV's columns: what varies by row. The exit payoff h is
# max(pi, 0) and is derived on load; the seller's posterior variance depends
# on t alone and is written once, as the `# seller_var` line above the header.
PATHS_COLUMNS = ("path", "t", "v", "y", "p", "pi", "seller_mean")


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


def _header(config: ExperimentConfig | None, names, notes: str = "") -> str:
    """A table's config echo, unless config is None, then notes (whole `#`
    lines), then its header row."""
    echo = "" if config is None else f"# config {config.echo()}\n"
    return echo + notes + ",".join(names) + "\n"


def _rows(columns) -> str:
    """CSV rows of equally long columns, each line ending in a newline."""
    lines = list(map(",".join, zip(*map(_column, columns), strict=True)))
    lines.append("")
    return "\n".join(lines)


def _table(config: ExperimentConfig | None, columns: dict) -> str:
    """CSV of named, equally long columns, echoing config unless it is None."""
    return _header(config, columns) + _rows(columns.values())


def _observations(y: np.ndarray) -> np.ndarray:
    """(N, T) observations as (N, T+1), nan at t = 0, where there is none."""
    return np.pad(y, ((0, 0), (1, 0)), constant_values=np.nan)


def _histogram(edges: np.ndarray, alg: np.ndarray, myo: np.ndarray) -> dict:
    return {
        "bin_left": edges[:-1],
        "bin_right": edges[1:],
        "algorithmic": np.histogram(alg, bins=edges)[0],
        "myopic": np.histogram(myo, bins=edges)[0],
    }


def _distinct_column(values) -> list[str]:
    """_column's strings for a float column, each distinct value formatted
    once. The evaluation tables repeat many values (zero payoffs, one
    residual deviation per exit epoch, the prices of shared beliefs).
    Distinct by bits, so 0.0 and -0.0 keep their own strings. The paths CSV
    formats through _column alone: its columns are nearly all distinct, so
    the sort would cost more than it saves."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    return np.array(_column(bits.view(float)), dtype=object)[inverse].tolist()


def _distinct_pair(alg, myo) -> tuple[list[str], list[str]]:
    """_distinct_column of a pair of columns at once, so that a value in
    both (a price, a payoff, an exit epoch's deviation that the two
    strategies share) is formatted once."""
    cells = _distinct_column(np.concatenate((alg, myo)))
    return cells[: len(alg)], cells[len(alg) :]


def render_figures_data(report: lsm.EvaluationReport, config: ExperimentConfig) -> dict[str, str]:
    """Render the per-trial exit table, both histograms, and the difference
    table as named CSV strings.

    Each pair of algorithmic and myopic float columns formats each distinct
    value once, and the payoffs are formatted once for both tables that
    show them; the text is that of formatting every cell."""
    alg, myo = report.algorithmic, report.myopic
    std = [np.sqrt(consumer.residual_var(outcome.times, config.params)) for outcome in (alg, myo)]
    pairs = {
        "valuation_mean": _distinct_pair(alg.valuations_at_exit, myo.valuations_at_exit),
        "valuation_std": _distinct_pair(*std),
        "price": _distinct_pair(alg.prices_at_exit, myo.prices_at_exit),
        "payoff": _distinct_pair(alg.payoffs, myo.payoffs),
    }
    exit_columns = {"trial": np.arange(report.n_trials)}
    for side, (prefix, outcome) in enumerate((("alg", alg), ("myo", myo))):
        exit_columns[f"{prefix}_exit_time"] = outcome.times
        for name in ("valuation_mean", "valuation_std", "price"):
            exit_columns[f"{prefix}_{name}"] = pairs[name][side]
        exit_columns[f"{prefix}_purchased"] = outcome.purchased
        exit_columns[f"{prefix}_payoff"] = pairs["payoff"][side]
    alg_payoffs, myo_payoffs = pairs["payoff"]
    return {
        "exit_summary.csv": _table(config, exit_columns),
        "payoff_hist.csv": _table(config, _histogram(PAYOFF_EDGES, alg.payoffs, myo.payoffs)),
        "price_hist.csv": _table(config, _histogram(PRICE_EDGES, alg.prices_paid, myo.prices_paid)),
        "payoff_diff.csv": _table(
            config,
            {
                "trial": exit_columns["trial"],
                "algorithmic": alg_payoffs,
                "myopic": myo_payoffs,
                "difference": _distinct_column(report.differences),
            },
        ),
    }


def render_summary(report: lsm.EvaluationReport, config: ExperimentConfig) -> str:
    ci_low, ci_high = report.mean_difference_ci95
    values = {
        "n_trials": report.n_trials,
        "mean_algorithmic": report.mean_algorithmic,
        "mean_algorithmic_se": report.algorithmic.mean_payoff_se,
        "mean_myopic": report.mean_myopic,
        "mean_myopic_se": report.myopic.mean_payoff_se,
        "mean_difference": report.mean_difference,
        "mean_difference_se": report.mean_difference_se,
        "mean_difference_ci95_low": ci_low,
        "mean_difference_ci95_high": ci_high,
        "algorithmic_purchases": report.algorithmic.n_purchases,
        "myopic_purchases": report.myopic.n_purchases,
        "equal_payoff_trials": report.n_ties,
        "test_paths_checksum": report.paths_sha256,
    }
    return _table(config, {"key": list(values), "value": list(map(str, values.values()))})


def render_evaluation(report: lsm.EvaluationReport, config: ExperimentConfig) -> dict[str, str]:
    """The evaluation's file set: the figure tables plus summary.csv."""
    files = render_figures_data(report, config)
    files["summary.csv"] = render_summary(report, config)
    return files


def render_trace(batch: PathBatch, trial: int, config: ExperimentConfig) -> str:
    """Diagnostic table of batch's path `trial`: one row per epoch with both
    agents' views; the observation is nan at t = 0."""
    check_index("trace trial", trial, batch.n_paths)
    t = np.arange(batch.horizon + 1)
    return _table(
        config,
        {
            "t": t,
            "valuation_mean": batch.v[trial],
            "valuation_std": np.sqrt(consumer.residual_var(t, config.params)),
            "observation": _observations(batch.y[trial : trial + 1]),
            "price": batch.p[trial],
            "purchase_payoff": batch.pi[trial],
            "exit_payoff": batch.h[trial],
            "seller_mean": batch.seller_mean[trial],
            "seller_std": np.sqrt(batch.seller_var),
        },
    )


# Rows per block of the paths CSV. render_paths_csv holds the cell strings of
# one block at a time, so its peak memory stays near twice the text's size.
_BLOCK_ROWS = 4096


def render_paths_csv(batch: PathBatch, config: ExperimentConfig) -> str:
    """Long-format path dataset: the config echo, the `# seller_var` line of
    the T + 1 posterior variances, the header, then one row of PATHS_COLUMNS
    per (path, epoch), y nan at t = 0, rendered a block of whole paths at a
    time."""
    n, tp1 = batch.v.shape
    t = _column(np.arange(tp1))
    per_block = max(1, _BLOCK_ROWS // tp1)
    seller_var = ",".join((_SELLER_VAR, *_column(batch.seller_var))) + "\n"
    blocks = [_header(config, PATHS_COLUMNS, seller_var)]
    for start in range(0, n, per_block):
        paths = range(start, min(start + per_block, n))
        block = slice(paths.start, paths.stop)
        blocks.append(_rows((
            [cell for cell in map(str, paths) for _ in range(tp1)], t * len(paths),
            batch.v[block], _observations(batch.y[block]), batch.p[block],
            batch.pi[block], batch.seller_mean[block],
        )))
    return "".join(blocks)


# The paths CSV as numpy's C reader parses it: int64 `path` and `t`, float64
# values, each number read with the same correctly rounded
# PyOS_string_to_double as float(). The reader also reads the `# seller_var`
# line's values, as one row of float64, and names the faults (see
# _name_fault), so there is one grammar.
_PATHS_DTYPE = np.dtype(
    [(name, np.int64 if name in ("path", "t") else np.float64) for name in PATHS_COLUMNS]
)
_ECHO = "# config "
_SELLER_VAR = "# seller_var"
# The header of older versions, which wrote h and seller_var in every row.
_OLDER_COLUMNS = ("path", "t", "v", "y", "p", "pi", "h", "seller_mean", "seller_var")


def _read_rows(lines, dtype=_PATHS_DTYPE) -> np.ndarray:
    """Parse lines (an open file or a list of lines) in numpy's C reader,
    by default as data rows."""
    with warnings.catch_warnings():
        # Older numpy reads an integer field such as '2.0' through a float,
        # warning that it will stop; make it the fault that later numpy raises.
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        # A header-only file is named by load_paths_csv, not warned about.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _rejects(lines: list[str], dtype=_PATHS_DTYPE) -> bool:
    """Whether the reader rejects any of lines."""
    try:
        _read_rows(lines, dtype)
    except ValueError:
        return True
    return False


def _rejected_field(fields: list[str], dtype=_PATHS_DTYPE) -> int | None:
    """The index of the first of a line's fields that the reader rejects
    alone in a line of zeros, which it accepts; None if there is none."""
    for k, text in enumerate(fields):
        probe = ["0"] * len(fields)
        probe[k] = text
        if _rejects([",".join(probe)], dtype):
            return k
    return None


def _read_to_header(fh) -> tuple[str | None, str]:
    """Read fh through the header row, past leading `#` and blank lines, and
    check the header. Return the config echo's JSON text (None if there is
    none) and the text after `# seller_var,`; a file holds at most one echo
    and exactly one `# seller_var` line."""
    found = {_ECHO: None, _SELLER_VAR + ",": None}
    for line in iter(fh.readline, ""):
        tag = next((tag for tag in found if line.startswith(tag)), None)
        if tag is not None:
            if found[tag] is not None:
                raise ValueError(f"paths CSV has a second {tag.rstrip(' ,')} line; it holds one")
            found[tag] = line[len(tag):]
        elif line.strip() and not line.startswith("#"):
            header = line.rstrip("\n").split(",")
            if tuple(header) == _OLDER_COLUMNS:
                raise ValueError(
                    f"paths CSV header {header} is that of older versions; h is now "
                    f"max(pi, 0), derived on load, and seller_var is the {_SELLER_VAR} line "
                    "above the header, so re-run optstop simulate under the file's config"
                )
            if tuple(header) != PATHS_COLUMNS:
                raise ValueError(f"unexpected paths CSV header {header}")
            echo, seller_var = found.values()
            if seller_var is None:
                raise ValueError(f"paths CSV has no {_SELLER_VAR} line above its header row")
            return echo, seller_var
    raise ValueError("paths CSV has no header row")


def _read_seller_var(text: str) -> np.ndarray:
    """The posterior variances of the `# seller_var` line, from the text
    after its name, read as one row of float64. A value the reader rejects is
    named by its position, and a non-finite one by its t."""
    text = text.rstrip("\n")
    try:
        values = _read_rows([text], np.float64)
    except ValueError:
        fields = text.split(",")
        k = _rejected_field(fields, np.float64)
        if k is None:
            raise
        raise ValueError(
            f"paths CSV {_SELLER_VAR} value {k + 1} of {len(fields)}, {fields[k]!r}, "
            "is not a number"
        ) from None
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(
            f"paths CSV {_SELLER_VAR} value at t = {bad[0]} is {float(values[bad[0]])!r}, "
            "not a finite number"
        )
    return values


def _name_fault(fh) -> None:
    """Rescan the data rows of fh and raise a ValueError naming the first one
    that the reader rejects, and in it the wrong width or the first field
    that does not parse. Data row 1 follows the header; empty lines are not
    counted. The reader itself decides; each row parses on its own, so
    halving the rows finds the first that it rejects."""
    fh.seek(0)
    _read_to_header(fh)
    lines = [line for line in fh.read().split("\n") if line]
    # lines[lo:hi] holds the first rejected row.
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _rejects(lines[lo:mid]):
            hi = mid
        else:
            lo = mid
    row, fields = lo + 1, lines[lo].split(",")
    if len(fields) != len(PATHS_COLUMNS):
        raise ValueError(
            f"paths CSV data row {row} has {len(fields)} fields; "
            f"the file needs rows of {len(PATHS_COLUMNS)} fields"
        )
    k = _rejected_field(fields)
    if k is not None:
        name = PATHS_COLUMNS[k]
        what = "a 64-bit integer" if _PATHS_DTYPE[name].kind == "i" else "a number"
        raise ValueError(f"paths CSV data row {row}: {name} field {fields[k]!r} is not {what}")


def paths_csv_echo(path) -> tuple[int | None, int | None]:
    """The model seed and horizon in a paths CSV's config echo, each None if
    the file has no echo or the echo's model lacks it. Only these two keys
    are read, so an echo that holds a key since retired still serves."""
    with open(path, "r", encoding="utf-8") as fh:
        echo, _ = _read_to_header(fh)
    if echo is None:
        return None, None
    try:
        model = json.loads(echo).get("model", {})
        seed, horizon = model.get("seed"), model.get("horizon")
    except (ValueError, AttributeError):
        raise ValueError("paths CSV config echo: not a JSON object with a model object") from None
    if seed is not None and (type(seed) is not int or not 0 <= seed < 1 << 64):
        raise ValueError(
            f"paths CSV config echo: seed must be an integer that fits in 64 bits, got {seed!r}"
        )
    if horizon is not None and (type(horizon) is not int or horizon < 1):
        raise ValueError(f"paths CSV config echo: horizon must be an integer >= 1, got {horizon!r}")
    return seed, horizon


def load_paths_csv(path) -> PathBatch:
    """Reconstruct a PathBatch from the long-format CSV written by render_paths_csv.

    The header must be preceded by one `# seller_var` line, whose values are
    read by the rows' reader: one that it rejects is named by its position,
    a non-finite one by its t, and a count other than the rows' T + 1 as a
    horizon fault. The header of older versions, with h and seller_var
    columns, is named with the way out. h is consumer.exit_payoff(pi), as
    simulate makes it.

    The data rows must come in render_paths_csv's order: path 0's row
    count gives T + 1, and data row k + 1 (row 1 follows the header) holds
    (path, t) = (k // (T+1), k % (T+1)). The first row out of place, or
    missing, is named with the (path, t) that belongs there, and a file of
    one row per path (no epoch after t = 0) is named as such. A y other
    than nan at t = 0 and a cell that PathBatch rejects (a nan y after
    t = 0 among them) are named by their (path, t). The data rows are
    parsed in one pass of numpy's C reader, with no converter; a row of
    another width or a field that does not parse, an empty one included,
    is named by its data row and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        _, seller_var = _read_to_header(fh)
        seller_var = _read_seller_var(seller_var)
        try:
            rows = _read_rows(fh)
        except ValueError:
            _name_fault(fh)
            raise
    n_rows = len(rows)
    if n_rows == 0:
        raise ValueError(
            f"paths CSV has no data rows; it needs rows of {len(PATHS_COLUMNS)} fields"
        )

    path_i, t = rows["path"], rows["t"]
    # T + 1 counts the rows of row 1's path, path 0 in a valid file.
    tp1 = int(np.count_nonzero(path_i == path_i[0]))
    want_path, want_t = np.divmod(np.arange(n_rows), tp1)
    bad = np.flatnonzero((path_i != want_path) | (t != want_t))
    if bad.size or n_rows % tp1:
        k = int(bad[0]) if bad.size else n_rows
        held = f"holds (path={path_i[k]}, t={t[k]})" if bad.size else "is missing"
        raise ValueError(
            f"paths CSV data row {k + 1} {held}; (path={k // tp1}, t={k % tp1}) "
            "belongs there in simulate's (path, t) order"
        )
    if tp1 == 1:
        raise ValueError(
            "paths CSV has one row per path (t = 0 only); a path needs the rows "
            "t = 0..T of a horizon T >= 1"
        )
    if seller_var.size != tp1:
        raise ValueError(
            f"paths CSV {_SELLER_VAR} line holds {seller_var.size} values, but its rows hold "
            f"paths of horizon {tp1 - 1}, which take {tp1}, one per t = 0..{tp1 - 1}"
        )

    v, y, p, pi, seller_mean = (rows[name].reshape(-1, tp1) for name in PATHS_COLUMNS[2:])
    try:
        check_cells(np.isnan(y[:, :1]), "a y, but y is nan at t = 0")
        return PathBatch(  # copies: views would keep every field of the rows
            v=v.copy(), y=y[:, 1:].copy(), p=p.copy(), pi=pi.copy(),
            h=consumer.exit_payoff(pi), seller_mean=seller_mean.copy(), seller_var=seller_var,
        )
    except ValueError as exc:
        raise ValueError(f"paths CSV {exc}") from None


def check_output_dir(outdir) -> None:
    """Raise a FileExistsError unless outdir is absent or an empty directory."""
    outdir = Path(outdir)
    if outdir.exists() and any(outdir.iterdir()):
        raise FileExistsError(f"output directory {outdir} exists and is not empty")


def write_output_dir(outdir, files: dict[str, str]) -> None:
    """Create outdir holding exactly `files` (plain file names), atomically via staging+rename."""
    outdir = Path(outdir)
    check_output_dir(outdir)
    if outdir.exists():
        outdir.rmdir()
    outdir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(
        tempfile.mkdtemp(prefix=outdir.name + ".tmp", dir=outdir.parent)
    )
    try:
        for name, content in files.items():
            (staging / name).write_text(content, encoding="utf-8")
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
