"""Path generation, output rendering, persistence round trips, determinism."""

import copy
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from optstop import experiment, lsm
from optstop.consumer import exit_payoff, initial_state, purchase_payoff, step_valuation
from optstop.experiment import (
    DOMAIN_MYOPIC_TEST,
    DOMAIN_TEST,
    DOMAIN_TRAIN,
    ExperimentConfig,
    generate_paths,
    load_config,
    load_paths_csv,
    render_paths_csv,
    run_experiment,
    write_output_dir,
)
from optstop.model import ModelParams, PathBatch
from optstop.policy_io import (
    FORMAT_LINE,
    PolicyFormatError,
    load_policy,
    policy_from_text,
    policy_to_text,
    save_policy,
)
from optstop.regression import RegressionBackend
from optstop.rng import RngStream
from optstop.seller import GaussianBelief, myopic_price, seller_step


def small_config(**overrides) -> ExperimentConfig:
    kwargs = dict(
        params=ModelParams(horizon=6, seed=11),
        n_train=40,
        n_test=30,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def replay_path(params: ModelParams, i: int, domain: int, fixed_v0=None) -> dict:
    """Path i stepped epoch by epoch through the scalar API, fed its own
    stream's normals one at a time in the order v0, eps_1, xi_1, eps_2, ..."""
    stream = RngStream(params.seed, path_index=i, domain=domain)
    if fixed_v0 is None:
        v0 = params.mu_prior + params.sigma_v * stream.standard_normal()
    else:
        v0 = fixed_v0
    state = initial_state(v0, params)
    belief = GaussianBelief(params.mu_prior, params.sigma_v**2)
    out = {name: [] for name in ("v", "y", "p", "pi", "h", "seller_mean", "seller_var")}
    price = myopic_price(belief)
    for t in range(params.horizon + 1):
        if t > 0:
            state = step_valuation(state, stream.standard_normal(), params)
            price, belief, obs = seller_step(belief, state.v, stream.standard_normal(), params)
            out["y"].append(obs)
        pi = purchase_payoff(state, price, params)
        for name, value in (
            ("v", state.v), ("p", price), ("pi", pi), ("h", exit_payoff(pi)),
            ("seller_mean", belief.mean), ("seller_var", belief.var),
        ):
            out[name].append(value)
    return {name: np.array(values, dtype=float) for name, values in out.items()}


class TestGeneratePaths:
    @pytest.mark.parametrize("fixed_v0", [None, 0.4, -800.0])  # -800: CARA exponent clamped
    @pytest.mark.parametrize(
        "params, domain, n",
        [
            (ModelParams(seed=1), DOMAIN_TRAIN, 4),
            (ModelParams(seed=29), DOMAIN_TEST, 3),
            (ModelParams(horizon=7, gamma=2.5, sigma_eps=0.3, sigma_xi=0.5, seed=2**63 + 5),
             DOMAIN_MYOPIC_TEST, 3),
        ],
    )
    def test_rows_equal_scalar_replay_bitwise(self, params, domain, n, fixed_v0):
        batch = generate_paths(params, n, domain, fixed_v0=fixed_v0)
        for i in range(n):
            replay = replay_path(params, i, domain, fixed_v0)
            for name, want in replay.items():
                got = batch.seller_var if name == "seller_var" else getattr(batch, name)[i]
                assert got.tobytes() == want.tobytes(), (name, i)

    def test_first_price_identical_across_paths(self, ref_run):
        _, _, test_batch, _, _ = ref_run
        assert (test_batch.p[:, 0] == test_batch.p[0, 0]).all()

    def test_deterministic_regeneration(self):
        params = ModelParams(horizon=6, seed=23)
        a = generate_paths(params, 25, DOMAIN_TRAIN)
        b = generate_paths(params, 25, DOMAIN_TRAIN)
        for name in ("v", "y", "p", "pi", "h", "seller_mean"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_degenerate_noise_with_pinned_start_collapses_valuations(self):
        # No valuation noise and a pinned v0 freezes the walk; observation
        # noise must stay positive (a noiseless seller cannot price), so the
        # y and price columns still vary per path.
        params = ModelParams(horizon=5, sigma_eps=0.0, sigma_xi=1.0, seed=3)
        batch = generate_paths(params, 10, DOMAIN_TRAIN, fixed_v0=1.3)
        assert (batch.v == 1.3).all()
        assert not np.array_equal(batch.y[0], batch.y[1])

    def test_path_index_not_order_dependent(self):
        params = ModelParams(horizon=4, seed=5)
        wide = generate_paths(params, 8, DOMAIN_TRAIN)
        narrow = generate_paths(params, 3, DOMAIN_TRAIN)
        assert np.array_equal(wide.v[:3], narrow.v)

    def test_domains_disjoint(self):
        params = ModelParams(horizon=4, seed=5)
        train = generate_paths(params, 5, DOMAIN_TRAIN)
        test = generate_paths(params, 5, DOMAIN_TEST)
        assert not np.array_equal(train.v, test.v)

    def test_terminal_valuation_mean_matches_prior(self):
        params = ModelParams(seed=29)
        batch = generate_paths(params, 4000, DOMAIN_TRAIN)
        v_term = batch.v[:, -1]
        bound = 4 * v_term.std(ddof=1) / math.sqrt(len(v_term))
        assert abs(v_term.mean() - params.mu_prior) < bound


# A valid policy payload with one regressor of each kind, epochs 0..3.
POLICY_PAYLOAD = {
    "format_version": 1,
    "horizon": 4,
    "metadata": {"seed": 1},
    "regressors": [
        {"kind": "zero"},
        {"kind": "kernel", "xs": [0.1, 0.2], "weights": [1.0, -1.0], "bandwidth": 1.0, "ridge": 1e-6},
        {"kind": "poly", "coeffs": [0.1, 0.2]},
        {"kind": "tabular", "xs": [0.0, 1.0], "means": [0.5, 0.25], "default": 0.3},
    ],
}


def signed_policy_text(payload: dict) -> str:
    """A policy file around payload, with a checksum that matches it."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{FORMAT_LINE}\nsha256 {hashlib.sha256(body.encode()).hexdigest()}\n{body}\n"


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(payload):
        node = payload
        for step in path:
            node = node[step]
        node[key] = value

    return mutate


def _delete(epoch, key):
    def mutate(payload):
        del payload["regressors"][epoch][key]

    return mutate


class TestPolicyPersistence:
    def test_round_trip_identical_decisions(self, ref_run, tmp_path):
        policy, _, test_batch, report, _ = ref_run
        file = tmp_path / "policy.txt"
        save_policy(policy, file)
        loaded = load_policy(file)
        t0, p0 = lsm.apply_policy(policy, test_batch.h)
        t1, p1 = lsm.apply_policy(loaded, test_batch.h)
        assert np.array_equal(t0, t1)
        assert np.array_equal(p0, p1)
        again = lsm.evaluate(loaded, test_batch)
        assert again.mean_algorithmic == report.mean_algorithmic
        assert again.mean_difference == report.mean_difference

    def test_truncated_file_rejected(self, ref_run, tmp_path):
        policy, _, _, _, _ = ref_run
        file = tmp_path / "policy.txt"
        save_policy(policy, file)
        text = file.read_text()
        file.write_text(text[: len(text) // 2])
        with pytest.raises(PolicyFormatError):
            load_policy(file)

    def test_corrupted_payload_rejected(self, ref_run, tmp_path):
        policy, _, _, _, _ = ref_run
        file = tmp_path / "policy.txt"
        save_policy(policy, file)
        file.write_text(file.read_text().replace("exit_payoff", "exit_pay0ff", 1))
        with pytest.raises(PolicyFormatError, match="checksum"):
            load_policy(file)

    def test_version_line_checked(self, tmp_path):
        file = tmp_path / "policy.txt"
        file.write_text("some-other-format v9\nsha256 00\n{}\n")
        with pytest.raises(PolicyFormatError, match="format"):
            load_policy(file)

    def test_payload_with_every_kind_round_trips(self):
        text = signed_policy_text(POLICY_PAYLOAD)
        assert policy_to_text(policy_from_text(text)) == text

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_set("regressors", 3, "xs", [1.0, 0.0]), "epoch 3: table xs must be strictly increasing"),
            (_set("regressors", 3, "means", [math.nan, 0.25]), "epoch 3: means must be .*finite"),
            (_set("regressors", 2, "coeffs", [math.nan, 0.2]), "epoch 2: coeffs must be .*finite"),
            (_set("regressors", 1, "xs", [math.nan, 0.2]), "epoch 1: xs must be .*finite"),
            (_set("regressors", 1, "bandwith", 1.0), "epoch 1: unknown kernel regressor key.*'bandwith'"),
            (_set("regressors", 0, "xs", []), "epoch 0: unknown zero regressor key.*'xs'"),
            (_set("horizn", 4), "unknown policy payload key.*'horizn'"),
            (_set("horizon", 4.0), "'horizon' must be a JSON integer"),
            (_set("metadata", [1]), "'metadata' must be a JSON object"),
            (_set("regressors", 2, "coeffs", []), "epoch 2: coeffs must be a non-empty"),
            (_set("regressors", 3, "xs", []), "epoch 3: xs must be a non-empty"),
            (_set("horizon", "4"), "'horizon' must be a JSON integer"),
            (_set("regressors", 0, ["kind", "zero"]), "epoch 0: regressor must be a JSON object"),
            (_delete(1, "weights"), "epoch 1: kernel regressor is missing required key 'weights'"),
            (_set("regressors", 3, "means", [0.5]), "epoch 3: 2 table entries but 1 means"),
        ],
        ids=[
            "tabular-unsorted-xs", "tabular-nan-mean", "poly-nan-coeff", "kernel-nan-x",
            "kernel-unknown-key", "zero-unknown-key", "unknown-top-key", "float-horizon",
            "list-metadata", "poly-empty", "tabular-empty", "string-horizon",
            "regressor-not-object", "kernel-missing-key", "tabular-length-mismatch",
        ],
    )
    def test_malformed_payload_named(self, mutate, message):
        payload = copy.deepcopy(POLICY_PAYLOAD)
        mutate(payload)
        with pytest.raises(PolicyFormatError, match=message):
            policy_from_text(signed_policy_text(payload))

    def test_poly_backend_metadata_preserved(self, tmp_path):
        config = small_config(backend=RegressionBackend(kind="poly", degree=2))
        policy, _ = experiment.train_policy(config)
        file = tmp_path / "p.txt"
        save_policy(policy, file)
        loaded = load_policy(file)
        assert loaded.metadata["backend"] == RegressionBackend(kind="poly", degree=2).to_dict()
        assert loaded.metadata == policy.metadata


class TestOutputs:
    def test_run_writes_expected_files(self, tmp_path):
        config = small_config(trace_trials=(0, 2))
        out = tmp_path / "run"
        run_experiment(config, outdir=out)
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "config.json",
            "exit_summary.csv",
            "payoff_diff.csv",
            "payoff_hist.csv",
            "policy.txt",
            "price_hist.csv",
            "summary.csv",
            "trace_0.csv",
            "trace_2.csv",
        ]

    def test_every_table_echoes_the_config(self, tmp_path):
        config = small_config()
        out = tmp_path / "run"
        run_experiment(config, outdir=out)
        for file in out.glob("*.csv"):
            first = file.read_text().splitlines()[0]
            assert first.startswith("# config ")
            echoed = json.loads(first[len("# config "):])
            assert echoed == config.to_dict()

    def test_trace_has_one_row_per_epoch(self, tmp_path):
        config = small_config(n_test=1, trace_trials=(0,))
        out = tmp_path / "run"
        run_experiment(config, outdir=out)
        lines = (out / "trace_0.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header[0] == "t"
        assert len(lines) == 2 + config.params.horizon + 1  # echo + header + epochs
        assert len(lines[2].split(",")) == len(header)

    def test_difference_table_mean_matches_summary(self, tmp_path):
        config = small_config()
        out = tmp_path / "run"
        report = run_experiment(config, outdir=out)
        diff_lines = (out / "payoff_diff.csv").read_text().splitlines()[2:]
        diffs = [float(ln.split(",")[3]) for ln in diff_lines]
        assert len(diffs) == config.n_test
        assert abs(np.mean(diffs) - report.mean_difference) <= 1e-12
        summary = dict(
            ln.split(",", 1) for ln in (out / "summary.csv").read_text().splitlines()[2:]
        )
        assert float(summary["mean_difference"]) == report.mean_difference
        assert int(summary["equal_payoff_trials"]) == report.n_ties

    def test_zero_purchase_run_has_empty_histogram(self, tmp_path):
        # Pin the start value far below any price: payoffs never go positive.
        config = small_config(fixed_v0=-50.0, n_train=10, n_test=10)
        out = tmp_path / "run"
        report = run_experiment(config, outdir=out)
        assert report.algorithmic.n_purchases == 0
        assert report.myopic.n_purchases == 0
        rows = (out / "price_hist.csv").read_text().splitlines()[2:]
        counts = np.array([[int(c) for c in ln.split(",")[2:]] for ln in rows])
        assert counts.sum() == 0

    def test_paired_checksums_equal(self, ref_run):
        _, _, _, report, _ = ref_run
        assert report.algorithmic.paths_sha256 == report.myopic.paths_sha256

    def test_independent_mode_distinct_paths_no_diff_table(self, tmp_path):
        config = small_config(paired=False)
        out = tmp_path / "run"
        report = run_experiment(config, outdir=out)
        assert not (out / "payoff_diff.csv").exists()
        assert report.algorithmic.paths_sha256 != report.myopic.paths_sha256

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config(trace_trials=(1,))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(config, outdir=out_a)
        run_experiment(config, outdir=out_b)
        files_a = sorted(p.name for p in out_a.iterdir())
        assert files_a == sorted(p.name for p in out_b.iterdir())
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_existing_nonempty_outdir_rejected(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "keep.txt").write_text("do not clobber")
        with pytest.raises(FileExistsError):
            write_output_dir(out, {"x.csv": "data"})
        assert (out / "keep.txt").read_text() == "do not clobber"

    def test_failed_write_leaves_no_output_dir(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises((OSError, ValueError)):
            write_output_dir(out, {"ok.csv": "fine", "bad\0name.csv": "boom"})
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []  # staging cleaned up


class TestPathsCsv:
    def test_round_trip_bitwise(self, tmp_path):
        params = ModelParams(horizon=5, seed=31)
        batch = generate_paths(params, 12, DOMAIN_TRAIN)
        file = tmp_path / "paths.csv"
        file.write_text(render_paths_csv(batch, small_config()))
        loaded = load_paths_csv(file)
        for field in ("v", "y", "p", "pi", "h", "seller_mean", "seller_var"):
            assert np.array_equal(getattr(batch, field), getattr(loaded, field))

    @staticmethod
    def csv_lines() -> list[str]:
        """4 paths of T=3: config echo, header, then rows in (path, t) order."""
        params = ModelParams(horizon=3, seed=31)
        text = render_paths_csv(generate_paths(params, 4, DOMAIN_TRAIN), small_config())
        return text.splitlines(keepends=True)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # Rows start at line 2; row 2 + 4 * i + t holds (path=i, t).
            (lambda rows: rows[:8] + rows[9:], r"row \(path=1, t=2\) is missing"),
            (lambda rows: rows + [rows[2 + 4 * 2 + 3]], r"row \(path=2, t=3\) appears 2 times"),
            (lambda rows: rows[:8] + ["1,-2," + rows[8][len("1,2,"):]] + rows[9:],
             "negative path or t index"),
            (lambda rows: rows[:8] + [rows[8].rstrip("\n") + ",0.5\n"] + rows[9:],
             "rows of 9 fields"),
            (lambda rows: [], "no header row"),
            (lambda rows: rows[:1], "no header row"),  # only the config echo
        ],
    )
    def test_faulty_rows_named(self, tmp_path, edit, message):
        params = ModelParams(horizon=3, seed=31)
        text = render_paths_csv(generate_paths(params, 4, DOMAIN_TRAIN), small_config())
        lines = text.splitlines(keepends=True)
        assert lines[8].startswith("1,2,")
        file = tmp_path / "paths.csv"
        file.write_text("".join(edit(lines)))
        with pytest.raises(ValueError, match=message):
            load_paths_csv(file)

    @pytest.mark.parametrize("path, t, named", [(2, 1, 2), (0, 2, 1)])
    def test_inconsistent_seller_var_named(self, tmp_path, path, t, named):
        # Path 0 is the reference, so an edit there is named at path 1.
        lines = self.csv_lines()
        row = 2 + 4 * path + t
        fields = lines[row].rstrip("\n").split(",")
        fields[8] = repr(1.5 * float(fields[8]))
        lines[row] = ",".join(fields) + "\n"
        file = tmp_path / "paths.csv"
        file.write_text("".join(lines))
        with pytest.raises(ValueError, match=rf"seller_var at \(path={named}, t={t}\)"):
            load_paths_csv(file)

    def test_header_checked(self, tmp_path):
        bad = tmp_path / "p.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_paths_csv(bad)


def pin_config() -> ExperimentConfig:
    return ExperimentConfig(
        params=ModelParams(horizon=1, sigma_eps=0.5, seed=3),
        n_train=2,
        n_test=2,
    )


def pin_batch() -> PathBatch:
    """Two hand-built paths of T=1."""
    pi = np.array([[-0.25, 0.5], [0.0, -1.5]])
    return PathBatch(
        v=np.array([[1.0, 1.5], [0.25, 1e-20]]),
        y=np.array([[0.1], [-2.0]]),
        p=np.array([[0.5, 0.75], [0.5, 0.125]]),
        pi=pi,
        h=np.maximum(pi, 0.0),
        seller_mean=np.array([[1.0, 1 / 3], [1.0, 0.5]]),
        seller_var=np.array([1.0, 0.5]),
    )


def pin_report(paired: bool) -> lsm.EvaluationReport:
    # The outcomes of exiting pin_batch() at these times.
    alg = lsm.StrategyOutcome(
        times=np.array([1, 0]), payoffs=np.array([0.5, 0.0]),
        prices_at_exit=np.array([0.75, 0.5]), valuations_at_exit=np.array([1.5, 0.25]),
        paths_sha256="aa",
    )
    myo = lsm.StrategyOutcome(
        times=np.array([0, 1]), payoffs=np.array([0.0, 0.0]),
        prices_at_exit=np.array([0.5, 0.125]), valuations_at_exit=np.array([1.0, 1e-20]),
        paths_sha256="bb",
    )
    return lsm.EvaluationReport(algorithmic=alg, myopic=myo, paired=paired)


class TestTableFormat:
    """Exact bytes of each table for small hand-built inputs."""

    def expect(self, text: str, body: str):
        assert text == f"# config {pin_config().echo()}\n" + body

    def test_paths_csv(self):
        self.expect(
            render_paths_csv(pin_batch(), pin_config()),
            "path,t,v,y,p,pi,h,seller_mean,seller_var\n"
            "0,0,1.0,,0.5,-0.25,0.0,1.0,1.0\n"
            "0,1,1.5,0.1,0.75,0.5,0.5,0.3333333333333333,0.5\n"
            "1,0,0.25,,0.5,0.0,0.0,1.0,1.0\n"
            "1,1,1e-20,-2.0,0.125,-1.5,0.0,0.5,0.5\n",
        )

    def test_trace(self):
        self.expect(
            experiment.render_trace(pin_batch(), 1, pin_config()),
            "t,valuation_mean,valuation_std,observation,price,purchase_payoff,"
            "exit_payoff,seller_mean,seller_std\n"
            "0,0.25,0.5,,0.5,0.0,0.0,1.0,1.0\n"
            "1,1e-20,0.0,-2.0,0.125,-1.5,0.0,0.5,0.7071067811865476\n",
        )

    def test_independent_summary(self):
        self.expect(
            experiment.render_summary(pin_report(paired=False), pin_config()),
            "key,value\n"
            "n_trials,2\n"
            "paired,0\n"
            "mean_algorithmic,0.25\n"
            "mean_myopic,0.0\n"
            "mean_difference,0.25\n"
            "algorithmic_purchases,1\n"
            "myopic_purchases,0\n"
            "equal_payoff_trials,\n"
            "test_paths_checksum_algorithmic,aa\n"
            "test_paths_checksum_myopic,bb\n",
        )

    def test_figure_tables(self):
        files = experiment.render_figures_data(pin_report(paired=True), pin_config())
        self.expect(
            files["exit_summary.csv"],
            "trial,alg_exit_time,alg_valuation_mean,alg_valuation_std,alg_price,"
            "alg_purchased,alg_payoff,myo_exit_time,myo_valuation_mean,"
            "myo_valuation_std,myo_price,myo_purchased,myo_payoff\n"
            "0,1,1.5,0.0,0.75,1,0.5,0,1.0,0.5,0.5,0,0.0\n"
            "1,0,0.25,0.5,0.5,0,0.0,1,1e-20,0.0,0.125,0,0.0\n",
        )
        self.expect(
            files["payoff_diff.csv"],
            "trial,algorithmic,myopic,difference\n"
            "0,0.5,0.0,0.5\n"
            "1,0.0,0.0,0.0\n",
        )
        for name, lo, hi, rows in (("payoff_hist.csv", -0.5, 1.0, 30),
                                   ("price_hist.csv", 0.0, 3.0, 60)):
            lines = files[name].splitlines()
            assert lines[1] == "bin_left,bin_right,algorithmic,myopic"
            assert len(lines) == 2 + rows
            assert lines[2].split(",")[0] == repr(lo) and lines[-1].split(",")[1] == repr(hi)

    def test_histogram(self):
        report = pin_report(paired=True)
        alg, myo = report.algorithmic, report.myopic
        payoffs = experiment._histogram(np.array([-0.5, 0.0, 0.5, 1.0]), alg.payoffs, myo.payoffs)
        assert experiment._table(None, payoffs) == (
            "bin_left,bin_right,algorithmic,myopic\n"
            "-0.5,0.0,0,0\n"
            "0.0,0.5,1,2\n"
            "0.5,1.0,1,0\n"
        )
        prices = experiment._histogram(np.array([0.0, 0.5, 1.0]), alg.prices_paid, myo.prices_paid)
        assert experiment._table(None, prices) == (
            "bin_left,bin_right,algorithmic,myopic\n"
            "0.0,0.5,0,0\n"
            "0.5,1.0,1,0\n"
        )


class TestConfig:
    def test_dict_round_trip(self):
        config = small_config(
            backend=RegressionBackend(kind="poly", degree=2),
            trace_trials=(3, 4),
            paired=False,
            fixed_v0=0.5,
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_missing_keys_take_defaults(self):
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()
        partial = ExperimentConfig.from_dict({"n_test": 7, "backend": {"kind": "poly"}})
        assert partial == ExperimentConfig(n_test=7, backend=RegressionBackend(kind="poly"))

    @pytest.mark.parametrize(
        "d, what, key",
        [
            ({"n_tets": 5}, "config", "n_tets"),
            ({"bins": {"payoff_lo": -1.0}}, "config", "bins"),
            ({"model": {"horizn": 3}}, "model", "horizn"),
            ({"backend": {"kernl": 1}}, "backend", "kernl"),
            ({"backend": {"support_cap": 2000}}, "backend", "support_cap"),
            ({"backend": {"kind": "kernel", "subsample_seed": 0}}, "backend", "subsample_seed"),
        ],
    )
    def test_unknown_key_named(self, d, what, key):
        with pytest.raises(ValueError, match=f"unknown {what} key.*'{key}'"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "d, what, key",
        [
            ({"model": {"horizon": 2.5}}, "model", "horizon"),
            ({"backend": {"degree": 2.5}}, "backend", "degree"),
            ({"n_train": True}, "config", "n_train"),
            ({"paired": "no"}, "config", "paired"),
            ({"n_test": "5"}, "config", "n_test"),
            ({"trace_trials": 3}, "config", "trace_trials"),
        ],
    )
    def test_wrong_value_type_named(self, d, what, key):
        with pytest.raises(ValueError, match=f"{what} key '{key}' must be a JSON"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "text, what, key",
        [
            ('{"model": {"mu_prior": NaN}}', "model", "mu_prior"),
            ('{"fixed_v0": Infinity}', "config", "fixed_v0"),
            ('{"model": {"sigma_eps": NaN}}', "model", "sigma_eps"),
            ('{"model": {"gamma": Infinity}}', "model", "gamma"),
        ],
    )
    def test_non_finite_number_named(self, text, what, key):
        # Python's json parses NaN and Infinity; the loader must not.
        with pytest.raises(ValueError, match=f"{what} key '{key}' must be a finite number"):
            ExperimentConfig.from_dict(json.loads(text))

    def test_negative_degree_named(self):
        with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
            ExperimentConfig.from_dict({"backend": {"kind": "poly", "degree": -1}})

    def test_int_passes_for_float_and_fixed_v0_takes_null(self):
        config = ExperimentConfig.from_dict({"model": {"gamma": 2}, "fixed_v0": 1})
        assert config.params.gamma == 2 and config.fixed_v0 == 1
        assert ExperimentConfig.from_dict({"fixed_v0": None}).fixed_v0 is None
        with pytest.raises(ValueError, match="'fixed_v0' must be a JSON number or null"):
            ExperimentConfig.from_dict({"fixed_v0": "0.5"})

    @pytest.mark.parametrize(
        "build, key",
        [
            (lambda: small_config(fixed_v0=math.inf), "fixed_v0"),
            (lambda: small_config(fixed_v0=math.nan), "fixed_v0"),
            (lambda: ExperimentConfig(n_train=2.5), "n_train"),
            (lambda: ExperimentConfig(n_test=True), "n_test"),
            (lambda: ModelParams(horizon=2.5), "horizon"),
            (lambda: ModelParams(horizon=True), "horizon"),
            (lambda: ModelParams(seed=1.0), "seed"),
        ],
    )
    def test_python_built_fault_named(self, build, key):
        # The JSON loader checks types; a config built in Python must fail as early.
        with pytest.raises(ValueError, match=f"^{key} must be"):
            build()

    def test_numpy_integers_pass(self):
        config = ExperimentConfig(
            params=ModelParams(horizon=np.int64(3), seed=np.uint64(7)), n_train=np.int32(5)
        )
        assert config.n_train == 5 and config.params.horizon == 3

    def test_one_default_seed(self):
        assert ModelParams().seed == experiment.DEFAULT_SEED
        config = ExperimentConfig.from_dict({"model": {"horizon": 25}})
        assert config.params.seed == experiment.DEFAULT_SEED

    def test_load_from_file(self, tmp_path):
        config = small_config()
        file = tmp_path / "config.json"
        file.write_text(json.dumps(config.to_dict()))
        assert load_config(file) == config

    def test_defaults_are_the_reference_setup(self):
        config = ExperimentConfig()
        assert config.params == ModelParams(
            horizon=25, gamma=1.0, sigma_eps=0.1, sigma_xi=1.0,
            mu_prior=1.0, sigma_v=1.0, seed=experiment.DEFAULT_SEED,
        )
        assert config.n_train == 500
        assert config.n_test == 1000
        assert config.backend.kind == "kernel"
        assert config.backend.bandwidth == 1.0
        assert config.backend.ridge == 1e-6
        assert config.paired

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(n_train=0)
        with pytest.raises(ValueError):
            small_config(trace_trials=(99,))  # outside the test set
        with pytest.raises(ValueError, match="trace trial 1.5 is not an integer"):
            small_config(trace_trials=(1.5,))
