"""Subcommand behavior, exit codes, and the machine-readable error line."""

import builtins
import contextlib
import io
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from optstop import experiment, lsm, policy_io, snell
from optstop.cli import main
from optstop.experiment import ExperimentConfig, load_config, run_experiment
from optstop.model import ModelParams
from optstop.policy_io import load_policy
from optstop.regression import RegressionBackend
from optstop.snell import FiniteStopProblem


def error_class(name: str) -> type:
    """The exception class that an ERROR line's type names."""
    for module in (builtins, json, policy_io):
        cls = getattr(module, name, None)
        if isinstance(cls, type) and issubclass(cls, BaseException):
            return cls
    raise AssertionError(f"unknown error type {name!r}")


def cli_outcome(argv) -> tuple[int, dict | None]:
    """Run the command with every warning an error and hold it to the error
    line contract: exit 0 with nothing on stderr, or exit 1 with exactly one
    ERROR line whose type is ValueError or a subclass. Returns the exit code
    and that line's payload (None on exit 0)."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")  # a warning then reaches the ERROR line
        rc = main(argv)
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == [], argv
        return 0, None
    assert rc == 1 and len(lines) == 1 and lines[0].startswith("ERROR "), (argv, rc, lines)
    payload = json.loads(lines[0][len("ERROR "):])
    assert issubclass(error_class(payload["type"]), ValueError), (argv, payload)
    return 1, payload


@pytest.fixture()
def config_file(tmp_path):
    config = ExperimentConfig(
        params=ModelParams(horizon=6, seed=11), n_train=40, n_test=30
    )
    file = tmp_path / "config.json"
    file.write_text(json.dumps(config.to_dict()))
    return file


def test_simulate_writes_paths(config_file, tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 0
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[1].startswith("# seller_var,") and lines[2].startswith("path,t,")
    assert len(lines) == 3 + 40 * 7  # echo + seller_var + header + n_train * (T+1)
    assert "paths.csv" in capsys.readouterr().out


def test_train_then_evaluate(config_file, tmp_path, capsys):
    train_out = tmp_path / "trained"
    assert main(["train", "--config", str(config_file), "--out", str(train_out)]) == 0
    policy_file = train_out / "policy.txt"
    policy = load_policy(policy_file)
    assert policy.horizon == 6

    eval_out = tmp_path / "eval"
    rc = main(
        [
            "evaluate", "--config", str(config_file),
            "--policy", str(policy_file), "--out", str(eval_out),
        ]
    )
    assert rc == 0
    assert (eval_out / "summary.csv").exists()
    assert (eval_out / "payoff_diff.csv").exists()
    stdout = capsys.readouterr().out
    assert "mean_difference=" in stdout


def test_train_from_simulated_csv_matches_in_process(config_file, tmp_path):
    sim_out = tmp_path / "sim"
    main(["simulate", "--config", str(config_file), "--out", str(sim_out)])
    a_out = tmp_path / "a"
    b_out = tmp_path / "b"
    main(["train", "--config", str(config_file), "--out", str(a_out)])
    main(
        [
            "train", "--config", str(config_file),
            "--paths", str(sim_out / "paths.csv"), "--out", str(b_out),
        ]
    )
    # simulate writes the paths train draws, so both routes write the same bytes.
    assert (a_out / "policy.txt").read_bytes() == (b_out / "policy.txt").read_bytes()


def test_run_experiment_matches_train_then_evaluate(config_file, tmp_path, capsys):
    run_experiment(load_config(config_file), tmp_path / "run")
    assert main(["train", "--config", str(config_file), "--out", str(tmp_path / "fit")]) == 0
    policy = tmp_path / "fit" / "policy.txt"
    argv = ["evaluate", "--config", str(config_file), "--policy", str(policy)]
    assert main([*argv, "--out", str(tmp_path / "eval")]) == 0
    capsys.readouterr()
    evaluated = sorted(p.name for p in (tmp_path / "eval").iterdir())
    assert evaluated == [
        "exit_summary.csv", "payoff_diff.csv", "payoff_hist.csv", "price_hist.csv", "summary.csv",
    ]
    for name in evaluated:
        assert (tmp_path / "eval" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()
    assert policy.read_bytes() == (tmp_path / "run" / "policy.txt").read_bytes()


@pytest.mark.parametrize("flag", [["--n", "5"], ["--domain", "test"]], ids=["n", "domain"])
def test_retired_simulate_flag_is_a_usage_error(flag, tmp_path, capsys):
    # A path count is n_train of --config, so the echo says what the file holds.
    out = tmp_path / "sim"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *flag, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_train_from_csv_records_the_seed_that_made_it(tmp_path, capsys):
    sim = tmp_path / "sim"
    five = tmp_path / "five.json"
    five.write_text(json.dumps({"n_train": 5}))
    assert main(["simulate", "--config", str(five), "--seed", "7", "--out", str(sim)]) == 0
    csv = sim / "paths.csv"
    for argv, seed in ((["--seed", "7"], 7), ([], 7)):
        out = tmp_path / f"trained{len(argv)}"
        assert main(["train", "--paths", str(csv), "--out", str(out), *argv]) == 0
        assert load_policy(out / "policy.txt").metadata["seed"] == seed
    # Without a config echo, the seed is the command's, as before.
    bare = tmp_path / "bare.csv"
    bare.write_text("".join(csv.read_text().splitlines(keepends=True)[1:]))
    for argv, seed in ((["--seed", "3"], 3), ([], 1)):
        out = tmp_path / f"bare{len(argv)}"
        assert main(["train", "--paths", str(bare), "--out", str(out), *argv]) == 0
        assert load_policy(out / "policy.txt").metadata["seed"] == seed
    capsys.readouterr()

    # Only the echo's seed and horizon are read, so a key since retired does not stop training.
    old = tmp_path / "old.csv"
    old.write_text(csv.read_text().replace('"model": {', '"bins": 40, "model": {', 1))
    assert main(["train", "--paths", str(old), "--out", str(tmp_path / "old")]) == 0
    assert load_policy(tmp_path / "old" / "policy.txt").metadata["seed"] == 7
    capsys.readouterr()

    # A --config file states a seed only if its model holds one.
    bandwidth = tmp_path / "bandwidth.json"
    bandwidth.write_text(json.dumps({"backend": {"bandwidth": 0.8}}))
    assert main(["train", "--paths", str(csv), "--config", str(bandwidth), "--out", str(tmp_path / "bw")]) == 0
    metadata = load_policy(tmp_path / "bw" / "policy.txt").metadata
    assert metadata["seed"] == 7 and metadata["backend"]["bandwidth"] == 0.8
    capsys.readouterr()

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"seed": 5}}))
    for argv, given in (
        (["--seed", "3"], "--seed 3"),
        (["--config", str(config)], f"the seed 5 of --config {config}"),
    ):
        out = tmp_path / "clash"
        assert main(["train", "--paths", str(csv), "--out", str(out), *argv]) == 1
        payload = json.loads(capsys.readouterr().err.strip()[len("ERROR "):])
        assert payload == {
            "type": "ValueError",
            "message": f"{given} differs from the seed 7 in the config echo of {csv}",
        }
        assert not out.exists()


def test_train_names_a_faulty_field_of_a_paths_csv(config_file, tmp_path, capsys):
    sim = tmp_path / "sim"
    main(["simulate", "--config", str(config_file), "--out", str(sim)])
    lines = (sim / "paths.csv").read_text().splitlines(keepends=True)
    fields = lines[6].split(",")
    fields[2] = "abc"  # v of data row 4
    lines[6] = ",".join(fields)
    (sim / "paths.csv").write_text("".join(lines))
    out = tmp_path / "trained"
    assert main(["train", "--paths", str(sim / "paths.csv"), "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err.strip()[len("ERROR "):])
    assert payload == {
        "type": "ValueError", "message": "paths CSV data row 4: v field 'abc' is not a number",
    }
    assert not out.exists()


def cut_paths_csv(csv, out, last_t):
    """A copy of a paths CSV, its config echo and header kept, holding only
    the rows and the `# seller_var` values with t <= last_t."""
    echo, seller_var, *lines = csv.read_text().splitlines(keepends=True)
    seller_var = ",".join(seller_var.split(",")[: 2 + last_t]) + "\n"
    rows = [x for x in lines[1:] if int(x.split(",")[1]) <= last_t]
    out.write_text("".join([echo, seller_var, lines[0], *rows]))
    return out


def test_train_names_a_horizon_other_than_the_config_echo(config_file, tmp_path, capsys):
    # Cut to t <= 3, the file's paths and pi were made for horizon 6.
    sim = tmp_path / "sim"
    main(["simulate", "--config", str(config_file), "--out", str(sim)])
    cut = cut_paths_csv(sim / "paths.csv", tmp_path / "cut.csv", 3)
    out = tmp_path / "trained"
    assert main(["train", "--paths", str(cut), "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err.strip()[len("ERROR "):])
    assert payload == {
        "type": "ValueError",
        "message": f"paths CSV {cut} holds paths of horizon 3, "
                   "but its config echo says horizon 6",
    }
    assert not out.exists()
    # Without a config echo, the cut file trains as any horizon-3 file does.
    bare = tmp_path / "bare.csv"
    bare.write_text("".join(cut.read_text().splitlines(keepends=True)[1:]))
    assert main(["train", "--paths", str(bare), "--out", str(out)]) == 0
    assert load_policy(out / "policy.txt").horizon == 3


def test_train_names_a_paths_csv_of_one_row_per_path(config_file, tmp_path, capsys):
    sim = tmp_path / "sim"
    main(["simulate", "--config", str(config_file), "--out", str(sim)])
    cut = cut_paths_csv(sim / "paths.csv", tmp_path / "cut.csv", 0)
    out = tmp_path / "trained"
    assert main(["train", "--paths", str(cut), "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err.strip()[len("ERROR "):])
    assert payload == {
        "type": "ValueError",
        "message": "paths CSV has one row per path (t = 0 only); "
                   "a path needs the rows t = 0..T of a horizon T >= 1",
    }
    assert not out.exists()


def test_simulated_paths_csv_reads_in_plain_numpy(config_file, tmp_path):
    # No converter: the absent t = 0 observation is written nan, like any
    # missing value, so every column is a float that numpy's reader takes,
    # and so is every value of the `# seller_var` line.
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_file), "--out", str(sim)]) == 0
    csv = sim / "paths.csv"
    rows = np.loadtxt(csv, delimiter=",", comments="#", skiprows=3)
    assert rows.shape == (40 * 7, 7) and rows.dtype == np.float64
    t0 = rows[:, 1] == 0
    assert np.array_equal(np.isnan(rows), np.outer(t0, np.arange(7) == 3))
    assert t0.sum() == 40
    seller_var = np.loadtxt(
        csv, delimiter=",", comments=None, skiprows=1, max_rows=1, usecols=range(1, 8)
    )
    assert seller_var.shape == (7,) and np.isfinite(seller_var).all()
    config = load_config(config_file)
    batch = experiment.generate_paths(config.params, config.n_train, experiment.DOMAIN_TRAIN)
    assert seller_var.tobytes() == batch.seller_var.tobytes()


def test_train_names_an_empty_y_at_t0_as_an_older_format(config_file, tmp_path, capsys):
    sim = tmp_path / "sim"
    main(["simulate", "--config", str(config_file), "--out", str(sim)])
    echo, _, _, *rows = (sim / "paths.csv").read_text().splitlines(keepends=True)
    # As the versions that left y empty wrote it: every t = 0 row's y empty,
    # and h and seller_var in every row. The header names the format.
    old = tmp_path / "old.csv"
    old.write_text("".join([
        echo, "path,t,v,y,p,pi,h,seller_mean,seller_var\n",
        *(x.replace(",nan,", ",,", 1).rstrip("\n") + ",0.0,0.0,1.0\n" for x in rows),
    ]))
    out = tmp_path / "trained"
    assert main(["train", "--paths", str(old), "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err.strip()[len("ERROR "):])
    assert payload == {"type": "ValueError", "message": OLDER_HEADER}
    assert not out.exists()


# The hint that names the header of older versions.
OLDER_HEADER = (
    "paths CSV header ['path', 't', 'v', 'y', 'p', 'pi', 'h', 'seller_mean', 'seller_var'] "
    "is that of older versions; h is now max(pi, 0), derived on load, and seller_var is the "
    "# seller_var line above the header, so re-run optstop simulate under the file's config"
)


def test_train_names_a_paths_csv_with_h_and_seller_var_columns_as_an_older_format(
    config_file, tmp_path
):
    # As the versions before the `# seller_var` line wrote it: h and
    # seller_var in every row, y nan at t = 0, and no `# seller_var` line.
    sim = tmp_path / "sim"
    assert cli_outcome(["simulate", "--config", str(config_file), "--out", str(sim)]) == (0, None)
    config = load_config(config_file)
    batch = experiment.generate_paths(config.params, config.n_train, experiment.DOMAIN_TRAIN)
    echo, _, _, *rows = (sim / "paths.csv").read_text().splitlines(keepends=True)
    h, seller_var = batch.h.ravel().tolist(), np.tile(batch.seller_var, batch.n_paths).tolist()
    old = tmp_path / "old.csv"
    old.write_text("".join([
        echo, "path,t,v,y,p,pi,h,seller_mean,seller_var\n",
        *(f"{','.join(x.split(',')[:6])},{h[k]!r},{x.split(',')[6].rstrip()},{seller_var[k]!r}\n"
          for k, x in enumerate(rows)),
    ]))
    out = tmp_path / "trained"
    assert cli_outcome(["train", "--paths", str(old), "--out", str(out)]) == (1, {
        "type": "ValueError", "message": OLDER_HEADER,
    })
    assert not out.exists()


def test_evaluate_names_a_policy_horizon_other_than_the_config_before_drawing(
    config_file, tmp_path, monkeypatch
):
    fit = tmp_path / "fit"
    assert cli_outcome(["train", "--config", str(config_file), "--out", str(fit)]) == (0, None)
    h5 = tmp_path / "h5.json"
    h5.write_text(json.dumps({"model": {"horizon": 5}, "n_test": 20}))

    def no_draws(*args, **kwargs):
        raise AssertionError("evaluate drew test paths")

    monkeypatch.setattr(experiment, "generate_paths", no_draws)
    out = tmp_path / "eval"
    argv = ["evaluate", "--policy", str(fit / "policy.txt"), "--config", str(h5)]
    assert cli_outcome([*argv, "--out", str(out)]) == (1, {
        "type": "ValueError",
        "message": "the policy was trained at horizon 6, but the config's model horizon is 5; "
                   "evaluate it under its training config",
    })
    assert not out.exists()


def test_trace_rows(config_file, tmp_path):
    out = tmp_path / "trace"
    rc = main(
        ["trace", "--config", str(config_file), "--trial", "2", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "trace_2.csv").read_text().splitlines()
    assert len(lines) == 2 + 7  # echo + header + T+1 epochs


def test_trace_draws_only_the_traced_paths(config_file, tmp_path, monkeypatch):
    simulated = []
    simulate = experiment.simulate

    def counting(params, z):
        simulated.append(len(z))
        return simulate(params, z)

    monkeypatch.setattr(experiment, "simulate", counting)
    out = tmp_path / "trace"
    argv = ["trace", "--config", str(config_file), "--trial", "29", "--trial", "2"]
    assert main([*argv, "--trial", "29", "--out", str(out)]) == 0
    assert simulated == [2]  # of the 30 test paths, each traced one once
    config = load_config(config_file)
    full = experiment.generate_paths(config.params, config.n_test, experiment.DOMAIN_TEST)
    for i in (2, 29):
        text = (out / f"trace_{i}.csv").read_text()
        assert text == experiment.render_trace(full, i, config)


def test_trace_trial_outside_the_test_set_is_an_error_line(
    config_file, tmp_path, capsys, monkeypatch
):
    def no_paths(*args):
        raise AssertionError("the trial is checked before the test paths are drawn")

    monkeypatch.setattr(experiment, "generate_paths", no_paths)
    out = tmp_path / "trace"
    argv = ["trace", "--config", str(config_file), "--trial", "0", "--trial", "30"]
    assert main([*argv, "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err.strip()[len("ERROR "):])
    assert payload == {
        "type": "ValueError", "message": "trace trial 30 is not an integer in 0..29",
    }
    assert not out.exists()


def test_oracle_prints_root_value(tmp_path, capsys):
    problem = FiniteStopProblem(
        payoffs=[[0.5], [0.0, 1.2]], transitions=[[[0.5, 0.5]]]
    )
    fixture = tmp_path / "tree.json"
    fixture.write_text(json.dumps(problem.to_dict()))
    out = tmp_path / "sol"
    rc = main(["oracle", "--problem", str(fixture), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "root_value=0.6" in stdout
    assert (out / "solution.csv").read_text() == (
        "t,node,exit_payoff,envelope,stop\n"
        "0,0,0.5,0.6,0\n"
        "1,0,0.0,0.0,1\n"
        "1,1,1.2,1.2,1\n"
        "# root_value,0.6\n"
    )


def test_seed_override_changes_output(config_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(config_file), "--out", str(a)])
    main(["simulate", "--config", str(config_file), "--seed", "99", "--out", str(b)])
    assert (a / "paths.csv").read_bytes() != (b / "paths.csv").read_bytes()


def test_backend_override_recorded(config_file, tmp_path):
    out = tmp_path / "tabular"
    main(["train", "--config", str(config_file), "--backend", "tabular", "--out", str(out)])
    policy = load_policy(out / "policy.txt")
    assert policy.metadata["backend"]["kind"] == "tabular"


@pytest.mark.parametrize("command", ["simulate", "evaluate", "trace"])
def test_backend_is_a_usage_error_outside_train(command, tmp_path, capsys):
    # Only train fits a regression; elsewhere --backend would only change the echo.
    out = tmp_path / command
    given = ["--policy", str(tmp_path / "policy.txt")] if command == "evaluate" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *given, "--backend", "tabular", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --backend tabular" in capsys.readouterr().err
    assert not out.exists()


def test_retired_poly_backend_is_a_usage_error(config_file, tmp_path, capsys):
    out = tmp_path / "poly"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(config_file), "--backend", "poly", "--out", str(out)])
    assert exc.value.code == 2
    # Newer Pythons print the choices without quotes.
    assert re.search(r"\(choose from '?kernel'?, '?tabular'?\)$", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--independent", "--paired"])
def test_retired_evaluation_mode_flag_is_a_usage_error(flag, tmp_path, capsys):
    out = tmp_path / "eval"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--policy", str(tmp_path / "policy.txt"), flag, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["oracle", "train"])
def test_nonempty_out_fails_before_any_work(command, config_file, tmp_path, capsys, monkeypatch):
    # Checked before the command runs: it neither trains nor solves, and
    # oracle prints no root value before the error line.
    def work(*args, **kwargs):
        raise AssertionError("the command ran before its --out was checked")

    monkeypatch.setattr(lsm, "train", work)
    monkeypatch.setattr(snell, "backward_induction", work)
    problem = tmp_path / "tree.json"
    problem.write_text(json.dumps(
        {"payoffs": [[0.5], [0.0, 1.2]], "transitions": [[[0.5, 0.5]]]}
    ))
    out = tmp_path / "taken"
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    given = (["--problem", str(problem)] if command == "oracle"
             else ["--config", str(config_file)])
    assert main([command, *given, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err.strip()[len("ERROR "):])
    assert payload == {
        "type": "FileExistsError",
        "message": f"output directory {out} exists and is not empty",
    }
    assert [p.name for p in out.iterdir()] == ["keep.txt"]


def test_error_line_is_machine_readable(tmp_path, capsys):
    rc = main(
        [
            "evaluate", "--policy", str(tmp_path / "missing.txt"),
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("ERROR ")
    payload = json.loads(err[len("ERROR "):])
    assert payload["type"] == "PolicyFormatError"
    assert "message" in payload


def test_config_typo_is_an_error_line(tmp_path, capsys):
    file = tmp_path / "config.json"
    file.write_text(json.dumps({"n_tets": 5, "model": {"horizon": 3}}))
    rc = main(["train", "--config", str(file), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("ERROR ")
    payload = json.loads(err[len("ERROR "):])
    assert payload["type"] == "ValueError"
    assert "'n_tets'" in payload["message"]
    assert not (tmp_path / "x").exists()


def test_config_value_type_is_an_error_line(tmp_path, capsys):
    file = tmp_path / "config.json"
    file.write_text(json.dumps({"n_test": "5", "model": {"horizon": 3}}))
    rc = main(["train", "--config", str(file), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    payload = json.loads(err[len("ERROR "):])
    assert err.startswith("ERROR ") and payload["type"] == "ValueError"
    assert "config key 'n_test' must be a JSON integer" in payload["message"]
    assert not (tmp_path / "x").exists()


def test_config_non_finite_value_is_an_error_line(tmp_path, capsys):
    file = tmp_path / "config.json"
    file.write_text('{"model": {"horizon": 3, "sigma_eps": NaN}}')
    rc = main(["train", "--config", str(file), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    payload = json.loads(err[len("ERROR "):])
    assert err.startswith("ERROR ") and payload["type"] == "ValueError"
    assert "model key 'sigma_eps' must be a finite number" in payload["message"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "section, key, value, rc",
    [
        ("backend", "bandwidth", 0.001, 1),
        ("backend", "bandwidth", 1e-320, 1),
        ("backend", "ridge", 1e308, 1),
        ("model", "gamma", 1e200, 1),
        ("backend", "bandwidth", 1e308, 0),
        ("model", "mu_prior", 1e308, 1),
        ("model", "mu_prior", -1e308, 1),
    ],
    ids=[
        "bandwidth-tiny", "bandwidth-subnormal", "ridge-huge", "gamma-huge", "bandwidth-huge",
        "mu_prior-huge", "mu_prior-huge-negative",
    ],
)
def test_extreme_config_value_is_named_or_trains(section, key, value, rc, tmp_path):
    # A value the fit, the payoff or the pricing cannot take fails by its key,
    # with no warning on the way; a bandwidth too large to matter gives a
    # one-term fit.
    file = tmp_path / "config.json"
    file.write_text(json.dumps({"n_train": 20, "n_test": 20, section: {key: value}}))
    outcome, payload = cli_outcome(["train", "--config", str(file), "--out", str(tmp_path / "x")])
    assert outcome == rc
    if rc:
        assert payload["type"] == "ValueError"
        assert key in payload["message"]


# The config key sweep: each key of the model, the backend and the sizes set
# alone to each value. Each int above 50 (2**32, 2**40, 2**63 and 2**64) is
# too large for the arrays it sizes and is named before any is allocated.
SWEEP_KEYS = [
    *(("model", key) for key in ModelParams().to_dict()),
    *(("backend", key) for key in RegressionBackend().to_dict()),
    (None, "n_train"),
    (None, "n_test"),
]
SWEEP_VALUES = [
    0, -1, 1, 0.5, 1e308, -1e308, 1e200, 1e-200, 1e-320, 2**32, 2**40, 2**63, 2**64, -0.0,
    "x", True, None, [], {},
]


@pytest.mark.parametrize("command", ["train", "simulate"])
@pytest.mark.parametrize(
    "section, key", SWEEP_KEYS, ids=[f"{section or 'size'}.{key}" for section, key in SWEEP_KEYS]
)
def test_config_key_sweep_is_named_or_runs(command, section, key, tmp_path):
    for k, value in enumerate(SWEEP_VALUES):
        config = {"n_train": 20, "n_test": 20}
        if section is None:
            config[key] = value
        else:
            config[section] = {key: value}
        file = tmp_path / f"config{k}.json"
        file.write_text(json.dumps(config))
        outcome, payload = cli_outcome([command, "--config", str(file), "--out", str(tmp_path / f"o{k}")])
        if outcome:
            assert key in payload["message"], (value, payload)


@pytest.mark.parametrize("command", ["train", "simulate"])
@pytest.mark.parametrize("horizon", [2**61, 2**62, 2**63, 2**64])
def test_huge_horizon_is_named_before_any_array(command, horizon, tmp_path):
    # The draw matrix of 20 paths would not fit in a numpy array.
    file = tmp_path / "config.json"
    file.write_text(json.dumps({"n_train": 20, "model": {"horizon": horizon}}))
    out = tmp_path / "out"
    outcome, payload = cli_outcome([command, "--config", str(file), "--out", str(out)])
    assert outcome == 1
    assert payload["type"] == "ValueError"
    assert f"horizon {horizon} needs a 20 x {1 + 2 * horizon} draw matrix" in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "simulate", "trace"])
@pytest.mark.parametrize(
    "config, named",
    [
        # 320 TiB of draws, within numpy's index range.
        ({"n_train": 20, "model": {"horizon": 2**40}}, "n_train 20 at horizon 1099511627776"),
        # 1.6 TiB at the default horizon of 25.
        ({"n_train": 2**32}, "n_train 4294967296 at horizon 25"),
    ],
    ids=["horizon-2**40", "n_train-2**32"],
)
def test_run_over_the_size_budget_is_named_before_any_array(command, config, named, tmp_path):
    file = tmp_path / "config.json"
    file.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, "--config", str(file), "--out", str(out)]
    tracemalloc.start()
    try:
        outcome, payload = cli_outcome(argv + ["--trial", "0"] * (command == "trace"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == 1
    assert payload["type"] == "ValueError"
    assert payload["message"].startswith(named)
    assert "over the size budget of 2**30 = 1073741824 cells" in payload["message"]
    assert peak < 4 * 2**20, peak
    assert not out.exists()


def test_simulate_n_beyond_32_bit_path_indices_is_an_error_line(tmp_path, capsys):
    # Rejected by the size budget before the draw matrix (1.59 TiB at this
    # n) is allocated; the budget keeps every n within the 32-bit indices.
    out = tmp_path / "sim"
    n = 2**32 + 1
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n_train": n}))
    rc = main(["simulate", "--config", str(huge), "--out", str(out)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip()[len("ERROR "):])
    assert payload == {
        "type": "ValueError",
        "message": f"n_train {n} at horizon 25 needs a {n} x 51 draw matrix of {51 * n} cells, "
        "over the size budget of 2**30 = 1073741824 cells",
    }
    assert not out.exists()


def test_usage_error_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code != 0
