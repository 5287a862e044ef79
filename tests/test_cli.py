"""Subcommand behavior, exit codes, and the machine-readable error line."""

import json

import pytest

from optstop.cli import main
from optstop.experiment import ExperimentConfig
from optstop.model import ModelParams
from optstop.policy_io import load_policy
from optstop.snell import FiniteStopProblem


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
    assert lines[1].startswith("path,t,")
    assert len(lines) == 2 + 40 * 7  # echo + header + n_train * (T+1)
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
    a = (a_out / "policy.txt").read_text()
    b = (b_out / "policy.txt").read_text()
    # identical regressors; metadata differs only in the train-domain note
    assert json.loads(a.split("\n", 2)[2])["regressors"] == \
        json.loads(b.split("\n", 2)[2])["regressors"]


def test_evaluate_independent_mode(config_file, tmp_path):
    train_out = tmp_path / "trained"
    main(["train", "--config", str(config_file), "--out", str(train_out)])
    out = tmp_path / "ind"
    rc = main(
        [
            "evaluate", "--config", str(config_file),
            "--policy", str(train_out / "policy.txt"),
            "--independent", "--out", str(out),
        ]
    )
    assert rc == 0
    assert not (out / "payoff_diff.csv").exists()


def test_trace_rows(config_file, tmp_path):
    out = tmp_path / "trace"
    rc = main(
        ["trace", "--config", str(config_file), "--trial", "2", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "trace_2.csv").read_text().splitlines()
    assert len(lines) == 2 + 7  # echo + header + T+1 epochs


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
    out = tmp_path / "poly"
    main(["train", "--config", str(config_file), "--backend", "poly", "--out", str(out)])
    policy = load_policy(out / "policy.txt")
    assert policy.metadata["backend"]["kind"] == "poly"


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


@pytest.mark.parametrize("n", [0, -1])
def test_simulate_nonpositive_n_is_an_error_line(config_file, tmp_path, capsys, n):
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", str(config_file), "--n", str(n), "--out", str(out)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip()[len("ERROR "):])
    assert payload["message"] == f"number of paths must be >= 1, got {n}"
    assert not out.exists()


def test_usage_error_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code != 0
