"""Pinned digests of the seed-1 outputs: a change to any byte of them fails here.

Run it under `OPENBLAS_NUM_THREADS=1` as well as at the library default to
check that the outputs are byte-identical whatever the BLAS thread count.
"""

import hashlib

import pytest

from optstop import experiment, lsm, policy_io
from optstop.cli import main
from optstop.model import ModelParams
from optstop.regression import RegressionBackend
from optstop.snell import discretize_consumer_problem, simulate_paths

# sha256 prefixes of every file of run_experiment(reference_config(1)), of
# `optstop trace --seed 1 --trial 0 --trial 3 --trial 999` and of `optstop
# simulate --seed 1` (a paths CSV of 13,002 lines).
SEED1_FILES = {
    "config.json": "bd1154944ceecc0c",
    "exit_summary.csv": "4528f6970ff332d5",
    "payoff_diff.csv": "a2fed19b2053ff19",
    "payoff_hist.csv": "199e114b84e95f35",
    "paths.csv": "310b10def53d860a",
    "policy.txt": "555e1eef110658e0",
    "price_hist.csv": "55b18da768715e38",
    "summary.csv": "f72a8047bf6f1702",
    "trace_0.csv": "e87f93e3ff0b6040",
    "trace_3.csv": "286b3cb3a88935fc",
    "trace_999.csv": "436a9ffacce857c0",
}
# sha256 prefix of the tabular policy text, then the apply_policy exit times
# and payoffs, on the seed-1 (T, levels) lattice at 20,000 paths. Each law has
# levels**2 masses, drawn through a guide table: (1, 9)'s masses are too close
# for one bucket each, so some of its paths are searched.
LATTICES = {
    (2, 4): "32d7180188ca8c11",
    (3, 3): "2edfa61a7b528866",
    (4, 2): "ce60c889c7f2fba9",
    (1, 9): "77b087ee52915425",
}


def test_seed1_reference_outputs(tmp_path, capsys):
    experiment.run_experiment(experiment.reference_config(1), tmp_path / "run")
    argv = ["trace", "--seed", "1", "--trial", "0", "--trial", "3", "--trial", "999"]
    assert main([*argv, "--out", str(tmp_path / "trace")]) == 0
    assert main(["simulate", "--seed", "1", "--out", str(tmp_path / "simulate")]) == 0
    capsys.readouterr()
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for d in ("run", "trace", "simulate")
        for p in (tmp_path / d).iterdir()
    }
    assert digests == SEED1_FILES


@pytest.mark.parametrize("horizon, levels", list(LATTICES))
def test_seed1_lattice_policy_and_payoffs(horizon, levels):
    problem = discretize_consumer_problem(ModelParams(horizon=horizon, seed=1), levels=levels)
    nodes, h = simulate_paths(problem, 20_000, 1, 0)
    policy = lsm.train(h, RegressionBackend(kind="tabular"), features=nodes.astype(float))
    nodes, h = simulate_paths(problem, 20_000, 1, 1)
    times, payoffs = lsm.apply_policy(policy, h, features=nodes.astype(float))
    digest = hashlib.sha256(policy_io.policy_to_text(policy).encode("utf-8"))
    digest.update(times.tobytes())
    digest.update(payoffs.tobytes())
    assert digest.hexdigest()[:16] == LATTICES[horizon, levels]
