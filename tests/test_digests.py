"""Pinned digests of the seed-1 outputs: a change to any byte of them fails here.

Run it under `OPENBLAS_NUM_THREADS=1` as well as at the library default to
check that the outputs are byte-identical whatever the BLAS thread count.
"""

import hashlib

import pytest

from optstop import experiment, lsm, policy_io
from optstop.model import ModelParams
from optstop.regression import RegressionBackend
from optstop.snell import discretize_consumer_problem, simulate_paths

# sha256 prefixes of every file of run_experiment(reference_config(1,
# trace_trials=(0, 3, 999))).
SEED1_FILES = {
    "config.json": "1d165244dba08775",
    "exit_summary.csv": "5b3c27feb14c49f6",
    "payoff_diff.csv": "2780cf9105e7a329",
    "payoff_hist.csv": "76c7f7291986a131",
    "policy.txt": "116fc9e24fb6c2db",
    "price_hist.csv": "20cc2cb5b48b3eb0",
    "summary.csv": "1096bba2afcd8979",
    "trace_0.csv": "2178fda6b26a7e1a",
    "trace_3.csv": "f94e450e15ab1a50",
    "trace_999.csv": "d269340e0df54d6e",
}
# sha256 prefix of the tabular policy text, then the apply_policy exit times
# and payoffs, on the seed-1 (T, levels) lattice at 20,000 paths. Each law has
# levels**2 masses: (1, 9) draws by sorted search, the others by counting.
LATTICES = {
    (2, 4): "19986b8a56aad8e5",
    (3, 3): "27fa94a7ef89e9de",
    (4, 2): "e7456931bd93ac18",
    (1, 9): "0c9a8d1e947b171a",
}


def test_seed1_reference_outputs(tmp_path):
    config = experiment.reference_config(1, trace_trials=(0, 3, 999))
    experiment.run_experiment(config, tmp_path / "out")
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for p in (tmp_path / "out").iterdir()
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
