"""Purchase timing under personalized pricing, as an optimal stopping problem.

A consumer learns her valuation of a good step by step while a seller runs a
Kalman filter on noisy observations of it and prices to maximize expected
immediate revenue. This package simulates that interaction, trains
regression-based stopping policies on sample paths, benchmarks them against
the myopic buy-on-first-positive-payoff strategy, and validates everything
against an exact backward-induction oracle on small finite trees.
"""

from .consumer import ConsumerState, exit_payoff, initial_state, purchase_payoff, step_valuation
from .experiment import (
    ExperimentConfig,
    generate_paths,
    load_config,
    reference_config,
    run_experiment,
)
from .lsm import (
    EvaluationReport,
    ExitDecision,
    StoppingPolicy,
    decide,
    evaluate,
    myopic_decide,
    train,
)
from .model import ModelParams, PathBatch, SamplePath
from .policy_io import load_policy, save_policy
from .regression import KernelSpec, RegressionBackend
from .rng import RngStream, q_function
from .seller import GaussianBelief, kalman_correct, kalman_predict, myopic_price, seller_step
from .snell import (
    FiniteStopProblem,
    SnellSolution,
    backward_induction,
    discretize_consumer_problem,
    expected_stopped_payoff,
    stopping_time,
)

__version__ = "0.1.0"

__all__ = [
    "ConsumerState",
    "EvaluationReport",
    "ExitDecision",
    "ExperimentConfig",
    "FiniteStopProblem",
    "GaussianBelief",
    "KernelSpec",
    "ModelParams",
    "PathBatch",
    "RegressionBackend",
    "RngStream",
    "SamplePath",
    "SnellSolution",
    "StoppingPolicy",
    "backward_induction",
    "decide",
    "discretize_consumer_problem",
    "evaluate",
    "exit_payoff",
    "expected_stopped_payoff",
    "generate_paths",
    "initial_state",
    "kalman_correct",
    "kalman_predict",
    "load_config",
    "load_policy",
    "myopic_decide",
    "myopic_price",
    "purchase_payoff",
    "q_function",
    "reference_config",
    "run_experiment",
    "save_policy",
    "seller_step",
    "step_valuation",
    "stopping_time",
    "train",
]
