"""Shared fixtures: the default reproduction run is expensive enough to do once."""

from __future__ import annotations

import time

import pytest

from optstop import experiment


@pytest.fixture(scope="session")
def ref_config():
    return experiment.reference_config()


@pytest.fixture(scope="session")
def ref_run(ref_config):
    """(policy, train_batch, test_batch, report, wall_seconds) for the defaults."""
    t0 = time.perf_counter()
    policy, train_batch = experiment.train_policy(ref_config)
    report, test_batch = experiment.evaluate_policy(ref_config, policy)
    elapsed = time.perf_counter() - t0
    return policy, train_batch, test_batch, report, elapsed
