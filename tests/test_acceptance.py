"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optstop
from optstop import experiment, lsm
from optstop.lsm import apply_policy, decide, myopic_decide, train
from optstop.model import ModelParams
from optstop.regression import RegressionBackend
from optstop.rng import q_function
from optstop.snell import backward_induction, discretize_consumer_problem, simulate_paths

from test_seller import batch_posterior, grid_price, run_filter
from test_snell import enumerate_rule_values, random_tree


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _run_cli(args: list[str], blas_threads: str | None) -> None:
    """Run `python -m optstop.cli *args` in a fresh process with
    OPENBLAS_NUM_THREADS set to blas_threads, or unset for the library
    default."""
    src = str(Path(optstop.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    subprocess.run(
        [sys.executable, "-m", "optstop.cli", *args],
        env=env, check=True, capture_output=True, timeout=300,
    )


class TestReproduction:
    def test_criterion_1_payoff_means_and_runtime(self, ref_run):
        _, _, _, report, elapsed = ref_run
        diff, myo = report.mean_difference, report.mean_myopic
        ok = 0.04 <= diff <= 0.10 and 0.20 <= myo <= 0.26 and elapsed <= 60.0
        _criterion(
            1, ok,
            f"mean improvement {diff:.4f} in [0.04, 0.10], "
            f"myopic mean {myo:.4f} in [0.20, 0.26], runtime {elapsed:.1f}s <= 60s",
        )

    def test_criterion_2_purchase_frequencies(self, ref_run):
        _, _, _, report, _ = ref_run
        alg, myo = report.algorithmic.n_purchases, report.myopic.n_purchases
        ok = 635 <= alg <= 735 and 785 <= myo <= 865
        _criterion(
            2, ok,
            f"algorithmic purchases {alg}/1000 in [635, 735], "
            f"myopic purchases {myo}/1000 in [785, 865]",
        )

    def test_criterion_3_tie_frequency(self, ref_run):
        _, _, _, report, _ = ref_run
        ok = 307 <= report.n_ties <= 427
        _criterion(3, ok, f"equal-payoff trials {report.n_ties}/1000 in [307, 427]")

    def test_criterion_4_first_price(self, ref_run):
        _, _, test_batch, _, _ = ref_run
        p0 = float(test_batch.p[0, 0])
        shared = bool((test_batch.p[:, 0] == p0).all())
        reference = grid_price(1.0, 1.0)  # maximizer of p * Q(p - 1), 1e-5 grid
        ok = shared and abs(p0 - reference) <= 1e-3 and abs(p0 - 1.1) < 0.05
        _criterion(
            4, ok,
            f"first price {p0:.5f} within 1e-3 of grid maximizer {reference:.5f}, "
            f"shared by all trials, near 1.1",
        )


class TestOracleEquivalence:
    def test_criterion_5_lsm_matches_backward_induction(self):
        details = []
        ok = True
        for horizon, levels in [(2, 4), (3, 3), (4, 2)]:
            params = ModelParams(horizon=horizon, seed=5)
            problem = discretize_consumer_problem(params, levels=levels)
            solution = backward_induction(problem)
            u0 = solution.root_value

            nodes, h = simulate_paths(problem, 100_000, seed=51, domain=0)
            policy, cf = train(
                h,
                RegressionBackend(kind="tabular"),
                features=nodes.astype(float),
                return_cashflows=True,
            )
            fresh_nodes, fresh_h = simulate_paths(problem, 100_000, seed=52, domain=1)
            _, payoffs = apply_policy(policy, fresh_h, features=fresh_nodes.astype(float))
            value = payoffs.mean()
            se = payoffs.std(ddof=1) / math.sqrt(len(payoffs))

            case_ok = (
                abs(cf.training_value - u0) <= 0.01 * abs(u0)
                and abs(value - u0) <= 0.01 * abs(u0)
                and value <= u0 + 3 * se
            )
            ok = ok and case_ok
            details.append(
                f"T={horizon},levels={levels}: U0={u0:.5f}, "
                f"train={cf.training_value:.5f}, fresh={value:.5f} (3se={3 * se:.5f})"
            )
        _criterion(5, ok, "; ".join(details))

    def test_criterion_6_exhaustive_rule_optimality(self):
        rng = np.random.default_rng(61)
        details = []
        ok = True
        # 1, 2, and 7 interior nodes: 2, 4, and 128 adapted rules (all <= 200).
        for branching in ([2], [1, 2], [2, 2, 2]):
            problem = random_tree(rng, branching=branching)
            solution = backward_induction(problem)
            values = list(enumerate_rule_values(problem))
            best = max(values)
            case_ok = (
                abs(solution.root_value - best) <= 1e-12
                and all(solution.root_value >= v - 1e-12 for v in values)
            )
            ok = ok and case_ok
            details.append(
                f"{len(values)} rules: tau_min value {solution.root_value:.12f} "
                f"== enumerated max {best:.12f}"
            )
        _criterion(6, ok, "; ".join(details))


class TestModelCorrectness:
    def test_criterion_7_kalman_recursive_equals_batch(self):
        rng = np.random.default_rng(71)
        worst = 0.0
        for _ in range(100):
            params = ModelParams(
                horizon=5,
                sigma_eps=float(rng.uniform(0.01, 0.5)),
                sigma_xi=float(rng.uniform(0.1, 2.0)),
                mu_prior=float(rng.uniform(-1.0, 2.0)),
                sigma_v=float(rng.uniform(0.2, 2.0)),
            )
            t = int(rng.integers(1, 6))
            ys = rng.normal(params.mu_prior, 1.0, size=t)
            got_mean, got_var = run_filter(params, ys)
            mean, var = batch_posterior(params, ys)
            worst = max(worst, abs(got_mean - mean), abs(got_var - var))
        ok = worst <= 1e-10
        _criterion(
            7, ok,
            f"recursive vs batch posterior: worst deviation {worst:.2e} <= 1e-10 "
            f"over 100 random sequences (t <= 5)",
        )

    def test_criterion_8_payoff_formula_against_monte_carlo(self):
        from optstop.consumer import purchase_payoff

        rng = np.random.default_rng(81)
        worst_sigmas = 0.0
        for gamma in (0.5, 1.0, 2.0):
            for gap in (-0.3, 0.0, 0.4):
                for steps_left, sigma_eps in ((1, 0.1), (5, 0.2), (25, 0.1)):
                    params = ModelParams(horizon=25, gamma=gamma, sigma_eps=sigma_eps)
                    residual = steps_left * sigma_eps**2
                    closed = purchase_payoff(1.0 + gap, 1.0, params.horizon - steps_left, params)
                    x = gap + math.sqrt(residual) * rng.standard_normal(10**6)
                    samples = 1.0 - np.exp(-gamma * x)
                    se = samples.std(ddof=1) / 1e3
                    worst_sigmas = max(worst_sigmas, abs(closed - samples.mean()) / se)
        ok = worst_sigmas <= 3.0
        _criterion(
            8, ok,
            f"closed form vs 1e6-sample Monte Carlo over 27-point grid: "
            f"worst deviation {worst_sigmas:.2f} standard errors <= 3",
        )

    def test_criterion_9_adaptedness(self, ref_run):
        policy, _, test_batch, _, _ = ref_run
        rng = np.random.default_rng(91)
        h, pi = test_batch.h, test_batch.pi
        horizon = policy.horizon
        checked = 0
        ok = True
        for n in range(h.shape[0]):  # all 1000 test paths
            t = int(rng.integers(0, horizon))  # mutate strictly after t
            mut_pi = pi[n].copy()
            mut_h = h[n].copy()
            mut_pi[t + 1 :] = rng.uniform(-1.0, 1.0, horizon - t)
            mut_h[t + 1 :] = np.maximum(mut_pi[t + 1 :], 0.0)
            base = decide(policy, h[n][: t + 1])
            mutated = decide(policy, mut_h[: t + 1])
            myo_base = myopic_decide(h[n][: t + 1], horizon)
            myo_mut = myopic_decide(mut_h[: t + 1], horizon)
            ok = ok and base == mutated and myo_base == myo_mut
            checked += 1
        _criterion(
            9, ok,
            f"decisions at time t unchanged by mutations at times > t "
            f"on {checked} random paths, both policies",
        )


class TestDeterminism:
    def test_criterion_10_byte_identical_runs(self, ref_config, tmp_path):
        # Each run: run_experiment's files, then the traces of test trials 0
        # and 1 as `optstop trace` renders them.
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            experiment.run_experiment(ref_config, outdir=out)
            batch = experiment.generate_paths(
                ref_config.params, ref_config.n_test, experiment.DOMAIN_TEST
            )
            for i in (0, 1):
                text = experiment.render_trace(batch, i, ref_config)
                (out / f"trace_{i}.csv").write_text(text, encoding="utf-8")
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        identical = names_a == names_b and all(
            (out_a / name).read_bytes() == (out_b / name).read_bytes()
            for name in names_a
        )
        _criterion(
            10, identical,
            f"two runs with equal config emit byte-identical files ({len(names_a)} files)",
        )

    def test_policy_independent_of_blas_thread_count(self, tmp_path):
        # The default-config policy (500 paths, T=25, kernel) trained in a
        # fresh process with one OpenBLAS thread and with the library default:
        # every reduction in the kernel fit and prediction runs in a fixed
        # order, so the files must be byte-identical.
        digests = {}
        for threads in ("1", None):
            out = tmp_path / f"threads-{threads or 'default'}"
            _run_cli(["train", "--out", str(out)], threads)
            digests[threads] = hashlib.sha256((out / "policy.txt").read_bytes()).hexdigest()
        _criterion(
            10, digests["1"] == digests[None],
            f"policy.txt sha256 {digests['1'][:12]} (1 BLAS thread) vs "
            f"{digests[None][:12]} (default threads)",
        )

    def test_oracle_solution_independent_of_blas_thread_count(self, tmp_path):
        # The (2, 4) consumer lattice: its 64 x 1024 transition is large
        # enough for OpenBLAS to thread a matrix-vector product. Backward
        # induction runs its expectations in einsum, so solution.csv must be
        # byte-identical under one OpenBLAS thread and the library default.
        problem = discretize_consumer_problem(ModelParams(horizon=2, seed=1), levels=4)
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(problem.to_dict()), encoding="utf-8")
        texts = {}
        for threads in ("1", None):
            out = tmp_path / f"threads-{threads or 'default'}"
            _run_cli(["oracle", "--problem", str(path), "--out", str(out)], threads)
            texts[threads] = (out / "solution.csv").read_bytes()
        _criterion(
            10, texts["1"] == texts[None],
            f"solution.csv sha256 {hashlib.sha256(texts['1']).hexdigest()[:12]} "
            f"(1 BLAS thread) vs {hashlib.sha256(texts[None]).hexdigest()[:12]} "
            f"(default threads)",
        )
