"""Backward training, online deployment, the myopic baseline, and their
equivalence/adaptedness contracts."""

import hashlib
import re

import numpy as np
import pytest

from optstop import lsm
from optstop.lsm import (
    StoppingPolicy,
    apply_myopic,
    apply_policy,
    decide,
    evaluate,
    myopic_decide,
    train,
)
from optstop.model import ModelParams
from optstop.regression import (
    BACKEND_KINDS,
    PolynomialRegressor,
    RegressionBackend,
    TabularRegressor,
    ZeroRegressor,
    kernel_terms,
)
from optstop.snell import backward_induction, discretize_consumer_problem, simulate_paths


def decide_loop(policy, h_row, pi_row, feature_row=None):
    """Reference per-path deployment: feed decide() growing prefixes and
    return (exit time, exit payoff)."""
    for t in range(policy.horizon + 1):
        feats = None if feature_row is None else feature_row[: t + 1]
        payoff = decide(policy, h_row[: t + 1], float(pi_row[t]), feats)
        if payoff is not None:
            return t, payoff
    raise AssertionError("no exit by the horizon")


def myopic_loop(h_row, pi_row, horizon):
    for t in range(horizon + 1):
        payoff = myopic_decide(h_row[: t + 1], float(pi_row[t]), horizon)
        if payoff is not None:
            return t, payoff
    raise AssertionError("no exit by the horizon")


def constant_policy(horizon: int, levels: list[float]) -> StoppingPolicy:
    """Policy whose epoch-t estimator is the constant levels[t]."""
    regs = [PolynomialRegressor(np.array([c])) for c in levels]
    return StoppingPolicy(horizon=horizon, regressors=regs, metadata={})


class TestTrain:
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_single_path_hand_trace(self, kind):
        # One path, T=1: the only regression has one point (0.5 -> 0.2);
        # 0.5 > 0.2, so the path stops at t=0 with cashflow 0.5.
        policy, cf = train(
            [[0.5, 0.2]], RegressionBackend(kind=kind), return_cashflows=True
        )
        assert np.array_equal(cf.stop_values, [0.5])
        # kernel backend carries its default ridge, so allow that much slack
        assert policy.regressors[0].predict(0.5) == pytest.approx(0.2, abs=1e-5)
        assert decide(policy, [0.5], 0.5) == 0.5

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_training_calls_no_lapack(self, kind, monkeypatch):
        # Every fit runs in numpy's own loops, so a policy's bits cannot
        # depend on the BLAS thread count; a LAPACK call here would fail.
        def lapack(*args, **kwargs):
            raise AssertionError("training called LAPACK")

        for name in ("lstsq", "solve", "qr", "cholesky", "svd", "inv", "pinv", "eigh"):
            monkeypatch.setattr(np.linalg, name, lapack)
        rng = np.random.default_rng(3)
        h = np.maximum(rng.normal(0.2, 0.5, size=(200, 5)), 0.0)
        times, _ = apply_policy(train(h, RegressionBackend(kind=kind)), h)
        assert np.all((0 <= times) & (times <= 4))

    def test_all_zero_paths_give_zero_regressors(self):
        h = np.zeros((8, 5))
        policy, cf = train(h, RegressionBackend(), return_cashflows=True)
        assert all(isinstance(r, ZeroRegressor) for r in policy.regressors)
        assert not cf.stop_values.any()

    def test_cashflows_are_the_trained_rule_payoffs(self, ref_run):
        # Each path's realized cashflow is the exit payoff the trained rule
        # takes on it, bit for bit: on the seed-1 training batch (kernel) ...
        _, train_batch, _, _, _ = ref_run
        policy, cf = train(train_batch.h, RegressionBackend(), return_cashflows=True)
        assert np.array_equal(cf.stop_values, apply_policy(policy, train_batch.h)[1])
        # ... and on a lattice with exact node features (tabular).
        problem = discretize_consumer_problem(ModelParams(horizon=3, seed=5), levels=3)
        nodes, h = simulate_paths(problem, 20_000, seed=51, domain=0)
        feats = nodes.astype(float)
        policy, cf = train(
            h, RegressionBackend(kind="tabular"), features=feats, return_cashflows=True
        )
        assert np.array_equal(cf.stop_values, apply_policy(policy, h, features=feats)[1])

    def test_metadata_records_numerics_and_backend(self):
        h = np.array([[0.5, 0.5, 0.2], [0.0, 0.1, 0.3]])
        policy = train(h, RegressionBackend(), metadata={"seed": 9})
        meta = policy.metadata
        # Each thing once: the horizon is the payload's, not the metadata's.
        assert set(meta) == {"seed", "n_train", "backend", "feature", "numerics"}
        assert set(meta["numerics"]) == {"epochs"}
        assert meta["n_train"] == 2
        assert meta["backend"] == RegressionBackend().to_dict()
        assert meta["backend"]["ridge"] == 1e-6
        assert meta["feature"] == "exit_payoff"
        # Epoch 1: both paths in the money, targets 0.2 and 0.3 nearly
        # interpolated on [0.1, 0.5] (15 Taylor terms); 0.5 > 0.2 stops path 0.
        # Epoch 0: only path 0 in the money, target 0.5 shrunk by the ridge
        # to 0.4999995 < 0.5, so it stops again; one term on a single point.
        assert meta["numerics"]["epochs"] == [
            {"in_the_money": 1, "support": 1, "terms": 1, "tail_bound": 0.0, "stopped": 1},
            {"in_the_money": 2, "support": 2, "terms": 15,
             "tail_bound": kernel_terms(0.5 - 0.1, 1.0)[1], "stopped": 1},
        ]
        tabular = train(h, RegressionBackend(kind="tabular")).metadata["numerics"]["epochs"]
        assert [(e["support"], e["terms"], e["tail_bound"]) for e in tabular] == [(None,) * 3] * 2
        assert meta["seed"] == 9

    def test_custom_features_flagged(self):
        h = np.array([[0.5, 0.2], [0.1, 0.0]])
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        policy = train(h, RegressionBackend(kind="tabular"), features=feats)
        assert policy.metadata["feature"] == "custom"

    def test_rejects_bad_inputs(self):
        backend = RegressionBackend()
        with pytest.raises(ValueError):
            train(np.array([[-0.1, 0.2]]), backend)  # negative payoff
        with pytest.raises(ValueError):
            train(np.array([[np.nan, 0.2]]), backend)
        with pytest.raises(ValueError):
            train(np.array([0.5, 0.2]), backend)  # 1-D
        with pytest.raises(ValueError):
            train(np.array([[0.5, 0.2]]), backend, features=np.array([[1.0]]))

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_rejects_an_empty_path_batch(self, kind):
        # Unchecked, no epoch has an in-the-money path and the "trained"
        # policy is the myopic rule of ZeroRegressors with n_train 0.
        with pytest.raises(ValueError, match="number of paths must be >= 1, got 0"):
            train(np.zeros((0, 4)), RegressionBackend(kind=kind))

    def test_regression_failure_reports_epoch(self):
        class ExplodingBackend:
            kind = "boom"

            def fit(self, xs, ys):
                raise ValueError("boom")

            def to_dict(self):
                return {"kind": "boom"}

        with pytest.raises(ValueError, match="^regression failed at epoch t=1: boom$"):
            train(np.array([[0.0, 0.5, 0.1]]), ExplodingBackend())


class TestDecide:
    def test_terminal_purchase_and_reject(self):
        policy = constant_policy(2, [0.0, 0.0])
        assert decide(policy, [0.0, 0.0, 0.3], 0.3) == 0.3
        assert decide(policy, [0.0, 0.0, 0.0], -0.4) == 0.0

    def test_early_exit_on_strictly_better_payoff(self):
        policy = constant_policy(3, [0.1, 0.1, 0.1])
        assert decide(policy, [0.4], 0.4) == 0.4

    def test_tie_continues(self):
        policy = StoppingPolicy(
            horizon=1,
            regressors=[TabularRegressor(np.array([0.5]), np.array([0.5]), 0.5)],
            metadata={},
        )
        assert decide(policy, [0.5], 0.5) is None

    def test_zero_payoff_exit_is_a_rejection(self):
        # A negative continuation estimate makes H=0 "exit"; that exit cannot
        # be a purchase since the purchase payoff is nonpositive, so it pays 0.
        policy = constant_policy(2, [-0.5, -0.5])
        assert decide(policy, [0.0], -0.2) == 0.0

    def test_prefix_validation(self):
        policy = constant_policy(1, [0.0])
        with pytest.raises(ValueError):
            decide(policy, [0.1, 0.1, 0.1], 0.1)  # longer than T+1
        with pytest.raises(ValueError):
            decide(policy, [0.5], 0.7)  # H inconsistent with pi

    def test_myopic_first_positive(self):
        h = np.array([0.0, 0.0, 0.1, 0.9])
        pi = np.array([-0.5, -0.1, 0.1, 0.9])
        assert myopic_loop(h, pi, 3) == (2, pytest.approx(0.1))

    def test_myopic_never_positive_rejects_at_horizon(self):
        h = np.zeros(4)
        pi = np.full(4, -0.3)
        assert myopic_loop(h, pi, 3) == (3, 0.0)

    def test_myopic_immediate_greed(self):
        assert myopic_decide([0.2], 0.2, 5) == 0.2


class TestVectorizedEquivalence:
    def test_apply_policy_matches_decide_loop(self, ref_run):
        policy, _, test_batch, _, _ = ref_run
        h, pi = test_batch.h[:200], test_batch.pi[:200]
        times, payoffs = apply_policy(policy, h)
        for n in range(len(h)):
            assert decide_loop(policy, h[n], pi[n]) == (times[n], payoffs[n])

    def test_apply_myopic_matches_decide_loop(self, ref_run):
        _, _, test_batch, _, _ = ref_run
        h, pi = test_batch.h[:200], test_batch.pi[:200]
        times, payoffs = apply_myopic(h)
        for n in range(len(h)):
            assert myopic_loop(h[n], pi[n], h.shape[1] - 1) == (times[n], payoffs[n])

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_predicts_only_for_live_paths(self, ref_run, kind):
        # A batch of paths that exit at t = 0 and one that browses on: from
        # t = 1 the estimators see that lone path and nothing else.
        _, train_batch, test_batch, _, _ = ref_run
        policy = train(train_batch.h, RegressionBackend(kind=kind))
        h, pi = test_batch.h[:200], test_batch.pi[:200]
        expected = [decide_loop(policy, h[n], pi[n]) for n in range(len(h))]
        first = [n for n, (t, _) in enumerate(expected) if t == 0][:5]
        later = [n for n, (t, _) in enumerate(expected) if t >= 2][:1]
        assert len(first) == 5 and len(later) == 1
        rows = first + later
        seen = [[] for _ in range(policy.horizon)]

        class Recording:
            def __init__(self, reg, t):
                self.reg, self.t = reg, t

            def predict(self, x):
                seen[self.t].append(np.array(x, copy=True))
                return self.reg.predict(x)

        recorded = StoppingPolicy(
            policy.horizon, [Recording(reg, t) for t, reg in enumerate(policy.regressors)]
        )
        times, payoffs = apply_policy(recorded, h[rows])
        assert [(times[i], payoffs[i]) for i in range(len(rows))] == [expected[n] for n in rows]
        stop = expected[later[0]][0]
        assert [len(calls) for calls in seen] == [1] * stop + [0] * (policy.horizon - stop)
        assert np.array_equal(seen[0][0], h[rows, 0])
        for t in range(1, stop):
            assert np.array_equal(seen[t][0], h[later, t])

    def test_every_path_exits_by_horizon(self, ref_run):
        policy, _, test_batch, _, _ = ref_run
        times, _ = apply_policy(policy, test_batch.h)
        assert np.all((0 <= times) & (times <= policy.horizon))

    def test_horizon_mismatch_rejected(self):
        policy = constant_policy(2, [0.0, 0.0])
        with pytest.raises(ValueError):
            apply_policy(policy, np.zeros((3, 5)))

    @pytest.mark.parametrize(
        "h_shape, features_shape, message",
        [
            ((3, 3), (2, 3), "features shape (2, 3) must match h shape (3, 3)"),
            ((3, 3), (3, 2), "features shape (3, 2) must match h shape (3, 3)"),
            ((3,), None, "h must be (N, T+1) with T = policy horizon 2, got shape (3,)"),
        ],
    )
    def test_bad_shapes_named(self, h_shape, features_shape, message):
        policy = constant_policy(2, [0.0, 0.0])
        features = None if features_shape is None else np.zeros(features_shape)
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_policy(policy, np.zeros(h_shape), features=features)

    @pytest.mark.parametrize(
        "cell, value", [((0, 3), np.nan), ((1, 2), -0.5), ((2, 0), np.inf), ((1, 1), -np.inf)]
    )
    def test_bad_exit_payoffs_rejected(self, cell, value):
        h = np.full((3, 4), 0.25)
        h[cell] = value
        message = "^exit payoffs must be finite and nonnegative$"
        with pytest.raises(ValueError, match=message):
            apply_policy(constant_policy(3, [0.5, 0.5, 0.5]), h)
        with pytest.raises(ValueError, match=message):
            apply_myopic(h)
        with pytest.raises(ValueError, match=message):
            train(h, RegressionBackend())

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_non_finite_features_named(self, kind):
        # Every backend rejects a NaN feature the same way; unchecked, kernel
        # kept browsing on it while tabular exited.
        h = np.array([[0.5, 0.2], [0.3, 0.4], [0.1, 0.0]])
        policy = train(h, RegressionBackend(kind=kind), features=h + 1)
        bad = h + 1
        bad[0, 0] = np.nan
        message = "^features must be finite$"
        with pytest.raises(ValueError, match=message):
            apply_policy(policy, h, features=bad)
        with pytest.raises(ValueError, match=message):
            decide(policy, h[0, :1], 0.5, bad[0, :1])
        with pytest.raises(ValueError, match=message):
            train(h, RegressionBackend(kind=kind), features=bad)


class TestAdaptedness:
    def test_future_mutations_cannot_change_decisions(self, ref_run):
        policy, _, test_batch, _, _ = ref_run
        rng = np.random.default_rng(77)
        h, pi = test_batch.h, test_batch.pi
        for n in range(50):
            for t in range(policy.horizon + 1):
                mutated_h = h[n].copy()
                mutated_pi = pi[n].copy()
                if t < policy.horizon:
                    mutated_pi[t + 1 :] = rng.uniform(-1, 1, policy.horizon - t)
                    mutated_h[t + 1 :] = np.maximum(mutated_pi[t + 1 :], 0.0)
                args = (h[n][: t + 1], float(pi[n][t]))
                mutated_args = (mutated_h[: t + 1], float(mutated_pi[t]))
                assert decide(policy, *args) == decide(policy, *mutated_args)
                assert myopic_decide(*args, policy.horizon) == myopic_decide(
                    *mutated_args, policy.horizon
                )


class TestAgainstExactOracle:
    def test_tabular_node_features_approach_oracle_value(self):
        # Exact-state features + tabular backend = true conditional
        # expectations, so the trained rule's value converges to the
        # backward-induction optimum.
        params = ModelParams(horizon=2, seed=3)
        problem = discretize_consumer_problem(params, levels=2)
        solution = backward_induction(problem)
        nodes, h = simulate_paths(problem, 40_000, seed=11, domain=0)
        policy, cf = train(
            h,
            RegressionBackend(kind="tabular"),
            features=nodes.astype(float),
            return_cashflows=True,
        )
        assert cf.training_value == pytest.approx(solution.root_value, rel=0.02)

        fresh_nodes, fresh_h = simulate_paths(problem, 40_000, seed=12, domain=1)
        _, payoffs = apply_policy(policy, fresh_h, features=fresh_nodes.astype(float))
        se = payoffs.std(ddof=1) / np.sqrt(len(payoffs))
        assert payoffs.mean() <= solution.root_value + 3 * se
        assert payoffs.mean() == pytest.approx(solution.root_value, rel=0.02)

    def test_default_feature_policy_respects_oracle_bound(self):
        # Exit-payoff features lose state information; the value must still
        # never exceed the optimum.
        params = ModelParams(horizon=3, seed=3)
        problem = discretize_consumer_problem(params, levels=2)
        solution = backward_induction(problem)
        _, h = simulate_paths(problem, 30_000, seed=21, domain=0)
        policy = train(h, RegressionBackend(kind="kernel"))
        _, fresh_h = simulate_paths(problem, 30_000, seed=22, domain=1)
        _, payoffs = apply_policy(policy, fresh_h)
        se = payoffs.std(ddof=1) / np.sqrt(len(payoffs))
        assert payoffs.mean() <= solution.root_value + 3 * se

    def test_dominates_forced_terminal_exit(self, ref_run):
        policy, _, test_batch, _, _ = ref_run
        _, payoffs = apply_policy(policy, test_batch.h)
        terminal = test_batch.h[:, -1]
        se = terminal.std(ddof=1) / np.sqrt(len(terminal))
        assert payoffs.mean() >= terminal.mean() - 3 * se


class TestEvaluate:
    def test_zero_policy_reproduces_myopic_exactly(self, ref_run):
        # Zero estimators exit iff H > 0 -- the myopic rule; the paired
        # comparison must then be identically zero on every path.
        _, _, test_batch, _, _ = ref_run
        zero_policy = StoppingPolicy(
            horizon=test_batch.horizon,
            regressors=[ZeroRegressor()] * test_batch.horizon,
            metadata={},
        )
        report = evaluate(zero_policy, test_batch)
        assert np.array_equal(report.differences, np.zeros(report.n_trials))
        assert report.n_ties == report.n_trials
        assert report.mean_difference == 0.0
        assert np.array_equal(report.algorithmic.times, report.myopic.times)

    def test_paired_report_aggregates_recomputable(self, ref_run):
        _, _, _, report, _ = ref_run
        alg, myo = report.algorithmic, report.myopic
        assert report.mean_algorithmic == alg.payoffs.mean()
        assert report.mean_myopic == myo.payoffs.mean()
        assert report.mean_difference == pytest.approx(
            float((alg.payoffs - myo.payoffs).mean()), abs=1e-15
        )
        assert report.n_ties == int((alg.payoffs == myo.payoffs).sum())
        assert alg.n_purchases == int(alg.purchased.sum())
        assert np.array_equal(alg.prices_paid, alg.prices_at_exit[alg.purchased])

    def test_standard_errors_and_interval(self, ref_run):
        _, _, _, report, _ = ref_run
        n = report.n_trials
        alg_se = report.algorithmic.payoffs.std(ddof=1) / np.sqrt(n)
        myo_se = report.myopic.payoffs.std(ddof=1) / np.sqrt(n)
        diff_se = report.differences.std(ddof=1) / np.sqrt(n)
        assert report.algorithmic.mean_payoff_se == pytest.approx(alg_se, rel=1e-12)
        assert report.myopic.mean_payoff_se == pytest.approx(myo_se, rel=1e-12)
        # Paired: the per-trial differences, which the shared path makes
        # tighter than treating the two means as independent.
        assert report.mean_difference_se == pytest.approx(diff_se, rel=1e-12)
        assert report.mean_difference_se < np.hypot(alg_se, myo_se)
        low, high = report.mean_difference_ci95
        assert report.mean_difference - low == pytest.approx(1.959963984540054 * diff_se)
        assert high - report.mean_difference == pytest.approx(1.959963984540054 * diff_se)

    def test_paired_mode_hashes_the_batch_once(self, ref_run):
        policy, _, test_batch, _, _ = ref_run
        report = evaluate(policy, test_batch)
        assert report.paths_sha256 == hashlib.sha256(test_batch.h.tobytes()).hexdigest()

    def test_standard_error_of_one_trial_is_nan(self):
        one = lsm.StrategyOutcome(
            times=np.array([0]), payoffs=np.array([0.5]), prices_at_exit=np.array([1.0]),
            valuations_at_exit=np.array([1.5]),
        )
        report = lsm.EvaluationReport(one, one, paths_sha256="")
        assert np.isnan(one.mean_payoff_se) and np.isnan(report.mean_difference_se)
        assert all(np.isnan(report.mean_difference_ci95))
