"""Backward-induction oracle: envelope recursion, earliest stopping, and the
quantized consumer problem, validated against exhaustive rule enumeration."""

import itertools
import json

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from optstop.consumer import ConsumerState, exit_payoff, initial_state, purchase_payoff
from optstop.model import ModelParams
from optstop.seller import GaussianBelief, kalman_correct, kalman_predict, myopic_price
from optstop.snell import (
    FiniteStopProblem,
    backward_induction,
    discretize_consumer_problem,
    expected_stopped_payoff,
    load_problem,
    simulate_paths,
    stopping_time,
)


def rule_value(problem: FiniteStopProblem, labels: list[np.ndarray]) -> float:
    """Expected payoff of an arbitrary per-node stop/continue rule (forward pass)."""
    total = 0.0
    mass = problem.initial.copy()
    for t in range(problem.horizon + 1):
        stopped = np.where(labels[t], mass, 0.0)
        total += float(stopped @ problem.payoffs[t])
        mass = mass - stopped
        if t < problem.horizon:
            mass = mass @ problem.transitions[t]
    return total


def enumerate_rule_values(problem: FiniteStopProblem):
    """Every adapted stopping rule = one stop/continue label per interior node
    (terminal nodes always stop). Yields each rule's expected payoff."""
    interior = [(t, i) for t in range(problem.horizon) for i in range(len(problem.payoffs[t]))]
    for bits in itertools.product((False, True), repeat=len(interior)):
        labels = [np.zeros(len(h), dtype=bool) for h in problem.payoffs]
        labels[problem.horizon][:] = True
        for (t, i), b in zip(interior, bits):
            labels[t][i] = b
        yield rule_value(problem, labels)


def two_epoch_tree() -> FiniteStopProblem:
    # Root pays 0.5; children pay 0 or 1.2 with probability 1/2 each.
    return FiniteStopProblem(
        payoffs=[np.array([0.5]), np.array([0.0, 1.2])],
        transitions=[np.array([[0.5, 0.5]])],
    )


def random_tree(rng, branching, payoff_scale=1.0) -> FiniteStopProblem:
    """Random tree with the given per-epoch branching factors."""
    counts = [1]
    for b in branching:
        counts.append(counts[-1] * b)
    payoffs = [payoff_scale * rng.uniform(0, 1, size=c) for c in counts]
    transitions = []
    for t, b in enumerate(branching):
        m = np.zeros((counts[t], counts[t + 1]))
        for i in range(counts[t]):
            w = rng.uniform(0.1, 1.0, size=b)
            m[i, i * b : (i + 1) * b] = w / w.sum()
        transitions.append(m)
    return FiniteStopProblem(payoffs=payoffs, transitions=transitions)


class TestBackwardInduction:
    def test_single_epoch_forced_exit(self):
        problem = FiniteStopProblem(payoffs=[np.array([0.4])], transitions=[])
        sol = backward_induction(problem)
        assert sol.root_value == 0.4
        assert sol.stop[0][0]

    def test_two_epoch_hand_computed(self):
        problem = two_epoch_tree()
        sol = backward_induction(problem)
        assert sol.root_value == pytest.approx(0.6, abs=1e-15)
        assert not sol.stop[0][0]  # continuation (0.6) beats exit (0.5)
        assert sol.stop[1].all()
        assert max(enumerate_rule_values(problem)) == pytest.approx(0.6, abs=1e-15)

    def test_decreasing_chain_stops_immediately(self):
        problem = FiniteStopProblem(
            payoffs=[np.array([0.3]), np.array([0.2]), np.array([0.1])],
            transitions=[np.array([[1.0]]), np.array([[1.0]])],
        )
        sol = backward_induction(problem)
        assert sol.root_value == 0.3
        assert sol.stop[0][0]

    def test_rejects_malformed_transition_rows(self):
        problem = FiniteStopProblem(
            payoffs=[np.array([0.5]), np.array([0.0, 1.2])],
            transitions=[np.array([[0.6, 0.5]])],
        )
        with pytest.raises(ValueError):
            backward_induction(problem)

    def test_supermartingale_and_domination(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            problem = random_tree(rng, branching=[2, 3, 2])
            sol = backward_induction(problem)
            for t in range(problem.horizon):
                cont = problem.transitions[t] @ sol.values[t + 1]
                assert np.all(sol.values[t] >= cont - 1e-12)
                assert np.all(sol.values[t] >= problem.payoffs[t])
            assert np.all(sol.values[problem.horizon] == problem.payoffs[problem.horizon])

    def test_raising_a_payoff_never_lowers_the_value(self):
        rng = np.random.default_rng(22)
        problem = random_tree(rng, branching=[2, 2])
        base = backward_induction(problem).root_value
        for t in range(problem.horizon + 1):
            for i in range(len(problem.payoffs[t])):
                bumped = FiniteStopProblem(
                    payoffs=[h.copy() for h in problem.payoffs],
                    transitions=[m.copy() for m in problem.transitions],
                    initial=problem.initial.copy(),
                )
                bumped.payoffs[t][i] += 0.25
                assert backward_induction(bumped).root_value >= base - 1e-12


class TestEarliestStopping:
    def test_two_epoch_rule_and_value(self):
        problem = two_epoch_tree()
        sol = backward_induction(problem)
        assert stopping_time(sol, [0, 0]) == 1
        assert stopping_time(sol, [0, 1]) == 1
        assert expected_stopped_payoff(problem, sol) == pytest.approx(0.6, abs=1e-15)

    def test_constant_payoffs_stop_at_zero(self):
        problem = FiniteStopProblem(
            payoffs=[np.array([0.7]), np.array([0.7, 0.7])],
            transitions=[np.array([[0.4, 0.6]])],
        )
        sol = backward_induction(problem)
        assert sol.stop[0][0]
        assert stopping_time(sol, [0, 1]) == 0

    def test_dominates_every_enumerable_rule(self):
        rng = np.random.default_rng(23)
        problem = random_tree(rng, branching=[3, 3, 3])  # 13 interior nodes
        sol = backward_induction(problem)
        value = expected_stopped_payoff(problem, sol)
        assert value == pytest.approx(sol.root_value, abs=1e-12)
        best = max(enumerate_rule_values(problem))
        assert value == pytest.approx(best, abs=1e-12)

    def test_simulated_paths_realize_the_root_value(self):
        rng_tree = np.random.default_rng(24)
        problem = random_tree(rng_tree, branching=[2, 3])
        sol = backward_induction(problem)
        nodes, h = simulate_paths(problem, 200_000, seed=42)
        stops = np.stack(
            [sol.stop[t][nodes[:, t]] for t in range(problem.horizon + 1)], axis=1
        )
        first = stops.argmax(axis=1)
        payoffs = h[np.arange(len(h)), first]
        se = payoffs.std(ddof=1) / np.sqrt(len(payoffs))
        assert abs(payoffs.mean() - sol.root_value) <= 3 * se


class TestDiscretizedConsumerProblem:
    def test_single_level_degenerate_chain(self):
        params = ModelParams(horizon=4, seed=1)
        problem = discretize_consumer_problem(params, levels=1)
        assert all(len(h) == 1 for h in problem.payoffs)
        sol = backward_induction(problem)
        deterministic_h = [float(h[0]) for h in problem.payoffs]
        assert sol.root_value == pytest.approx(max(deterministic_h), abs=1e-15)

    def test_three_level_tree_shape_and_probabilities(self):
        params = ModelParams(horizon=3, seed=1)
        problem = discretize_consumer_problem(params, levels=3)
        assert [len(h) for h in problem.payoffs] == [3, 27, 243, 2187]
        problem.validate()  # row sums checked to 1e-12 inside
        assert problem.initial.sum() == pytest.approx(1.0, abs=1e-12)

    def test_earliest_rule_attains_root_value_on_consumer_tree(self):
        # Too many interior nodes to enumerate; check tau_min by simulation.
        params = ModelParams(horizon=3, seed=1)
        problem = discretize_consumer_problem(params, levels=3)
        sol = backward_induction(problem)
        nodes, h = simulate_paths(problem, 200_000, seed=7)
        stops = np.stack(
            [sol.stop[t][nodes[:, t]] for t in range(problem.horizon + 1)], axis=1
        )
        first = stops.argmax(axis=1)
        payoffs = h[np.arange(len(h)), first]
        se = payoffs.std(ddof=1) / np.sqrt(len(payoffs))
        assert abs(payoffs.mean() - sol.root_value) <= 3 * se

    def test_small_consumer_tree_matches_enumeration(self):
        # 10 interior nodes -> 1024 adapted rules, fully enumerable.
        params = ModelParams(horizon=2, seed=1)
        problem = discretize_consumer_problem(params, levels=2)
        sol = backward_induction(problem)
        best = max(enumerate_rule_values(problem))
        assert sol.root_value == pytest.approx(best, abs=1e-12)

    def test_nodes_equal_scalar_api_replay_bitwise(self):
        # Reference: walk the tree node by node through the scalar API, children
        # ordered (parent, valuation shock, observation noise).
        params = ModelParams(horizon=2, sigma_eps=0.3, seed=1)
        levels = 3
        problem = discretize_consumer_problem(params, levels)
        gh_x, gh_w = hermgauss(levels)
        points, weights = gh_x * np.sqrt(2.0), gh_w / np.sqrt(np.pi)
        prior = GaussianBelief(params.mu_prior, params.sigma_v**2)
        nodes = [(initial_state(params.mu_prior + params.sigma_v * x, params), prior) for x in points]
        for t in range(params.horizon + 1):
            if t > 0:
                children = []
                trans = np.zeros((len(nodes), len(nodes) * levels * levels))
                for parent, (state, belief) in enumerate(nodes):
                    for j in range(levels):
                        v = state.v + params.sigma_eps * points[j]
                        child = ConsumerState(t, v, (params.horizon - t) * params.sigma_eps**2)
                        for k in range(levels):
                            y = v + params.sigma_xi * points[k]
                            trans[parent, len(children)] = weights[j] * weights[k]
                            children.append(
                                (child, kalman_correct(kalman_predict(belief, params), y, params))
                            )
                nodes = children
                assert problem.transitions[t - 1].tobytes() == trans.tobytes()
            want = [exit_payoff(purchase_payoff(s, myopic_price(b), params)) for s, b in nodes]
            assert problem.payoffs[t].tobytes() == np.array(want).tobytes(), t

    def test_node_budget_enforced(self):
        params = ModelParams(horizon=4, seed=1)
        with pytest.raises(ValueError):
            discretize_consumer_problem(params, levels=4)

    def test_levels_must_be_positive(self):
        with pytest.raises(ValueError):
            discretize_consumer_problem(ModelParams(horizon=2), levels=0)


class TestProblemSerialization:
    def test_fixture_file_round_trip(self, tmp_path):
        problem = two_epoch_tree()
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(problem.to_dict()), encoding="utf-8")
        loaded = load_problem(path)
        assert backward_induction(loaded).root_value == pytest.approx(0.6, abs=1e-15)

    def test_declared_horizon_mismatch_rejected(self):
        d = two_epoch_tree().to_dict()
        d["horizon"] = 5
        with pytest.raises(ValueError):
            FiniteStopProblem.from_dict(d)

    def test_initial_distribution_required_for_wide_root(self):
        with pytest.raises(ValueError):
            FiniteStopProblem(
                payoffs=[np.array([0.1, 0.2]), np.array([0.3, 0.4])],
                transitions=[np.eye(2)],
            )
