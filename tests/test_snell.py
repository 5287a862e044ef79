"""Backward-induction oracle: envelope recursion, earliest stopping, and the
quantized consumer problem, validated against exhaustive rule enumeration."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from optstop.consumer import exit_payoff, purchase_payoff
from optstop.model import ModelParams
from optstop.rng import RngStream
from optstop import snell
from optstop.seller import kalman_correct, kalman_predict, myopic_price
from optstop.snell import (
    FiniteStopProblem,
    backward_induction,
    discretize_consumer_problem,
    expected_stopped_payoff,
    load_problem,
    simulate_paths,
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
        with pytest.raises(ValueError):
            FiniteStopProblem(
                payoffs=[np.array([0.5]), np.array([0.0, 1.2])],
                transitions=[np.array([[0.6, 0.5]])],
            )

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
        # The root continues; both nodes at t = 1 stop.
        assert not sol.stop[0][0]
        assert sol.stop[1][0] and sol.stop[1][1]
        assert expected_stopped_payoff(problem, sol) == pytest.approx(0.6, abs=1e-15)

    def test_constant_payoffs_stop_at_zero(self):
        problem = FiniteStopProblem(
            payoffs=[np.array([0.7]), np.array([0.7, 0.7])],
            transitions=[np.array([[0.4, 0.6]])],
        )
        sol = backward_induction(problem)
        assert sol.stop[0][0]  # the root stops, so every path stops at t = 0

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


def dense_gather_paths(problem: FiniteStopProblem, n: int, seed: int, domain: int = 0):
    """The former sampler: each path gathers its node's whole cumulative row
    and counts the entries below its uniform."""
    stream = RngStream(seed, path_index=0, domain=domain)
    nodes = np.zeros((n, problem.horizon + 1), dtype=np.int64)
    init = np.searchsorted(np.cumsum(problem.initial), stream.uniform(size=n), side="right")
    nodes[:, 0] = np.minimum(init, len(problem.initial) - 1)
    for t, m in enumerate(problem.transitions):
        u_t = stream.uniform(size=n)
        rows = np.cumsum(m, axis=1)[nodes[:, t]]
        nodes[:, t + 1] = np.minimum((u_t[:, None] > rows).sum(axis=1), m.shape[1] - 1)
    h = np.stack([problem.payoffs[t][nodes[:, t]] for t in range(problem.horizon + 1)], axis=1)
    return nodes, h


def random_law_tree(rng) -> FiniteStopProblem:
    """Small random epoch graph whose rows mix one shared law (placed on
    varying columns), distinct laws and zero-mass columns; the initial
    distribution may have zeros too."""
    sizes = rng.integers(1, 7, size=rng.integers(2, 5))

    def law(width):
        w = np.where(rng.random(width) < 0.3, 0.0, rng.uniform(0.1, 1.0, size=width))
        w[rng.integers(width)] = 0.5  # at least one positive mass
        return w / w.sum()

    transitions = []
    for t in range(len(sizes) - 1):
        width = sizes[t + 1]
        masses = law(width)
        masses = masses[masses > 0]
        rows = []
        for _ in range(sizes[t]):
            if rng.random() < 0.6:
                row = np.zeros(width)
                row[np.sort(rng.choice(width, size=len(masses), replace=False))] = masses
            else:
                row = law(width)
            rows.append(row)
        transitions.append(np.array(rows))
    return FiniteStopProblem(
        payoffs=[rng.uniform(0, 1, size=n) for n in sizes],
        transitions=transitions,
        initial=law(sizes[0]),
    )


class TestSimulatePaths:
    def test_zero_uniform_skips_leading_zero_mass(self):
        p = np.array([[0.0, 0.0, 0.25, 0.75]])
        rows = np.zeros(3, dtype=np.int64)
        assert snell._Sampler(p).draw(rows, np.array([0.0, 0.25, 0.2500001])).tolist() == [2, 2, 3]

    def test_uniform_above_row_total_clamps_to_last_mass(self):
        p = np.array([[0.5, 0.5 - 1e-13, 0.0, 0.0]])
        assert p.sum() < 1 - 2**-53
        rows = np.zeros(1, dtype=np.int64)
        assert snell._Sampler(p).draw(rows, np.array([1 - 2**-53])).tolist() == [1]

    @pytest.mark.parametrize("width", [1, 2, 3, 9, 16, 27, 48, 49, 81])
    def test_one_law_count_equals_search_bitwise(self, width):
        # One law placed on different columns of each row, with zero-mass
        # columns between; its masses sum to just short of 1.
        rng = np.random.default_rng(width)
        masses = rng.uniform(0.1, 1.0, size=width)
        masses *= (1 - 1e-13) / masses.sum()
        cum = np.cumsum(masses)
        assert cum[-1] < 1 - 2**-53
        table = np.zeros((5, 2 * width + 1))
        for row in table:
            row[np.sort(rng.choice(len(row), size=width, replace=False))] = masses
        # u = 0, each cumulative mass (a tie goes left) and the float below
        # it, u at or above the row total, and random uniforms.
        above = np.append(rng.uniform(cum[-1], 1, size=50), 1 - 2**-53)
        u = np.concatenate([[0.0], cum, np.nextafter(cum, 0), above, rng.random(2000)])
        rows = rng.integers(len(table), size=len(u))
        drawn = snell._Sampler(table).draw(rows, u)
        columns = np.nonzero(table > 0)[1].reshape(len(table), width)
        search = columns[rows, np.minimum(np.searchsorted(cum, u, side="left"), width - 1)]
        assert drawn.dtype == search.dtype
        assert drawn.tobytes() == search.tobytes()
        count = columns[rows, np.minimum((u[:, None] > cum).sum(axis=1), width - 1)]
        assert drawn.tolist() == count.tolist()
        assert np.all(table[rows, drawn] > 0)

    @pytest.mark.parametrize("max_buckets", [1, 4, snell.MAX_BUCKETS])
    @pytest.mark.parametrize(
        "masses",
        [
            [1.0],                                  # w = 1: every u draws rank 0
            [0.25, 0.25, 0.5],                      # masses on bucket edges
            [0.3, 1e-9, 2e-9, 0.1, 0.6 - 3e-9],     # masses closer than any bucket
            [0.5, 0.25, 0.125, 0.0625, 0.0625 - 1e-13],  # sums short of 1
            list(np.outer([0.25, 0.5, 0.25], [0.25, 0.5, 0.25]).ravel()),
        ],
        ids=["one", "edges", "crowded", "short", "kron"],
    )
    def test_guide_table_ranks_equal_count_bitwise(self, masses, max_buckets, monkeypatch):
        # The former count (k += mass < u over the first w - 1 cumulative
        # masses) at u = 0, at each cumulative mass and the float below and
        # above it, on every bucket edge up to 1/8, above the law's total and
        # at random; on dense (row * w + k) and gathered supports alike.
        monkeypatch.setattr(snell, "MAX_BUCKETS", max_buckets)
        w = len(masses)
        cum = np.cumsum(masses)
        edges = np.arange(8 * max(max_buckets, 64)) / (8 * max(max_buckets, 64))
        u = np.concatenate([
            [0.0, 1 - 2**-53], cum[cum < 1], np.nextafter(cum, 0), np.nextafter(cum[cum < 1], 1),
            edges, np.nextafter(edges[1:], 0), np.random.default_rng(w).random(3000),
        ])
        u = u[(u >= 0) & (u < 1)]
        k = np.zeros(len(u), dtype=np.int64)
        for mass in cum[: w - 1]:
            k += mass < u
        for table, support in (
            (np.kron(np.eye(3), masses), np.arange(3 * w).reshape(3, w)),
            (np.insert(np.kron(np.eye(3), masses), [0, w, 2 * w], 0.0, axis=1),
             np.arange(3 * w).reshape(3, w) + np.arange(1, 4)[:, None]),
        ):
            rows = np.arange(len(u)) % 3
            sampler = snell._Sampler(table)
            assert sampler.n_buckets <= max_buckets
            drawn = sampler.draw(rows, u)
            assert drawn.tobytes() == support[rows, k].tobytes()
            # A one-row table, like the initial law, broadcasts its one row.
            root = snell._Sampler(table[:1]).draw(np.zeros(1, dtype=np.int64), u)
            assert root.tobytes() == support[0, k].tobytes()
        if masses[1:3] == [1e-9, 2e-9]:
            assert sampler.crowded is not None and sampler.crowded.any()

    def test_samplers_analyse_each_table_once_per_problem(self, monkeypatch):
        # Each table's analysis ends in one np.unique over its cumulative rows.
        problem = discretize_consumer_problem(ModelParams(horizon=2, seed=1), levels=2)
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
        train = simulate_paths(problem, 1000, seed=1, domain=0)
        test = simulate_paths(problem, 1000, seed=1, domain=1)
        assert len(calls) == problem.horizon + 1
        monkeypatch.undo()
        fresh = discretize_consumer_problem(ModelParams(horizon=2, seed=1), levels=2)
        for domain, paths in enumerate((train, test)):
            again = simulate_paths(fresh, 1000, seed=1, domain=domain)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(paths, again))

    def test_random_trees_equal_dense_gather_bitwise(self):
        rng = np.random.default_rng(26)
        for i in range(200):
            problem = random_law_tree(rng)
            nodes, h = simulate_paths(problem, 300, seed=i, domain=2)
            want_nodes, want_h = dense_gather_paths(problem, 300, seed=i, domain=2)
            assert nodes.tobytes() == want_nodes.tobytes(), i
            assert h.tobytes() == want_h.tobytes(), i
            assert np.all(problem.initial[nodes[:, 0]] > 0)
            for t, m in enumerate(problem.transitions):
                assert np.all(m[nodes[:, t], nodes[:, t + 1]] > 0)

    @pytest.mark.parametrize("horizon, levels", [(2, 4), (3, 3), (4, 2), (1, 9), (None, None)])
    def test_equals_dense_gather_bitwise(self, horizon, levels):
        if horizon is None:
            problem = random_tree(np.random.default_rng(25), branching=[3, 2, 4])
        else:
            problem = discretize_consumer_problem(ModelParams(horizon=horizon, seed=5), levels)
        nodes, h = simulate_paths(problem, 5_000, seed=51, domain=1)
        want_nodes, want_h = dense_gather_paths(problem, 5_000, seed=51, domain=1)
        assert nodes.tobytes() == want_nodes.tobytes()
        assert h.tobytes() == want_h.tobytes()
        for t, m in enumerate(problem.transitions):
            assert np.all(m[nodes[:, t], nodes[:, t + 1]] > 0)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "3", None])
    def test_rejects_a_path_count_that_is_not_an_integer(self, n):
        # A float failed inside numpy without naming the path count.
        with pytest.raises(ValueError, match=f"^number of paths must be an integer, got {n!r}$"):
            simulate_paths(two_epoch_tree(), n, seed=1)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        # 1.5 and True drew seed 1's paths.
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            simulate_paths(two_epoch_tree(), 10, seed=seed)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_path(self, n):
        # Unchecked, n = 0 returned empty arrays that train a myopic policy
        # and n = -1 failed inside numpy without naming the path count.
        with pytest.raises(ValueError, match=f"number of paths must be >= 1, got {n}"):
            simulate_paths(two_epoch_tree(), n, seed=1)

    def test_memory_linear_in_paths(self):
        # A dense gather holds paths x next-epoch nodes doubles: ~350 MB here.
        problem = discretize_consumer_problem(ModelParams(horizon=3, seed=1), levels=3)
        tracemalloc.start()
        try:
            nodes, h = simulate_paths(problem, 20_000, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 10 * (nodes.nbytes + h.nbytes) + max(m.nbytes for m in problem.transitions)
        assert peak < bound


class TestDiscretizedConsumerProblem:
    def test_single_level_degenerate_chain(self):
        # At horizon 40 a leaf has 81 draws, more than np.indices can index.
        for horizon in (4, 40):
            params = ModelParams(horizon=horizon, seed=1)
            problem = discretize_consumer_problem(params, levels=1)
            assert all(len(h) == 1 for h in problem.payoffs)
            sol = backward_induction(problem)
            deterministic_h = [float(h[0]) for h in problem.payoffs]
            assert sol.root_value == pytest.approx(max(deterministic_h), abs=1e-15)

    def test_three_level_tree_shape_and_probabilities(self):
        params = ModelParams(horizon=3, seed=1)
        problem = discretize_consumer_problem(params, levels=3)
        assert [len(h) for h in problem.payoffs] == [3, 27, 243, 2187]
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
        # A node is (valuation, seller mean); the seller variance is one per epoch.
        var = params.sigma_v**2
        nodes = [(params.mu_prior + params.sigma_v * x, params.mu_prior) for x in points]
        for t in range(params.horizon + 1):
            if t > 0:
                children = []
                trans = np.zeros((len(nodes), len(nodes) * levels * levels))
                prior_var = kalman_predict(var, params)
                for parent, (v_parent, mean) in enumerate(nodes):
                    for j in range(levels):
                        v = v_parent + params.sigma_eps * points[j]
                        for k in range(levels):
                            y = v + params.sigma_xi * points[k]
                            trans[parent, len(children)] = weights[j] * weights[k]
                            post_mean, var = kalman_correct(mean, prior_var, y, params)
                            children.append((v, post_mean))
                nodes = children
                assert problem.transitions[t - 1].tobytes() == trans.tobytes()
            want = [exit_payoff(purchase_payoff(v, myopic_price(m, var), t, params)) for v, m in nodes]
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

    def test_unknown_key_named(self):
        d = two_epoch_tree().to_dict()
        d["intial"] = d.pop("initial")
        with pytest.raises(ValueError, match="unknown problem key.*'intial'"):
            FiniteStopProblem.from_dict(d)

    @pytest.mark.parametrize("key", ["payoffs", "transitions"])
    def test_missing_required_key_named(self, key):
        d = two_epoch_tree().to_dict()
        del d[key]
        with pytest.raises(ValueError, match=f"missing required key '{key}'"):
            FiniteStopProblem.from_dict(d)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"payoffs": [], "transitions": []}, r"^payoffs must list at least one epoch$"),
            ({"payoffs": [0.5, [0.0, 1.2]]}, r"^payoffs\[0\] must be a non-empty 1-D array"),
            ({"payoffs": [[0.5], [0.0, [1.2]]]}, r"^payoffs\[1\] must be a non-empty 1-D array"),
            ({"payoffs": [["a"], [0.0, 1.2]]}, r"^payoffs\[0\] must be a non-empty 1-D array"),
            ({"transitions": 3}, r"^transitions must be a list of per-epoch arrays, got 3$"),
            ({"transitions": [[[0.5, 0.5], [1.0]]]}, r"^transitions\[0\] must be a non-empty 2-D"),
            ({"initial": [None]}, r"^initial must be a non-empty 1-D array"),
            ({"horizon": True}, r"^declared horizon True does not match payoffs \(1\)$"),
        ],
    )
    def test_malformed_fields_named(self, edit, message):
        # The README's oracle example, as the CLI reads it, with one edit.
        d = {"payoffs": [[0.5], [0.0, 1.2]], "transitions": [[[0.5, 0.5]]], **edit}
        with pytest.raises(ValueError, match=message):
            FiniteStopProblem.from_dict(d)

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"transitions": []}, r"^need T\+1 payoff arrays and T transition matrices, got 2 and 0$"),
            ({"transitions": [[[0.5], [0.5]]]}, r"^transition 0 has shape \(2, 1\), expected \(1, 2\)$"),
            ({"transitions": [[[1.5, -0.5]]]}, r"^transition 0 has negative entries$"),
            ({"transitions": [[[0.6, 0.5]]]}, r"^transition 0 rows must sum to 1 within 1e-12$"),
            ({"initial": [0.5, 0.5]}, r"^initial distribution length must match epoch-0 node count$"),
            ({"initial": [0.9]}, r"^initial distribution must be nonnegative and sum to 1$"),
        ],
        ids=["count", "shape", "negative", "row-sum", "initial-length", "initial-sum"],
    )
    def test_faulty_problem_rejected_when_built(self, edit, message):
        # The two-epoch tree with one fault: it never reaches an oracle, so
        # expected_stopped_payoff cannot value a row summing to 1.1.
        kwargs = {"payoffs": [[0.5], [0.0, 1.2]], "transitions": [[[0.5, 0.5]]], **edit}
        with pytest.raises(ValueError, match=message):
            FiniteStopProblem(**kwargs)
