"""Exact finite-horizon optimal stopping on explicitly enumerated trees.

Backward induction computes the smallest supermartingale dominating the exit
payoff process,

    U_T = H_T,    U_t = max(H_t, E[U_{t+1} | node at t]),

and the earliest optimal stopping rule stops at the first epoch where
U = H. This is the ground-truth oracle used to validate the regression-based
engine on problems small enough to enumerate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import consumer, seller
from .model import ModelParams, check_keys
from .rng import RngStream

# Payoffs are O(1) and backward induction accumulates at most T rounding
# steps, so equality of U and H is tested at absolute 1e-12.
EQUALITY_TOL = 1e-12
_PROB_TOL = 1e-12

NODE_BUDGET = 10_000


@dataclass
class FiniteStopProblem:
    """An explicit finite tree carrying exit payoffs and transition laws.

    payoffs[t]     -- exit payoff per node at epoch t, arrays of shape (n_t,)
    transitions[t] -- row-stochastic (n_t, n_{t+1}) matrices, t = 0..T-1
    initial        -- distribution over epoch-0 nodes (point mass for a
                      single-root tree)
    """

    payoffs: list[np.ndarray]
    transitions: list[np.ndarray]
    initial: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.payoffs = [np.asarray(h, dtype=float) for h in self.payoffs]
        self.transitions = [np.asarray(m, dtype=float) for m in self.transitions]
        if self.initial is None:
            if len(self.payoffs[0]) != 1:
                raise ValueError("initial distribution required when epoch 0 has several nodes")
            self.initial = np.array([1.0])
        else:
            self.initial = np.asarray(self.initial, dtype=float)

    @property
    def horizon(self) -> int:
        return len(self.payoffs) - 1

    @property
    def n_nodes(self) -> int:
        return sum(len(h) for h in self.payoffs)

    def validate(self) -> None:
        T = self.horizon
        if T < 0 or len(self.transitions) != T:
            raise ValueError(
                f"need T+1 payoff arrays and T transition matrices, "
                f"got {len(self.payoffs)} and {len(self.transitions)}"
            )
        if self.initial.shape != (len(self.payoffs[0]),):
            raise ValueError("initial distribution length must match epoch-0 node count")
        if np.any(self.initial < 0) or abs(self.initial.sum() - 1.0) > _PROB_TOL:
            raise ValueError("initial distribution must be nonnegative and sum to 1")
        for t, h in enumerate(self.payoffs):
            if h.ndim != 1 or not np.all(np.isfinite(h)):
                raise ValueError(f"payoffs at epoch {t} must be a finite 1-D array")
        for t, m in enumerate(self.transitions):
            want = (len(self.payoffs[t]), len(self.payoffs[t + 1]))
            if m.shape != want:
                raise ValueError(f"transition {t} has shape {m.shape}, expected {want}")
            if np.any(m < 0) or not np.all(np.isfinite(m)):
                raise ValueError(f"transition {t} has negative or non-finite entries")
            rowsum = m.sum(axis=1)
            if np.any(np.abs(rowsum - 1.0) > _PROB_TOL):
                raise ValueError(f"transition {t} rows must sum to 1 within {_PROB_TOL}")

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "payoffs": [h.tolist() for h in self.payoffs],
            "transitions": [m.tolist() for m in self.transitions],
            "initial": self.initial.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FiniteStopProblem":
        check_keys(
            d, ("payoffs", "transitions", "initial", "horizon"), "problem",
            required=("payoffs", "transitions"),
        )
        problem = cls(
            payoffs=[np.asarray(h, dtype=float) for h in d["payoffs"]],
            transitions=[np.asarray(m, dtype=float) for m in d["transitions"]],
            initial=np.asarray(d["initial"], dtype=float) if "initial" in d else None,
        )
        if "horizon" in d and d["horizon"] != problem.horizon:
            raise ValueError(
                f"declared horizon {d['horizon']} does not match payoffs ({problem.horizon})"
            )
        problem.validate()
        return problem


def load_problem(path) -> FiniteStopProblem:
    """Load a FiniteStopProblem from its JSON fixture file."""
    with open(path, "r", encoding="utf-8") as fh:
        return FiniteStopProblem.from_dict(json.load(fh))


@dataclass
class SnellSolution:
    """Envelope values and stop/continue labels per node, plus the root value."""

    values: list[np.ndarray]
    stop: list[np.ndarray]
    root_value: float


def backward_induction(problem: FiniteStopProblem) -> SnellSolution:
    """Compute the envelope by the terminal-backwards recursion.

    U_T = H_T at terminal nodes; at interior nodes U_t is the larger of the
    exit payoff and the transition-weighted expectation of U_{t+1}. A node is
    labeled "stop" where U = H within EQUALITY_TOL.
    """
    problem.validate()
    T = problem.horizon
    values: list[np.ndarray] = [None] * (T + 1)  # type: ignore[list-item]
    stop: list[np.ndarray] = [None] * (T + 1)  # type: ignore[list-item]
    values[T] = problem.payoffs[T].copy()
    stop[T] = np.ones(len(values[T]), dtype=bool)
    for t in range(T - 1, -1, -1):
        cont = problem.transitions[t] @ values[t + 1]
        h = problem.payoffs[t]
        values[t] = np.maximum(h, cont)
        stop[t] = values[t] - h <= EQUALITY_TOL
    root = float(problem.initial @ values[0])
    return SnellSolution(values=values, stop=stop, root_value=root)


def stopping_time(solution: SnellSolution, node_path) -> int:
    """First epoch along a realized node path where the envelope meets the payoff."""
    for t, node in enumerate(node_path):
        if solution.stop[t][node]:
            return t
    raise ValueError("no stop epoch found; terminal nodes always stop")


def expected_stopped_payoff(problem: FiniteStopProblem, solution: SnellSolution) -> float:
    """Expected payoff of the earliest-stopping rule, by forward mass propagation.

    Equals the root envelope value: stopping at the first U = H epoch is
    optimal.
    """
    total = 0.0
    mass = problem.initial.copy()
    for t in range(problem.horizon + 1):
        stopped = np.where(solution.stop[t], mass, 0.0)
        total += float(stopped @ problem.payoffs[t])
        mass = mass - stopped
        if t < problem.horizon:
            mass = mass @ problem.transitions[t]
    return total


def simulate_paths(
    problem: FiniteStopProblem, n: int, seed: int, domain: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n node paths; returns (node indices, exit payoffs), each (n, T+1)."""
    problem.validate()
    T = problem.horizon
    stream = RngStream(seed, path_index=0, domain=domain)
    nodes = np.zeros((n, T + 1), dtype=np.int64)
    init_cum = np.cumsum(problem.initial)
    nodes[:, 0] = np.searchsorted(init_cum, stream.uniform(size=n), side="right")
    nodes[:, 0] = np.minimum(nodes[:, 0], len(problem.initial) - 1)
    for t in range(T):
        u_t = stream.uniform(size=n)
        cum = np.cumsum(problem.transitions[t], axis=1)
        rows = cum[nodes[:, t]]
        nxt = (u_t[:, None] > rows).sum(axis=1)
        nodes[:, t + 1] = np.minimum(nxt, rows.shape[1] - 1)
    h = np.empty((n, T + 1))
    for t in range(T + 1):
        h[:, t] = problem.payoffs[t][nodes[:, t]]
    return nodes, h


def discretize_consumer_problem(params: ModelParams, levels: int) -> FiniteStopProblem:
    """Quantized lattice version of the purchase-timing model.

    Valuation shocks, observation noise, and the initial valuation are each
    collapsed to `levels` Gauss-Hermite support points (moment-matched), and
    the seller's deterministic belief recursion is embedded in the node
    state, so the resulting tree prices exactly like the continuous model
    along its quantized histories. Intended for tiny horizons; raises when
    the tree would exceed NODE_BUDGET nodes.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    T = params.horizon
    total = sum(levels * (levels * levels) ** t for t in range(T + 1))
    if total > NODE_BUDGET:
        raise ValueError(f"tree would have {total} nodes, budget is {NODE_BUDGET}")

    gh_x, gh_w = hermgauss(levels)
    points = gh_x * np.sqrt(2.0)          # standard normal support
    weights = gh_w / np.sqrt(np.pi)       # sums to 1
    # Child weights of one parent, ordered (valuation shock, observation noise).
    child_weights = np.outer(weights, weights).ravel()

    # Node state at epoch t: the consumer's valuation mean and the seller's
    # posterior mean, one array entry per node; the posterior variance is
    # observation-independent, hence shared per epoch.
    state = consumer.initial_state(params.mu_prior + params.sigma_v * points, params)
    belief = seller.GaussianBelief(np.full(levels, float(params.mu_prior)), params.sigma_v**2)

    def exit_payoffs(state: consumer.ConsumerState, belief: seller.GaussianBelief) -> np.ndarray:
        price = seller.myopic_price(belief)
        return consumer.exit_payoff(consumer.purchase_payoff(state, price, params))

    payoffs: list[np.ndarray] = [exit_payoffs(state, belief)]
    transitions: list[np.ndarray] = []
    initial = weights.copy()

    for t in range(1, T + 1):
        # Children ordered (parent, valuation shock, observation noise).
        n_parent = len(state.v)
        v_new = state.v[:, None] + params.sigma_eps * points              # (parent, shock)
        y = v_new[:, :, None] + params.sigma_xi * points                  # (parent, shock, noise)
        parent_mean = np.repeat(belief.mean, levels * levels)
        belief = seller.kalman_correct(
            seller.kalman_predict(seller.GaussianBelief(parent_mean, belief.var), params),
            y.ravel(),
            params,
        )
        state = consumer.ConsumerState(
            t=t,
            v=np.repeat(v_new.ravel(), levels),
            residual_var=consumer.residual_var(t, params),
        )
        payoffs.append(exit_payoffs(state, belief))
        transitions.append(np.kron(np.eye(n_parent), child_weights))

    problem = FiniteStopProblem(payoffs=payoffs, transitions=transitions, initial=initial)
    problem.validate()
    return problem
