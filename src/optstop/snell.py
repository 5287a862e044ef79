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

from . import experiment
from .model import ModelParams, check_finite, check_keys, is_integer
from .rng import RngStream

# Payoffs are O(1) and backward induction accumulates at most T rounding
# steps, so equality of U and H is tested at absolute 1e-12.
EQUALITY_TOL = 1e-12
_PROB_TOL = 1e-12

NODE_BUDGET = 10_000

# A one-law draw counts the cumulative masses below each uniform when the law
# has at most this many masses, and binary-searches them when it has more.
# Timed on 100k uniforms (2 CPUs, numpy 2.4), count vs search: 0.3 vs 2.3 ms
# at 4 masses, 1.2 vs 4.0 ms at 16, 3.9 vs 6.0 ms at 48, 6.6 vs 7.3 ms at 64
# and 7.0 vs 6.3 ms at 81.
COUNT_MAX_MASSES = 48


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
        self.payoffs = _epochs("payoffs", self.payoffs, ndim=1)
        self.transitions = _epochs("transitions", self.transitions, ndim=2)
        if not self.payoffs:
            raise ValueError("payoffs must list at least one epoch")
        if self.initial is None:
            if len(self.payoffs[0]) != 1:
                raise ValueError("initial distribution required when epoch 0 has several nodes")
            self.initial = np.array([1.0])
        else:
            self.initial = check_finite("initial", self.initial)

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
        problem = cls(payoffs=d["payoffs"], transitions=d["transitions"], initial=d.get("initial"))
        if "horizon" in d and not (is_integer(d["horizon"]) and d["horizon"] == problem.horizon):
            raise ValueError(
                f"declared horizon {d['horizon']} does not match payoffs ({problem.horizon})"
            )
        problem.validate()
        return problem


def _epochs(name: str, arrays, ndim: int) -> list[np.ndarray]:
    """Each epoch's entry of arrays through check_finite, named name[t]."""
    try:
        items = list(arrays)
    except TypeError:
        raise ValueError(f"{name} must be a list of per-epoch arrays, got {arrays!r}") from None
    return [check_finite(f"{name}[{t}]", a, ndim) for t, a in enumerate(items)]


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
    labeled "stop" where U = H within EQUALITY_TOL. The expectations run in
    numpy's own loops (einsum), never in BLAS, so the solution is the same
    under any BLAS thread count.
    """
    problem.validate()
    T = problem.horizon
    values: list[np.ndarray] = [None] * (T + 1)  # type: ignore[list-item]
    stop: list[np.ndarray] = [None] * (T + 1)  # type: ignore[list-item]
    values[T] = problem.payoffs[T].copy()
    stop[T] = np.ones(len(values[T]), dtype=bool)
    for t in range(T - 1, -1, -1):
        cont = np.einsum("ij,j->i", problem.transitions[t], values[t + 1])
        h = problem.payoffs[t]
        values[t] = np.maximum(h, cont)
        stop[t] = values[t] - h <= EQUALITY_TOL
    root = float(np.einsum("i,i", problem.initial, values[0]))
    return SnellSolution(values=values, stop=stop, root_value=root)


def expected_stopped_payoff(problem: FiniteStopProblem, solution: SnellSolution) -> float:
    """Expected payoff of the earliest-stopping rule, by forward mass propagation.

    Equals the root envelope value: stopping at the first U = H epoch is
    optimal.
    """
    total = 0.0
    mass = problem.initial.copy()
    for t in range(problem.horizon + 1):
        stopped = np.where(solution.stop[t], mass, 0.0)
        total += float(np.einsum("i,i", stopped, problem.payoffs[t]))
        mass = mass - stopped
        if t < problem.horizon:
            mass = np.einsum("i,ij->j", mass, problem.transitions[t])
    return total


def _draw_children(table: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column of row rows[i] of the row-stochastic table drawn by each
    uniform u[i] in [0, 1).

    The draw is the count of the row's cumulative masses below u, taken over
    its positive-mass columns only, so neither u = 0 nor a u at or above a row
    total short of 1 lands on a zero-mass column. Each row's positive masses
    are packed to the left of a table padded with +inf and summed along the
    row; adding a zero is exact, so these cumulative masses are bitwise those
    of the full row. Rows whose cumulative masses are bitwise equal share one
    law and one sorted search; the drawn rank then picks the column from each
    path's own row. A table of one law (on the Gauss-Hermite lattice every
    parent has the same child weights, so each epoch has one) is drawn once
    for all paths, without grouping them by law: a law of w <= COUNT_MAX_MASSES
    masses counts its first w - 1 cumulative masses below u, which is the
    search's rank already clamped to w - 1, and a wider one is searched.
    """
    positive = table > 0
    counts = positive.sum(axis=1)
    r, c = np.nonzero(positive)
    rank = np.arange(len(r)) - np.repeat(np.cumsum(counts) - counts, counts)
    support = np.zeros((len(table), counts.max()), dtype=np.int64)
    support[r, rank] = c
    cum = np.full(support.shape, np.inf)
    cum[r, rank] = table[r, c]
    laws, law = np.unique(np.cumsum(cum, axis=1), axis=0, return_inverse=True)
    if len(laws) == 1:
        w = counts[0]
        if w <= COUNT_MAX_MASSES:
            k = np.zeros(len(u), dtype=np.int64)
            for mass in laws[0][: w - 1]:
                k += mass < u
        else:
            k = np.minimum(np.searchsorted(laws[0], u, side="left"), w - 1)
        return support.ravel()[rows * support.shape[1] + k]
    law = law.ravel()[rows]  # the inverse's shape differs across numpy versions
    order = np.argsort(law, kind="stable")
    bounds = np.cumsum(np.bincount(law, minlength=len(laws)))[:-1]
    k = np.empty(len(rows), dtype=np.int64)
    for cdf, paths in zip(laws, np.split(order, bounds)):
        k[paths] = np.searchsorted(cdf, u[paths], side="left")
    return support[rows, np.minimum(k, counts[rows] - 1)]


def simulate_paths(
    problem: FiniteStopProblem, n: int, seed: int, domain: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n node paths; returns (node indices, exit payoffs), each (n, T+1)
    and column-major, so each epoch's column is contiguous.

    One uniform per path draws the initial node, then one per path and epoch
    draws the child. Each epoch is one vectorized pass over all paths (see
    _draw_children: a count or one sorted search for an epoch of one
    transition law, one search per distinct law otherwise), so memory stays
    linear in n. n must be at least 1.
    """
    if n < 1:
        raise ValueError(f"number of paths must be >= 1, got {n}")
    problem.validate()
    T = problem.horizon
    stream = RngStream(seed, path_index=0, domain=domain)
    nodes = np.zeros((n, T + 1), dtype=np.int64, order="F")
    root = np.zeros(n, dtype=np.int64)  # the initial distribution is a one-row table
    nodes[:, 0] = _draw_children(problem.initial[None, :], root, stream.uniform(size=n))
    for t in range(T):
        u_t = stream.uniform(size=n)
        nodes[:, t + 1] = _draw_children(problem.transitions[t], nodes[:, t], u_t)
    h = np.empty((n, T + 1), order="F")
    for t in range(T + 1):
        h[:, t] = problem.payoffs[t][nodes[:, t]]
    return nodes, h


def discretize_consumer_problem(params: ModelParams, levels: int) -> FiniteStopProblem:
    """Quantized lattice version of the purchase-timing model.

    The initial valuation, the valuation shocks and the observation noise
    each take `levels` Gauss-Hermite support points (moment-matched), and the
    lattice is the path simulator run on them: leaf k's draws are picked by
    the 2T+1 base-`levels` digits of k, and an epoch-t node is the prefix of
    its first leaf's draws, so the tree prices exactly like the continuous
    model along its quantized histories. Children are ordered (parent,
    valuation shock, observation noise). Intended for tiny horizons; raises
    when the tree would exceed NODE_BUDGET nodes.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    T = params.horizon
    fan = levels * levels  # children per parent: valuation shock x observation noise
    total = sum(levels * fan**t for t in range(T + 1))
    if total > NODE_BUDGET:
        raise ValueError(f"tree would have {total} nodes, budget is {NODE_BUDGET}")

    gh_x, gh_w = hermgauss(levels)
    points = gh_x * np.sqrt(2.0)          # standard normal support
    weights = gh_w / np.sqrt(np.pi)       # sums to 1
    # Child weights of one parent, ordered (valuation shock, observation noise).
    child_weights = np.outer(weights, weights).ravel()

    # Leaf digits, most significant first, by integer arithmetic: np.indices
    # stops at 64 dimensions, which levels = 1 passes at T = 32.
    leaf = np.arange(levels ** (2 * T + 1))[:, None]
    digits = leaf // levels ** np.arange(2 * T, -1, -1) % levels
    h = experiment.simulate(params, points[digits]).h
    payoffs = [h[:: fan ** (T - t), t] for t in range(T + 1)]
    transitions = [np.kron(np.eye(len(payoffs[t])), child_weights) for t in range(T)]

    problem = FiniteStopProblem(payoffs=payoffs, transitions=transitions, initial=weights)
    problem.validate()
    return problem
