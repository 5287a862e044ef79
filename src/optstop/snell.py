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
from functools import cached_property

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

# Most buckets of a one-law sampler's guide table (see _Sampler): 32 KB of
# ranks and 32 KB of masses.
MAX_BUCKETS = 1 << 12


@dataclass
class FiniteStopProblem:
    """An explicit finite tree carrying exit payoffs and transition laws.

    payoffs[t]     -- exit payoff per node at epoch t, arrays of shape (n_t,)
    transitions[t] -- row-stochastic (n_t, n_{t+1}) matrices, t = 0..T-1
    initial        -- distribution over epoch-0 nodes (point mass for a
                      single-root tree)

    Construction checks every shape, that each transition row and initial
    are nonnegative and sum to 1 within 1e-12, and raises a ValueError naming
    the first fault; everything that takes a problem takes it as checked.
    Editing one afterwards is not checked again, and the samplers that
    simulate_paths draws from are built once, at its first call, so they do
    not see an edit made after it either.
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
        if len(self.transitions) != self.horizon:
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
            if np.any(m < 0):
                raise ValueError(f"transition {t} has negative entries")
            rowsum = m.sum(axis=1)
            if np.any(np.abs(rowsum - 1.0) > _PROB_TOL):
                raise ValueError(f"transition {t} rows must sum to 1 within {_PROB_TOL}")

    @property
    def horizon(self) -> int:
        return len(self.payoffs) - 1

    @property
    def n_nodes(self) -> int:
        return sum(len(h) for h in self.payoffs)

    @cached_property
    def _samplers(self) -> list["_Sampler"]:
        """One sampler per draw: the initial law, then each transition."""
        return [_Sampler(self.initial[None, :]), *map(_Sampler, self.transitions)]

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


class _Sampler:
    """Draws a column of each row of one row-stochastic table, per uniform.

    The draw is the count of the row's cumulative masses below u, taken over
    its positive-mass columns only, so neither u = 0 nor a u at or above a row
    total short of 1 lands on a zero-mass column. Each row's positive masses
    are packed to the left of a table padded with +inf and summed along the
    row; adding a zero is exact, so these cumulative masses are bitwise those
    of the full row. Rows whose cumulative masses are bitwise equal share one
    law and one sorted search; the drawn rank then picks the column from each
    path's own row.

    A table of one law of w masses (on the Gauss-Hermite lattice every parent
    has the same child weights, so each epoch has one) is drawn through a
    guide table of B buckets (Chen and Asau, 1974), B a power of two: bucket
    b = floor(u B) holds the law's first w - 1 cumulative masses in
    [b / B, (b + 1) / B), and the rank is the count of them below b / B plus
    one compare with the bucket's mass, if it holds one. u B is exact, so the
    rank is the search's rank clamped to w - 1, bit for bit. B is doubled, up
    to MAX_BUCKETS, until no bucket holds two masses; a path whose bucket
    still does is searched. Where the support is row * w + rank, as on every
    np.kron lattice table, the final gather is skipped.
    """

    def __init__(self, table: np.ndarray):
        positive = table > 0
        counts = positive.sum(axis=1)
        r, c = np.nonzero(positive)
        rank = np.arange(len(r)) - np.repeat(np.cumsum(counts) - counts, counts)
        support = np.zeros((len(table), counts.max()), dtype=np.int64)
        support[r, rank] = c
        cum = np.full(support.shape, np.inf)
        cum[r, rank] = table[r, c]
        laws, law = np.unique(np.cumsum(cum, axis=1), axis=0, return_inverse=True)
        self.support, self.counts, self.laws = support, counts, laws
        self.law = law.ravel()  # the inverse's shape differs across numpy versions
        if len(laws) > 1:
            return
        self.edges = edges = laws[0][: counts[0] - 1]
        self.dense = np.array_equal(support.ravel(), np.arange(support.size))
        n_buckets = 1
        while True:
            # edges * B is exact, so floor(edges * B) < b exactly when an edge is below b / B.
            below = np.searchsorted(np.floor(edges * n_buckets), np.arange(n_buckets + 1))
            per_bucket = np.diff(below)
            crowded = per_bucket > 1
            if not crowded.any() or n_buckets == MAX_BUCKETS:
                break
            n_buckets *= 2
        self.n_buckets = n_buckets
        self.below = below[:-1]  # the count of edges below each bucket's start
        self.mass = np.full(n_buckets, np.inf)  # each bucket's first edge; no u reaches +inf
        self.mass[per_bucket > 0] = edges[self.below[per_bucket > 0]]
        self.crowded = crowded if crowded.any() else None

    def draw(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Column of row rows[i] drawn by each uniform u[i] in [0, 1). On a
        table of one law, a single row broadcasts against u."""
        if len(self.laws) > 1:
            law = self.law[rows]
            order = np.argsort(law, kind="stable")
            bounds = np.cumsum(np.bincount(law, minlength=len(self.laws)))[:-1]
            k = np.empty(len(rows), dtype=np.int64)
            for cdf, paths in zip(self.laws, np.split(order, bounds)):
                k[paths] = np.searchsorted(cdf, u[paths], side="left")
            return self.support[rows, np.minimum(k, self.counts[rows] - 1)]
        # floor(u B), cast to an index as it is computed: u >= 0, so the cast is the floor.
        b = np.multiply(u, self.n_buckets, out=np.empty(len(u), np.intp), casting="unsafe")
        k = self.below[b] + (self.mass[b] < u)
        if self.crowded is not None:
            many = np.flatnonzero(self.crowded[b])
            k[many] = np.searchsorted(self.edges, u[many], side="left")
        j = rows * self.support.shape[1] + k
        return j if self.dense else self.support.ravel()[j]


def simulate_paths(
    problem: FiniteStopProblem, n: int, seed: int, domain: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n node paths; returns (node indices, exit payoffs), each (n, T+1)
    and column-major, so each epoch's column is contiguous.

    One uniform per path draws the initial node, then one per path and epoch
    draws the child. Each epoch is one vectorized pass over all paths through
    the problem's sampler for it (see _Sampler: a guide-table lookup for an
    epoch of one transition law, one sorted search per distinct law
    otherwise), so memory stays linear in n. The samplers are built at the
    problem's first call and reused by the next. n must be an integer >= 1;
    the problem was checked when built, so every row it draws from is a law.
    """
    if not is_integer(n):
        raise ValueError(f"number of paths must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"number of paths must be >= 1, got {n}")
    T = problem.horizon
    stream = RngStream(seed, path_index=0, domain=domain)
    samplers = problem._samplers
    nodes = np.empty((n, T + 1), dtype=np.int64, order="F")  # every column is drawn
    # The initial law is a one-row table, a single law, so its row broadcasts.
    root = np.zeros(1, dtype=np.int64)
    nodes[:, 0] = samplers[0].draw(root, stream.uniform(size=n))
    for t in range(T):
        nodes[:, t + 1] = samplers[t + 1].draw(nodes[:, t], stream.uniform(size=n))
    h = np.empty((n, T + 1), order="F")
    for t in range(T + 1):
        # Every node is in range; mode="clip" lets take write into h unbuffered.
        np.take(problem.payoffs[t], nodes[:, t], out=h[:, t], mode="clip")
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

    return FiniteStopProblem(payoffs=payoffs, transitions=transitions, initial=weights)
