"""Purchase timing under personalized pricing, as an optimal stopping problem.

A consumer learns her valuation of a good step by step while a seller runs a
Kalman filter on noisy observations of it and prices to maximize expected
immediate revenue. This package simulates that interaction, trains
regression-based stopping policies on sample paths, benchmarks them against
the myopic buy-on-first-positive-payoff strategy, and validates everything
against an exact backward-induction oracle on small finite trees.
"""

from . import consumer, experiment, lsm, model, policy_io, regression, rng, seller, snell

__version__ = "0.1.0"
