"""Deterministic random-variate streams and the standard normal tail probability.

Streams are built on the counter-based Philox generator, keyed by
(seed, domain, path index), so each simulated path owns an independent,
reproducible stream regardless of the order paths are generated in.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc as _erfc

_SQRT2 = math.sqrt(2.0)
_U32 = 1 << 32
_U64 = 1 << 64


class RngStream:
    """One independent pseudorandom stream.

    Identical (seed, path_index, domain) triples yield identical draws across
    runs and platforms. Distinct triples yield statistically independent
    streams. A stream is owned by a single path worker and must not be shared
    across workers; draws within a stream advance its state sequentially.
    """

    def __init__(self, seed: int, path_index: int = 0, domain: int = 0):
        if not 0 <= seed < _U64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        if not 0 <= path_index < _U32:
            raise ValueError(f"path_index must fit in 32 bits, got {path_index}")
        if not 0 <= domain < _U32:
            raise ValueError(f"domain must fit in 32 bits, got {domain}")
        self.seed = seed
        self.path_index = path_index
        self.domain = domain
        key = np.array([seed, (domain << 32) | path_index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, size=None):
        """Draw standard-normal variates, advancing the stream state."""
        if size is None:
            return float(self._gen.standard_normal())
        return self._gen.standard_normal(size)

    def uniform(self, size=None):
        """Draw uniforms on [0, 1), advancing the stream state."""
        if size is None:
            return float(self._gen.random())
        return self._gen.random(size)

    def __repr__(self) -> str:
        return (
            f"RngStream(seed={self.seed}, path_index={self.path_index}, "
            f"domain={self.domain})"
        )


def q_function(z):
    """Upper-tail probability Q(z) = Pr(Z > z) for a standard normal Z.

    Accepts scalars or arrays; both go through the same erfc ufunc, so they
    agree bitwise. Relative error is at the level of erfc itself (~1e-15).
    """
    return 0.5 * _erfc(np.asarray(z, dtype=float) / _SQRT2)

