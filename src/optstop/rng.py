"""Deterministic random-variate streams and the standard normal tail probability.

Streams are built on the counter-based Philox generator, keyed by
(seed, domain, path index), so each simulated path owns an independent,
reproducible stream regardless of the order paths are generated in. A path
set reuses one generator and rekeys it for each path.

q_function imports scipy's erfc at its first call, so importing this module
loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .model import is_integer

_SQRT2 = math.sqrt(2.0)
_U32 = 1 << 32
_U64 = 1 << 64


class RngStream:
    """One independent pseudorandom stream.

    Identical (seed, path_index, domain) triples yield identical draws across
    runs and platforms. Distinct triples yield statistically independent
    streams. Draws advance the state sequentially, so a stream's draws depend
    on the order of its calls: experiment.generate_paths rekeys one stream to
    each simulated path in turn, and snell.simulate_paths draws all of its
    lattice paths from one stream, one epoch of uniforms at a time.
    """

    def __init__(self, seed: int, path_index: int = 0, domain: int = 0):
        if not is_integer(seed):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if not is_integer(domain):
            raise ValueError(f"domain must be an integer, got {domain!r}")
        if not 0 <= seed < _U64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        if not 0 <= domain < _U32:
            raise ValueError(f"domain must fit in 32 bits, got {domain}")
        self._domain_key = domain << 32
        self._key = [seed, self._domain_key]
        self._gen = np.random.Generator(np.random.Philox(key=np.array(self._key, dtype=np.uint64)))
        # The state of a fresh Philox: counter 0 and an empty buffer, so the
        # next draw starts a new block. The setter copies its values, so
        # rekey reuses this dict and only rewrites the key's second word.
        # Plain lists set 2.4x faster than the uint64 arrays the getter gives.
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.rekey(path_index)

    def rekey(self, path_index: int) -> "RngStream":
        """Restart this stream as the (seed, path_index, domain) stream.

        Philox is counter-based: key [seed, domain << 32 | path_index] at
        counter 0 fixes every draw, so the draws that follow equal those of
        a new RngStream(seed, path_index, domain), whatever this stream drew
        before. Returns the stream itself.
        """
        # A plain int skips is_integer's slower abstract-class test: this runs once per path.
        if type(path_index) is not int and not is_integer(path_index):
            raise ValueError(f"path_index must be an integer, got {path_index!r}")
        if not 0 <= path_index < _U32:
            raise ValueError(f"path_index must fit in 32 bits, got {path_index}")
        self._key[1] = self._domain_key | path_index
        self._gen.bit_generator.state = self._state
        return self

    def standard_normal(self, size, out=None):
        """Draw an array of standard-normal variates, advancing the stream
        state; with out (a float64 array of shape (size,)), draw into it and
        return it. The draws are the same either way. Given out, numpy is
        not passed size as well, which would cost it a third more per call
        to compare the two."""
        if out is None:
            return self._gen.standard_normal(size)
        if out.shape != (size,):
            raise ValueError(f"out must have shape ({size},), got {out.shape}")
        return self._gen.standard_normal(out=out)

    def uniform(self, size):
        """Draw an array of uniforms on [0, 1), advancing the stream state."""
        return self._gen.random(size)


def q_function(z):
    """Upper-tail probability Q(z) = Pr(Z > z) for a standard normal Z.

    Accepts scalars or arrays; both go through the same erfc ufunc, so they
    agree bitwise. Relative error is at the level of erfc itself (~1e-15).
    """
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(z, dtype=float) / _SQRT2)

