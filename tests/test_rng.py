"""Stream determinism, moment checks, and the normal tail probability."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from optstop.rng import RngStream, q_function


def quadrature_upper_tail(z: float) -> float:
    """Independent oracle: integrate the normal density over (z, inf)."""
    val, _ = quad(lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), z, np.inf)
    return val


# Frozen from quadrature_upper_tail (quad abs err < 6e-9 at these points).
Q_AT_1_959964 = 0.02499999909643855
Q_AT_MINUS_3 = 0.9986501019683699


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(seed=123, path_index=4, domain=1)
        b = RngStream(seed=123, path_index=4, domain=1)
        assert a.standard_normal(10).tolist() == b.standard_normal(10).tolist()
        assert np.array_equal(a.standard_normal(size=100), b.standard_normal(size=100))

    def test_distinct_keys_differ(self):
        base = RngStream(7, path_index=0).standard_normal(size=8)
        for other in (RngStream(7, path_index=1), RngStream(8, path_index=0),
                      RngStream(7, path_index=0, domain=1)):
            assert not np.array_equal(base, other.standard_normal(size=8))

    def test_mean_within_clt_bound(self):
        draws = RngStream(2024).standard_normal(size=10**6)
        assert abs(draws.mean()) < 4e-3  # 4/sqrt(n)

    def test_variance_close_to_one(self):
        draws = RngStream(2025).standard_normal(size=10**6)
        assert abs(draws.var() - 1.0) < 1e-2

    def test_substream_independence(self):
        # First draw of 1e5 disjoint path-index pairs: |corr| below 0.01.
        n = 10**5
        stream = RngStream(99)
        a = np.array([stream.rekey(2 * i).standard_normal(1)[0] for i in range(n)])
        b = np.array([stream.rekey(2 * i + 1).standard_normal(1)[0] for i in range(n)])
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_key_range_validation(self):
        with pytest.raises(ValueError, match="^seed must fit in 64 bits"):
            RngStream(-1)
        with pytest.raises(ValueError, match="^seed must fit in 64 bits"):
            RngStream(1 << 64)
        with pytest.raises(ValueError, match="^path_index must fit in 32 bits"):
            RngStream(0, path_index=1 << 32)
        with pytest.raises(ValueError, match="^domain must fit in 32 bits"):
            RngStream(0, domain=1 << 32)
        stream = RngStream(0)
        for bad in (-1, 1 << 32):
            with pytest.raises(ValueError, match="^path_index must fit in 32 bits"):
                stream.rekey(bad)

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, np.float64(2.0), "1"])
    def test_key_must_be_an_integer(self, bad):
        # A float or bool seed drew the stream of the integer it truncates to;
        # a float domain or path index failed on a shift or an or.
        for name, make in (
            ("seed", lambda: RngStream(bad)),
            ("domain", lambda: RngStream(0, domain=bad)),
            ("path_index", lambda: RngStream(0, path_index=bad)),
            ("path_index", lambda: RngStream(0).rekey(bad)),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(name + ' must be an integer, got ' + repr(bad))}$"):
                make()
        key = np.int64(3)  # numpy integers are keys
        assert RngStream(key, key, key).uniform(4).tobytes() == RngStream(3, 3, 3).uniform(4).tobytes()

    @pytest.mark.parametrize("seed", [1, 29, 2**64 - 1])
    @pytest.mark.parametrize("domain", [0, 1, 2])
    @pytest.mark.parametrize("path_index", [0, 7, 2**32 - 1])
    def test_rekey_equals_fresh_philox(self, seed, domain, path_index):
        stream = RngStream(seed, 3, domain)
        stream.standard_normal(5)
        got = stream.rekey(path_index).standard_normal(51)
        key = np.array([seed, (domain << 32) | path_index], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal(51)
        assert got.tobytes() == want.tobytes()
        assert RngStream(seed, path_index, domain).standard_normal(51).tobytes() == want.tobytes()

    def test_standard_normal_draws_into_out(self):
        # A row of a matrix, as generate_paths passes it.
        z = np.full((3, 7), np.nan)
        stream = RngStream(11, 2, 1)
        got = stream.standard_normal(7, out=z[1])
        assert np.shares_memory(got, z)
        assert z[1].tobytes() == RngStream(11, 2, 1).standard_normal(7).tobytes()
        assert np.isnan(z[[0, 2]]).all()
        # The stream advanced as a plain draw would have.
        rest = RngStream(11, 2, 1).standard_normal(10)[7:]
        assert stream.standard_normal(3).tobytes() == rest.tobytes()

    @pytest.mark.parametrize("shape", [(8,), (6,), (7, 1), (1, 7)])
    def test_standard_normal_rejects_out_of_another_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"out must have shape (7,), got {shape}")):
            RngStream(11, 2, 1).standard_normal(7, out=np.empty(shape))

    def test_rekey_after_partly_used_buffer(self):
        # Two doubles and a uint32 use three words of the 4-word Philox block
        # and leave half of the third cached: a rekey that kept either the
        # unread word or the cached half would shift every later draw.
        stream = RngStream(29, 1, 2)
        stream.uniform(2)
        stream._gen.integers(0, 1 << 32, dtype=np.uint32)
        state = stream._gen.bit_generator.state
        assert state["buffer_pos"] < 4 and state["has_uint32"] == 1
        stream.rekey(4)
        got = np.concatenate([stream.standard_normal(7), stream.uniform(5)])
        fresh = np.random.Generator(np.random.Philox(key=np.array([29, 2 << 32 | 4], dtype=np.uint64)))
        want = np.concatenate([fresh.standard_normal(7), fresh.random(5)])
        assert got.tobytes() == want.tobytes()

    def test_uniform_range(self):
        u = RngStream(5).uniform(size=1000)
        assert np.all((u >= 0) & (u < 1))


class TestQFunction:
    def test_at_zero_by_symmetry(self):
        assert q_function(0.0) == 0.5

    def test_against_quadrature_oracle(self):
        assert q_function(1.959964) == pytest.approx(Q_AT_1_959964, abs=1e-6)
        assert q_function(-3.0) == pytest.approx(Q_AT_MINUS_3, abs=1e-5)
        # A fresh point through the live oracle, to keep it honest.
        assert q_function(0.731) == pytest.approx(quadrature_upper_tail(0.731), abs=1e-9)

    def test_reflection_identity(self):
        z = np.linspace(-8.0, 8.0, 1601)
        assert np.max(np.abs(q_function(z) + q_function(-z) - 1.0)) <= 1e-12

    def test_monotone_decreasing(self):
        z = np.linspace(-8.0, 8.0, 401)
        assert np.all(np.diff(q_function(z)) < 0)

    def test_array_and_scalar_agree(self):
        z = np.array([-1.5, 0.0, 2.25])
        arr = q_function(z)
        assert arr.tolist() == [q_function(float(x)) for x in z]

    @given(st.floats(min_value=-30, max_value=30, allow_nan=False))
    @settings(max_examples=200)
    def test_is_a_probability(self, z):
        assert 0.0 <= q_function(z) <= 1.0
