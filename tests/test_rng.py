"""Stream determinism, moment checks, and the normal tail probability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from optstop.rng import RngStream, normal_pdf, q_function


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
        assert [a.standard_normal() for _ in range(10)] == [
            b.standard_normal() for _ in range(10)
        ]
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
        a = np.empty(n)
        b = np.empty(n)
        for i in range(n):
            a[i] = RngStream(99, path_index=2 * i).standard_normal()
            b[i] = RngStream(99, path_index=2 * i + 1).standard_normal()
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_key_range_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, path_index=1 << 32)
        with pytest.raises(ValueError):
            RngStream(0, domain=1 << 32)

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

    def test_normal_pdf_matches_formula(self):
        z = np.array([-2.0, 0.0, 0.5])
        expected = np.exp(-0.5 * z**2) / np.sqrt(2 * np.pi)
        assert np.allclose(normal_pdf(z), expected, rtol=0, atol=1e-16)
        assert normal_pdf(0.5) == pytest.approx(expected[2], abs=1e-16)
