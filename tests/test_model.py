"""Parameter and path-container invariants."""

import dataclasses
import math
import re

import numpy as np
import pytest

from optstop.model import ModelParams, PathBatch, blend, check_finite


class TestModelParams:
    def test_defaults_are_valid(self):
        ModelParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": 0},
            {"gamma": 0.0},
            {"gamma": -1.0},
            {"sigma_eps": -0.1},
            {"sigma_xi": -0.1},
            {"sigma_v": 0.0},
            {"seed": -1},
            {"seed": 1 << 64},
            {"gamma": math.inf},
            {"sigma_eps": math.nan},
            {"sigma_xi": math.inf},
            {"mu_prior": math.nan},
        ],
    )
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("key", ["sigma_eps", "sigma_xi", "sigma_v"])
    def test_sigma_whose_square_overflows_named(self, key):
        # The largest float whose square is finite passes; the next one up
        # and 1e200 would overflow in the simulator or the filter.
        bound = 1.3407807929942596e154
        ModelParams(**{key: bound})
        for value in (math.nextafter(bound, math.inf), 1e200):
            with pytest.raises(
                ValueError,
                match=rf"^{key} must be at most 1\.3407807929942596e\+154 so that "
                rf"its square is finite, got {re.escape(repr(value))}$",
            ):
                ModelParams(**{key: value})

    def test_dict_round_trip(self):
        params = ModelParams(horizon=7, gamma=2.0, sigma_eps=0.3, seed=42)
        assert ModelParams.from_dict(params.to_dict()) == params


class TestSamplePath:
    """PathBatch's construction checks on a batch holding one sample path."""

    def make(self, T=3):
        return PathBatch(
            v=np.zeros((1, T + 1)),
            y=np.zeros((1, T)),
            p=np.ones((1, T + 1)),
            pi=np.array([[-0.1, 0.2, -0.3, 0.4]])[:, : T + 1],
            seller_mean=np.zeros((1, T + 1)),
        )

    def test_valid_path_passes(self):
        self.make()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="y has shape"):
            dataclasses.replace(self.make(), y=np.zeros((1, 5)))

    def test_non_finite_rejected(self):
        path = self.make()
        v = path.v.copy()
        v[0, 1] = np.inf
        with pytest.raises(ValueError, match=r"^row \(path=0, t=1\) has a non-finite v$"):
            dataclasses.replace(path, v=v)

    def test_exit_payoff_consistency_enforced(self):
        # h is read from pi, so it stays max(pi, 0) through every edit: it
        # can be neither replaced nor assigned, and follows a changed pi.
        path = self.make()
        assert path.h.tobytes() == np.maximum(path.pi, 0.0).tobytes()
        with pytest.raises(TypeError, match="'h'"):
            dataclasses.replace(path, h=path.h + 0.1)
        with pytest.raises(AttributeError):
            path.h = path.pi
        pi = path.pi.copy()
        pi[0, 0] = 0.5
        assert dataclasses.replace(path, pi=pi).h[0, 0] == 0.5

    def test_exit_payoff_other_than_max_pi_zero_rejected_when_built(self):
        # An h other than max(pi, 0), such as pi itself with its negative
        # purchase payoffs, has no way in: the constructor takes no h.
        path = self.make()
        with pytest.raises(TypeError, match="'h'"):
            PathBatch(
                v=path.v, y=path.y, p=path.p, pi=path.pi, h=path.pi,
                seller_mean=path.seller_mean,
            )

    def test_posterior_variance_not_stored(self):
        # The seller's posterior variance follows from the model alone
        # (seller.variance_schedule), so a batch takes none.
        path = self.make()
        with pytest.raises(TypeError, match="'seller_var'"):
            PathBatch(
                v=path.v, y=path.y, p=path.p, pi=path.pi, seller_mean=path.seller_mean,
                seller_var=np.ones(4),
            )
        assert not hasattr(path, "seller_var")

    @pytest.mark.parametrize(
        "name, shape",
        [("p", (1, 3)), ("pi", (2, 4)), ("y", (2, 3)), ("seller_mean", (4,))],
    )
    def test_shape_fault_named(self, name, shape):
        with pytest.raises(ValueError, match=rf"^{name} has shape {re.escape(str(shape))}, expected"):
            dataclasses.replace(self.make(), **{name: np.zeros(shape)})


class TestPathBatchCells:
    """PathBatch names its first bad cell by (path, t)."""

    @staticmethod
    def arrays() -> dict:
        """Two paths of T=3, as PathBatch's fields."""
        return {
            "v": np.ones((2, 4)), "y": np.ones((2, 3)), "p": np.ones((2, 4)),
            "pi": np.array([[-0.1, 0.2, -0.3, 0.4], [0.5, -0.6, 0.7, 0.0]]),
            "seller_mean": np.ones((2, 4)),
        }

    @pytest.mark.parametrize(
        "name, cell, value, named",
        [
            ("v", (1, 2), math.nan, "(path=1, t=2) has a non-finite v"),
            # y's column j is epoch j + 1.
            ("y", (1, 0), math.inf, "(path=1, t=1) has a non-finite y"),
            ("y", (0, 2), math.nan, "(path=0, t=3) has a non-finite y"),
            ("p", (0, 0), -math.inf, "(path=0, t=0) has a non-finite p"),
            ("pi", (1, 3), math.nan, "(path=1, t=3) has a non-finite pi"),
            # A finite pi makes a finite h = max(pi, 0).
            ("pi", (0, 1), math.inf, "(path=0, t=1) has a non-finite pi"),
            ("seller_mean", (0, 3), math.nan, "(path=0, t=3) has a non-finite seller_mean"),
        ],
    )
    def test_first_bad_cell_named(self, name, cell, value, named):
        arrays = self.arrays()
        arrays[name][cell] = value
        with pytest.raises(ValueError, match=f"^row {re.escape(named)}$"):
            PathBatch(**arrays)

    def test_first_cell_in_path_order_named(self):
        arrays = self.arrays()
        arrays["v"][1, 0] = math.nan
        arrays["v"][0, 3] = math.inf
        with pytest.raises(ValueError, match=r"^row \(path=0, t=3\) has a non-finite v$"):
            PathBatch(**arrays)


class TestCheckFinite:
    def test_finite_float_number_returned_as_it_is(self):
        for value in (0.5, -0.0, 5e-324, 1.7976931348623157e308):
            assert check_finite("b", value, ndim=0) is value

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, np.float64(math.nan), "x", True, [1.0], None],
    )
    def test_non_number_message_unchanged(self, value):
        with pytest.raises(ValueError, match="^b must be a finite number$"):
            check_finite("b", value, ndim=0)

    def test_other_numbers_pass_as_arrays(self):
        for value in (2, np.float64(0.25), np.int32(-3)):
            got = check_finite("b", value, ndim=0)
            assert got.dtype == float and got.ndim == 0 and got == value


# Special doubles: signed zeros and infinities, subnormals, the extremes and
# NaNs whose payloads and signs a copy must keep.
SPECIALS = np.concatenate([
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
     1.7976931348623157e308, -1.7976931348623157e308, 1.0, -2.5],
    np.array([0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001, 0xFFF4000000C0FFEE],
             dtype=np.uint64).view(float),
])


class TestBlend:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_where_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        pool = np.concatenate([SPECIALS, rng.standard_normal(8)])
        dst, src = pool[rng.integers(0, len(pool), n)], pool[rng.integers(0, len(pool), n)]
        mask = rng.random(n) < rng.random()
        want = np.where(mask, src, dst)
        blend(dst, src, mask, np.empty(n))
        assert dst.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_strided_source_and_every_mask(self):
        # A column of a row-major matrix, as a select reads an epoch of h.
        src = np.resize(SPECIALS, (3, len(SPECIALS))).T[:, 1]
        for mask in (np.zeros(len(src), bool), np.ones(len(src), bool)):
            dst = -src[::-1].copy()
            want = np.where(mask, src, dst)
            blend(dst, src, mask, np.empty(len(src)))
            assert dst.view(np.uint64).tolist() == want.view(np.uint64).tolist()
