"""Divergence definitions, identities, and decompositions."""

import math

import numpy as np
import pytest

from jeffreys import ValidationError, WeightedHistogramSet, jeffreys_to_set
from jeffreys.divergences import _row_sums
from conftest import random_frequency_set, random_positive_set
from references import cross_entropy, entropy, extended_kl, jeffreys, kl, kl_to_set


def brute_extended_kl(p, q):
    return sum(pi * math.log(pi / qi) + qi - pi for pi, qi in zip(p, q))


def brute_jeffreys(p, q):
    return sum((pi - qi) * math.log(pi / qi) for pi, qi in zip(p, q))


class TestExtendedKL:
    def test_identity_of_indiscernibles(self):
        p = np.array([0.3, 1.2, 0.5])
        assert extended_kl(p, p) == 0.0

    def test_hand_values(self):
        assert extended_kl([1.0, 1.0], [2.0, 2.0]) == pytest.approx(
            2.0 - 2.0 * math.log(2.0), abs=1e-14
        )
        assert extended_kl([2.0, 2.0], [1.0, 1.0]) == pytest.approx(
            brute_extended_kl([2.0, 2.0], [1.0, 1.0]), abs=1e-14
        )

    def test_matches_brute_sum(self, rng):
        for _ in range(50):
            p = rng.uniform(0.01, 2.0, size=5)
            q = rng.uniform(0.01, 2.0, size=5)
            assert extended_kl(p, q) == pytest.approx(brute_extended_kl(p, q), rel=1e-12)

    def test_reduces_to_kl_on_frequency_inputs(self, rng):
        for _ in range(20):
            p = rng.uniform(0.01, 1.0, size=4)
            q = rng.uniform(0.01, 1.0, size=4)
            p, q = p / p.sum(), q / q.sum()
            assert extended_kl(p, q) == pytest.approx(kl(p, q), abs=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            extended_kl([1.0, 2.0], [1.0, 2.0, 3.0])


class TestKLEntropies:
    def test_kl_hand_value(self):
        assert kl([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.14384103622589042, abs=1e-14)

    def test_kl_zero_on_equal(self):
        p = np.array([0.25, 0.75])
        assert kl(p, p) == 0.0

    def test_uniform_entropy(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_cross_entropy_of_self(self, rng):
        p = rng.uniform(0.01, 1.0, size=6)
        p /= p.sum()
        assert cross_entropy(p, p) == pytest.approx(entropy(p), abs=1e-13)

    def test_cross_entropy_hand_value(self):
        assert cross_entropy([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
            0.8369882167858358, abs=1e-14
        )

    def test_kl_decomposition(self, rng):
        for _ in range(50):
            p = rng.uniform(0.01, 1.0, size=8)
            q = rng.uniform(0.01, 1.0, size=8)
            p, q = p / p.sum(), q / q.sum()
            assert kl(p, q) == pytest.approx(cross_entropy(p, q) - entropy(p), abs=1e-12)


class TestJeffreys:
    def test_zero_on_equal(self):
        p = np.array([1.0, 2.0, 0.5])
        assert jeffreys(p, p) == 0.0

    def test_hand_value(self):
        assert jeffreys([1.0, 2.0], [2.0, 1.0]) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-14
        )

    def test_symmetry_exact(self, rng):
        for _ in range(100):
            p = rng.uniform(0.01, 3.0, size=6)
            q = rng.uniform(0.01, 3.0, size=6)
            assert jeffreys(p, q) == jeffreys(q, p)

    def test_sum_of_extended_kls(self, rng):
        for _ in range(100):
            p = rng.uniform(0.01, 3.0, size=6)
            q = rng.uniform(0.01, 3.0, size=6)
            j = jeffreys(p, q)
            both = extended_kl(p, q) + extended_kl(q, p)
            assert j - both == pytest.approx(0.0, abs=1e-12 * max(1.0, j))

    def test_non_negative(self, rng):
        for _ in range(100):
            p = rng.uniform(0.01, 3.0, size=6)
            q = rng.uniform(0.01, 3.0, size=6)
            assert jeffreys(p, q) >= 0.0
            assert kl(p / p.sum(), q / q.sum()) >= -1e-15
            assert extended_kl(p, q) >= -1e-15

    def test_zero_bin_guard(self):
        # 0 * log(0) terms are dropped; a zero in only one argument is inf
        assert jeffreys([0.0, 1.0], [0.0, 1.0]) == 0.0
        assert jeffreys([0.0, 1.0], [0.5, 0.5]) == math.inf
        assert extended_kl([0.0, 1.0], [0.5, 0.5]) == pytest.approx(
            1.0 * math.log(2.0) + 0.5 + 0.5 - 1.0, abs=1e-14
        )


class TestRowSums:
    """``_row_sums`` must give ``x.sum(axis=-1)`` bit for bit.

    Below 8 bins it adds columns in numpy's order; if a numpy release sums
    short rows in another order, these fail instead of results moving.
    """

    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 5e-324])
    HUGE = np.array([1.7e308, -1.7e308, 1e308, 1.0])

    @staticmethod
    def views(x):
        """``x`` and strided views of the same values."""
        wide = np.repeat(x, 2, axis=-1)
        return [x, np.asfortranarray(x), x[..., ::-1], wide[..., ::2], wide[..., : x.shape[-1]]]

    @pytest.mark.parametrize("d", range(1, 41))
    def test_bitwise_equal_to_numpy_sum(self, d, rng):
        for shape in [(0, d), (1, d), (33, d), (4, 3, d)]:
            values = [
                rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape),
                rng.choice(self.SPECIAL, size=shape),
                rng.choice(np.array([0.0, -0.0]), size=shape),
                rng.choice(self.HUGE, size=shape),
            ]
            for x in values:
                for view in self.views(x):
                    with np.errstate(over="ignore", invalid="ignore"):
                        got, want = _row_sums(view), view.sum(axis=-1)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (d, shape, view.strides)

    def test_edge_rows(self):
        rows = np.array([
            [-0.0, -0.0, -0.0],
            [-0.0, 0.0, -0.0],
            [1.7e308, 1.7e308, -1.7e308],
            [np.inf, -np.inf, 1.0],
            [np.nan, 1.0, np.inf],
            [1.0, 1e-16, 1e-16],
        ])
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _row_sums(rows), rows.sum(axis=-1)
        assert got.tobytes() == want.tobytes()
        assert math.copysign(1.0, got[0]) == 1.0  # numpy starts from +0.0
        assert got[2] == math.inf  # left to right: the first two overflow
        assert got[5] == 1.0  # left to right: each 1e-16 rounds away


class TestSetAverages:
    def test_singleton(self, rng):
        member = rng.uniform(0.01, 1.0, size=5)
        s = WeightedHistogramSet(member[None, :])
        x = rng.uniform(0.01, 1.0, size=5)
        assert jeffreys_to_set(x, s) == pytest.approx(jeffreys(x, member), rel=1e-12)

    @pytest.mark.parametrize(
        "x", [[0.5, 0.25, 0.25], [0.5, "a"], [0.5, [0.25, 0.25]], "ab", [0.5, 10**400]],
        ids=["dimension", "string-bin", "ragged", "string", "huge-int"],
    )
    def test_invalid_input_is_validation_error(self, x):
        s = WeightedHistogramSet([[0.2, 0.8], [0.5, 0.5]], frequency=True)
        with pytest.raises(ValidationError):
            jeffreys_to_set(x, s)

    def test_zero_when_equal_to_every_member(self):
        member = np.array([0.2, 0.8])
        s = WeightedHistogramSet([member, member], frequency=True)
        assert jeffreys_to_set(member, s) == pytest.approx(0.0, abs=1e-15)

    def test_two_member_hand_sum(self, rng):
        rows = rng.uniform(0.01, 1.0, size=(2, 4))
        s = WeightedHistogramSet(rows)
        x = rng.uniform(0.01, 1.0, size=4)
        expected = 0.5 * brute_jeffreys(x, rows[0]) + 0.5 * brute_jeffreys(x, rows[1])
        assert jeffreys_to_set(x, s) == pytest.approx(expected, rel=1e-12)

    def test_kl_to_set_matches_breakdown(self, rng):
        for _ in range(20):
            s = random_frequency_set(rng)
            x = rng.uniform(0.01, 1.0, size=s.d)
            x /= x.sum()
            expected = sum(
                w * kl(x, h) for w, h in zip(s.weights, s.matrix)
            )
            assert kl_to_set(x, s) == pytest.approx(expected, rel=1e-12)

    def test_mass_decomposition_identity(self, rng):
        # J(x, H) = J(x~, H) + (w_x - 1) * (KL(x~ : H) + log w_x) for a
        # frequency set H and arbitrary positive x.
        for _ in range(100):
            s = random_frequency_set(rng)
            x = rng.uniform(0.01, 1.0, size=s.d) * rng.uniform(0.25, 4.0)
            w_x = x.sum()
            xt = x / w_x
            lhs = jeffreys_to_set(x, s)
            rhs = jeffreys_to_set(xt, s) + (w_x - 1.0) * (kl_to_set(xt, s) + math.log(w_x))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_kl_scaling_identity(self, rng):
        # For positive c with mass w: KL_plain(c/w : H) = KL_plain(c : H)/w - log w.
        for _ in range(100):
            s = random_frequency_set(rng)
            c = rng.uniform(0.01, 1.0, size=s.d) * rng.uniform(0.25, 2.0)
            w = c.sum()
            lhs = kl_to_set(c / w, s)
            rhs = kl_to_set(c, s) / w - math.log(w)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
