"""Tests of the Lambert W evaluation against an independent bisection oracle."""

import math

import numpy as np
import pytest

from jeffreys import NumericError, ValidationError, lambert_w0, lambert_w0_values

EPS = np.finfo(np.float64).eps


def w_bisection_oracle(x, tol=1e-15):
    """Solve w * exp(w) = x by plain bisection, independent of Halley."""
    lo = 0.0
    hi = 1.0
    while hi * math.exp(hi) < x:
        hi *= 2.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestKnownValues:
    def test_zero(self):
        ev = lambert_w0(0.0)
        assert ev.value == 0.0
        assert ev.iterations == 0
        assert ev.residual == 0.0

    def test_at_e(self):
        # 1 * e^1 = e
        assert lambert_w0(math.e).value == pytest.approx(1.0, abs=1e-15)

    def test_omega_constant(self):
        oracle = w_bisection_oracle(1.0)
        assert oracle == pytest.approx(0.56714329040978, abs=1e-13)
        assert lambert_w0(1.0).value == pytest.approx(oracle, abs=1e-13)
        assert lambert_w0(1.0).value == pytest.approx(0.5671432904097838, abs=2e-16)

    def test_two_e_over_sqrt3(self):
        x = 2.0 * math.e / math.sqrt(3.0)
        oracle = w_bisection_oracle(x)
        value = lambert_w0(x).value
        assert value == pytest.approx(oracle, abs=1e-13)
        assert value == pytest.approx(1.0731980311854256, abs=5e-15)


class TestContract:
    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            lambert_w0(-1.0)
        with pytest.raises(ValidationError):
            lambert_w0(float("nan"))
        with pytest.raises(ValidationError):
            lambert_w0(float("inf"))
        with pytest.raises(ValidationError):
            lambert_w0_values(np.array([1.0, -2.0]))

    def test_round_trip_moderate_range(self):
        # Where W(x) <= 7 the round trip is exact to a few epsilons.
        xs = np.logspace(-300, math.log10(7000.0), 4001)
        for x in xs:
            ev = lambert_w0(float(x))
            assert ev.residual <= 4.0 * EPS

    def test_round_trip_conditioning_bound(self):
        # The representable limit: |w e^w - x| / x cannot beat
        # (1 + w)/2 * eps, the half-ulp error of w amplified by the
        # round trip's conditioning.  Check we stay within a small
        # multiple of it across the full double range.
        xs = np.logspace(-300, 300, 4001)
        for x in xs:
            ev = lambert_w0(float(x))
            assert ev.residual <= (2.0 + ev.value) * EPS

    def test_iteration_budget(self):
        xs = np.logspace(-300, 300, 10001)
        for x in xs:
            assert lambert_w0(float(x)).iterations <= 5

    def test_extremes_of_double_range(self):
        import sys

        for x in (sys.float_info.max, sys.float_info.min, 5e-324, 2.0 ** 1023):
            ev = lambert_w0(x)
            assert ev.iterations <= 5
            assert math.isfinite(ev.value)
            assert ev.residual <= (2.0 + ev.value) * EPS
        assert lambert_w0(5e-324).value == 5e-324

    def test_monotone(self):
        xs = np.logspace(-300, 300, 10001)
        w = lambert_w0_values(xs)
        assert np.all(np.diff(w) > 0.0)

    def test_w_at_least_one_beyond_e(self):
        for x in (math.e, 3.0, 10.0, 1e5, 1e80):
            assert lambert_w0(x).value >= 1.0

    def test_scalar_and_array_paths_agree(self):
        xs = np.logspace(-20, 20, 997)
        w_arr, its = lambert_w0_values(xs, return_iterations=True)
        for x, w, it in zip(xs, w_arr, its):
            ev = lambert_w0(float(x))
            assert ev.value == pytest.approx(w, rel=4 * EPS)
            assert it <= 5
        assert lambert_w0_values(np.float64(1.0)) == pytest.approx(0.5671432904097838)

    def test_scalar_and_array_paths_agree_bitwise(self, rng):
        # Criterion 1's grid, random arguments over the double range, and
        # the edge lanes: zero, subnormals, both sides of the guess switch
        # at e, and the top of the range.
        edges = [0.0, 5e-324, 1e-310, math.e, np.nextafter(math.e, 0.0), 1.0, 1e300]
        xs = np.concatenate([np.logspace(-300.0, 300.0, 10**4),
                             np.exp(rng.uniform(-700.0, 700.0, 2000)), edges])
        evals = [lambert_w0(float(x)) for x in xs]
        values, steps = lambert_w0_values(xs, return_iterations=True)
        assert np.array_equal([e.value for e in evals], values)
        assert np.array_equal([e.iterations for e in evals], steps)

        # A lane's value and step count do not depend on its neighbours.
        mixed = rng.permutation(np.concatenate([rng.choice(xs, 301), edges])).reshape(-1, 7)
        values, steps = lambert_w0_values(mixed, return_iterations=True)
        for x, w, n in zip(mixed.flat, values.flat, steps.flat):
            alone, alone_steps = lambert_w0_values(np.float64(x), return_iterations=True)
            assert alone == w and alone_steps == n

    def test_random_round_trip_against_oracle(self, rng):
        for _ in range(200):
            x = float(np.exp(rng.uniform(-5.0, 12.0)))
            assert lambert_w0(x).value == pytest.approx(w_bisection_oracle(x), abs=1e-12)
