"""Tests of the Lambert W evaluation against an independent bisection oracle."""

import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jeffreys import NumericError, ValidationError, lambert_w0, lambert_w0_values
from jeffreys.lambertw import _MAX_STEPS
from conftest import w0_reference

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


def ulps_from_reference(xs, ws):
    """Largest distance of each ``ws`` from the 60-digit ``W0(xs)``, in ulps of ``ws``."""
    with localcontext(Context(prec=60)):
        return max(
            float(abs(Decimal(w) - w0_reference(x, w)) / Decimal(math.ulp(w)))
            for x, w in zip(map(float, xs), map(float, ws))
        )


class TestWarmStart:
    # The multiplier bisection's warm start: the root at x, then x moved by
    # e^delta and the tangent guess w + delta * w / (1 + w).  |delta| up to
    # 1 + ln 4096 covers the first warm halving at d = 4096.
    SPAN = 1.0 + math.log(4096.0)

    @settings(max_examples=100, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(st.floats(math.log(1e-300), math.log(1e300)), st.floats(-SPAN, SPAN)),
            min_size=1,
            max_size=32,
        )
    )
    def test_tangent_guess_converges_near_reference(self, lanes):
        # Over 3 * 10**6 random lanes of this domain (2 * 10**6 with x < 1e-8):
        # at most 7 steps, and at most 1.96 ulp warm, near x = 1e-16, where one
        # step from a guess far below already passes the absolute step test.
        # The cold start reads up to 1.29 ulp off criterion 1's grid, where
        # criterion 1 bounds it by 1.
        log_x, delta = np.array(lanes).T
        x = np.exp(log_x)
        w = lambert_w0_values(x)
        moved = x * np.exp(delta)
        warm, steps = lambert_w0_values(
            moved, return_iterations=True, guess=w + delta * w / (1.0 + w)
        )
        assert steps.max() <= _MAX_STEPS
        assert ulps_from_reference(moved, warm) <= 2.5

    def test_late_halving_takes_one_step(self):
        x = np.logspace(-300.0, 300.0, 601)
        w = lambert_w0_values(x)
        delta = 1e-12
        warm, steps = lambert_w0_values(
            x * np.exp(delta), return_iterations=True, guess=w + delta * w / (1.0 + w)
        )
        assert steps.max() == 1
        assert ulps_from_reference(x * np.exp(delta), warm) <= 2.5

    def test_unusable_guesses_take_the_cold_start(self):
        x = np.array([0.0, 0.5, 3.0, 1e10, 1e300, 0.0])
        guess = np.array([1.0, np.nan, np.inf, 0.0, -2.0, 0.0])
        cold, cold_steps = lambert_w0_values(x, return_iterations=True)
        warm, warm_steps = lambert_w0_values(x, return_iterations=True, guess=guess)
        # x == 0 returns 0 whatever its guess; the other lanes match bitwise.
        assert np.array_equal(warm, cold) and np.array_equal(warm_steps, cold_steps)
        assert warm[0] == 0.0 and warm_steps[0] == 0

    def test_guess_broadcasts_and_squeezes(self):
        x = np.array([[0.5, 2.0], [30.0, 1e5]])
        scalar, full = lambert_w0_values(x, guess=1.0), lambert_w0_values(x, guess=np.ones((2, 2)))
        assert np.array_equal(scalar, full)
        value, steps = lambert_w0_values(1.0, return_iterations=True, guess=0.5671432904097838)
        assert value == pytest.approx(0.5671432904097838, rel=2 * EPS) and steps == 1
