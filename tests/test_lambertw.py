"""Tests of the Lambert W evaluation against an independent bisection oracle."""

import math
import sys
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jeffreys import NumericError, ValidationError, lambert_w0_values
from jeffreys.lambertw import _MAX_STEPS
from conftest import w0_reference, w0_residual

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


def w0(x):
    """``(W0(x), Halley steps)`` from a 0-d call of :func:`lambert_w0_values`."""
    value, steps = lambert_w0_values(x, return_iterations=True)
    return float(value), steps


class TestKnownValues:
    def test_zero(self):
        value, steps = w0(0.0)
        assert value == 0.0
        assert steps == 0
        assert w0_residual(0.0, value) == 0.0

    def test_at_e(self):
        # 1 * e^1 = e
        assert w0(math.e)[0] == pytest.approx(1.0, abs=1e-15)

    def test_omega_constant(self):
        oracle = w_bisection_oracle(1.0)
        assert oracle == pytest.approx(0.56714329040978, abs=1e-13)
        assert w0(1.0)[0] == pytest.approx(oracle, abs=1e-13)
        assert w0(1.0)[0] == pytest.approx(0.5671432904097838, abs=2e-16)

    def test_two_e_over_sqrt3(self):
        x = 2.0 * math.e / math.sqrt(3.0)
        oracle = w_bisection_oracle(x)
        value = w0(x)[0]
        assert value == pytest.approx(oracle, abs=1e-13)
        assert value == pytest.approx(1.0731980311854256, abs=5e-15)


class TestContract:
    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            lambert_w0_values(-1.0)
        with pytest.raises(ValidationError):
            lambert_w0_values(float("nan"))
        with pytest.raises(ValidationError):
            lambert_w0_values(float("inf"))
        with pytest.raises(ValidationError):
            lambert_w0_values(np.array([1.0, -2.0]))
        # Input that is not a rectangular array of numbers, and a guess that
        # does not broadcast to x, are the caller's error too.
        for x, kw in (
            ("abc", {}), ([1, [2, 3]], {}), (object(), {}), (10**400, {}),
            (np.ones(3), {"guess": np.ones(2)}), (np.ones(3), {"guess": "a"}),
        ):
            with pytest.raises(ValidationError):
                lambert_w0_values(x, **kw)

    def test_round_trip_moderate_range(self):
        # Where W(x) <= 7 the round trip is exact to a few epsilons.
        xs = np.logspace(-300, math.log10(7000.0), 4001)
        for x in xs:
            assert w0_residual(x, w0(x)[0]) <= 4.0 * EPS

    def test_round_trip_conditioning_bound(self):
        # The representable limit: |w e^w - x| / x cannot beat
        # (1 + w)/2 * eps, the half-ulp error of w amplified by the
        # round trip's conditioning.  Check we stay within a small
        # multiple of it across the full double range.
        xs = np.logspace(-300, 300, 4001)
        for x in xs:
            value = w0(x)[0]
            assert w0_residual(x, value) <= (2.0 + value) * EPS

    def test_iteration_budget(self):
        xs = np.logspace(-300, 300, 10001)
        for x in xs:
            assert w0(x)[1] <= 5

    def test_extremes_of_double_range(self):
        for x in (sys.float_info.max, sys.float_info.min, 5e-324, 2.0 ** 1023):
            value, steps = w0(x)
            assert steps <= 5
            assert math.isfinite(value)
            assert w0_residual(x, value) <= (2.0 + value) * EPS
        assert w0(5e-324)[0] == 5e-324

    def test_monotone(self):
        xs = np.logspace(-300, 300, 10001)
        w = lambert_w0_values(xs)
        assert np.all(np.diff(w) > 0.0)

    def test_w_at_least_one_beyond_e(self):
        for x in (math.e, 3.0, 10.0, 1e5, 1e80):
            assert w0(x)[0] >= 1.0

    def test_scalar_and_array_paths_agree(self):
        xs = np.logspace(-20, 20, 997)
        w_arr, its = lambert_w0_values(xs, return_iterations=True)
        for x, w, it in zip(xs, w_arr, its):
            assert w0(float(x))[0] == pytest.approx(w, rel=4 * EPS)
            assert it <= 5
        assert lambert_w0_values(np.float64(1.0)) == pytest.approx(0.5671432904097838)

    def test_scalar_and_array_paths_agree_bitwise(self, rng):
        # Every lane of criterion 1's grid, of random arguments over the
        # double range and of the edge lanes (zero, subnormals, both sides of
        # the guess switch at e, the top of the range) gives bitwise the same
        # value and step count from a 0-d call of a Python float as inside
        # the array call.
        edges = [0.0, 5e-324, 1e-310, math.e, np.nextafter(math.e, 0.0), 1.0, 1e300]
        xs = np.concatenate([np.logspace(-300.0, 300.0, 10**4),
                             np.exp(rng.uniform(-700.0, 700.0, 2000)), edges])
        scalars = [w0(float(x)) for x in xs]
        values, steps = lambert_w0_values(xs, return_iterations=True)
        assert np.array_equal([value for value, _ in scalars], values)
        assert np.array_equal([n for _, n in scalars], steps)

    def test_lanes_are_independent(self, rng):
        # A lane's value and step count do not depend on its neighbours: a 0-d
        # call, a one-element call, the lane inside the whole array and the
        # lane inside a 2-D reshape of it agree bitwise.  The array is
        # criterion 1's grid, random arguments over the double range, and the
        # edge lanes: zero, subnormals, both sides of the guess switch at e,
        # and the top of the range.
        grid = np.logspace(-300.0, 300.0, 10**4)
        edges = [0.0, 5e-324, 1e-310, math.e, np.nextafter(math.e, 0.0), 1.0, 1e300,
                 sys.float_info.max]
        xs = np.concatenate([grid, np.exp(rng.uniform(-700.0, 700.0, 2000)), edges])
        values, steps = lambert_w0_values(xs, return_iterations=True)
        values_2d, steps_2d = lambert_w0_values(xs.reshape(-1, 8), return_iterations=True)
        assert np.array_equal(values_2d.ravel(), values)
        assert np.array_equal(steps_2d.ravel(), steps)
        picks = np.concatenate([
            rng.choice(grid.size, 300, replace=False),
            grid.size + rng.choice(2000, 50, replace=False),
            np.arange(xs.size - len(edges), xs.size),
        ])
        for i in picks:
            alone, alone_steps = lambert_w0_values(xs[i], return_iterations=True)
            one, one_steps = lambert_w0_values(xs[i : i + 1], return_iterations=True)
            assert alone.shape == () and isinstance(alone_steps, int)
            assert alone == one[0] == values[i] and alone_steps == one_steps[0] == steps[i]
        assert lambert_w0_values(np.float64(1.0)) == pytest.approx(0.5671432904097838)

    def test_random_round_trip_against_oracle(self, rng):
        for _ in range(200):
            x = float(np.exp(rng.uniform(-5.0, 12.0)))
            assert w0(x)[0] == pytest.approx(w_bisection_oracle(x), abs=1e-12)


def ulps_from_reference(xs, ws):
    """Largest distance of each ``ws`` from the 60-digit ``W0(xs)``, in ulps of ``ws``."""
    with localcontext(Context(prec=60)):
        return max(
            float(abs(Decimal(w) - w0_reference(x, w)) / Decimal(math.ulp(w)))
            for x, w in zip(map(float, xs), map(float, ws))
        )


class TestColdAccuracy:
    # Off criterion 1's grid the cold start is not faithfully rounded: of
    # 2 * 10**5 log-uniform x in [1e-10, 0.1], 515 came out more than one
    # ulp from the 60-digit reference (at most 1.41), and 2 * 10**5 x in
    # [1e-3, 1e-2] reached 1.45 ulp (x = 3.8e-3).
    @settings(max_examples=30, deadline=None)
    @given(
        log_x=st.lists(st.floats(math.log(1e-300), math.log(1e300)), min_size=1, max_size=64)
    )
    def test_within_one_and_a_half_ulp(self, log_x):
        x = np.exp(np.array(log_x))
        assert ulps_from_reference(x, lambert_w0_values(x)) <= 1.5


class TestBuffers:
    # The Halley steps write into buffers of their own, never into the caller's.
    def test_arguments_are_not_modified(self, rng):
        x = np.exp(rng.uniform(-30.0, 30.0, (50, 7)))
        guess = lambert_w0_values(x) * rng.uniform(0.5, 1.5, x.shape)
        guess[0, :3] = [np.nan, -1.0, 0.0]
        x_before, guess_before = x.copy(), guess.copy()
        lambert_w0_values(x, guess=guess)
        lambert_w0_values(x)
        assert np.array_equal(x, x_before)
        assert np.array_equal(guess, guess_before, equal_nan=True)

    def test_read_only_broadcast_guess(self):
        x = np.array([[0.5, 2.0, 30.0], [0.7, 3.0, 50.0]])
        x.flags.writeable = False
        guess = np.broadcast_to(np.array([0.5, 1.0, 2.5]), x.shape)
        assert not guess.flags.writeable
        value, steps = lambert_w0_values(x, return_iterations=True, guess=guess)
        full = lambert_w0_values(x, return_iterations=True, guess=np.array(guess))
        assert np.array_equal(value, full[0]) and np.array_equal(steps, full[1])

    def test_iterations_do_not_change_the_values(self, rng):
        x = np.concatenate([[0.0, 5e-324], np.exp(rng.uniform(-700.0, 700.0, 500))])
        guess = lambert_w0_values(x) * rng.uniform(0.999, 1.001, x.size)
        guess[::7] = np.nan
        for g in (None, guess):
            with_steps, _ = lambert_w0_values(x, return_iterations=True, guess=g)
            assert np.array_equal(lambert_w0_values(x, guess=g), with_steps)


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

    # Over 4 * 10**6 random lanes, every guess with 0 < guess <= 2 W0(x) and
    # |guess - W0(x)| <= 6 took at most 8 Halley steps and came within 2 ulp
    # of the cold value; the first lane to exhaust the 10 steps was 10.3 below
    # its root.  Farther guesses are drawn here too, down to 1e-300 of the
    # root and 16 away.  The examples: 8 steps from 1e-3 W0(x) at W0 = 4.4;
    # 2.0 ulp from 2 W0(x) at x = 1.8e-16; 2 W0(x) at W0 = 13.0, which raises.
    @settings(max_examples=100, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.floats(math.log(1e-300), math.log(1e300)),
                st.floats(-16.0, 16.0),
                st.floats(-300.0, 0.0),
            ),
            min_size=1,
            max_size=16,
        )
    )
    @example(lanes=[(5.909584641169218, -6.0, -3.0), (-36.25608815023884, 16.0, 0.0),
                    (15.539246595022291, 13.5, 0.0)])
    def test_perturbed_guess_is_accurate_or_raises(self, lanes):
        for log_x, shift, log_floor in lanes:
            x = math.exp(log_x)
            cold = float(lambert_w0_values(x))
            guess = min(max(cold + shift, cold * 10.0**log_floor), 2.0 * cold)
            try:
                warm = float(lambert_w0_values(x, guess=guess))
            except NumericError:
                assert abs(guess - cold) > 6.0
                continue
            assert abs(warm - cold) <= 2.0 * math.ulp(cold)

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


class TestAnyGuess:
    """``lambert_w0_values`` is total in ``guess``: any value, within 2 ulp of the cold one."""

    @pytest.mark.parametrize(
        "x, guess",
        [
            (1.568e9, 2.206e39),  # Halley's step of about 2 passed the relative test at once
            (4.734e-164, 1.375),  # the absolute step test stopped near 0, not at x
            (10.0, 1e160),  # r * (2 + w) overflowed
            (1.7e308, 1e-300),  # x * exp(-w) near the largest double: overflowed too
        ],
    )
    def test_far_guesses(self, x, guess):
        cold = float(lambert_w0_values(x))
        value, steps = lambert_w0_values(x, return_iterations=True, guess=guess)
        assert abs(float(value) - cold) <= 2.0 * math.ulp(cold)
        assert steps <= _MAX_STEPS

    @settings(max_examples=200, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.one_of(
                    st.floats(math.log(5e-324), math.log(sys.float_info.max)).map(math.exp),
                    st.floats(0.0, sys.float_info.max),
                ),
                st.one_of(
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(-745.0, 709.0).map(math.exp),
                    st.floats(-1000.0, 1000.0),
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_every_guess_lands_within_two_ulp(self, lanes):
        # A guess is either any double or, with the flag, an offset from the root.
        x = np.array([lane[0] for lane in lanes])
        cold = lambert_w0_values(x)
        guess = np.array([g for _, g, _ in lanes])
        offset = np.array([shifted for _, _, shifted in lanes])
        guess = np.where(offset & np.isfinite(guess), cold + guess, guess)
        value, steps = lambert_w0_values(x, return_iterations=True, guess=guess)
        assert steps.max() <= _MAX_STEPS
        assert np.all(np.abs(value - cold) <= 2.0 * np.spacing(cold))
