"""Centroid solvers: closed form, normalized bound, bisection, Newton, fixed point."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jeffreys import (
    BISECTION_HALVINGS,
    NumericError,
    ValidationError,
    WeightedHistogramSet,
    frequency_centroid_bisection,
    frequency_centroid_fixedpoint,
    jeffreys_to_set,
    kl,
    normalized_means,
    normalized_positive_centroid,
    positive_centroid,
    veldhuis_centroid,
)
from jeffreys.centroids import _means, _normalized_means, batch_frequency_bisection
from jeffreys.centroids import batch_frequency_fixedpoint, batch_frequency_newton
from jeffreys.histograms import smooth_bins
from jeffreys.lambertw import lambert_w0_values
from conftest import random_frequency_set, random_positive_set

CANONICAL = [[0.5, 0.5], [0.9, 0.1]]


def canonical_set():
    return WeightedHistogramSet(CANONICAL, frequency=True)


class TestPositiveCentroid:
    def test_identical_members(self):
        member = np.array([0.4, 1.1, 2.0])
        s = WeightedHistogramSet([member, member, member])
        r = positive_centroid(s)
        assert np.allclose(r.centroid.bins, member, atol=1e-12)
        assert r.objective == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_pair(self):
        # a = (2, 2), g = (sqrt(3), sqrt(3)); both coordinates solve
        # 2 / W0(2e / sqrt(3)), frozen from the bisection oracle for W0.
        s = WeightedHistogramSet([[1.0, 3.0], [3.0, 1.0]])
        r = positive_centroid(s)
        assert np.allclose(r.centroid.bins, 1.8635889573808236, atol=1e-12)
        assert r.w_c == pytest.approx(2 * 1.8635889573808236, abs=1e-12)

    def test_one_dimensional_pair(self):
        # members {1, e^2}: a = (1 + e^2)/2, g = e, c = a / W0(a e / g) = a / W0(a),
        # frozen from the golden-section oracle on x log(x/g) - a log(x).
        s = WeightedHistogramSet([[1.0], [math.e ** 2]])
        r = positive_centroid(s)
        assert r.centroid.bins[0] == pytest.approx(3.4151354955364208, abs=1e-12)

    def test_singleton_returns_member(self):
        s = WeightedHistogramSet([[2.0, 5.0]])
        r = positive_centroid(s)
        assert np.array_equal(r.centroid.bins, [2.0, 5.0])
        assert r.iterations == 0

    def test_stationarity(self, rng):
        for _ in range(50):
            s = random_positive_set(rng)
            c = positive_centroid(s).centroid.bins
            a, g = _means(s)
            residual = np.log(c / g) + 1.0 - a / c
            assert np.abs(residual).max() <= 1e-10

    def test_between_means(self, rng):
        for _ in range(50):
            s = random_positive_set(rng)
            c = positive_centroid(s).centroid.bins
            a, g = _means(s)
            assert np.all(c <= a * (1.0 + 1e-12))
            assert np.all(c >= g * (1.0 - 1e-12))

    def test_optimal_under_perturbation(self, rng):
        for _ in range(20):
            s = random_positive_set(rng)
            c = positive_centroid(s).centroid.bins
            base = jeffreys_to_set(c, s)
            for i in range(s.d):
                for sign in (+1.0, -1.0):
                    bumped = c.copy()
                    bumped[i] += sign * 1e-4 * c[i]
                    assert jeffreys_to_set(bumped, s) >= base - 1e-15


class TestNormalizedPositiveCentroid:
    def test_identical_members_tight(self):
        member = np.array([0.25, 0.75])
        s = WeightedHistogramSet([member, member], frequency=True)
        r = normalized_positive_centroid(s)
        assert np.allclose(r.centroid.bins, member, atol=1e-12)
        assert r.w_c == pytest.approx(1.0, abs=1e-12)
        assert r.bound_factor == pytest.approx(1.0, abs=1e-12)

    def test_canonical_pair(self):
        r = normalized_positive_centroid(canonical_set())
        exact = frequency_centroid_bisection(canonical_set(), tol=1e-12)
        assert r.w_c == pytest.approx(0.945701295196129, abs=1e-12)
        alpha = r.objective / exact.objective
        assert 1.0 - 1e-12 <= alpha <= 1.0 / r.w_c + 1e-12

    def test_requires_frequency_members(self):
        s = WeightedHistogramSet([[1.0, 3.0], [3.0, 1.0]])
        with pytest.raises(ValidationError):
            normalized_positive_centroid(s)

    def test_mass_at_most_one(self, rng):
        for _ in range(100):
            r = normalized_positive_centroid(random_frequency_set(rng))
            assert 0.0 < r.w_c <= 1.0 + 1e-12
            assert r.bound_factor >= 1.0 - 1e-12


class TestVeldhuisCentroid:
    def test_identical_members(self):
        member = np.array([0.6, 0.4])
        s = WeightedHistogramSet([member, member], frequency=True)
        assert np.allclose(veldhuis_centroid(s).centroid.bins, member, atol=1e-12)

    def test_canonical_pair_hand_value(self):
        # (a~ + g~)/2 with a~ = (0.7, 0.3) and g~ = (0.75, 0.25)
        r = veldhuis_centroid(canonical_set())
        assert np.allclose(r.centroid.bins, [0.725, 0.275], atol=1e-12)

    def test_never_beats_exact(self, rng):
        for _ in range(50):
            s = random_frequency_set(rng)
            v = veldhuis_centroid(s)
            exact = frequency_centroid_bisection(s)
            assert v.objective >= exact.objective - 1e-12


class TestBisection:
    def test_identical_members(self):
        member = np.array([0.3, 0.7])
        s = WeightedHistogramSet([member, member], frequency=True)
        r = frequency_centroid_bisection(s)
        assert np.allclose(r.centroid.bins, member, atol=1e-12)
        assert r.lambda_star == pytest.approx(0.0, abs=1e-12)
        assert r.iterations == 0

    def test_canonical_pair_beats_approximations(self):
        s = canonical_set()
        exact = frequency_centroid_bisection(s)
        assert exact.objective <= normalized_positive_centroid(s).objective + 1e-15
        assert exact.objective <= veldhuis_centroid(s).objective + 1e-15

    def test_canonical_pair_against_fine_grid(self):
        s = canonical_set()
        exact = frequency_centroid_bisection(s)
        t = np.arange(1e-6, 1.0, 1e-6)
        grid = np.column_stack([t, 1.0 - t])
        diff = grid - np.asarray(CANONICAL)[:, None, :]
        logs = np.log(grid)[None, :, :] - np.log(CANONICAL)[:, None, :]
        objective = 0.5 * (diff * logs).sum(axis=2).sum(axis=0)
        best = int(np.argmin(objective))
        assert exact.objective <= objective[best] + 1e-12
        assert abs(exact.centroid.bins[0] - t[best]) <= 2e-6

    def test_halving_schedule(self, rng):
        for _ in range(20):
            r = frequency_centroid_bisection(random_frequency_set(rng))
            assert r.iterations == BISECTION_HALVINGS
            assert r.mode == "bisection"
            assert r.simplex_defect <= 1e-12

    def test_lambda_sign_and_consistency(self, rng):
        for _ in range(50):
            s = random_frequency_set(rng)
            r = frequency_centroid_bisection(s)
            _, geom = normalized_means(s)
            assert r.lambda_star <= 0.0
            assert abs(r.lambda_star + kl(r.centroid, geom)) <= 1e-8

    def test_mass_function_decreasing_with_unit_bound(self, rng):
        # s(lam) is strictly decreasing on the bracket and s(0) <= 1.
        for _ in range(20):
            s = random_frequency_set(rng)
            arith, geom = normalized_means(s)
            a, g = arith.bins, geom.bins
            lo = float(np.max(a + np.log(g))) - 1.0
            lams = np.linspace(lo, 0.0, 30)
            masses = [
                float((a / lambert_w0_values((a / g) * math.exp(l + 1.0))).sum())
                for l in lams
            ]
            assert masses[-1] <= 1.0 + 1e-12
            assert masses[0] >= 1.0 - 1e-12
            assert np.all(np.diff(masses) < 0.0)

    def test_endpoint_matches_positive_centroid_of_means(self, rng):
        # At lam = 0 the multiplier system is the positive-centroid
        # stationarity equation with a := a~ and g := g~, so a degenerate
        # solve (identical members, a~ == g~) lands exactly on the
        # positive centroid of the pair {a~, g~}.
        member = rng.uniform(0.01, 1.0, size=5)
        member /= member.sum()
        s = WeightedHistogramSet([member, member], frequency=True)
        arith, geom = normalized_means(s)
        pair = WeightedHistogramSet(np.vstack([arith.bins, geom.bins]))
        r = frequency_centroid_bisection(s)
        assert np.allclose(
            r.centroid.bins, positive_centroid(pair).centroid.bins, atol=1e-12
        )

    def test_tol_validation(self):
        for tol in (0.0, -1e-9, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="tol"):
                frequency_centroid_bisection(canonical_set(), tol=tol)

    def test_unachievable_tol_raises(self):
        with pytest.raises(NumericError):
            frequency_centroid_bisection(canonical_set(), tol=1e-18)

    def test_singleton(self):
        s = WeightedHistogramSet([[0.2, 0.8]], frequency=True)
        r = frequency_centroid_bisection(s)
        assert np.array_equal(r.centroid.bins, [0.2, 0.8])
        assert r.lambda_star == 0.0 and r.iterations == 0


class TestBatchBisection:
    @staticmethod
    def stacked_problems(rng, d=6):
        sets = [random_frequency_set(rng, n=int(rng.integers(2, 6)), d=d) for _ in range(7)]
        member = rng.uniform(0.1, 1.0, size=d)
        sets.append(WeightedHistogramSet([member / member.sum()] * 3, frequency=True))
        means = [normalized_means(s) for s in sets]
        a = np.vstack([arith.bins for arith, _ in means])
        g = np.vstack([geom.bins for _, geom in means])
        return sets, a, g

    def test_rows_are_independent_bitwise(self, rng):
        _, a, g = self.stacked_problems(rng)
        lam, coords, halvings, defect = batch_frequency_bisection(a, g)
        for i in range(a.shape[0]):
            lam_i, coords_i, halvings_i, defect_i = batch_frequency_bisection(a[i:i + 1], g[i:i + 1])
            assert lam_i[0] == lam[i]
            assert np.array_equal(coords_i[0], coords[i])
            assert halvings_i[0] == halvings[i]
            assert defect_i[0] == defect[i]

    def test_matches_scalar_bisection(self, rng):
        sets, a, g = self.stacked_problems(rng)
        lam, coords, halvings, defect = batch_frequency_bisection(a, g)
        for i, s in enumerate(sets):
            r = frequency_centroid_bisection(s)
            assert np.abs(coords[i] - r.centroid.bins).max() <= 1e-12
            assert lam[i] == pytest.approx(r.lambda_star, abs=1e-12)
            assert halvings[i] == r.iterations
            assert defect[i] == r.simplex_defect
        # the identical-member row takes the s(0) ~ 1 shortcut
        assert halvings[-1] == 0 and lam[-1] == 0.0
        assert set(halvings[:-1]) == {BISECTION_HALVINGS}

    def test_bracket_violation_raises(self, monkeypatch):
        # s(lower) >= 1 holds analytically (the coordinate attaining the
        # bracket's max is exactly 1 there), so break W0 to reach the check.
        import jeffreys.centroids as centroids

        arith, geom = normalized_means(canonical_set())
        monkeypatch.setattr(centroids, "lambert_w0_values", lambda x: 4.0 * lambert_w0_values(x))
        with pytest.raises(NumericError, match="bracket"):
            batch_frequency_bisection(arith.bins[None, :], geom.bins[None, :])

    def test_final_simplex_defect_raises(self, monkeypatch):
        # Break only the last of the 55 W0 passes, which yields the returned
        # coordinates, so that their mass misses one by about 1e-6.
        import jeffreys.centroids as centroids

        arith, geom = normalized_means(canonical_set())
        calls = []

        def off_on_last_pass(x):
            calls.append(1)
            w = lambert_w0_values(x)
            return w * (1.0 + 1e-6) if len(calls) == 2 + BISECTION_HALVINGS + 1 else w

        monkeypatch.setattr(centroids, "lambert_w0_values", off_on_last_pass)
        with pytest.raises(NumericError, match="simplex defect"):
            batch_frequency_bisection(arith.bins[None, :], geom.bins[None, :])
        assert len(calls) == 2 + BISECTION_HALVINGS + 1


def sparse_problem(seed, alpha, d, n):
    """``(1, d)`` normalized means of ``n`` Dirichlet(alpha) rows, smoothed as the loader does."""
    rows = smooth_bins(np.random.default_rng(seed).dirichlet(np.full(d, alpha), size=n))
    weights = np.full(n, 1.0 / n)
    return _normalized_means((weights @ rows)[None], np.exp(weights @ np.log(rows))[None])


def relative_gap(x, y):
    return float(np.max(np.abs(x - y) / y))


def distance_to_exact(a, g, lam, candidates):
    """Largest relative distance of each candidate to the 50-digit centroid."""
    with mpmath.workdps(50):
        a_mp = [mpmath.mpf(v) for v in a]
        ratio = [mpmath.mpf(v) / mpmath.mpf(w) for v, w in zip(a, g)]

        def coords(lam):
            scale = mpmath.exp(lam + 1)
            return [v / mpmath.lambertw(r * scale).real for v, r in zip(a_mp, ratio)]

        lam = mpmath.findroot(lambda t: mpmath.fsum(coords(t)) - 1, mpmath.mpf(lam))
        exact = coords(lam)
        return [
            float(max(abs(mpmath.mpf(c) - e) / e for c, e in zip(candidate, exact)))
            for candidate in candidates
        ]


class TestBatchNewton:
    def test_rows_are_independent_bitwise(self, rng):
        _, a, g = TestBatchBisection.stacked_problems(rng)
        lam, coords, steps, defect = batch_frequency_newton(a, g)
        for i in range(a.shape[0]):
            lam_i, coords_i, steps_i, defect_i = batch_frequency_newton(a[i:i + 1], g[i:i + 1])
            assert lam_i[0] == lam[i]
            assert np.array_equal(coords_i[0], coords[i])
            assert steps_i[0] == steps[i]
            assert defect_i[0] == defect[i]

    def test_matches_bisection(self, rng):
        _, a, g = TestBatchBisection.stacked_problems(rng)
        lam, coords, steps, defect = batch_frequency_newton(a, g)
        lam_b, coords_b, _, _ = batch_frequency_bisection(a, g)
        assert relative_gap(coords, coords_b) <= 1e-15
        assert np.abs(lam - lam_b).max() <= 1e-15
        assert defect.max() <= 1e-12
        # the identical-member row takes the s(0) ~ 1 shortcut
        assert steps[-1] == 0 and lam[-1] == 0.0
        assert 1 <= steps[:-1].min() and steps.max() <= 8

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_alpha=st.floats(-3.0, 0.0),
        d=st.integers(2, 512),
        n=st.integers(2, 11),
    )
    def test_sparse_sets_match_bisection(self, seed, log_alpha, d, n):
        a, g = sparse_problem(seed, 10.0**log_alpha, d, n)
        lam, coords, steps, _ = batch_frequency_newton(a, g)
        _, coords_b, _, _ = batch_frequency_bisection(a, g)
        assert steps[0] <= 8
        if relative_gap(coords, coords_b) > 1e-15:
            newton, bisection = distance_to_exact(a[0], g[0], lam[0], [coords[0], coords_b[0]])
            assert newton <= bisection

    def test_scaled_w0_raises(self, monkeypatch):
        # W0 scaled by 4 puts the root of the scaled s below the bracket,
        # so the iterate runs into the bracket's lower end and never stops.
        import jeffreys.centroids as centroids

        arith, geom = normalized_means(canonical_set())
        monkeypatch.setattr(centroids, "lambert_w0_values", lambda x: 4.0 * lambert_w0_values(x))
        with pytest.raises(NumericError, match="Newton"):
            batch_frequency_newton(arith.bins[None, :], geom.bins[None, :])

    def test_final_simplex_defect_raises(self, monkeypatch):
        # Break only the last W0 pass, which yields the returned coordinates.
        import jeffreys.centroids as centroids

        arith, geom = normalized_means(canonical_set())
        a, g = arith.bins[None, :], geom.bins[None, :]
        passes = 1 + int(batch_frequency_newton(a, g)[2][0]) + 1
        calls = []

        def off_on_last_pass(x):
            calls.append(1)
            w = lambert_w0_values(x)
            return w * (1.0 + 1e-6) if len(calls) == passes else w

        monkeypatch.setattr(centroids, "lambert_w0_values", off_on_last_pass)
        with pytest.raises(NumericError, match="simplex defect"):
            batch_frequency_newton(a, g)
        assert len(calls) == passes


class TestFixedPoint:
    def test_identical_members_converges_first_step(self):
        member = np.array([0.3, 0.7])
        s = WeightedHistogramSet([member, member], frequency=True)
        r = frequency_centroid_fixedpoint(s)
        assert np.allclose(r.centroid.bins, member, atol=1e-12)
        assert r.iterations == 1
        assert r.lambda_star == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_bisection(self, rng):
        for _ in range(50):
            s = random_frequency_set(rng, d=int(rng.integers(2, 17)))
            b = frequency_centroid_bisection(s, tol=1e-12)
            f = frequency_centroid_fixedpoint(s, tol=1e-14)
            assert np.abs(b.centroid.bins - f.centroid.bins).max() <= 1e-10
            assert f.mode == "fixedpoint"
            assert not f.fallback

    def test_iteration_counts_moderate(self, rng):
        counts = [
            frequency_centroid_fixedpoint(random_frequency_set(rng)).iterations
            for _ in range(100)
        ]
        assert 3.0 <= np.mean(counts) <= 10.0
        assert max(counts) < 20

    def test_lambda_consistency(self, rng):
        for _ in range(50):
            s = random_frequency_set(rng)
            r = frequency_centroid_fixedpoint(s)
            _, geom = normalized_means(s)
            assert r.lambda_star <= 0.0
            assert abs(r.lambda_star + kl(r.centroid, geom)) <= 1e-8

    def test_cap_falls_back_to_bisection(self, rng):
        s = random_frequency_set(rng)
        with pytest.warns(RuntimeWarning, match="Newton"):
            r = frequency_centroid_fixedpoint(s, tol=1e-14, max_iterations=1)
        assert r.fallback
        b = frequency_centroid_bisection(s)
        assert np.abs(r.centroid.bins - b.centroid.bins).max() <= 1e-12

    def test_tol_validation(self):
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="tol"):
                frequency_centroid_fixedpoint(canonical_set(), tol=tol)
        for max_iterations in (0, -3):
            with pytest.raises(ValidationError, match="max_iterations"):
                frequency_centroid_fixedpoint(canonical_set(), max_iterations=max_iterations)


class TestBatchFixedPoint:
    def test_rows_are_independent_bitwise(self, rng):
        _, a, g = TestBatchBisection.stacked_problems(rng)
        lam, iterations, converged = batch_frequency_fixedpoint(a, g)
        for i in range(a.shape[0]):
            lam_i, iterations_i, converged_i = batch_frequency_fixedpoint(a[i:i + 1], g[i:i + 1])
            assert lam_i[0] == lam[i]
            assert iterations_i[0] == iterations[i]
            assert converged_i[0] == converged[i]

    def test_matches_scalar_fixedpoint(self, rng):
        sets, a, g = TestBatchBisection.stacked_problems(rng)
        lam, iterations, converged = batch_frequency_fixedpoint(a, g)
        assert converged.all()
        for i, s in enumerate(sets):
            r = frequency_centroid_fixedpoint(s)
            assert iterations[i] == r.iterations
            assert min(lam[i], 0.0) == r.lambda_star

    def test_capped_rows_are_not_converged(self, rng):
        _, a, g = TestBatchBisection.stacked_problems(rng)
        _, free, _ = batch_frequency_fixedpoint(a, g)
        cap = 2
        _, iterations, converged = batch_frequency_fixedpoint(a, g, cap=cap)
        assert np.array_equal(iterations, np.minimum(free, cap))
        assert np.array_equal(converged, free <= cap)
        # the identical-member row converges at once, the random ones need more
        assert converged[-1] and not converged[:-1].any()


class TestSandwich:
    def test_objective_ordering(self, rng):
        # J(c) <= J(c~) <= J(c~') and 1 <= alpha <= 1/w_c
        for _ in range(100):
            s = random_frequency_set(rng)
            pos = positive_centroid(s)
            exact = frequency_centroid_bisection(s)
            norm = normalized_positive_centroid(s)
            assert pos.objective <= exact.objective + 1e-10
            assert exact.objective <= norm.objective + 1e-10
            alpha = norm.objective / exact.objective if exact.objective > 0 else 1.0
            assert 1.0 - 1e-10 <= alpha <= 1.0 / norm.w_c + 1e-10
