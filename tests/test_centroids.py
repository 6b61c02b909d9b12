"""Centroid solvers: closed form, normalized bound, bisection, Newton, fixed point."""

import math
import warnings

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
    normalized_means,
    normalized_positive_centroid,
    positive_centroid,
    veldhuis_centroid,
)
from jeffreys.centroids import _means, _normalized_means, batch_frequency_bisection
from jeffreys.centroids import batch_frequency_fixedpoint, batch_frequency_newton
from jeffreys.centroids import _simplex_coordinates
from jeffreys.histograms import smooth_bins
from jeffreys.lambertw import lambert_w0_values
from jeffreys.oracles import random_frequency_rows
from conftest import random_frequency_set, random_positive_set
from references import kl

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


class TestExtremeBins:
    # Finite members at the ends of the double range (ROADMAP direction 3).
    def test_overflowing_objective_is_numeric_error(self):
        # Defect B: the centroid is finite, but the weighted sum of the
        # divergences exceeds the double range.  No bare numpy warning.
        s = WeightedHistogramSet([[1e307, 1.7e308], [1.7e308, 1e307]])
        with pytest.raises(NumericError, match="positive: objective is not finite"):
            positive_centroid(s)

    def test_empty_bin_centre_is_infinitely_far(self):
        s = WeightedHistogramSet([[0.5, 0.5], [0.9, 0.1]], frequency=True)
        assert jeffreys_to_set([1.0, 0.0], s) == math.inf

    @pytest.mark.xfail(
        strict=True,
        raises=(ValidationError, RuntimeWarning),
        reason="defect A: a / g overflows before W0 (ROADMAP direction 3)",
    )
    def test_overflowing_ratio_has_finite_centroid(self):
        # mpmath: a = 3.33e299, g = 1e-100 in the first bin, so a / g = 3.3e399.
        s = WeightedHistogramSet([[1e300, 1.0], [1e-300, 1.0], [1e-300, 1.0]])
        c = positive_centroid(s).centroid.bins
        assert c == pytest.approx([3.6465e296, 1.0], rel=1e-4)


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
        exact = frequency_centroid_bisection(canonical_set())
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
        # W0 scaled by 4 puts the root of the scaled s below the bracket, so
        # the halvings run into its lower end and the final check raises.
        import jeffreys.centroids as centroids

        arith, geom = normalized_means(canonical_set())
        monkeypatch.setattr(
            centroids, "lambert_w0_values", lambda x, **kw: 4.0 * lambert_w0_values(x, **kw)
        )
        with pytest.raises(NumericError, match="simplex defect"):
            batch_frequency_bisection(arith.bins[None, :], geom.bins[None, :])

    def test_final_simplex_defect_raises(self, monkeypatch):
        # Break only the last of the 54 W0 passes, which yields the returned
        # coordinates, so that their mass misses one by about 1e-6.
        import jeffreys.centroids as centroids

        arith, geom = normalized_means(canonical_set())
        calls = []

        def off_on_last_pass(x, **kw):
            calls.append(1)
            w = lambert_w0_values(x, **kw)
            return w * (1.0 + 1e-6) if len(calls) == 1 + BISECTION_HALVINGS + 1 else w

        monkeypatch.setattr(centroids, "lambert_w0_values", off_on_last_pass)
        with pytest.raises(NumericError, match="simplex defect"):
            batch_frequency_bisection(arith.bins[None, :], geom.bins[None, :])
        assert len(calls) == 1 + BISECTION_HALVINGS + 1


class TestWarmBisection:
    @staticmethod
    def uniform_problems(d, trials=2000):
        """The trial harness's problems: pairs of uniform(0.01, 1) rows."""
        rows = random_frequency_rows(np.random.default_rng(d), trials, 2, d)
        a = rows.mean(axis=1)
        return _normalized_means(a, np.exp(np.log(rows).mean(axis=1)))

    @staticmethod
    def sparse_problems():
        problems = [sparse_problem(seed, 0.01, 64, 2 + seed % 10) for seed in range(40)]
        return np.vstack([a for a, _ in problems]), np.vstack([g for _, g in problems])

    @pytest.mark.parametrize("d", [2, 16, "sparse"])
    def test_matches_cold_start(self, monkeypatch, d):
        # Measured on these inputs: |lam_warm - lam_cold| at most 3.4 eps,
        # coordinates 0.5 eps apart, 1.69 to 1.76 Halley steps per pass
        # (2.39 to 2.48 when the guess is the previous W without the tangent).
        import jeffreys.centroids as centroids

        a, g = self.sparse_problems() if d == "sparse" else self.uniform_problems(d)
        a, g = np.vstack([a, a[:1]]), np.vstack([g, a[:1]])  # one degenerate row
        steps = []

        def counting(x, **kw):
            w, n = lambert_w0_values(x, return_iterations=True, **kw)
            steps.append(int(n.max()))
            return w

        monkeypatch.setattr(centroids, "lambert_w0_values", counting)
        lam, coords, halvings, _ = batch_frequency_bisection(a, g)
        # The cold reference drops every guess.
        monkeypatch.setattr(centroids, "lambert_w0_values", lambda x, **kw: lambert_w0_values(x))
        cold_lam, cold_coords, cold_halvings, _ = batch_frequency_bisection(a, g)

        eps = np.finfo(np.float64).eps
        assert np.abs(lam - cold_lam).max() <= 8.0 * eps
        assert np.abs(coords - cold_coords).max() <= 8.0 * eps
        assert np.array_equal(halvings, cold_halvings)
        # At d = 2 a few trials are degenerate too, as in the harness.
        assert set(halvings) == {0, BISECTION_HALVINGS} and halvings[-1] == 0
        assert len(steps) == 1 + BISECTION_HALVINGS + 1
        assert np.mean(steps) <= 2.0

    def test_first_halving_and_result_start_cold(self, monkeypatch):
        import jeffreys.centroids as centroids

        a, g = self.uniform_problems(2, trials=50)
        guesses = []

        def recording(x, **kw):
            guesses.append(kw.get("guess"))
            return lambert_w0_values(x, **kw)

        monkeypatch.setattr(centroids, "lambert_w0_values", recording)
        batch_frequency_bisection(a, g)
        cold = [i for i, guess in enumerate(guesses) if guess is None]
        assert cold == [0, 1, 1 + BISECTION_HALVINGS]


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
            b = frequency_centroid_bisection(s)
            f = frequency_centroid_fixedpoint(s)
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

    def test_cap_falls_back_to_newton(self, rng, monkeypatch):
        import jeffreys.centroids as centroids

        s = random_frequency_set(rng)
        monkeypatch.setattr(centroids, "_FIXEDPOINT_CAP", 1)
        with pytest.warns(RuntimeWarning, match="within 1 steps"):
            r = frequency_centroid_fixedpoint(s)
        assert r.fallback and r.iterations == 1
        b = frequency_centroid_bisection(s)
        assert np.abs(r.centroid.bins - b.centroid.bins).max() <= 1e-12


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

    def test_capped_rows_are_not_converged(self, rng, monkeypatch):
        import jeffreys.centroids as centroids

        _, a, g = TestBatchBisection.stacked_problems(rng)
        _, free, _ = batch_frequency_fixedpoint(a, g)
        cap = 2
        monkeypatch.setattr(centroids, "_FIXEDPOINT_CAP", cap)
        _, iterations, converged = batch_frequency_fixedpoint(a, g)
        assert np.array_equal(iterations, np.minimum(free, cap))
        assert np.array_equal(converged, free <= cap)
        # the identical-member row converges at once, the random ones need more
        assert converged[-1] and not converged[:-1].any()

    def test_iterations_count_w0_passes(self, monkeypatch):
        # Sparse rows take Aitken jumps, which reuse the last pass's values:
        # every map evaluation is one W0 pass and nothing else calls W0.
        import jeffreys.centroids as centroids

        problems = [sparse_problem(seed, 0.01, 64, 5) for seed in (1, 2)]
        a = np.vstack([arith for arith, _ in problems])
        g = np.vstack([geom for _, geom in problems])
        calls = []

        def counting(x):
            calls.append(x.shape)
            return lambert_w0_values(x)

        monkeypatch.setattr(centroids, "lambert_w0_values", counting)
        _, iterations, converged = batch_frequency_fixedpoint(a, g)
        assert converged.all() and iterations.min() > 7
        assert len(calls) == iterations.max()


class TestFixedAccuracy:
    # Worst cases over 1,500 random and 3,600 corner sets (alpha 1e-3 / 1e-2 / 1,
    # d 2 / 512, n 2 / 11): fixed point vs bisection 2.2e-14, Newton vs
    # bisection 1.1e-15, simplex defect 7.7e-14, |lam + KL| 1.5e-13.  Each
    # bound below leaves at least 10x over those.
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_alpha=st.floats(-3.0, 0.0),
        d=st.integers(2, 512),
        n=st.integers(2, 11),
    )
    def test_three_solvers_agree_on_sparse_sets(self, seed, log_alpha, d, n):
        rows = np.random.default_rng(seed).dirichlet(np.full(d, 10.0**log_alpha), size=n)
        s = WeightedHistogramSet(smooth_bins(rows), frequency=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            f = frequency_centroid_fixedpoint(s)
        assert len(caught) == f.fallback  # converged, or rescued with a warning
        b = frequency_centroid_bisection(s)
        arith, geom = normalized_means(s)
        lam, coords, _, defect = batch_frequency_newton(arith.bins[None], geom.bins[None])
        assert relative_gap(f.centroid.bins, b.centroid.bins) <= 1e-12
        assert relative_gap(coords[0], b.centroid.bins) <= 2e-14
        for lam_star, c, simplex_defect in (
            (f.lambda_star, f.centroid.bins, f.simplex_defect),
            (b.lambda_star, b.centroid.bins, b.simplex_defect),
            (float(lam[0]), coords[0], float(defect[0])),
        ):
            assert simplex_defect <= 1e-12
            assert lam_star <= 0.0
            assert abs(lam_star + kl(c, geom.bins)) <= 2e-12

    # Over 4,000 random sets of this domain the accelerated fixed point took
    # at most 46 map evaluations (mean 17.6) and its multiplier was within
    # 4.7e-15 * max(1, |lam|) of Newton's and the bisection's.
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_alpha=st.floats(-3.0, 0.0),
        d=st.integers(2, 512),
        n=st.integers(2, 11),
    )
    def test_fixedpoint_converges_without_rescue(self, seed, log_alpha, d, n):
        a, g = sparse_problem(seed, 10.0**log_alpha, d, n)
        lam, iterations, converged = batch_frequency_fixedpoint(a, g)
        assert converged[0] and iterations[0] <= 60
        lam_b, coords_b, _, _ = batch_frequency_bisection(a, g)
        lam_n = batch_frequency_newton(a, g)[0]
        scale = max(1.0, abs(float(lam[0])))
        assert abs(lam[0] - lam_n[0]) <= 5e-14 * scale
        assert abs(lam[0] - lam_b[0]) <= 5e-14 * scale
        coords = _simplex_coordinates(a, a / g, lam)
        assert relative_gap(coords, coords_b) <= 1e-12


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
