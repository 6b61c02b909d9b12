"""Centroid solvers: closed form, normalized bound, bisection, Newton, fixed point."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jeffreys import (
    BISECTION_HALVINGS,
    NumericError,
    ValidationError,
    WeightedHistogramSet,
    frequency_centroid_bisection,
    frequency_centroid_fixedpoint,
    jeffreys_to_set,
    normalized_positive_centroid,
    positive_centroid,
    veldhuis_centroid,
)
from jeffreys.centroids import _bracket, _means, _normalized_means, batch_frequency_bisection
from jeffreys.centroids import batch_frequency_fixedpoint, batch_frequency_newton
from jeffreys.centroids import FIXEDPOINT_TOL, _kl_multiplier, _on_simplex, _ratio, _simplex_coordinates
from jeffreys.histograms import smooth_bins
from jeffreys.lambertw import lambert_w0_values
from jeffreys.oracles import random_frequency_rows
from conftest import random_frequency_set, random_positive_set
from references import kl, normalized_means

CANONICAL = [[0.5, 0.5], [0.9, 0.1]]


def canonical_set():
    return WeightedHistogramSet(CANONICAL, frequency=True)


def final_width(a, g):
    """Each row's bracket width after the bisection's 52 halvings, ``|lo| 2**-52``."""
    return -_bracket(np.atleast_2d(a), np.atleast_2d(g)) * 2.0**-BISECTION_HALVINGS


def rounding_region(a, g, lam):
    """``(d + 8) eps / |s'(lam)|`` per row.

    The half-width of the region around a root where a computed ``s - 1``
    is within its rounding of 0 and can take either sign.
    """
    w = lambert_w0_values(_ratio(a, g) * np.exp(lam + 1.0)[:, None])
    return (a.shape[1] + 8) * np.finfo(np.float64).eps / np.sum(a / (w * (1.0 + w)), axis=1)


def rounding_bound(a, g, lam):
    """Each row's bound on the gap between two bisections' multipliers near ``lam``.

    The larger of two final bracket widths and :func:`rounding_region`.
    """
    return np.maximum(2.0 * final_width(a, g), rounding_region(a, g, lam))


def bisection_on_simplex(a, g, estimate=None):
    """Bisection multipliers finished by ``_on_simplex``: ``(lam, coords, defect, evaluated)``.

    Without an estimate every halving is evaluated: ``evaluated`` is each
    row's 52 halvings.
    """
    lam, evaluated = batch_frequency_bisection(a, g, estimate)
    coords, defect = _on_simplex(a, _ratio(a, g), lam, "bisection")
    return lam, coords, defect, evaluated


def anchor_lanes(lo, hi, count, prev, lo_out):
    """The ``W0`` lanes of each pass of ``_halvings`` that its anchor rule asks for.

    Replays each row's ``count`` halvings from the bracket ``[lo, hi]``
    that ``_halvings`` was given to the ``lo_out`` it returned: halving
    ``k`` kept ``[mid, hi]`` where ``lo_out >= mid``, else ``[lo, mid]``.
    A halving takes a ``W0`` lane where its ``mid`` is more than ``2**-27``
    from the row's anchor, the multiplier of its last lane (``prev`` at
    first; NaN, no anchor), and anchors there.  Returns, for each pass that
    takes any lane, the number of its lanes.
    """
    lo, hi, anchor = lo.copy(), hi.copy(), prev.copy()
    lanes = []
    for k in range(int(count.max(initial=0))):
        mid = 0.5 * (lo + hi)
        running = count > k
        w0 = running & ~(np.abs(mid - anchor) <= 2.0**-27)
        if w0.any():
            lanes.append(int(np.count_nonzero(w0)))
        anchor = np.where(w0, mid, anchor)
        ge = lo_out >= mid
        lo = np.where(running & ge, mid, lo)
        hi = np.where(running & ~ge, mid, hi)
    return lanes


def spy_halvings(monkeypatch):
    """A list that gets :func:`anchor_lanes` of every ``_halvings`` call."""
    import jeffreys.centroids as centroids

    real, expected = centroids._halvings, []

    def recording(a, ratio, lo, hi, count, w, prev):
        lo_out, hi_out = real(a, ratio, lo, hi, count, w, prev)
        expected.append(anchor_lanes(lo, hi, count, prev, lo_out))
        return lo_out, hi_out

    monkeypatch.setattr(centroids, "_halvings", recording)
    return expected


class TestPositiveCentroid:
    def test_identical_members(self):
        member = np.array([0.4, 1.1, 2.0])
        s = WeightedHistogramSet([member, member, member])
        r = positive_centroid(s)
        assert np.allclose(r.centroid, member, atol=1e-12)
        assert r.objective == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_pair(self):
        # a = (2, 2), g = (sqrt(3), sqrt(3)); both coordinates solve
        # 2 / W0(2e / sqrt(3)), frozen from the bisection oracle for W0.
        s = WeightedHistogramSet([[1.0, 3.0], [3.0, 1.0]])
        r = positive_centroid(s)
        assert np.allclose(r.centroid, 1.8635889573808236, atol=1e-12)
        assert r.w_c == pytest.approx(2 * 1.8635889573808236, abs=1e-12)

    def test_one_dimensional_pair(self):
        # members {1, e^2}: a = (1 + e^2)/2, g = e, c = a / W0(a e / g) = a / W0(a),
        # frozen from the golden-section oracle on x log(x/g) - a log(x).
        s = WeightedHistogramSet([[1.0], [math.e ** 2]])
        r = positive_centroid(s)
        assert r.centroid[0] == pytest.approx(3.4151354955364208, abs=1e-12)

    def test_singleton_returns_member(self):
        s = WeightedHistogramSet([[2.0, 5.0]])
        r = positive_centroid(s)
        assert np.array_equal(r.centroid, [2.0, 5.0])
        assert r.iterations == 0

    def test_stationarity(self, rng):
        for _ in range(50):
            s = random_positive_set(rng)
            c = positive_centroid(s).centroid
            a, g = _means(s)
            residual = np.log(c / g) + 1.0 - a / c
            assert np.abs(residual).max() <= 1e-10

    def test_between_means(self, rng):
        for _ in range(50):
            s = random_positive_set(rng)
            c = positive_centroid(s).centroid
            a, g = _means(s)
            assert np.all(c <= a * (1.0 + 1e-12))
            assert np.all(c >= g * (1.0 - 1e-12))

    def test_optimal_under_perturbation(self, rng):
        for _ in range(20):
            s = random_positive_set(rng)
            c = positive_centroid(s).centroid
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
        reason="defect A: centroids._ratio's a / g overflows before centroids._w0_at "
        "calls W0 (ROADMAP direction 3)",
    )
    def test_overflowing_ratio_has_finite_centroid(self):
        # mpmath: a = 3.33e299, g = 1e-100 in the first bin, so a / g = 3.3e399.
        s = WeightedHistogramSet([[1e300, 1.0], [1e-300, 1.0], [1e-300, 1.0]])
        c = positive_centroid(s).centroid
        assert c == pytest.approx([3.6465e296, 1.0], rel=1e-4)


class TestCorruptedW0:
    """A ``W0`` lane that comes back NaN, 0 or inf is a numeric failure.

    The double corrupts the last lane of every ``W0`` call, so each
    centroid coordinate there is NaN, inf or 0.  The final simplex check or
    the objective check must turn that into :class:`NumericError`, not a
    :class:`ValidationError`, which would blame the input.  The fixed
    point raises it on the first multiplier that is not finite, before it
    would feed that back into ``W0``.
    """

    @pytest.mark.parametrize("bad", [np.nan, 0.0, np.inf])
    @pytest.mark.parametrize(
        "solver",
        [
            positive_centroid,
            normalized_positive_centroid,
            frequency_centroid_bisection,
            frequency_centroid_fixedpoint,
        ],
    )
    def test_is_numeric_error(self, monkeypatch, solver, bad):
        import jeffreys.centroids as centroids

        def corrupt_last_lane(x, **kw):
            out = lambert_w0_values(x, **kw)
            (out[0] if isinstance(out, tuple) else out)[..., -1] = bad
            return out

        monkeypatch.setattr(centroids, "lambert_w0_values", corrupt_last_lane)
        # Dividing by the corrupted lane makes numpy warn before any check runs.
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NumericError):
            solver(canonical_set())


class TestNormalizedPositiveCentroid:
    def test_identical_members_tight(self):
        member = np.array([0.25, 0.75])
        s = WeightedHistogramSet([member, member], frequency=True)
        r = normalized_positive_centroid(s)
        assert np.allclose(r.centroid, member, atol=1e-12)
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

    def test_builds_on_the_positive_solve(self, rng, monkeypatch):
        # One objective per call: the positive centroid's own is never computed.
        import jeffreys.centroids as centroids

        s = random_frequency_set(rng, n=3, d=5)
        calls = []

        def counting(c, s):
            calls.append(1)
            return jeffreys_to_set(c, s)

        monkeypatch.setattr(centroids, "jeffreys_to_set", counting)
        r = normalized_positive_centroid(s)
        assert len(calls) == 1
        monkeypatch.undo()
        pos = positive_centroid(s)
        np.testing.assert_array_equal(r.centroid, pos.centroid / pos.w_c)
        assert (r.w_c, r.bound_factor, r.iterations) == (pos.w_c, 1.0 / pos.w_c, pos.iterations)


class TestVeldhuisCentroid:
    def test_identical_members(self):
        member = np.array([0.6, 0.4])
        s = WeightedHistogramSet([member, member], frequency=True)
        assert np.allclose(veldhuis_centroid(s).centroid, member, atol=1e-12)

    def test_canonical_pair_hand_value(self):
        # (a~ + g~)/2 with a~ = (0.7, 0.3) and g~ = (0.75, 0.25)
        r = veldhuis_centroid(canonical_set())
        assert np.allclose(r.centroid, [0.725, 0.275], atol=1e-12)

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
        assert np.allclose(r.centroid, member, atol=1e-12)
        assert r.lambda_star == pytest.approx(0.0, abs=1e-12)
        # The root is the bracket's top: 52 halvings, ending within one final width of it.
        assert r.iterations == BISECTION_HALVINGS
        assert abs(r.lambda_star) <= final_width(*normalized_means(s))[0]

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
        assert abs(exact.centroid[0] - t[best]) <= 2e-6

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
            a, g = normalized_means(s)
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
        pair = WeightedHistogramSet(np.vstack([arith, geom]))
        r = frequency_centroid_bisection(s)
        assert np.allclose(
            r.centroid, positive_centroid(pair).centroid, atol=1e-12
        )

    def test_singleton(self):
        s = WeightedHistogramSet([[0.2, 0.8]], frequency=True)
        r = frequency_centroid_bisection(s)
        assert np.array_equal(r.centroid, [0.2, 0.8])
        assert r.lambda_star == 0.0 and r.iterations == 0


class TestBatchBisection:
    @staticmethod
    def stacked_problems(rng, d=6):
        sets = [random_frequency_set(rng, n=int(rng.integers(2, 6)), d=d) for _ in range(7)]
        member = rng.uniform(0.1, 1.0, size=d)
        sets.append(WeightedHistogramSet([member / member.sum()] * 3, frequency=True))
        means = [normalized_means(s) for s in sets]
        a = np.vstack([arith for arith, _ in means])
        g = np.vstack([geom for _, geom in means])
        return sets, a, g

    def test_rows_are_independent_bitwise(self, rng):
        _, a, g = self.stacked_problems(rng)
        lam, coords, defect, halvings = bisection_on_simplex(a, g)
        for i in range(a.shape[0]):
            lam_i, coords_i, defect_i, halvings_i = bisection_on_simplex(a[i:i + 1], g[i:i + 1])
            assert lam_i[0] == lam[i]
            assert np.array_equal(coords_i[0], coords[i])
            assert halvings_i[0] == halvings[i]
            assert defect_i[0] == defect[i]

    def test_matches_scalar_bisection(self, rng):
        # The scalar solver is the batch one with Newton's estimate, bit for
        # bit; without the estimate, its multiplier moves by rounding only.
        sets, a, g = self.stacked_problems(rng)
        lam, coords, defect, halvings = bisection_on_simplex(a, g)
        newton = bisection_on_simplex(a, g, batch_frequency_newton(a, g)[0])
        bound = rounding_bound(a, g, lam)
        for i, s in enumerate(sets):
            r = frequency_centroid_bisection(s)
            assert np.abs(coords[i] - r.centroid).max() <= 1e-12
            assert abs(min(lam[i], 0.0) - r.lambda_star) <= bound[i]
            assert halvings[i] == r.iterations
            assert r.lambda_star == min(newton[0][i], 0.0)
            assert r.centroid.tobytes() == newton[1][i].tobytes()
            assert r.simplex_defect == newton[2][i]
        # the identical-member row ends within one final bracket width of 0
        assert abs(lam[-1]) <= final_width(a, g)[-1]
        assert set(halvings) == {BISECTION_HALVINGS}

    def test_bracket_violation_raises(self, monkeypatch):
        # W0 scaled by 4 puts the root of the scaled s below the bracket, so
        # the halvings run into its lower end and the final check raises.
        import jeffreys.centroids as centroids

        arith, geom = normalized_means(canonical_set())
        monkeypatch.setattr(
            centroids, "lambert_w0_values", lambda x, **kw: 4.0 * lambert_w0_values(x, **kw)
        )
        with pytest.raises(NumericError, match="simplex defect"):
            bisection_on_simplex(arith[None, :], geom[None, :])

    @staticmethod
    def finish_with(monkeypatch, broken):
        """``_on_simplex`` on the canonical pair's bisection, with ``W0`` replaced by ``broken``.

        The bisection runs first, with the real ``W0``, so the one pass that
        ``broken`` sees is the finishing pass, which yields the returned
        coordinates; it must see exactly that one.
        """
        import jeffreys.centroids as centroids

        arith, geom = normalized_means(canonical_set())
        a, g = arith[None, :], geom[None, :]
        lam, _ = batch_frequency_bisection(a, g)
        calls = []

        def counting(x, **kw):
            calls.append(1)
            return broken(lambert_w0_values(x, **kw))

        monkeypatch.setattr(centroids, "lambert_w0_values", counting)
        try:
            _on_simplex(a, _ratio(a, g), lam, "bisection")
        finally:
            assert len(calls) == 1

    def test_final_simplex_defect_raises(self, monkeypatch):
        # The finishing pass, off by 1e-6, makes the mass miss one by about 1e-6.
        with pytest.raises(NumericError, match="simplex defect"):
            self.finish_with(monkeypatch, lambda w: w * (1.0 + 1e-6))

    def test_final_nan_lane_raises(self, monkeypatch):
        # A NaN defect compares False against any tolerance; it must still fail.
        def nan_lane(w):
            w[..., -1] = np.nan
            return w

        with pytest.raises(NumericError, match="simplex defect nan"):
            self.finish_with(monkeypatch, nan_lane)


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
        # coordinates 1 eps apart, 31 to 36 W0 passes, and 1.82 to 2.10
        # Halley steps per warm pass, the halvings within 2**-27 of their
        # anchor, which took one step each, taking none.
        import jeffreys.centroids as centroids

        a, g = self.sparse_problems() if d == "sparse" else self.uniform_problems(d)
        a, g = np.vstack([a, a[:1]]), np.vstack([g, a[:1]])  # one row of identical members
        steps, lanes = [], []
        expected = spy_halvings(monkeypatch)

        def counting(x, **kw):
            w, n = lambert_w0_values(x, return_iterations=True, **kw)
            steps.append(int(n.max()))
            lanes.append(x.shape[0])
            return w

        monkeypatch.setattr(centroids, "lambert_w0_values", counting)
        lam, coords, _, halvings = bisection_on_simplex(a, g)
        # The cold reference drops every guess.
        monkeypatch.setattr(centroids, "lambert_w0_values", lambda x, **kw: lambert_w0_values(x))
        cold_lam, cold_coords, _, cold_halvings = bisection_on_simplex(a, g)

        eps = np.finfo(np.float64).eps
        assert np.abs(lam - cold_lam).max() <= 8.0 * eps
        assert np.abs(coords - cold_coords).max() <= 8.0 * eps
        assert np.array_equal(halvings, cold_halvings)
        assert set(halvings) == {BISECTION_HALVINGS}
        # The lockstep's passes, by the anchor rule, and the result's.
        assert lanes[:-1] == expected[0] and len(expected[0]) < BISECTION_HALVINGS
        assert np.mean(steps[1:-1]) <= 2.5

    def test_first_halving_and_result_start_cold(self, monkeypatch):
        import jeffreys.centroids as centroids

        a, g = self.uniform_problems(2, trials=50)
        guesses = []
        expected = spy_halvings(monkeypatch)

        def recording(x, **kw):
            guesses.append(kw.get("guess"))
            return lambert_w0_values(x, **kw)

        monkeypatch.setattr(centroids, "lambert_w0_values", recording)
        bisection_on_simplex(a, g)
        # The first halving's guess is NaN on every row: each lane starts cold.
        cold = [i for i, guess in enumerate(guesses) if guess is None or np.isnan(guess).all()]
        passes = len(expected[0])
        assert len(guesses) == passes + 1 and cold == [0, passes]


class TestCertifiedBisection:
    """``batch_frequency_bisection(a, g, estimate=...)``: certified halvings."""

    @staticmethod
    def harness_problems(seed, trials, d, n=2):
        """Normalized means of the trial harness's problems: ``n`` uniform(0.01, 1) rows each."""
        rows = random_frequency_rows(np.random.default_rng(seed), trials, n, d)
        return _normalized_means(rows.mean(axis=1), np.exp(np.log(rows).mean(axis=1)))

    @staticmethod
    def near_degenerate_problems(d):
        """Members paired with copies perturbed by 1e-2 to 2e-3 relative.

        Their ``1 - s(0)`` runs from about 1e-11 down to the rounding floor
        of ``s`` and below it, and their roots are as close to the
        bracket's top, 0.
        """
        rng = np.random.default_rng(d)
        member = rng.uniform(0.1, 1.0, size=(4, d))
        scale = np.array([1e-2, 4e-3, 2.5e-3, 2e-3])[:, None]
        pairs = np.stack([member, member * (1.0 + scale * rng.standard_normal((4, d)))], axis=1)
        pairs /= pairs.sum(axis=2)[..., None]
        return _normalized_means(pairs.mean(axis=1), np.exp(np.log(pairs).mean(axis=1)))

    @staticmethod
    def fixedpoint_estimate(a, g):
        return batch_frequency_fixedpoint(a, g)[0]

    @staticmethod
    def exact_mass(a, g, lam):
        """The 50-digit ``s(lam) = sum_i a_i / W0(a_i e^(lam + 1) / g_i)`` of one row."""
        scale = mpmath.exp(mpmath.mpf(float(lam)) + 1)
        return mpmath.fsum(
            mpmath.mpf(v) / mpmath.lambertw(mpmath.mpf(v) / mpmath.mpf(w) * scale).real
            for v, w in zip(a, g)
        )

    def test_band_holds_the_exact_root(self):
        # The band's width rests on W0's measured 2-ulp bound; in 50 digits,
        # every band of an estimate must hold the root with room to spare:
        # s(band_lo) - 1 and 1 - s(band_hi) at least half the margin
        # 4 (d + 8) eps.  A band that reaches the bracket's top, 0, has no
        # upper end that a halving can reach.
        import jeffreys.centroids as centroids

        problems = [self.harness_problems(d, t, d) for d, t in ((2, 60), (16, 20), (64, 6))]
        for d in (3, 24):
            sparse = [sparse_problem(seed, 0.01, d, 2 + seed % 5) for seed in range(8)]
            problems.append([np.vstack(m) for m in zip(*sparse)])
        problems += [self.near_degenerate_problems(d) for d in (2, 5, 16)]
        # a = [2.1e-13, 1], g = [1.05e-20, 1]: the root is -1.83e-13.
        problems.append(sparse_problem(5685, 10.0**-1.59375, 2, 2))
        for a, g in problems:
            estimate = self.fixedpoint_estimate(a, g)
            band_lo, band_hi, _, _ = centroids._band(
                a, _ratio(a, g), estimate, centroids._bracket(a, g), np.zeros(a.shape[0])
            )
            margin = 4.0 * (a.shape[1] + 8) * np.finfo(np.float64).eps
            assert np.isfinite(band_lo).all() and np.isfinite(band_hi).all()
            with mpmath.workdps(50):
                for i in range(a.shape[0]):
                    assert self.exact_mass(a[i], g[i], band_lo[i]) - 1 >= margin / 2
                    if band_hi[i] < 0.0:
                        assert 1 - self.exact_mass(a[i], g[i], band_hi[i]) >= margin / 2

    def test_passes_follow_the_evaluations(self, monkeypatch):
        # The band's pass, the lockstep's passes by the anchor rule, and the
        # result.  Each lockstep pass takes only the rows with a halving
        # left whose mid is off their anchor.
        import jeffreys.centroids as centroids

        a, g = self.harness_problems(3, 200, 16)
        estimate = self.fixedpoint_estimate(a, g)
        calls = []
        expected = spy_halvings(monkeypatch)

        def counting(x, **kw):
            calls.append(np.shape(x)[0])
            return lambert_w0_values(x, **kw)

        monkeypatch.setattr(centroids, "lambert_w0_values", counting)
        _, _, _, evaluated = bisection_on_simplex(a, g, estimate)
        assert evaluated.max() < 30 and evaluated.mean() < 15
        assert calls == [a.shape[0]] + expected[0] + [a.shape[0]]

    def test_rows_without_a_band_join_the_one_lockstep(self, monkeypatch):
        # The fixed point's estimates, NaN on every fifth row and above the
        # bracket on row 1.  Those rows have no band: each must come out
        # bitwise as without an estimate, with 52 evaluations, while running
        # in the one lockstep of _halvings with the other rows, where its
        # first pass starts cold (a NaN guess).  W0 takes the band's pass,
        # the lockstep's passes by the anchor rule, each guessed, any cold
        # check of a final end, and the result's.  The rows with a band
        # start at their anchor, the band's pass, within 2**-27: the first
        # lockstep pass takes the rows without one alone.
        import jeffreys.centroids as centroids

        a, g = self.harness_problems(5, 40, 16)
        free = bisection_on_simplex(a, g)
        estimate = self.fixedpoint_estimate(a, g)
        no_band = np.arange(40) % 5 == 0
        estimate[no_band] = np.nan
        estimate[1], no_band[1] = 1.0, True
        real = centroids._halvings
        locksteps, guesses, lanes = [], [], []

        def recording(*args):
            locksteps.append(args[0].shape[0])
            return real(*args)

        def counting(x, **kw):
            guesses.append(kw.get("guess"))
            lanes.append(np.shape(x)[0])
            return lambert_w0_values(x, **kw)

        monkeypatch.setattr(centroids, "_halvings", recording)
        expected = spy_halvings(monkeypatch)
        monkeypatch.setattr(centroids, "lambert_w0_values", counting)
        lam, coords, defect, evaluated = bisection_on_simplex(a, g, estimate)
        for got, want in zip((lam, coords, defect), free):
            assert np.array_equal(got[no_band], want[no_band])
        assert np.all(evaluated[no_band] == BISECTION_HALVINGS)
        assert np.all(evaluated[~no_band] < BISECTION_HALVINGS)
        bitwise = (lam == free[0]) & np.all(coords == free[1], axis=1) & (defect == free[2])
        assert np.all(bitwise | (np.abs(lam - free[0]) <= rounding_bound(a, g, lam)))
        assert locksteps == [40]
        passes = len(expected[0])
        checks = len(guesses) - (1 + passes + 1)
        assert 0 <= checks <= 2
        guessed = [guess is not None for guess in guesses]
        assert guessed == [False] + [True] * passes + [False] * (checks + 1)
        assert lanes[1 : 1 + passes] == expected[0]
        assert lanes[1] == np.count_nonzero(no_band) and np.isnan(guesses[1]).all()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 64),
        n=st.integers(2, 5),
        bad=st.sampled_from(["nan", "inf", "-inf", "above", "below", "far"]),
        offset=st.floats(1e-6, 1.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    # Row 6's root is -1.3e-14, within one band of the bracket's top, so an
    # estimate above the bracket, clipped to 0, would certify.
    @example(seed=25585, d=2, n=2, bad="inf", offset=1.0, sign=-1.0)
    @example(seed=25585, d=2, n=2, bad="above", offset=1.0, sign=-1.0)
    @example(seed=25585, d=2, n=2, bad="far", offset=1e-6, sign=1.0)
    def test_bad_estimates_change_nothing(self, seed, d, n, bad, offset, sign):
        # Every other row gets a bad estimate: those rows must come out
        # bitwise as without one, with all 52 halvings evaluated.
        a, g = self.harness_problems(seed, 8, d, n)
        free = bisection_on_simplex(a, g)
        estimate = self.fixedpoint_estimate(a, g)
        bad_rows = np.arange(8) % 2 == 0
        estimate[bad_rows] = {
            "nan": np.nan, "inf": np.inf, "-inf": -np.inf, "above": 1.0, "below": -1e3,
            "far": free[0][bad_rows] + sign * offset,
        }[bad]
        lam, coords, defect, evaluated = bisection_on_simplex(a, g, estimate)
        for got, want in zip((lam, coords, defect), free):
            assert np.array_equal(got[bad_rows], want[bad_rows])
        assert np.all(evaluated[bad_rows] == BISECTION_HALVINGS)
        assert np.all(free[3] == BISECTION_HALVINGS)
        assert np.all(evaluated <= BISECTION_HALVINGS)
        # With the fixed point's estimate, the evaluated halvings take W from
        # another pass, or from the band pass's tangent, and the decisions
        # where s(mid) is within rounding of 1 can differ: lam then moves
        # within batch_frequency_bisection's guarantee, rounding_bound, and
        # the coordinates, whose log moves by at most |dlam|, as far
        # relative.  seed=3, d=2, n=2 with "nan" moved one row 2.003 final
        # bracket widths, where the bound allows 24.8.
        bound = rounding_bound(a, g, lam)
        assert np.all(np.abs(lam - free[0]) <= bound)
        assert np.all(np.max(np.abs(coords - free[1]) / free[1], axis=1) <= bound)


    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    def test_band_off_the_root_reruns_the_plain_schedule(self, monkeypatch, side):
        # Every other row's band moves a million half-widths (about 1e-7)
        # off the root, still certified: the halvings decided without a pass
        # then put one end of the bracket on the root's wrong side, where no
        # evaluated halving moves it.  The check of that end must catch the
        # row, which is then solved again without an estimate: the plain
        # schedule.  The stub shifts the outer call's bands only.
        import jeffreys.centroids as centroids

        a, g = self.harness_problems(11, 8, 16)
        free = bisection_on_simplex(a, g)
        shifted = np.arange(8) % 2 == 0
        real = centroids._band

        def off_the_root(a, ratio, estimate, lo, hi):
            band_lo, band_hi, lam, w = real(a, ratio, estimate, lo, hi)
            if a.shape[0] != shifted.size:  # the re-solve of the caught rows
                return band_lo, band_hi, lam, w
            off = np.where(shifted, side * 1e6 * (band_hi - band_lo), 0.0)
            return band_lo + off, band_hi + off, lam, w

        monkeypatch.setattr(centroids, "_band", off_the_root)
        lam, coords, defect, evaluated = bisection_on_simplex(
            a, g, self.fixedpoint_estimate(a, g)
        )
        for got, want in zip((lam, coords, defect), free):
            assert np.array_equal(got[shifted], want[shifted])
        assert np.all(evaluated[shifted] == BISECTION_HALVINGS)
        assert np.all(evaluated[~shifted] < BISECTION_HALVINGS)

    @pytest.mark.parametrize("k", [0.3, 0.6, 0.9, 1.1, 1.5, 3.0, 10.0, 100.0])
    @pytest.mark.parametrize("family", ["harness-2", "harness-16", "sparse-24"])
    def test_the_ends_check_is_the_one_certificate(self, monkeypatch, family, k):
        # Estimates k band half-widths off the estimate-free root, on both
        # sides.  Past k = 1 the band misses the root, and a halving decided
        # without a pass can put an end of the bracket on the root's wrong
        # side; only the check of the final ends can catch it.  A row it
        # catches reruns the plain schedule: bitwise the estimate-free
        # result, with 52 evaluations.  Every other row is bitwise that
        # result, or within rounding_bound of it.
        import jeffreys.centroids as centroids

        if family == "sparse-24":
            sparse = [sparse_problem(seed, 0.01, 24, 2 + seed % 5) for seed in range(100)]
            a, g = (np.vstack(m) for m in zip(*sparse))
        else:
            d = int(family.split("-")[1])
            a, g = self.harness_problems(d + 20, 100, d)
        free = bisection_on_simplex(a, g)
        delta = 8.0 * rounding_region(a, g, free[0])  # the band's half-width at the root
        index = {row.tobytes(): i for i, row in enumerate(a)}
        real = centroids.batch_frequency_bisection
        rerun = []

        # This module's batch_frequency_bisection is the outer call, so the
        # spy sees only the re-solves of rows that the check catches.
        def recording(a, g, estimate=None):
            if estimate is None:  # the plain schedule, cold from the bracket
                rerun.extend(index[row.tobytes()] for row in a)
            return real(a, g, estimate)

        monkeypatch.setattr(centroids, "batch_frequency_bisection", recording)
        for side in (-1.0, 1.0):
            rerun.clear()
            lam, coords, defect, evaluated = bisection_on_simplex(a, g, free[0] + side * k * delta)
            bitwise = (lam == free[0]) & np.all(coords == free[1], axis=1) & (defect == free[2])
            assert np.all(bitwise[rerun]) and np.all(evaluated[rerun] == BISECTION_HALVINGS)
            assert np.all(bitwise | (np.abs(lam - free[0]) <= rounding_bound(a, g, lam)))
            if k > 1.0:
                assert rerun


class TestScalarBisection:
    """``frequency_centroid_bisection``: Newton's multiplier as the root estimate."""

    # Over 9,000 random sets of this domain, all but 8 came out bit for bit
    # as the estimate-free bisection's.  On the others, an evaluated halving
    # whose s(mid) is within rounding of 1 went the other way, because its
    # W0 values start from another pass (see test_bad_estimates_change_nothing).
    # lam then moves by about one final bracket width, |lo| 2**-52: the
    # example seed=0, d=7, n=7 by 2 ulp, 1.4 widths (its final width, 1.6e-16,
    # is 1.4 ulp of lam), and its coordinates by 5.8e-16 relative; seed=2,
    # d=2, n=2 by 2.0001 widths.  Where the bracket is tiny, a width is far
    # below the rounding of a computed s: seed=2132318256, d=3, n=4 has
    # lo = -9.5e-10 and a final width of 2.1e-25, and its two multipliers
    # differ by 1.33e-16, 6.3e8 widths, with bitwise-equal centroids; both
    # lie within 1.1e-16 of the 50-digit root.  So the gap is bounded by two
    # widths or by (d + 8) eps / |s'(lam)|, the region where the computed
    # s(lam) - 1 is within rounding of 0, whichever is larger, and the
    # scalar lam must lie within that bound of the exact root.  Measured: of
    # 20,000 sets with d from 2 to 5, 41 differ and 5 exceed two widths; there
    # and over 10,000 sets with d up to 512, the gap stayed below
    # 0.1 (d + 8) eps / |s'(lam)|.
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_alpha=st.floats(-2.0, 1.0),
        d=st.integers(2, 512),
        n=st.integers(2, 11),
    )
    @example(seed=0, log_alpha=-1.9693515260828918, d=7, n=7)
    @example(seed=2, log_alpha=-0.30310641702553287, d=2, n=2)
    @example(seed=2132318256, log_alpha=-1.9799908627109164, d=3, n=4)
    def test_is_the_estimate_free_bisection(self, seed, log_alpha, d, n):
        rows = np.random.default_rng(seed).dirichlet(np.full(d, 10.0**log_alpha), size=n)
        s = WeightedHistogramSet(smooth_bins(rows), frequency=True)
        r = frequency_centroid_bisection(s)
        a, g = normalized_means(s)
        lam, coords, defect, halvings = bisection_on_simplex(a[None], g[None])
        assert r.iterations == halvings[0] == BISECTION_HALVINGS
        if r.lambda_star == min(lam[0], 0.0) and np.array_equal(r.centroid, coords[0]):
            assert r.simplex_defect == defect[0]
        else:
            # Only lam differs: the centroid is still c(lam) on the simplex, bit for bit.
            lam_r = np.array([r.lambda_star])
            at_lam, _ = _on_simplex(a[None], _ratio(a, g)[None], lam_r, "bisection")
            assert np.array_equal(r.centroid, at_lam[0])
            bound = rounding_bound(a[None], g[None], lam_r)[0]
            assert abs(r.lambda_star - lam[0]) <= bound
            with mpmath.workdps(50):
                root = exact_multiplier(exact_coordinates(a, g), r.lambda_star)
                assert abs(mpmath.mpf(r.lambda_star) - root) <= bound

    @staticmethod
    def counting(monkeypatch):
        import jeffreys.centroids as centroids

        calls = []

        def counting(x, **kw):
            calls.append(np.shape(x)[0])
            return lambert_w0_values(x, **kw)

        monkeypatch.setattr(centroids, "lambert_w0_values", counting)
        return calls

    def test_passes(self, rng, monkeypatch):
        # Newton's steps, the band's pass (the only one at Newton's
        # multiplier), the lockstep's by the anchor rule and the result's:
        # on this set 4 + 1 + 0 + 1 = 6, not 53.  Its 11 evaluated halvings
        # all lie within 2**-27 of the band's pass and take no W0 pass.
        s = random_frequency_set(rng, n=4, d=16)
        a, g = normalized_means(s)
        steps = batch_frequency_newton(a[None], g[None])[1]
        expected = spy_halvings(monkeypatch)
        calls = self.counting(monkeypatch)
        assert frequency_centroid_bisection(s).iterations == BISECTION_HALVINGS
        assert len(calls) == int(steps[0]) + 1 + len(expected[0]) + 1
        assert len(calls) < 30


def sparse_problem(seed, alpha, d, n):
    """``(1, d)`` normalized means of ``n`` Dirichlet(alpha) rows, smoothed as the loader does."""
    rows = smooth_bins(np.random.default_rng(seed).dirichlet(np.full(d, alpha), size=n))
    weights = np.full(n, 1.0 / n)
    return _normalized_means((weights @ rows)[None], np.exp(weights @ np.log(rows))[None])


def relative_gap(x, y):
    return float(np.max(np.abs(x - y) / y))


def exact_coordinates(a, g):
    """``lam -> c(lam)`` of one row's means, in the working precision of ``mpmath``."""
    a_mp = [mpmath.mpf(v) for v in a]
    ratio = [mpmath.mpf(v) / mpmath.mpf(w) for v, w in zip(a, g)]

    def coords(lam):
        scale = mpmath.exp(lam + 1)
        return [v / mpmath.lambertw(r * scale).real for v, r in zip(a_mp, ratio)]

    return coords


def exact_multiplier(coords, start):
    """The root of ``sum(coords(lam)) = 1``, searched from ``start``."""
    return mpmath.findroot(lambda t: mpmath.fsum(coords(t)) - 1, mpmath.mpf(start))


def distance_to_exact(a, g, lam, candidates):
    """Largest relative distance of each candidate to the 50-digit centroid."""
    with mpmath.workdps(50):
        coords = exact_coordinates(a, g)
        exact = coords(exact_multiplier(coords, lam))
        return [
            float(max(abs(mpmath.mpf(c) - e) / e for c, e in zip(candidate, exact)))
            for candidate in candidates
        ]


def newton_on_simplex(a, g):
    """Newton's ``(lam, coords, steps, defect)``: its multipliers, finished by ``_on_simplex``."""
    lam, steps = batch_frequency_newton(a, g)
    coords, defect = _on_simplex(a, _ratio(a, g), lam, "newton")
    return lam, coords, steps, defect


class TestBatchNewton:
    def test_rows_are_independent_bitwise(self, rng):
        _, a, g = TestBatchBisection.stacked_problems(rng)
        lam, coords, steps, defect = newton_on_simplex(a, g)
        for i in range(a.shape[0]):
            lam_i, coords_i, steps_i, defect_i = newton_on_simplex(a[i:i + 1], g[i:i + 1])
            assert lam_i[0] == lam[i]
            assert np.array_equal(coords_i[0], coords[i])
            assert steps_i[0] == steps[i]
            assert defect_i[0] == defect[i]

    def test_matches_bisection(self, rng):
        _, a, g = TestBatchBisection.stacked_problems(rng)
        lam, coords, steps, defect = newton_on_simplex(a, g)
        lam_b, coords_b, _, _ = bisection_on_simplex(a, g)
        assert relative_gap(coords, coords_b) <= 1e-15
        assert np.abs(lam - lam_b).max() <= 1e-15
        assert defect.max() <= 1e-12
        # the identical-member row stops after one step, within one final
        # bisection bracket width of 0
        assert steps[-1] == 1 and abs(lam[-1]) <= final_width(a, g)[-1]
        assert 1 <= steps.min() and steps.max() <= 8

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_alpha=st.floats(-3.0, 0.0),
        d=st.integers(2, 512),
        n=st.integers(2, 11),
    )
    def test_sparse_sets_match_bisection(self, seed, log_alpha, d, n):
        a, g = sparse_problem(seed, 10.0**log_alpha, d, n)
        lam, coords, steps, _ = newton_on_simplex(a, g)
        _, coords_b, _, _ = bisection_on_simplex(a, g)
        assert steps[0] <= 8
        if relative_gap(coords, coords_b) > 1e-15:
            newton, bisection = distance_to_exact(a[0], g[0], lam[0], [coords[0], coords_b[0]])
            assert newton <= bisection

    def test_scaled_w0_raises(self, monkeypatch):
        # W0 scaled by 4 puts the root of the scaled s below the bracket,
        # so the iterate runs into the bracket's lower end and never stops:
        # Newton has no multiplier at its cap, and the finish raises.
        import jeffreys.centroids as centroids

        raw_a, raw_g = _means(canonical_set())
        arith, geom = _normalized_means(raw_a[None], raw_g[None])
        monkeypatch.setattr(centroids, "lambert_w0_values", lambda x, **kw: 4.0 * lambert_w0_values(x))
        lam, steps = batch_frequency_newton(arith, geom)
        assert np.isnan(lam).all() and steps[0] == centroids._NEWTON_CAP
        with pytest.raises(NumericError, match="frequency_exact: no multiplier on 1 of 1 rows"):
            centroids._exact(raw_a[None], raw_g[None])

    @staticmethod
    def break_last_pass(monkeypatch, corrupt, match):
        """``corrupt`` the ``W0`` values of the last pass of Newton's two finishers.

        On the canonical set, k-means' ``frequency_exact`` builder makes
        Newton's steps and one ``_on_simplex`` pass; the fixed point rescued
        after one step makes that step, Newton's steps and one.  The last
        pass is the finish, whose check raises.
        """
        import jeffreys.centroids as centroids

        s = canonical_set()
        raw_a, raw_g = _means(s)
        arith, geom = normalized_means(s)
        steps = int(batch_frequency_newton(arith[None], geom[None])[1][0])
        monkeypatch.setattr(centroids, "_FIXEDPOINT_CAP", 1)
        finishers = {
            "frequency_exact": (lambda: centroids._exact(raw_a[None], raw_g[None]), 0),
            "fixedpoint": (lambda: frequency_centroid_fixedpoint(s), 1),
        }
        for mode, (finish, before) in finishers.items():
            passes = before + steps + 1
            calls = []

            def on_last_pass(x, **kw):
                calls.append(1)
                w = lambert_w0_values(x)
                return corrupt(w) if len(calls) == passes else w

            monkeypatch.setattr(centroids, "lambert_w0_values", on_last_pass)
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                with pytest.raises(NumericError, match=f"{mode}: {match}"):
                    finish()
            assert len(calls) == passes, mode

    def test_final_simplex_defect_raises(self, monkeypatch):
        # Break only the last W0 pass, which yields the returned coordinates.
        self.break_last_pass(monkeypatch, lambda w: w * (1.0 + 1e-6), "simplex defect")

    def test_final_nan_lane_raises(self, monkeypatch):
        def nan_lane(w):
            w[..., -1] = np.nan
            return w

        self.break_last_pass(monkeypatch, nan_lane, "simplex defect nan")


class TestFixedPoint:
    def test_identical_members_converges_first_step(self):
        member = np.array([0.3, 0.7])
        s = WeightedHistogramSet([member, member], frequency=True)
        r = frequency_centroid_fixedpoint(s)
        assert np.allclose(r.centroid, member, atol=1e-12)
        assert r.iterations == 1
        assert r.lambda_star == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_bisection(self, rng):
        for _ in range(50):
            s = random_frequency_set(rng, d=int(rng.integers(2, 17)))
            b = frequency_centroid_bisection(s)
            f = frequency_centroid_fixedpoint(s)
            assert np.abs(b.centroid - f.centroid).max() <= 1e-10
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
        assert np.abs(r.centroid - b.centroid).max() <= 1e-12

    def test_rescue_warning_points_at_the_caller(self, monkeypatch):
        import jeffreys.centroids as centroids

        monkeypatch.setattr(centroids, "_FIXEDPOINT_CAP", 1)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            r = frequency_centroid_fixedpoint(canonical_set())
        assert r.fallback
        assert [w.category for w in record] == [RuntimeWarning]
        assert record[0].filename == __file__


class TestBatchFixedPoint:
    def test_rows_are_independent_bitwise(self, rng):
        _, a, g = TestBatchBisection.stacked_problems(rng)
        lam, iterations = batch_frequency_fixedpoint(a, g)
        for i in range(a.shape[0]):
            lam_i, iterations_i = batch_frequency_fixedpoint(a[i:i + 1], g[i:i + 1])
            assert lam_i[0].tobytes() == lam[i].tobytes()
            assert iterations_i[0] == iterations[i]

    def test_matches_scalar_fixedpoint(self, rng):
        sets, a, g = TestBatchBisection.stacked_problems(rng)
        lam, iterations = batch_frequency_fixedpoint(a, g)
        assert not np.isnan(lam).any()
        for i, s in enumerate(sets):
            r = frequency_centroid_fixedpoint(s)
            assert iterations[i] == r.iterations
            assert min(lam[i], 0.0) == r.lambda_star

    def test_capped_rows_are_not_converged(self, rng, monkeypatch):
        import jeffreys.centroids as centroids

        _, a, g = TestBatchBisection.stacked_problems(rng)
        _, free = batch_frequency_fixedpoint(a, g)
        cap = 2
        monkeypatch.setattr(centroids, "_FIXEDPOINT_CAP", cap)
        lam, iterations = batch_frequency_fixedpoint(a, g)
        converged = ~np.isnan(lam)
        assert np.array_equal(iterations, np.minimum(free, cap))
        assert np.array_equal(converged, free <= cap)
        # the identical-member row converges at once, the random ones need more
        assert converged[-1] and not converged[:-1].any()

    @staticmethod
    def mixed_stack(d):
        """Rows that retire at different passes: dense, sparse, near-degenerate, degenerate.

        Returns the ``(T, d)`` means and the index of the first sparse row.
        """
        problems = [sparse_problem(seed, 1.0, d, n) for seed, n in enumerate((2, 3, 5, 4))]
        sparse = len(problems)
        problems += [sparse_problem(seed, 0.01, d, 5) for seed in (1, 2)]
        near = np.full((2, d), 1.0 / d)
        near[0, 0] += 1e-3
        near[1, 1] += 1e-3
        near /= near.sum(axis=1, keepdims=True)
        problems.append(_normalized_means(near.mean(axis=0)[None], np.exp(np.log(near).mean(axis=0))[None]))
        problems.append((np.full((1, d), 1.0 / d), np.full((1, d), 1.0 / d)))
        a = np.vstack([arith for arith, _ in problems])
        g = np.vstack([geom for _, geom in problems])
        return a, g, sparse

    @staticmethod
    def plain_passes(a, g):
        """Map evaluations of the paper's iteration without Aitken jumps, for one row."""
        log_g = np.log(g)
        lam = _kl_multiplier(a, log_g)
        for passes in range(1, 1000):
            lam_next = _kl_multiplier(_simplex_coordinates(a, _ratio(a, g), lam), log_g)
            if abs(lam_next[0] - lam[0]) <= FIXEDPOINT_TOL:
                return passes
            lam = lam_next
        raise AssertionError("the plain iteration did not converge")

    @pytest.mark.parametrize("d", [5, 64])
    def test_retired_rows_match_single_solves(self, d):
        a, g, sparse = self.mixed_stack(d)
        lam, iterations = batch_frequency_fixedpoint(a, g)
        assert not np.isnan(lam).any()
        # Rows retire at several passes: the degenerate row at the first, the
        # near-degenerate one at the second, the sparse ones last.
        assert iterations[-1] == 1 and iterations[-2] == 2
        assert iterations[sparse:-2].min() > iterations[:sparse].max()
        # The sparse rows jump: the plain iteration needs more passes.
        for i in range(sparse, a.shape[0] - 2):
            assert self.plain_passes(a[i:i + 1], g[i:i + 1]) > iterations[i]
        for i in range(a.shape[0]):
            lam_i, iterations_i = batch_frequency_fixedpoint(a[i:i + 1], g[i:i + 1])
            assert lam_i[0].tobytes() == lam[i].tobytes()
            assert iterations_i[0] == iterations[i]

    @pytest.mark.parametrize("d", [5, 64])
    def test_passes_evaluate_only_running_rows(self, d, monkeypatch):
        import jeffreys.centroids as centroids

        a, g, _ = self.mixed_stack(d)
        lanes = []

        def counting(x, **kw):
            lanes.append(x.size)
            return lambert_w0_values(x)

        monkeypatch.setattr(centroids, "lambert_w0_values", counting)
        _, iterations = batch_frequency_fixedpoint(a, g)
        running = [int((iterations >= p).sum()) * d for p in range(1, iterations.max() + 1)]
        assert lanes == running

    @pytest.mark.parametrize("d", [5, 64])
    def test_cap_on_mixed_stack(self, d, monkeypatch):
        import jeffreys.centroids as centroids

        a, g, _ = self.mixed_stack(d)
        free_lam, free = batch_frequency_fixedpoint(a, g)
        monkeypatch.setattr(centroids, "_FIXEDPOINT_CAP", 2)
        lam, iterations = batch_frequency_fixedpoint(a, g)
        converged = ~np.isnan(lam)
        assert np.array_equal(iterations, np.minimum(free, 2))
        assert np.array_equal(converged, free <= 2)
        assert converged.sum() == 2 and not converged[:-2].any()
        assert lam[converged].tobytes() == free_lam[converged].tobytes()

    def test_iterations_count_w0_passes(self, monkeypatch):
        # Sparse rows take Aitken jumps, which reuse the last pass's values:
        # every map evaluation is one W0 pass and nothing else calls W0.
        import jeffreys.centroids as centroids

        problems = [sparse_problem(seed, 0.01, 64, 5) for seed in (1, 2)]
        a = np.vstack([arith for arith, _ in problems])
        g = np.vstack([geom for _, geom in problems])
        calls = []

        def counting(x, **kw):
            calls.append(x.shape)
            return lambert_w0_values(x)

        monkeypatch.setattr(centroids, "lambert_w0_values", counting)
        lam, iterations = batch_frequency_fixedpoint(a, g)
        assert not np.isnan(lam).any() and iterations.min() > 7
        assert len(calls) == iterations.max()


class TestWarmPasses:
    """Newton and the fixed point start each pass but the first from the tangent guess."""

    @staticmethod
    def spy_guesses(monkeypatch):
        """Record ``(guess, step, W)`` for every ``W0`` pass that takes a guess.

        The guess is :func:`centroids._tangent`'s, handed to ``W0``
        untouched; ``step`` is the multiplier step it was formed across,
        one per lane.
        """
        import jeffreys.centroids as centroids

        real_tangent, real_w0, pending, seen = centroids._tangent, lambert_w0_values, [], []

        def tangent(w, step):
            guess = real_tangent(w, step)
            pending.append((guess, np.broadcast_to(step[:, None], guess.shape)))
            return guess

        def w0(x, **kw):
            w = real_w0(x, **kw)
            if kw.get("guess") is not None:
                guess, step = pending.pop()
                assert guess is kw["guess"]
                seen.append((guess, step, w))
            return w

        monkeypatch.setattr(centroids, "_tangent", tangent)
        monkeypatch.setattr(centroids, "lambert_w0_values", w0)
        return seen

    @pytest.mark.parametrize("solver", [batch_frequency_newton, batch_frequency_fixedpoint])
    @pytest.mark.parametrize("problems", ["sparse", 16])
    def test_matches_cold_start(self, monkeypatch, solver, problems):
        # Measured on these inputs: |lam_warm - lam_cold| at most 4 eps, at
        # most 3 counts of 2,000 moved, and 1 to 4 Halley steps per warm pass.
        import jeffreys.centroids as centroids

        if problems == "sparse":
            a, g = TestWarmBisection.sparse_problems()
        else:
            a, g = TestWarmBisection.uniform_problems(problems)
        steps = []

        def counting(x, **kw):
            w, n = lambert_w0_values(x, return_iterations=True, **kw)
            steps.append(int(n.max()))
            return w

        monkeypatch.setattr(centroids, "lambert_w0_values", counting)
        lam, count = solver(a, g)
        warm = steps[1:]
        steps.clear()
        # The cold reference drops every guess.
        monkeypatch.setattr(centroids, "lambert_w0_values", lambda x, **kw: counting(x))
        cold_lam, cold_count = solver(a, g)

        assert np.abs(lam - cold_lam).max() <= 8.0 * np.finfo(np.float64).eps
        assert np.count_nonzero(count != cold_count) <= a.shape[0] // 100
        assert set(steps) == {4} and max(warm) <= 4 and np.mean(warm) <= 3.0

    def test_far_start_is_cold(self, monkeypatch):
        # Dirichlet(0.01) means whose start lam_0 = -KL(a : g) lies 55 below the
        # bracket: the first step moves lam by more than 50, and the tangent
        # across it would guess far below W0, where Halley does not converge.
        a, g = sparse_problem(2, 0.01, 64, 3)
        lam_0 = _kl_multiplier(a, np.log(g))
        assert _bracket(a, g) - lam_0 > 50.0
        seen = self.spy_guesses(monkeypatch)
        lam, iterations = batch_frequency_fixedpoint(a, g)
        assert len(seen) == iterations[0] - 1
        first_guess, first_step, _ = seen[0]
        assert np.abs(first_step).min() > 50.0 and np.isnan(first_guess).all()
        assert np.abs(lam - batch_frequency_bisection(a, g)[0]).max() <= 1e-13

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_alpha=st.floats(-3.0, -1.0),
        log_epsilon=st.floats(-300.0, -3.0),
        dense=st.booleans(),
        d=st.integers(2, 2048),
        n=st.integers(2, 11),
    )
    def test_guesses_stay_in_the_warm_region(self, seed, log_alpha, log_epsilon, dense, d, n):
        # W is convex in log x with W'' <= 4/27, so every tangent guess is a
        # lower bound on its root, off by at most 2 step**2 / 27 plus rounding.
        # A step longer than the reach gives NaN, a cold start; so does a
        # tangent <= 0, which lambert_w0_values does not take as a guess.
        rng = np.random.default_rng(seed)
        if dense:
            rows = random_frequency_rows(rng, 1, n, d)[0]
        else:
            rows = smooth_bins(rng.dirichlet(np.full(d, 10.0**log_alpha), size=n), 10.0**log_epsilon)
        weights = np.full(n, 1.0 / n)
        a, g = _normalized_means((weights @ rows)[None], np.exp(weights @ np.log(rows))[None])
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = self.spy_guesses(monkeypatch)
            lam, _ = batch_frequency_newton(a, g)
            batch_frequency_fixedpoint(a, g)
            batch_frequency_bisection(a, g, lam)
        eps = np.finfo(np.float64).eps
        for guess, step, w in seen:
            finite = np.isfinite(guess)
            assert np.all(np.abs(step[finite]) <= 4.0)
            guess, step, w = guess[finite], step[finite], w[finite]
            assert np.all(guess <= w * (1.0 + 8.0 * eps))
            assert np.all(w - guess <= 2.0 * step**2 / 27.0 + 8.0 * eps * w)


class TestTangentExact:
    """A halving within ``_TANGENT_EXACT`` of its anchor takes ``W`` from the tangent, no pass."""

    # The tangent's truncation, at most h**2 / 2 = eps / 8 relative, and its
    # rounding, half an ulp, beside the two cold values' 1.5 ulp each.
    @settings(max_examples=100, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(st.floats(math.log(1e-300), math.log(700.0)), st.floats(-1.0, 1.0)),
            min_size=1,
            max_size=16,
        )
    )
    def test_tangent_only_w_is_w0(self, lanes):
        import jeffreys.centroids as centroids

        log_w, share = np.array(lanes).T
        w = np.exp(log_w)
        x = w * np.exp(w)  # the new argument
        anchor_x = x * np.exp(-share * centroids._TANGENT_EXACT)
        # The step from the anchor's argument to the new one, to 40 digits.
        with mpmath.workdps(40):
            step = np.array(
                [float(mpmath.log(mpmath.mpf(b) / mpmath.mpf(a))) for a, b in zip(anchor_x, x)]
            )
        tangent = centroids._tangent_line(lambert_w0_values(anchor_x)[:, None], step)[:, 0]
        cold = lambert_w0_values(x)
        assert np.all(np.abs(tangent - cold) <= 4.0 * np.spacing(cold))


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
        lam, coords, _, defect = newton_on_simplex(arith[None], geom[None])
        assert relative_gap(f.centroid, b.centroid) <= 1e-12
        assert relative_gap(coords[0], b.centroid) <= 2e-14
        for lam_star, c, simplex_defect in (
            (f.lambda_star, f.centroid, f.simplex_defect),
            (b.lambda_star, b.centroid, b.simplex_defect),
            (float(lam[0]), coords[0], float(defect[0])),
        ):
            assert simplex_defect <= 1e-12
            assert lam_star <= 0.0
            assert abs(lam_star + kl(c, geom)) <= 2e-12

    # Over 4,000 random sets of this domain the accelerated fixed point took
    # at most 15 map evaluations (mean 11.0; 46 and 17.6 before the
    # steady-ratio jump) and its multiplier was within 4.6e-15 * max(1, |lam|)
    # of Newton's and the bisection's.
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_alpha=st.floats(-3.0, 0.0),
        d=st.integers(2, 512),
        n=st.integers(2, 11),
    )
    # A root of -1.83e-13, next to the bracket's top.
    @example(seed=5685, log_alpha=-1.59375, d=2, n=2)
    def test_fixedpoint_converges_without_rescue(self, seed, log_alpha, d, n):
        a, g = sparse_problem(seed, 10.0**log_alpha, d, n)
        lam, iterations = batch_frequency_fixedpoint(a, g)
        assert not np.isnan(lam[0]) and iterations[0] <= 60
        lam_b, coords_b, _, _ = bisection_on_simplex(a, g)
        lam_n = batch_frequency_newton(a, g)[0]
        scale = max(1.0, abs(float(lam[0])))
        assert abs(lam[0] - lam_n[0]) <= 5e-14 * scale
        assert abs(lam[0] - lam_b[0]) <= 5e-14 * scale
        coords = _simplex_coordinates(a, _ratio(a, g), lam)
        assert relative_gap(coords, coords_b) <= 1e-12

    # Over 50,000 sparse sets of this domain the fixed point took at most 16
    # map evaluations (mean 10.3; one set took 16, 675 took 14 or 15), where
    # it took up to 46 (mean 17.9) before the steady-ratio jump, and its
    # multiplier was within 4.4e-15 * max(1, |lam|) of Newton's.
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_alpha=st.floats(-3.0, 0.0),
        d=st.integers(2, 8),
        n=st.integers(2, 11),
    )
    def test_steady_ratio_jumps_agree_with_newton(self, seed, log_alpha, d, n):
        a, g = sparse_problem(seed, 10.0**log_alpha, d, n)
        lam, iterations = batch_frequency_fixedpoint(a, g)
        assert not np.isnan(lam[0]) and iterations[0] <= 20
        lam_n = batch_frequency_newton(a, g)[0]
        assert abs(lam[0] - lam_n[0]) <= 1e-14 * max(1.0, abs(float(lam[0])))

    def test_roots_next_to_the_bracket_top(self):
        # Near-identical members put the root within about 1e-11 of 0, the
        # bracket's top.  The bisection and Newton land within 6 eps *
        # max(1, |lam|) of the 50-digit root; measured at most 2.1 and 1.6 eps.
        problems = [TestCertifiedBisection.near_degenerate_problems(d) for d in (2, 5, 16)]
        problems.append(sparse_problem(5685, 10.0**-1.59375, 2, 2))
        eps = np.finfo(np.float64).eps
        for a, g in problems:
            lam_b = batch_frequency_bisection(a, g)[0]
            lam_n = batch_frequency_newton(a, g)[0]
            for i in range(a.shape[0]):
                with mpmath.workdps(50):
                    root = float(exact_multiplier(exact_coordinates(a[i], g[i]), lam_b[i]))
                bound = 6.0 * eps * max(1.0, abs(root))
                assert abs(lam_b[i] - root) <= bound
                assert abs(lam_n[i] - root) <= bound


class TestOneFailureContract:
    """A solver without a multiplier returns NaN; ``_on_simplex`` is where that fails.

    Caps of one step leave every row that needs more unfinished.
    """

    @staticmethod
    def capped(monkeypatch):
        import jeffreys.centroids as centroids

        monkeypatch.setattr(centroids, "_NEWTON_CAP", 1)
        monkeypatch.setattr(centroids, "_FIXEDPOINT_CAP", 1)

    def test_batch_solvers_return_nan_without_raising(self, rng, monkeypatch):
        _, a, g = TestBatchBisection.stacked_problems(rng)
        free_newton = batch_frequency_newton(a, g)
        free_fixedpoint = batch_frequency_fixedpoint(a, g)
        self.capped(monkeypatch)
        for (free_lam, free_count), solver in (
            (free_newton, batch_frequency_newton), (free_fixedpoint, batch_frequency_fixedpoint)
        ):
            lam, count = solver(a, g)
            unfinished = free_count > 1
            # The identical-member row finishes in one step, the random ones do not.
            assert unfinished[:-1].all() and not unfinished[-1]
            assert np.isnan(lam[unfinished]).all()
            assert lam[~unfinished].tobytes() == free_lam[~unfinished].tobytes()
            assert np.array_equal(count, np.minimum(free_count, 1))

    @pytest.mark.parametrize("failure", ["nan-stub", "cap-1"])
    def test_bisection_runs_the_estimate_free_schedule(self, rng, monkeypatch, failure):
        # Newton's passes (none for a stub that returns NaN, one at a cap of
        # one step), the estimate-free lockstep's, by the anchor rule, and
        # the result's: the band takes no pass for a row without an estimate.
        import jeffreys.centroids as centroids

        s = random_frequency_set(rng, n=4, d=16)
        a, g = normalized_means(s)
        expected = spy_halvings(monkeypatch)
        lam, coords, defect, _ = bisection_on_simplex(a[None], g[None])
        if failure == "nan-stub":
            newton_passes = 0

            def failing(a, g):
                return np.full(a.shape[0], np.nan), np.full(a.shape[0], 100)

            monkeypatch.setattr(centroids, "batch_frequency_newton", failing)
        else:
            newton_passes = 1
            self.capped(monkeypatch)
        assert np.isnan(centroids.batch_frequency_newton(a[None], g[None])[0]).all()
        calls = TestScalarBisection.counting(monkeypatch)
        r = frequency_centroid_bisection(s)
        assert expected[1] == expected[0]
        assert len(calls) == newton_passes + len(expected[0]) + 1
        assert r.centroid.tobytes() == coords[0].tobytes()
        assert (r.lambda_star, r.simplex_defect) == (min(lam[0], 0.0), defect[0])

    def test_fixedpoint_without_a_rescue_raises(self, rng, monkeypatch):
        s = random_frequency_set(rng, n=4, d=16)
        self.capped(monkeypatch)
        with pytest.warns(RuntimeWarning, match="did not contract"):
            with pytest.raises(NumericError, match="fixedpoint: no multiplier on 1 of 1 rows"):
                frequency_centroid_fixedpoint(s)

    def test_kmeans_frequency_exact_raises(self, rng, monkeypatch):
        from jeffreys import ClusteringConfig, kmeans

        rows = rng.uniform(0.01, 1.0, size=(12, 8))
        s = WeightedHistogramSet(rows / rows.sum(axis=1, keepdims=True), frequency=True)
        self.capped(monkeypatch)
        with pytest.raises(NumericError, match="frequency_exact: no multiplier"):
            kmeans(s, ClusteringConfig(k=3, seed=0, centroid_mode="frequency_exact"))

    def test_trials_without_a_fixed_point_run_the_plain_bisection(self, monkeypatch):
        import jeffreys.oracles as oracles
        from jeffreys.oracles import run_alpha_trials

        real_fixedpoint, real_bisection = oracles._batch_fixedpoint, oracles._batch_bisection
        masks = []

        def recording(a, g):
            lam, iterations = real_fixedpoint(a, g)
            masks.append(np.isnan(lam))
            return lam, iterations

        self.capped(monkeypatch)
        monkeypatch.setattr(oracles, "_batch_fixedpoint", recording)
        trials = run_alpha_trials(200, 3)
        unfinished = np.concatenate(masks)
        assert unfinished.any()
        assert np.all(trials.bisection_evaluations[unfinished] == BISECTION_HALVINGS)
        monkeypatch.setattr(oracles, "_batch_bisection", lambda a, g, estimate: real_bisection(a, g))
        plain = run_alpha_trials(200, 3)
        assert trials.j_exact[unfinished].tobytes() == plain.j_exact[unfinished].tobytes()


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
