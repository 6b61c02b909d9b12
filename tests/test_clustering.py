"""Jeffreys k-means: seeding, Lloyd iteration, monotonicity, recovery."""

import numpy as np
import pytest

from jeffreys import (
    ClusteringConfig,
    ValidationError,
    WeightedHistogramSet,
    frequency_centroid_bisection,
    jeffreys,
    jeffreys_to_set,
    kmeans,
    normalized_means,
    normalized_positive_centroid,
    positive_centroid,
    seed_centroids,
)
from jeffreys.clustering import (
    CENTROID_MODE_EXACT,
    CENTROID_MODE_FIXEDPOINT_1STEP,
    CENTROID_MODE_NORMALIZED,
    CENTROID_MODE_POSITIVE,
    CENTROID_MODES,
    _one_step_frequency_update,
    _relocate,
)
from jeffreys.lambertw import lambert_w0_values
from conftest import planted_blobs, random_frequency_set


def small_frequency_set(rng, n=12, d=6):
    rows = rng.uniform(0.01, 1.0, size=(n, d))
    rows /= rows.sum(axis=1, keepdims=True)
    return WeightedHistogramSet(rows, frequency=True)


class TestSeeding:
    def test_k_equals_n_returns_all(self, rng):
        s = small_frequency_set(rng, n=7)
        assert np.array_equal(seed_centroids(s, 7, seed=0), np.arange(7))

    def test_k_one_is_a_member(self, rng):
        s = small_frequency_set(rng)
        (seed,) = seed_centroids(s, 1, seed=4)
        assert 0 <= seed < s.n

    def test_deterministic(self, rng):
        s = small_frequency_set(rng)
        assert np.array_equal(seed_centroids(s, 4, seed=9), seed_centroids(s, 4, seed=9))

    def test_distinct_indices(self, rng):
        s = small_frequency_set(rng)
        seeds = seed_centroids(s, 5, seed=2)
        rows = {tuple(s.matrix[i]) for i in seeds}
        assert len(rows) == 5

    def test_duplicates_fall_back_to_uniform(self):
        member = np.array([0.5, 0.5])
        s = WeightedHistogramSet([member] * 4, frequency=True)
        seeds = seed_centroids(s, 3, seed=0)
        assert len(set(seeds.tolist())) == 3

    def test_k_too_large(self, rng):
        s = small_frequency_set(rng, n=3)
        with pytest.raises(ValidationError):
            seed_centroids(s, 4, seed=0)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValidationError):
            ClusteringConfig(k=0)
        with pytest.raises(ValidationError):
            ClusteringConfig(k=2, max_iterations=0)
        with pytest.raises(ValidationError):
            ClusteringConfig(k=2, centroid_mode="nope")
        with pytest.raises(ValidationError):
            ClusteringConfig(k=2, objective_tolerance=-1.0)


class TestKMeans:
    def test_k_equals_n_zero_objective(self, rng):
        s = small_frequency_set(rng, n=6)
        res = kmeans(s, ClusteringConfig(k=6, seed=0))
        assert res.objective_trace[-1] == pytest.approx(0.0, abs=1e-12)
        assert sorted(res.assignments) == list(range(6))

    def test_k_one_positive_mode(self, rng):
        s = small_frequency_set(rng)
        res = kmeans(s, ClusteringConfig(k=1, seed=0))
        whole = positive_centroid(s)
        assert np.abs(res.centroids[0].bins - whole.centroid.bins).max() <= 1e-12

    def test_k_one_exact_mode(self, rng):
        s = small_frequency_set(rng)
        res = kmeans(s, ClusteringConfig(k=1, seed=0, centroid_mode=CENTROID_MODE_EXACT))
        whole = frequency_centroid_bisection(s)
        assert np.abs(res.centroids[0].bins - whole.centroid.bins).max() <= 1e-12

    def test_k_too_large(self, rng):
        s = small_frequency_set(rng, n=4)
        with pytest.raises(ValidationError):
            kmeans(s, ClusteringConfig(k=5, seed=0))

    @pytest.mark.parametrize("mode", CENTROID_MODES)
    def test_two_blob_recovery(self, mode):
        rng = np.random.default_rng(77)
        rows, labels = planted_blobs(rng, n=60, d=8)
        within = jeffreys(rows[0], rows[1])
        between = jeffreys(rows[0], rows[-1])
        assert between >= 100.0 * within
        s = WeightedHistogramSet(rows, frequency=True)
        res = kmeans(s, ClusteringConfig(k=2, centroid_mode=mode, seed=5))
        agreement = max(
            np.mean(res.assignments == labels), np.mean(res.assignments == 1 - labels)
        )
        assert agreement == 1.0

    @pytest.mark.parametrize("mode", CENTROID_MODES)
    def test_monotone_trace(self, mode, rng):
        for trial in range(5):
            s = small_frequency_set(rng, n=40, d=8)
            res = kmeans(s, ClusteringConfig(k=4, centroid_mode=mode, seed=trial))
            trace = res.objective_trace
            assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))

    def test_assignment_optimality(self, rng):
        s = small_frequency_set(rng, n=30, d=5)
        res = kmeans(s, ClusteringConfig(k=3, seed=1))
        for j, h in enumerate(s.matrix):
            own = jeffreys(h, res.centroids[res.assignments[j]].bins)
            for c in res.centroids:
                assert own <= jeffreys(h, c.bins) + 1e-12

    def test_deterministic(self, rng):
        s = small_frequency_set(rng, n=25)
        a = kmeans(s, ClusteringConfig(k=3, seed=42))
        b = kmeans(s, ClusteringConfig(k=3, seed=42))
        assert np.array_equal(a.assignments, b.assignments)
        assert a.objective_trace == b.objective_trace
        for x, y in zip(a.centroids, b.centroids):
            assert np.array_equal(x.bins, y.bins)

    def test_trace_length_matches_iterations(self, rng):
        s = small_frequency_set(rng, n=30)
        res = kmeans(s, ClusteringConfig(k=3, seed=2))
        assert len(res.objective_trace) >= res.iterations
        assert res.iterations >= 1

    def test_weighted_objective(self, rng):
        # the trace reports the pi-weighted divergence to assigned centroids
        s = small_frequency_set(rng, n=10, d=4)
        res = kmeans(s, ClusteringConfig(k=2, seed=3))
        total = sum(
            w * jeffreys(h, res.centroids[m].bins)
            for w, h, m in zip(s.weights, s.matrix, res.assignments)
        )
        assert res.objective_trace[-1] == pytest.approx(total, rel=1e-10, abs=1e-14)


class TestOneStepUpdate:
    def test_never_worse_than_arithmetic_mean_start(self, rng):
        # The single fixed-point refinement improves on the previous
        # centroid or the relocation keeps the previous one; check the raw
        # update against the canonical start point directly.
        for _ in range(20):
            s = random_frequency_set(rng)
            arith, geom = normalized_means(s)
            candidate = _one_step_frequency_update(arith.bins[None, :], geom.bins[None, :])[0]
            arith = s.weights @ s.matrix
            assert jeffreys_to_set(candidate, s) <= jeffreys_to_set(arith / arith.sum(), s) + 1e-12

    def test_relocation_guard_in_full_run(self, rng):
        s = small_frequency_set(rng, n=50, d=10)
        res = kmeans(
            s, ClusteringConfig(k=5, centroid_mode=CENTROID_MODE_FIXEDPOINT_1STEP, seed=8)
        )
        trace = res.objective_trace
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))


def one_step_reference(s):
    """The one-step update of a single cluster, written out per coordinate."""
    arith, geom = normalized_means(s)
    a, g = arith.bins, geom.bins
    lam = -float(np.sum(a * (np.log(a) - np.log(g))))
    coords = a / lambert_w0_values((a / g) * np.exp(lam + 1.0))
    return coords / coords.sum()


SCALAR_CANDIDATE = {
    CENTROID_MODE_POSITIVE: lambda s: positive_centroid(s).centroid.bins,
    CENTROID_MODE_NORMALIZED: lambda s: normalized_positive_centroid(s).centroid.bins,
    CENTROID_MODE_FIXEDPOINT_1STEP: one_step_reference,
    CENTROID_MODE_EXACT: lambda s: frequency_centroid_bisection(s).centroid.bins,
}


class TestBatchedRelocation:
    """One batched relocation equals the per-cluster scalar constructions."""

    @staticmethod
    def clustered(rng, d=7):
        # cluster 0: five members, 1: a singleton, 2: empty, 3: three
        # identical members (the s(0) ~ 1 path), 4: four members
        rows = rng.uniform(0.01, 1.0, size=(13, d))
        rows[6:9] = rows[6]
        rows /= rows.sum(axis=1, keepdims=True)
        weights = rng.uniform(0.2, 1.0, size=13)
        weights /= weights.sum()
        assign = np.array([0, 0, 0, 0, 0, 1, 3, 3, 3, 4, 4, 4, 4])
        # old centres far from every cluster, so that every update is kept
        centers = np.full((5, d), 0.01 / (d - 1))
        centers[:, 0] = 0.99
        return rows, weights, assign, centers

    @pytest.mark.parametrize("mode", CENTROID_MODES)
    def test_matches_per_cluster_solvers(self, mode, rng):
        rows, weights, assign, centers = self.clustered(rng)
        new = _relocate(rows, np.log(rows), weights, assign, centers, mode)
        for m in (0, 3, 4):
            idx = np.flatnonzero(assign == m)
            sub = WeightedHistogramSet(
                rows[idx], weights[idx] / weights[idx].sum(), frequency=True
            )
            assert np.abs(new[m] - SCALAR_CANDIDATE[mode](sub)).max() <= 1e-12
        assert np.array_equal(new[1], rows[5])
        assert np.array_equal(new[2], centers[2])

    def test_guard_keeps_better_old_centre(self, rng):
        rows, weights, assign, centers = self.clustered(rng)
        exact = _relocate(rows, np.log(rows), weights, assign, centers, CENTROID_MODE_EXACT)
        # the exact centroids are optimal, so no approximate update replaces them
        for mode in (CENTROID_MODE_NORMALIZED, CENTROID_MODE_FIXEDPOINT_1STEP):
            kept = _relocate(rows, np.log(rows), weights, assign, exact, mode)
            assert np.array_equal(kept[[0, 4]], exact[[0, 4]])


class TestRelocationCost:
    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_exact_round_makes_55_w0_calls_for_any_k(self, k, rng, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return lambert_w0_values(*args, **kwargs)

        monkeypatch.setattr("jeffreys.centroids.lambert_w0_values", counting)
        rows = rng.uniform(0.01, 1.0, size=(30, 6))
        rows /= rows.sum(axis=1, keepdims=True)
        assign = np.arange(30) % k
        centers = rows[:k].copy()
        _relocate(rows, np.log(rows), np.full(30, 1.0 / 30), assign, centers, CENTROID_MODE_EXACT)
        assert len(calls) == 55
