"""Jeffreys k-means: seeding, Lloyd iteration, monotonicity, recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jeffreys import (
    ClusteringConfig,
    NumericError,
    ValidationError,
    WeightedHistogramSet,
    frequency_centroid_bisection,
    jeffreys_to_set,
    kmeans,
    normalized_positive_centroid,
    positive_centroid,
    seed_centroids,
)
from jeffreys.centroids import MODES, _fixedpoint_1step
from jeffreys import clustering
from jeffreys.clustering import (
    _expanded_costs,
    _pairwise_jeffreys,
    _relocate,
)
from jeffreys.histograms import smooth_bins
from jeffreys.lambertw import lambert_w0_values
from conftest import planted_blobs, random_frequency_set
from references import jeffreys, normalized_means

#: The registry's k-means modes: the rows with a candidate builder.
KMEANS_MODES = [name for name, mode in MODES.items() if mode.builder]


def elementwise_costs(rows, centers):
    """``(n, k)`` Jeffreys costs summed per centre over the bins: the assignment's reference."""
    log_rows = np.log(rows)
    return np.stack([((rows - c) * (log_rows - np.log(c))).sum(axis=1) for c in centers], axis=1)


def relocate(rows, weights, assign, centers, mode):
    """One relocation of ``centers``, given each row's cost to its old centre."""
    costs = elementwise_costs(rows, centers)[np.arange(len(rows)), assign]
    return _relocate(rows, np.log(rows), weights, assign, centers, costs, mode)


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

    def test_overflowing_weight_sum_is_numeric_error(self):
        # Every divergence is finite but their sum is not: a NumericError,
        # with no numpy warning before it.
        s = WeightedHistogramSet([[1.0, 1.0], [1e305, 1.0], [1.0, 1e305], [1e305, 1e305]])
        with pytest.raises(NumericError, match="seeding"):
            seed_centroids(s, 2, seed=0)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValidationError):
            ClusteringConfig(k=0)
        with pytest.raises(ValidationError):
            ClusteringConfig(k=2, max_iterations=0)
        with pytest.raises(ValidationError):
            ClusteringConfig(k=2, centroid_mode="nope")


class TestKMeans:
    def test_k_equals_n_zero_objective(self, rng):
        s = small_frequency_set(rng, n=6)
        res = kmeans(s, ClusteringConfig(k=6, seed=0))
        assert res.objective_trace[-1] == pytest.approx(0.0, abs=1e-12)
        assert sorted(res.assignments) == list(range(6))

    def test_overflowing_objective_is_numeric_error(self):
        # Finite members whose divergences to their centroid exceed the double
        # range: the round's objective is inf, which raises with no numpy warning.
        s = WeightedHistogramSet([[1e307, 1.7e308], [1.7e308, 1e307], [1e307, 1.6e308],
                                  [1e307, 1.6e308]])
        with pytest.raises(NumericError, match="objective is not finite"):
            kmeans(s, ClusteringConfig(k=1, seed=0))

    @pytest.mark.xfail(
        strict=True,
        raises=(ValidationError, RuntimeWarning),
        reason="defect A in relocation: centroids._ratio's a / g overflows before "
        "centroids._w0_at calls W0 (ROADMAP direction 3)",
    )
    def test_overflowing_ratio_relocates_to_finite_centroid(self):
        # The set of TestExtremeBins::test_overflowing_ratio_has_finite_centroid;
        # with k = 1 the relocated centre is its positive centroid (mpmath).
        s = WeightedHistogramSet([[1e300, 1.0], [1e-300, 1.0], [1e-300, 1.0]])
        res = kmeans(s, ClusteringConfig(k=1, centroid_mode="positive"))
        assert res.centroids[0] == pytest.approx([3.6465e296, 1.0], rel=1e-4)

    @pytest.mark.parametrize(
        "rows, assignments",
        [
            ([[1e307, 1.7e308], [1.7e308, 1e307], [1e307, 1.6e308], [1e307, 1.6e308]],
             [0, 1, 3, 2]),
            ([[1.7e308, 1.0], [1.0, 1.0]], [0, 1]),
        ],
    )
    def test_huge_members_assign_without_warnings(self, rows, assignments):
        # h.log h and the expanded costs overflow to inf or nan; those rows are
        # unsure and recomputed elementwise, with no numpy warning.
        res = kmeans(WeightedHistogramSet(rows), ClusteringConfig(k=len(rows), seed=0))
        assert res.assignments.tolist() == assignments
        assert res.objective_trace == (0.0,)

    def test_k_one_positive_mode(self, rng):
        s = small_frequency_set(rng)
        res = kmeans(s, ClusteringConfig(k=1, seed=0))
        whole = positive_centroid(s)
        assert np.abs(res.centroids[0] - whole.centroid).max() <= 1e-12

    def test_k_one_exact_mode(self, rng):
        s = small_frequency_set(rng)
        res = kmeans(s, ClusteringConfig(k=1, seed=0, centroid_mode="frequency_exact"))
        whole = frequency_centroid_bisection(s)
        assert np.abs(res.centroids[0] - whole.centroid).max() <= 1e-12

    def test_k_too_large(self, rng):
        s = small_frequency_set(rng, n=4)
        with pytest.raises(ValidationError):
            kmeans(s, ClusteringConfig(k=5, seed=0))

    @pytest.mark.parametrize("mode", KMEANS_MODES)
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

    @pytest.mark.parametrize("mode", KMEANS_MODES)
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
            own = jeffreys(h, res.centroids[res.assignments[j]])
            for c in res.centroids:
                assert own <= jeffreys(h, c) + 1e-12

    def test_deterministic(self, rng):
        s = small_frequency_set(rng, n=25)
        a = kmeans(s, ClusteringConfig(k=3, seed=42))
        b = kmeans(s, ClusteringConfig(k=3, seed=42))
        assert np.array_equal(a.assignments, b.assignments)
        assert a.objective_trace == b.objective_trace
        assert np.array_equal(a.centroids, b.centroids)

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
            w * jeffreys(h, res.centroids[m])
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
            arith = s.weights @ s.matrix
            geom = np.exp(s.weights @ s.log_matrix)
            candidate = _fixedpoint_1step(arith[None, :], geom[None, :])[0][0]
            assert jeffreys_to_set(candidate, s) <= jeffreys_to_set(arith / arith.sum(), s) + 1e-12

    def test_relocation_guard_in_full_run(self, rng):
        s = small_frequency_set(rng, n=50, d=10)
        res = kmeans(
            s, ClusteringConfig(k=5, centroid_mode="frequency_fixedpoint_1step", seed=8)
        )
        trace = res.objective_trace
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))


def one_step_reference(s):
    """The one-step update of a single cluster, written out per coordinate."""
    a, g = normalized_means(s)
    lam = -float(np.sum(a * (np.log(a) - np.log(g))))
    coords = a / lambert_w0_values((a / g) * np.exp(lam + 1.0))
    return coords / coords.sum()


SCALAR_CANDIDATE = {
    "positive": lambda s: positive_centroid(s).centroid,
    "normalized": lambda s: normalized_positive_centroid(s).centroid,
    "frequency_fixedpoint_1step": one_step_reference,
    "frequency_exact": lambda s: frequency_centroid_bisection(s).centroid,
}


class TestBatchedRelocation:
    """One batched relocation equals the per-cluster scalar constructions."""

    @staticmethod
    def clustered(rng, d=7):
        # cluster 0: five members, 1: a singleton, 2: empty, 3: three
        # identical members (a root at the bracket's top), 4: four members
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

    @pytest.mark.parametrize("mode", KMEANS_MODES)
    def test_matches_per_cluster_solvers(self, mode, rng):
        rows, weights, assign, centers = self.clustered(rng)
        new, _ = relocate(rows, weights, assign, centers, mode)
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
        exact, _ = relocate(rows, weights, assign, centers, "frequency_exact")
        # the exact centroids are optimal, so no approximate update replaces them
        for mode in ("normalized", "frequency_fixedpoint_1step"):
            kept, costs = relocate(rows, weights, assign, exact, mode)
            assert np.array_equal(kept[[0, 4]], exact[[0, 4]])
            # a kept old centre's costs are the old costs passed in
            direct = elementwise_costs(rows, kept)[np.arange(13), assign]
            assert np.array_equal(costs, direct)


class TestRelocationCost:
    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_exact_round_makes_at_most_9_w0_calls_for_any_k(self, k, rng, monkeypatch):
        # One batched Newton solve: at most 7 steps (measured on sparse and
        # dense sets) and the final pass, whatever k is.
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return lambert_w0_values(*args, **kwargs)

        monkeypatch.setattr("jeffreys.centroids.lambert_w0_values", counting)
        rows = rng.uniform(0.01, 1.0, size=(30, 6))
        rows /= rows.sum(axis=1, keepdims=True)
        assign = np.arange(30) % k
        centers = rows[:k].copy()
        relocate(rows, np.full(30, 1.0 / 30), assign, centers, "frequency_exact")
        assert 3 <= len(calls) <= 9


class TestRoundCost:
    """A k-means run computes each Jeffreys cost once."""

    @staticmethod
    def counted(monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return _pairwise_jeffreys(*args)

        monkeypatch.setattr(clustering, "_pairwise_jeffreys", counting)
        return calls

    @pytest.mark.parametrize("mode", KMEANS_MODES)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_one_matrix_per_round(self, mode, seed, rng, monkeypatch):
        # k - 1 seeding calls, one assignment call per round, and one more
        # for the round that finds the assignments repeated or the trace
        # stalled.
        s = small_frequency_set(rng, n=40, d=8)
        k = 4
        calls = self.counted(monkeypatch)
        full = kmeans(s, ClusteringConfig(k=k, centroid_mode=mode, seed=seed))
        assert 2 <= full.iterations < 100
        assert len(calls) == (k - 1) + full.iterations + 1
        for cap in range(1, full.iterations):
            calls.clear()
            kmeans(s, ClusteringConfig(k=k, max_iterations=cap, centroid_mode=mode, seed=seed))
            assert len(calls) == (k - 1) + cap

    def test_seeding_makes_k_minus_1_calls(self, rng, monkeypatch):
        s = small_frequency_set(rng, n=20)
        calls = self.counted(monkeypatch)
        for k in (1, 2, 5, 19):
            calls.clear()
            seed_centroids(s, k, seed=1)
            assert len(calls) == k - 1
        calls.clear()
        seed_centroids(s, 20, seed=1)
        assert calls == []

    @pytest.mark.parametrize("mode", KMEANS_MODES)
    def test_kept_costs_are_the_trace(self, mode, rng, monkeypatch):
        s = small_frequency_set(rng, n=40, d=8)
        rounds = []

        def recording(*args):
            kept, costs = _relocate(*args)
            rounds.append((args[0], args[3], kept, costs))
            return kept, costs

        monkeypatch.setattr(clustering, "_relocate", recording)
        res = kmeans(s, ClusteringConfig(k=4, centroid_mode=mode, seed=2))
        assert len(rounds) == res.iterations
        for (matrix, assign, kept, costs), entry in zip(rounds, res.objective_trace):
            direct = elementwise_costs(matrix, kept)[np.arange(s.n), assign]
            assert np.array_equal(costs, direct)
            assert entry == float(s.weights @ costs)

    def test_stalled_trace_refreshes_from_one_matrix(self, rng, monkeypatch):
        # A stall is rare on real data, so round 2's trace entry is forced up
        # (finite: an infinite one raises); the refresh then reads its new
        # entry from one final assignment.
        s = small_frequency_set(rng, n=40, d=8)
        cfg = ClusteringConfig(k=4, seed=3)
        assert kmeans(s, cfg).iterations >= 3
        rounds = []

        def stalling(*args):
            kept, costs = _relocate(*args)
            rounds.append((args[3].copy(), kept))
            if len(rounds) == 2:
                costs = np.full_like(costs, 1e300)
            return kept, costs

        monkeypatch.setattr(clustering, "_relocate", stalling)
        calls = self.counted(monkeypatch)
        res = kmeans(s, cfg)
        assert res.iterations == 2
        assert len(calls) == (cfg.k - 1) + 2 + 1
        assert len(res.objective_trace) == 3
        assign, final = rounds[-1]
        assert not np.array_equal(res.assignments, assign)
        direct = elementwise_costs(s.matrix, final)[np.arange(s.n), res.assignments]
        assert res.objective_trace[-1] == float(s.weights @ direct)

    def test_stalled_trace_refresh_repairs_an_emptied_cluster(self, rng, monkeypatch):
        # Round 2 moves centre 0 far from every row and reports the true
        # costs against it, a finite trace entry above round 1's: a stall.
        # The refreshed assignment empties cluster 0, whose repair takes
        # the donor row as its centre, so the trace still decreases.
        s = small_frequency_set(rng, n=40, d=8)
        cfg = ClusteringConfig(k=4, seed=3)
        far = np.full(s.d, 1e-9)
        far[0] = 1.0 - far[1:].sum()
        rows = np.arange(s.n)
        rounds = []

        def stalling(*args):
            kept, costs = _relocate(*args)
            if len(rounds) == 1:
                kept = kept.copy()
                kept[0] = far
                costs = elementwise_costs(s.matrix, kept)[rows, args[3]]
            rounds.append(kept.copy())
            return kept, costs

        monkeypatch.setattr(clustering, "_relocate", stalling)
        res = kmeans(s, cfg)
        trace = res.objective_trace
        assert res.iterations == 2 and len(trace) == 3
        assert np.isfinite(trace).all() and trace[1] >= trace[0] and trace[2] <= trace[1]
        assert (elementwise_costs(s.matrix, rounds[-1]).argmin(axis=1) != 0).all()
        final = res.centroids
        (donor,) = np.flatnonzero(res.assignments == 0)
        assert np.array_equal(final[0], s.matrix[donor])
        assert np.array_equal(final[1:], rounds[-1][1:])
        assert np.bincount(res.assignments, minlength=cfg.k).min() >= 1
        direct = elementwise_costs(s.matrix, final)[rows, res.assignments]
        assert direct[donor] == 0.0
        assert trace[-1] == float(s.weights @ direct)


@st.composite
def duplicated_sets(draw):
    """A frequency set of ``n`` rows drawn from ``u`` distinct ones, and a ``k`` up to ``n``.

    Half the draws have fewer distinct rows than ``k``, so seeding falls
    back to uniform picks, centres coincide and ties empty clusters.
    """
    n, d = draw(st.integers(2, 16)), draw(st.integers(2, 8))
    k = draw(st.integers(1, n))
    u = draw(st.integers(1, max(1, k - 1))) if draw(st.booleans()) else draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.dirichlet(np.full(d, draw(st.sampled_from([0.1, 1.0, 10.0]))), size=u)
    picks = np.concatenate([np.arange(u), rng.integers(u, size=n - u)])
    rows = smooth_bins(distinct[rng.permutation(picks)])
    return WeightedHistogramSet(rows, frequency=True), k


class TestHeavyDuplication:
    """The tie policy of seeding, assignment and empty-cluster repair."""

    @settings(max_examples=40, deadline=None)
    @given(problem=duplicated_sets(), seed=st.integers(0, 2**16))
    def test_every_mode_keeps_k_clusters_and_a_true_trace(self, problem, seed):
        s, k = problem
        for mode in KMEANS_MODES:
            cfg = ClusteringConfig(k=k, centroid_mode=mode, seed=seed)
            res = kmeans(s, cfg)
            assert np.bincount(res.assignments, minlength=k).min() >= 1
            trace = res.objective_trace
            assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))
            centers = res.centroids
            direct = elementwise_costs(s.matrix, centers)[np.arange(s.n), res.assignments]
            assert trace[-1] == float(s.weights @ direct)
            again = kmeans(s, cfg)
            assert np.array_equal(again.assignments, res.assignments)
            assert again.objective_trace == trace
            assert np.array_equal(again.centroids, res.centroids)


@st.composite
def assignment_problems(draw):
    """A set and ``k`` centres for one assignment call.

    Rows are frequency or positive histograms, or bins spread from 1e-300 to
    1e300, with or without duplicate members.  Centres are members (ties when
    drawn twice), one member repeated (exact ties), copies of one member
    perturbed at 1e-14 (costs closer than the expansion's rounding), members
    perturbed at 1e-9 (costs near 0, where the expansion cancels), or fresh.
    """
    n, d, k = draw(st.integers(1, 30)), draw(st.integers(1, 40)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["frequency", "positive", "extreme"]))
    centres = draw(st.sampled_from(["members", "tied", "near-tied", "near", "fresh"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def fresh(count):
        if kind == "extreme":
            return 10.0 ** rng.uniform(-300.0, 300.0, size=(count, d))
        out = rng.gamma(draw(st.sampled_from([0.05, 1.0, 20.0])), size=(count, d)) + 1e-12
        out /= out.sum(axis=1, keepdims=True)
        return out if kind == "frequency" else out * rng.uniform(0.1, 1e3, size=(count, 1))

    rows = fresh(n)
    if draw(st.booleans()):
        rows[rng.integers(n, size=n)] = rows[rng.integers(n)]
    s = WeightedHistogramSet(rows, frequency=kind == "frequency")
    picks = rng.integers(s.n, size=k)
    if centres == "members":
        centers = s.matrix[picks]
    elif centres == "tied":
        centers = s.matrix[np.full(k, picks[0])]
    elif centres == "near-tied":
        centers = s.matrix[picks[0]] * (1.0 + 1e-14 * rng.standard_normal((k, d)))
    elif centres == "near":
        centers = s.matrix[picks] * (1.0 + 1e-9 * rng.standard_normal((k, d)))
    else:
        centers = fresh(k)
    return s, centers


class TestAssignment:
    """The matmul assignment against the elementwise costs it stands for."""

    @settings(max_examples=300, deadline=None)
    @given(problem=assignment_problems())
    def test_matches_elementwise_reference(self, problem):
        s, centers = problem
        reference = elementwise_costs(s.matrix, centers)
        assign, costs = _pairwise_jeffreys(s, centers)
        assert np.array_equal(assign, reference.argmin(axis=1))
        assert costs.tobytes() == reference[np.arange(s.n), assign].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(problem=assignment_problems())
    def test_slack_covers_the_expansion_error(self, problem):
        # Half the slack is the worst-case rounding of the two sums; the
        # other half is margin for the comparisons that read it.
        s, centers = problem
        costs, slack = _expanded_costs(s, centers, np.log(centers))
        error = np.abs(costs - elementwise_costs(s.matrix, centers))
        finite = np.isfinite(error)
        assert np.all(error[finite] <= slack[finite] / 2)

    def test_tied_centres_go_to_the_lowest_index(self, rng):
        s = small_frequency_set(rng)
        centers = np.vstack([s.matrix[3], s.matrix[5], s.matrix[3], s.matrix[5]])
        assign, costs = _pairwise_jeffreys(s, centers)
        assert set(assign.tolist()) == {0, 1}
        assert costs[3] == 0.0 and costs[5] == 0.0
