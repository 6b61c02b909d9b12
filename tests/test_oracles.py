"""The brute-force oracles of ``references`` and the randomized trial harness."""

import dataclasses
import threading

import numpy as np
import pytest

from jeffreys import (
    ValidationError,
    WeightedHistogramSet,
    alpha_trial_harness,
    frequency_centroid_bisection,
    positive_centroid,
    run_alpha_trials,
    veldhuis_centroid,
)
from jeffreys import oracles
from conftest import random_frequency_set, random_positive_set
from references import oracle_frequency_centroid, oracle_positive_centroid


class TestPositiveOracle:
    def test_identical_members(self):
        member = np.array([0.5, 1.5])
        s = WeightedHistogramSet([member, member])
        sol = oracle_positive_centroid(s)
        assert np.allclose(sol.argmin, member, atol=1e-6)

    def test_symmetric_pair_matches_closed_form(self):
        s = WeightedHistogramSet([[1.0, 3.0], [3.0, 1.0]])
        sol = oracle_positive_centroid(s)
        assert np.allclose(sol.argmin, 1.8635889573808236, atol=1e-6)

    def test_oracle_never_beats_closed_form(self, rng):
        for _ in range(20):
            s = random_positive_set(rng, d=int(rng.integers(1, 5)))
            sol = oracle_positive_centroid(s)
            closed = positive_centroid(s)
            assert sol.objective >= closed.objective - 1e-9
            assert np.abs(sol.argmin - closed.centroid.bins).max() <= 10 * sol.resolution

    def test_validation(self, rng):
        s = random_positive_set(rng, d=3)
        with pytest.raises(ValidationError):
            oracle_positive_centroid(s, resolution=0.0)
        wide = random_positive_set(rng, d=6)
        with pytest.raises(ValidationError):
            oracle_positive_centroid(wide)


class TestFrequencyOracle:
    def test_identical_members(self):
        member = np.array([0.4, 0.6])
        s = WeightedHistogramSet([member, member], frequency=True)
        sol = oracle_frequency_centroid(s)
        assert np.allclose(sol.argmin, member, atol=1e-6)

    def test_matches_bisection_d2(self):
        s = WeightedHistogramSet([[0.5, 0.5], [0.9, 0.1]], frequency=True)
        sol = oracle_frequency_centroid(s)
        exact = frequency_centroid_bisection(s)
        assert np.abs(sol.argmin - exact.centroid.bins).max() <= 10 * sol.resolution

    def test_matches_bisection_d3(self, rng):
        s = random_frequency_set(rng, d=3)
        sol = oracle_frequency_centroid(s)
        exact = frequency_centroid_bisection(s)
        assert sol.method == "grid"
        assert np.abs(sol.argmin - exact.centroid.bins).max() <= 10 * sol.resolution

    def test_veldhuis_at_least_oracle(self, rng):
        for _ in range(10):
            s = random_frequency_set(rng, d=2)
            sol = oracle_frequency_centroid(s)
            assert veldhuis_centroid(s).objective >= sol.objective - 1e-9

    def test_rejects_large_d(self, rng):
        s = random_frequency_set(rng, d=4)
        with pytest.raises(ValidationError):
            oracle_frequency_centroid(s)


class TestTrialHarness:
    def test_basic_bounds(self):
        stats = alpha_trial_harness(2000, 2, seed=11)
        mean_alpha, min_alpha, max_alpha = stats.summary["alpha_normalized"]
        mean_w_c, min_w_c, _ = stats.summary["w_c"]
        assert min_alpha >= 1.0 - 1e-12
        assert mean_alpha >= 1.0 - 1e-12
        assert max_alpha < 1.01
        assert 0.0 < min_w_c <= mean_w_c <= 1.0 + 1e-12
        assert stats.trials == 2000 and stats.dims == 2
        assert set(stats.summary) == {
            "alpha_positive",
            "alpha_normalized",
            "w_c",
            "alpha_veldhuis",
        }

    def test_positive_centroid_dominates(self):
        data = run_alpha_trials(2000, 4, seed=3)
        assert np.all(data.alpha_positive <= 1.0 + 1e-12)
        assert np.all(data.alpha_normalized >= 1.0 - 1e-12)
        assert np.all(data.alpha_veldhuis >= 1.0 - 1e-12)
        assert np.all(data.w_c <= 1.0 + 1e-12)
        assert np.all(data.lambda_star <= 1e-15)

    def test_deterministic_and_thread_invariant(self):
        trials = 10000
        assert trials > oracles._CHUNK_SIZE  # at least two chunks for the threads to share
        a = run_alpha_trials(trials, 2, seed=5, threads=1)
        b = run_alpha_trials(trials, 2, seed=5, threads=4)
        assert np.array_equal(a.alpha_normalized, b.alpha_normalized)
        assert np.array_equal(a.w_c, b.w_c)

    @pytest.mark.parametrize("threads, pooled", [(1, False), (2, True)])
    def test_one_thread_maps_inline(self, monkeypatch, threads, pooled):
        # A pool thread would add its malloc arena to the peak memory.
        run_chunk, seen = oracles._run_chunk, []

        def recording(*args):
            seen.append(threading.current_thread() is not threading.main_thread())
            return run_chunk(*args)

        monkeypatch.setattr(oracles, "_run_chunk", recording)
        run_alpha_trials(oracles._CHUNK_SIZE + 10, 2, seed=5, threads=threads)
        assert seen == [pooled, pooled]

    def test_chunks_in_stream_order(self):
        # Every field is the chunks' arrays, one chunk per spawned stream, in order.
        trials = oracles._CHUNK_SIZE + 100
        data = run_alpha_trials(trials, 2, seed=5, threads=2)
        first, second = (
            oracles._run_chunk(sq, size, 2, 2)
            for sq, size in zip(np.random.SeedSequence(5).spawn(2), (oracles._CHUNK_SIZE, 100))
        )
        for f in dataclasses.fields(oracles.TrialData):
            expected = np.concatenate([getattr(first, f.name), getattr(second, f.name)])
            assert np.array_equal(getattr(data, f.name), expected)

    @pytest.mark.parametrize(
        "d, n, trials, block",
        [
            (16, 2, 2500, None),  # 1024-row blocks, the last one partial
            (300, 11, 200, None),  # 54-row blocks: BLAS rounds a row by its place
            (2, 2, 2500, 2048),  # 1024-row blocks; the real ones hold a whole chunk
            (oracles._BLOCK_ELEMENTS + 1, 2, 3, None),  # one row per block
        ],
    )
    def test_blocks_equal_one_shot(self, monkeypatch, d, n, trials, block):
        sq = np.random.SeedSequence(17)
        if block is not None:
            monkeypatch.setattr(oracles, "_BLOCK_ELEMENTS", block)
        assert trials > max(1, oracles._BLOCK_ELEMENTS // d)  # at least two blocks
        blocked = oracles._run_chunk(sq, trials, n, d)
        monkeypatch.setattr(oracles, "_BLOCK_ELEMENTS", trials * d)
        one_shot = oracles._run_chunk(sq, trials, n, d)
        for f in dataclasses.fields(oracles.TrialData):
            assert np.array_equal(getattr(blocked, f.name), getattr(one_shot, f.name)), f.name

    @pytest.mark.parametrize("dims, mean", [(2, 3.7608642578125), (16, 5.8795166015625)])
    def test_fixedpoint_iterations_golden(self, dims, mean):
        # Dense trials never take an Aitken jump: the plain iteration's counts.
        assert alpha_trial_harness(8192, dims, seed=0).mean_fixedpoint_iterations == mean

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_alpha_trials(0, 2)
        with pytest.raises(ValidationError):
            run_alpha_trials(10, 1)
        with pytest.raises(ValidationError):
            run_alpha_trials(10, 2, threads=0)
