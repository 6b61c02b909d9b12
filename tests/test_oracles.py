"""The brute-force oracles of ``references`` and the randomized trial harness."""

import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from jeffreys import (
    ValidationError,
    WeightedHistogramSet,
    frequency_centroid_bisection,
    normalized_positive_centroid,
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
            assert np.abs(sol.argmin - closed.centroid).max() <= 10 * sol.resolution

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
        assert np.abs(sol.argmin - exact.centroid).max() <= 10 * sol.resolution

    def test_matches_bisection_d3(self, rng):
        s = random_frequency_set(rng, d=3)
        sol = oracle_frequency_centroid(s)
        exact = frequency_centroid_bisection(s)
        assert sol.method == "grid"
        assert np.abs(sol.argmin - exact.centroid).max() <= 10 * sol.resolution

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
        data = run_alpha_trials(2000, 2, seed=11)
        alpha, w_c = data.alpha_normalized, data.w_c
        assert alpha.min() >= 1.0 - 1e-12
        assert alpha.mean() >= 1.0 - 1e-12
        assert alpha.max() < 1.01
        assert 0.0 < w_c.min() <= w_c.mean() <= 1.0 + 1e-12
        for f in dataclasses.fields(oracles.TrialData):
            assert getattr(data, f.name).shape == (2000,), f.name

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

    def test_import_leaves_the_thread_pool_out(self):
        # Only threads > 1 needs concurrent.futures; importing it costs
        # milliseconds and memory on every start.
        src = str(Path(oracles.__file__).resolve().parents[1])
        code = "import sys, jeffreys; print('concurrent.futures' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_bisection_evaluations(self):
        # Every trial still makes 52 halvings, but the fixed point's
        # multiplier certifies all but about 10 of them.
        for d in (2, 16):
            data = run_alpha_trials(3000, d, seed=2)
            halvings, evaluated = data.bisection_halvings, data.bisection_evaluations
            assert set(halvings) == {52}
            assert np.all(evaluated <= halvings)
            assert 5.0 <= evaluated.mean() <= 15.0

    @pytest.mark.parametrize("n", [2, 3, 11])
    @pytest.mark.parametrize("d", [2, 16])
    def test_objectives_match_the_scalar_solvers(self, d, n):
        # Each trial's objectives are those of the scalar API on a set of
        # the trial's members; measured at most 4.3e-16 relative.
        sq = np.random.SeedSequence(23)
        data = oracles._run_chunk(sq, 12, n, d)
        members = oracles.random_frequency_rows(np.random.default_rng(sq), 12, n, d)
        solvers = {
            "j_positive": positive_centroid,
            "j_normalized": normalized_positive_centroid,
            "j_veldhuis": veldhuis_centroid,
            "j_exact": frequency_centroid_bisection,
        }
        for t in range(12):
            s = WeightedHistogramSet(members[t], frequency=True)
            for name, solver in solvers.items():
                assert getattr(data, name)[t] == pytest.approx(solver(s).objective, rel=1e-13)

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
            (300, 11, 200, None),  # 54-row blocks of 11 members a trial
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
        assert run_alpha_trials(8192, dims, seed=0).fixedpoint_iterations.mean() == mean

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_alpha_trials(0, 2)
        with pytest.raises(ValidationError):
            run_alpha_trials(10, 1)
        with pytest.raises(ValidationError):
            run_alpha_trials(10, 2, threads=0)
