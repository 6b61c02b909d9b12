"""The randomized trial harness behind the benchmark table.

The harness draws random frequency sets and measures the approximation
factors of the closed-form constructions against the exact frequency
centroid; the ``bench`` command reports its output.

It draws its trials in chunks of ``_CHUNK_SIZE``, one RNG stream each,
and solves a chunk in row blocks of about ``_BLOCK_ELEMENTS`` lanes
(trials times bins), so that the bisection's 54 ``W0`` passes work on
data that stays in cache instead of streaming a whole chunk's arrays from
memory on every pass.  No trial's result depends on the others', and the
weighted objectives are one matrix-vector product per chunk, so the
results are bitwise those of one block per chunk.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .centroids import _coordinates
# Imported under these names, through which the benchmark's tracer times them.
from .centroids import batch_frequency_bisection as _batch_bisection
from .centroids import batch_frequency_fixedpoint as _batch_fixedpoint
from .divergences import jeffreys_rows
from .errors import ValidationError

#: Trials per chunk of :func:`run_alpha_trials`, each with its own RNG stream.
_CHUNK_SIZE = 8192
#: Lanes (trials x bins) that a chunk solves at a time, so that each
#: ``(rows, d)`` temporary of the bisection's 54 passes, 128 KiB, stays in cache.
_BLOCK_ELEMENTS = 16384


def random_frequency_rows(rng: np.random.Generator, trials: int, n: int, d: int) -> np.ndarray:
    """(trials, n, d) frequency histograms with bins drawn uniform(0.01, 1).

    The lower bound keeps bins away from zero, matching the non-empty-bin
    assumption of the centroid formulas.
    """
    raw = rng.uniform(0.01, 1.0, size=(trials, n, d))
    return raw / raw.sum(axis=2, keepdims=True)


@dataclass(frozen=True)
class TrialData:
    """Per-trial arrays from a batch of random centroid problems."""

    j_positive: np.ndarray
    j_normalized: np.ndarray
    j_veldhuis: np.ndarray
    j_exact: np.ndarray
    w_c: np.ndarray
    lambda_star: np.ndarray
    fixedpoint_iterations: np.ndarray
    bisection_halvings: np.ndarray

    @property
    def alpha_positive(self) -> np.ndarray:
        return self.j_positive / self.j_exact

    @property
    def alpha_normalized(self) -> np.ndarray:
        return self.j_normalized / self.j_exact

    @property
    def alpha_veldhuis(self) -> np.ndarray:
        return self.j_veldhuis / self.j_exact


@dataclass(frozen=True)
class AlphaTrialStats:
    """Summary statistics of the approximation factors over random trials.

    ``summary`` maps ``alpha_positive``, ``alpha_normalized``, ``w_c`` and
    ``alpha_veldhuis`` to their (avg, min, max) triples, the rows of the
    benchmark table.
    """

    trials: int
    dims: int
    mean_fixedpoint_iterations: float
    mean_bisection_halvings: float
    summary: dict[str, tuple[float, float, float]]


#: The :class:`TrialData` fields that hold weighted Jeffreys objectives.
_OBJECTIVES = ("j_positive", "j_normalized", "j_veldhuis", "j_exact")


def _concatenate(parts: list[TrialData]) -> TrialData:
    """One :class:`TrialData` of ``parts``' arrays, field by field, in order."""
    return TrialData(**{
        f.name: np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(TrialData)
    })


def _solve_block(members: np.ndarray) -> TrialData:
    """Every per-trial quantity of ``(T, n, d)`` members; no row depends on another.

    The four objectives are left unweighted: each ``j_*`` field holds the
    ``(T, n)`` divergences of the trial's members, which the chunk weights.
    """
    log_members = np.log(members)

    def to_members(c: np.ndarray) -> np.ndarray:
        """(T, n) Jeffreys divergences of each trial's members to the trial's row of ``c``."""
        return jeffreys_rows(members, log_members, c[:, None, :], np.log(c)[:, None, :])

    a = members.mean(axis=1)
    a = a / a.sum(axis=1, keepdims=True)
    g_raw = np.exp(log_members.mean(axis=1))
    g = g_raw / g_raw.sum(axis=1, keepdims=True)

    c_pos = _coordinates(a, a / g_raw)
    w_c = c_pos.sum(axis=1)
    c_norm = c_pos / w_c[:, None]
    c_veld = 0.5 * (a + g)
    lam, c_exact, halvings, _ = _batch_bisection(a, g)
    _, fp_iters, _ = _batch_fixedpoint(a, g)

    return TrialData(
        j_positive=to_members(c_pos),
        j_normalized=to_members(c_norm),
        j_veldhuis=to_members(c_veld),
        j_exact=to_members(c_exact),
        w_c=w_c,
        lambda_star=lam,
        fixedpoint_iterations=fp_iters,
        bisection_halvings=halvings,
    )


def _run_chunk(seed_seq: np.random.SeedSequence, trials: int, n: int, d: int) -> TrialData:
    """One chunk's trials: drawn in one call, solved in row blocks of ``_BLOCK_ELEMENTS`` lanes.

    The weighted objectives are one matrix-vector product per chunk, since
    BLAS rounds a row's product according to its place in the matrix.
    """
    rng = np.random.default_rng(seed_seq)
    members = random_frequency_rows(rng, trials, n, d)
    weights = np.full(n, 1.0 / n)
    rows = max(1, _BLOCK_ELEMENTS // d)
    data = _concatenate([_solve_block(members[i : i + rows]) for i in range(0, trials, rows)])
    return replace(data, **{name: getattr(data, name) @ weights for name in _OBJECTIVES})


def run_alpha_trials(
    num_trials: int,
    d: int,
    seed: int = 0,
    histograms_per_trial: int = 2,
    threads: int = 1,
) -> TrialData:
    """Run randomized centroid trials and return the per-trial arrays.

    Trials are generated in chunks of ``_CHUNK_SIZE`` with RNG streams
    spawned from ``seed``, so results are identical for any ``threads``
    value.
    """
    if num_trials < 1:
        raise ValidationError(f"num_trials must be at least 1, got {num_trials}")
    if d < 2:
        raise ValidationError(f"d must be at least 2, got {d}")
    if histograms_per_trial < 2:
        raise ValidationError("trials need at least two histograms")
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")

    sizes = [_CHUNK_SIZE] * (num_trials // _CHUNK_SIZE)
    if num_trials % _CHUNK_SIZE:
        sizes.append(num_trials % _CHUNK_SIZE)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))

    def job(args):
        sq, size = args
        return _run_chunk(sq, size, histograms_per_trial, d)

    # One thread maps inline: the pool starts no thread until a submit, and a
    # pool thread's malloc arena would add to the peak memory.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        chunks = list((map if threads == 1 else pool.map)(job, zip(seeds, sizes)))
    return _concatenate(chunks)


def alpha_trial_harness(
    num_trials: int,
    d: int,
    seed: int = 0,
    histograms_per_trial: int = 2,
    threads: int = 1,
) -> AlphaTrialStats:
    """Summarize the approximation factors over random frequency sets."""
    data = run_alpha_trials(
        num_trials, d, seed=seed, histograms_per_trial=histograms_per_trial, threads=threads
    )

    def triple(values: np.ndarray) -> tuple[float, float, float]:
        return float(values.mean()), float(values.min()), float(values.max())

    return AlphaTrialStats(
        trials=num_trials,
        dims=d,
        mean_fixedpoint_iterations=float(data.fixedpoint_iterations.mean()),
        mean_bisection_halvings=float(data.bisection_halvings.mean()),
        summary={
            "alpha_positive": triple(data.alpha_positive),
            "alpha_normalized": triple(data.alpha_normalized),
            "w_c": triple(data.w_c),
            "alpha_veldhuis": triple(data.alpha_veldhuis),
        },
    )
