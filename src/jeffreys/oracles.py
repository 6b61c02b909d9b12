"""The randomized trial harness behind the benchmark table.

:func:`run_alpha_trials` draws random frequency sets and returns, as one
:class:`TrialData` of per-trial arrays, the approximation factors of the
closed-form constructions against the exact frequency centroid; the
``bench`` command prints each factor's mean, minimum and maximum.

It draws its trials in chunks of ``_CHUNK_SIZE``, one RNG stream each,
and draws and solves a chunk in row blocks of about ``_BLOCK_ELEMENTS``
lanes (trials times bins), so that the solvers' ``W0`` passes work on
data that stays in cache instead of streaming a whole chunk's arrays from
memory on every pass.  A block's draws continue the chunk's stream, and
no trial's result depends on the others', so the results are bitwise
those of one block per chunk.  Blocks and chunks are copied into the
result as they finish, so the peak memory holds the result and one
block's arrays.

Each block runs the fixed point first and passes its multipliers to the
bisection as root estimates; a trial the fixed point did not finish has
a NaN multiplier, which the bisection reads as no estimate.  Every trial
still makes the bisection's 52 halvings, but only about 10 of them are
decided by a ``W0`` pass (``bisection_evaluations``); the rest are
decided from a band around the estimate, which a check of the final
bracket ends confirms, see
:func:`~jeffreys.centroids.batch_frequency_bisection`.  Like
the scalar bisection, a block then finishes the exact centroids in one
pass, :func:`~jeffreys.centroids._on_simplex`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from .centroids import _coordinates, _normalized_means, _on_simplex, _ratio
# Imported under these names, through which the benchmark's tracer times them.
from .centroids import batch_frequency_bisection as _batch_bisection
from .centroids import batch_frequency_fixedpoint as _batch_fixedpoint
from .divergences import _row_sums, jeffreys_rows
from .errors import ValidationError

#: Trials per chunk of :func:`run_alpha_trials`, each with its own RNG stream.
_CHUNK_SIZE = 8192
#: Lanes (trials x bins) that a chunk solves at a time, so that each
#: ``(rows, d)`` temporary of the solvers' passes, 128 KiB, stays in cache.
_BLOCK_ELEMENTS = 16384


def random_frequency_rows(rng: np.random.Generator, trials: int, n: int, d: int) -> np.ndarray:
    """(trials, n, d) frequency histograms with bins drawn uniform(0.01, 1).

    The lower bound keeps bins away from zero, matching the non-empty-bin
    assumption of the centroid formulas.
    """
    raw = rng.uniform(0.01, 1.0, size=(trials, n, d))
    return raw / _row_sums(raw)[..., None]


@dataclass(frozen=True)
class TrialData:
    """Per-trial arrays from a batch of random centroid problems, each read-only.

    ``bisection_evaluations`` counts the bisection's bracket halvings that
    a ``W0`` pass decided, of the 52 that every trial makes.
    """

    j_positive: np.ndarray
    j_normalized: np.ndarray
    j_veldhuis: np.ndarray
    j_exact: np.ndarray
    w_c: np.ndarray
    lambda_star: np.ndarray
    fixedpoint_iterations: np.ndarray
    bisection_evaluations: np.ndarray

    @property
    def alpha_positive(self) -> np.ndarray:
        return self.j_positive / self.j_exact

    @property
    def alpha_normalized(self) -> np.ndarray:
        return self.j_normalized / self.j_exact

    @property
    def alpha_veldhuis(self) -> np.ndarray:
        return self.j_veldhuis / self.j_exact


def _concatenate(parts: Iterable[TrialData], trials: int) -> TrialData:
    """One :class:`TrialData` of ``parts``' ``trials`` rows, field by field, in order.

    Each part is copied into the result as it arrives and then dropped, so
    that, given a generator, the peak holds the result and one part, not
    every part and their concatenation.  The result's arrays are read-only.
    """
    out: dict[str, np.ndarray] = {}
    start = 0
    for part in parts:
        stop = start + part.w_c.shape[0]
        for f in fields(TrialData):
            value = getattr(part, f.name)
            if f.name not in out:
                out[f.name] = np.empty((trials,) + value.shape[1:], dtype=value.dtype)
            out[f.name][start:stop] = value
        start = stop
    for value in out.values():
        value.flags.writeable = False
    return TrialData(**out)


def _solve_block(members: np.ndarray) -> TrialData:
    """Every per-trial quantity of ``(T, n, d)`` members; no row depends on another."""
    log_members = np.log(members)
    weights = np.full(members.shape[1], 1.0 / members.shape[1])

    def to_members(c: np.ndarray) -> np.ndarray:
        """(T,) weighted Jeffreys objective of each trial's members to the trial's row of ``c``."""
        j = jeffreys_rows(members, log_members, c[:, None, :], np.log(c)[:, None, :])
        return _row_sums(j * weights)

    g_raw = np.exp(log_members.mean(axis=1))
    a, g = _normalized_means(members.mean(axis=1), g_raw)

    c_pos = _coordinates(a, _ratio(a, g_raw))
    w_c = _row_sums(c_pos)
    c_norm = c_pos / w_c[:, None]
    c_veld = 0.5 * (a + g)
    lam_fp, fp_iters = _batch_fixedpoint(a, g)
    lam, evaluated = _batch_bisection(a, g, estimate=lam_fp)
    c_exact = _on_simplex(a, _ratio(a, g), lam, "bisection")[0]

    return TrialData(
        j_positive=to_members(c_pos),
        j_normalized=to_members(c_norm),
        j_veldhuis=to_members(c_veld),
        j_exact=to_members(c_exact),
        w_c=w_c,
        lambda_star=lam,
        fixedpoint_iterations=fp_iters,
        bisection_evaluations=evaluated,
    )


def _run_chunk(seed_seq: np.random.SeedSequence, trials: int, n: int, d: int) -> TrialData:
    """One chunk's trials, drawn from its stream, solved in blocks of ``_BLOCK_ELEMENTS`` lanes."""
    rng = np.random.default_rng(seed_seq)
    rows = max(1, _BLOCK_ELEMENTS // d)
    blocks = (
        _solve_block(random_frequency_rows(rng, min(rows, trials - i), n, d))
        for i in range(0, trials, rows)
    )
    return _concatenate(blocks, trials)


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

    # One thread maps inline: a pool thread's malloc arena would add to the
    # peak memory, and importing the pool costs milliseconds of every start.
    if threads == 1:
        return _concatenate(map(job, zip(seeds, sizes)), num_trials)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return _concatenate(pool.map(job, zip(seeds, sizes)), num_trials)
