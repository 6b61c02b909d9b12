"""Brute-force optimizers and randomized trial harnesses.

The oracles minimize the centroid objectives directly (golden-section and
grid search), independently of the closed forms and the multiplier
solvers, so the test suite can cross-validate both routes.  The trial
harness draws random frequency sets and measures the approximation
factors of the closed-form constructions against the exact frequency
centroid; the benchmark command reports its output.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .centroids import _coordinates, _means, normalized_means
from .centroids import batch_frequency_bisection as _batch_bisection
from .centroids import batch_frequency_fixedpoint as _batch_fixedpoint
from .divergences import jeffreys_to_set
from .errors import ValidationError
from .histograms import WeightedHistogramSet

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Trials per chunk of :func:`run_alpha_trials`, each with its own RNG stream.
_CHUNK_SIZE = 8192


@dataclass(frozen=True)
class OracleSolution:
    """Argmin of a brute-force search plus the method that produced it."""

    argmin: np.ndarray
    objective: float
    method: str
    resolution: float


def _golden_section(fn, lo: float, hi: float, resolution: float) -> float:
    """Minimize a unimodal function on [lo, hi] to an absolute x-tolerance."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > resolution:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
    return 0.5 * (lo + hi)


def oracle_positive_centroid(s: WeightedHistogramSet, resolution: float = 1e-8) -> OracleSolution:
    """Positive Jeffreys centroid by per-coordinate golden-section search.

    The objective separates per coordinate into ``x*log(x/g) - a*log(x)``
    (up to terms constant in x), convex with its minimum inside ``[g, a]``.
    Only meant for small instances (d <= 4).
    """
    if resolution <= 0.0:
        raise ValidationError(f"resolution must be positive, got {resolution!r}")
    if s.d > 4:
        raise ValidationError("the positive-centroid oracle is limited to d <= 4")
    a, g = _means(s)
    argmin = np.empty(s.d)
    for i in range(s.d):
        ai, gi = float(a[i]), float(g[i])

        def phi(x: float) -> float:
            return x * math.log(x / gi) - ai * math.log(x)

        argmin[i] = _golden_section(phi, 0.5 * gi, 1.1 * ai, resolution)
    return OracleSolution(
        argmin=argmin,
        objective=jeffreys_to_set(argmin, s),
        method="golden_section",
        resolution=resolution,
    )


def _freq_objective_rows(x: np.ndarray, a: np.ndarray, g: np.ndarray) -> np.ndarray:
    # KL(a : x) + KL(x : g) per row of x, the equivalent single-argument
    # form of the frequency-centroid problem.
    log_x = np.log(x)
    return (a * (np.log(a) - log_x)).sum(axis=1) + (x * (log_x - np.log(g))).sum(axis=1)


def oracle_frequency_centroid(
    s: WeightedHistogramSet, resolution: float | None = None
) -> OracleSolution:
    """Frequency Jeffreys centroid by direct search over the simplex.

    ``d == 2`` uses golden-section on the single free coordinate
    (default resolution 1e-8); ``d == 3`` uses a coarse-to-fine grid whose
    final step is the resolution (default 1e-4).  Larger d is refused;
    the cost explodes.
    """
    sf = s.as_frequency()
    arith, geom = normalized_means(sf)
    a, g = arith.bins, geom.bins
    if sf.d == 2:
        resolution = 1e-8 if resolution is None else resolution
        if resolution <= 0.0:
            raise ValidationError(f"resolution must be positive, got {resolution!r}")

        def f(t: float) -> float:
            x = np.array([t, 1.0 - t])
            return float(_freq_objective_rows(x[None, :], a, g)[0])

        t = _golden_section(f, 1e-9, 1.0 - 1e-9, resolution)
        argmin = np.array([t, 1.0 - t])
        method = "golden_section"
    elif sf.d == 3:
        resolution = 1e-4 if resolution is None else resolution
        if resolution <= 0.0:
            raise ValidationError(f"resolution must be positive, got {resolution!r}")
        coarse = 2e-3
        best = None
        lo1, hi1, lo2, hi2 = coarse, 1.0 - coarse, coarse, 1.0 - coarse
        for step in (coarse, resolution):
            t1 = np.arange(lo1, hi1 + 0.5 * step, step)
            t2 = np.arange(lo2, hi2 + 0.5 * step, step)
            m1, m2 = np.meshgrid(t1, t2, indexing="ij")
            m3 = 1.0 - m1 - m2
            keep = m3 >= step
            pts = np.column_stack([m1[keep], m2[keep], m3[keep]])
            vals = _freq_objective_rows(pts, a, g)
            best = pts[int(np.argmin(vals))]
            # Shrink the window around the coarse argmin for the fine pass.
            lo1, hi1 = max(best[0] - 2 * step, resolution), min(best[0] + 2 * step, 1.0)
            lo2, hi2 = max(best[1] - 2 * step, resolution), min(best[1] + 2 * step, 1.0)
        argmin = best
        method = "grid"
    else:
        raise ValidationError("the frequency-centroid oracle is limited to d in {2, 3}")
    return OracleSolution(
        argmin=argmin,
        objective=jeffreys_to_set(argmin, sf),
        method=method,
        resolution=resolution,
    )


# ---------------------------------------------------------------------------
# Batched randomized trials
# ---------------------------------------------------------------------------


def random_frequency_rows(rng: np.random.Generator, trials: int, n: int, d: int) -> np.ndarray:
    """(trials, n, d) frequency histograms with bins drawn uniform(0.01, 1).

    The lower bound keeps bins away from zero, matching the non-empty-bin
    assumption of the centroid formulas.
    """
    raw = rng.uniform(0.01, 1.0, size=(trials, n, d))
    return raw / raw.sum(axis=2, keepdims=True)


def batch_jeffreys_to_set(x: np.ndarray, members: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-trial weighted Jeffreys objective: x (T,d), members (T,n,d)."""
    diff = members - x[:, None, :]
    logs = np.log(members) - np.log(x)[:, None, :]
    return (diff * logs).sum(axis=2) @ weights


def batch_kl_to_set(x: np.ndarray, members: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-trial weighted KL(x : member) averages."""
    terms = x[:, None, :] * (np.log(x)[:, None, :] - np.log(members))
    return terms.sum(axis=2) @ weights


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


def _run_chunk(seed_seq: np.random.SeedSequence, trials: int, n: int, d: int) -> TrialData:
    rng = np.random.default_rng(seed_seq)
    members = random_frequency_rows(rng, trials, n, d)
    weights = np.full(n, 1.0 / n)

    a = members.mean(axis=1)
    a = a / a.sum(axis=1, keepdims=True)
    g_raw = np.exp(np.log(members).mean(axis=1))
    g = g_raw / g_raw.sum(axis=1, keepdims=True)

    c_pos = _coordinates(a, a / g_raw)
    w_c = c_pos.sum(axis=1)
    c_norm = c_pos / w_c[:, None]
    c_veld = 0.5 * (a + g)
    lam, c_exact, halvings, _ = _batch_bisection(a, g)
    _, fp_iters, _ = _batch_fixedpoint(a, g)

    return TrialData(
        j_positive=batch_jeffreys_to_set(c_pos, members, weights),
        j_normalized=batch_jeffreys_to_set(c_norm, members, weights),
        j_veldhuis=batch_jeffreys_to_set(c_veld, members, weights),
        j_exact=batch_jeffreys_to_set(c_exact, members, weights),
        w_c=w_c,
        lambda_star=lam,
        fixedpoint_iterations=fp_iters,
        bisection_halvings=halvings,
    )


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
    return TrialData(**{
        f.name: np.concatenate([getattr(c, f.name) for c in chunks])
        for f in fields(TrialData)
    })


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
