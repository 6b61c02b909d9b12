"""Reference computations that only the tests use.

* Brute-force centroid oracles, which minimize the objectives directly
  (golden-section and grid search), independently of the closed forms and
  the multiplier solvers, so the tests can cross-validate both routes.
* Kullback-Leibler divergences, entropies and their set averages, which
  the tests use to check identities of the Jeffreys objective.
* The per-trial weighted objectives of ``(T, n, d)`` member batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from jeffreys import ValidationError, WeightedHistogramSet, jeffreys_to_set, normalized_means
from jeffreys.centroids import _means
from jeffreys.divergences import _bins, _pair

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Brute-force centroid oracles
# ---------------------------------------------------------------------------


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
# Kullback-Leibler divergences and entropies
# ---------------------------------------------------------------------------


def _xlog_ratio(p: np.ndarray, q: np.ndarray) -> float:
    # sum p*log(p/q) with the 0*log(0) = 0 convention; protects callers that
    # bypass smoothing.  numpy sums pairwise, which keeps the tiny
    # differences near an optimum stable for large d.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * (np.log(p) - np.log(q)), 0.0)
    return float(terms.sum())


def extended_kl(p, q) -> float:
    """Extended KL divergence ``sum p*log(p/q) + q - p`` for positive histograms."""
    pb, qb = _pair(p, q)
    return _xlog_ratio(pb, qb) + float((qb - pb).sum())


def kl(p, q) -> float:
    """KL divergence ``sum p*log(p/q)`` between frequency histograms."""
    pb, qb = _pair(p, q)
    return _xlog_ratio(pb, qb)


def entropy(p) -> float:
    """Shannon entropy ``sum p*log(1/p)`` of a frequency histogram."""
    pb = _bins(p)
    return -_xlog_ratio(pb, np.ones_like(pb))


def cross_entropy(p, q) -> float:
    """Cross-entropy ``sum p*log(1/q)`` between frequency histograms."""
    pb, qb = _pair(p, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pb > 0.0, -pb * np.log(qb), 0.0)
    return float(terms.sum())


def kl_to_set(x, s: WeightedHistogramSet) -> float:
    """Weighted average KL divergence ``sum_j pi_j KL(x : h_j)`` over a frequency set."""
    xb = _bins(x)
    m = s.matrix
    if xb.shape != (m.shape[1],):
        raise ValidationError(f"dimension mismatch: {xb.shape} vs d={m.shape[1]}")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(xb > 0.0, xb * (np.log(xb) - s.log_matrix), 0.0)
    return float(s.weights @ terms.sum(axis=1))


# ---------------------------------------------------------------------------
# Per-trial objectives of member batches
# ---------------------------------------------------------------------------


def batch_jeffreys_to_set(x: np.ndarray, members: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-trial weighted Jeffreys objective: x (T,d), members (T,n,d)."""
    diff = members - x[:, None, :]
    logs = np.log(members) - np.log(x)[:, None, :]
    return (diff * logs).sum(axis=2) @ weights


def batch_kl_to_set(x: np.ndarray, members: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-trial weighted KL(x : member) averages."""
    terms = x[:, None, :] * (np.log(x)[:, None, :] - np.log(members))
    return terms.sum(axis=2) @ weights
