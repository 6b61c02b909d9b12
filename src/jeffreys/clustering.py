"""Jeffreys k-means over weighted histogram sets.

Lloyd iteration with the Jeffreys divergence as the assignment distance.
The relocation step runs one of four centroid updates: the exact positive
centroid, the normalized approximation, a single fixed-point refinement
(the variational scheme), or the exact frequency centroid.  Every update
is guarded against the previous centroid, so the objective trace is
non-increasing for every mode, exact or approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centroids import _coordinates, _kl_multiplier, _normalized_means, _simplex_coordinates
from .centroids import batch_frequency_bisection
from .errors import ValidationError
from .histograms import FrequencyHistogram, Histogram, WeightedHistogramSet

CENTROID_MODE_POSITIVE = "positive"
CENTROID_MODE_NORMALIZED = "normalized_approx"
CENTROID_MODE_FIXEDPOINT_1STEP = "frequency_fixedpoint_1step"
CENTROID_MODE_EXACT = "frequency_exact"
CENTROID_MODES = (
    CENTROID_MODE_POSITIVE,
    CENTROID_MODE_NORMALIZED,
    CENTROID_MODE_FIXEDPOINT_1STEP,
    CENTROID_MODE_EXACT,
)
_FREQUENCY_MODES = (
    CENTROID_MODE_NORMALIZED,
    CENTROID_MODE_FIXEDPOINT_1STEP,
    CENTROID_MODE_EXACT,
)


@dataclass(frozen=True)
class ClusteringConfig:
    """Knobs of a k-means run; ``seed`` makes the whole run reproducible."""

    k: int
    max_iterations: int = 100
    centroid_mode: str = CENTROID_MODE_POSITIVE
    seed: int = 0
    objective_tolerance: float = 0.0

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be at least 1, got {self.k}")
        if self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if self.centroid_mode not in CENTROID_MODES:
            raise ValidationError(
                f"unknown centroid mode {self.centroid_mode!r}; choose from {CENTROID_MODES}"
            )
        if self.objective_tolerance < 0.0:
            raise ValidationError("objective_tolerance must be non-negative")


@dataclass(frozen=True)
class ClusteringResult:
    """Assignments, centroids, and the per-round objective trace."""

    assignments: np.ndarray
    centroids: tuple[Histogram, ...]
    objective_trace: tuple[float, ...]
    iterations: int

    def to_dict(self) -> dict:
        return {
            "assignments": [int(j) for j in self.assignments],
            "centroids": [[float(v) for v in c.bins] for c in self.centroids],
            "objective_trace": [float(v) for v in self.objective_trace],
            "iterations": self.iterations,
        }


def _pairwise_jeffreys(matrix: np.ndarray, log_matrix: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) matrix of J(h_j, c_m); k is small so the loop is over centers."""
    n = matrix.shape[0]
    k = centers.shape[0]
    log_centers = np.log(centers)
    out = np.empty((n, k))
    for m in range(k):
        out[:, m] = ((matrix - centers[m]) * (log_matrix - log_centers[m])).sum(axis=1)
    return out


def seed_centroids(s: WeightedHistogramSet, k: int, seed: int) -> np.ndarray:
    """Indices of ``k`` members picked by divergence-weighted sequential sampling.

    The first member is uniform; each later one is drawn with probability
    proportional to its Jeffreys divergence to the nearest member already
    chosen.  ``k == n`` returns every index.  Deterministic given ``seed``.
    """
    if k > s.n:
        raise ValidationError(f"k={k} exceeds the number of histograms n={s.n}")
    if k == s.n:
        return np.arange(s.n)
    rng = np.random.default_rng(seed)
    matrix = s.matrix
    log_matrix = s.log_matrix
    chosen = [int(rng.integers(s.n))]
    nearest = _pairwise_jeffreys(matrix, log_matrix, matrix[chosen[-1]][None, :])[:, 0]
    while len(chosen) < k:
        total = float(nearest.sum())
        if total > 0.0:
            idx = int(rng.choice(s.n, p=nearest / total))
        else:
            # All remaining points coincide with a chosen one; fall back to
            # a uniform draw over the unchosen indices.
            remaining = np.setdiff1d(np.arange(s.n), np.asarray(chosen))
            idx = int(rng.choice(remaining))
        chosen.append(idx)
        dist = _pairwise_jeffreys(matrix, log_matrix, matrix[idx][None, :])[:, 0]
        nearest = np.minimum(nearest, dist)
    return np.array(chosen)


def _repair_empty(assign: np.ndarray, costs: np.ndarray, k: int) -> np.ndarray:
    """Give each empty cluster the point that is currently worst served.

    Moving the point with the largest divergence to its own centroid into a
    singleton cluster strictly decreases the objective.  Donors are only
    taken from clusters with at least two members.
    """
    counts = np.bincount(assign, minlength=k)
    for m in np.flatnonzero(counts == 0):
        eligible = np.flatnonzero(counts[assign] >= 2)
        donor = eligible[np.argmax(costs[eligible])]
        counts[assign[donor]] -= 1
        assign[donor] = m
        counts[m] += 1
    return assign


def _positive_candidates(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    return _coordinates(a, a / g)


def _normalized_candidates(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    return _simplex_coordinates(a, a / g, 0.0)


def _one_step_frequency_update(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """One fixed-point refinement per row of ``(k, d)`` normalized means.

    Started from the arithmetic mean, ``lam = -KL(a : g)``; a
    provably-better-than-mean update that keeps the variational k-means
    cheap.
    """
    return _simplex_coordinates(a, a / g, _kl_multiplier(a, np.log(g)))


def _fixedpoint_1step_candidates(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    return _one_step_frequency_update(*_normalized_means(a, g))


def _exact_candidates(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    return batch_frequency_bisection(*_normalized_means(a, g))[1]


# Centroid mode -> (k, d) candidate centroids from the (k, d) raw weighted
# arithmetic and geometric means of the clusters.
_CANDIDATES = {
    CENTROID_MODE_POSITIVE: _positive_candidates,
    CENTROID_MODE_NORMALIZED: _normalized_candidates,
    CENTROID_MODE_FIXEDPOINT_1STEP: _fixedpoint_1step_candidates,
    CENTROID_MODE_EXACT: _exact_candidates,
}


def _relocate(
    matrix: np.ndarray,
    log_matrix: np.ndarray,
    weights: np.ndarray,
    assign: np.ndarray,
    centers: np.ndarray,
    mode: str,
) -> np.ndarray:
    """Update every centroid of one round in a single batched solve.

    The clusters' normalized weights form one ``(k, n)`` matrix, so their
    arithmetic and geometric means are two matmuls and the configured
    update runs once for every cluster with at least two members.  A
    singleton cluster takes its member, an empty one keeps its centroid.
    """
    k = centers.shape[0]
    counts = np.bincount(assign, minlength=k)
    row_weights = weights / np.bincount(assign, weights=weights, minlength=k)[assign]
    cluster_weights = np.zeros((k, matrix.shape[0]))
    cluster_weights[assign, np.arange(matrix.shape[0])] = row_weights

    candidates = centers.copy()
    alone = np.flatnonzero(counts[assign] == 1)
    candidates[assign[alone]] = matrix[alone]
    solve = np.flatnonzero(counts >= 2)
    if solve.size:
        w = cluster_weights[solve]
        a = w @ matrix
        g = np.exp(w @ log_matrix)
        candidates[solve] = _CANDIDATES[mode](a, g)

    # Keep the previous centroid when the update does not improve the
    # within-cluster objective; this pins down monotone convergence for
    # the approximate modes.
    def objectives(cents: np.ndarray) -> np.ndarray:
        costs = ((matrix - cents[assign]) * (log_matrix - np.log(cents)[assign])).sum(axis=1)
        return np.bincount(assign, weights=row_weights * costs, minlength=k)

    better = objectives(candidates) <= objectives(centers)
    return np.where(better[:, None], candidates, centers)


def kmeans(s: WeightedHistogramSet, cfg: ClusteringConfig) -> ClusteringResult:
    """Lloyd iteration under the Jeffreys divergence.

    Assignment sends each histogram to its nearest centroid (ties to the
    lowest index); relocation applies the configured centroid update to
    every cluster in one batched call.  Stops when assignments repeat, when the objective decrease
    drops to ``objective_tolerance``, or after ``max_iterations`` rounds.
    The trace records the weighted objective after each relocation and
    never increases.
    """
    if cfg.k > s.n:
        raise ValidationError(f"k={cfg.k} exceeds the number of histograms n={s.n}")
    if cfg.centroid_mode in _FREQUENCY_MODES:
        s = s.as_frequency()
    matrix = s.matrix
    log_matrix = s.log_matrix

    centers = matrix[seed_centroids(s, cfg.k, cfg.seed)]
    assignments: np.ndarray | None = None
    trace: list[float] = []
    rounds = 0
    rows = np.arange(s.n)

    def objective(assign: np.ndarray, cents: np.ndarray) -> float:
        costs = _pairwise_jeffreys(matrix, log_matrix, cents)[rows, assign]
        return float(s.weights @ costs)

    while rounds < cfg.max_iterations:
        costs = _pairwise_jeffreys(matrix, log_matrix, centers)
        new_assign = costs.argmin(axis=1)
        new_assign = _repair_empty(new_assign, costs[rows, new_assign], cfg.k)
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        centers = _relocate(matrix, log_matrix, s.weights, assignments, centers, cfg.centroid_mode)
        rounds += 1
        trace.append(objective(assignments, centers))
        if len(trace) >= 2 and trace[-2] - trace[-1] <= cfg.objective_tolerance:
            # Refresh assignments so the result is optimal against the
            # final centroids; this can only decrease the objective.
            refreshed = _pairwise_jeffreys(matrix, log_matrix, centers).argmin(axis=1)
            if not np.array_equal(refreshed, assignments):
                assignments = refreshed
                trace.append(objective(assignments, centers))
            break

    assignments = np.asarray(assignments, dtype=np.int64)
    assignments.flags.writeable = False
    make = FrequencyHistogram if cfg.centroid_mode in _FREQUENCY_MODES else Histogram
    return ClusteringResult(
        assignments=assignments,
        centroids=tuple(make(c) for c in centers),
        objective_trace=tuple(trace),
        iterations=rounds,
    )
