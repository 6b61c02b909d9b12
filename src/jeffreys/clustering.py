"""Jeffreys k-means over weighted histogram sets.

Lloyd iteration with the Jeffreys divergence as the assignment distance.
The relocation step runs one of four centroid updates, the rows of
:data:`jeffreys.centroids.MODES` that name a ``builder``: the exact
positive centroid (``positive``), the normalized approximation
(``normalized``), a single fixed-point refinement, the variational scheme
(``frequency_fixedpoint_1step``), or the exact frequency centroid
(``frequency_exact``).  Each builder is the mode's one centroid function in
:mod:`jeffreys.centroids`, the one the scalar API runs at ``T = 1``; here
it runs on every cluster at once.  Every update is guarded against the
previous centroid, so the objective trace is non-increasing for every mode,
exact or approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import centroids
from .centroids import MODES
from .divergences import jeffreys_rows
from .errors import NumericError, ValidationError, check_count
from .histograms import WeightedHistogramSet


@dataclass(frozen=True)
class ClusteringConfig:
    """Knobs of a k-means run; ``seed`` makes the whole run reproducible.

    ``centroid_mode`` is a name in :data:`jeffreys.centroids.MODES` whose
    row has a ``builder``.  A run stops early when assignments repeat
    or the objective trace does not decrease; ``max_iterations`` caps the
    rounds.
    """

    k: int
    max_iterations: int = 100
    centroid_mode: str = "positive"
    seed: int = 0

    def __post_init__(self):
        for name, least in (("k", 1), ("max_iterations", 1), ("seed", 0)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), least))
        if self.centroid_mode not in MODES or MODES[self.centroid_mode].builder is None:
            choices = [name for name, mode in MODES.items() if mode.builder]
            raise ValidationError(
                f"unknown centroid mode {self.centroid_mode!r}; choose from {choices}"
            )


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    """Assignments, centroids, and the per-round objective trace.

    ``assignments`` is a read-only ``(n,)`` int64 array and ``centroids`` a
    read-only ``(k, d)`` float64 array, one centroid per row.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    objective_trace: tuple[float, ...]
    iterations: int


def _expanded_costs(
    s: WeightedHistogramSet, centers: np.ndarray, log_centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(n, k)`` costs from ``J(h, c) = h.log h + c.log c - h.log c - c.log h``, and their slack.

    The cross terms are two matmuls and ``h.log h`` is cached on the set.
    Each entry differs from the elementwise sum ``(h - c).(log h - log c)``
    by at most its slack, ``2 (d + 4) eps (h.|log h| + c.|log c| +
    h.|log c| + c.|log h|)``: twice the two sums' worst-case rounding
    error, so the slack also covers the rounding of the comparisons that
    read it.  Near the top of the double range an entry can overflow to
    ``inf`` or ``nan``, without a warning; its row is then unsure.
    """
    abs_log, abs_log_centers = np.abs(s.log_matrix), np.abs(log_centers)
    with np.errstate(over="ignore", invalid="ignore"):
        costs = (
            s.row_xlogx[:, None]
            + (centers * log_centers).sum(axis=1)
            - s.matrix @ log_centers.T
            - s.log_matrix @ centers.T
        )
        slack = (2 * (s.d + 4) * np.finfo(np.float64).eps) * (
            (s.matrix * abs_log).sum(axis=1)[:, None]
            + (centers * abs_log_centers).sum(axis=1)
            + s.matrix @ abs_log_centers.T
            + abs_log @ centers.T
        )
    return costs, slack


def _pairwise_jeffreys(
    s: WeightedHistogramSet, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centre of every row (ties to the lowest index) and the row's cost to it.

    The nearest centre is read from :func:`_expanded_costs`.  A row whose
    best entry does not clear every other entry by both slacks, including
    any row with a non-finite entry, is recomputed elementwise over all
    ``k`` centres; so the assignment is the argmin of the elementwise
    costs.  The returned costs are elementwise, one ``n x d`` pass; with
    ``k == 1`` that pass is all that runs.
    """
    matrix, log_matrix = s.matrix, s.log_matrix
    k = centers.shape[0]
    log_centers = np.log(centers)
    if k == 1:
        return np.zeros(s.n, dtype=np.intp), jeffreys_rows(
            matrix, log_matrix, centers[0], log_centers[0]
        )
    costs, slack = _expanded_costs(s, centers, log_centers)
    assign = costs.argmin(axis=1)
    rows = np.arange(s.n)
    # NaN compares False, so a row with one is unsure as well.
    with np.errstate(over="ignore", invalid="ignore"):
        top = costs[rows, assign] + slack[rows, assign]
        unsure = np.flatnonzero((~(costs - slack > top[:, None])).sum(axis=1) > 1)
    if unsure.size:
        h, log_h = matrix[unsure], log_matrix[unsure]
        exact = [jeffreys_rows(h, log_h, centers[m], log_centers[m]) for m in range(k)]
        assign[unsure] = np.stack(exact, axis=1).argmin(axis=1)
    return assign, jeffreys_rows(matrix, log_matrix, centers[assign], log_centers[assign])


def seed_centroids(s: WeightedHistogramSet, k: int, seed: int) -> np.ndarray:
    """Indices of ``k`` members picked by divergence-weighted sequential sampling.

    The first member is uniform; each later one is drawn with probability
    proportional to its Jeffreys divergence to the nearest member already
    chosen.  ``k == n`` returns every index.  Deterministic given ``seed``.
    Divergences too large for a double leave no weights to draw by, and
    raise :class:`NumericError`.
    """
    if k > s.n:
        raise ValidationError(f"k={k} exceeds the number of histograms n={s.n}")
    if k == s.n:
        return np.arange(s.n)
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(s.n))]
    nearest = np.full(s.n, np.inf)
    # One cost vector per pick but the last, whose costs are never read.
    while len(chosen) < k:
        dist = _pairwise_jeffreys(s, s.matrix[chosen[-1]][None, :])[1]
        nearest = np.minimum(nearest, dist)
        with np.errstate(over="ignore"):
            total = float(nearest.sum())
        if not math.isfinite(total):
            raise NumericError("k-means seeding: divergence weights are not finite")
        if total > 0.0:
            idx = int(rng.choice(s.n, p=nearest / total))
        else:
            # All remaining points coincide with a chosen one; fall back to
            # a uniform draw over the unchosen indices.
            remaining = np.setdiff1d(np.arange(s.n), np.asarray(chosen))
            idx = int(rng.choice(remaining))
        chosen.append(idx)
    return np.array(chosen)


def _trace_entry(weights: np.ndarray, costs: np.ndarray) -> float:
    """The weighted objective of the rows' ``costs``; a non-finite one raises.

    Finite members can have divergences beyond the double range; the
    trace then refuses the round with :class:`NumericError`.
    """
    objective = float(weights @ costs)
    if not math.isfinite(objective):
        raise NumericError(f"k-means: objective is not finite: {objective!r}")
    return objective


def _assigned(
    s: WeightedHistogramSet, centers: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pairwise_jeffreys`, with every empty cluster repaired.

    An empty cluster takes the point that is currently worst served, only
    from clusters with at least two members, as its one member and its
    centre: ``centers`` is updated in place, and the donor's cost is 0.
    Moving the point with the largest divergence to its own centroid into
    a singleton cluster strictly decreases the objective.
    """
    assign, costs = _pairwise_jeffreys(s, centers)
    counts = np.bincount(assign, minlength=k)
    for m in np.flatnonzero(counts == 0):
        eligible = np.flatnonzero(counts[assign] >= 2)
        donor = eligible[np.argmax(costs[eligible])]
        counts[assign[donor]] -= 1
        assign[donor] = m
        counts[m] += 1
        centers[m] = s.matrix[donor]
        costs[donor] = 0.0
    return assign, costs


def _relocate(
    matrix: np.ndarray,
    log_matrix: np.ndarray,
    weights: np.ndarray,
    assign: np.ndarray,
    centers: np.ndarray,
    costs: np.ndarray,
    mode: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Update every centroid of one round in a single batched solve.

    The clusters' normalized weights form one ``(k, n)`` matrix, so their
    arithmetic and geometric means are two matmuls and the mode's builder
    in :mod:`jeffreys.centroids`, which maps the ``(k, d)`` raw means to
    ``(k, d)`` candidates, runs once for every cluster with at least two
    members.  A singleton cluster takes its member, an empty one keeps its
    centroid.

    ``costs`` holds each row's cost to its cluster's old centre, which the
    guard compares with the candidates' ``n`` costs computed here.  Returns
    the kept centres and each row's cost to the centre kept for its cluster.
    """
    k = centers.shape[0]
    rows = np.arange(matrix.shape[0])
    counts = np.bincount(assign, minlength=k)
    row_weights = weights / np.bincount(assign, weights=weights, minlength=k)[assign]
    cluster_weights = np.zeros((k, rows.size))
    cluster_weights[assign, rows] = row_weights

    candidates = centers.copy()
    alone = np.flatnonzero(counts[assign] == 1)
    candidates[assign[alone]] = matrix[alone]
    solve = np.flatnonzero(counts >= 2)
    if solve.size:
        w = cluster_weights[solve]
        a = w @ matrix
        g = np.exp(w @ log_matrix)
        candidates[solve] = getattr(centroids, MODES[mode].builder)(a, g)[0]

    # Keep the previous centroid when the update does not improve the
    # within-cluster objective; this pins down monotone convergence for
    # the approximate modes.
    new_costs = jeffreys_rows(matrix, log_matrix, candidates[assign], np.log(candidates)[assign])
    new_objectives = np.bincount(assign, weights=row_weights * new_costs, minlength=k)
    old_objectives = np.bincount(assign, weights=row_weights * costs, minlength=k)
    better = new_objectives <= old_objectives
    kept_costs = np.where(better[assign], new_costs, costs)
    return np.where(better[:, None], candidates, centers), kept_costs


def kmeans(s: WeightedHistogramSet, cfg: ClusteringConfig) -> ClusteringResult:
    """Lloyd iteration under the Jeffreys divergence.

    Assignment sends each histogram to its nearest centroid (ties to the
    lowest index); relocation applies the configured centroid update to
    every cluster in one batched call.  Each round makes one assignment
    call, which also returns every row's elementwise cost to its centre
    and repairs every cluster it empties (:func:`_assigned`); the
    relocation guard and the trace entry read those costs or the
    candidates' own.  Stops when assignments repeat, when the trace did not
    decrease, or after ``max_iterations`` rounds.  The trace records the
    weighted objective after each relocation and never increases; an
    objective beyond the double range raises :class:`NumericError`.
    """
    if MODES[cfg.centroid_mode].frequency:
        s = s.as_frequency()
    centers = s.matrix[seed_centroids(s, cfg.k, cfg.seed)]
    assignments: np.ndarray | None = None
    trace: list[float] = []
    rounds = 0

    while rounds < cfg.max_iterations:
        new_assign, costs = _assigned(s, centers, cfg.k)
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        centers, kept_costs = _relocate(
            s.matrix, s.log_matrix, s.weights, assignments, centers, costs, cfg.centroid_mode
        )
        rounds += 1
        trace.append(_trace_entry(s.weights, kept_costs))
        if len(trace) >= 2 and trace[-1] >= trace[-2]:
            # Refresh assignments against the final centroids; the refresh
            # and its repair can only decrease the objective.
            refreshed, refreshed_costs = _assigned(s, centers, cfg.k)
            if not np.array_equal(refreshed, assignments):
                assignments = refreshed
                trace.append(_trace_entry(s.weights, refreshed_costs))
            break

    assignments = np.asarray(assignments, dtype=np.int64)
    assignments.flags.writeable = False
    centers.flags.writeable = False
    return ClusteringResult(
        assignments=assignments,
        centroids=centers,
        objective_trace=tuple(trace),
        iterations=rounds,
    )
