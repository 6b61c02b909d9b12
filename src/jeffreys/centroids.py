"""Jeffreys centroid constructions.

Four ways to summarize a weighted histogram set under the Jeffreys
divergence:

* :func:`positive_centroid` -- the exact minimizer over the positive
  orthant, in closed form per coordinate: ``c_i = a_i / W0(a_i * e / g_i)``
  with ``a`` and ``g`` the weighted arithmetic and geometric means.
* :func:`normalized_positive_centroid` -- the positive centroid projected
  onto the simplex by dividing by its mass ``w_c``; its objective is within
  a factor ``1 / w_c`` of the optimal frequency centroid.
* :func:`veldhuis_centroid` -- the average of the normalized arithmetic
  and geometric means, a classical cheap approximation.
* :func:`frequency_centroid_bisection` / :func:`frequency_centroid_fixedpoint`
  -- the exact frequency centroid, obtained by solving the stationarity
  system ``c_i(lam) = a_i / W0(a_i * exp(lam + 1) / g_i)`` for the Lagrange
  multiplier ``lam`` that puts the coordinates back on the simplex.

The mass function ``s(lam) = sum_i c_i(lam)`` is strictly decreasing with
``s(0) <= 1``, and the multiplier lives in
``[max_i(a_i + log g_i) - 1, 0]``, which makes bisection safe.  At the
solution ``lam = -KL(c : g) <= 0``.

Both frequency solvers are written once, for ``T`` problems at a time:
:func:`batch_frequency_bisection` and :func:`batch_frequency_fixedpoint`
take ``(T, d)`` normalized means, one problem per row.  The scalar solvers
run them at ``T = 1``; k-means and the trial harness run them on every
cluster or trial at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .divergences import jeffreys_to_set
from .errors import NumericError, ValidationError
from .histograms import FrequencyHistogram, Histogram, WeightedHistogramSet
from .lambertw import lambert_w0_values

MODE_POSITIVE = "positive"
MODE_NORMALIZED = "normalized_approx"
MODE_VELDHUIS = "veldhuis"
MODE_BISECTION = "frequency_bisection"
MODE_FIXEDPOINT = "frequency_fixedpoint"

#: Number of interval halvings that resolves the multiplier bracket to the
#: 52 significand bits of an IEEE double.  The bisection always runs this
#: full schedule so the coordinates, not just the simplex defect, converge.
BISECTION_HALVINGS = 52

#: Stop the fixed-point iteration once |lam_l - lam_{l-1}| falls below this.
DEFAULT_FIXEDPOINT_TOL = 1e-14
#: Required simplex defect |s(lam) - 1| at the bisection solution.
DEFAULT_BISECTION_TOL = 1e-12
#: ``1 - s(0)`` at or below which the bisection takes ``lam = 0`` without
#: halving (identical members); the rounding floor of ``s``.
DEGENERACY_TOL = 1e-13
#: ``s(lower)`` below ``1 - BRACKET_SLACK`` means the bracket misses the root.
BRACKET_SLACK = 1e-9
#: Fixed-point steps after which the solver falls back to bisection.
_FIXEDPOINT_CAP = 100


@dataclass(frozen=True)
class CentroidResult:
    """A centroid plus solver diagnostics.

    ``w_c`` is the mass of the positive centroid when one was computed,
    ``bound_factor`` the ``1 / w_c`` approximation guarantee of the
    normalized mode, ``lambda_star`` the converged simplex multiplier of
    the frequency solvers, and ``simplex_defect`` the pre-renormalization
    ``|sum - 1|`` of their output.  ``fallback`` marks a fixed-point run
    that was finished by bisection after failing to contract.
    """

    centroid: Histogram
    mode: str
    objective: float
    iterations: int
    w_c: float | None = None
    lambda_star: float | None = None
    bound_factor: float | None = None
    simplex_defect: float | None = None
    fallback: bool = False


def _singleton_result(s: WeightedHistogramSet, mode: str, frequency: bool) -> CentroidResult:
    # n == 1 is analytically exact; skip the solvers entirely.
    member = (FrequencyHistogram if frequency else Histogram)(s.matrix[0])
    return CentroidResult(
        centroid=member,
        mode=mode,
        objective=0.0,
        iterations=0,
        w_c=member.total,
        lambda_star=0.0 if frequency else None,
        bound_factor=1.0 if mode == MODE_NORMALIZED else None,
        simplex_defect=0.0 if frequency else None,
    )


def _means(s: WeightedHistogramSet) -> tuple[np.ndarray, np.ndarray]:
    a = s.weights @ s.matrix
    g = np.exp(s.weights @ s.log_matrix)
    return a, g


def _normalized_means(a: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arithmetic and geometric means divided by their sums along the last axis."""
    return a / a.sum(axis=-1, keepdims=True), g / g.sum(axis=-1, keepdims=True)


def normalized_means(s: WeightedHistogramSet) -> tuple[FrequencyHistogram, FrequencyHistogram]:
    """Normalized weighted arithmetic and geometric means of a frequency set.

    Both means are divided by their sums, exactly as the frequency solvers
    normalize them.
    """
    a, g = _normalized_means(*_means(s.as_frequency()))
    return FrequencyHistogram(a), FrequencyHistogram(g)


def _coordinates(a: np.ndarray, ratio: np.ndarray, lam=0.0, return_iterations: bool = False):
    """``c(lam) = a / W0(ratio * e^(lam + 1))`` row by row, with ``ratio = a / g``.

    ``lam`` is a scalar or one multiplier per row of ``(T, d)`` means; on
    raw means ``lam = 0`` gives the positive centroid.  With
    ``return_iterations=True`` also returns the ``W0`` step counts.
    """
    x = ratio * np.exp(lam + 1.0)[..., None]
    if return_iterations:
        w, steps = lambert_w0_values(x, return_iterations=True)
        return a / w, steps
    return a / lambert_w0_values(x)


def _simplex_coordinates(a: np.ndarray, ratio: np.ndarray, lam) -> np.ndarray:
    """``c(lam)`` divided by its row sums: the fixed point's iterate."""
    coords = _coordinates(a, ratio, lam)
    return coords / coords.sum(axis=-1, keepdims=True)


def _kl_multiplier(x: np.ndarray, log_g: np.ndarray) -> np.ndarray:
    """``-KL(x : g)`` per row, the multiplier the fixed point takes from ``x``."""
    return -(x * (np.log(x) - log_g)).sum(axis=-1)


def _on_simplex(a: np.ndarray, ratio: np.ndarray, lam: np.ndarray, limit, mode: str):
    """``c(lam)`` divided by its row sums, and each row's defect ``|sum - 1|``.

    A defect above ``limit`` (a bound for all rows, or one per row) raises
    :class:`NumericError`.
    """
    coords = _coordinates(a, ratio, lam)
    mass = coords.sum(axis=1)
    defect = np.abs(mass - 1.0)
    if np.any(defect > limit):
        raise NumericError(
            f"{mode} stopped with simplex defect {defect.max():.3e} > tol {np.min(limit):.3e}"
        )
    return coords / mass[:, None], defect


def positive_centroid(s: WeightedHistogramSet) -> CentroidResult:
    """Exact Jeffreys centroid over the positive orthant.

    Separates per coordinate; each coordinate solves
    ``log(c/g) + 1 - a/c = 0``, whose root is ``a / W0(a * e / g)``.
    """
    if s.n == 1:
        return _singleton_result(s, MODE_POSITIVE, frequency=False)
    a, g = _means(s)
    coords, steps = _coordinates(a, a / g, return_iterations=True)
    c = Histogram(coords)
    return CentroidResult(
        centroid=c,
        mode=MODE_POSITIVE,
        objective=jeffreys_to_set(c, s),
        iterations=int(np.max(steps)),
        w_c=c.total,
    )


def normalized_positive_centroid(s: WeightedHistogramSet) -> CentroidResult:
    """Positive centroid of a frequency set, renormalized onto the simplex.

    For frequency inputs the positive centroid's mass satisfies
    ``0 < w_c <= 1`` and the normalized centroid's objective is at most
    ``1 / w_c`` times the optimum, recorded as ``bound_factor``.
    """
    sf = s.as_frequency()
    if sf.n == 1:
        return _singleton_result(sf, MODE_NORMALIZED, frequency=True)
    pos = positive_centroid(sf)
    w_c = pos.w_c
    c = FrequencyHistogram(pos.centroid.bins / w_c)
    return CentroidResult(
        centroid=c,
        mode=MODE_NORMALIZED,
        objective=jeffreys_to_set(c, sf),
        iterations=pos.iterations,
        w_c=w_c,
        bound_factor=1.0 / w_c,
    )


def veldhuis_centroid(s: WeightedHistogramSet) -> CentroidResult:
    """Half-sum of the normalized arithmetic and geometric means."""
    sf = s.as_frequency()
    if sf.n == 1:
        return _singleton_result(sf, MODE_VELDHUIS, frequency=True)
    a, g = _normalized_means(*_means(sf))
    c = FrequencyHistogram(0.5 * (a + g))
    return CentroidResult(
        centroid=c,
        mode=MODE_VELDHUIS,
        objective=jeffreys_to_set(c, sf),
        iterations=0,
    )


def batch_frequency_bisection(
    a: np.ndarray, g: np.ndarray, tol: float = DEFAULT_BISECTION_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Multiplier bisection for ``T`` frequency problems at once.

    ``a`` and ``g`` are ``(T, d)`` normalized arithmetic and geometric
    means, one problem per row.  Returns ``(lam, coords, halvings,
    defect)``: the multipliers, the ``(T, d)`` centroids on the simplex,
    the halvings and the simplex defects before renormalization, per row.
    The bracket ``[max_i(a_i + log g_i) - 1, 0]`` is halved
    exactly :data:`BISECTION_HALVINGS` times, which resolves the multiplier
    to the 52-bit significand of a double, and ``tol`` is then checked
    against each row's simplex defect (stopping on the defect alone could
    leave the coordinates under-resolved where ``s`` is flat).  A row with
    ``1 - s(0) <= min(tol, DEGENERACY_TOL)`` (identical members) keeps
    ``lam = 0`` and 0 halvings, its defect held to ``max(tol,
    DEGENERACY_TOL)``.  A bracket with ``s(lower)`` below one or a defect
    above its bound raises :class:`NumericError`.  Every row shares the 55
    ``W0`` evaluations, and no row's result depends on the other rows.
    """
    ratio = a / g
    # s(0) <= 1 up to rounding; s(0) == 1 means a == g and lam* = 0.  The
    # threshold is at the rounding floor so that merely similar inputs
    # still get the full bisection schedule.
    degenerate = 1.0 - _coordinates(a, ratio).sum(axis=1) <= min(tol, DEGENERACY_TOL)
    lo = np.where(degenerate, 0.0, (a + np.log(g)).max(axis=1) - 1.0)
    hi = np.zeros(a.shape[0])
    s_lo = _coordinates(a, ratio, lo).sum(axis=1)
    if np.any(s_lo < 1.0 - BRACKET_SLACK):
        raise NumericError(
            f"bisection bracket violated: s(lower) = {float(s_lo.min())!r} < 1 "
            "(means computed inconsistently)"
        )
    # With every row degenerate, lo = hi = 0 and halving changes nothing.
    for _ in range(0 if degenerate.all() else BISECTION_HALVINGS):
        mid = 0.5 * (lo + hi)
        ge = _coordinates(a, ratio, mid).sum(axis=1) >= 1.0
        lo = np.where(ge, mid, lo)
        hi = np.where(ge, hi, mid)
    lam = 0.5 * (lo + hi)
    limit = np.where(degenerate, max(tol, DEGENERACY_TOL), tol)
    coords, defect = _on_simplex(a, ratio, lam, limit, MODE_BISECTION)
    return lam, coords, np.where(degenerate, 0, BISECTION_HALVINGS), defect


def batch_frequency_fixedpoint(
    a: np.ndarray,
    g: np.ndarray,
    tol: float = DEFAULT_FIXEDPOINT_TOL,
    cap: int = _FIXEDPOINT_CAP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multiplier fixed point for ``T`` frequency problems at once.

    ``a`` and ``g`` are ``(T, d)`` normalized means, one problem per row.
    Each row starts from the arithmetic mean (``lam_0 = -KL(a : g)``) and
    iterates

        c_l = normalize(a / W0(a * exp(lam_{l-1} + 1) / g))
        lam_l = -KL(c_l : g)

    until ``|lam_l - lam_{l-1}| <= tol``; a converged row keeps its
    multiplier and its count while the others go on, for at most ``cap``
    steps.  Returns ``(lam, iterations, converged)`` per row; a row that
    reaches ``cap`` without meeting ``tol`` has ``converged`` False.
    """
    ratio = a / g
    log_g = np.log(g)
    lam = _kl_multiplier(a, log_g)
    iterations = np.zeros(a.shape[0], dtype=np.int64)
    active = np.ones(a.shape[0], dtype=bool)
    for _ in range(cap):
        lam_next = _kl_multiplier(_simplex_coordinates(a, ratio, lam), log_g)
        delta = np.abs(lam_next - lam)
        iterations += active
        lam = np.where(active, lam_next, lam)
        active &= ~(delta <= tol)
        if not active.any():
            break
    return lam, iterations, ~active


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")


def _frequency_problem(sf: WeightedHistogramSet) -> tuple[np.ndarray, np.ndarray]:
    """The ``(1, d)`` normalized means of a set: one row of the batched solvers."""
    a, g = _normalized_means(*_means(sf))
    return a[None], g[None]


def _finish_frequency(
    sf: WeightedHistogramSet,
    mode: str,
    lam: np.ndarray,
    coords: np.ndarray,
    iterations: int,
    defect: np.ndarray,
) -> CentroidResult:
    """The report of a batched solve of ``sf``'s one problem."""
    c = FrequencyHistogram(coords[0])
    return CentroidResult(
        centroid=c,
        mode=mode,
        objective=jeffreys_to_set(c, sf),
        iterations=iterations,
        lambda_star=min(float(lam[0]), 0.0),
        simplex_defect=float(defect[0]),
    )


def frequency_centroid_bisection(
    s: WeightedHistogramSet, tol: float = DEFAULT_BISECTION_TOL
) -> CentroidResult:
    """Exact Jeffreys frequency centroid via bisection on the multiplier.

    Runs :func:`batch_frequency_bisection` on the set's one problem: unless
    the members are identical (``lam = 0``, 0 iterations), the multiplier
    bracket is halved :data:`BISECTION_HALVINGS` times and ``tol`` is
    verified against the final simplex defect.
    """
    _check_tol(tol)
    sf = s.as_frequency()
    if sf.n == 1:
        return _singleton_result(sf, MODE_BISECTION, frequency=True)
    a, g = _frequency_problem(sf)
    lam, coords, halvings, defect = batch_frequency_bisection(a, g, tol)
    return _finish_frequency(sf, MODE_BISECTION, lam, coords, int(halvings[0]), defect)


def frequency_centroid_fixedpoint(
    s: WeightedHistogramSet,
    tol: float = DEFAULT_FIXEDPOINT_TOL,
    max_iterations: int = _FIXEDPOINT_CAP,
) -> CentroidResult:
    """Exact Jeffreys frequency centroid via fixed-point iteration on the multiplier.

    Runs :func:`batch_frequency_fixedpoint` on the set's one problem.
    Keeping the iterate on the simplex makes the map nearly flat at its
    fixed point, so convergence typically takes about five to seven
    iterations.  No contraction guarantee exists, so if ``max_iterations``
    steps do not meet ``tol`` the solver falls back to bisection and flags
    the result instead of looping forever.
    """
    _check_tol(tol)
    if max_iterations < 1:
        raise ValidationError(f"max_iterations must be at least 1, got {max_iterations!r}")
    sf = s.as_frequency()
    if sf.n == 1:
        return _singleton_result(sf, MODE_FIXEDPOINT, frequency=True)
    a, g = _frequency_problem(sf)
    lam, iterations, converged = batch_frequency_fixedpoint(a, g, tol, max_iterations)
    if converged[0]:
        coords, defect = _on_simplex(a, a / g, lam, max(tol * 10.0, 1e-12), MODE_FIXEDPOINT)
        return _finish_frequency(sf, MODE_FIXEDPOINT, lam, coords, int(iterations[0]), defect)

    warnings.warn(
        f"fixed-point iteration did not contract within {max_iterations} steps; "
        "falling back to bisection",
        RuntimeWarning,
        stacklevel=2,
    )
    rescue = frequency_centroid_bisection(sf)
    return CentroidResult(
        centroid=rescue.centroid,
        mode=MODE_FIXEDPOINT,
        objective=rescue.objective,
        iterations=max_iterations,
        lambda_star=rescue.lambda_star,
        simplex_defect=rescue.simplex_defect,
        fallback=True,
    )
