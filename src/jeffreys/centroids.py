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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .divergences import jeffreys_to_set
from .errors import NumericError, ValidationError
from .histograms import (
    FrequencyHistogram,
    Histogram,
    WeightedHistogramSet,
    normalized_means,
)
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


def positive_centroid(s: WeightedHistogramSet) -> CentroidResult:
    """Exact Jeffreys centroid over the positive orthant.

    Separates per coordinate; each coordinate solves
    ``log(c/g) + 1 - a/c = 0``, whose root is ``a / W0(a * e / g)``.
    """
    if s.n == 1:
        return _singleton_result(s, MODE_POSITIVE, frequency=False)
    a, g = _means(s)
    w, steps = lambert_w0_values((a / g) * math.e, return_iterations=True)
    c = Histogram(a / w)
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
    arith, geom = normalized_means(sf)
    c = FrequencyHistogram(0.5 * (arith.bins + geom.bins))
    return CentroidResult(
        centroid=c,
        mode=MODE_VELDHUIS,
        objective=jeffreys_to_set(c, sf),
        iterations=0,
    )


def _frequency_problem(sf: WeightedHistogramSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized means and their ratio, shared by both frequency solvers."""
    a = sf.weights @ sf.matrix
    a = a / a.sum()
    g = np.exp(sf.weights @ sf.log_matrix)
    g = g / g.sum()
    return a, g, a / g


def _coordinates(a: np.ndarray, ratio: np.ndarray, lam: float) -> np.ndarray:
    return a / lambert_w0_values(ratio * math.exp(lam + 1.0))


def _finish_frequency(
    sf: WeightedHistogramSet,
    coords: np.ndarray,
    mode: str,
    lam: float,
    iterations: int,
    tol: float,
    fallback: bool = False,
) -> CentroidResult:
    mass = float(coords.sum())
    defect = abs(mass - 1.0)
    if defect > tol:
        raise NumericError(
            f"{mode} stopped with simplex defect {defect:.3e} > tol {tol:.3e}"
        )
    c = FrequencyHistogram(coords / mass)
    return CentroidResult(
        centroid=c,
        mode=mode,
        objective=jeffreys_to_set(c, sf),
        iterations=iterations,
        lambda_star=min(lam, 0.0),
        simplex_defect=defect,
        fallback=fallback,
    )


def frequency_centroid_bisection(
    s: WeightedHistogramSet, tol: float = DEFAULT_BISECTION_TOL
) -> CentroidResult:
    """Exact Jeffreys frequency centroid via bisection on the multiplier.

    The bracket ``[max_i(a_i + log g_i) - 1, 0]`` always contains the
    root of ``s(lam) = 1``.  Unless the upper endpoint already satisfies
    ``|s(0) - 1| <= tol`` (identical-member degeneracy), the bracket is
    halved exactly :data:`BISECTION_HALVINGS` times, which resolves the
    multiplier to the full 52-bit significand of a double relative to the
    initial bracket; ``tol`` is then verified against the final simplex
    defect.  Stopping on the defect alone could leave the coordinates
    under-resolved where ``s`` is flat.
    """
    if tol <= 0.0:
        raise ValidationError(f"tol must be positive, got {tol!r}")
    sf = s.as_frequency()
    if sf.n == 1:
        return _singleton_result(sf, MODE_BISECTION, frequency=True)
    a, g, ratio = _frequency_problem(sf)

    coords_hi = _coordinates(a, ratio, 0.0)
    # s(0) <= 1 up to rounding; s(0) == 1 means a == g and lam* = 0.  The
    # threshold is at the rounding floor so that merely similar inputs
    # still get the full bisection schedule.
    if 1.0 - float(coords_hi.sum()) <= min(tol, DEGENERACY_TOL):
        return _finish_frequency(
            sf, coords_hi, MODE_BISECTION, 0.0, 0, max(tol, DEGENERACY_TOL)
        )

    lo = float(np.max(a + np.log(g))) - 1.0
    hi = 0.0
    s_lo = float(_coordinates(a, ratio, lo).sum())
    if s_lo < 1.0 - BRACKET_SLACK:
        raise NumericError(
            f"bisection bracket violated: s(lower) = {s_lo!r} < 1 "
            "(means computed inconsistently)"
        )
    for _ in range(BISECTION_HALVINGS):
        mid = 0.5 * (lo + hi)
        if float(_coordinates(a, ratio, mid).sum()) >= 1.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    coords = _coordinates(a, ratio, lam)
    return _finish_frequency(sf, coords, MODE_BISECTION, lam, BISECTION_HALVINGS, tol)


def batch_frequency_bisection(
    a: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multiplier bisection for ``T`` frequency problems at once.

    ``a`` and ``g`` are ``(T, d)`` normalized arithmetic and geometric
    means, one problem per row.  Returns ``(lam, coords, halvings)``: the
    multipliers, the ``(T, d)`` centroids on the simplex and the halvings
    per row.  Row for row it solves the problem of
    :func:`frequency_centroid_bisection` at its default tolerance (equal to
    rounding), with the same checks: a row with ``1 - s(0) <=
    DEGENERACY_TOL`` keeps ``lam = 0`` and 0 halvings, a bracket with
    ``s(lower)`` below one raises :class:`NumericError`, and so does a
    final simplex defect above ``DEFAULT_BISECTION_TOL``.  Every row shares
    the 55 ``W0`` evaluations of the schedule, and each row's result does
    not depend on the other rows.
    """
    ratio = a / g
    coords0 = a / lambert_w0_values(ratio * math.e)
    degenerate = 1.0 - coords0.sum(axis=1) <= DEGENERACY_TOL
    lo = np.where(degenerate, 0.0, (a + np.log(g)).max(axis=1) - 1.0)
    hi = np.zeros(a.shape[0])
    s_lo = (a / lambert_w0_values(ratio * np.exp(lo + 1.0)[:, None])).sum(axis=1)
    if np.any(s_lo < 1.0 - BRACKET_SLACK):
        raise NumericError(
            f"bisection bracket violated: s(lower) = {float(s_lo.min())!r} < 1 "
            "(means computed inconsistently)"
        )
    for _ in range(BISECTION_HALVINGS):
        mid = 0.5 * (lo + hi)
        ge = (a / lambert_w0_values(ratio * np.exp(mid + 1.0)[:, None])).sum(axis=1) >= 1.0
        lo = np.where(ge, mid, lo)
        hi = np.where(ge, hi, mid)
    lam = 0.5 * (lo + hi)
    coords = a / lambert_w0_values(ratio * np.exp(lam + 1.0)[:, None])
    mass = coords.sum(axis=1)
    defect = float(np.abs(mass - 1.0).max())
    if defect > DEFAULT_BISECTION_TOL:
        raise NumericError(
            f"{MODE_BISECTION} stopped with simplex defect {defect:.3e} "
            f"> tol {DEFAULT_BISECTION_TOL:.3e}"
        )
    halvings = np.where(degenerate, 0, BISECTION_HALVINGS)
    return lam, coords / mass[:, None], halvings


def frequency_centroid_fixedpoint(
    s: WeightedHistogramSet,
    tol: float = DEFAULT_FIXEDPOINT_TOL,
    max_iterations: int = _FIXEDPOINT_CAP,
) -> CentroidResult:
    """Exact Jeffreys frequency centroid via fixed-point iteration on the multiplier.

    Starts from the arithmetic mean (``lam_0 = -KL(a : g)``) and iterates

        c_l = normalize(a / W0(a * exp(lam_{l-1} + 1) / g))
        lam_l = -KL(c_l : g)

    until ``|lam_l - lam_{l-1}| <= tol``.  Keeping the iterate on the
    simplex makes the map nearly flat at its fixed point, so convergence
    typically takes about five to seven iterations.  No contraction
    guarantee exists, so on cap breach the solver falls back to bisection
    and flags the result instead of looping forever.
    """
    if tol <= 0.0:
        raise ValidationError(f"tol must be positive, got {tol!r}")
    sf = s.as_frequency()
    if sf.n == 1:
        return _singleton_result(sf, MODE_FIXEDPOINT, frequency=True)
    a, g, ratio = _frequency_problem(sf)
    log_g = np.log(g)

    lam = -float(np.sum(a * (np.log(a) - log_g)))
    for iterations in range(1, max_iterations + 1):
        coords = _coordinates(a, ratio, lam)
        coords = coords / coords.sum()  # the iterate lives on the simplex
        lam_next = -float(np.sum(coords * (np.log(coords) - log_g)))
        delta = abs(lam_next - lam)
        lam = lam_next
        if delta <= tol:
            coords = _coordinates(a, ratio, lam)
            return _finish_frequency(
                sf, coords, MODE_FIXEDPOINT, lam, iterations, max(tol * 10.0, 1e-12)
            )

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
