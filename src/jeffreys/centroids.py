"""Jeffreys centroid constructions and the registry of centroid modes.

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

The multiplier solvers are written once, for ``T`` problems at a time:
:func:`batch_frequency_bisection`, :func:`batch_frequency_newton` and
:func:`batch_frequency_fixedpoint` take ``(T, d)`` normalized means, one
problem per row.  The bisection always makes 54 ``W0`` passes; the
safeguarded Newton on ``log s(lam) = 0`` keeps the same bracket and needs
about seven.  Their accuracy is fixed: every solution ends in one check of
its simplex defect against :data:`SIMPLEX_TOL`.  The scalar solvers run
them at ``T = 1``; k-means runs Newton (``frequency_exact``) on every
cluster at once, the fixed point's rescue runs Newton, and the trial
harness runs the bisection and the fixed point on every trial at once.

:data:`MODES` names every centroid mode once: the scalar solvers here,
the k-means relocations of :mod:`jeffreys.clustering`, and the CLI's
``--mode`` and ``--centroid-mode`` choices all read it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .divergences import jeffreys_to_set
from .errors import NumericError
from .histograms import FrequencyHistogram, Histogram, WeightedHistogramSet
from .lambertw import lambert_w0_values


class Mode(NamedTuple):
    """One row of :data:`MODES`.

    ``solver`` names the scalar solver in this module and ``builder`` the
    ``(k, d)`` candidate builder of k-means relocation in
    :mod:`jeffreys.clustering`; either is ``None`` where the mode has no
    such form.  Names are looked up on their module at call time, so a
    patched attribute is the one that runs.  ``frequency`` marks a mode
    that only accepts frequency sets.
    """

    solver: str | None
    builder: str | None
    frequency: bool


#: Every centroid mode, by the name that results, reports and the CLI use.
MODES = {
    "positive": Mode("positive_centroid", "_positive_candidates", False),
    "normalized": Mode("normalized_positive_centroid", "_normalized_candidates", True),
    "veldhuis": Mode("veldhuis_centroid", None, True),
    "bisection": Mode("frequency_centroid_bisection", None, True),
    "fixedpoint": Mode("frequency_centroid_fixedpoint", None, True),
    "frequency_fixedpoint_1step": Mode(None, "_fixedpoint_1step_candidates", True),
    "frequency_exact": Mode(None, "_exact_candidates", True),
}

#: Number of interval halvings that resolves the multiplier bracket to the
#: 52 significand bits of an IEEE double.  The bisection always runs this
#: full schedule so the coordinates, not just the simplex defect, converge.
BISECTION_HALVINGS = 52

#: Stop the fixed-point iteration once |lam_l - lam_{l-1}| falls below this.
FIXEDPOINT_TOL = 1e-14
#: Largest simplex defect |s(lam) - 1| a solver may return; a larger one raises.
SIMPLEX_TOL = 1e-12
#: ``1 - s(0)`` at or below which the bisection and Newton take ``lam = 0``
#: without a step (identical members); the rounding floor of ``s``.
DEGENERACY_TOL = 1e-13
#: Fixed-point steps after which the solver falls back to Newton.
_FIXEDPOINT_CAP = 100
#: Newton steps after which a row still running raises.
_NEWTON_CAP = 100
#: A raw Newton step of at most ``_NEWTON_STEP * max(1, |lam|)`` ends a row's solve.
_NEWTON_STEP = 4.0 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class CentroidResult:
    """A centroid plus solver diagnostics.

    ``w_c`` is the mass of the positive centroid when one was computed,
    ``bound_factor`` the ``1 / w_c`` approximation guarantee of the
    normalized mode, ``lambda_star`` the converged simplex multiplier of
    the frequency solvers, and ``simplex_defect`` the pre-renormalization
    ``|sum - 1|`` of their output.  ``fallback`` marks a fixed-point run
    that was finished by the Newton solver after failing to contract.
    ``mode`` is the solver's name in :data:`MODES`.
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


def _singleton_result(s: WeightedHistogramSet, mode: str) -> CentroidResult:
    # n == 1 is analytically exact; skip the solvers entirely.
    frequency = MODES[mode].frequency
    member = (FrequencyHistogram if frequency else Histogram)(s.matrix[0])
    return CentroidResult(
        centroid=member,
        mode=mode,
        objective=0.0,
        iterations=0,
        w_c=member.total,
        lambda_star=0.0 if frequency else None,
        bound_factor=1.0 if mode == "normalized" else None,
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


def _on_simplex(a: np.ndarray, ratio: np.ndarray, lam: np.ndarray, mode: str):
    """``c(lam)`` divided by its row sums, and each row's defect ``|sum - 1|``.

    The one final check of every multiplier solver: a defect above
    :data:`SIMPLEX_TOL` raises :class:`NumericError`.
    """
    coords = _coordinates(a, ratio, lam)
    mass = coords.sum(axis=1)
    defect = np.abs(mass - 1.0)
    if np.any(defect > SIMPLEX_TOL):
        raise NumericError(f"{mode}: simplex defect {defect.max():.3e} > {SIMPLEX_TOL}")
    return coords / mass[:, None], defect


def positive_centroid(s: WeightedHistogramSet) -> CentroidResult:
    """Exact Jeffreys centroid over the positive orthant.

    Separates per coordinate; each coordinate solves
    ``log(c/g) + 1 - a/c = 0``, whose root is ``a / W0(a * e / g)``.
    """
    if s.n == 1:
        return _singleton_result(s, "positive")
    a, g = _means(s)
    coords, steps = _coordinates(a, a / g, return_iterations=True)
    c = Histogram(coords)
    return CentroidResult(
        centroid=c,
        mode="positive",
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
        return _singleton_result(sf, "normalized")
    pos = positive_centroid(sf)
    w_c = pos.w_c
    c = FrequencyHistogram(pos.centroid.bins / w_c)
    return CentroidResult(
        centroid=c,
        mode="normalized",
        objective=jeffreys_to_set(c, sf),
        iterations=pos.iterations,
        w_c=w_c,
        bound_factor=1.0 / w_c,
    )


def veldhuis_centroid(s: WeightedHistogramSet) -> CentroidResult:
    """Half-sum of the normalized arithmetic and geometric means."""
    sf = s.as_frequency()
    if sf.n == 1:
        return _singleton_result(sf, "veldhuis")
    a, g = _normalized_means(*_means(sf))
    c = FrequencyHistogram(0.5 * (a + g))
    return CentroidResult(
        centroid=c,
        mode="veldhuis",
        objective=jeffreys_to_set(c, sf),
        iterations=0,
    )


def _bracket(a: np.ndarray, g: np.ndarray, ratio: np.ndarray):
    """Each row's degeneracy and the lower end of its bracket.

    ``s(0) <= 1`` up to rounding, and ``s(0) == 1`` means ``a == g`` and
    ``lam* = 0``.  A row with ``1 - s(0) <= DEGENERACY_TOL``, a threshold at
    the rounding floor of ``s`` so that merely similar inputs are still
    solved, is degenerate: its bracket is ``[0, 0]``.  Every other row has
    the bracket ``[max_i(a_i + log g_i) - 1, 0]``; ``s(lower) >= 1`` holds
    analytically there, since the coordinate that attains the max is 1.
    """
    degenerate = 1.0 - _coordinates(a, ratio).sum(axis=1) <= DEGENERACY_TOL
    lo = np.where(degenerate, 0.0, (a + np.log(g)).max(axis=1) - 1.0)
    return degenerate, lo


def batch_frequency_bisection(
    a: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Multiplier bisection for ``T`` frequency problems at once.

    ``a`` and ``g`` are ``(T, d)`` normalized arithmetic and geometric
    means, one problem per row.  Returns ``(lam, coords, halvings,
    defect)``: the multipliers, the ``(T, d)`` centroids on the simplex,
    the halvings and the simplex defects before renormalization, per row.
    The bracket ``[max_i(a_i + log g_i) - 1, 0]`` is halved
    exactly :data:`BISECTION_HALVINGS` times, which resolves the multiplier
    to the 52-bit significand of a double, and each row's simplex defect is
    then checked against :data:`SIMPLEX_TOL` (stopping on the defect alone
    could leave the coordinates under-resolved where ``s`` is flat).  A row
    with ``1 - s(0) <= DEGENERACY_TOL`` (identical members) keeps ``lam =
    0`` and 0 halvings.  A root outside the bracket (an inaccurate ``W0``)
    drives the halvings to the bracket's end, where the defect check
    raises :class:`NumericError`.  Every row shares the 54 ``W0``
    evaluations, and no row's result depends on the other rows.
    """
    ratio = a / g
    degenerate, lo = _bracket(a, g, ratio)
    hi = np.zeros(a.shape[0])
    # With every row degenerate, lo = hi = 0 and halving changes nothing.
    for _ in range(0 if degenerate.all() else BISECTION_HALVINGS):
        mid = 0.5 * (lo + hi)
        ge = _coordinates(a, ratio, mid).sum(axis=1) >= 1.0
        lo = np.where(ge, mid, lo)
        hi = np.where(ge, hi, mid)
    lam = 0.5 * (lo + hi)
    coords, defect = _on_simplex(a, ratio, lam, "bisection")
    return lam, coords, np.where(degenerate, 0, BISECTION_HALVINGS), defect


def batch_frequency_newton(
    a: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Safeguarded Newton on the multiplier for ``T`` frequency problems at once.

    Same problems and returns as :func:`batch_frequency_bisection`, with
    Newton steps in place of halvings: ``(lam, coords, steps, defect)``.
    Each row solves ``log s(lam) = 0`` from the fixed point's start
    ``lam_0 = -KL(a : g)``, clipped to the bracket ``[max_i(a_i + log g_i)
    - 1, 0]``.  The derivative ``s'(lam) = -sum_i c_i / (1 + W_i)`` reuses
    the pass's ``W0`` values, so a step costs one ``W0`` pass.  Every
    evaluation moves one end of the row's bracket by the sign of ``s - 1``,
    and a step that leaves the bracket is replaced by its midpoint.  A row
    stops once its raw Newton step, tested before that safeguard, is at
    most ``4 eps * max(1, |lam|)``; tested after it, the last ulp-sized
    steps would turn into midpoints.

    Degenerate rows keep ``lam = 0`` and 0 steps, and the final defect is
    checked as in the bisection.  A root outside the bracket (an inaccurate
    ``W0``) drives the midpoints to its end, where the raw step never
    shrinks, so a row still running after ``_NEWTON_CAP`` steps raises
    :class:`NumericError`.  No row's result depends on the other rows.
    """
    ratio = a / g
    degenerate, lo = _bracket(a, g, ratio)
    hi = np.zeros(a.shape[0])
    lam = np.clip(_kl_multiplier(a, np.log(g)), lo, hi)
    steps = np.zeros(a.shape[0], dtype=np.int64)
    active = ~degenerate
    for _ in range(_NEWTON_CAP):
        if not active.any():
            break
        w = lambert_w0_values(ratio * np.exp(lam + 1.0)[:, None])
        c = a / w
        mass = c.sum(axis=1)
        raw = np.log(mass) * mass / (c / (1.0 + w)).sum(axis=1)
        done = np.abs(raw) <= _NEWTON_STEP * np.maximum(1.0, np.abs(lam))
        above = mass >= 1.0
        lo = np.where(active & above, lam, lo)
        hi = np.where(active & ~above, lam, hi)
        nxt = lam + raw
        nxt = np.where((lo <= nxt) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        lam = np.where(active, nxt, lam)
        steps += active
        active &= ~done
    if active.any():
        raise NumericError(
            f"Newton on the multiplier did not converge within {_NEWTON_CAP} steps; "
            f"s(lam) = {float(mass[active].min())!r} on the last pass"
        )
    coords, defect = _on_simplex(a, ratio, lam, "newton")
    return lam, coords, steps, defect


def batch_frequency_fixedpoint(
    a: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multiplier fixed point for ``T`` frequency problems at once.

    ``a`` and ``g`` are ``(T, d)`` normalized means, one problem per row.
    Each row starts from the arithmetic mean (``lam_0 = -KL(a : g)``) and
    iterates

        c_l = normalize(a / W0(a * exp(lam_{l-1} + 1) / g))
        lam_l = -KL(c_l : g)

    until ``|lam_l - lam_{l-1}| <= FIXEDPOINT_TOL``; a converged row keeps
    its multiplier and its count while the others go on, for at most
    ``_FIXEDPOINT_CAP`` steps.  Returns ``(lam, iterations, converged)`` per
    row; a row that reaches the cap unconverged has ``converged`` False.

    On sparse sets the steps ``d_l = lam_l - lam_{l-1}`` alternate in sign
    and shrink slowly.  A row whose step is not converged, alternates with
    the previous one (``d_l * d_{l-1} < 0``) and keeps more than half its
    size jumps to the Aitken extrapolation ``lam_l - d_l**2 / (d_l -
    d_{l-1})`` if that is ``<= 0``; its previous step is then forgotten, so
    the next one is plain.  The convergence test reads the plain step only.
    ``iterations`` counts map evaluations, one ``W0`` pass each; a jump
    reuses values already computed.  Dense sets never jump.
    """
    ratio = a / g
    log_g = np.log(g)
    lam = _kl_multiplier(a, log_g)
    iterations = np.zeros(a.shape[0], dtype=np.int64)
    active = np.ones(a.shape[0], dtype=bool)
    # The previous plain step per row; 0 where there is none, or a jump reset it.
    prev = np.zeros(a.shape[0])
    for _ in range(_FIXEDPOINT_CAP):
        lam_next = _kl_multiplier(_simplex_coordinates(a, ratio, lam), log_g)
        delta = lam_next - lam
        iterations += active
        converged = np.abs(delta) <= FIXEDPOINT_TOL
        alternating = (delta * prev < 0.0) & (np.abs(delta) > 0.5 * np.abs(prev)) & ~converged
        # Opposite signs keep the denominator away from zero on alternating rows.
        aitken = lam_next - delta**2 / np.where(alternating, delta - prev, 1.0)
        jump = alternating & (aitken <= 0.0)
        lam = np.where(active, np.where(jump, aitken, lam_next), lam)
        prev = np.where(jump, 0.0, delta)
        active &= ~converged
        if not active.any():
            break
    return lam, iterations, ~active


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


def frequency_centroid_bisection(s: WeightedHistogramSet) -> CentroidResult:
    """Exact Jeffreys frequency centroid via bisection on the multiplier.

    Runs :func:`batch_frequency_bisection` on the set's one problem: unless
    the members are identical (``lam = 0``, 0 iterations), the multiplier
    bracket is halved :data:`BISECTION_HALVINGS` times and the final simplex
    defect is checked against :data:`SIMPLEX_TOL`.
    """
    sf = s.as_frequency()
    if sf.n == 1:
        return _singleton_result(sf, "bisection")
    a, g = _frequency_problem(sf)
    lam, coords, halvings, defect = batch_frequency_bisection(a, g)
    return _finish_frequency(sf, "bisection", lam, coords, int(halvings[0]), defect)


def frequency_centroid_fixedpoint(s: WeightedHistogramSet) -> CentroidResult:
    """Exact Jeffreys frequency centroid via fixed-point iteration on the multiplier.

    Runs :func:`batch_frequency_fixedpoint` on the set's one problem.
    Keeping the iterate on the simplex makes the map nearly flat at its
    fixed point, so dense sets converge in about five to seven iterations.
    On sparse sets the iterates alternate around the fixed point, and with
    the batched solver's Aitken jumps they take about 18 (at most 46
    measured).  ``iterations`` counts ``W0`` passes.  No contraction
    guarantee exists, so if ``_FIXEDPOINT_CAP`` map evaluations do not meet
    :data:`FIXEDPOINT_TOL` the solver finishes with
    :func:`batch_frequency_newton` on the same means and flags the result
    as a ``fallback`` instead of looping forever.
    """
    sf = s.as_frequency()
    if sf.n == 1:
        return _singleton_result(sf, "fixedpoint")
    a, g = _frequency_problem(sf)
    lam, iterations, converged = batch_frequency_fixedpoint(a, g)
    steps = int(iterations[0])
    if converged[0]:
        coords, defect = _on_simplex(a, a / g, lam, "fixedpoint")
        return _finish_frequency(sf, "fixedpoint", lam, coords, steps, defect)

    warnings.warn(
        f"fixed-point iteration did not contract within {steps} steps; "
        "finishing with the safeguarded Newton solver",
        RuntimeWarning,
        stacklevel=2,
    )
    lam, coords, _, defect = batch_frequency_newton(a, g)
    rescue = _finish_frequency(sf, "fixedpoint", lam, coords, steps, defect)
    return replace(rescue, fallback=True)
