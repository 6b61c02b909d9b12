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
solution ``lam = -KL(c : g) <= 0``; it is 0 only for identical members,
whose root is the bracket's top.

The multiplier solvers are written once, for ``T`` problems at a time:
:func:`batch_frequency_bisection`, :func:`batch_frequency_newton` and
:func:`batch_frequency_fixedpoint` take ``(T, d)`` normalized means, one
problem per row.  The bisection always makes 52 halvings.  On its own it
evaluates every one, 53 ``W0`` passes in all with the result's, and
starts each halving but the first from the previous pass's ``W``.  Given
a root estimate per row, it certifies in three passes that the root lies
in a narrow band around the estimate, decides every halving whose
midpoint is outside the band without a pass, and evaluates only the
rest, about 10.  The safeguarded Newton on ``log s(lam) = 0`` keeps the
same bracket and needs about six passes.  Their accuracy is fixed: every
solution ends in one check of its simplex defect against
:data:`SIMPLEX_TOL`.  The scalar solvers run them at ``T = 1``, without
estimates; k-means runs Newton (``frequency_exact``) on every cluster at
once, the fixed point's rescue runs Newton, and the trial harness runs
the fixed point on every trial at once and then the bisection, with the
fixed point's multipliers as its estimates.

:data:`MODES` names every centroid mode once: the scalar solvers here,
the k-means relocations of :mod:`jeffreys.clustering`, and the CLI's
``--mode`` and ``--centroid-mode`` choices all read it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .divergences import _row_sums, jeffreys_to_set
from .errors import NumericError
from .histograms import WeightedHistogramSet
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

_EPS = float(np.finfo(np.float64).eps)
#: Farther from any multiplier than the bracket's ends, ``0 >= lo >= -1 - log d``.
#: A certified halving moves ``lo`` to ``mid`` on some rows and keeps it on
#: the others as ``max(lo, mid - _FAR * keep)``, since ``lo <= mid``.
#: Unlike ``np.where``, which branches on each row's direction, and those
#: are random, it does not stall the CPU: three times as fast on 8,192 rows,
#: though twice as slow on one.
_FAR = 1e300

#: Stop the fixed-point iteration once |lam_l - lam_{l-1}| falls below this.
FIXEDPOINT_TOL = 1e-14
#: Largest simplex defect |s(lam) - 1| a solver may return; a larger one raises.
SIMPLEX_TOL = 1e-12
#: Fixed-point steps after which the solver falls back to Newton.
_FIXEDPOINT_CAP = 100
#: Newton steps after which a row still running raises.
_NEWTON_CAP = 100
#: A raw Newton step of at most ``_NEWTON_STEP * max(1, |lam|)`` ends a row's solve.
_NEWTON_STEP = 4.0 * _EPS


@dataclass(frozen=True, eq=False)
class CentroidResult:
    """A centroid plus solver diagnostics.

    ``centroid`` is a read-only ``(d,)`` float64 array, on the simplex for
    every mode but ``positive``.  ``w_c`` is the mass of the positive
    centroid when one was computed, ``bound_factor`` the ``1 / w_c``
    approximation guarantee of the normalized mode, ``lambda_star`` the
    converged simplex multiplier of the frequency solvers, and
    ``simplex_defect`` the pre-renormalization ``|sum - 1|`` of their
    output.  ``fallback`` marks a fixed-point run that was finished by the
    Newton solver after failing to contract.  ``mode`` is the solver's name
    in :data:`MODES`.
    """

    centroid: np.ndarray
    mode: str
    objective: float
    iterations: int
    w_c: float | None = None
    lambda_star: float | None = None
    bound_factor: float | None = None
    simplex_defect: float | None = None
    fallback: bool = False


def _singleton_result(s: WeightedHistogramSet, mode: str) -> CentroidResult:
    """The exact result of a one-member set: the member, without a solver.

    It sets the fields that ``mode`` sets at ``n >= 2``, with the member's
    values: its mass ``w_c`` (and ``bound_factor = 1 / w_c``), or the
    multiplier 0 and the member's own simplex defect.
    """
    member = s.matrix[0]  # a view of the read-only matrix
    mass = float(member.sum())
    diagnostics = {}
    if mode in ("positive", "normalized"):
        diagnostics["w_c"] = mass
    if mode == "normalized":
        diagnostics["bound_factor"] = 1.0 / mass
    if mode in ("bisection", "fixedpoint"):
        diagnostics.update(lambda_star=0.0, simplex_defect=abs(mass - 1.0))
    return CentroidResult(centroid=member, mode=mode, objective=0.0, iterations=0, **diagnostics)


def _objective(c: np.ndarray, s: WeightedHistogramSet, mode: str) -> float:
    """``jeffreys_to_set(c, s)``; a non-finite value raises :class:`NumericError`.

    Finite members can still overflow the weighted sum of divergences.  A
    finite objective also proves ``c`` finite and strictly positive: a NaN,
    zero, negative or infinite bin makes its term NaN or infinite.
    """
    objective = jeffreys_to_set(c, s)
    if not np.isfinite(objective):
        raise NumericError(f"{mode}: objective is not finite: {objective!r}")
    return objective


def _means(s: WeightedHistogramSet) -> tuple[np.ndarray, np.ndarray]:
    a = s.weights @ s.matrix
    g = np.exp(s.weights @ s.log_matrix)
    return a, g


def _normalized_means(a: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arithmetic and geometric means divided by their sums along the last axis."""
    return a / _row_sums(a)[..., None], g / _row_sums(g)[..., None]


def normalized_means(s: WeightedHistogramSet) -> tuple[np.ndarray, np.ndarray]:
    """Normalized weighted arithmetic and geometric means of a frequency set.

    Both means are divided by their sums, exactly as the frequency solvers
    normalize them, and returned as read-only ``(d,)`` arrays.
    """
    a, g = _normalized_means(*_means(s.as_frequency()))
    a.flags.writeable = g.flags.writeable = False
    return a, g


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
    return coords / _row_sums(coords)[..., None]


def _kl_multiplier(x: np.ndarray, log_g: np.ndarray) -> np.ndarray:
    """``-KL(x : g)`` per row, the multiplier the fixed point takes from ``x``."""
    return -_row_sums(x * (np.log(x) - log_g))


def _on_simplex(a: np.ndarray, ratio: np.ndarray, lam: np.ndarray, mode: str):
    """``c(lam)`` divided by its row sums, and each row's defect ``|sum - 1|``.

    The one final check of every multiplier solver: a defect above
    :data:`SIMPLEX_TOL`, or a NaN one, raises :class:`NumericError`.
    """
    coords = _coordinates(a, ratio, lam)
    mass = _row_sums(coords)
    defect = np.abs(mass - 1.0)
    if not np.all(defect <= SIMPLEX_TOL):
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
    c, steps = _coordinates(a, a / g, return_iterations=True)
    c.flags.writeable = False
    return CentroidResult(
        centroid=c,
        mode="positive",
        objective=_objective(c, s, "positive"),
        iterations=int(np.max(steps)),
        w_c=float(c.sum()),
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
    c = pos.centroid / w_c
    c.flags.writeable = False
    return CentroidResult(
        centroid=c,
        mode="normalized",
        objective=_objective(c, sf, "normalized"),
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
    c = 0.5 * (a + g)
    c.flags.writeable = False
    return CentroidResult(
        centroid=c,
        mode="veldhuis",
        objective=_objective(c, sf, "veldhuis"),
        iterations=0,
    )


def _bracket(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The lower end ``max_i(a_i + log g_i) - 1`` of each row's bracket; the upper end is 0.

    ``s(lower) >= 1`` holds analytically, since the coordinate that attains
    the max is 1, and ``s(0) <= 1``, with equality only where ``a == g``
    (identical members, ``lam* = 0``).  Neither end takes a ``W0`` pass.
    """
    return (a + np.log(g)).max(axis=1) - 1.0


def _halvings(a, ratio, lo, hi, count, w=None, prev=None):
    """The brackets ``[lo, hi]`` after each row's next ``count`` halvings, each one evaluated.

    A halving evaluates ``s(mid) = sum_i a_i / W0(ratio_i * e^(mid + 1))``
    in one ``W0`` pass and keeps ``[mid, hi]`` where ``s(mid) >= 1``, else
    ``[lo, mid]``.  The rows run in lockstep, and a row retires once it has
    made its count: later passes evaluate only the rows still running.  Each
    pass starts Halley from the previous pass's ``W`` moved along its
    tangent (see :func:`batch_frequency_bisection`); the first starts from
    ``w``, the ``W0`` values at ``prev``, or cold where ``w`` is None.  No
    row's result depends on the other rows.
    """
    lo_out, hi_out = lo.copy(), hi.copy()
    # The running rows' indices into the results; the other arrays hold those rows only.
    rows = np.arange(lo.size)
    # The steps after which some row retires: a set, so that a pass at
    # T = 1 pays no array test for it.
    stops = set(np.unique(count).tolist())
    guess = None
    for step in range(1, max(stops, default=0) + 1):
        mid = 0.5 * (lo + hi)
        if w is not None:
            guess = w + (mid - prev)[:, None] * w / (1.0 + w)
        w = lambert_w0_values(ratio * np.exp(mid + 1.0)[:, None], guess=guess)
        ge = _row_sums(a / w) >= 1.0
        lo = np.where(ge, mid, lo)
        hi = np.where(ge, hi, mid)
        prev = mid
        if step in stops:
            done = count == step
            retired = np.flatnonzero(done)
            lo_out[rows[retired]] = lo[retired]
            hi_out[rows[retired]] = hi[retired]
            keep = np.flatnonzero(~done)
            rows, a, ratio, lo, hi, prev, w, count = (
                x.take(keep, axis=0) for x in (rows, a, ratio, lo, hi, prev, w, count)
            )
    return lo_out, hi_out


def _certify(a, ratio, estimate, lo, hi):
    """Which rows have their root proven inside a band around ``estimate``.

    The estimate ``lam`` is clipped to the bracket ``[lo, hi]``; a NaN one
    certifies nothing.  One cold ``W0`` pass at ``lam`` gives ``W(lam)`` and
    the slope ``|s'(lam)| = sum_i c_i / (1 + W_i)``, and the band is
    ``[lam - delta, lam + delta]`` (clipped to the bracket), with ``delta =
    2 m / |s'(lam)|`` and the margin ``m = 4 (d + 8) eps``.  Two more passes,
    warm from ``W(lam)`` along its tangent, evaluate ``s`` at the band's ends.
    A row is certified where ``s(band_lo) - 1 >= m`` and ``1 - s(band_hi)
    >= m``; a NaN fails both tests.  A band clipped at the bracket top
    (``band_hi == hi``) needs no upper test, since no midpoint reaches
    ``hi``; this is what certifies a row whose root is at or next to 0.

    ``(d + 8) eps`` bounds the rounding of a computed ``s``: ``W0``'s 2 ulp,
    the rounding of ``ratio * e^(mid + 1)`` and of ``a / W``, and the
    ``d``-term sum.  ``s`` is strictly decreasing, so on a certified row
    every ``mid < band_lo`` has ``s(mid) >= 1`` and every ``mid > band_hi``
    has ``s(mid) < 1`` as computed, by a margin of at least half of ``m``:
    the evaluation that the plain bisection would make there gives the
    same decision.  The bound rests on ``W0``'s measured, not proven,
    2-ulp error.

    Returns ``(certified, band_lo, band_hi, lam, w)``: the band and the
    clipped estimate per row, and the ``(T, d)`` values ``W(lam)``.  Rows
    without an estimate are evaluated at ``lo`` and never certified.
    """
    lam = np.clip(estimate, lo, hi)
    known = ~np.isnan(lam)
    lam = np.where(known, lam, lo)
    w = lambert_w0_values(ratio * np.exp(lam + 1.0)[:, None])
    margin = 4.0 * (a.shape[1] + 8) * _EPS
    delta = 2.0 * margin / _row_sums(a / (w * (1.0 + w)))
    # fmax and fmin also map a NaN or infinite delta to the bracket's ends.
    band_lo, band_hi = np.fmax(lam - delta, lo), np.fmin(lam + delta, hi)
    tangent = w / (1.0 + w)

    def mass(end):
        guess = w + (end - lam)[:, None] * tangent
        return _row_sums(a / lambert_w0_values(ratio * np.exp(end + 1.0)[:, None], guess=guess))

    below = mass(band_lo) - 1.0 >= margin
    certified = known & below & ((band_hi == hi) | (1.0 - mass(band_hi) >= margin))
    return certified, band_lo, band_hi, lam, w


def _certified_halvings(a, ratio, lo, hi, estimate):
    """The brackets after 52 halvings, and the count evaluated per row, given root estimates.

    Rows that :func:`_certify` certifies decide every halving whose mid is
    outside their band on ``(T,)`` arrays, without a ``W0`` pass, until
    the mid first falls inside it; their remaining halvings are then
    evaluated in lockstep, warm from ``W(lam)``.  The other rows evaluate
    all 52, cold first, exactly as without an estimate.
    """
    certified, band_lo, band_hi, lam, w = _certify(a, ratio, estimate, lo, hi)
    band_lo = np.where(certified, band_lo, -np.inf)
    band_hi = np.where(certified, band_hi, np.inf)
    # A row whose mid is inside its band is frozen: its bracket, and so its
    # mid, stop moving.  Uncertified rows are frozen from the start.  lo
    # moves to mid where mid < band_lo, and hi where mid > band_hi (see _FAR).
    evaluated = np.full(a.shape[0], BISECTION_HALVINGS)
    for _ in range(BISECTION_HALVINGS):
        mid = 0.5 * (lo + hi)
        not_below, not_above = mid >= band_lo, mid <= band_hi
        frozen = not_below & not_above
        if frozen.all():
            break
        lo = np.maximum(lo, mid - _FAR * not_below)
        hi = np.minimum(hi, mid + _FAR * not_above)
        evaluated = evaluated - ~frozen
    warm = np.flatnonzero(certified & (evaluated > 0))
    if warm.size:
        # Rebinding keeps only the lockstep rows' W(lam) alive.
        w = w.take(warm, axis=0)
        lo[warm], hi[warm] = _halvings(
            a[warm], ratio[warm], lo[warm], hi[warm], evaluated[warm], w, lam[warm]
        )
    plain = np.flatnonzero(~certified)
    if plain.size:
        lo[plain], hi[plain] = _halvings(
            a[plain], ratio[plain], lo[plain], hi[plain], evaluated[plain]
        )
    return lo, hi, evaluated


def batch_frequency_bisection(
    a: np.ndarray, g: np.ndarray, estimate: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Multiplier bisection for ``T`` frequency problems at once.

    ``a`` and ``g`` are ``(T, d)`` normalized arithmetic and geometric
    means, one problem per row.  Returns ``(lam, coords, halvings, defect,
    evaluated)``: the multipliers, the ``(T, d)`` centroids on the simplex,
    the halvings, the simplex defects before renormalization and the
    halvings decided by a ``W0`` pass, per row.  On every row the bracket
    ``[max_i(a_i + log g_i) - 1, 0]`` is halved exactly
    :data:`BISECTION_HALVINGS` times, which resolves the multiplier to the
    52-bit significand of a double, and each row's simplex defect is then
    checked against :data:`SIMPLEX_TOL` (stopping on the defect alone
    could leave the coordinates under-resolved where ``s`` is flat).  A row
    of identical members, whose root is the bracket's top, ends within one
    final bracket width of 0.  A root outside the bracket (an inaccurate
    ``W0``) drives the halvings to the bracket's end, where the defect
    check raises :class:`NumericError`.  No row's result depends on the
    other rows.

    Without ``estimate`` every halving is evaluated: all rows share the 53
    ``W0`` passes (one per halving, one for the result).  Each halving
    after the first starts Halley from the previous
    pass's ``W``.  ``W`` is convex in ``t = log x`` with ``dW/dt = W / (1 +
    W)``, and consecutive midpoints move ``t`` by ``mid - prev``, so the
    tangent ``W + (mid - prev) * W / (1 + W)`` is a lower bound on the new
    root, off by ``O((mid - prev)**2)``; late halvings converge in one
    step.  The first halving and the final coordinates keep the cold
    start, so the returned centroid's ``W0`` values are those of
    :func:`_coordinates`.

    ``estimate``, one multiplier per row (NaN where there is none), lets a
    row skip the evaluations whose sign is already proven.  Three ``W0``
    passes around the estimate certify that the root lies in a band of
    width about ``16 (d + 8) eps / |s'|`` (see :func:`_certify`); every
    halving whose mid is outside the band is then decided without a pass,
    and only the rest, about 10 of the 52 on the trial harness's problems,
    are evaluated, warm from ``W`` at the estimate.  Each halving is still
    decided by the sign of ``s(mid) - 1``, so the result is the plain
    bisection's up to the rounding noise of the evaluations near the root.
    A row whose estimate is missing, far from the root or not certified
    runs the plain schedule, cold first, with 52 evaluations; so does
    every row when ``estimate`` is None.
    """
    ratio = a / g
    lo, hi = _bracket(a, g), np.zeros(a.shape[0])
    halvings = np.full(a.shape[0], BISECTION_HALVINGS)
    if estimate is None:
        lo, hi = _halvings(a, ratio, lo, hi, halvings)
        evaluated = halvings
    else:
        lo, hi, evaluated = _certified_halvings(a, ratio, lo, hi, estimate)
    lam = 0.5 * (lo + hi)
    coords, defect = _on_simplex(a, ratio, lam, "bisection")
    return lam, coords, halvings, defect, evaluated


def batch_frequency_newton(
    a: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Safeguarded Newton on the multiplier for ``T`` frequency problems at once.

    Same problems as :func:`batch_frequency_bisection`, and its first four
    returns with Newton steps in place of halvings: ``(lam, coords, steps,
    defect)``.
    Each row solves ``log s(lam) = 0`` from the fixed point's start
    ``lam_0 = -KL(a : g)``, clipped to the bracket ``[max_i(a_i + log g_i)
    - 1, 0]``.  The derivative ``s'(lam) = -sum_i c_i / (1 + W_i)`` reuses
    the pass's ``W0`` values, so a step costs one ``W0`` pass.  Every
    evaluation moves one end of the row's bracket by the sign of ``s - 1``,
    and a step that leaves the bracket is replaced by its midpoint.  A row
    stops once its raw Newton step, tested before that safeguard, is at
    most ``4 eps * max(1, |lam|)``; tested after it, the last ulp-sized
    steps would turn into midpoints.

    Every row takes at least one step; on a row of identical members the
    first raw step already meets the stop test.  The final defect is
    checked as in the bisection.  A root outside the bracket (an inaccurate
    ``W0``) drives the midpoints to its end, where the raw step never
    shrinks, so a row still running after ``_NEWTON_CAP`` steps raises
    :class:`NumericError`.  No row's result depends on the other rows.
    """
    ratio = a / g
    lo, hi = _bracket(a, g), np.zeros(a.shape[0])
    lam = np.clip(_kl_multiplier(a, np.log(g)), lo, hi)
    steps = np.zeros(a.shape[0], dtype=np.int64)
    active = np.ones(a.shape[0], dtype=bool)
    for _ in range(_NEWTON_CAP):
        if not active.any():
            break
        w = lambert_w0_values(ratio * np.exp(lam + 1.0)[:, None])
        c = a / w
        mass = _row_sums(c)
        raw = np.log(mass) * mass / _row_sums(c / (1.0 + w))
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

    until ``|lam_l - lam_{l-1}| <= FIXEDPOINT_TOL``, for at most
    ``_FIXEDPOINT_CAP`` steps.  A converged row retires: it keeps its
    multiplier and its count, and later passes evaluate only the rows still
    running, so a pass costs ``W0`` lanes for those rows alone.  Returns
    ``(lam, iterations, converged)`` per row; a row that reaches the cap
    unconverged has ``converged`` False.

    On sparse sets the steps ``d_l = lam_l - lam_{l-1}`` alternate in sign
    and shrink slowly.  A row whose step is not converged, alternates with
    the previous one (``d_l * d_{l-1} < 0``) and keeps more than half its
    size jumps to the Aitken extrapolation ``lam_l - d_l**2 / (d_l -
    d_{l-1})`` if that is ``<= 0``; its previous step is then forgotten, so
    the next one is plain.  The convergence test reads the plain step only.
    ``iterations`` counts map evaluations, one ``W0`` pass each; a jump
    reuses values already computed.  Dense sets never jump.  A multiplier
    that is not finite (only a faulty ``W0`` result makes one) raises
    :class:`NumericError`.
    """
    ratio = a / g
    log_g = np.log(g)
    lam = _kl_multiplier(a, log_g)
    # Each row's results, written when it retires or reaches the cap.
    lam_out = np.empty(a.shape[0])
    iterations = np.full(a.shape[0], _FIXEDPOINT_CAP, dtype=np.int64)
    converged_out = np.zeros(a.shape[0], dtype=bool)
    # The running rows' indices into the results; a, ratio, log_g, lam and
    # prev hold those rows only.
    rows = np.arange(a.shape[0])
    # The previous plain step per row; 0 where there is none, or a jump reset it.
    prev = np.zeros(a.shape[0])
    for step in range(1, _FIXEDPOINT_CAP + 1):
        if not rows.size:
            break
        lam_next = _kl_multiplier(_simplex_coordinates(a, ratio, lam), log_g)
        if not np.all(np.isfinite(lam_next)):
            raise NumericError(f"fixedpoint: multiplier is not finite at step {step}")
        delta = lam_next - lam
        converged = np.abs(delta) <= FIXEDPOINT_TOL
        alternating = (delta * prev < 0.0) & (np.abs(delta) > 0.5 * np.abs(prev)) & ~converged
        # Opposite signs keep the denominator away from zero on alternating rows.
        aitken = lam_next - delta**2 / np.where(alternating, delta - prev, 1.0)
        jump = alternating & (aitken <= 0.0)
        lam = np.where(jump, aitken, lam_next)
        prev = np.where(jump, 0.0, delta)
        if converged.any():
            retired = np.flatnonzero(converged)
            done = rows[retired]
            lam_out[done] = lam[retired]
            iterations[done] = step
            converged_out[done] = True
            # Rebinding frees the arrays that hold retired rows.  take() on
            # row indices copies far faster than a boolean mask on (T, d).
            keep = np.flatnonzero(~converged)
            rows, a, ratio, log_g, lam, prev = (
                x.take(keep, axis=0) for x in (rows, a, ratio, log_g, lam, prev)
            )
    lam_out[rows] = lam
    return lam_out, iterations, converged_out


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
    c = coords[0]
    c.flags.writeable = False
    return CentroidResult(
        centroid=c,
        mode=mode,
        objective=_objective(c, sf, mode),
        iterations=iterations,
        lambda_star=min(float(lam[0]), 0.0),
        simplex_defect=float(defect[0]),
    )


def frequency_centroid_bisection(s: WeightedHistogramSet) -> CentroidResult:
    """Exact Jeffreys frequency centroid via bisection on the multiplier.

    Runs :func:`batch_frequency_bisection` on the set's one problem: the
    multiplier bracket is halved :data:`BISECTION_HALVINGS` times and the
    final simplex defect is checked against :data:`SIMPLEX_TOL`.
    """
    sf = s.as_frequency()
    if sf.n == 1:
        return _singleton_result(sf, "bisection")
    a, g = _frequency_problem(sf)
    lam, coords, halvings, defect, _ = batch_frequency_bisection(a, g)
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
