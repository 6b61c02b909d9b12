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

``W0``'s argument is formed in one place: :func:`_ratio` forms ``a / g``
and :func:`_w0_at` returns ``W0(ratio * e^(lam + 1))``, with ``lam = 0``
for the positive centroid.  The k-means relocation of
:mod:`jeffreys.clustering` and the trial harness of :mod:`jeffreys.oracles`
reach ``W0`` through them alone.

The mass function ``s(lam) = sum_i c_i(lam)`` is strictly decreasing with
``s(0) <= 1``, and the multiplier lives in
``[max_i(a_i + log g_i) - 1, 0]``, which makes bisection safe.  At the
solution ``lam = -KL(c : g) <= 0``; it is 0 only for identical members,
whose root is the bracket's top.

Each centroid mode is one private function (:func:`_positive`,
:func:`_bisection`, ...) of raw ``(T, d)`` means, one problem per row,
that returns ``(coords, iterations, fields)`` as ``(T,)`` arrays.  The
scalar API runs it at ``T = 1`` and k-means relocation on every cluster
at once, through the ``builder`` that :data:`MODES` names.

The three multiplier solvers, :func:`batch_frequency_bisection`,
:func:`batch_frequency_newton` and :func:`batch_frequency_fixedpoint`,
take ``(T, d)`` normalized means and only estimate multipliers.  Each
returns ``(lam, count)`` per row, with ``lam`` NaN on a row it has no
multiplier for: NaN is the one "no multiplier" signal.  Every centroid
is finished once, by :func:`_on_simplex`, which raises
:class:`NumericError` on a NaN multiplier and checks the simplex defect
against :data:`SIMPLEX_TOL`.  All three start each ``W0`` pass but their
first warm, from the previous pass's ``W`` moved along its tangent to
the new multiplier: :func:`_tangent` forms that guess, and a multiplier
step longer than :data:`_TANGENT_REACH` starts cold.  The bisection
always makes 52 halvings.  On its own it evaluates every one, 52 ``W0``
passes.  Given a root estimate per row, it takes one pass at the
estimate for a narrow band around it, decides every halving whose
midpoint is outside the band without a pass, and evaluates only the
rest, about 10; a row without a usable estimate has no band and
evaluates all 52.  Every row runs in one
lockstep of ``W0`` passes, and a row whose final bracket end, decided by
the band alone, fails its check is solved again without an estimate.
The safeguarded Newton on ``log s(lam) = 0`` keeps the same bracket and
needs about five passes.  The scalar bisection takes Newton's multiplier
as its estimate, about 19 passes in all on small sparse sets instead of
53; a NaN estimate is no estimate.
k-means (``frequency_exact``) runs Newton on every cluster at once, the
fixed point's rescue runs Newton, and the trial harness runs the fixed
point on every trial at once and then the bisection, with the fixed
point's multipliers as its estimates.

:data:`MODES` names every centroid mode once: the scalar solvers here,
the k-means relocations of :mod:`jeffreys.clustering`, and the CLI's
``--mode`` and ``--centroid-mode`` choices all read it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergences import _row_sums, jeffreys_to_set
from .errors import NumericError
from .histograms import WeightedHistogramSet
from .lambertw import lambert_w0_values


class Mode(NamedTuple):
    """One row of :data:`MODES`.

    ``solver`` names the scalar solver in this module and ``builder`` the
    mode's centroid function here, which k-means relocation runs on the
    ``(k, d)`` raw means of every cluster at once; the scalar solver runs
    the same function at ``T = 1``.  Either is ``None`` where the mode has
    no such use.  Names are looked up on this module at call time, so a
    patched attribute is the one that runs.  ``frequency`` marks a mode
    that only accepts frequency sets.
    """

    solver: str | None
    builder: str | None
    frequency: bool


#: Every centroid mode, by the name that results, reports and the CLI use.
MODES = {
    "positive": Mode("positive_centroid", "_positive", False),
    "normalized": Mode("normalized_positive_centroid", "_normalized", True),
    "veldhuis": Mode("veldhuis_centroid", None, True),
    "bisection": Mode("frequency_centroid_bisection", None, True),
    "fixedpoint": Mode("frequency_centroid_fixedpoint", None, True),
    "frequency_fixedpoint_1step": Mode(None, "_fixedpoint_1step", True),
    "frequency_exact": Mode(None, "_exact", True),
}

#: Number of interval halvings that resolves the multiplier bracket to the
#: 52 significand bits of an IEEE double.  The bisection always runs this
#: full schedule so the coordinates, not just the simplex defect, converge.
BISECTION_HALVINGS = 52

_EPS = float(np.finfo(np.float64).eps)
#: Farther from any multiplier than the bracket's ends, ``0 >= lo >= -1 - log d``.
#: A halving decided without a pass moves ``lo`` to ``mid`` on some rows and keeps it on
#: the others as ``max(lo, mid - _FAR * keep)``, since ``lo <= mid``.
#: Unlike ``np.where``, which branches on each row's direction, and those
#: are random, it does not stall the CPU: three times as fast on 8,192 rows,
#: though twice as slow on one.
_FAR = 1e300

#: Longest multiplier step across which :func:`_tangent` forms a warm ``W0`` guess.
#: ``W`` as a function of ``t = log x`` has ``W'' = W / (1 + W)**3 <= 4 / 27``,
#: so the tangent is off by at most ``2 * step**2 / 27``: 1.19 at this bound,
#: inside the warm region of :func:`~jeffreys.lambertw.lambert_w0_values`
#: (``0 < guess <= 2 W``, ``|guess - W| <= 6``).  It covers every warm halving
#: of the bisection, at most ``(1 + log d) / 4``, for ``d`` up to ``e**15``.
_TANGENT_REACH = 4.0

#: Stop the fixed-point iteration once |lam_l - lam_{l-1}| falls below this.
FIXEDPOINT_TOL = 1e-14
#: Largest simplex defect |s(lam) - 1| a solver may return; a larger one raises.
SIMPLEX_TOL = 1e-12
#: Fixed-point steps after which a row still running has no multiplier (NaN).
_FIXEDPOINT_CAP = 100
#: The first map evaluation at which a steady step ratio can trigger an
#: Aitken jump; earlier, dense rows that take 7-9 passes would jump too.
_STEADY_FROM = 9
#: Two step ratios are steady where they differ by at most this share of the later one.
_STEADY_RATIO = 0.05
#: Newton steps after which a row still running has no multiplier (NaN).
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


def _ratio(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``a / g``, the ratio that :func:`_w0_at` takes: the one place it is formed."""
    return a / g


def _w0_at(ratio: np.ndarray, lam=0.0, **kw):
    """``W0(ratio * e^(lam + 1))``: the one place ``W0``'s argument is formed.

    ``lam`` is a scalar or one multiplier per row of ``(T, d)`` ratios;
    ``kw`` (``guess``, ``return_iterations``) goes to
    :func:`~jeffreys.lambertw.lambert_w0_values`, which is looked up on
    this module and given ``x`` positionally, so a patched one sees every
    pass and its lanes.
    """
    return lambert_w0_values(ratio * np.exp(lam + 1.0)[..., None], **kw)


def _tangent(w: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The warm ``W0`` guess ``w + step * w / (1 + w)``: the one place it is formed.

    ``w`` holds ``(T, d)`` values ``W0`` took at some multipliers, and
    ``step`` the ``(T,)`` moves from them to the multipliers of the next
    pass.  ``W`` is convex in ``t = log x`` with ``dW/dt = W / (1 + W)``,
    and a multiplier step moves ``t`` by ``step``, so the tangent is a
    lower bound on the new root, off by at most ``2 * step**2 / 27``.  A
    row whose ``|step|`` exceeds :data:`_TANGENT_REACH`, or is NaN, gets a
    NaN guess, and a NaN ``w`` gives one too:
    :func:`~jeffreys.lambertw.lambert_w0_values` starts such lanes cold,
    as it does those where the tangent is not positive.
    """
    step = np.where(np.abs(step) <= _TANGENT_REACH, step, np.nan)
    return w + step[:, None] * w / (1.0 + w)


def _coordinates(a: np.ndarray, ratio: np.ndarray, lam=0.0) -> np.ndarray:
    """``c(lam) = a / W0(ratio * e^(lam + 1))`` row by row, with ``ratio = _ratio(a, g)``.

    ``lam`` is a scalar or one multiplier per row of ``(T, d)`` means; on
    raw means ``lam = 0`` gives the positive centroid.  ``W0``'s argument
    is formed by :func:`_w0_at` alone.
    """
    return a / _w0_at(ratio, lam)


def _simplex_coordinates(a: np.ndarray, ratio: np.ndarray, lam) -> np.ndarray:
    """``c(lam)`` divided by its row sums: the fixed point's iterate."""
    coords = _coordinates(a, ratio, lam)
    return coords / _row_sums(coords)[..., None]


def _kl_multiplier(x: np.ndarray, log_g: np.ndarray) -> np.ndarray:
    """``-KL(x : g)`` per row, the multiplier the fixed point takes from ``x``."""
    return -_row_sums(x * (np.log(x) - log_g))


def _on_simplex(a: np.ndarray, ratio: np.ndarray, lam: np.ndarray, mode: str):
    """``c(lam)`` divided by its row sums, and each row's defect ``|sum - 1|``.

    The one final check of every multiplier solver.  A NaN multiplier, the
    solvers' one "no multiplier" signal, raises :class:`NumericError`
    before the ``W0`` pass; a defect above :data:`SIMPLEX_TOL`, or a NaN
    one, raises it after.
    """
    missing = np.count_nonzero(np.isnan(lam))
    if missing:
        raise NumericError(f"{mode}: no multiplier on {missing} of {lam.size} rows")
    coords = _coordinates(a, ratio, lam)
    mass = _row_sums(coords)
    defect = np.abs(mass - 1.0)
    if not np.all(defect <= SIMPLEX_TOL):
        raise NumericError(f"{mode}: simplex defect {defect.max():.3e} > {SIMPLEX_TOL}")
    return coords / mass[:, None], defect


def _solved(s: WeightedHistogramSet, mode: str, solve) -> CentroidResult:
    """The frame of every scalar solver: the centroid function ``solve`` at ``T = 1``.

    A frequency mode of :data:`MODES` first validates ``s`` as a frequency
    set, and a one-member set is its own result (:func:`_singleton_result`).
    ``solve`` maps ``s``'s raw means, one ``(1, d)`` row each, to
    ``(coords, iterations, fields)``, the per-row diagnostics that ``mode``
    sets.  Row 0's centroid is frozen and its fields made Python scalars.
    """
    if MODES[mode].frequency:
        s = s.as_frequency()
    if s.n == 1:
        return _singleton_result(s, mode)
    a, g = _means(s)
    coords, iterations, fields = solve(a[None], g[None])
    c = coords[0]
    c.flags.writeable = False
    fields = {name: value[0].item() for name, value in fields.items()}
    return CentroidResult(
        centroid=c, mode=mode, objective=_objective(c, s, mode), iterations=iterations[0].item(),
        **fields,
    )


def _positive(a: np.ndarray, g: np.ndarray):
    """The positive centroid ``a / W0(a e / g)`` of each row of raw means, and its mass ``w_c``."""
    w, steps = _w0_at(_ratio(a, g), return_iterations=True)
    c = a / w
    return c, steps.max(axis=1), {"w_c": _row_sums(c)}


def _normalized(a: np.ndarray, g: np.ndarray):
    """The positive centroid divided by its mass ``w_c``, and ``bound_factor = 1 / w_c``."""
    c, iterations, fields = _positive(a, g)
    w_c = fields["w_c"]
    return c / w_c[:, None], iterations, {"w_c": w_c, "bound_factor": 1.0 / w_c}


def _veldhuis(a: np.ndarray, g: np.ndarray):
    a, g = _normalized_means(a, g)
    return 0.5 * (a + g), np.zeros(a.shape[0], dtype=np.int64), {}


def positive_centroid(s: WeightedHistogramSet) -> CentroidResult:
    """Exact Jeffreys centroid over the positive orthant.

    Separates per coordinate; each coordinate solves
    ``log(c/g) + 1 - a/c = 0``, whose root is ``a / W0(a * e / g)``.
    """
    return _solved(s, "positive", _positive)


def normalized_positive_centroid(s: WeightedHistogramSet) -> CentroidResult:
    """Positive centroid of a frequency set, renormalized onto the simplex.

    For frequency inputs the positive centroid's mass satisfies
    ``0 < w_c <= 1`` and the normalized centroid's objective is at most
    ``1 / w_c`` times the optimum, recorded as ``bound_factor``.
    """
    return _solved(s, "normalized", _normalized)


def veldhuis_centroid(s: WeightedHistogramSet) -> CentroidResult:
    """Half-sum of the normalized arithmetic and geometric means."""
    return _solved(s, "veldhuis", _veldhuis)


def _bracket(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The lower end ``max_i(a_i + log g_i) - 1`` of each row's bracket; the upper end is 0.

    ``s(lower) >= 1`` holds analytically, since the coordinate that attains
    the max is 1, and ``s(0) <= 1``, with equality only where ``a == g``
    (identical members, ``lam* = 0``).  Neither end takes a ``W0`` pass.
    """
    return (a + np.log(g)).max(axis=1) - 1.0


def _halvings(a, ratio, lo, hi, count, w, prev):
    """The brackets ``[lo, hi]`` after each row's next ``count`` halvings, each one evaluated.

    A halving evaluates ``s(mid) = sum_i a_i / W0(ratio_i * e^(mid + 1))``
    in one ``W0`` pass and keeps ``[mid, hi]`` where ``s(mid) >= 1``, else
    ``[lo, mid]``.  The rows run in lockstep, and a row retires at the top
    of the step after its count, so one with ``count == 0`` takes no pass:
    each pass evaluates only the rows still running.  Each pass starts
    Halley from the previous pass's ``W`` moved along its tangent
    (:func:`_tangent`); the first starts from ``w``, the ``W0`` values at
    ``prev``.  A row whose ``w`` is NaN gets a NaN guess,
    which :func:`~jeffreys.lambertw.lambert_w0_values` replaces by its cold
    start, so its first pass starts cold.  No row's result depends on the
    other rows.
    """
    lo_out, hi_out = lo.copy(), hi.copy()
    # The running rows' indices into the results; the other arrays hold those rows only.
    rows = np.arange(lo.size)
    # The steps at which some row retires: a set, so that a pass at
    # T = 1 pays no array test for it.
    stops = set(np.unique(count).tolist())
    for step in range(max(stops, default=0) + 1):
        if step in stops:
            done = count == step
            retired = np.flatnonzero(done)
            lo_out[rows[retired]] = lo[retired]
            hi_out[rows[retired]] = hi[retired]
            keep = np.flatnonzero(~done)
            rows, a, ratio, lo, hi, prev, w, count = (
                x.take(keep, axis=0) for x in (rows, a, ratio, lo, hi, prev, w, count)
            )
        if not rows.size:
            break
        mid = 0.5 * (lo + hi)
        w = _w0_at(ratio, mid, guess=_tangent(w, mid - prev))
        ge = _row_sums(a / w) >= 1.0
        lo = np.where(ge, mid, lo)
        hi = np.where(ge, hi, mid)
        prev = mid
    return lo_out, hi_out


def _band(a, ratio, estimate, lo, hi):
    """A band around each row's root estimate, from one cold ``W0`` pass.

    The estimate ``lam`` is clipped to the bracket ``[lo, hi]``.  One cold
    ``W0`` pass at ``lam`` gives ``W(lam)``, the lockstep's warm start, and
    the slope ``|s'(lam)| = sum_i c_i / (1 + W_i)``.  The band is ``[lam -
    delta, lam + delta]`` with ``delta = 8 (d + 8) eps / |s'(lam)|``; a
    halving's mid never leaves the bracket, so the band needs no clipping.
    ``(d + 8) eps`` bounds the rounding of a computed ``s``: ``W0``'s 2
    ulp, the rounding of ``ratio * e^(mid + 1)`` and of ``a / W``, and the
    ``d``-term sum.  Where the estimate is within half the band of the
    root, ``s`` is about ``4 (d + 8) eps`` or more from 1 at the band's
    ends, so every mid outside the band has the sign that an evaluation
    there would give.  Nothing here proves that: the check of the final
    bracket ends in :func:`batch_frequency_bisection` does.

    An estimate that is NaN, or that the clipping moves by more than
    ``delta`` (an infinite one, or one outside the bracket by more than
    rounding), says nothing about the root.  Its row has no band: the band
    ``(-inf, inf)`` and a NaN ``W``.

    Returns ``(band_lo, band_hi, lam, w)``: the band and the clipped
    estimate per row, and the ``(T, d)`` values ``W(lam)``.  The ``W0``
    pass evaluates only the rows whose estimate is not NaN; the others take
    no pass.
    """
    lam = np.clip(estimate, lo, hi)
    rows = np.flatnonzero(~np.isnan(lam))
    # NaN rows of w make delta NaN there, and known False, without a warning.
    w = np.full(ratio.shape, np.nan)
    if rows.size:
        w[rows] = _w0_at(ratio[rows], lam[rows])
    delta = 8.0 * (a.shape[1] + 8) * _EPS / _row_sums(a / (w * (1.0 + w)))
    known = np.abs(estimate - lam) <= delta
    w[~known] = np.nan
    return np.where(known, lam - delta, -np.inf), np.where(known, lam + delta, np.inf), lam, w


def batch_frequency_bisection(
    a: np.ndarray, g: np.ndarray, estimate: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Multiplier bisection for ``T`` frequency problems at once.

    ``a`` and ``g`` are ``(T, d)`` normalized arithmetic and geometric
    means, one problem per row.  Returns ``(lam, evaluated)``: the
    multipliers and the halvings decided by a ``W0`` pass, per row.  Like
    Newton and the fixed point it only estimates; its callers finish
    ``c(lam)`` with :func:`_on_simplex`, whose check of each row's simplex
    defect against :data:`SIMPLEX_TOL` raises :class:`NumericError`.  On
    every row the bracket ``[max_i(a_i + log g_i) - 1, 0]`` is halved
    exactly :data:`BISECTION_HALVINGS` times, which resolves the multiplier
    to the 52-bit significand of a double (stopping on the defect alone
    could leave the coordinates under-resolved where ``s`` is flat).  A row
    of identical members, whose root is the bracket's top, ends within one
    final bracket width of 0.  A root outside the bracket (an inaccurate
    ``W0``) drives the halvings to the bracket's end, whose defect the
    finishing check rejects.  No row's result depends on the other rows.

    ``estimate``, one multiplier per row, lets a row skip the evaluations
    whose sign it predicts; a NaN estimate is no estimate, and
    ``estimate=None`` means NaN on every row.  One ``W0`` pass at the
    estimates gives each row a band of width ``16 (d + 8) eps / |s'|``
    around its estimate (see :func:`_band`).  A row decides every halving
    whose mid is outside its band on ``(T,)`` arrays, without a pass, until
    the mid first falls inside; its remaining halvings, about 10 of the 52
    on the trial harness's problems, are evaluated.  A row without a band,
    whose estimate is NaN or outside the bracket, decides none without a
    pass and evaluates all 52.  Every row then runs in one lockstep of
    ``W0`` passes, each row's first pass warm from ``W`` at its estimate,
    or cold without a band: that row runs the estimate-free schedule, pass
    for pass and bit for bit, and a NaN row takes no other pass.

    Each evaluated halving after a row's first starts Halley from the
    previous pass's ``W`` moved along its tangent by ``mid - prev``
    (:func:`_tangent`), a lower bound on the new root off by at most
    ``2 (mid - prev)**2 / 27``; late halvings converge in one step.  A
    warm halving moves at most a quarter of the bracket, ``(1 + log d) /
    4``, within :data:`_TANGENT_REACH` for ``d`` up to ``e**15``.

    A final bracket end that a halving set without a pass, and that no
    evaluated halving moved since, rests on the band alone.  One cold pass
    per side evaluates ``s`` at those ends, and a row where ``s(lo) < 1``
    or ``s(hi) >= 1`` is solved again without an estimate: the
    estimate-free schedule, cold first, with 52 evaluations.  This check is
    the one certificate: a skipped halving that puts an end on the wrong
    side of the root leaves every evaluated mid on the root's far side, so
    no evaluation moves that end, and the check evaluates it.  Where the
    band holds the root, the evaluated halvings nearly always move both
    ends, and the pass is almost never taken.  Each halving is thus decided
    by the sign of ``s(mid) - 1``, so the result is the plain bisection's
    up to the rounding noise of the evaluations near the root: on about one
    row in 1,000, ``lam`` moves by at most ``max(2 final bracket widths,
    (d + 8) eps / |s'(lam)|)``, the larger where the bracket is tiny.
    """
    ratio = _ratio(a, g)
    lo, hi = _bracket(a, g), np.zeros(a.shape[0])
    estimate = np.full(a.shape[0], np.nan) if estimate is None else estimate
    band_lo, band_hi, lam, w = _band(a, ratio, estimate, lo, hi)
    start_lo, start_hi = lo, hi
    # A row whose mid is inside its band is frozen: its bracket, and so its
    # mid, stop moving.  Rows without a band are frozen from the start.  lo
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
    skipped_lo, skipped_hi = lo, hi
    lo, hi = _halvings(a, ratio, lo, hi, evaluated, w, lam)
    # Check the ends that rest on the band alone; see the docstring.
    redo = np.zeros(a.shape[0], dtype=bool)
    for end, start, skipped, contradicts in (
        (lo, start_lo, skipped_lo, np.less), (hi, start_hi, skipped_hi, np.greater_equal)
    ):
        rows = np.flatnonzero((end == skipped) & (end != start))
        if rows.size:
            mass = _row_sums(a[rows] / _w0_at(ratio[rows], end[rows]))
            redo[rows[contradicts(mass, 1.0)]] = True
    lam = 0.5 * (lo + hi)
    if redo.any():
        lam[redo], evaluated[redo] = batch_frequency_bisection(a[redo], g[redo])
    return lam, evaluated


def batch_frequency_newton(a: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton on the multiplier for ``T`` frequency problems at once.

    Same problems as :func:`batch_frequency_bisection`.  Returns ``(lam,
    steps)``, the multipliers and Newton steps per row: like the fixed point
    it only estimates, and its callers finish ``c(lam)`` (:func:`_on_simplex`).
    Each row solves ``log s(lam) = 0`` from the fixed point's start
    ``lam_0 = -KL(a : g)``, clipped to the bracket ``[max_i(a_i + log g_i)
    - 1, 0]``.  The derivative ``s'(lam) = -sum_i c_i / (1 + W_i)`` reuses
    the pass's ``W0`` values, so a step costs one ``W0`` pass.  Every
    evaluation moves one end of the row's bracket by the sign of ``s - 1``,
    and a step that leaves the bracket is replaced by its midpoint.  A row
    stops once its raw Newton step, tested before that safeguard, is at
    most ``4 eps * max(1, |lam|)``; tested after it, the last ulp-sized
    steps would turn into midpoints.  Each pass but the first starts
    Halley from the last pass's ``W`` moved along its tangent to the new
    multiplier (:func:`_tangent`); a row that has stopped keeps its
    multiplier, so its guess is its ``W`` and it takes one Halley step.

    Every row takes at least one step; on a row of identical members the
    first raw step already meets the stop test.  A root outside the
    bracket (an inaccurate ``W0``) drives the midpoints to its end, where
    the raw step never shrinks, so a row still running after
    ``_NEWTON_CAP`` steps has no multiplier: its ``lam`` is NaN, which
    :func:`_on_simplex` turns into :class:`NumericError`.  Nothing here
    raises.  No row's result depends on the other rows.
    """
    ratio = _ratio(a, g)
    lo, hi = _bracket(a, g), np.zeros(a.shape[0])
    lam = np.clip(_kl_multiplier(a, np.log(g)), lo, hi)
    steps = np.zeros(a.shape[0], dtype=np.int64)
    active = np.ones(a.shape[0], dtype=bool)
    # The last pass's W0 values and the multipliers they were taken at.
    w = lam_w = None
    for _ in range(_NEWTON_CAP):
        if not active.any():
            break
        w = _w0_at(ratio, lam, guess=None if w is None else _tangent(w, lam - lam_w))
        lam_w = lam
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
    lam[active] = np.nan
    return lam, steps


def batch_frequency_fixedpoint(a: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    ``(lam, iterations)`` per row; a row that reaches the cap unconverged
    has ``lam`` NaN and ``iterations`` equal to the cap.  Each pass but the
    first starts Halley from the last pass's ``W`` moved along its tangent
    to the new multiplier (:func:`_tangent`), and a row retires its ``W``
    with the rest of its arrays.  The start ``lam_0`` is not clipped to the
    bracket, so on sparse sets the first step can move it by more than
    50; the second pass then starts cold where the tangent would not reach.

    On sparse sets the steps ``d_l = lam_l - lam_{l-1}`` alternate in sign
    and shrink slowly, or geometrically by a steady ratio.  A row whose
    step is not converged and alternates with the previous one (``d_l *
    d_{l-1} < 0``) jumps to the Aitken extrapolation ``lam_l - d_l**2 /
    (d_l - d_{l-1})``, if that is ``<= 0``, where the step keeps more than
    half its size, or, from the 9th map evaluation on, where the ratio
    ``r_l = d_l / d_{l-1}`` is steady: ``|r_l - r_{l-1}| <= 0.05 |r_l|``.
    Aitken's extrapolation is exact on a geometric sequence.  After a jump
    the previous step is forgotten, so the next one is plain and the ratio
    needs two more plain steps.  The convergence test reads the plain step
    only.  ``iterations`` counts map evaluations, one ``W0`` pass each; a
    jump reuses values already computed.  The ratios are only formed from
    the 8th evaluation on, and dense sets, which converge in about five to
    seven, never jump.  A multiplier that is not finite (only a faulty
    ``W0`` result makes one) raises :class:`NumericError`.
    """
    ratio = _ratio(a, g)
    log_g = np.log(g)
    lam = _kl_multiplier(a, log_g)
    # Each row's results, written when it retires; NaN and the cap where it does not.
    lam_out = np.full(a.shape[0], np.nan)
    iterations = np.full(a.shape[0], _FIXEDPOINT_CAP, dtype=np.int64)
    # The running rows' indices into the results; a, ratio, log_g, lam, prev
    # and prev_rate hold those rows only.
    rows = np.arange(a.shape[0])
    # The previous plain step per row; 0 where there is none, or a jump reset it.
    prev = np.zeros(a.shape[0])
    # The previous step ratio d_{l-1} / d_{l-2} per row, from the 8th map
    # evaluation on; NaN before, and where a step had no plain predecessor.
    prev_rate = np.full(a.shape[0], np.nan)
    # The last pass's W0 values and the multipliers they were taken at.
    w = lam_w = None
    for step in range(1, _FIXEDPOINT_CAP + 1):
        if not rows.size:
            break
        w = _w0_at(ratio, lam, guess=None if w is None else _tangent(w, lam - lam_w))
        lam_w = lam
        coords = a / w
        lam_next = _kl_multiplier(coords / _row_sums(coords)[:, None], log_g)
        if not np.all(np.isfinite(lam_next)):
            raise NumericError(f"fixedpoint: multiplier is not finite at step {step}")
        delta = lam_next - lam
        converged = np.abs(delta) <= FIXEDPOINT_TOL
        # The step keeps more than half its size, or its ratio to the last one is steady.
        trigger = np.abs(delta) > 0.5 * np.abs(prev)
        if step >= _STEADY_FROM - 1:
            # Dividing by NaN, not by 0, keeps a missing ratio NaN without a warning.
            rate = delta / np.where(prev != 0.0, prev, np.nan)
            trigger |= np.abs(rate - prev_rate) <= _STEADY_RATIO * np.abs(rate)
            prev_rate = rate
        alternating = (delta * prev < 0.0) & trigger & ~converged
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
            # Rebinding frees the arrays that hold retired rows.  take() on
            # row indices copies far faster than a boolean mask on (T, d).
            keep = np.flatnonzero(~converged)
            rows, a, ratio, log_g, lam, prev, prev_rate, w, lam_w = (
                x.take(keep, axis=0)
                for x in (rows, a, ratio, log_g, lam, prev, prev_rate, w, lam_w)
            )
    return lam_out, iterations


def _bisection(a: np.ndarray, g: np.ndarray):
    a, g = _normalized_means(a, g)
    lam, _ = batch_frequency_bisection(a, g, batch_frequency_newton(a, g)[0])
    coords, defect = _on_simplex(a, _ratio(a, g), lam, "bisection")
    halvings = np.full(a.shape[0], BISECTION_HALVINGS)
    return coords, halvings, {"lambda_star": np.minimum(lam, 0.0), "simplex_defect": defect}


def _fixedpoint(a: np.ndarray, g: np.ndarray):
    a, g = _normalized_means(a, g)
    lam, iterations = batch_frequency_fixedpoint(a, g)
    fallback = np.isnan(lam)
    if fallback.any():
        warnings.warn(
            f"fixed-point iteration did not contract within {_FIXEDPOINT_CAP} steps; "
            "finishing with the safeguarded Newton solver",
            RuntimeWarning,
            stacklevel=4,  # the caller of frequency_centroid_fixedpoint, past _solved
        )
        lam[fallback] = batch_frequency_newton(a[fallback], g[fallback])[0]
    coords, defect = _on_simplex(a, _ratio(a, g), lam, "fixedpoint")
    fields = {"lambda_star": np.minimum(lam, 0.0), "simplex_defect": defect, "fallback": fallback}
    return coords, iterations, fields


def _fixedpoint_1step(a: np.ndarray, g: np.ndarray):
    """One fixed-point refinement per row, started from the arithmetic mean.

    Its multiplier is ``lam = -KL(a : g)`` of the normalized means: a
    provably-better-than-mean update that keeps the variational k-means
    cheap.
    """
    a, g = _normalized_means(a, g)
    lam = _kl_multiplier(a, np.log(g))
    return _simplex_coordinates(a, _ratio(a, g), lam), np.ones(a.shape[0], dtype=np.int64), {}


def _exact(a: np.ndarray, g: np.ndarray):
    """The exact frequency centroid of each row: Newton's multiplier, finished once."""
    a, g = _normalized_means(a, g)
    lam, steps = batch_frequency_newton(a, g)
    return _on_simplex(a, _ratio(a, g), lam, "frequency_exact")[0], steps, {}


def frequency_centroid_bisection(s: WeightedHistogramSet) -> CentroidResult:
    """Exact Jeffreys frequency centroid via bisection on the multiplier.

    Runs :func:`batch_frequency_bisection` on the set's one problem: the
    multiplier bracket is halved :data:`BISECTION_HALVINGS` times and the
    final simplex defect is checked against :data:`SIMPLEX_TOL`.  The
    multiplier of :func:`batch_frequency_newton` is its root estimate, so
    only the halvings near the root take a ``W0`` pass, about 19 in all on
    small sparse sets; where Newton has no multiplier (NaN), every halving
    does, bit for bit as without an estimate.  ``iterations`` reports the
    52 halvings either way.
    """
    return _solved(s, "bisection", _bisection)


def frequency_centroid_fixedpoint(s: WeightedHistogramSet) -> CentroidResult:
    """Exact Jeffreys frequency centroid via fixed-point iteration on the multiplier.

    Runs :func:`batch_frequency_fixedpoint` on the set's one problem.
    Keeping the iterate on the simplex makes the map nearly flat at its
    fixed point, so dense sets converge in about five to seven iterations.
    On sparse sets the iterates alternate around the fixed point, and with
    the batched solver's Aitken jumps they take about 11 (at most 15 over
    4,000 random sets with ``d`` up to 512; 16 once in 50,000 with ``d``
    up to 8).  ``iterations`` counts ``W0`` passes.  No contraction
    guarantee exists, so if ``_FIXEDPOINT_CAP`` map evaluations do not meet
    :data:`FIXEDPOINT_TOL` the solver finishes the multiplier of
    :func:`batch_frequency_newton` on the same means instead, and flags the
    result as a ``fallback`` instead of looping forever.  Where Newton has
    no multiplier either, :func:`_on_simplex` raises :class:`NumericError`.
    """
    return _solved(s, "fixedpoint", _fixedpoint)
