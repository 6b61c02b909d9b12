"""Jeffreys centroid constructions and the registry of centroid modes.

Each public solver (:func:`positive_centroid`,
:func:`normalized_positive_centroid`, :func:`veldhuis_centroid`,
:func:`frequency_centroid_bisection`, :func:`frequency_centroid_fixedpoint`)
runs its mode's private function of raw ``(T, d)`` means, one problem per
row, at ``T = 1``; k-means relocation runs the functions that
:data:`MODES` names on every cluster at once.  The multiplier solvers
:func:`batch_frequency_bisection`, :func:`batch_frequency_newton` and
:func:`batch_frequency_fixedpoint` only estimate; :func:`_on_simplex`
finishes every frequency centroid.  ``W0``'s argument is formed by
:func:`_w0_at` alone, and a warm ``W0`` guess by :func:`_tangent` alone.
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

    ``solver`` names the mode's scalar solver in this module and
    ``builder`` the centroid function that k-means relocation runs on the
    ``(k, d)`` raw means of every cluster at once; either is ``None`` where
    the mode has no such use.  Names are looked up on this module at call
    time, so a patched attribute is the one that runs.  ``frequency`` marks
    a mode that only accepts frequency sets.
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
#: A halving, decided with or without an evaluation, moves ``lo`` to ``mid`` on some
#: rows and keeps it on the others as ``max(lo, mid - _FAR * keep)``, since ``lo <= mid``.
#: Unlike ``np.where``, which branches on each row's direction, and those
#: are random, it does not stall the CPU: three times as fast on 8,192 rows,
#: though twice as slow on one.
_FAR = 1e300

#: Longest multiplier step across which :func:`_halvings` takes ``W`` from its
#: anchor's tangent (:func:`_tangent_line`) instead of a ``W0`` pass.  ``W'' = W /
#: (1 + W)**3 <= W`` in ``t = log x`` (Corless et al., *On the Lambert W
#: function*, 1996), so the tangent is off by at most ``h**2 / 2`` relative
#: over a step ``h``: ``eps / 8`` at this bound, a quarter ulp.  With the
#: formula's half ulp, a tangent-only ``W`` adds ``5 eps / 8`` to its anchor's
#: error: against the cold ``W0`` at the new multiplier, within 4 ulp (both
#: cold values' 1.5 ulp, plus those).
_TANGENT_EXACT = 2.0**-27

#: Longest multiplier step across which :func:`_tangent` forms a warm ``W0`` guess.
#: ``W`` as a function of ``t = log x`` has ``W'' = W / (1 + W)**3 <= 4 / 27``,
#: so the tangent is off by at most ``2 * step**2 / 27``: 1.19 at this bound,
#: inside the warm region of :mod:`jeffreys.lambertw` (``0 < guess <= 2 W``,
#: ``|guess - W| <= 6``), where a guess saves Halley steps; any guess is safe.
#: It covers every warm halving of the bisection, at most ``(1 + log d) /
#: 4``, for ``d`` up to ``e**15``.
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
    centroid, ``bound_factor`` the normalized mode's ``1 / w_c``,
    ``lambda_star`` the frequency solvers' multiplier and
    ``simplex_defect`` their ``|sum - 1|`` before the final division; each
    is ``None`` where the mode does not set it.  ``fallback`` marks a
    fixed-point run that Newton finished.  ``mode`` is the solver's name in
    :data:`MODES`.
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

    It sets the fields that ``mode`` sets at ``n >= 2``, from the member.
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


def _tangent_line(w: np.ndarray, step: np.ndarray) -> np.ndarray:
    """``w + step * w / (1 + w)``: the one place the tangent of ``W`` is written.

    ``w`` holds ``(T, d)`` values of ``W0`` and ``step`` the ``(T,)``
    multiplier steps from them.  :func:`_tangent` forms warm guesses with
    it, and :func:`_halvings` the ``W`` of a step within
    :data:`_TANGENT_EXACT`, where it needs no guard.
    """
    return w + step[:, None] * w / (1.0 + w)


def _tangent(w: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The warm ``W0`` guess :func:`_tangent_line`: the one place a guess is formed.

    ``w`` holds ``(T, d)`` values ``W0`` took at some multipliers, and
    ``step`` the ``(T,)`` moves from them to the multipliers of the next
    pass.  ``W`` is convex in ``t = log x`` with ``dW/dt = W / (1 + W)``,
    and a multiplier step moves ``t`` by ``step``, so the tangent is a
    lower bound on the new root; :data:`_TANGENT_REACH` bounds its error.  A
    row whose ``|step|`` exceeds :data:`_TANGENT_REACH`, or is NaN, gets a
    NaN guess, and a NaN ``w`` gives one too:
    :func:`~jeffreys.lambertw.lambert_w0_values` starts such lanes cold,
    as it does those where the tangent is not positive.

    The slowest lane of a warm pass takes 2.07 Halley steps on average
    over the 2,346 warm passes of the estimate-free bisection (its other
    2,244 warm halvings take no pass), 2.52 in the fixed point and 2.24 in
    Newton, against 4.0 cold (the 90 ``sparse-small`` sets of
    ``bench/workloads.py`` at seed 7).
    """
    return _tangent_line(w, np.where(np.abs(step) <= _TANGENT_REACH, step, np.nan))


def _coordinates(a: np.ndarray, ratio: np.ndarray, lam=0.0) -> np.ndarray:
    """``c(lam) = a / W0(ratio * e^(lam + 1))`` row by row, with ``ratio = _ratio(a, g)``.

    ``lam`` is a scalar or one multiplier per row of ``(T, d)`` means; on
    raw means ``lam = 0`` gives the positive centroid.
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

    The one finishing pass and check of every frequency centroid.  The
    multiplier solvers only estimate, and NaN is their one "no multiplier"
    signal: a NaN in ``lam`` raises :class:`NumericError` (``<mode>: no
    multiplier on k of T rows``) before the ``W0`` pass.  A defect above
    :data:`SIMPLEX_TOL`, or a NaN one, raises it after.
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

    The mass ``s(lam) = sum_i c_i(lam)`` is strictly decreasing.
    ``s(lower) >= 1`` holds analytically, since the coordinate that attains
    the max is 1, and ``s(0) <= 1``, with equality only where ``a == g``
    (identical members, ``lam* = 0``), so the bracket holds the one root,
    ``lam* = -KL(c : g)``.  Neither end takes a ``W0`` pass.
    """
    return (a + np.log(g)).max(axis=1) - 1.0


def _halvings(a, ratio, lo, hi, count, w, prev):
    """The brackets ``[lo, hi]`` after each row's next ``count`` halvings, each one evaluated.

    A halving evaluates ``s(mid)`` and keeps ``[mid, hi]`` where ``s(mid)
    >= 1``, else ``[lo, mid]``.  The rows run in lockstep and a row retires
    after its ``count`` halvings.  Each row keeps an anchor: ``w``, the
    ``W0`` values of its last pass, and ``prev``, that pass's multiplier;
    the first is the caller's, and a row whose ``prev`` is NaN has none.  A
    halving whose ``mid`` is within :data:`_TANGENT_EXACT` of the anchor
    takes ``W`` from the anchor's tangent (:func:`_tangent_line`) without a
    ``W0`` pass.  The other rows take one warm pass (:func:`_tangent`) on
    their own lanes, cold where ``w`` is NaN, and anchor there.  ``w`` is
    written.  No row's result depends on the other rows.
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
        h = mid - prev
        near = np.abs(h) <= _TANGENT_EXACT
        # A pass where every row agrees gathers nothing: at T = 1, every pass.
        if near.all():
            x = _tangent_line(w, h)
        elif not near.any():
            w = x = _w0_at(ratio, mid, guess=_tangent(w, h))
            prev = mid
        else:
            far = np.flatnonzero(~near)
            x = _tangent_line(w, h)
            w[far] = x[far] = _w0_at(ratio[far], mid[far], guess=_tangent(w[far], h[far]))
            prev = np.where(near, prev, mid)
        ge = _row_sums(a / x) >= 1.0
        lo = np.maximum(lo, mid - _FAR * ~ge)
        hi = np.minimum(hi, mid + _FAR * ge)
    return lo_out, hi_out


def _band(a, ratio, estimate, lo, hi):
    """A band around each row's root estimate, from one cold ``W0`` pass.

    Returns ``(band_lo, band_hi, lam, w)``: per row the band and the
    estimate clipped to the bracket ``[lo, hi]``, and the ``(T, d)`` values
    ``W(lam)``, the lockstep's first anchor (:func:`_halvings`).  Only rows
    whose estimate is not NaN take the pass.  A row whose estimate is NaN,
    or is moved by the clipping by more than ``delta``, has no band:
    ``(-inf, inf)``, and a NaN ``lam`` and ``W``.

    The band is ``[lam - delta, lam + delta]`` with ``delta = 8 (d + 8) eps
    / |s'(lam)|`` and ``|s'(lam)| = sum_i c_i / (1 + W_i)`` from the pass.
    ``(d + 8) eps`` bounds the rounding of a computed ``s`` near 1.  Per
    term, relative: a ``W`` from a pass is off by ``W0``'s 3.5 eps (1.5 ulp
    cold, 2 more warm) and by the rounding of ``ratio * e^(mid + 1)``,
    ``(1.5 + max(1, log d) / 2) eps``; a tangent-only ``W``
    (:data:`_TANGENT_EXACT`) by its anchor's error and ``5 eps / 8`` more.
    ``a / W`` adds ``eps / 2`` and the ``d``-term sum ``(d - 1) eps / 2``.
    So a computed ``s`` is within ``(d / 2 + max(1, log d) / 2 + 5.625) eps
    <= (d + 5.625) eps`` of ``s``, 0.625 eps more than without the tangent,
    and the constant ``d + 8`` holds.  Where the estimate is within half
    the band of the root, ``s`` is about ``4 (d + 8) eps`` or more from 1
    at the band's ends, so every mid outside the band has the sign that an
    evaluation there would give.  Nothing here proves that: the check of
    the final bracket ends in :func:`batch_frequency_bisection` does.  A
    halving's mid never leaves the bracket, so the band needs no clipping.
    """
    lam = np.clip(estimate, lo, hi)
    rows = np.flatnonzero(~np.isnan(lam))
    # NaN rows of w make delta NaN there, and known False, without a warning.
    w = np.full(ratio.shape, np.nan)
    if rows.size:
        w[rows] = _w0_at(ratio[rows], lam[rows])
    delta = 8.0 * (a.shape[1] + 8) * _EPS / _row_sums(a / (w * (1.0 + w)))
    known = np.abs(estimate - lam) <= delta
    w[~known] = lam[~known] = np.nan
    return np.where(known, lam - delta, -np.inf), np.where(known, lam + delta, np.inf), lam, w


def batch_frequency_bisection(
    a: np.ndarray, g: np.ndarray, estimate: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Multiplier bisection for ``T`` frequency problems at once, certified by evaluations.

    ``a`` and ``g`` are ``(T, d)`` normalized means, one problem per row,
    and ``estimate`` one root estimate per row; a NaN estimate, or
    ``estimate=None`` on every row, is no estimate.  Returns ``(lam,
    evaluated)``: per row the multiplier and the number of halvings that an
    evaluation of ``s`` decided, with or without a ``W0`` pass.  Nothing
    here raises: the caller finishes
    ``c(lam)`` with :func:`_on_simplex`.  No row's result depends on the
    other rows.

    Every row halves its bracket (:func:`_bracket`) exactly
    :data:`BISECTION_HALVINGS` times, each halving decided by the sign of
    ``s(mid) - 1``, and returns the final bracket's midpoint: stopping on
    the defect alone could leave the coordinates under-resolved where
    ``s`` is flat.  A root outside the bracket (a faulty ``W0``) drives the
    halvings to an end, whose defect :func:`_on_simplex` rejects.

    A row without an estimate, or without a band (:func:`_band`),
    evaluates all 52 halvings.  A row with one decides every halving whose
    mid is outside its band by the band's side, without a pass, until a
    mid first falls inside, and evaluates the rest.  All rows then run in
    one lockstep (:func:`_halvings`), where a halving within
    :data:`_TANGENT_EXACT` of the row's last ``W0`` pass takes ``W`` from
    that pass's tangent, and the others take a warm pass.  A final bracket end
    that rests on the band alone, set without a pass and not moved since,
    is checked by one cold evaluation of ``s``, and a row where ``s(lo) <
    1`` or ``s(hi) >= 1`` is solved again without an estimate.  This check
    is the one certificate: a halving decided on the wrong side of the root
    leaves every evaluated mid on the root's far side, so no evaluation
    moves that end, and the check evaluates it.

    Guarantee: a row without a band returns the estimate-free bisection's
    ``lam`` bit for bit, and a row with one differs from it by at most
    ``max(2 final bracket widths, (d + 8) eps / |s'(lam)|)``, the rounding
    noise of the evaluations near the root (:func:`_band` derives it, for
    ``W`` from a pass or from a tangent).  On the trial harness's rows (seed
    0, fixed-point estimates) 62,340 of 100,000 differ at ``d = 2`` and
    1,660 of 10,000 at ``d = 16``, by at most 0.18 of that bound: their last
    halvings lie within the noise, where ``W`` from the band's tangent and
    from a pass can round ``s`` to different sides of 1.  Identical members,
    whose root is the bracket's top, end within one final bracket width of 0.
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

    ``a`` and ``g`` are ``(T, d)`` normalized means, one problem per row.
    Returns ``(lam, steps)`` per row, with ``lam`` NaN on a row still
    running after ``_NEWTON_CAP`` steps; only a faulty ``W0``, whose root
    lies outside the bracket, holds a row there.  Nothing here raises: the
    caller finishes ``c(lam)`` with :func:`_on_simplex`.  No row's result
    depends on the other rows.

    Each row solves ``log s(lam) = 0`` from ``lam_0 = -KL(a : g)`` clipped
    to its bracket (:func:`_bracket`).  The derivative ``s'(lam) = -sum_i
    c_i / (1 + W_i)`` reuses the pass's ``W0`` values, so a step costs one
    pass, warm after the first (:func:`_tangent`).  Every evaluation moves
    one end of the bracket by the sign of ``s - 1``, and a step that leaves
    the bracket becomes its midpoint.  A row stops, keeping its multiplier,
    once its raw step is at most :data:`_NEWTON_STEP` ``* max(1, |lam|)``;
    the test reads the step before that safeguard, which would turn the
    last ulp-sized steps into midpoints.  Every row takes at least one
    step.  Over 3,000 sparse sets (Dirichlet alpha 1e-3 to 1, ``d`` up to
    512) it took at most 7 steps and matched the bisection to 8.7e-16
    relative.
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
    Returns ``(lam, iterations)`` per row, ``iterations`` counting map
    evaluations, one ``W0`` pass each; a row still running after
    ``_FIXEDPOINT_CAP`` of them has ``lam`` NaN and the cap as its count.
    A multiplier that is not finite (only a faulty ``W0`` makes one) raises
    :class:`NumericError`; otherwise the caller finishes ``c(lam)`` with
    :func:`_on_simplex`.  No row's result depends on the other rows.

    Each row starts from the arithmetic mean, ``lam_0 = -KL(a : g)``, and
    iterates ``c_l = normalize(a / W0(a * exp(lam_{l-1} + 1) / g))``,
    ``lam_l = -KL(c_l : g)`` until ``|lam_l - lam_{l-1}| <=``
    :data:`FIXEDPOINT_TOL`; a converged row retires.  Each pass but the
    first starts warm (:func:`_tangent`).  ``lam_0`` is not clipped to the
    bracket: on sparse sets the first step can exceed 50, beyond
    :data:`_TANGENT_REACH`, and the second pass then starts cold.

    On sparse sets the steps ``d_l = lam_l - lam_{l-1}`` alternate in sign
    and shrink slowly.  A row whose unconverged step alternates with the
    previous one jumps to the Aitken extrapolation ``lam_l - d_l**2 / (d_l
    - d_{l-1})``, exact on a geometric sequence, if that is ``<= 0`` and
    the step keeps more than half its size or, from map evaluation
    :data:`_STEADY_FROM` on, the ratio ``r_l = d_l / d_{l-1}`` is steady,
    ``|r_l - r_{l-1}| <=`` :data:`_STEADY_RATIO` ``* |r_l|``.  A jump
    reuses the pass's values and forgets the previous step; the
    convergence test reads plain steps only.
    Dense sets take about five to seven evaluations and never jump; sparse
    sets about 11, at most 15 over 4,000 random sets (Dirichlet alpha 1e-3
    to 1, ``d`` up to 512) and 16 once in 50,000 with ``d`` up to 8.
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
    """One fixed-point refinement per row from the arithmetic mean, ``lam = -KL(a : g)``.

    A provably-better-than-mean update that keeps the variational k-means cheap.
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

    Runs :func:`batch_frequency_bisection` on the set's one problem, with
    the multiplier of :func:`batch_frequency_newton` as its estimate, and
    finishes it with :func:`_on_simplex`.  ``iterations`` reports the
    :data:`BISECTION_HALVINGS` halvings.  A solve takes about 7 ``W0``
    passes: Newton's, the band's, the evaluated halvings off its tangent
    (:func:`_halvings`) and the finishing pass, 6.74 on average (6 to 8)
    over the 90 ``sparse-small`` sets of ``bench/workloads.py`` at seed 7,
    against 28.1 (26 to 30) without an estimate.
    """
    return _solved(s, "bisection", _bisection)


def frequency_centroid_fixedpoint(s: WeightedHistogramSet) -> CentroidResult:
    """Exact Jeffreys frequency centroid via fixed-point iteration on the multiplier.

    Runs :func:`batch_frequency_fixedpoint` on the set's one problem;
    ``iterations`` counts its ``W0`` passes.  No contraction guarantee
    exists: where the iteration does not meet :data:`FIXEDPOINT_TOL` within
    its cap, the multiplier of :func:`batch_frequency_newton` on the same
    means finishes the centroid instead, with a ``RuntimeWarning``, and the
    result is flagged ``fallback``.  Where Newton has no multiplier either,
    :func:`_on_simplex` raises :class:`NumericError`.
    """
    return _solved(s, "fixedpoint", _fixedpoint)
