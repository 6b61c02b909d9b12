"""Principal branch of the Lambert W function on the non-negative reals.

``W0(x)`` is the unique ``w >= 0`` with ``w * exp(w) = x``.  Halley's
iteration evaluates it from ``w0 = log1p(x)`` for ``x < e`` (an upper
bound on ``W0``) or ``w0 = log(x) - log(log(x))`` for ``x >= e`` (a lower
bound), in a form scaled by ``exp(-w)``,

    r = w - x * exp(-w)
    w <- w - r / ((1 + w) - r * (2 + w) / (2 * (1 + w)))

so no intermediate computes ``exp(w)`` on its own: the scaled residual
stays finite for every finite double, ``x ~ 1e300`` (``w > 680``)
included, and the denominator is bounded away from zero on ``w >= 0``.

The measurements behind :func:`lambert_w0_values`'s bounds:

* Cold, on criterion 1's grid of 10**4 points over ``[1e-300, 1e300]``:
  at most five steps and within one ulp; 84 values are one ulp off the
  nearest double (faithfully, not correctly, rounded).
* Cold, off that grid: 515 of 2 * 10**5 log-uniform samples of ``[1e-10,
  0.1]`` land more than one ulp away (at most 1.41), and 2 * 10**5
  samples of ``[1e-3, 1e-2]`` reached 1.45 ulp, at ``x = 3.8e-3``.
* Warm, over ``[1e-300, 1e300]`` (4 * 10**6 random lanes): every guess in
  the warm region, ``0 < guess <= 2 W0(x)`` and ``|guess - W0(x)| <= 6``,
  came within 2 ulp of the cold value, 1.96 at worst in 3 * 10**6 lanes,
  near ``x = 1e-16``, where one step from a guess far below already
  passes the step test.  It took at most 8 steps before the restart, and
  at most 9 with it (4 * 10**6 lanes drawn toward the region's edges, 1.5
  * 10**6 of them restarted).
* Any guess, over ``[0, 1.8e308]`` (7.2 * 10**6 random lanes; guesses
  the root scaled by ``e^±8``, shifted by ±1000 or off by 1e-3,
  log-uniform over ``[e^-745, e^709]`` or 1e-300 times that, or NaN,
  ±inf, 0, -1, 5e-324, 1e-300 or 1.8e308): nothing raised or warned,
  every value came within 2.0 ulp of the cold one, and the slowest lane
  took 9 steps.  Before the clamps and the restart, a guess 10.3 below
  its root could exhaust the 10 steps, a guess above ``9e15`` came back
  as itself (``x = 1.568e9`` with a guess of ``2.2e39``), one above
  ``1e155`` overflowed, and one far above at a tiny ``x`` returned 0
  (``x = 4.7e-164``, guess 1.375).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ValidationError

_EPS = float(np.finfo(np.float64).eps)

# Hard cap on Halley steps.  The cold start takes at most five, and a
# guessed lane restarts cold after _RESTART_AT, so reaching it is a bug.
_MAX_STEPS = 10
# Steps after which a lane that a guess started, still running, restarts cold.
_RESTART_AT = 5
# Above every root: W0(x) <= x, and W0 of the largest double is 703.2.
_W0_CAP = 704.0
# Above this x, a guess below the cold start, a lower bound there, is raised to
# it: 1e-300 at x = 1.7e308 overflows r * (2 + w) in the first step.
_HUGE = 1e300


def _cold_start(arr: np.ndarray) -> np.ndarray:
    """The initial guess of the module docstring on every lane of a non-negative array."""
    # log(max(x, e)) >= 1, so neither log warns on the lanes log1p serves.
    lx = np.log(np.maximum(arr, math.e))
    return np.where(arr >= math.e, lx - np.log(lx), np.log1p(arr))


def lambert_w0_values(x, return_iterations: bool = False, *, guess=None):
    """``W0`` of every lane of ``x``: a non-negative number, or an array of them.

    A 0-d ``x`` (a Python or numpy scalar) gives a numpy scalar, an array
    an array of its shape.  With ``return_iterations=True`` it also returns
    the Halley step counts, per lane or, for a 0-d ``x``, as an ``int``.
    Raises :class:`ValidationError` for a negative or non-finite ``x``, an
    ``x`` that is not a rectangular array of numbers, or a ``guess`` that is
    not numbers that broadcast to ``x``, and :class:`NumericError` where a
    lane does not converge within ``_MAX_STEPS`` steps.  ``x`` and
    ``guess`` are never written.

    Every step runs on every lane and a converged lane is frozen, so a
    lane's value and step count do not depend on the other lanes: a 0-d
    call returns the same double as that lane inside any array.  Cold, the
    value is within one ulp of ``W0(x)`` on criterion 1's grid and within
    1.5 ulp off it.  ``guess`` starts Halley from the caller's values
    instead; a lane whose guess is not finite or not ``> 0``, or whose
    ``x`` is 0, starts cold.  Any other guess is lowered to ``min(x, 704)``,
    above every root, and where ``x > 1e300`` raised to the cold start, a
    lower bound there (Hoorfar and Hassani, JIPAM 9(2), 2008); a lane still
    running after five steps restarts cold.  So every guess gives a value
    within 2 ulp of the cold one, without a warning.  The module docstring
    holds the measurements.
    """
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("lambert_w0 requires a rectangular array of numbers") from exc
    squeeze = arr.ndim == 0
    if squeeze:
        arr = arr.reshape(1)
    # One min and one max test every lane: both propagate a NaN, which fails
    # the comparisons like a negative or infinite lane.
    top = arr.max(initial=0.0)
    if arr.size and not (arr.min() >= 0.0 and top < math.inf):
        if not np.all(np.isfinite(arr)):
            raise ValidationError("lambert_w0 requires finite arguments")
        raise ValidationError("lambert_w0 is only defined for x >= 0")

    if guess is None:
        w = _cold_start(arr)
    else:
        try:
            w = np.broadcast_to(np.asarray(guess, dtype=np.float64), arr.shape)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError("lambert_w0's guess must be numbers that broadcast to x") from exc
        cold = ~(np.isfinite(w) & (w > 0.0) & (arr > 0.0))
        # A fresh array: the steps write into w, never into guess.
        w = np.minimum(w, np.minimum(arr, _W0_CAP))
        if top > _HUGE:
            np.maximum(w, _cold_start(arr), out=w, where=arr > _HUGE)
        if cold.any():
            np.copyto(w, _cold_start(arr), where=cold)

    active = arr > 0.0
    iterations = np.zeros(arr.shape, dtype=np.int64) if return_iterations else None
    # Every step reuses these: the residual, the step, two scratch buffers
    # (one of which also holds the stepped value) and the convergence test.
    r, step, tmp, twice = (np.empty_like(w) for _ in range(4))
    done = np.empty(arr.shape, dtype=bool)
    for step_index in range(_MAX_STEPS):
        if not active.any():
            break
        if step_index == _RESTART_AT and guess is not None:
            np.copyto(w, _cold_start(arr), where=active)
        # r = w - arr * exp(-w)
        np.negative(w, out=tmp)
        np.exp(tmp, out=tmp)
        np.multiply(arr, tmp, out=tmp)
        np.subtract(w, tmp, out=r)
        # step = r / ((1 + w) - r * (2 + w) / (2 (1 + w))); doubling is exact,
        # so 2 (1 + w) rounds as 2 w + 2 does.
        np.add(w, 1.0, out=step)
        np.multiply(step, 2.0, out=twice)
        np.add(w, 2.0, out=tmp)
        np.multiply(r, tmp, out=tmp)
        np.divide(tmp, twice, out=tmp)
        np.subtract(step, tmp, out=step)
        np.divide(r, step, out=step)
        np.subtract(w, step, out=tmp)
        np.copyto(w, tmp, where=active)
        if return_iterations:
            iterations += active
        # active &= ~(|step| <= eps * (1 + |w - step|)): a NaN step stays active.
        np.abs(tmp, out=tmp)
        np.add(tmp, 1.0, out=tmp)
        np.multiply(tmp, _EPS, out=tmp)
        np.abs(step, out=r)
        np.less_equal(r, tmp, out=done)
        np.greater(active, done, out=active)  # active & ~done
    if np.any(active):
        raise NumericError("Halley iteration did not converge for some entries")

    if squeeze:
        w = w[0]
    if return_iterations:
        return w, int(iterations[0]) if squeeze else iterations
    return w
