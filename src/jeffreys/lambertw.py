"""Principal branch of the Lambert W function on the non-negative reals.

``W0(x)`` is the unique ``w >= 0`` with ``w * exp(w) = x`` for ``x >= 0``.
It is evaluated with Halley's root-finding iteration, which converges in
at most five steps from the initial guesses used here:

* ``w0 = log1p(x)`` for ``x < e`` (an upper bound on ``W0``),
* ``w0 = log(x) - log(log(x))`` for ``x >= e`` (a lower bound on ``W0``).

The Halley update is evaluated in a form scaled by ``exp(-w)``,

    r = w - x * exp(-w)
    w <- w - r / ((1 + w) - r * (2 + w) / (2 * (1 + w)))

so no intermediate ever computes ``exp(w)`` on its own; the scaled residual
stays finite for every finite double input, including ``x ~ 1e300`` where
``w > 680``.  The denominator is bounded away from zero on ``w >= 0``.

The result is within one ulp of ``W0(x)`` on criterion 1's grid of 10**4
points over ``[1e-300, 1e300]``, but not everywhere.  Off that grid about
one ``x`` in 400 of ``[1e-10, 0.1]`` lands more than one ulp away (515 of
2 * 10**5 log-uniform samples, at most 1.41 ulp), and 2 * 10**5 samples
of ``[1e-3, 1e-2]`` reached 1.45 ulp, at ``x = 3.8e-3``.

:func:`lambert_w0_values` is the one evaluation, for scalars and arrays
alike.  It runs each Halley step on every lane, into a few buffers
allocated once per call, and freezes a converged lane with
``np.copyto(..., where=active)``, so no lane is gathered or scattered and
a lane's value and step count do not depend on its neighbours: a 0-d call
returns the same double as that lane inside any array.

It can also start from a caller's ``guess`` per lane, as the multiplier
bisection does with its tangent extrapolation of the previous pass's
values.  A guess near the root converges in one or two steps
instead of four.  The value is then within about two ulp of ``W0(x)``
(1.96 at worst in 3 * 10**6 random lanes, for ``x`` near 1e-16, where one
step from a guess far below already passes the absolute step test).  A
lane whose guess is not finite or not positive takes the cold start above.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ValidationError

_EPS = float(np.finfo(np.float64).eps)

# Hard cap on Halley steps.  Reaching it means the initial guess left the
# basin of attraction, which is a bug, not a data problem.
_MAX_STEPS = 10


def _cold_start(arr: np.ndarray) -> np.ndarray:
    """The initial guess of the module docstring on every lane of a non-negative array."""
    # log(max(x, e)) >= 1, so neither log warns on the lanes log1p serves.
    lx = np.log(np.maximum(arr, math.e))
    return np.where(arr >= math.e, lx - np.log(lx), np.log1p(arr))


def lambert_w0_values(x, return_iterations: bool = False, *, guess=None):
    """Evaluate ``W0`` elementwise over non-negative values.

    A 0-d ``x`` (a Python or numpy scalar) gives a numpy scalar, and its
    step count as an ``int``.  Raises ``ValidationError`` for negative or
    non-finite arguments.  Every Halley step runs on every lane, writing
    into buffers of its own; a converged lane is frozen (it keeps its value
    and its step count) while the rest keep iterating.  ``x`` and ``guess`` are
    never written.  With ``return_iterations=True`` also returns the
    per-element Halley step counts, which are only counted then.

    ``guess``, broadcastable to ``x``, starts Halley from the caller's
    values instead of the cold initial guesses.  A lane whose guess is not
    finite or not ``> 0``, or whose ``x`` is 0, takes the cold start, which
    is only computed when some lane needs it.  A guess close to the root
    saves steps; the value is then within about two ulp of ``W0(x)``, see
    the module docstring.
    """
    arr = np.asarray(x, dtype=np.float64)
    squeeze = arr.ndim == 0
    if squeeze:
        arr = arr.reshape(1)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("lambert_w0 requires finite arguments")
    if np.any(arr < 0.0):
        raise ValidationError("lambert_w0 is only defined for x >= 0")

    if guess is None:
        w = _cold_start(arr)
    else:
        w = np.broadcast_to(np.asarray(guess, dtype=np.float64), arr.shape)
        cold = ~(np.isfinite(w) & (w > 0.0) & (arr > 0.0))
        # A fresh array either way: the steps write into w, never into guess.
        w = np.where(cold, _cold_start(arr), w) if cold.any() else w.copy()

    active = arr > 0.0
    iterations = np.zeros(arr.shape, dtype=np.int64) if return_iterations else None
    # Every step reuses these: the residual, the step, one scratch buffer
    # (which also holds the stepped value) and the convergence test.
    r, step, tmp = (np.empty_like(w) for _ in range(3))
    done = np.empty(arr.shape, dtype=bool)
    for _ in range(_MAX_STEPS):
        if not active.any():
            break
        # r = w - arr * exp(-w)
        np.negative(w, out=tmp)
        np.exp(tmp, out=tmp)
        np.multiply(arr, tmp, out=tmp)
        np.subtract(w, tmp, out=r)
        # step = r / ((1 + w) - r * (2 + w) / (2 + 2 w))
        np.add(w, 2.0, out=tmp)
        np.multiply(r, tmp, out=tmp)
        np.multiply(w, 2.0, out=step)
        np.add(step, 2.0, out=step)
        np.divide(tmp, step, out=tmp)
        np.add(w, 1.0, out=step)
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
        np.logical_not(done, out=done)
        np.logical_and(active, done, out=active)
    if np.any(active):
        raise NumericError("Halley iteration did not converge for some entries")

    if squeeze:
        w = w[0]
    if return_iterations:
        return w, int(iterations[0]) if squeeze else iterations
    return w
