"""Principal branch of the Lambert W function on the non-negative reals.

``W0(x)`` is the unique ``w >= 0`` with ``w * exp(w) = x`` for ``x >= 0``.
It is evaluated with Halley's root-finding iteration, which converges to
within one ulp of ``W0(x)`` in at most five steps from the initial guesses
used here:

* ``w0 = log1p(x)`` for ``x < e`` (an upper bound on ``W0``),
* ``w0 = log(x) - log(log(x))`` for ``x >= e`` (a lower bound on ``W0``).

The Halley update is evaluated in a form scaled by ``exp(-w)``,

    r = w - x * exp(-w)
    w <- w - r / ((1 + w) - r * (2 + w) / (2 * (1 + w)))

so no intermediate ever computes ``exp(w)`` on its own; the scaled residual
stays finite for every finite double input, including ``x ~ 1e300`` where
``w > 680``.  The denominator is bounded away from zero on ``w >= 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

_EPS = float(np.finfo(np.float64).eps)

# Hard cap on Halley steps.  Reaching it means the initial guess left the
# basin of attraction, which is a bug, not a data problem.
_MAX_STEPS = 10


@dataclass(frozen=True)
class LambertEval:
    """A converged ``W0`` evaluation with convergence diagnostics.

    ``residual`` is ``|value * exp(value) - x| / x`` (zero when ``x == 0``).
    The round trip amplifies the rounding of ``value`` by ``(1 + W) / W``,
    so for large ``W`` the residual cannot go below about
    ``ulp(W) / 2 * (1 + W) / W`` even for the correctly rounded double; a
    reading of about 257 eps at ``x = 1e300`` (``W ~ 684``) is expected.
    """

    value: float
    iterations: int
    residual: float


def _initial_guess(x: np.float64) -> np.float64:
    if x < math.e:
        return np.log1p(x)
    lx = np.log(x)
    return lx - np.log(lx)


def lambert_w0(x: float) -> LambertEval:
    """Evaluate ``W0(x)`` for a scalar ``x >= 0``.

    Returns the value together with the number of Halley steps taken and
    the relative defining-equation residual.  Raises ``ValidationError``
    for negative or non-finite arguments.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"lambert_w0 requires a finite argument, got {x!r}")
    if x < 0.0:
        raise ValidationError(f"lambert_w0 is only defined for x >= 0, got {x!r}")
    if x == 0.0:
        return LambertEval(value=0.0, iterations=0, residual=0.0)

    # numpy ufuncs on np.float64, not math.*, so that every step rounds
    # exactly as in lambert_w0_values and both paths return the same double.
    # A loop of its own because a one-element lambert_w0_values call costs
    # about ten times as much.
    xf = np.float64(x)
    w = _initial_guess(xf)
    for steps in range(1, _MAX_STEPS + 1):
        r = w - xf * np.exp(-w)
        step = r / ((1.0 + w) - r * (2.0 + w) / (2.0 + 2.0 * w))
        w -= step
        if abs(step) <= _EPS * (1.0 + abs(w)):
            break
    else:
        raise NumericError(f"Halley iteration did not converge for x={x!r}")

    w = float(w)
    residual = abs(w * math.exp(w) - x) / x
    return LambertEval(value=w, iterations=steps, residual=residual)


def lambert_w0_values(x, return_iterations: bool = False):
    """Evaluate ``W0`` elementwise over an array of non-negative values.

    The vectorized twin of :func:`lambert_w0`; converged lanes are frozen
    while the rest keep iterating.  With ``return_iterations=True`` also
    returns the per-element Halley step counts.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
        squeeze = True
    else:
        squeeze = False
    if not np.all(np.isfinite(arr)):
        raise ValidationError("lambert_w0 requires finite arguments")
    if np.any(arr < 0.0):
        raise ValidationError("lambert_w0 is only defined for x >= 0")

    flat = arr.reshape(-1)
    w = np.log1p(flat)
    big = flat >= math.e
    if np.any(big):
        lx = np.log(flat[big])
        w[big] = lx - np.log(lx)

    iterations = np.zeros(flat.shape, dtype=np.int64)
    active = flat > 0.0
    for _ in range(_MAX_STEPS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        wa = w[idx]
        r = wa - flat[idx] * np.exp(-wa)
        step = r / ((1.0 + wa) - r * (2.0 + wa) / (2.0 + 2.0 * wa))
        wa -= step
        w[idx] = wa
        iterations[idx] += 1
        converged = np.abs(step) <= _EPS * (1.0 + np.abs(wa))
        active[idx[converged]] = False
    if np.any(active):
        raise NumericError("Halley iteration did not converge for some entries")

    w = w.reshape(arr.shape)
    iterations = iterations.reshape(arr.shape)
    if squeeze:
        w = w[0]
        iterations = int(iterations[0])
    if return_iterations:
        return w, iterations
    return w
