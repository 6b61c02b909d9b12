"""The Jeffreys divergence between positive histograms, in nats.

``J(p, q) = KL(p : q) + KL(q : p) = sum (p - q) * log(p / q)``.
:func:`jeffreys_rows` is the one kernel of that sum over many rows, and
:func:`_row_sums` the row sum of it, of the batched solvers and of the
trial harness.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .histograms import WeightedHistogramSet


def _row_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)``, bitwise, without numpy's per-row loop on narrow rows.

    numpy reduces each row of the last axis with its own inner-loop call,
    which dominates the sum when rows are short: on ``(8192, 2)`` it is
    about ten times slower than adding the columns.  Below 8 bins numpy
    adds a row left to right from ``+0.0``, so adding one column at a time
    from ``+0.0`` gives the same bits, signed zeros, overflow and NaNs
    included; from 8 bins on numpy sums pairwise, and this calls it.
    """
    d = x.shape[-1]
    if not 0 < d < 8:
        return x.sum(axis=-1)
    total = x[..., 0] + 0.0
    for i in range(1, d):
        total += x[..., i]
    return total


def jeffreys_rows(h, log_h, c, log_c) -> np.ndarray:
    """``sum (h - c) * (log h - log c)`` over the last axis of broadcastable arrays.

    Callers pass the logarithms they already hold.  Finite terms whose sum
    exceeds the double range give ``inf``, without a warning.  The sum is
    :func:`_row_sums`.
    """
    with np.errstate(over="ignore"):
        # Rebinding c frees a gather made only for this call (on CPython 3.11+)
        # before the next temporary: k-means keeps three row-sized arrays live.
        c = h - c
        c *= log_h - log_c
        return _row_sums(c)


def jeffreys_to_set(x, s: WeightedHistogramSet) -> float:
    """Weighted average Jeffreys divergence from ``x`` to every member of ``s``.

    An ``x`` that is not ``d`` numbers raises :class:`ValidationError`.
    """
    try:
        xb = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("jeffreys_to_set requires a rectangular array of numbers") from exc
    m = s.matrix
    if xb.shape != (m.shape[1],):
        raise ValidationError(f"dimension mismatch: {xb.shape} vs d={m.shape[1]}")
    # Members are strictly positive, so no term needs the 0*log(0) guard.
    # A zero bin in x or finite terms whose sum exceeds the double range give
    # inf; the centroid solvers turn that into a NumericError.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return float(s.weights @ jeffreys_rows(m, s.log_matrix, xb, np.log(xb)))
