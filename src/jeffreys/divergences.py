"""The Jeffreys divergence between positive histograms.

All values are in nats.  The Jeffreys divergence is the symmetrized
Kullback-Leibler sum ``KL(p:q) + KL(q:p) = sum (p - q) * log(p/q)`` and
holds for arbitrary positive histograms.  :func:`jeffreys_rows` is the one
kernel of that sum over many rows; the set objective, k-means and the trial
harness all call it.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .histograms import Histogram, WeightedHistogramSet


def _bins(h) -> np.ndarray:
    if isinstance(h, Histogram):
        return h.bins
    return np.asarray(h, dtype=np.float64)


def _pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    pb, qb = _bins(p), _bins(q)
    if pb.shape != qb.shape:
        raise ValidationError(f"dimension mismatch: {pb.shape} vs {qb.shape}")
    return pb, qb


def jeffreys_rows(h, log_h, c, log_c) -> np.ndarray:
    """``sum (h - c) * (log h - log c)`` over the last axis of broadcastable arrays.

    Callers pass the logarithms they already hold.  Finite terms whose sum
    exceeds the double range give ``inf``, without a warning.
    """
    with np.errstate(over="ignore"):
        # Rebinding c frees a gather made only for this call (on CPython 3.11+)
        # before the next temporary: k-means keeps three row-sized arrays live.
        c = h - c
        c *= log_h - log_c
        return c.sum(axis=-1)


def jeffreys(p, q) -> float:
    """Jeffreys divergence ``sum (p - q) * log(p/q)``; symmetric in p and q.

    Each term is a product of same-sign factors, so the computed sum is
    non-negative exactly, not just up to rounding.
    """
    pb, qb = _pair(p, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where((pb > 0.0) | (qb > 0.0), (pb - qb) * (np.log(pb) - np.log(qb)), 0.0)
    return float(terms.sum())


def jeffreys_to_set(x, s: WeightedHistogramSet) -> float:
    """Weighted average Jeffreys divergence from ``x`` to every member of ``s``."""
    xb = _bins(x)
    m = s.matrix
    if xb.shape != (m.shape[1],):
        raise ValidationError(f"dimension mismatch: {xb.shape} vs d={m.shape[1]}")
    # Members are strictly positive, so no term needs the 0*log(0) guard.
    # A zero bin in x or finite terms whose sum exceeds the double range give
    # inf; the centroid solvers turn that into a NumericError.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return float(s.weights @ jeffreys_rows(m, s.log_matrix, xb, np.log(xb)))
