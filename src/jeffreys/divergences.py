"""Kullback-Leibler style divergences between histograms.

All values are in nats.  The extended KL divergence handles unnormalized
positive histograms; on frequency histograms it reduces to the usual KL.
The Jeffreys divergence is the symmetrized sum ``KL(p:q) + KL(q:p)`` and
holds for arbitrary positive histograms.
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


def _xlog_ratio(p: np.ndarray, q: np.ndarray) -> float:
    # sum p*log(p/q) with the 0*log(0) = 0 convention; protects callers that
    # bypass smoothing.  numpy sums pairwise, which keeps the tiny
    # differences near an optimum stable for large d.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * (np.log(p) - np.log(q)), 0.0)
    return float(terms.sum())


def extended_kl(p, q) -> float:
    """Extended KL divergence ``sum p*log(p/q) + q - p`` for positive histograms."""
    pb, qb = _pair(p, q)
    return _xlog_ratio(pb, qb) + float((qb - pb).sum())


def kl(p, q) -> float:
    """KL divergence ``sum p*log(p/q)`` between frequency histograms."""
    pb, qb = _pair(p, q)
    return _xlog_ratio(pb, qb)


def entropy(p) -> float:
    """Shannon entropy ``sum p*log(1/p)`` of a frequency histogram."""
    pb = _bins(p)
    return -_xlog_ratio(pb, np.ones_like(pb))


def cross_entropy(p, q) -> float:
    """Cross-entropy ``sum p*log(1/q)`` between frequency histograms."""
    pb, qb = _pair(p, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pb > 0.0, -pb * np.log(qb), 0.0)
    return float(terms.sum())


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
        terms = (m - xb) * (s.log_matrix - np.log(xb))
        return float(s.weights @ terms.sum(axis=1))


def kl_to_set(x, s: WeightedHistogramSet) -> float:
    """Weighted average KL divergence ``sum_j pi_j KL(x : h_j)`` over a frequency set."""
    xb = _bins(x)
    m = s.matrix
    if xb.shape != (m.shape[1],):
        raise ValidationError(f"dimension mismatch: {xb.shape} vs d={m.shape[1]}")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(xb > 0.0, xb * (np.log(xb) - s.log_matrix), 0.0)
    return float(s.weights @ terms.sum(axis=1))
