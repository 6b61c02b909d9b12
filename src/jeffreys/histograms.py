"""Histogram data model: weighted sets of positive or frequency histograms.

A histogram is a vector of strictly positive bin values; a frequency
histogram additionally lives on the probability simplex (bins sum to one).
A weighted set stores its ``n`` members as one read-only ``(n, d)`` matrix,
validated as a whole, and caches the matrix's log and each row's
``sum h log h``.  A set is immutable after construction and safe to share
across threads.  Results (centroids, means) are plain read-only float64
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

#: |sum - 1| accepted as exactly normalized.
SIMPLEX_ATOL = 1e-12
#: |sum - 1| repaired by silent renormalization; anything worse is rejected.
RENORMALIZE_ATOL = 1e-6
#: Base scale of the additive smoothing applied to histograms with empty bins.
DEFAULT_EPSILON_SCALE = 1e-10


def _as_finite(values, what: str) -> np.ndarray:
    """A new C-ordered float64 copy of ``values``; ragged or non-numeric input raises."""
    try:
        arr = np.array(values, dtype=np.float64, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be a rectangular array of numbers") from exc
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} must be finite")
    return arr


def _as_bins(values, ndim: int | None = None) -> np.ndarray:
    arr = _as_finite(values, "histogram bins")
    if arr.ndim < 1 or (ndim is not None and arr.ndim != ndim):
        raise ValidationError(
            f"histogram bins must be {ndim or 'at least one'}-dimensional, got shape {arr.shape}"
        )
    if arr.size < 1:
        raise ValidationError(f"histograms need at least one bin, got shape {arr.shape}")
    return arr


def _onto_simplex(bins: np.ndarray, what: str = "frequency histogram bins") -> np.ndarray:
    """Apply the simplex rule to every histogram (or weight vector) along the last axis.

    A sum within ``SIMPLEX_ATOL`` of one is kept as is, one within
    ``RENORMALIZE_ATOL`` is renormalized (serialization rounding), and
    anything worse is rejected as genuinely unnormalized data.
    """
    total = bins.sum(axis=-1, keepdims=True)
    defect = np.abs(total - 1.0)
    if np.any(defect > RENORMALIZE_ATOL):
        worst = float(total.flat[np.argmax(defect)])
        raise ValidationError(f"{what} must sum to 1, got {worst!r}")
    return np.where(defect > SIMPLEX_ATOL, bins / total, bins)


def smooth_bins(values, epsilon_scale: float = DEFAULT_EPSILON_SCALE) -> np.ndarray:
    """Add a small epsilon to every bin of each histogram that has an empty bin.

    Works along the last axis, so ``values`` may be one histogram or an
    ``(n, d)`` matrix of them.  The epsilon is ``epsilon_scale * max(1,
    total / d)`` so it tracks the mass scale of the histogram.  Histograms
    without empty bins pass through unchanged; negative bins are rejected.
    """
    arr = _as_bins(values)
    if np.any(arr < 0.0):
        raise ValidationError("histogram bins must be non-negative")
    empty = np.any(arr == 0.0, axis=-1, keepdims=True)
    if not np.any(empty):
        return arr
    epsilon = epsilon_scale * np.maximum(1.0, arr.sum(axis=-1, keepdims=True) / arr.shape[-1])
    return np.where(empty, arr + epsilon, arr)


def _positive_bins(values) -> np.ndarray:
    arr = _as_bins(values, 2)
    if np.any(arr <= 0.0):
        raise ValidationError(
            "histogram bins must be strictly positive; smooth empty bins first "
            "(see smooth_bins)"
        )
    return arr


@dataclass(frozen=True, eq=False)
class WeightedHistogramSet:
    """``n`` histograms of common dimension ``d`` with positive weights summing to one.

    ``matrix`` holds the members as rows: a 2-D array-like, finite and
    strictly positive, stored as a read-only ``(n, d)`` copy.
    ``weights=None`` assigns uniform weights ``1/n``.  With
    ``frequency=True`` every row is validated as a simplex member: a row
    whose sum is within ``SIMPLEX_ATOL`` of one is kept, one within
    ``RENORMALIZE_ATOL`` is divided by its sum, and any other is rejected.
    """

    matrix: np.ndarray
    weights: np.ndarray | None = None
    frequency: bool = False

    def __post_init__(self):
        m = _positive_bins(self.matrix)
        if self.frequency:
            m = _onto_simplex(m)
        n = m.shape[0]
        w = _as_finite(np.full(n, 1.0 / n) if self.weights is None else self.weights, "weights")
        if w.shape != (n,):
            raise ValidationError(f"weights must have shape ({n},), got {w.shape}")
        if np.any(w <= 0.0):
            raise ValidationError("weights must be finite and strictly positive")
        w = _onto_simplex(w, "weights")
        m.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def log_matrix(self) -> np.ndarray:
        """``log(matrix)``, computed once per set."""
        out = np.log(self.matrix)
        out.flags.writeable = False
        return out

    @cached_property
    def row_xlogx(self) -> np.ndarray:
        """``sum_i h_i log h_i`` of every row, computed once per set.

        A row near the top of the double range sums to ``inf``, without a
        warning; k-means recomputes such rows elementwise.
        """
        with np.errstate(over="ignore"):
            out = (self.matrix * self.log_matrix).sum(axis=1)
        out.flags.writeable = False
        return out

    def as_frequency(self) -> "WeightedHistogramSet":
        """Return the same set with every member validated on the simplex.

        Members whose sum is within ``RENORMALIZE_ATOL`` of one are
        accepted (and renormalized); anything else raises.
        """
        if self.frequency:
            return self
        return WeightedHistogramSet(self.matrix, self.weights, frequency=True)

