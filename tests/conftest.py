"""Shared generators and references for randomized tests."""

from decimal import Decimal

import numpy as np
import pytest

from jeffreys import WeightedHistogramSet


def random_frequency_set(rng, n=None, d=None, random_weights=True):
    """A random frequency set with bins bounded away from zero."""
    n = int(rng.integers(2, 6)) if n is None else n
    d = int(rng.integers(2, 9)) if d is None else d
    rows = rng.uniform(0.01, 1.0, size=(n, d))
    rows /= rows.sum(axis=1, keepdims=True)
    if random_weights:
        weights = rng.uniform(0.2, 1.0, size=n)
        weights /= weights.sum()
    else:
        weights = np.full(n, 1.0 / n)
    return WeightedHistogramSet(rows, weights, frequency=True)


def random_positive_set(rng, n=None, d=None):
    n = int(rng.integers(2, 6)) if n is None else n
    d = int(rng.integers(2, 9)) if d is None else d
    rows = rng.uniform(0.01, 2.0, size=(n, d))
    weights = rng.uniform(0.2, 1.0, size=n)
    weights /= weights.sum()
    return WeightedHistogramSet(rows, weights)


def planted_blobs(rng, n=200, d=16, noise=0.05):
    """Two well-separated frequency blobs; returns (rows, labels).

    Members concentrate on opposite halves of the bins, so the divergence
    between blobs dwarfs the one within a blob.
    """
    half = d // 2
    bases = (
        np.concatenate([np.full(half, 1.0), np.full(d - half, 0.01)]),
        np.concatenate([np.full(half, 0.01), np.full(d - half, 1.0)]),
    )
    rows = np.empty((n, d))
    labels = np.empty(n, dtype=int)
    for j in range(n):
        labels[j] = 0 if j < n // 2 else 1
        noisy = bases[labels[j]] * np.exp(rng.normal(0.0, noise, size=d))
        rows[j] = noisy / noisy.sum()
    return rows, labels


def w0_reference(x, w):
    """``W0(x)`` to 60 digits: two Newton steps on ``w + ln w = ln x`` from ``w``.

    Started from a double within a few ulps of ``W0(x)``, each step squares
    the relative error, so two steps reach the 60-digit working precision.
    The caller sets the decimal context.
    """
    ln_x = Decimal(x).ln()
    r = Decimal(w)
    ln_r = r.ln()
    for _ in range(2):
        nxt = r * (1 + ln_x - ln_r) / (1 + r)
        ln_r += (nxt / r).ln()  # the log of a ratio near 1 is cheap
        r = nxt
    return r


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
