"""Jeffreys-divergence centroids of histograms and Jeffreys k-means clustering.

The library computes the exact positive Jeffreys centroid in closed form
through the Lambert W function, a guaranteed normalized approximation of
the frequency centroid, the classical Veldhuis approximation, and the
exact frequency centroid through multiplier bisection or fixed-point
iteration.  On top of the solvers sits a variational Jeffreys k-means
with monotone convergence, plus dataset ingestion and a CLI.
"""

from .centroids import (
    BISECTION_HALVINGS,
    MODES,
    CentroidResult,
    frequency_centroid_bisection,
    frequency_centroid_fixedpoint,
    normalized_means,
    normalized_positive_centroid,
    positive_centroid,
    veldhuis_centroid,
)
from .clustering import ClusteringConfig, ClusteringResult, kmeans, seed_centroids
from .datasets import DatasetFile, load_dataset, read_pgm, write_dataset
from .divergences import jeffreys, jeffreys_to_set
from .errors import NumericError, ValidationError
from .histograms import FrequencyHistogram, Histogram, WeightedHistogramSet, smooth_bins
from .lambertw import lambert_w0_values
from .oracles import AlphaTrialStats, alpha_trial_harness, run_alpha_trials
from .reports import RunReport

__version__ = "0.1.0"

__all__ = [
    "AlphaTrialStats",
    "BISECTION_HALVINGS",
    "CentroidResult",
    "ClusteringConfig",
    "ClusteringResult",
    "DatasetFile",
    "FrequencyHistogram",
    "Histogram",
    "MODES",
    "NumericError",
    "RunReport",
    "ValidationError",
    "WeightedHistogramSet",
    "alpha_trial_harness",
    "frequency_centroid_bisection",
    "frequency_centroid_fixedpoint",
    "jeffreys",
    "jeffreys_to_set",
    "kmeans",
    "lambert_w0_values",
    "load_dataset",
    "normalized_means",
    "normalized_positive_centroid",
    "positive_centroid",
    "read_pgm",
    "run_alpha_trials",
    "seed_centroids",
    "smooth_bins",
    "veldhuis_centroid",
    "write_dataset",
]
