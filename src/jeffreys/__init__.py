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
    MODE_BISECTION,
    MODE_FIXEDPOINT,
    MODE_NORMALIZED,
    MODE_POSITIVE,
    MODE_VELDHUIS,
    CentroidResult,
    frequency_centroid_bisection,
    frequency_centroid_fixedpoint,
    normalized_means,
    normalized_positive_centroid,
    positive_centroid,
    veldhuis_centroid,
)
from .clustering import (
    CENTROID_MODES,
    ClusteringConfig,
    ClusteringResult,
    kmeans,
    seed_centroids,
)
from .datasets import DatasetFile, load_dataset, read_pgm, write_dataset
from .divergences import (
    cross_entropy,
    entropy,
    extended_kl,
    jeffreys,
    jeffreys_to_set,
    kl,
    kl_to_set,
)
from .errors import NumericError, ValidationError
from .histograms import (
    FrequencyHistogram,
    Histogram,
    WeightedHistogramSet,
    smooth_bins,
    weighted_arithmetic_mean,
    weighted_geometric_mean,
)
from .lambertw import LambertEval, lambert_w0, lambert_w0_values
from .oracles import (
    AlphaTrialStats,
    OracleSolution,
    alpha_trial_harness,
    oracle_frequency_centroid,
    oracle_positive_centroid,
    run_alpha_trials,
)
from .reports import RunReport

__version__ = "0.1.0"

__all__ = [
    "AlphaTrialStats",
    "BISECTION_HALVINGS",
    "CENTROID_MODES",
    "CentroidResult",
    "ClusteringConfig",
    "ClusteringResult",
    "DatasetFile",
    "FrequencyHistogram",
    "Histogram",
    "LambertEval",
    "MODE_BISECTION",
    "MODE_FIXEDPOINT",
    "MODE_NORMALIZED",
    "MODE_POSITIVE",
    "MODE_VELDHUIS",
    "NumericError",
    "OracleSolution",
    "RunReport",
    "ValidationError",
    "WeightedHistogramSet",
    "alpha_trial_harness",
    "cross_entropy",
    "entropy",
    "extended_kl",
    "frequency_centroid_bisection",
    "frequency_centroid_fixedpoint",
    "jeffreys",
    "jeffreys_to_set",
    "kl",
    "kl_to_set",
    "kmeans",
    "lambert_w0",
    "lambert_w0_values",
    "load_dataset",
    "normalized_means",
    "normalized_positive_centroid",
    "oracle_frequency_centroid",
    "oracle_positive_centroid",
    "positive_centroid",
    "read_pgm",
    "run_alpha_trials",
    "seed_centroids",
    "smooth_bins",
    "veldhuis_centroid",
    "weighted_arithmetic_mean",
    "weighted_geometric_mean",
    "write_dataset",
]
