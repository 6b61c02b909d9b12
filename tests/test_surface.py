"""Guards on the public surface and on the benchmark's per-layer tracer."""

import importlib.util
from pathlib import Path

import jeffreys

EXPECTED_ALL = {
    "AlphaTrialStats", "BISECTION_HALVINGS", "CentroidResult", "ClusteringConfig",
    "ClusteringResult", "DatasetFile", "FrequencyHistogram", "Histogram", "LambertEval",
    "MODES", "NumericError", "OracleSolution", "RunReport", "ValidationError",
    "WeightedHistogramSet", "alpha_trial_harness", "cross_entropy", "entropy",
    "extended_kl", "frequency_centroid_bisection", "frequency_centroid_fixedpoint",
    "jeffreys", "jeffreys_to_set", "kl", "kl_to_set", "kmeans", "lambert_w0",
    "lambert_w0_values", "load_dataset", "normalized_means", "normalized_positive_centroid",
    "oracle_frequency_centroid", "oracle_positive_centroid", "positive_centroid",
    "read_pgm", "run_alpha_trials", "seed_centroids", "smooth_bins", "veldhuis_centroid",
    "write_dataset",
}


def test_public_names():
    assert len(jeffreys.__all__) == len(EXPECTED_ALL)
    assert set(jeffreys.__all__) == EXPECTED_ALL
    for name in jeffreys.__all__:
        assert getattr(jeffreys, name) is not None


def _spans():
    # bench/ is not a package; load its tracer straight from the file.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_and_restores_it():
    spans = _spans()
    originals = {}
    for _, sites in spans.FUNCTIONS:
        for short, attr in sites:
            module = importlib.import_module(f"jeffreys.{short}")
            if attr in vars(module):
                originals[module, attr] = vars(module)[attr]
    for _, cls_name, attr in spans.METHODS:
        cls = getattr(jeffreys.histograms, cls_name)
        originals[cls, attr] = vars(cls)[attr]

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == [spans.MATRIX]
        assert all(vars(owner)[attr] is not fn for (owner, attr), fn in originals.items())
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())
