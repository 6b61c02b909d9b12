"""Guards on the public surface and on the benchmark's per-layer tracer."""

import argparse
import importlib.util
from pathlib import Path

import jeffreys
from jeffreys import cli

EXPECTED_ALL = {
    "AlphaTrialStats", "BISECTION_HALVINGS", "CentroidResult", "ClusteringConfig",
    "ClusteringResult", "DatasetFile", "FrequencyHistogram", "Histogram", "MODES",
    "NumericError", "RunReport", "ValidationError", "WeightedHistogramSet",
    "alpha_trial_harness", "frequency_centroid_bisection", "frequency_centroid_fixedpoint",
    "jeffreys", "jeffreys_to_set", "kmeans", "lambert_w0_values", "load_dataset",
    "normalized_means", "normalized_positive_centroid", "positive_centroid", "read_pgm",
    "run_alpha_trials", "seed_centroids", "smooth_bins", "veldhuis_centroid", "write_dataset",
}


def test_public_names():
    assert len(jeffreys.__all__) == len(EXPECTED_ALL)
    assert set(jeffreys.__all__) == EXPECTED_ALL
    for name in jeffreys.__all__:
        assert getattr(jeffreys, name) is not None


#: Every option string of each CLI subcommand, ``-h``/``--help`` included.
EXPECTED_OPTIONS = {
    "centroid": {"-h", "--help", "--input", "--format", "--kind", "--mode", "--output",
                 "--compare-exact"},
    "kmeans": {"-h", "--help", "--input", "--format", "--kind", "--k", "--seed",
               "--centroid-mode", "--max-iters"},
    "bench": {"-h", "--help", "--trials", "--dims", "--seed", "--threads"},
}


def test_cli_options():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {s for action in p._actions for s in action.option_strings}
        for name, p in sub.choices.items()
    }
    assert options == EXPECTED_OPTIONS


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
