"""Guards on the public surface and on the benchmark's per-layer tracer."""

import argparse
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

import jeffreys
from jeffreys import centroids, cli, clustering, oracles
from references import normalized_means

EXPECTED_ALL = {
    "BISECTION_HALVINGS", "CentroidResult", "ClusteringConfig",
    "ClusteringResult", "DatasetFile", "MODES", "NumericError", "ValidationError",
    "WeightedHistogramSet",
    "frequency_centroid_bisection", "frequency_centroid_fixedpoint",
    "jeffreys_to_set", "kmeans", "lambert_w0_values", "load_dataset",
    "normalized_positive_centroid", "positive_centroid", "read_pgm",
    "run_alpha_trials", "seed_centroids", "smooth_bins", "veldhuis_centroid",
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
        cls = getattr(jeffreys.histograms, cls_name, None)
        if cls is not None:
            originals[cls, attr] = vars(cls)[attr]

    tracer = spans.Tracer()
    tracer.install()
    try:
        # The row types are gone: results are read-only arrays.  The CLI
        # calls oracles.run_alpha_trials directly; no harness wraps it.
        # k-means runs the one-step update of centroids, which has no span.
        assert tracer.absent == [
            "clustering._one_step_frequency_update",
            "oracles.alpha_trial_harness",
            spans.ROW,
            "histograms.FrequencyHistogram.__post_init__",
            spans.MATRIX,
        ]
        assert all(vars(owner)[attr] is not fn for (owner, attr), fn in originals.items())
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())


def test_tracer_reads_a_traced_cli_run(tmp_path):
    # The traced benchmark reads DatasetFile.histograms, CentroidResult.iterations
    # and the ClusteringResult fields; a change that drops one fails here too.
    path = tmp_path / "pair.csv"
    path.write_text("0.5,0.5\n0.9,0.1\n")
    io_flags = ["--input", str(path), "--format", "csv", "--kind", "frequency"]
    tracer = _spans().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in (
                ["centroid", *io_flags, "--mode", "bisection"],
                ["centroid", *io_flags, "--mode", "fixedpoint"],
                ["kmeans", *io_flags, "--k", "1"],
            ):
                assert cli.main(argv) == 0
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    assert metrics["datasets.rows"] > 0
    assert metrics["centroids.bisection.calls"] == 1
    assert metrics["centroids.fixedpoint.calls"] == 1
    assert metrics["clustering.rounds"] >= 1


def test_w0_argument_is_formed_in_one_place(monkeypatch):
    # centroids._w0_at alone calls W0, on ratio * e^(lam + 1) with the ratio
    # from centroids._ratio; k-means and the trial harness reach W0 only
    # through centroids, so an overflow of either form has one place to mend.
    assert "lambert_w0_values" not in vars(clustering)
    assert "lambert_w0_values" not in vars(oracles)
    real = centroids.lambert_w0_values
    callers = []

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(centroids, "lambert_w0_values", spy)
    rows = np.random.default_rng(3).uniform(0.05, 1.0, size=(12, 6))
    s = jeffreys.WeightedHistogramSet(rows / rows.sum(axis=1, keepdims=True), frequency=True)

    def callers_of(fn, *args, **kwargs):
        start = len(callers)
        fn(*args, **kwargs)
        return set(callers[start:])

    for name, mode in centroids.MODES.items():
        if mode.solver:
            seen = callers_of(getattr(centroids, mode.solver), s)
            assert seen == (set() if name == "veldhuis" else {"_w0_at"}), name
        if mode.builder:
            config = jeffreys.ClusteringConfig(k=3, centroid_mode=name, seed=0)
            assert callers_of(jeffreys.kmeans, s, config) == {"_w0_at"}, name
    assert callers_of(jeffreys.run_alpha_trials, 200, 3, seed=1) == {"_w0_at"}


def test_w0_guess_is_formed_in_one_place(monkeypatch):
    # Every warm start that reaches W0 is centroids._tangent's guess, handed
    # over untouched, so its reach, which keeps each guess inside W0's warm
    # region, has one place to hold for the bisection, Newton and the fixed point.
    real_tangent, real_w0 = centroids._tangent, centroids.lambert_w0_values
    formed, taken = [], []

    def tangent(*args):
        formed.append(real_tangent(*args))
        return formed[-1]

    def spy(*args, **kwargs):
        if kwargs.get("guess") is not None:
            taken.append(kwargs["guess"])
        return real_w0(*args, **kwargs)

    monkeypatch.setattr(centroids, "_tangent", tangent)
    monkeypatch.setattr(centroids, "lambert_w0_values", spy)
    rng = np.random.default_rng(5)
    sparse = jeffreys.WeightedHistogramSet(
        jeffreys.smooth_bins(rng.dirichlet(np.full(32, 0.02), size=4)), frequency=True
    )
    for name, mode in centroids.MODES.items():
        if mode.solver:
            getattr(centroids, mode.solver)(sparse)
        if mode.builder:
            jeffreys.kmeans(sparse, jeffreys.ClusteringConfig(k=2, centroid_mode=name, seed=0))
    jeffreys.run_alpha_trials(200, 3, seed=1)
    assert taken and len(taken) == len(formed) and all(t is f for t, f in zip(taken, formed))


def test_centroid_maths_exists_once(monkeypatch):
    # Each mode's centroid function is written once, in centroids: k-means
    # relocation runs the one that the scalar API runs, named by MODES.
    for name in ("_coordinates", "_simplex_coordinates", "_kl_multiplier",
                 "_normalized_means", "_on_simplex", "batch_frequency_newton"):
        assert name not in vars(clustering), name
    for mode in centroids.MODES.values():
        assert mode.builder is None or callable(getattr(centroids, mode.builder))
    real = centroids._positive
    rows_seen = []

    def spy(a, g):
        rows_seen.append(a.shape[0])
        return real(a, g)

    monkeypatch.setattr(centroids, "_positive", spy)
    rows = np.random.default_rng(3).uniform(0.05, 1.0, size=(12, 6))
    s = jeffreys.WeightedHistogramSet(rows)
    jeffreys.positive_centroid(s)
    assert rows_seen == [1]
    result = jeffreys.kmeans(s, jeffreys.ClusteringConfig(k=3, centroid_mode="positive", seed=0))
    assert len(rows_seen) == 1 + result.iterations
    assert all(1 <= k <= 3 for k in rows_seen[1:])


def test_each_frequency_centroid_is_finished_once(monkeypatch):
    # The three multiplier solvers only estimate; every scalar mode, the
    # trial harness and k-means finish c(lam) with one _on_simplex pass, the
    # fixed point's Newton rescue included.
    real = centroids._on_simplex
    labels = []

    def spy(*args):
        labels.append(args[3])
        return real(*args)

    monkeypatch.setattr(centroids, "_on_simplex", spy)
    # The harness binds the name itself; if it stops, the spy on centroids sees it.
    monkeypatch.setattr(oracles, "_on_simplex", spy, raising=False)
    rows = np.random.default_rng(3).uniform(0.05, 1.0, size=(12, 6))
    s = jeffreys.WeightedHistogramSet(rows / rows.sum(axis=1, keepdims=True), frequency=True)
    a, g = normalized_means(s)
    centroids.batch_frequency_newton(a[None], g[None])
    centroids.batch_frequency_fixedpoint(a[None], g[None])
    centroids.batch_frequency_bisection(a[None], g[None])
    assert labels == []
    # 25 trials of 3 bins, 10 rows per block: three blocks.
    monkeypatch.setattr(oracles, "_BLOCK_ELEMENTS", 30)
    jeffreys.run_alpha_trials(25, 3, seed=1)
    assert labels == ["bisection"] * 3
    labels.clear()
    config = jeffreys.ClusteringConfig(k=3, centroid_mode="frequency_exact", seed=0)
    rounds = jeffreys.kmeans(s, config).iterations
    assert rounds >= 1 and labels == ["frequency_exact"] * rounds
    labels.clear()
    jeffreys.frequency_centroid_bisection(s)
    assert labels == ["bisection"]
    labels.clear()
    assert not jeffreys.frequency_centroid_fixedpoint(s).fallback
    assert labels == ["fixedpoint"]
    labels.clear()
    monkeypatch.setattr(centroids, "_FIXEDPOINT_CAP", 1)
    with pytest.warns(RuntimeWarning, match="did not contract"):
        assert jeffreys.frequency_centroid_fixedpoint(s).fallback
    assert labels == ["fixedpoint"]


#: Calls with one count argument that is not an integer.
NOT_INTEGERS = [
    (jeffreys.ClusteringConfig, {"k": 2.5}),
    (jeffreys.ClusteringConfig, {"k": True}),
    (jeffreys.ClusteringConfig, {"k": 2, "max_iterations": 10.0}),
    (jeffreys.ClusteringConfig, {"k": 2, "seed": 1.5}),
    (jeffreys.run_alpha_trials, {"num_trials": 10.5, "d": 2}),
    (jeffreys.run_alpha_trials, {"num_trials": True, "d": 2}),
    (jeffreys.run_alpha_trials, {"num_trials": 10, "d": 2.5}),
    (jeffreys.run_alpha_trials, {"num_trials": 10, "d": 2, "seed": "1"}),
    (jeffreys.run_alpha_trials, {"num_trials": 10, "d": 2, "histograms_per_trial": np.float64(3)}),
    (jeffreys.run_alpha_trials, {"num_trials": 10, "d": 2, "threads": 1.5}),
]


@pytest.mark.parametrize("fn, kwargs", NOT_INTEGERS)
def test_counts_must_be_integers(fn, kwargs):
    with pytest.raises(jeffreys.ValidationError, match="must be an integer"):
        fn(**kwargs)


def test_numpy_integer_counts_pass():
    config = jeffreys.ClusteringConfig(k=np.int64(2), max_iterations=np.uint8(5), seed=np.int32(3))
    assert (config.k, config.max_iterations, config.seed) == (2, 5, 3)
    assert type(config.k) is int
    data = jeffreys.run_alpha_trials(np.int64(10), np.int32(2), seed=np.uint16(1), threads=np.int8(1))
    assert data.w_c.shape == (10,)
