"""Command-line interface.

Three subcommands:

* ``centroid`` -- compute one centroid of a dataset and print a run report.
* ``kmeans``   -- cluster a dataset with Jeffreys k-means and print the result.
* ``bench``    -- approximation-factor statistics on synthetic trials.

Reports go to standard output, diagnostics to standard error.  Exit codes:
0 success, 1 validation error, 2 numeric failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

from . import centroids, oracles
from .centroids import MODES
from .clustering import ClusteringConfig, kmeans
from .datasets import FORMATS, KIND_FREQUENCY, KINDS, load_dataset
from .errors import NumericError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 64

#: The ``bench`` table's columns, each a :class:`~jeffreys.oracles.TrialData` array.
_BENCH_COLUMNS = ("alpha_positive", "alpha_normalized", "w_c", "alpha_veldhuis")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract wants 64.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="jeffreys", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_io_flags(p):
        p.add_argument("--input", required=True, help="dataset path (file, or directory for pgm-dir)")
        p.add_argument("--format", required=True, choices=FORMATS)
        p.add_argument("--kind", required=True, choices=KINDS)

    centroid = sub.add_parser("centroid", help="compute a Jeffreys centroid")
    add_io_flags(centroid)
    centroid.add_argument(
        "--mode", required=True, choices=[name for name, m in MODES.items() if m.solver]
    )
    centroid.add_argument("--output", choices=("json", "csv"), default="json")
    centroid.add_argument(
        "--compare-exact",
        action="store_true",
        help="also run the bisection solver and report the approximation factor",
    )

    km = sub.add_parser("kmeans", help="cluster histograms with Jeffreys k-means")
    add_io_flags(km)
    km.add_argument("--k", type=int, required=True)
    km.add_argument("--seed", type=int, default=0)
    km.add_argument(
        "--centroid-mode", choices=[name for name, m in MODES.items() if m.builder],
        default="positive",
    )
    km.add_argument("--max-iters", type=int, default=100)

    bench = sub.add_parser("bench", help="approximation-factor statistics on synthetic data")
    bench.add_argument("--trials", type=int, required=True)
    bench.add_argument("--dims", type=int, default=2)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--threads", type=int, default=1)

    return parser


def _check_kind(flag: str, mode: str, kind: str) -> None:
    """Reject a frequency-only mode of :data:`MODES` on positive data."""
    if MODES[mode].frequency and kind != KIND_FREQUENCY:
        raise ValidationError(f"{flag} {mode} requires --kind frequency")


def _run_centroid(args) -> int:
    # Every argument is checked before the data is read or a solver runs.
    _check_kind("--mode", args.mode, args.kind)
    if args.compare_exact and args.kind != KIND_FREQUENCY:
        raise ValidationError("--compare-exact requires --kind frequency")
    dataset = load_dataset(args.input, args.format, args.kind)
    histograms = dataset.histograms
    # Looked up at call time, so a patched attribute (a test double, a
    # tracer) is the one that runs.
    solver = getattr(centroids, MODES[args.mode].solver)

    start = time.perf_counter()
    result = solver(histograms)

    alpha = None
    if args.compare_exact:
        # A bisection is its own exact reference.
        bisection = centroids.frequency_centroid_bisection
        exact = result if args.mode == "bisection" else bisection(histograms)
        alpha = result.objective / exact.objective if exact.objective > 0.0 else 1.0
    elapsed = time.perf_counter() - start

    report = {
        "mode": result.mode,
        "kind": args.kind,
        "centroid": result.centroid.tolist(),
        "iterations": result.iterations,
        "objective": result.objective,
        "wall_clock_seconds": elapsed,
        "w_c": result.w_c,
        "lambda_star": result.lambda_star,
        "bound_factor": result.bound_factor,
        "alpha_vs_exact": alpha,
        "simplex_defect": result.simplex_defect,
        "epsilon_scale": dataset.epsilon_scale,
        "fallback": result.fallback,
    }
    sys.stdout.write(_dumps(report) + "\n" if args.output == "json" else _csv(report))
    return EXIT_OK


def _run_kmeans(args) -> int:
    _check_kind("--centroid-mode", args.centroid_mode, args.kind)
    dataset = load_dataset(args.input, args.format, args.kind)
    cfg = ClusteringConfig(
        k=args.k,
        max_iterations=args.max_iters,
        centroid_mode=args.centroid_mode,
        seed=args.seed,
    )
    start = time.perf_counter()
    result = kmeans(dataset.histograms, cfg)
    elapsed = time.perf_counter() - start
    payload = {
        "assignments": result.assignments.tolist(),
        "centroids": result.centroids.tolist(),
        "objective_trace": list(result.objective_trace),
        "iterations": result.iterations,
        "config": dataclasses.asdict(cfg),
    }
    sys.stdout.write(_dumps(payload) + "\n")
    sys.stderr.write(f"kmeans finished in {elapsed:.3f}s, {result.iterations} rounds\n")
    return EXIT_OK


def _dumps(payload: dict) -> str:
    """``payload`` as one line of JSON, with shortest round-trip decimals.

    JSON cannot hold a non-finite number: one raises :class:`NumericError`.
    """
    try:
        return json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"output is not finite: {exc}") from exc


def _csv(report: dict) -> str:
    """The centroid report as a header and one row: the scalars, then ``bin_0``, ``bin_1``, ...

    A missing value is an empty cell; a non-finite number raises
    :class:`NumericError`, as in JSON.
    """
    cells = {name: value for name, value in report.items() if name != "centroid"}
    cells.update((f"bin_{i}", v) for i, v in enumerate(report["centroid"]))
    for name, value in cells.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericError(f"output field {name} is not finite: {value!r}")
    # str() of a float is its shortest round-trip repr.
    row = ("" if value is None else str(value) for value in cells.values())
    return ",".join(cells) + "\n" + ",".join(row) + "\n"


def _run_bench(args) -> int:
    # Looked up at call time, like the solvers in _run_centroid.
    data = oracles.run_alpha_trials(args.trials, args.dims, seed=args.seed, threads=args.threads)
    # (avg, min, max) of each column, one column's array alive at a time.
    stats = [
        (values.mean(), values.min(), values.max())
        for values in (getattr(data, name) for name in _BENCH_COLUMNS)
    ]
    out = sys.stdout
    out.write(",".join(("stat", *_BENCH_COLUMNS)) + "\n")
    for stat, row in zip(("avg", "min", "max"), zip(*stats)):
        out.write(",".join((stat, *(repr(float(v)) for v in row))) + "\n")
    out.write("\nmetric,value\n")
    out.write(f"trials,{args.trials}\n")
    out.write(f"dims,{args.dims}\n")
    out.write(f"mean_bisection_halvings,{float(centroids.BISECTION_HALVINGS)!r}\n")
    out.write(f"mean_fixedpoint_iterations,{float(data.fixedpoint_iterations.mean())!r}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "centroid":
            return _run_centroid(args)
        if args.command == "kmeans":
            return _run_kmeans(args)
        return _run_bench(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
