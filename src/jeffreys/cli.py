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
import json
import sys
import time

from . import centroids
from .centroids import MODES
from .clustering import ClusteringConfig, kmeans
from .datasets import FORMAT_CSV, FORMAT_JSON, FORMAT_PGM, KIND_FREQUENCY, KINDS, load_dataset
from .errors import NumericError, ValidationError
from .oracles import alpha_trial_harness
from .reports import RunReport

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 64

_CLI_FORMATS = {"csv": FORMAT_CSV, "json": FORMAT_JSON, "pgm-dir": FORMAT_PGM}


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
        p.add_argument("--format", required=True, choices=sorted(_CLI_FORMATS))
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
    dataset = load_dataset(args.input, _CLI_FORMATS[args.format], args.kind)
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

    report = RunReport(
        mode=result.mode,
        kind=args.kind,
        centroid=[float(v) for v in result.centroid.bins],
        iterations=result.iterations,
        objective=result.objective,
        wall_clock_seconds=elapsed,
        w_c=result.w_c,
        lambda_star=result.lambda_star,
        bound_factor=result.bound_factor,
        alpha_vs_exact=alpha,
        simplex_defect=result.simplex_defect,
        epsilon_scale=dataset.epsilon_scale,
        fallback=result.fallback,
    )
    sys.stdout.write(report.to_json() + "\n" if args.output == "json" else report.to_csv())
    return EXIT_OK


def _run_kmeans(args) -> int:
    _check_kind("--centroid-mode", args.centroid_mode, args.kind)
    dataset = load_dataset(args.input, _CLI_FORMATS[args.format], args.kind)
    cfg = ClusteringConfig(
        k=args.k,
        max_iterations=args.max_iters,
        centroid_mode=args.centroid_mode,
        seed=args.seed,
    )
    start = time.perf_counter()
    result = kmeans(dataset.histograms, cfg)
    elapsed = time.perf_counter() - start
    payload = result.to_dict()
    payload["config"] = {
        "k": cfg.k,
        "max_iterations": cfg.max_iterations,
        "centroid_mode": cfg.centroid_mode,
        "seed": cfg.seed,
    }
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"k-means output is not finite: {exc}") from exc
    sys.stdout.write(text + "\n")
    sys.stderr.write(f"kmeans finished in {elapsed:.3f}s, {result.iterations} rounds\n")
    return EXIT_OK


def _run_bench(args) -> int:
    if args.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {args.trials}")
    stats = alpha_trial_harness(args.trials, args.dims, seed=args.seed, threads=args.threads)
    out = sys.stdout
    out.write("stat,alpha_positive,alpha_normalized,w_c,alpha_veldhuis\n")
    for stat, idx in (("avg", 0), ("min", 1), ("max", 2)):
        cells = [repr(stats.summary[col][idx]) for col in
                 ("alpha_positive", "alpha_normalized", "w_c", "alpha_veldhuis")]
        out.write(f"{stat}," + ",".join(cells) + "\n")
    out.write("\nmetric,value\n")
    out.write(f"trials,{stats.trials}\n")
    out.write(f"dims,{stats.dims}\n")
    out.write(f"mean_bisection_halvings,{stats.mean_bisection_halvings!r}\n")
    out.write(f"mean_fixedpoint_iterations,{stats.mean_fixedpoint_iterations!r}\n")
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
