#!/usr/bin/env python3
"""Benchmark of the ``jeffreys`` CLI: one workload, one seed, one run.

    python3 bench/run.py --workload dense-csv --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from ``--seed``, then repeats the
workload's pass of CLI calls through ``jeffreys.cli.main(argv)`` in this
process, warm and with output captured, for ``--seconds``.  Every call is
checked against an independent reference (``reference.py``).  With
``--trace 0`` the run is untraced and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics (``spans.py``).  It prints the environment and every
metric by name and unit, then, as its last line, one JSON object.
README.md lists the metrics and why each workload exists.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before numpy loads: one thread, which never exceeds nproc.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS
os.environ.pop("JEFFREYS_EPSILON", None)  # the loader's documented default smoothing

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import jeffreys; print(repr(time.perf_counter() - t))")
# VmHWM is the high-water mark of this interpreter's own memory map; unlike
# ru_maxrss it does not carry over the parent's size from before exec.
RUN_CLI = ("import sys; sys.path.insert(0, sys.argv.pop(1)); from jeffreys.cli import main; "
           "code = main(sys.argv[1:]); "
           "hwm = [l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')]; "
           "sys.stderr.write(f'\\nVmHWM {hwm[0]}\\n'); raise SystemExit(code)")
END_TO_END = {"op1_p50_s": "s", "op2_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Timings are reported in seconds of a machine on which the yardstick takes
# this long: the median yardstick of the 2-CPU sandbox the bounds were set on.
YARDSTICK_REFERENCE_S = 0.045


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import ``jeffreys`` from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "jeffreys" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'jeffreys'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import jeffreys
    import jeffreys.cli

    if not Path(jeffreys.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported jeffreys from {jeffreys.__file__}, not from {SRC}")
    return jeffreys.cli


# -- set-up measurements: fresh interpreters -----------------------------------


class Yardstick:
    """Fixed work of the program's kinds, independent of the program.

    The CPUs of a shared machine change speed for seconds to minutes at a
    time (on the 2-CPU sandbox, between about 0.6x and 1.1x of a call's usual
    time), which moves every timing of a run alike.  Timed next to the
    program, this work measures the machine's current speed: it parses a
    200 x 256 CSV of decimals, solves its frequency centroid with the
    reference solver (many small numpy and scipy calls), and takes the
    Jeffreys divergences of a 1000 x 256 matrix to eight centers.
    """

    def __init__(self, reference):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np, self.reference = np, reference
        rows = rng.dirichlet(np.ones(256), size=200).tolist()
        self.text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
        self.big = rng.dirichlet(np.ones(256), size=1000)

    def __call__(self) -> float:
        start = time.perf_counter()
        rows = self.np.array([[float(v) for v in rec]
                              for rec in csv.reader(io.StringIO(self.text))])
        self.reference.frequency_centroid(rows)
        for center in self.big[:8]:
            self.reference.jeffreys_to_rows(center, self.big)
        return time.perf_counter() - start


def measure_setup(yardstick) -> tuple[list[float], list[float]]:
    """``import jeffreys`` in fresh interpreters, each after a yardstick.

    The first import, which warms the file cache, is dropped.
    """
    times, yards = [], []
    for _ in range(SETUP_REPEATS + 1):
        yards.append(yardstick())
        out = subprocess.run([sys.executable, "-I", "-c", IMPORT_TIMER, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return times[1:], yards[1:]


def measure_rss(argv) -> tuple[int, float]:
    """Exit code and peak resident MB of one CLI call in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-I", "-c", RUN_CLI, str(SRC), *argv],
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                         timeout=120)
    kib = [line.split()[1] for line in out.stderr.splitlines() if line.startswith("VmHWM ")]
    return out.returncode, (int(kib[-1]) / 1024.0 if kib else 0.0)


# -- in-process calls ------------------------------------------------------------


def call(cli, argv) -> tuple[object, float, str, int]:
    """Run one CLI call; returns (exit code or error, seconds, stdout, warnings)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed op, not a failed benchmark
            code = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), len(caught)


def comparable(kind: str, stdout: str):
    """What must repeat exactly between calls: all output but the wall clock."""
    if kind != "centroid":
        return stdout
    report = json.loads(stdout)
    report.pop("wall_clock_seconds", None)
    return report


def reference_check(reference, op, stdout: str, expected) -> str | None:
    if op.kind == "centroid":
        return reference.check_centroid(json.loads(stdout), expected)
    if op.kind == "kmeans":
        k = int(op.argv[op.argv.index("--k") + 1])
        mode = op.argv[op.argv.index("--centroid-mode") + 1]
        return reference.check_kmeans(json.loads(stdout), expected, k, mode != "positive")
    trials = int(op.argv[op.argv.index("--trials") + 1])
    dims = int(op.argv[op.argv.index("--dims") + 1])
    return reference.check_bench(stdout, trials, dims)


def tail_name_value(values) -> tuple[str, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    if len(values) < 11:
        return None
    pct = math.floor(100.0 * (1.0 - 10.0 / len(values)))
    return f"p{pct}", statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run(args, cli, workdir: Path) -> dict:
    import reference
    import spans
    import workloads

    wl = workloads.build(args.workload, args.seed, workdir)
    print(f"# environment: {json.dumps(environment())}")
    print(f"# workload {wl.name} seed {wl.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# inputs: {json.dumps(wl.sizes)} sha256 {wl.input_hash(workdir)}")

    # Set-up, all outside the timed window: references, fresh-process
    # measurements, then one warm-up pass whose outputs are checked against
    # the references and become the outputs every later call must repeat.
    rows_cache: dict = {}
    expected = []
    for op in wl.ops:
        if op.kind == "bench":
            expected.append(None)
            continue
        fmt = op.argv[op.argv.index("--format") + 1]
        if op.input_path not in rows_cache:
            rows_cache[op.input_path] = reference.load_frequency_rows(op.input_path, fmt)
        rows = rows_cache[op.input_path]
        expected.append(reference.frequency_centroid(rows) if op.kind == "centroid" else rows)

    yardstick = Yardstick(reference)
    setup, setup_yards = measure_setup(yardstick)
    rss = {}
    failures: dict[str, str] = {}
    attempted = failed = 0
    for op in wl.rss_ops:
        code, mb = measure_rss(op.argv)
        rss[op.label] = mb
        attempted += 1
        if code != 0:
            failed += 1
            failures[f"fresh-process {op.label}"] = f"exit code {code}"

    canonical = []
    for i, op in enumerate(wl.ops):
        code, _, stdout, _ = call(cli, op.argv)
        try:
            problem = f"exit {code}" if code != 0 else reference_check(reference, op, stdout,
                                                                        expected[i])
        except (ValueError, KeyError, IndexError) as exc:  # unparseable output
            problem = f"output not understood: {exc!r}"
        attempted += 1
        if problem:
            failed += 1
            failures[f"{op.label} #{i}"] = problem
            canonical.append(None)
        else:
            canonical.append(comparable(op.kind, stdout))

    # The timed window.
    tracer = spans.Tracer() if args.trace else None
    passes = []  # (traced, pass seconds, [(slot, label, call seconds)], warnings)
    yards = []
    layer_passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        gc.collect()
        yards.append(yardstick())
        per_op = []
        caught = 0
        start = time.perf_counter()
        try:
            for i, op in enumerate(wl.ops):
                code, elapsed, stdout, warned = call(cli, op.argv)
                attempted += 1
                ok = code == 0 and canonical[i] is not None
                if ok:
                    try:
                        ok = comparable(op.kind, stdout) == canonical[i]
                    except ValueError:
                        ok = False
                if not ok:
                    failed += 1
                    failures.setdefault(f"{op.label} #{i}", f"exit {code} or output changed")
                per_op.append((op.slot, op.label, elapsed))
                caught += warned
        finally:
            if traced:
                tracer.uninstall()
        total = time.perf_counter() - start
        passes.append((traced, total, per_op, caught))
        if traced:
            layer_passes.append(tracer.pass_metrics())
        both = not tracer or len(passes) >= 2
        if time.perf_counter() >= deadline and both:
            break

    plain = [p for p in passes if not p[0]]
    print(f"# passes {len(passes)} ({len(layer_passes)} traced), ops attempted {attempted}, "
          f"failed {failed}, failed_frac {failed / attempted:.6g}")
    for where, why in failures.items():
        print(f"# FAILED {where}: {why}")
    print(f"# fixed-point fallback warnings per pass: {plain[0][3]}")
    if args.workload == "trials":
        share = reference.degenerate_share(canonical[0]) if canonical[0] else float("nan")
        print(f"# degenerate (0-halving) share of bench --dims 2 trials: {share:.6g}")

    def slot_median(slot: str) -> float:
        return statistics.median(t for p in plain for s, _, t in p[2] if s == slot)

    measured = {
        "op1_p50_s": slot_median("op1"),
        "op2_p50_s": slot_median("op2"),
        "setup_s": statistics.median(setup),
    }
    speed = YARDSTICK_REFERENCE_S / statistics.median(yards)
    setup_speed = YARDSTICK_REFERENCE_S / statistics.median(setup_yards)
    e2e = {
        "op1_p50_s": measured["op1_p50_s"] * speed,
        "op2_p50_s": measured["op2_p50_s"] * speed,
        "setup_s": measured["setup_s"] * setup_speed,
        "peak_rss_mb": max(rss.values()),
    }
    print("# end-to-end (untraced passes; op1/op2 are the median call of each slot), "
          f"in seconds of a machine whose yardstick takes {YARDSTICK_REFERENCE_S} s:")
    for name, value in e2e.items():
        print(f"{name} {value!r} {END_TO_END[name]}")
    print(f"#   as measured: {json.dumps(measured)}; yardstick median "
          f"{statistics.median(yards):.6g} s in the window, "
          f"{statistics.median(setup_yards):.6g} s at set-up")
    for label, mb in rss.items():
        print(f"#   peak_rss_mb {label}: {mb:.1f}")
    labels = list(dict.fromkeys(op.label for op in wl.ops))
    for label in labels:
        calls = [t for p in plain for _, lab, t in p[2] if lab == label]
        line = f"#   {label}: {len(calls)} calls, p50 {statistics.median(calls):.6g} s"
        tail = tail_name_value(calls)
        if tail:
            line += f", {tail[0]} {tail[1]:.6g} s"
        if label.startswith("bench"):
            op = next(op for op in wl.ops if op.label == label)
            trials = int(op.argv[op.argv.index("--trials") + 1])
            line += f", trials_per_s {trials / statistics.median(calls):.6g}"
        print(line)

    if not tracer:
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in e2e.items()}
    else:
        layer = {k: statistics.median(m[k] for m in layer_passes) for k in layer_passes[0]}
        layer["trace.overhead_s"] = (statistics.median(p[1] for p in passes if p[0])
                                     - statistics.median(p[1] for p in plain))
        if tracer.absent:
            print(f"# absent (no longer defined by the program): {', '.join(tracer.absent)}")
        print("# per-layer (median over traced passes, per pass):")
        for name in spans.UNITS:
            print(f"{name} {layer[name]!r} {spans.UNITS[name]}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in spans.UNITS.items()}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    cli = import_program()
    workdir = ROOT / ".bench_inputs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
