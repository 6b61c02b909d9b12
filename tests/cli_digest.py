#!/usr/bin/env python3
"""One digest of the CLI's stdout and exit codes on the benchmark's inputs.

    python3 tests/cli_digest.py CHECKOUT [SEED ...]

Imports ``jeffreys`` from ``CHECKOUT/src`` and, for each seed (default 7
and 11), builds the ``sparse-small`` and ``dense-csv`` inputs of
``bench/workloads.py`` in a temporary directory, plus a weighted copy of
the first 200 ``dense-csv`` rows, each led by a ``weight:<w>`` cell with
``w`` drawn by ``default_rng(seed).uniform(0.1, 1.0)``, since no workload
reads a weight column.  It then runs ``jeffreys.cli.main`` in this process
on:

* every ``centroid`` mode on every input set, the weighted copy included,
  with ``--output json`` and with ``--output csv``;
* every ``kmeans`` mode on every input that a workload clusters, and on
  the weighted copy;
* both ``bench`` calls of the ``trials`` workload.

It prints ``<calls> <sha256>``: the number of calls and a SHA-256 over
each call's exit code and stdout, with ``wall_clock_seconds`` masked.  Two
checkouts that print the same line gave the same output, byte for byte,
on every call.  A second line, ``w0 <passes> <lanes>``, counts the calls
of ``jeffreys.centroids.lambert_w0_values``, the one seam through which
the package reaches ``W0``, and the values they took, over all calls; the
counting wrapper hands arguments and results through untouched.  Run one
copy of this file against each checkout: the workload definitions come
from this file's own repository, and nothing is written into either
checkout.  Not collected by pytest: its name does
not start with ``test_``.
"""

from __future__ import annotations

import os

# One BLAS thread, as in bench/run.py, so that matrix products round the same way.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("JEFFREYS_EPSILON", None)

import contextlib
import hashlib
import importlib.util
import io
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
DEFAULT_SEEDS = (7, 11)
# The JSON report's timing; the CSV report's is masked by its column.
WALL_CLOCK_JSON = re.compile(r'"wall_clock_seconds": [^,}]*')


def _workloads():
    """``bench/workloads.py``, loaded from its file without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _masked(stdout: str) -> str:
    stdout = WALL_CLOCK_JSON.sub('"wall_clock_seconds": 0', stdout)
    lines = stdout.split("\n")
    header = lines[0].split(",")
    if "wall_clock_seconds" in header and len(lines) > 1:
        column = header.index("wall_clock_seconds")
        row = lines[1].split(",")
        row[column] = "0"
        lines[1] = ",".join(row)
    return "\n".join(lines)


def _weighted_copy(path: Path, seed: int, rows: int = 200) -> Path:
    """The first ``rows`` rows of a CSV file, each led by a ``weight:<w>`` cell."""
    lines = path.read_text().splitlines()[:rows]
    weights = np.random.default_rng(seed).uniform(0.1, 1.0, size=len(lines))
    out = path.with_name("weighted.csv")
    out.write_text("".join(f"weight:{w!r},{line}\n" for w, line in zip(weights.tolist(), lines)))
    return out


def _calls(workloads, modes, kmeans_modes, seed: int, root: Path):
    """Every argv of one seed, on inputs built under ``root``."""
    for name in ("sparse-small", "dense-csv"):
        wl = workloads.build(name, seed, root / name)
        centroid_inputs = {}
        kmeans_ops = {}
        for op in wl.ops:
            if op.kind == "centroid":
                centroid_inputs.setdefault(op.argv[:op.argv.index("--mode")], None)
            else:
                kmeans_ops.setdefault(op.argv, None)
        if name == "dense-csv":
            dense, weighted = str(wl.files[0]), str(_weighted_copy(wl.files[0], seed))
            for argvs in (centroid_inputs, kmeans_ops):
                for argv in list(argvs):
                    argvs.setdefault(tuple(weighted if a == dense else a for a in argv), None)
        for argv in centroid_inputs:
            for mode in modes:
                for output in ("json", "csv"):
                    yield [*argv, "--mode", mode, "--output", output]
        for argv in kmeans_ops:
            at = argv.index("--centroid-mode") + 1
            for mode in kmeans_modes:
                yield [*argv[:at], mode, *argv[at + 1:]]
    for op in workloads.build("trials", seed, root / "trials").ops:
        yield list(op.argv)


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(__doc__)
        return 64
    src = (Path(argv[0]) / "src").resolve()
    seeds = [int(s) for s in argv[1:]] or list(DEFAULT_SEEDS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import jeffreys.centroids
    import jeffreys.cli
    from jeffreys.centroids import MODES

    if not Path(jeffreys.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"error: imported jeffreys from {jeffreys.__file__}, not {src}\n")
        return 1
    modes = [name for name, mode in MODES.items() if mode.solver]
    kmeans_modes = [name for name, mode in MODES.items() if mode.builder]
    workloads = _workloads()
    digest = hashlib.sha256()
    calls = 0
    w0 = [0, 0]  # passes, lanes
    lambert_w0_values = jeffreys.centroids.lambert_w0_values

    def counting(x, *args, **kw):
        w0[0] += 1
        w0[1] += np.size(x)
        return lambert_w0_values(x, *args, **kw)

    jeffreys.centroids.lambert_w0_values = counting
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for call in _calls(workloads, modes, kmeans_modes, seed, Path(tmp) / str(seed)):
                out = io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    warnings.simplefilter("ignore")
                    code = jeffreys.cli.main(call)
                digest.update(f"{code}\n".encode() + _masked(out.getvalue()).encode() + b"\0")
                calls += 1
    print(calls, digest.hexdigest())
    print("w0", *w0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
