#!/usr/bin/env python3
"""One digest of the CLI's stdout and exit codes on the benchmark's inputs.

    python3 tests/cli_digest.py CHECKOUT [SEED ...] [--dump PATH]
    python3 tests/cli_digest.py --compare OLD NEW

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
checkout.

``--dump PATH`` also writes one JSON line per call to ``PATH``: its
``label`` (the command and its mode, as ``bench/workloads.py`` names
them, e.g. ``centroid --mode fixedpoint``), its ``argv`` (input paths
relative to the temporary directory), its exit ``code`` and its
``stdout``, with ``wall_clock_seconds`` masked.  ``--compare OLD NEW``
reads two dumps of the same calls and prints, per label, the calls, how
many gave the same exit code and stdout byte for byte, and the largest
relative difference ``|x - y| / max(|x|, |y|)`` over the numbers in
their stdout; under it, each field whose numbers moved, with its largest
relative difference and the two values that attain it (a CSV's
``bin_<i>`` columns are one field, ``bin_*``).  It exits 1 if the dumps
hold different calls, or a call's output differs in anything but its
numbers.  Not collected by pytest: its name does not start with
``test_``.
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
import json
import math
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


def _label(argv) -> str:
    """The command and its mode, e.g. ``centroid --mode fixedpoint``, as ``Op.label`` reads it."""
    flag = {"centroid": "--mode", "kmeans": "--centroid-mode", "bench": "--dims"}[argv[0]]
    return f"{argv[0]} {flag} {argv[argv.index(flag) + 1]}"


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _fields(stdout: str) -> list[tuple[str, object]]:
    """``(name, value)`` of every value in a call's stdout: numbers as floats, the rest as text.

    JSON values are named by their key path; a CSV block (a header and its
    rows, blocks split by blank lines) names a cell by its column, led by
    the row's first cell where the block has several rows.
    """
    try:
        payload = json.loads(stdout)
    except ValueError:
        out = []
        for block in stdout.strip().split("\n\n"):
            header, *rows = (line.split(",") for line in block.splitlines())
            for row in rows:
                lead = f"{row[0]} " if len(rows) > 1 else ""
                for name, cell in zip(header, row):
                    value = _number(cell)
                    out.append((lead + name, cell if value is None else value))
        return out

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                yield from walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for item in value:
                yield from walk(item, path)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path, float(value)
        else:
            yield path, value

    return list(walk(payload, ""))


def compare(old_path: str, new_path: str) -> int:
    """Print each label's largest relative difference between two dumps; see the module docstring."""
    olds, news = ([json.loads(line) for line in Path(p).read_text().splitlines()]
                  for p in (old_path, new_path))
    if [c["argv"] for c in olds] != [c["argv"] for c in news]:
        print("the dumps hold different calls")
        return 1
    # label -> [calls, identical, {field: the worst (rel, old, new)}]
    rows: dict[str, list] = {}
    status = 0
    for old, new in zip(olds, news):
        row = rows.setdefault(old["label"], [0, 0, {}])
        row[0] += 1
        if old["code"] == new["code"] and old["stdout"] == new["stdout"]:
            row[1] += 1
            continue
        a, b = _fields(old["stdout"]), _fields(new["stdout"])
        if old["code"] != new["code"] or [n for n, _ in a] != [n for n, _ in b] or any(
            isinstance(x, str) and x != y for (_, x), (_, y) in zip(a, b)
        ):
            print(f"differs in more than its numbers: {' '.join(old['argv'])}")
            status = 1
            continue
        for (name, x), (_, y) in zip(a, b):
            if isinstance(x, float) and x != y:
                rel = abs(x - y) / max(abs(x), abs(y))
                name = re.sub(r"_\d+$", "_*", name)  # one field for every CSV bin
                if not rel <= row[2].get(name, (0.0,))[0]:  # a NaN difference is the worst
                    row[2][name] = (rel, x, y)
    print(f"{'label':<50} {'calls':>5} {'same':>5}  max rel")
    for label, (calls, same, worst) in rows.items():
        print(f"{label:<50} {calls:>5} {same:>5}  {max((w[0] for w in worst.values()), default=0.0):.2e}")
        for name, (rel, x, y) in sorted(worst.items(), key=lambda item: -item[1][0]):
            print(f"    {name}: {rel:.2e}, {x!r} -> {y!r}")
    return status


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
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    dump_path = None
    if "--dump" in argv[:-1]:
        at = argv.index("--dump")
        dump_path = argv[at + 1]
        argv = argv[:at] + argv[at + 2:]
    if not argv or argv[0].startswith("-"):
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
    with tempfile.TemporaryDirectory() as tmp, \
            open(dump_path, "w") if dump_path else contextlib.nullcontext() as dump:
        for seed in seeds:
            for call in _calls(workloads, modes, kmeans_modes, seed, Path(tmp) / str(seed)):
                out = io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    warnings.simplefilter("ignore")
                    code = jeffreys.cli.main(call)
                stdout = _masked(out.getvalue())
                digest.update(f"{code}\n".encode() + stdout.encode() + b"\0")
                calls += 1
                if dump:
                    argv_rel = [a.replace(tmp + os.sep, "") for a in call]
                    dump.write(json.dumps({"label": _label(call), "argv": argv_rel,
                                           "code": code, "stdout": stdout}) + "\n")
    print(calls, digest.hexdigest())
    print("w0", *w0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
