#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, written as one ``BENCH_<label>.json``.

    python3 tests/bench_pairs.py PARENT CHANGE --label L --seeds A-B
        [--claim WORKLOAD:METRIC] [--change TEXT]

``BENCHMARK.json`` of this file's repository names the workloads, the run
length and the end-to-end metrics.  For each workload and each seed from
``A`` to ``B``, one pair: ``python3 bench/run.py --workload W --seed S
--seconds N --trace 0`` run from the parent's checkout and from the
change's, the side that runs first alternating from pair to pair (the
parent first on the first pair).  A run's entry is the final JSON line of
``bench/run.py``.  The summary of each end-to-end metric holds each side's
median and quartiles (``statistics.quantiles(n=4, method="inclusive")``),
the pairs the change won and lost (ties count for neither) and the ratio of
the medians, each rounded to 6 decimals, as ``tests/test_bench_files.py``
recomputes them.

Then one traced run per side and workload (``--trace 1``, seed 7, 10
seconds), and ``tests/cli_digest.py`` of this repository on each checkout
at seeds 7 and 11, with ``--compare`` of the two dumps.  It writes
``BENCH_<label>.json`` at this repository's root.  Nothing is written into
either checkout but what ``bench/run.py`` writes and removes itself.  Not
collected by pytest: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
RUN = "python3 bench/run.py --workload {workload} --seed {seed} --seconds {seconds:g} --trace {trace}"
TRACE_SEED, TRACE_SECONDS = 7, 10.0
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", required=True, help="A-B, one pair per seed")
    p.add_argument("--claim", help="WORKLOAD:METRIC that the change claims to improve")
    p.add_argument("--change", dest="text", default="", help="what the change does")
    args = p.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    args.seeds = list(range(int(first), int(last or first) + 1))
    return args


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The final JSON line of one ``bench/run.py`` run from ``checkout``."""
    argv = RUN.format(workload=workload, seed=seed, seconds=seconds, trace=trace).split()
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], metric: str, better: str) -> dict:
    """A metric's medians, quartiles, wins, losses and ratio over the pairs' ``runs``."""
    values = {side: [run[side]["metrics"][metric]["value"] for run in runs] for side in SIDES}
    summary = {}
    for side in SIDES:
        q1, _, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
        median = statistics.median(values[side])
        summary[side] = {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}
    lower = better == "lower"
    pairs = list(zip(values["parent"], values["change"]))
    summary["change_wins"] = sum((c < p) if lower else (c > p) for p, c in pairs)
    summary["change_losses"] = sum((c > p) if lower else (c < p) for p, c in pairs)
    ratio = statistics.median(values["change"]) / statistics.median(values["parent"])
    summary["change_over_parent_median"] = round(ratio, 6)
    return summary


def pairs(seeds: list[int], checkouts: dict) -> dict:
    """Every workload's alternating pairs and their summary."""
    workloads = {}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = []
        for i, seed in enumerate(seeds):
            first = SIDES[i % 2]
            run = {"seed": seed, "first": first}
            for side in (first, SIDES[1 - i % 2]):
                run[side] = run_bench(checkouts[side], workload, seed, BENCHMARK["run_seconds"], 0)
            runs.append(run)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} op1 {run[side]['metrics']['op1_p50_s']['value']:.4f} "
                f"op2 {run[side]['metrics']['op2_p50_s']['value']:.4f}" for side in SIDES
            ), file=sys.stderr)
        workloads[workload] = {
            "pairs": len(runs),
            "failed": {side: sum(run[side]["failed"] for run in runs) for side in SIDES},
            "correct": {side: all(run[side]["correct"] for run in runs) for side in SIDES},
            "summary": {m["name"]: summarize(runs, m["name"], m["better"])
                        for m in BENCHMARK["end_to_end"]},
            "runs": runs,
        }
    return workloads


def digests(checkouts: dict) -> dict:
    """``tests/cli_digest.py`` of this repository on both checkouts, and ``--compare``."""
    digest = ROOT / "tests" / "cli_digest.py"
    result = {
        "command": "python3 tests/cli_digest.py <checkout> 7 11 --dump <path>; "
                   "python3 tests/cli_digest.py --compare <parent dump> <change dump>",
    }
    with tempfile.TemporaryDirectory() as tmp:
        dumps = {}
        for side in SIDES:
            dumps[side] = str(Path(tmp) / f"{side}.jsonl")
            out = subprocess.run(
                [sys.executable, str(digest), str(checkouts[side]), "7", "11", "--dump", dumps[side]],
                capture_output=True, text=True, check=True,
            )
            result[side] = " / ".join(out.stdout.strip().splitlines())
        out = subprocess.run(
            [sys.executable, str(digest), "--compare", dumps["parent"], dumps["change"]],
            capture_output=True, text=True,
        )
        result["compare"] = out.stdout.rstrip("\n").splitlines()
    return result


def commit_of(checkout: Path) -> str | None:
    """The short commit of ``checkout``, or ``None`` where it is not a git checkout."""
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "bench" / "run.py").is_file():
            sys.exit(f"error: no bench/run.py in the {side} checkout {checkout}")
    bench = {
        "label": args.label,
        "change": args.text,
        "parent_commit": commit_of(checkouts["parent"]),
        "command": RUN.format(workload="<workload>", seed="<seed>",
                              seconds=BENCHMARK["run_seconds"], trace=0),
        "protocol": (
            f"{len(args.seeds)} pairs per workload, one seed per pair ({args.seeds[0]}-"
            f"{args.seeds[-1]}), parent and change each run from its own copy of the tree, the "
            "side that runs first alternating from pair to pair; each run's entry is the final "
            "JSON line of bench/run.py; quartiles by statistics.quantiles(method='inclusive'); "
            "written by tests/bench_pairs.py"
        ),
        "host": (
            f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs, CPython "
            f"{platform.python_version()}, numpy {np.__version__}, one BLAS thread; timings in "
            "the benchmark's reference seconds"
        ),
        "claim": None,
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        bench["claim"] = {"workload": workload, "metric": metric}
    bench["workloads"] = pairs(args.seeds, checkouts)
    bench["traced"] = {
        workload: {
            "command": RUN.format(workload=workload, seed=TRACE_SEED, seconds=TRACE_SECONDS, trace=1),
            **{side: run_bench(checkouts[side], workload, TRACE_SEED, TRACE_SECONDS, 1)
               for side in SIDES},
        }
        for workload in bench["workloads"]
    }
    bench["cli_digest"] = digests(checkouts)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
