"""Every ``BENCH_*.json`` at the repository root agrees with its own runs.

A file records, per workload, ``pairs`` of alternating runs of
``bench/run.py`` on the parent and on the change, and a ``summary`` per
end-to-end metric that must follow from those runs: each side's median and
quartiles (``statistics.quantiles(n=4, method="inclusive")``), the pairs
the change won and lost (ties count for neither; the direction is the
metric's ``better`` in ``BENCHMARK.json``) and the ratio of the medians.
A recorded number matches when it equals the recomputed one rounded to 6
decimals or to 6 significant digits, the two roundings the files use.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))
BETTER = {
    metric["name"]: metric["better"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
SIDES = ("parent", "change")


def _matches(recorded, exact: float) -> bool:
    return recorded in (round(exact, 6), float(f"{exact:.6g}"))


def _problems(bench: dict) -> list[str]:
    """Every disagreement between each workload's summary and its runs, as one line each."""
    problems = []
    for workload, w in bench["workloads"].items():
        runs = w["runs"]
        if w["pairs"] != len(runs):
            problems.append(f"{workload}: pairs {w['pairs']} but {len(runs)} runs")
        firsts = [run["first"] for run in runs]
        if not set(firsts) <= set(SIDES) or any(a == b for a, b in zip(firsts, firsts[1:])):
            problems.append(f"{workload}: first does not alternate: {firsts}")
        for side in SIDES:
            failed = sum(run[side]["failed"] for run in runs)
            if w["failed"][side] != failed:
                problems.append(f"{workload}: failed[{side}] {w['failed'][side]}, runs sum {failed}")
        for metric, summary in w["summary"].items():
            values = {side: [run[side]["metrics"][metric]["value"] for run in runs] for side in SIDES}
            for side in SIDES:
                q1, _, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
                exact = {"median": statistics.median(values[side]), "q1": q1, "q3": q3}
                for stat, value in exact.items():
                    if not _matches(summary[side][stat], value):
                        problems.append(
                            f"{workload} {metric} {side} {stat}: {summary[side][stat]}, runs give {value}"
                        )
            lower = BETTER[metric] == "lower"
            pairs = list(zip(values["parent"], values["change"]))
            wins = sum((c < p) if lower else (c > p) for p, c in pairs)
            losses = sum((c > p) if lower else (c < p) for p, c in pairs)
            if (summary["change_wins"], summary["change_losses"]) != (wins, losses):
                problems.append(
                    f"{workload} {metric}: wins/losses {summary['change_wins']}/"
                    f"{summary['change_losses']}, runs give {wins}/{losses}"
                )
            exact_ratio = statistics.median(values["change"]) / statistics.median(values["parent"])
            rounded_ratio = summary["change"]["median"] / summary["parent"]["median"]
            recorded = summary["change_over_parent_median"]
            if not (_matches(recorded, exact_ratio) or _matches(recorded, rounded_ratio)):
                problems.append(f"{workload} {metric}: ratio {recorded}, medians give {exact_ratio}")
    return problems


def test_there_are_bench_files():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_bench_file_follows_from_its_runs(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert bench["label"] == path.stem.removeprefix("BENCH_")
    assert _problems(bench) == []
