"""Independent correctness checks for every CLI operation of the benchmark.

Nothing here imports ``jeffreys``.  Inputs are re-read from the generated
files with the loader's documented rules (empty bins get
``1e-10 * max(1, total / d)`` added, frequency rows are renormalized), and
the exact frequency centroid is re-solved with ``scipy.special.lambertw``
and ``scipy.optimize.brentq`` on the multiplier of the simplex constraint.

Tolerances are fixed from the arithmetic, not from the observed errors:

* both sides resolve the multiplier to about 1e-14, and a coordinate moves
  by at most its own size times the multiplier error, so centroids must
  agree to ``CENTROID_RTOL`` = 1e-9 relative, and objectives likewise;
* ratios of two objectives that are equal in exact arithmetic may land a few
  ulps on the wrong side of 1; ``ULPS`` = 8 ulps absorbs that rounding.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import lambertw

EPSILON_SCALE = 1e-10
CENTROID_RTOL = 1e-9
SIMPLEX_ATOL = 1e-12
EPS = float(np.finfo(np.float64).eps)
ULPS = 8 * EPS
BISECTION_HALVINGS = 52


def load_frequency_rows(path: Path, fmt: str) -> np.ndarray:
    """Rows of a generated dataset, smoothed and on the simplex."""
    if fmt == "csv":
        with open(path, newline="") as fh:
            rows = np.array([[float(v) for v in rec] for rec in csv.reader(fh) if rec])
    elif fmt == "json":
        rows = np.array(json.loads(Path(path).read_text())["histograms"], dtype=np.float64)
    else:  # pgm-dir: 256-bin intensity counts, header "P5\n<w> <h>\n255\n"
        images = []
        for f in sorted(Path(path).glob("*.pgm")):
            data = f.read_bytes()
            header_end = data.index(b"\n", data.index(b"\n", data.index(b"\n") + 1) + 1) + 1
            images.append(np.bincount(np.frombuffer(data[header_end:], np.uint8), minlength=256))
        rows = np.array(images, dtype=np.float64)
    out = np.empty_like(rows)
    for j, row in enumerate(rows):
        if np.any(row == 0.0):
            row = row + EPSILON_SCALE * max(1.0, float(row.sum()) / row.size)
        out[j] = row / row.sum()
    return out


def jeffreys_to_rows(c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """J(row, c) per row; ``c`` is one centroid or one centroid per row."""
    return ((rows - c) * (np.log(rows) - np.log(c))).sum(axis=1)


def frequency_centroid(rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact Jeffreys frequency centroid of uniformly weighted rows, and its objective."""
    if rows.shape[0] == 1:
        return rows[0], 0.0
    a = rows.mean(axis=0)
    a = a / a.sum()
    g = np.exp(np.log(rows).mean(axis=0))
    g = g / g.sum()
    ratio = a / g

    def coords(lam: float) -> np.ndarray:
        return a / lambertw(ratio * math.exp(lam + 1.0)).real

    def excess(lam: float) -> float:
        return float(coords(lam).sum()) - 1.0

    hi = 0.0
    lo = float(np.max(a + np.log(g))) - 1.0
    # s(0) <= 1 with equality when all members coincide; then lam* = 0.
    lam = hi if excess(hi) >= -1e-15 else brentq(excess, lo, hi, xtol=1e-15, rtol=4 * EPS)
    c = coords(lam)
    c = c / c.sum()
    return c, float(jeffreys_to_rows(c, rows).mean())


def check_centroid(report: dict, expected: tuple[np.ndarray, float]) -> str | None:
    """None when a ``centroid`` report matches the reference, else the reason."""
    c = np.asarray(report["centroid"], dtype=np.float64)
    ref, objective = expected
    if c.shape != ref.shape or not np.all(np.isfinite(c)) or np.any(c <= 0.0):
        return "centroid has the wrong shape or non-positive bins"
    if abs(float(c.sum()) - 1.0) > SIMPLEX_ATOL:
        return f"centroid off the simplex by {abs(float(c.sum()) - 1.0):.3e}"
    worst = float(np.max(np.abs(c - ref) / ref))
    if worst > CENTROID_RTOL:
        return f"centroid differs from the reference by {worst:.3e} relative"
    if abs(report["objective"] - objective) > CENTROID_RTOL * max(objective, 1e-300):
        return f"objective {report['objective']!r} vs reference {objective!r}"
    return None


def check_kmeans(payload: dict, rows: np.ndarray, k: int, frequency: bool) -> str | None:
    """None when a ``kmeans`` result is consistent, else the reason.

    The trace must never increase, every cluster must be used, centroids
    must be positive (and on the simplex in frequency modes), and the last
    trace value must equal the objective recomputed from the output.
    """
    assign = np.asarray(payload["assignments"])
    cents = np.asarray(payload["centroids"], dtype=np.float64)
    trace = payload["objective_trace"]
    if assign.shape != (rows.shape[0],) or cents.shape != (k, rows.shape[1]):
        return "assignments or centroids have the wrong shape"
    if assign.min() < 0 or assign.max() >= k or np.unique(assign).size != k:
        return "assignments leave a cluster empty or out of range"
    if not np.all(np.isfinite(cents)) or np.any(cents <= 0.0):
        return "centroids must be finite and positive"
    if frequency and np.max(np.abs(cents.sum(axis=1) - 1.0)) > SIMPLEX_ATOL:
        return "centroids off the simplex"
    if not trace or any(b > a for a, b in zip(trace, trace[1:])):
        return f"objective trace is empty or increases: {trace}"
    recomputed = float(jeffreys_to_rows(cents[assign], rows).mean())
    if abs(recomputed - trace[-1]) > CENTROID_RTOL * trace[-1]:
        return f"final objective {trace[-1]!r} vs recomputed {recomputed!r}"
    return None


def parse_bench(text: str) -> dict:
    """The ``bench`` table as {column: (avg, min, max)} plus its metric lines."""
    table, _, tail = text.partition("\n\n")
    lines = table.splitlines()
    cols = lines[0].split(",")[1:]
    stats = {c: [] for c in cols}
    for line in lines[1:]:
        for c, cell in zip(cols, line.split(",")[1:]):
            stats[c].append(float(cell))
    out = {c: tuple(v) for c, v in stats.items()}
    for line in tail.splitlines()[1:]:
        key, value = line.split(",")
        out[key] = float(value)
    return out


def check_bench(text: str, trials: int, dims: int) -> str | None:
    """None when a ``bench`` table satisfies the paper's invariants, else the reason.

    The positive centroid minimizes over a larger set than the exact
    frequency centroid (``alpha_positive <= 1``); the normalized one is
    feasible for it (``alpha_normalized >= 1``).  Every trial runs the full
    52-halving bisection schedule except the documented degenerate trials
    whose ``s(0)`` is already 1 to 1e-13, which run none; so
    ``mean * trials`` must be a whole multiple of 52, and not zero.
    """
    s = parse_bench(text)
    if int(s["trials"]) != trials or int(s["dims"]) != dims:
        return f"table echoes trials={s['trials']} dims={s['dims']}"
    if s["alpha_positive"][2] > 1.0 + ULPS:
        return f"max alpha_positive {s['alpha_positive'][2]!r} > 1"
    if s["alpha_normalized"][1] < 1.0 - ULPS:
        return f"min alpha_normalized {s['alpha_normalized'][1]!r} < 1"
    if not (0.0 < s["w_c"][1] and s["w_c"][2] <= 1.0 + ULPS):
        return f"w_c range {s['w_c'][1:]} outside (0, 1]"
    total = s["mean_bisection_halvings"] * trials
    full = round(total / BISECTION_HALVINGS)
    if full < 1 or abs(total - full * BISECTION_HALVINGS) > 1e-6:
        return f"mean halvings {s['mean_bisection_halvings']!r} is not 52 per bisected trial"
    return None


def degenerate_share(text: str) -> float:
    """Share of trials that skipped bisection as degenerate."""
    return 1.0 - parse_bench(text)["mean_bisection_halvings"] / BISECTION_HALVINGS
